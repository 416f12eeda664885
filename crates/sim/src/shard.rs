//! Multi-cluster sharding: N independent clusters fed from one sample
//! stream.
//!
//! The paper evaluates a single Snitch cluster; fleet-scale batch serving
//! replicates that cluster N times and streams batch samples across the
//! replicas. This module models exactly the scheduling-relevant part of
//! that fabric: each [`ClusterShard`] keeps *occupancy counters* (samples
//! executed, busy cycles in simulated time) and a [`ShardSet`] hands every
//! incoming sample to the least-loaded shard — the same workload-stealing
//! policy the kernels use for receptive fields (`next_rf` in Fig. 2b of
//! the paper), lifted from cores-within-a-cluster to
//! clusters-within-a-fleet.
//!
//! Because the claim rule only depends on deterministic simulated cycle
//! counts (least accumulated busy cycles, ties broken by the lowest shard
//! id), the resulting assignment and all derived statistics (makespan,
//! per-shard utilization, imbalance) are reproducible regardless of how
//! the host machine parallelizes the actual sample evaluation.
//!
//! # Example
//!
//! ```
//! use snitch_sim::ShardSet;
//!
//! let mut set = ShardSet::new(2);
//! // A heavy sample lands on shard 0 ...
//! assert_eq!(set.assign(1000.0), 0);
//! // ... so the next two go to the idle shard 1.
//! assert_eq!(set.assign(400.0), 1);
//! assert_eq!(set.assign(400.0), 1);
//! assert_eq!(set.makespan_cycles(), 1000.0);
//! assert!(set.imbalance() > 1.0);
//! ```

/// Occupancy counters of one simulated cluster replica.
///
/// Cycles are tracked as `f64` because the batch driver schedules on the
/// per-sample mean cycle counts reported by the execution backends, which
/// are floating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterShard {
    id: usize,
    samples: u64,
    busy_cycles: f64,
}

impl ClusterShard {
    /// An idle shard with the given id.
    pub fn new(id: usize) -> Self {
        ClusterShard { id, samples: 0, busy_cycles: 0.0 }
    }

    /// Shard id (position in the fleet).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of samples this shard has executed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Simulated cycles this shard has spent busy.
    pub fn busy_cycles(&self) -> f64 {
        self.busy_cycles
    }

    /// Charge one sample of `cycles` simulated cycles to this shard.
    pub fn record(&mut self, cycles: f64) {
        self.samples += 1;
        self.busy_cycles += cycles.max(0.0);
    }
}

/// A fleet of N independent cluster shards with least-loaded dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSet {
    shards: Vec<ClusterShard>,
    dispatch_cycles: f64,
}

impl ShardSet {
    /// Create a fleet of `n` idle shards (`n` is clamped to at least 1).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        ShardSet { shards: (0..n).map(ClusterShard::new).collect(), dispatch_cycles: 0.0 }
    }

    /// Charge `cycles` of dispatch overhead to a shard per claimed sample
    /// (models the atomic batch-counter bump across the fabric; zero by
    /// default).
    pub fn with_dispatch_cycles(mut self, cycles: f64) -> Self {
        self.dispatch_cycles = cycles.max(0.0);
        self
    }

    /// Number of shards in the fleet.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet is empty (never true: `new` clamps to one shard).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The per-shard occupancy counters.
    pub fn shards(&self) -> &[ClusterShard] {
        &self.shards
    }

    /// The shard that steals the next sample: least accumulated busy
    /// cycles, ties broken by the lowest shard id. Purely a function of the
    /// counters, hence deterministic.
    pub fn claim(&self) -> usize {
        self.shards
            .iter()
            .min_by(|a, b| a.busy_cycles.partial_cmp(&b.busy_cycles).unwrap().then(a.id.cmp(&b.id)))
            .expect("a shard set holds at least one shard")
            .id
    }

    /// Charge one sample of `cycles` (plus the dispatch overhead) to
    /// `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn record(&mut self, shard: usize, cycles: f64) {
        self.shards[shard].record(cycles + self.dispatch_cycles);
    }

    /// Claim the next sample and charge it in one step; returns the shard
    /// that executed it.
    pub fn assign(&mut self, cycles: f64) -> usize {
        let shard = self.claim();
        self.record(shard, cycles);
        shard
    }

    /// Simulated wall time of the batch: the busiest shard's cycles.
    pub fn makespan_cycles(&self) -> f64 {
        self.shards.iter().map(|s| s.busy_cycles).fold(0.0, f64::max)
    }

    /// Total busy cycles over all shards.
    pub fn total_busy_cycles(&self) -> f64 {
        self.shards.iter().map(|s| s.busy_cycles).sum()
    }

    /// Fraction of the makespan that `shard` spent busy (0 when the fleet
    /// is idle).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn utilization(&self, shard: usize) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0.0 {
            0.0
        } else {
            self.shards[shard].busy_cycles / makespan
        }
    }

    /// Load imbalance: busiest shard's cycles over the mean (1.0 is
    /// perfectly balanced; 0 when the fleet is idle).
    pub fn imbalance(&self) -> f64 {
        let mean = self.total_busy_cycles() / self.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            self.makespan_cycles() / mean
        }
    }

    /// Effective parallel speedup of the fleet over one shard running the
    /// whole stream: total busy cycles over the makespan.
    pub fn batch_speedup(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0.0 {
            0.0
        } else {
            self.total_busy_cycles() / makespan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clamps_to_one_shard() {
        let set = ShardSet::new(0);
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
    }

    #[test]
    fn uniform_samples_round_robin_across_shards() {
        let mut set = ShardSet::new(4);
        let assigned: Vec<usize> = (0..8).map(|_| set.assign(100.0)).collect();
        assert_eq!(assigned, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert!(set.shards().iter().all(|s| s.samples() == 2));
        assert_eq!(set.imbalance(), 1.0);
        assert_eq!(set.batch_speedup(), 4.0);
    }

    #[test]
    fn heavy_sample_is_worked_around() {
        let mut set = ShardSet::new(2);
        assert_eq!(set.assign(10_000.0), 0);
        for _ in 0..4 {
            assert_eq!(set.assign(100.0), 1, "light samples steal around the busy shard");
        }
        assert_eq!(set.shards()[0].samples(), 1);
        assert_eq!(set.shards()[1].samples(), 4);
        assert_eq!(set.makespan_cycles(), 10_000.0);
        assert!((set.utilization(1) - 400.0 / 10_000.0).abs() < 1e-12);
        assert!(set.imbalance() > 1.9);
    }

    #[test]
    fn dispatch_overhead_is_charged_per_sample() {
        let mut set = ShardSet::new(1).with_dispatch_cycles(10.0);
        set.assign(90.0);
        set.assign(90.0);
        assert_eq!(set.total_busy_cycles(), 200.0);
        assert_eq!(set.shards()[0].samples(), 2);
    }

    #[test]
    fn idle_fleet_reports_zeroes() {
        let set = ShardSet::new(3);
        assert_eq!(set.makespan_cycles(), 0.0);
        assert_eq!(set.imbalance(), 0.0);
        assert_eq!(set.batch_speedup(), 0.0);
        assert_eq!(set.utilization(0), 0.0);
    }

    #[test]
    fn single_shard_absorbs_everything() {
        let mut set = ShardSet::new(1);
        for i in 0..10 {
            assert_eq!(set.assign(i as f64), 0);
        }
        assert_eq!(set.shards()[0].samples(), 10);
        assert_eq!(set.batch_speedup(), 1.0);
        assert_eq!(set.imbalance(), 1.0);
    }

    #[test]
    fn negative_cycles_are_clamped() {
        let mut shard = ClusterShard::new(0);
        shard.record(-5.0);
        assert_eq!(shard.busy_cycles(), 0.0);
        assert_eq!(shard.samples(), 1);
    }
}
