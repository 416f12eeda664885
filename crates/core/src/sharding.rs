//! Fleet attribution: many samples across many simulated clusters.
//!
//! The paper evaluates a single Snitch cluster; fleet-scale batch serving
//! replicates that cluster N times and streams batch samples across the
//! replicas. A sharded request
//! ([`Request::with_shards`](crate::Request::with_shards)) is served by the
//! [`Session`](crate::Session) like any other; afterwards
//! [`attribute_shards`] replays the per-sample cycle totals through N
//! simulated shards. Samples are dispatched in request order, each to the
//! shard with the least accumulated simulated cycles (ties go to the
//! lowest shard id) — the paper's `next_rf` workload stealing, lifted from
//! receptive fields to batch samples. The assignment is a pure function of
//! the results, hence identical no matter how the host worker threads
//! raced, and the aggregate report stays bit-identical to a sequential
//! request.

use crate::report::{ShardSummary, ShardUtilization};

/// Atomic bump of the shared batch cursor plus the branch of the stealing
/// loop, charged per dispatched sample in simulated time (mirrors the
/// per-RF overhead the kernels charge for `next_rf` stealing).
pub const DISPATCH_CYCLES: f64 = 2.0;

/// Upper bound on the simulated cluster shards one request is attributed
/// to. Scenario files, CLI flags and gateway submissions reject larger
/// counts; [`attribute_shards`] clamps to it.
pub const MAX_SHARDS: usize = 1024;

/// Upper bound on the host worker threads one request is served with. The
/// CLI's `--workers` rejects larger counts, and a
/// [`Session`](crate::Session) clamps every request to it.
pub const MAX_WORKERS: usize = 256;

/// The host worker-count sizing policy of the [`Session`](crate::Session)
/// pool: never run more workers than there are samples to claim (extra
/// workers would claim nothing and pay wakeup churn for no parallelism)
/// or than [`MAX_WORKERS`], and always run at least one.
pub(crate) fn clamp_workers(workers: usize, samples: usize) -> usize {
    workers.clamp(1, samples.clamp(1, MAX_WORKERS))
}

/// Deterministic fleet attribution of per-sample cycle totals to `shards`
/// simulated clusters: samples are dispatched in slice order, each to the
/// shard with the least accumulated simulated cycles, exactly as
/// [`Session`](crate::Session) attributes a sharded request. A pure
/// function of its inputs, so a serving gateway that coalesces several
/// requests into one run can re-attribute each request's own samples
/// afterwards and obtain the bit-identical [`ShardSummary`] a bare
/// single-request session run would have produced. `shards` is clamped to
/// `1..=`[`MAX_SHARDS`].
pub fn attribute_shards(sample_cycles: &[f64], shards: usize) -> ShardSummary {
    // Per-shard occupancy: (samples executed, busy simulated cycles).
    let mut load = vec![(0u64, 0.0f64); shards.clamp(1, MAX_SHARDS)];
    for &cycles in sample_cycles {
        let shard = (0..load.len())
            .min_by(|&a, &b| load[a].1.partial_cmp(&load[b].1).unwrap().then(a.cmp(&b)))
            .expect("at least one shard");
        load[shard].0 += 1;
        load[shard].1 += (cycles + DISPATCH_CYCLES).max(0.0);
    }
    let makespan = load.iter().map(|&(_, busy)| busy).fold(0.0, f64::max);
    let total: f64 = load.iter().map(|&(_, busy)| busy).sum();
    let mean = total / load.len() as f64;
    // Every ratio reads 0 on an idle fleet.
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    ShardSummary {
        shards: load
            .iter()
            .enumerate()
            .map(|(shard, &(samples, busy_cycles))| ShardUtilization {
                shard,
                samples,
                busy_cycles,
                utilization: ratio(busy_cycles, makespan),
            })
            .collect(),
        makespan_cycles: makespan,
        imbalance: ratio(makespan, mean),
        batch_speedup: ratio(total, makespan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sample_is_attributed_exactly_once() {
        let cycles: Vec<f64> = (0..25).map(|i| 1_000.0 + (i * 37 % 11) as f64 * 100.0).collect();
        let summary = attribute_shards(&cycles, 8);
        assert_eq!(summary.shards.len(), 8);
        assert_eq!(summary.shards.iter().map(|s| s.samples).sum::<u64>(), 25);
        assert!(summary.shards.iter().all(|s| s.utilization > 0.0 && s.utilization <= 1.0));
        assert!(summary.imbalance >= 1.0);
        assert!(summary.batch_speedup > 1.0 && summary.batch_speedup <= 8.0);
        assert_eq!(summary, attribute_shards(&cycles, 8), "a pure function of the cycles");
    }

    /// Per-shard sample counts of a summary.
    fn samples(summary: &ShardSummary) -> Vec<u64> {
        summary.shards.iter().map(|s| s.samples).collect()
    }

    #[test]
    fn worker_counts_clamp_to_the_chunks_and_the_bound() {
        assert_eq!(clamp_workers(0, 8), 1);
        assert_eq!(clamp_workers(16, 8), 8);
        assert_eq!(clamp_workers(4, 0), 1);
        assert_eq!(clamp_workers(usize::MAX, usize::MAX), MAX_WORKERS);
    }

    #[test]
    fn zero_shards_clamp_to_one() {
        for (shards, clamped) in [(0, 1), (usize::MAX, MAX_SHARDS)] {
            let summary = attribute_shards(&[100.0], shards);
            let mut expected = vec![0; clamped];
            expected[0] = 1;
            assert_eq!(samples(&summary), expected, "{shards} shards");
        }
    }

    #[test]
    fn uniform_samples_round_robin_across_shards() {
        // Equal loads tie, and ties go to the lowest shard id.
        let summary = attribute_shards(&[100.0; 8], 4);
        assert_eq!(samples(&summary), vec![2, 2, 2, 2]);
        assert_eq!(summary.imbalance, 1.0);
        assert_eq!(summary.batch_speedup, 4.0);
    }

    #[test]
    fn heavy_sample_is_worked_around() {
        let summary = attribute_shards(&[10_000.0, 100.0, 100.0, 100.0, 100.0], 2);
        assert_eq!(samples(&summary), vec![1, 4], "light samples steal around the busy shard");
        let makespan = 10_000.0 + DISPATCH_CYCLES;
        assert_eq!(summary.makespan_cycles, makespan);
        assert_eq!(summary.shards[1].busy_cycles, 4.0 * (100.0 + DISPATCH_CYCLES));
        assert!((summary.shards[1].utilization - 408.0 / makespan).abs() < 1e-12);
        assert!(summary.imbalance > 1.9);
    }

    #[test]
    fn dispatch_overhead_is_charged_per_sample() {
        let summary = attribute_shards(&[90.0, 90.0], 1);
        assert_eq!(summary.shards[0].samples, 2);
        assert_eq!(summary.shards[0].busy_cycles, 2.0 * (90.0 + DISPATCH_CYCLES));
    }

    #[test]
    fn negative_cycles_are_clamped() {
        let summary = attribute_shards(&[-5.0], 1);
        assert_eq!(summary.shards[0].samples, 1);
        assert_eq!(summary.shards[0].busy_cycles, 0.0);
    }

    #[test]
    fn single_shard_absorbs_everything() {
        let cycles: Vec<f64> = (0..10).map(f64::from).collect();
        let summary = attribute_shards(&cycles, 1);
        assert_eq!(samples(&summary), vec![10]);
        assert_eq!(summary.shards[0].utilization, 1.0);
        assert_eq!(summary.batch_speedup, 1.0);
        assert_eq!(summary.imbalance, 1.0);
    }

    #[test]
    fn an_empty_slice_reports_zeroes() {
        let summary = attribute_shards(&[], 3);
        assert_eq!(samples(&summary), vec![0, 0, 0]);
        assert_eq!(summary.makespan_cycles, 0.0);
        assert_eq!(summary.imbalance, 0.0);
        assert_eq!(summary.batch_speedup, 0.0);
        assert!(summary.shards.iter().all(|s| s.busy_cycles == 0.0 && s.utilization == 0.0));
    }
}
