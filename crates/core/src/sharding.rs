//! Fleet attribution: many samples across many simulated clusters.
//!
//! A sharded request ([`Request::with_shards`](crate::Request::with_shards))
//! is served by the [`Session`](crate::Session) like any other; afterwards
//! [`attribute_shards`] replays the per-sample cycle totals through a
//! [`ShardSet`] of N simulated [`ClusterShard`](snitch_sim::ClusterShard)s.
//! Samples are dispatched in request order, each to the shard with the
//! least accumulated simulated cycles — the paper's `next_rf` workload
//! stealing, lifted from receptive fields to batch samples. The assignment
//! is a pure function of the results, hence identical no matter how the
//! host worker threads raced, and the aggregate report stays bit-identical
//! to a sequential request.

use snitch_sim::ShardSet;

use crate::report::{ShardSummary, ShardUtilization};

/// Atomic bump of the shared batch cursor plus the branch of the stealing
/// loop, charged per dispatched sample in simulated time (mirrors the
/// per-RF overhead the kernels charge for `next_rf` stealing).
pub const DISPATCH_CYCLES: f64 = 2.0;

/// The host worker-count sizing policy of the [`Session`](crate::Session)
/// pool: never run more workers than there are chunks to steal (extra
/// workers would claim nothing and pay wakeup churn for no parallelism),
/// and always run at least one.
pub(crate) fn clamp_workers(workers: usize, chunks: usize) -> usize {
    workers.clamp(1, chunks.max(1))
}

/// Deterministic fleet attribution of per-sample cycle totals to `shards`
/// simulated clusters: samples are dispatched in slice order, each to the
/// shard with the least accumulated simulated cycles, exactly as
/// [`Session`](crate::Session) attributes a sharded request. A pure
/// function of its inputs, so a serving gateway that coalesces several
/// requests into one run can re-attribute each request's own samples
/// afterwards and obtain the bit-identical [`ShardSummary`] a bare
/// single-request session run would have produced.
pub fn attribute_shards(sample_cycles: &[f64], shards: usize) -> ShardSummary {
    let mut set = ShardSet::new(shards.max(1)).with_dispatch_cycles(DISPATCH_CYCLES);
    for &cycles in sample_cycles {
        set.assign(cycles);
    }
    ShardSummary {
        shards: set
            .shards()
            .iter()
            .map(|s| ShardUtilization {
                shard: s.id(),
                samples: s.samples(),
                busy_cycles: s.busy_cycles(),
                utilization: set.utilization(s.id()),
            })
            .collect(),
        makespan_cycles: set.makespan_cycles(),
        imbalance: set.imbalance(),
        batch_speedup: set.batch_speedup(),
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
}
