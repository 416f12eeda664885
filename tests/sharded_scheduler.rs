//! Sharded requests must be a pure refinement of sequential ones:
//! identical aggregate reports at every shard count, plus deterministic,
//! sane fleet statistics on top.

use proptest::prelude::*;
use spikestream::{
    Engine, FpFormat, InferenceConfig, KernelVariant, NetworkChoice, Request, Scenario,
    TimingModel, WorkloadMode,
};

fn svgg11_config(batch: usize) -> InferenceConfig {
    InferenceConfig {
        variant: KernelVariant::SpikeStream,
        format: FpFormat::Fp16,
        timing: TimingModel::Analytic,
        batch,
        seed: 0xBEEF,
        mode: WorkloadMode::Synthetic,
    }
}

#[test]
fn sharded_aggregates_are_bit_identical_to_sequential_at_1_2_8_shards() {
    let engine = Engine::svgg11(9);
    let config = svgg11_config(32);
    let plan = engine.compile(&config);
    let mut session = plan.open_session();
    let sequential = session.infer(&Request::batch(32).sequential());
    for shards in [1, 2, 8] {
        let sharded = session.infer(&Request::batch(32).with_shards(shards));
        let fleet = sharded.shards.clone().expect("sharded runs carry fleet stats");
        assert_eq!(fleet.shards.len(), shards);
        let stripped = sharded.without_shard_stats();
        assert_eq!(stripped, sequential, "{shards} shards");
        assert_eq!(stripped.to_json(), sequential.to_json(), "{shards} shards");
    }
}

#[test]
fn sharded_cycle_level_backend_matches_sequential_too() {
    let scenario = Scenario::parse(
        "[scenario]\nname = \"cyc\"\nnetwork = \"tiny-cnn\"\ntiming = \"cycle-level\"\nbatch = 5\nshards = 2\nseed = 3\n",
    )
    .unwrap();
    let plan = scenario.compile().unwrap();
    let mut session = plan.open_session();
    let sharded = session.infer(&scenario.request());
    let sequential = session.infer(&Request::batch(scenario.config.batch).sequential());
    assert_eq!(sharded.without_shard_stats(), sequential);
}

#[test]
fn fleet_statistics_are_deterministic_across_repeated_runs() {
    let engine = Engine::svgg11(9);
    let config = svgg11_config(48);
    let plan = engine.compile(&config);
    let mut session = plan.open_session();
    let first = session.infer(&Request::batch(48).with_shards(8));
    for _ in 0..3 {
        let again = session.infer(&Request::batch(48).with_shards(8));
        assert_eq!(again, first);
        assert_eq!(again.to_json(), first.to_json());
    }
}

#[test]
fn imbalance_statistics_are_sane() {
    let engine = Engine::svgg11(9);
    let config = svgg11_config(64);
    let report = engine.compile(&config).open_session().infer(&Request::batch(64).with_shards(8));
    let fleet = report.shards.clone().expect("fleet stats present");

    assert_eq!(fleet.shards.iter().map(|s| s.samples).sum::<u64>(), 64);
    assert!((1.0..=8.0).contains(&fleet.imbalance), "imbalance {}", fleet.imbalance);
    assert!(fleet.batch_speedup > 4.0 && fleet.batch_speedup <= 8.0);
    let busiest: f64 = fleet.shards.iter().map(|s| s.busy_cycles).fold(0.0, f64::max);
    assert_eq!(fleet.makespan_cycles, busiest);
    for shard in &fleet.shards {
        assert!(shard.utilization > 0.0 && shard.utilization <= 1.0);
        assert!(shard.samples > 0, "64 samples over 8 shards leave nobody idle");
        // The least-loaded policy keeps every shard within the heaviest
        // single sample of the makespan, so utilization stays high.
        assert!(shard.utilization > 0.5, "utilization {}", shard.utilization);
    }
    // Per-shard utilization also surfaces in the JSON rendering.
    let json = report.to_json();
    assert!(json.contains("\"shards\":{\"makespan_cycles\":"));
    assert!(json.contains("\"per_shard\":[{\"shard\":0,"));
    assert!(json.contains("\"utilization\":"));
    assert!(json.contains("\"imbalance\":"));
}

#[test]
fn more_shards_than_samples_leave_the_tail_idle() {
    let engine = Engine::svgg11(9);
    let config = svgg11_config(3);
    let report = engine.compile(&config).open_session().infer(&Request::batch(3).with_shards(8));
    let fleet = report.shards.expect("fleet stats present");
    assert_eq!(fleet.shards.iter().filter(|s| s.samples > 0).count(), 3);
    assert_eq!(fleet.shards.iter().filter(|s| s.busy_cycles == 0.0).count(), 5);
}

proptest! {
    #[test]
    fn any_shard_count_times_batch_size_preserves_the_aggregate_report(
        shards in 1usize..12,
        batch in 1usize..40,
        seed in any::<u64>(),
    ) {
        let (network, profile) = NetworkChoice::TinyCnn.build(seed % 1000);
        let engine = Engine::new(network, profile);
        let config = InferenceConfig {
            variant: KernelVariant::SpikeStream,
            format: FpFormat::Fp16,
            timing: TimingModel::Analytic,
            batch,
            seed,
            mode: WorkloadMode::Synthetic,
        };
        let plan = engine.compile(&config);
        let mut session = plan.open_session();
        let sharded = session.infer(&Request::batch(batch).with_shards(shards));
        let fleet = sharded.shards.clone().expect("fleet stats present");
        prop_assert_eq!(fleet.shards.len(), shards);
        prop_assert_eq!(fleet.shards.iter().map(|s| s.samples).sum::<u64>(), batch as u64);
        let sequential = session.infer(&Request::batch(batch).sequential());
        prop_assert_eq!(sharded.without_shard_stats(), sequential);
    }
}

#[test]
fn scheduler_attribution_is_a_pure_function_of_the_samples() {
    // Different host-side choices must never change anything: neither the
    // measurements nor the fleet attribution. The worker count and the
    // plan's batch size decide which worker claims which sample, and in
    // what order; the same 24 samples must still fold to one report.
    let engine = Engine::svgg11(2);
    let serve = |workers: usize, batch: usize| {
        let plan = engine.compile(&svgg11_config(batch));
        let request = Request::batch(24).with_shards(6).with_workers(workers);
        plan.open_session().infer(&request).to_json()
    };
    let reference = serve(1, 24);
    assert!(reference.contains("\"per_shard\":[{\"shard\":0,"), "per-shard stats are compared");
    for (workers, batch) in [(2, 24), (4, 24), (8, 24), (3, 24), (2, 32), (8, 48), (5, 96)] {
        assert_eq!(serve(workers, batch), reference, "workers={workers} batch={batch}");
    }
}
