//! The checked-in scenario files must stay parseable and runnable — they
//! are the CLI's public surface and the CI smoke test's input.

use std::path::Path;

use spikestream::{KernelVariant, NetworkChoice, Request, Scenario, TimingModel};

/// Serve one scenario through the compile-once lifecycle (what the CLI's
/// `run` subcommand does).
fn serve(scenario: &Scenario) -> spikestream::InferenceReport {
    scenario.compile().expect("scenario compiles").open_session().infer(&scenario.request())
}

fn scenario_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios")
}

#[test]
fn every_checked_in_scenario_parses() {
    let mut found = 0;
    for entry in std::fs::read_dir(scenario_dir()).expect("examples/scenarios exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let scenario = Scenario::from_file(&path)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        assert_ne!(scenario.name, "unnamed", "{} should set a name", path.display());
        found += 1;
    }
    assert!(found >= 3, "expected at least three checked-in scenarios, found {found}");
}

#[test]
fn the_smoke_scenario_is_cycle_level_and_fast() {
    let scenario = Scenario::from_file(&scenario_dir().join("smoke.toml")).unwrap();
    assert_eq!(scenario.network, NetworkChoice::TinyCnn);
    assert_eq!(scenario.config.timing, TimingModel::CycleLevel);
    assert!(scenario.config.batch <= 16, "smoke batch stays CI-sized");

    let report = serve(&scenario);
    assert_eq!(report.layers.len(), 3);
    assert!(report.total_cycles() > 0.0);
    let fleet = report.shards.expect("sharded run carries fleet stats");
    assert_eq!(fleet.shards.iter().map(|s| s.samples).sum::<u64>(), scenario.config.batch as u64);
}

#[test]
fn the_pool_scenario_runs_the_avgpool_layer_on_both_backends() {
    let scenario = Scenario::from_file(&scenario_dir().join("tiny_pool.toml")).unwrap();
    assert_eq!(scenario.network, NetworkChoice::TinyPool);
    assert_eq!(scenario.config.timing, TimingModel::CycleLevel);

    let cycle = serve(&scenario);
    assert_eq!(cycle.layers.len(), 3);
    let pool = cycle.layer("pool2").expect("the pooling layer reports");
    assert!(pool.cycles > 0.0 && pool.synops > 0.0);
    // Pooling is far cheaper than the conv stage feeding it.
    assert!(pool.cycles < cycle.layer("conv1").unwrap().cycles);

    // The same scenario through the analytic (IR-integration) backend:
    // both backends lower the pool layer through the same emitter, so the
    // expected input spike count matches the realized one.
    let mut analytic = scenario.clone();
    analytic.config.timing = TimingModel::Analytic;
    let report = serve(&analytic);
    let a = report.layer("pool2").unwrap();
    assert_eq!(a.input_spikes.round(), pool.input_spikes);
    assert!(a.cycles > 0.0);
}

#[test]
fn the_headline_scenario_matches_the_paper_configuration() {
    let scenario = Scenario::from_file(&scenario_dir().join("svgg11_fp16.toml")).unwrap();
    assert_eq!(scenario.network, NetworkChoice::Svgg11);
    assert_eq!(scenario.config.variant, KernelVariant::SpikeStream);
    assert_eq!(scenario.config.batch, 128);
    assert_eq!(scenario.shards, 8);

    // The full headline run: sharded aggregate == sequential reference,
    // which is the CLI acceptance property (`spikestream run --shards 8`).
    let plan = scenario.compile().unwrap();
    let mut session = plan.open_session();
    let sharded = session.infer(&scenario.request());
    let sequential = session.infer(&Request::batch(scenario.config.batch).sequential());
    assert!(sharded.to_json().contains("\"per_shard\""));
    assert_eq!(sharded.without_shard_stats().to_json(), sequential.to_json());
}

#[test]
fn scenario_overrides_compose_like_the_cli_flags() {
    let mut scenario = Scenario::from_file(&scenario_dir().join("svgg11_fp16.toml")).unwrap();
    // What `spikestream run --batch 16 --shards 3` does to the scenario.
    scenario.config.batch = 16;
    scenario.shards = 3;
    let report = serve(&scenario);
    assert_eq!(report.batch, 16);
    assert_eq!(report.shards.expect("fleet stats").shards.len(), 3);
}

#[test]
fn an_oversized_batch_is_a_compile_error_not_an_abort() {
    // `batch x layers x timesteps` beyond the plan's layer-sample bound must
    // fail compilation with the three factors named, before any fold
    // buffer is sized from it.
    let scenario = Scenario::parse(
        "[scenario]\nname = \"huge\"\nnetwork = \"tiny-cnn\"\nbatch = 4000000000\ntimesteps = 2\n",
    )
    .expect("the scenario itself parses");
    let err = scenario.compile().expect_err("the batch exceeds the bound");
    assert_eq!(
        err.to_string(),
        "scenario: batch 4000000000 x 3 layers x 2 timesteps exceeds the limit of 4194304 \
         layer samples per request"
    );
}
