//! The checked-in scenario files must stay parseable and runnable — they
//! are the CLI's public surface and the CI smoke test's input — and the
//! parser must turn any mutation of them into a scenario within bounds or
//! a line-numbered error, never a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikestream::scenario::Limit;
use spikestream::{KernelVariant, NetworkChoice, Request, Scenario, TimingModel, WorkloadMode};

/// Serve one scenario through the compile-once lifecycle (what the CLI's
/// `run` subcommand does).
fn serve(scenario: &Scenario) -> spikestream::InferenceReport {
    scenario.compile().expect("scenario compiles").open_session().infer(&scenario.request())
}

fn scenario_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios")
}

/// Every checked-in scenario as `(file name, text)`, sorted by name.
fn checked_in_scenarios() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(scenario_dir())
        .expect("examples/scenarios exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("toml"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable scenario");
            (path.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_checked_in_scenario_parses() {
    let files = checked_in_scenarios();
    for (name, text) in &files {
        let scenario = Scenario::parse(text).unwrap_or_else(|e| panic!("{name} must parse: {e}"));
        assert_ne!(scenario.name, "unnamed", "{name} should set a name");
    }
    assert!(
        files.len() >= 3,
        "expected at least three checked-in scenarios, found {}",
        files.len()
    );
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
    scenario.set("scenario", "batch", "16").unwrap();
    scenario.set("scenario", "shards", "3").unwrap();
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

/// Tokens the mutator splices in: integer extremes, signs, non-finite and
/// malformed numbers, a stray quote, section headers and an out-of-range
/// shard count.
const SPLICE_TOKENS: &[&str] = &[
    "18446744073709551615",
    "4000000000",
    "-1",
    "0",
    "nan",
    "1e999",
    "0x",
    "\"",
    "[serve]",
    "[neuron_model]",
    "shards = 1025",
];

/// Apply one seeded ASCII mutation to `bytes`: a byte flip, a line drop or
/// duplicate, or a token spliced into a line, over a line's value, or on a
/// line of its own.
fn mutate(bytes: &mut Vec<u8>, rng: &mut StdRng) {
    let token = SPLICE_TOKENS[rng.gen_range(0..SPLICE_TOKENS.len())].as_bytes();
    let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    let at = rng.gen_range(0..lines.len());
    match rng.gen_range(0..6u32) {
        0 if !bytes.is_empty() => {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen_range(0..128u8);
            return;
        }
        1 => {
            lines.remove(at);
        }
        2 => lines.insert(at, lines[at].clone()),
        3 => {
            let i = rng.gen_range(0..lines[at].len() + 1);
            lines[at].splice(i..i, token.iter().copied());
        }
        4 => match lines[at].iter().position(|&b| b == b'=') {
            Some(eq) => {
                lines[at].truncate(eq + 1);
                lines[at].push(b' ');
                lines[at].extend_from_slice(token);
            }
            None => lines.insert(at, token.to_vec()),
        },
        _ => lines.insert(at, token.to_vec()),
    }
    *bytes = lines.join(&b'\n');
}

proptest! {
    #[test]
    fn mutated_scenarios_parse_within_bounds_or_fail_with_a_line(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, original) in checked_in_scenarios() {
            let mut bytes = original.into_bytes();
            for _ in 0..rng.gen_range(1..9usize) {
                mutate(&mut bytes, &mut rng);
            }
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let parsed = catch_unwind(|| Scenario::parse(&text))
                .unwrap_or_else(|_| panic!("Scenario::parse panicked on mutated {name}:\n{text}"));
            let scenario = match parsed {
                Err(err) => {
                    let lines = text.lines().count();
                    prop_assert!(err.line <= lines, "{name}: {err} names line > {lines}:\n{text}");
                    continue;
                }
                Ok(scenario) => scenario,
            };
            let within = |limit: Limit, n: usize| limit.check(n).is_ok();
            prop_assert!(within(Limit::SHARDS, scenario.shards), "{name}:\n{text}");
            prop_assert!(within(Limit::BATCH, scenario.config.batch), "{name}:\n{text}");
            if let WorkloadMode::Temporal { timesteps, .. } = scenario.config.mode {
                prop_assert!(within(Limit::TIMESTEPS, timesteps), "{name}:\n{text}");
            }
            if let Some(serve) = scenario.serve {
                let max_batch = serve.max_batch.is_none_or(|n| within(Limit::MAX_BATCH, n));
                prop_assert!(max_batch, "{name}:\n{text}");
                let queue_cap = serve.queue_cap.is_none_or(|n| within(Limit::QUEUE_CAP, n));
                prop_assert!(queue_cap, "{name}:\n{text}");
            }
            // Building S-VGG11's weights is too slow for a debug-build
            // property; the tiny networks compile in microseconds.
            if scenario.network != NetworkChoice::Svgg11 {
                let compiled = catch_unwind(AssertUnwindSafe(|| scenario.compile().map(drop)));
                prop_assert!(compiled.is_ok(), "compile panicked on mutated {name}:\n{text}");
            }
        }
    }
}
