//! Golden-JSON serving equivalence.
//!
//! The compile-once `Plan`/`Session` redesign must not move a single byte
//! of any report: this suite replays the scenarios of the pre-redesign
//! engine — cycle-level (`tiny`, `tiny_pool`), temporal (`tiny_temporal`)
//! and analytic (S-VGG11 FP16/FP8, synthetic and temporal) at 1/2/4
//! shards — through the serving path (`Scenario::compile` →
//! `Session::infer`) and compares the reports byte for byte against the
//! JSON captured from the pre-redesign code (`tests/golden/*.json`).
//! `tiny_izhikevich` extends the set with a two-state-variable temporal
//! capture pinning the Izhikevich path, `tiny_baseline` with the
//! Baseline variant on the cycle-level backend (the only exact programs
//! that carry `Loop` ops), `svgg11_cycle` with S-VGG11 on the
//! cycle-level backend (the only exact programs whose conv layers tile
//! their weights), and `tiny_temporal_fp8`/`tiny_temporal_fp32` with
//! `tiny_temporal` at FP8 and FP32, whose SIMD groups are eight and two
//! lanes wide where every other cycle-level capture's are four.
//!
//! Refreshing a golden after an *intentional* behavior change:
//!
//! ```text
//! for n in 1 2 4; do
//!   cargo run --release --bin spikestream -- \
//!     run examples/scenarios/<name>.toml --shards $n --json \
//!     > tests/golden/<name>_shards$n.json
//! done
//! ```
//!
//! then explain in the commit message why every byte that moved was
//! supposed to move — these captures exist to make silent report drift
//! impossible, so a refresh must never ride along unexplained.

use std::path::{Path, PathBuf};

use spikestream::{FpFormat, Request, Scenario, TimingModel};

fn repo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

fn golden(name: &str) -> String {
    let path = repo_dir().join("tests/golden").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden capture {} must exist: {e}", path.display()))
        .trim_end()
        .to_string()
}

fn scenario(name: &str) -> Scenario {
    Scenario::from_file(&repo_dir().join("examples/scenarios").join(name)).expect("scenario parses")
}

/// Serve `scenario` at `shards` through the new lifecycle.
fn serve(scenario: &Scenario, shards: usize) -> String {
    let plan = scenario.compile().expect("scenario compiles");
    plan.open_session().infer(&Request::batch(scenario.config.batch).with_shards(shards)).to_json()
}

#[test]
fn cycle_level_and_temporal_scenarios_match_the_pre_redesign_captures() {
    for name in ["tiny", "tiny_baseline", "tiny_pool", "tiny_temporal", "tiny_izhikevich"] {
        let scenario = scenario(&format!("{name}.toml"));
        for shards in [1usize, 2, 4] {
            let expected = golden(&format!("{name}_shards{shards}.json"));
            assert_eq!(serve(&scenario, shards), expected, "{name} @ {shards} shards");
        }
    }
}

#[test]
fn the_temporal_scenario_matches_its_fp8_and_fp32_captures() {
    // `tiny_temporal.toml` with `format = "fp8"` or `"fp32"`, run with
    // `--shards 2 --json`.
    for (format, name) in [(FpFormat::Fp8, "fp8"), (FpFormat::Fp32, "fp32")] {
        let mut scenario = scenario("tiny_temporal.toml");
        scenario.config.format = format;
        let expected = golden(&format!("tiny_temporal_{name}_shards2.json"));
        assert_eq!(serve(&scenario, 2), expected, "tiny_temporal at {format}");
    }
}

#[test]
fn the_cycle_level_svgg11_scenario_matches_its_capture() {
    // `spikestream run svgg11_cycle.toml --shards 2 --json`: paper-scale
    // exact lowering, with double-buffered inbound weight tiles.
    let scenario = scenario("svgg11_cycle.toml");
    assert_eq!(scenario.config.timing, TimingModel::CycleLevel);
    let expected = golden("svgg11_cycle_shards2.json");
    assert_eq!(serve(&scenario, 2), expected, "svgg11 cycle-level");
}

#[test]
fn analytic_scenarios_match_the_pre_redesign_captures() {
    // `spikestream run svgg11_fp16.toml --batch 8 --shards 2 --json`
    let mut fp16 = scenario("svgg11_fp16.toml");
    fp16.config.batch = 8;
    assert_eq!(fp16.config.timing, TimingModel::Analytic);
    let expected = golden("svgg11_analytic_shards2.json");
    assert_eq!(serve(&fp16, 2), expected, "svgg11 fp16");

    // `--batch 4 --timesteps 3 --shards 2`: the temporal analytic path.
    let mut temporal = scenario("svgg11_fp16.toml");
    temporal.config.batch = 4;
    temporal.config = temporal.config.temporal_steps(3);
    let expected = golden("svgg11_analytic_t3_shards2.json");
    assert_eq!(serve(&temporal, 2), expected, "svgg11 t3");

    // `spikestream run svgg11_fp8.toml --batch 8 --shards 4 --json`
    let mut fp8 = scenario("svgg11_fp8.toml");
    fp8.config.batch = 8;
    let expected = golden("svgg11_fp8_analytic_shards4.json");
    assert_eq!(serve(&fp8, 4), expected, "svgg11 fp8");
}
