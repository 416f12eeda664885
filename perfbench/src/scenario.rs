//! `scenario-temporal`: the `spikestream run` path on the tiny-cnn,
//! cycle-level, T=4 rate-coded scenario — compiled once, then serving
//! consecutive fresh sample ranges through `Session::infer`. No gateway
//! and no program cache: time goes to spike encoding and neuron stepping,
//! exact kernel lowering, the cycle interpreter and the worker pool.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spikestream::{CycleLevelBackend, Plan, Request, Scenario};

use crate::outcome::{Outcome, Phase, SetupTimes};
use crate::schedule::{fresh_base, stream};
use crate::stats::{percentile, Histogram};
use crate::trace::{Recorder, Span, TracedBackend, NONE};

const SCENARIO: &str = "examples/scenarios/tiny_temporal.toml";
/// The scenario's full-batch report, as `spikestream run --json` prints it.
const GOLDEN: &str = "tests/golden/tiny_temporal_shards2.json";
/// Samples per timed request: two of the session's 4-sample chunks, so
/// the pool fans each request out over two workers.
const RANGE: usize = 8;
/// Set-up repetitions per round; a run times one round before and one after
/// its timed phase and reports the median.
const SETUP_REPS: usize = 100;

/// Read the scenario and compile it, `SETUP_REPS` times; keep the last. A
/// traced run binds the cycle-level backend wrapped in a [`TracedBackend`].
fn set_up(
    recorder: Option<&Arc<Recorder>>,
    times: &mut SetupTimes,
) -> Result<(Scenario, Plan), String> {
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        let scenario = Scenario::from_file(Path::new(SCENARIO)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let engine = scenario.engine();
        let t2 = Instant::now();
        let mut compiler = engine.compiler();
        let t3 = Instant::now();
        if let Some(recorder) = recorder {
            let traced = TracedBackend::new(Box::new(CycleLevelBackend), Arc::clone(recorder));
            compiler = compiler.with_backend(Box::new(traced));
        }
        let plan = compiler.compile(scenario.config).map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        times.network_build.push((t2 - t1).as_secs_f64());
        times.compiler_clone.push((t3 - t2).as_secs_f64());
        times.compile.push((t4 - t3).as_secs_f64());
        times.publish.push(0.0);
        times.total.push((t4 - t0).as_secs_f64());
        built = Some((scenario, plan));
    }
    Ok(built.expect("at least one set-up repetition"))
}

/// Run the workload; `Err` when the scenario or golden file is missing.
pub fn temporal(
    seed: u64,
    seconds: u64,
    recorder: Option<Arc<Recorder>>,
) -> Result<Outcome, String> {
    let golden =
        std::fs::read_to_string(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))?;
    let mut outcome = Outcome::default();
    let mut times = SetupTimes::default();
    let (scenario, plan) = set_up(recorder.as_ref(), &mut times)?;
    let mut session = plan.open_session();

    let mut next = fresh_base(&mut stream(seed, 7));
    let mut serve = |session: &mut spikestream::Session<'_>| {
        let request = Request::samples(next..next + RANGE).with_shards(scenario.shards);
        next += RANGE;
        let t0 = Instant::now();
        std::hint::black_box(session.infer(&request));
        (t0, Instant::now(), request.samples.start)
    };
    for _ in 0..2 {
        serve(&mut session);
    }
    if let Some(recorder) = &recorder {
        recorder.take();
    }
    let before = session.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut latency = Histogram::default();
    let mut served = Vec::new();
    while Instant::now() < deadline {
        let (t0, t1, first) = serve(&mut session);
        latency.record((t1 - t0).as_secs_f64() * 1e3);
        served.push((t0, t1, first));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let after = session.stats();
    outcome.timed_phase(&latency, (served.len() * RANGE) as u64, elapsed);
    // One caller in a closed loop: its rate at the median request time, so
    // a stall of the host inside a few requests does not set it.
    let infer_ms = latency.percentile(50.0).unwrap_or(f64::INFINITY);
    outcome.e2e.set("throughput_rps", 1e3 / infer_ms, "1/s");
    outcome.e2e.set("samples_per_s", RANGE as f64 * 1e3 / infer_ms, "1/s");

    if let Some(recorder) = &recorder {
        let samples = (served.len() * RANGE) as f64;
        let mut spans = recorder.take();
        let backend_us: Vec<f64> = spans.iter().map(Span::micros).collect();
        let cycles: f64 = spans.iter().map(|s| s.cycles).sum();
        let host_s = backend_us.iter().sum::<f64>() / 1e6;
        let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
        let service_us: Vec<f64> =
            served.iter().map(|(t0, t1, _)| (*t1 - *t0).as_secs_f64() * 1e6).collect();
        let l = &mut outcome.layers;
        l.set("session.batch_service_us_p50", pct(&service_us, 50.0), "us");
        l.set(
            "pool.wakeups",
            (after.pool.wakeups - before.pool.wakeups) as f64 / samples,
            "1/sample",
        );
        l.set("pool.steals", (after.pool.steals - before.pool.steals) as f64 / samples, "1/sample");
        l.set(
            "pool.park_ms",
            (after.pool.park_ns - before.pool.park_ns) as f64 / 1e6 / elapsed,
            "ms/s",
        );
        l.set("session.arena_grows", (after.grows - before.grows) as f64, "count");
        l.set("backend.sample_us_p50", pct(&backend_us, 50.0), "us");
        l.set("backend.sample_us_p99", pct(&backend_us, 99.0), "us");
        l.set("sim.mcycles_per_host_s", cycles / 1e6 / host_s.max(1e-12), "Mcycle/s");
        outcome.counts.push(("backend.sample", backend_us.len()));

        // One `request` span per infer call; its samples' backend spans
        // are its children.
        let mut all: Vec<Span> = Vec::with_capacity(served.len() + spans.len());
        for (id, (t0, t1, first)) in served.iter().enumerate() {
            all.push(Span {
                name: "request",
                start: recorder.ns(*t0),
                end: recorder.ns(*t1),
                parent: NONE,
                request: id as u64,
                sample: *first as u64,
                cycles: 0.0,
            });
        }
        let first_sample = served.first().map_or(0, |s| s.2) as u64;
        for span in &mut spans {
            let id = span.sample.wrapping_sub(first_sample) / RANGE as u64;
            if (id as usize) < served.len() {
                span.request = id;
                span.parent = id;
            }
        }
        all.extend(spans);
        outcome.spans = all;
    }

    // Correctness: the scenario's own request must reproduce the golden.
    let report = session.infer(&scenario.request());
    let matches = report.to_json() == golden.trim_end();
    if !matches {
        outcome.incorrect.push(format!("the scenario report differs from {GOLDEN}"));
    }
    outcome.phases.push(Phase {
        name: "check",
        sent: 1,
        succeeded: u64::from(matches),
        failed: u64::from(!matches),
    });

    // A second round of set-ups after the timed phase, so the reported
    // median spans the whole run.
    drop(session);
    set_up(recorder.as_ref(), &mut times)?;
    times.report(&mut outcome);
    Ok(outcome)
}
