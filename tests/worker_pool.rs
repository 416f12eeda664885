//! The session-owned parked worker pool, observed from the outside.
//!
//! `tests/serving_equivalence.rs` already pins the pooled serving path
//! byte-for-byte against the pre-pool golden captures (the pool is the
//! default multi-worker executor). This suite pins the pool's *operational*
//! contract on top:
//!
//! * thread reuse — `SessionStats::pool.spawned` is flat after warm-up, no
//!   matter how many requests follow (the whole point of the pool);
//! * sizing — a session never owns more threads than its largest request
//!   needed, growth between requests spawns only the difference, and the
//!   calling thread always serves slot 0;
//! * equivalence — serving at workers 1/2/4/8 is bit-identical across both
//!   backends;
//! * panic policy — a panicking backend propagates its payload to the
//!   caller and leaves the pool fully serviceable for the next request;
//! * lifecycle — dropping the session joins every pool thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use spikestream::{
    AnalyticBackend, Engine, ExecutionBackend, FpFormat, InferenceConfig, KernelVariant,
    LayerSample, Plan, Request, SampleContext, Scenario,
};

/// Serialize the tests in this binary: they assert on pool thread counts
/// and `/proc/self/task`, which concurrent sessions in sibling tests would
/// perturb. (Each file under `tests/` is its own test binary, so this lock
/// covers every thread-spawning test in the process.)
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn scenario(name: &str) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios").join(name);
    Scenario::from_file(&path).expect("scenario parses")
}

fn golden(name: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden capture {} must exist: {e}", path.display()))
        .trim_end()
        .to_string()
}

fn svgg11_config(batch: usize) -> InferenceConfig {
    InferenceConfig {
        batch,
        seed: 0xFEED,
        ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
    }
}

fn svgg11_plan(batch: usize) -> Plan {
    Engine::svgg11(3).compile(&svgg11_config(batch))
}

#[test]
fn spawned_stays_flat_after_warm_up() {
    let _serial = serial();
    let plan = svgg11_plan(64);
    let mut session = plan.open_session();
    // chunk=4 → 16 chunks, so a workers=4 request uses all four slots.
    session.infer(&Request::batch(64).with_workers(4));
    let warm = session.stats();
    assert_eq!(warm.pool.spawned, 3, "slot 0 is the calling thread, never a pool thread");
    assert_eq!(warm.pool.jobs, 1);

    for _ in 0..16 {
        session.infer(&Request::batch(64).with_workers(4));
    }
    let steady = session.stats();
    assert_eq!(steady.pool.spawned, warm.pool.spawned, "no thread churn after warm-up");
    assert_eq!(steady.pool.jobs, 17);
    // Every pooled request wakes exactly the workers-1 pool threads it uses.
    assert_eq!(steady.pool.wakeups, 17 * 3);
    // Every chunk is claimed exactly once per request.
    assert_eq!(steady.pool.steals, 17 * 16);
    assert_eq!(steady.grows, warm.grows, "steady-state requests grow no arena buffer");
}

#[test]
fn pool_grows_to_the_largest_request_and_never_shrinks() {
    let _serial = serial();
    let plan = svgg11_plan(64);
    let mut session = plan.open_session();

    session.infer(&Request::batch(64).with_workers(2));
    assert_eq!(session.stats().pool.spawned, 1);

    session.infer(&Request::batch(64).with_workers(8));
    assert_eq!(session.stats().pool.spawned, 7, "growth spawns only the difference");

    // A smaller request leaves the extra threads parked, not joined.
    session.infer(&Request::batch(64).with_workers(2));
    assert_eq!(session.stats().pool.spawned, 7);

    // Sequential requests bypass the pool entirely.
    let wakeups = session.stats().pool.wakeups;
    session.infer(&Request::batch(64).sequential());
    assert_eq!(session.stats().pool.wakeups, wakeups);
}

#[test]
fn single_worker_requests_never_spawn_a_thread() {
    let _serial = serial();
    let plan = svgg11_plan(16);
    let mut session = plan.open_session();
    for _ in 0..4 {
        session.infer(&Request::batch(16).sequential());
    }
    // A tiny batch clamps to one worker (one chunk) even with a large
    // worker override — still no pool involvement.
    session.infer(&Request::batch(3).with_workers(8));
    assert_eq!(session.stats().pool.spawned, 0);
    assert_eq!(session.stats().pool.jobs, 0);
}

#[test]
fn pooled_serving_is_bit_identical_across_worker_counts() {
    let _serial = serial();
    // Analytic S-VGG11: one session, every worker count, one reference.
    let plan = svgg11_plan(32);
    let mut session = plan.open_session();
    let reference = session.infer(&Request::batch(32).sequential()).to_json();
    for workers in [2usize, 4, 8] {
        let report = session.infer(&Request::batch(32).with_workers(workers)).to_json();
        assert_eq!(report, reference, "workers={workers}");
    }

    // Cycle-level and temporal scenarios against the golden captures, at
    // every worker count (the goldens predate the pool — byte-identity
    // here is the "pool moved nothing" guarantee).
    for name in ["tiny", "tiny_temporal"] {
        let scenario = scenario(&format!("{name}.toml"));
        let plan = scenario.compile().expect("scenario compiles");
        let mut session = plan.open_session();
        let expected = golden(&format!("{name}_shards2.json"));
        for workers in [1usize, 2, 4, 8] {
            let request =
                Request::batch(scenario.config.batch).with_shards(2).with_workers(workers);
            assert_eq!(session.infer(&request).to_json(), expected, "{name} workers={workers}");
        }
    }
}

/// A backend that panics on one designated sample the first time it is
/// asked for it, then behaves exactly like [`AnalyticBackend`].
struct PanicOnce {
    fuse: AtomicUsize,
    sample: usize,
}

impl PanicOnce {
    fn armed(sample: usize) -> Self {
        PanicOnce { fuse: AtomicUsize::new(1), sample }
    }
}

impl ExecutionBackend for PanicOnce {
    fn name(&self) -> &'static str {
        "panic-once"
    }

    fn run_sample(&self, ctx: &SampleContext<'_>, sample: usize) -> Vec<LayerSample> {
        if sample == self.sample && self.fuse.swap(0, Ordering::SeqCst) == 1 {
            panic!("backend exploded on sample {sample}");
        }
        AnalyticBackend.run_sample(ctx, sample)
    }
}

#[test]
fn a_panicking_backend_propagates_and_leaves_the_pool_serviceable() {
    let _serial = serial();
    let request = Request::batch(32).with_workers(4);
    let reference = svgg11_plan(32).open_session().infer(&request).to_json();
    let plan = Engine::svgg11(3)
        .compiler()
        .with_backend(Box::new(PanicOnce::armed(17)))
        .compile(svgg11_config(32))
        .expect("compiles");
    let mut session = plan.open_session();
    // Warm the pool on samples that leave the fuse intact.
    session.infer(&Request::samples(0..16).with_workers(4));
    let spawned = session.stats().pool.spawned;
    assert_eq!(spawned, 3, "slot 0 is the calling thread");

    let payload = catch_unwind(AssertUnwindSafe(|| session.infer(&request)))
        .expect_err("the backend panic must reach the caller");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string");
    assert!(message.contains("backend exploded on sample 17"), "got: {message}");

    // The fuse is blown, so the same backend now serves cleanly — through
    // the same pool threads, with results identical to the analytic plan.
    let report = session.infer(&request).to_json();
    assert_eq!(report, reference, "the pool serves correctly after a worker panic");
    assert_eq!(session.stats().pool.spawned, spawned, "no thread was lost or respawned");
}

#[test]
fn dropping_the_session_joins_every_pool_thread() {
    let _serial = serial();
    let count = || std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0);
    let plan = svgg11_plan(64);
    let before = count();
    {
        let mut session = plan.open_session();
        session.infer(&Request::batch(64).with_workers(8));
        assert_eq!(session.stats().pool.spawned, 7);
        assert!(count() >= before + 7, "pool threads are live while the session is");
    }
    // Drop joined the workers: the thread count is back to the baseline.
    assert_eq!(count(), before, "session drop joins every pool thread");
}
