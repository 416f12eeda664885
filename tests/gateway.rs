//! Gateway serving semantics, pinned end to end.
//!
//! Four contracts from the serving-gateway design, each with its own
//! suite section:
//!
//! 1. **Byte-identity** — a request coalesced into a shared micro-batch
//!    produces a report bit-identical to running it alone on a bare
//!    [`Session`](spikestream::Session), and a full-batch gateway request
//!    reproduces the pre-redesign golden captures (`tests/golden/`)
//!    byte for byte.
//! 2. **Backpressure** — the bounded per-tenant queue rejects (and
//!    times out) deterministically when full, and drains cleanly; a
//!    request too large to fold is rejected at submission, never
//!    allocated.
//! 3. **Hot swap** — publishing a new plan version under live traffic
//!    drops nothing: in-flight batches complete on the old version,
//!    queued and later requests run on the new one, and every response
//!    names the version it ran under.
//! 4. **Panic containment** — a panicking batch poisons only its own
//!    tenant; other tenants keep serving, and a fresh publish revives
//!    the poisoned one.
//! 5. **Wake rules** — a micro-batch is what queued while the previous
//!    one ran, and the gateway signals only threads that are parked and
//!    waiting for the change. A latch holds a batch in flight while the
//!    test queues behind it, and a lost wakeup shows up as a missed 5 s
//!    deadline, never as a hang.
//! 6. **Interleavings** — a seeded fuzz of submits, timed submits,
//!    publishes, pauses, panicking plans and shutdown keeps every
//!    accounting and versioning invariant.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikestream::{
    attribute_shards, Engine, ExecutionBackend, FiringProfile, FpFormat, InferenceConfig,
    InferenceReport, KernelVariant, LayerSample, NetworkChoice, Plan, Request, SampleContext,
    Scenario,
};
use spikestream_kernels::LayerScratch;
use spikestream_serve::{Gateway, GatewayConfig, GatewayResponse, ResponseHandle, ServeError};
use spikestream_snn::NetworkBuilder;

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

/// A paced gateway: dispatch is held with `pause` while the driver
/// queues, so batch composition is exact, not timing-dependent.
fn paced_gateway(max_batch: usize) -> Gateway {
    Gateway::new(GatewayConfig { max_batch, queue_cap: 256 })
}

/// The report of an `n`-shard request: the response's plain fold plus its
/// fleet attribution, as a bare `Session::infer` of
/// `Request::with_shards(n)` renders it.
fn fleet_report(response: &GatewayResponse, shards: usize) -> InferenceReport {
    let mut report = response.report();
    report.shards = Some(attribute_shards(&response.cycles(), shards));
    report
}

// ---------------------------------------------------------------------------
// 1. Byte-identity
// ---------------------------------------------------------------------------

#[test]
fn coalesced_requests_match_bare_session_runs_byte_for_byte() {
    let tiny = scenario("tiny.toml");
    let batch = tiny.config.batch;
    let gateway = paced_gateway(64);
    gateway.publish("tiny", tiny.compile().expect("compiles")).expect("publish");

    // Queue one single-sample request per batch sample.
    gateway.pause("tiny").expect("pause");
    let handles: Vec<_> =
        (0..batch).map(|k| gateway.submit("tiny", &[k]).expect("submit")).collect();
    gateway.resume("tiny").expect("resume");

    let bare_plan = tiny.compile().expect("compiles");
    let mut bare = bare_plan.open_session();
    for (k, handle) in handles.into_iter().enumerate() {
        let response = handle.wait().expect("serve");
        assert_eq!(response.batch_requests(), batch, "all requests rode one micro-batch");
        assert_eq!(response.batch_samples(), batch);
        // Odd samples are also attributed to a 2-shard fleet: attribution
        // is a pure fold over the response's own cycle totals.
        let (report, request) = if k % 2 == 1 {
            (fleet_report(&response, 2), Request::samples(k..k + 1).with_shards(2))
        } else {
            (response.report(), Request::samples(k..k + 1))
        };
        assert_eq!(
            report.to_json(),
            bare.infer(&request).to_json(),
            "sample {k}: coalesced result must be bit-identical to a bare run"
        );
    }

    let stats = gateway.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.coalesced, batch as u64);
}

#[test]
fn full_batch_gateway_requests_reproduce_the_golden_captures() {
    let tiny = scenario("tiny.toml");
    let samples: Vec<usize> = (0..tiny.config.batch).collect();
    let gateway = paced_gateway(64);
    gateway.publish("tiny", tiny.compile().expect("compiles")).expect("publish");
    for shards in [1usize, 2, 4] {
        let response = gateway.submit("tiny", &samples).expect("submit").wait().expect("serve");
        assert_eq!(
            fleet_report(&response, shards).to_json(),
            golden(&format!("tiny_shards{shards}.json")),
            "tiny @ {shards} shards through the gateway"
        );
    }

    // The analytic S-VGG11 capture: `--batch 8 --shards 2`.
    let mut fp16 = scenario("svgg11_fp16.toml");
    fp16.config.batch = 8;
    gateway.publish("svgg11", fp16.compile().expect("compiles")).expect("publish");
    let response = gateway.submit("svgg11", &[0, 1, 2, 3, 4, 5, 6, 7]).expect("submit");
    assert_eq!(
        fleet_report(&response.wait().expect("serve"), 2).to_json(),
        golden("svgg11_analytic_shards2.json"),
        "svgg11 fp16 through the gateway"
    );

    // The temporal analytic capture: `--batch 4 --timesteps 3 --shards 2`.
    let mut temporal = scenario("svgg11_fp16.toml");
    temporal.config.batch = 4;
    temporal.config = temporal.config.temporal_steps(3);
    gateway.publish("svgg11-t3", temporal.compile().expect("compiles")).expect("publish");
    let response = gateway.submit("svgg11-t3", &[0, 1, 2, 3]).expect("submit");
    assert_eq!(
        fleet_report(&response.wait().expect("serve"), 2).to_json(),
        golden("svgg11_analytic_t3_shards2.json"),
        "svgg11 fp16 t3 through the gateway"
    );
}

/// A plan with no layers serves at every worker count and through every
/// entry point: each position's slot is empty, so its cycle total is the
/// empty sum (-0.0), and a fleet sees only the dispatch cycles.
#[test]
fn a_layerless_plan_serves_at_every_worker_count_and_through_the_gateway() {
    let empty = NetworkBuilder::new("empty").build();
    let engine = Engine::new(empty, FiringProfile::uniform(0, 0.1));
    let config = InferenceConfig {
        batch: 4,
        ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
    };
    let plan = engine.compile(&config);
    let head = r#"{"network":"empty","variant":"SpikeStream","format":"FP16""#;
    let fleet = r#""shards":{"makespan_cycles":4.0,"imbalance":1.0,"batch_speedup":2.0,"per_shard":[{"shard":0,"samples":2,"busy_cycles":4.0,"utilization":1.0},{"shard":1,"samples":2,"busy_cycles":4.0,"utilization":1.0}]}"#;
    let sharded = format!(r#"{head},"batch":4,"layers":[],{fleet}}}"#);
    let unsharded = format!(r#"{head},"batch":3,"layers":[]}}"#);
    for workers in [1, 2, 4, 8] {
        let mut session = plan.open_session();
        let request = Request::batch(4).with_shards(2).with_workers(workers);
        assert_eq!(session.infer(&request).to_json(), sharded, "{workers} workers");
        let request = Request::batch(1).with_workers(workers);
        assert_eq!(session.infer_gather(&request, &[0, 0, 2]).to_json(), unsharded);
        session.serve_into(&request, &[0, 0, 2], &mut []);
        assert_eq!(session.stats().runs, 4 + 3 + 3, "{workers} workers run every position");
    }

    let gateway = paced_gateway(64);
    gateway.publish("empty", engine.compile(&config)).expect("publish");
    let response = gateway.submit("empty", &[0, 1, 1]).expect("submit").wait().expect("serve");
    assert_eq!((response.samples(), response.layers().len()), (3, 0));
    let cycles: Vec<u64> = response.cycles().iter().map(|c| c.to_bits()).collect();
    assert_eq!(cycles, [(-0.0f64).to_bits(); 3], "empty sums");
    assert_eq!(response.report().to_json(), unsharded);
}

// ---------------------------------------------------------------------------
// 2. Backpressure
// ---------------------------------------------------------------------------

#[test]
fn a_full_queue_rejects_deterministically_and_drains_cleanly() {
    let tiny = scenario("tiny.toml");
    let gateway = Gateway::new(GatewayConfig { max_batch: 8, queue_cap: 2 });
    gateway.publish("tiny", tiny.compile().expect("compiles")).expect("publish");
    gateway.pause("tiny").expect("pause");

    let first = gateway.submit("tiny", &[0]).expect("fits");
    let second = gateway.submit("tiny", &[1]).expect("fits");
    // Fail-fast path: the queue is at capacity.
    assert_eq!(
        gateway.submit("tiny", &[2]).err(),
        Some(ServeError::Full { tenant: "tiny".to_string(), cap: 2 })
    );
    // Timed path: a paused tenant never frees space, so the submitter
    // parks for the whole timeout and then reports it.
    assert_eq!(
        gateway.submit_timeout("tiny", &[2], Duration::from_millis(20)).err(),
        Some(ServeError::Timeout { tenant: "tiny".to_string() })
    );
    let stats = gateway.stats();
    assert_eq!(stats.rejected_full, 2);
    assert_eq!(stats.tenants[0].queue_depth, 2);

    // Resume: the queue drains, and the freed capacity admits new work.
    gateway.resume("tiny").expect("resume");
    assert!(first.wait().is_ok());
    assert!(second.wait().is_ok());
    let third =
        gateway.submit_timeout("tiny", &[2], Duration::from_secs(10)).expect("space after drain");
    assert!(third.wait().is_ok());
    let stats = gateway.stats();
    assert_eq!((stats.submitted, stats.completed), (3, 3));
    assert_eq!(stats.tenants[0].queue_depth, 0);
}

#[test]
fn an_oversized_request_is_rejected_and_the_tenant_keeps_serving() {
    let tiny = scenario("tiny.toml");
    let gateway = paced_gateway(64);
    gateway.publish("tiny", tiny.compile().expect("compiles")).expect("publish");

    // 2^22 layer samples / 3 layers = 1,398,101.3, so 1,398,102 samples
    // are one past the bound: rejected synchronously, so the request is
    // never counted as submitted.
    let huge: Vec<usize> = (0..1_398_102).collect();
    let err = gateway.submit("tiny", &huge).err().expect("rejected");
    assert_eq!(err, ServeError::RequestTooLarge { samples: 1_398_102, layers: 3, timesteps: 1 });
    assert_eq!(
        err.to_string(),
        "1398102 samples x 3 layers x 1 timesteps exceeds the limit of 4194304 layer samples \
         per request"
    );
    assert_eq!(gateway.stats().submitted, 0);

    let response = gateway.submit("tiny", &[0]).expect("submit").wait().expect("serve");
    assert_eq!(response.samples(), 1);
    assert_eq!((gateway.stats().submitted, gateway.stats().completed), (1, 1));
}

#[test]
fn a_request_admitted_before_a_hot_swap_is_rechecked_on_the_new_plan() {
    let gateway = paced_gateway(64);
    gateway.publish("t", scenario("tiny.toml").compile().expect("compiles")).expect("publish");
    gateway.pause("t").expect("pause");
    // 600,000 samples x 3 tiny layers fit the bound; x 8 S-VGG11 layers
    // they do not.
    let samples: Vec<usize> = (0..600_000).collect();
    let handle = gateway.submit("t", &samples).expect("fits the published plan");
    let mut svgg11 = scenario("svgg11_fp16.toml");
    svgg11.config.batch = 1;
    gateway.publish("t", svgg11.compile().expect("compiles")).expect("republish");
    gateway.resume("t").expect("resume");
    assert_eq!(
        handle.wait().err(),
        Some(ServeError::RequestTooLarge { samples: 600_000, layers: 8, timesteps: 1 })
    );
    assert!(gateway.submit("t", &[0]).expect("submit").wait().is_ok(), "the tenant still serves");
}

// ---------------------------------------------------------------------------
// 3. Hot swap under load
// ---------------------------------------------------------------------------

#[test]
fn a_published_plan_serves_the_engine_network() {
    let engine = Engine::svgg11(7);
    let gateway = paced_gateway(8);
    let plan = engine.compile(&InferenceConfig {
        batch: 2,
        ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
    });
    gateway.publish("svgg11", plan).expect("publish");
    let published = gateway.registry().get("svgg11").expect("published");
    assert!(std::ptr::eq(published.plan.network(), engine.network()), "weights are shared");
}

#[test]
fn the_tenant_table_reads_each_tenants_current_generation() {
    let tiny = scenario("tiny.toml");
    let gateway = paced_gateway(8);
    let publish = |name| gateway.publish(name, tiny.compile().expect("compiles"));
    assert_eq!([publish("a"), publish("b")], [Ok(1), Ok(1)]);
    let old = gateway.registry().get("a").expect("published");
    assert_eq!(publish("a"), Ok(2));
    let registry = gateway.registry();
    assert_eq!(registry.get("a").map(|generation| generation.version), Some(2));
    assert!(registry.get("c").is_none());
    let versions: Vec<u64> = gateway.stats().tenants.iter().map(|t| t.version).collect();
    assert_eq!(versions, [2, 1]);
    // The swapped-out generation still serves through its own `Arc`, as an
    // in-flight batch does.
    assert_eq!(old.version, 1);
    assert!(old.plan.open_session().infer(&Request::batch(2)).total_cycles() > 0.0);
}

#[test]
fn session_counters_are_current_once_every_response_is_delivered() {
    let gateway = tiny_gateway(8, 16);
    // One paused-then-resumed burst of single-sample requests, coalesced
    // into one batch; read once every response is in the client's hands.
    let burst = |size: usize| {
        gateway.pause("tiny").expect("pause");
        let handles = (0..size).map(|k| gateway.submit("tiny", &[k % 6]).expect("submit"));
        let handles = handles.collect();
        gateway.resume("tiny").expect("resume");
        wait_all("a burst", handles);
        let stats = gateway.stats();
        let tenant = &stats.tenants[0];
        (tenant.version, tenant.serving_version, tenant.session.runs)
    };
    let mut served = 0;
    for i in 0..50 {
        let size = 1 + i % 7;
        served += size as u64;
        assert_eq!(burst(size), (1, 1, served), "burst {i}: counters as of its batch");
    }
    let republished = gateway.publish("tiny", scenario("tiny.toml").compile().expect("compiles"));
    assert_eq!(republished, Ok(2));
    assert_eq!(burst(5), (2, 2, 5), "a hot swap opens a fresh session");
}

/// Tracks how many samples have *started* evaluating, so the driver can
/// publish a new plan while a batch is provably in flight.
#[derive(Debug, Default)]
struct StartGate {
    started: Mutex<u64>,
    changed: Condvar,
}

impl StartGate {
    fn mark(&self) {
        *self.started.lock().expect("gate poisoned") += 1;
        self.changed.notify_all();
    }

    fn wait_for(&self, count: u64) {
        let mut started = self.started.lock().expect("gate poisoned");
        while *started < count {
            started = self.changed.wait(started).expect("gate poisoned");
        }
    }
}

/// A deterministic synthetic backend that announces each sample start and
/// then holds the sample for `delay`, keeping batches in flight long
/// enough for a publish to land mid-run.
#[derive(Debug)]
struct SlowBackend {
    gate: Arc<StartGate>,
    delay: Duration,
}

impl ExecutionBackend for SlowBackend {
    fn name(&self) -> &'static str {
        "slow-gate"
    }

    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        _scratch: &mut LayerScratch,
    ) {
        self.gate.mark();
        std::thread::sleep(self.delay);
        out.extend((0..ctx.network.len() * ctx.timesteps()).map(|unit| LayerSample {
            cycles: (sample * 1000 + unit + 1) as f64,
            ..LayerSample::default()
        }));
    }
}

fn gated_plan(gate: &Arc<StartGate>, delay: Duration) -> Plan {
    Engine::svgg11(7)
        .compiler()
        .with_backend(Box::new(SlowBackend { gate: Arc::clone(gate), delay }))
        .compile(InferenceConfig {
            batch: 16,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        })
        .expect("compiles")
}

#[test]
fn a_hot_swap_under_live_traffic_drops_nothing_and_mixes_no_versions() {
    let gate = Arc::new(StartGate::default());
    let gateway = Gateway::new(GatewayConfig { max_batch: 4, queue_cap: 64 });
    gateway.publish("svgg11", gated_plan(&gate, Duration::from_millis(150))).expect("publish v1");

    // In-flight: the dispatcher has provably started evaluating r1.
    let r1 = gateway.submit("svgg11", &[0]).expect("submit r1");
    gate.wait_for(1);
    // Pause pins the ordering: r1's batch keeps running (it is era-bound
    // to v1 already), but nothing else can dispatch until resume — so the
    // publish below provably lands before r2 or r3 reach a session, even
    // if compiling the v2 plan outlasts r1's evaluation.
    gateway.pause("svgg11").expect("pause");
    let r2 = gateway.submit("svgg11", &[1]).expect("submit r2");
    let version = gateway.publish("svgg11", gated_plan(&gate, Duration::ZERO)).expect("publish v2");
    assert_eq!(version, 2);
    let r3 = gateway.submit("svgg11", &[2]).expect("submit r3");
    gateway.resume("svgg11").expect("resume");

    // Zero drops; the in-flight request finished on the version it was
    // dispatched under, everything queued or submitted after the publish
    // ran on the new one.
    let r1 = r1.wait().expect("r1 serves");
    let r2 = r2.wait().expect("r2 serves");
    let r3 = r3.wait().expect("r3 serves");
    assert_eq!(r1.plan_version(), 1, "in-flight batches complete on the old plan");
    assert_eq!(r2.plan_version(), 2, "queued requests follow the swap");
    assert_eq!(r3.plan_version(), 2, "post-publish requests run on the new plan");

    let stats = gateway.stats();
    assert_eq!(stats.hot_swaps, 1);
    assert_eq!((stats.submitted, stats.completed), (3, 3));
    assert_eq!(stats.tenants[0].version, 2);
    assert_eq!(stats.tenants[0].serving_version, 2);
}

// ---------------------------------------------------------------------------
// 4. Panic containment
// ---------------------------------------------------------------------------

/// A backend that panics on one poison sample and is deterministic
/// everywhere else.
#[derive(Debug)]
struct PanickingBackend {
    poison_sample: usize,
}

impl ExecutionBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        _scratch: &mut LayerScratch,
    ) {
        assert_ne!(sample, self.poison_sample, "poison sample reached the backend");
        out.extend(
            (0..ctx.network.len() * ctx.timesteps())
                .map(|unit| LayerSample { cycles: (unit + 1) as f64, ..LayerSample::default() }),
        );
    }
}

#[test]
fn a_poisoned_tenant_contains_its_panic_and_revives_on_publish() {
    let tiny = scenario("tiny.toml");
    // One sample per batch, so a request queued behind the poison batch
    // stays queued while it panics.
    let gateway = paced_gateway(1);
    gateway.publish("good", tiny.compile().expect("compiles")).expect("publish good");
    let bad_plan = || {
        Engine::svgg11(7)
            .compiler()
            .with_backend(Box::new(PanickingBackend { poison_sample: 13 }))
            .compile(InferenceConfig {
                batch: 16,
                ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
            })
            .expect("compiles")
    };
    gateway.publish("bad", bad_plan()).expect("publish bad");

    // Queue the poison batch plus a request behind it that does not fit
    // the one-sample batch, so both failure paths run: the in-flight batch
    // and the queued backlog.
    gateway.pause("bad").expect("pause");
    let poisoned = gateway.submit("bad", &[13]).expect("submit poison");
    let behind = gateway.submit("bad", &[0]).expect("submit behind");
    gateway.resume("bad").expect("resume");

    let Err(ServeError::Poisoned(message)) = poisoned.wait() else {
        panic!("the poison batch must fail with ServeError::Poisoned");
    };
    assert!(message.contains("poison sample"), "panic payload is preserved: {message}");
    assert!(matches!(behind.wait(), Err(ServeError::Poisoned(_))), "the backlog fails too");
    assert!(
        matches!(gateway.submit("bad", &[0]), Err(ServeError::Poisoned(_))),
        "later submissions fail fast while poisoned"
    );

    // The other tenant is untouched.
    let good = gateway.submit("good", &[0]).expect("good tenant still accepts");
    assert!(good.wait().is_ok(), "good tenant still serves");
    let stats = gateway.stats();
    assert_eq!(stats.panics, 1);
    let bad_stats = stats.tenants.iter().find(|t| t.name == "bad").expect("bad tenant listed");
    assert!(bad_stats.poisoned);
    assert_eq!(bad_stats.queue_depth, 0, "the poisoned queue drained its backlog");

    // Publishing a fresh plan revives the tenant on a new dispatcher.
    gateway.publish("bad", bad_plan()).expect("republish bad");
    let revived = gateway.submit("bad", &[0]).expect("revived tenant accepts");
    let response = revived.wait().expect("revived tenant serves");
    assert_eq!(response.plan_version(), 2);
    assert!(!gateway.stats().tenants.iter().find(|t| t.name == "bad").expect("listed").poisoned);
}

// ---------------------------------------------------------------------------
// 5. Wake rules
// ---------------------------------------------------------------------------

/// How long a test waits for what a correct wakeup delivers at once.
const DEADLINE: Duration = Duration::from_secs(5);

/// Run `f` on a thread of its own and return its result, failing the test
/// if it takes longer than [`DEADLINE`]: a lost wakeup fails a deadline
/// instead of hanging the suite. A panic in `f` is re-raised here. Only a
/// thread that misses the deadline is left running, detached.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(value) => {
            thread.join().expect("the thread sent its result");
            value
        }
        Err(RecvTimeoutError::Disconnected) => match thread.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("{what}: the thread ended without a result"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no result within {DEADLINE:?}"),
    }
}

/// Run `f` on a helper thread that signals just before it calls `f`, and
/// return once it has: `f` is then about to block (park on a full queue,
/// or in `wait`). No public API shows the park itself, so a short grace
/// period makes the parked path the one exercised; the tests that use this
/// pass in every interleaving, and only a lost wakeup fails them.
fn about_to_park<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> JoinHandle<T> {
    let (ready, started) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        ready.send(()).expect("the test is listening");
        f()
    });
    started.recv().expect("the helper starts");
    std::thread::sleep(Duration::from_millis(50));
    thread
}

/// Wait on every handle, in order, within [`DEADLINE`].
fn wait_all(what: &str, handles: Vec<ResponseHandle>) -> Vec<GatewayResponse> {
    within(what, move || handles.into_iter().map(|h| h.wait().expect("served")).collect())
}

/// The `(batch_samples, batch_requests)` each response rode in.
fn shapes(responses: &[GatewayResponse]) -> Vec<(usize, usize)> {
    responses.iter().map(|r| (r.batch_samples(), r.batch_requests())).collect()
}

fn tiny_gateway(max_batch: usize, queue_cap: usize) -> Gateway {
    let gateway = Gateway::new(GatewayConfig { max_batch, queue_cap });
    gateway.publish("tiny", scenario("tiny.toml").compile().expect("compiles")).expect("publish");
    gateway
}

/// A backend that marks `started` as each sample starts and holds the
/// first one until the sender of `hold` sends or is dropped: that batch
/// provably stays in flight while the test queues behind it.
#[derive(Debug)]
struct HeldBackend {
    started: Arc<StartGate>,
    hold: Mutex<Option<mpsc::Receiver<()>>>,
}

impl ExecutionBackend for HeldBackend {
    fn name(&self) -> &'static str {
        "held"
    }

    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        _sample: usize,
        out: &mut Vec<LayerSample>,
        _scratch: &mut LayerScratch,
    ) {
        self.started.mark();
        let hold = self.hold.lock().expect("hold poisoned").take();
        if let Some(hold) = hold {
            let _ = hold.recv();
        }
        out.resize(ctx.network.len() * ctx.timesteps(), LayerSample::default());
    }
}

/// Submit `first` to tenant `held` of a fresh gateway at `max_batch` and
/// return once its batch has started, within [`DEADLINE`]: every later
/// submission queues behind that batch until the returned sender is
/// dropped. The sender is declared after the gateway, so a failing test
/// drops it first and unwinds instead of joining a held dispatcher.
fn hold_first(max_batch: usize, first: &[usize]) -> (Gateway, ResponseHandle, mpsc::Sender<()>) {
    let gateway = Gateway::new(GatewayConfig { max_batch, queue_cap: 16 });
    let (release, hold) = mpsc::channel();
    let started = Arc::new(StartGate::default());
    let backend = HeldBackend { started: Arc::clone(&started), hold: Mutex::new(Some(hold)) };
    let plan = scenario("tiny.toml")
        .engine()
        .compiler()
        .with_backend(Box::new(backend))
        .compile(InferenceConfig {
            batch: 16,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        })
        .expect("compiles");
    gateway.publish("held", plan).expect("publish");
    // No public API shows the park, so a grace period lets the new
    // dispatcher park idle: then only a wakeup runs `first`, at once and
    // alone.
    std::thread::sleep(Duration::from_millis(50));
    let first = gateway.submit("held", first).expect("submit");
    within("the first batch starts", move || started.wait_for(1));
    (gateway, first, release)
}

#[test]
fn requests_queued_while_a_batch_runs_form_the_next_batch_closed_at_max_batch() {
    let (gateway, first, release) = hold_first(4, &[0]);
    let mut handles = vec![first];
    handles.extend((1..6).map(|k| gateway.submit("held", &[k]).expect("submit")));
    drop(release);
    let responses = wait_all("the queued requests", handles);
    assert_eq!(shapes(&responses), [(1, 1), (4, 4), (4, 4), (4, 4), (4, 4), (1, 1)]);
    assert_eq!(gateway.stats().batches, 3);
}

#[test]
fn a_queued_request_that_does_not_fit_closes_the_batch_and_runs_next() {
    let (gateway, first, release) = hold_first(4, &[0]);
    let mut handles = vec![first];
    // 3 + 2 samples overflow the cap of 4: `[4, 5]` closes the batch that
    // `[1, 2, 3]` opens, then opens the next one, which `[6, 7]` fills.
    for samples in [&[1, 2, 3][..], &[4, 5], &[6, 7]] {
        handles.push(gateway.submit("held", samples).expect("submit"));
    }
    drop(release);
    let responses = wait_all("an overflowing request", handles);
    assert_eq!(shapes(&responses), [(1, 1), (3, 1), (4, 2), (4, 2)]);
    assert_eq!(gateway.stats().batches, 3);
}

#[test]
fn a_submitter_parked_on_a_full_queue_is_admitted_when_the_dispatcher_pops() {
    let gateway = Arc::new(tiny_gateway(2, 1));
    gateway.pause("tiny").expect("pause");
    let first = gateway.submit("tiny", &[0]).expect("fills the queue");
    let parked = {
        let gateway = Arc::clone(&gateway);
        about_to_park(move || gateway.submit_timeout("tiny", &[1], Duration::from_secs(30)))
    };
    gateway.resume("tiny").expect("resume");
    let second = within("a parked submitter", move || parked.join().expect("helper joins"))
        .expect("admitted, not timed out");
    // `first` was popped alone, and that pop admitted `second`.
    assert_eq!(shapes(&wait_all("the admitted requests", vec![first, second])), [(1, 1), (1, 1)]);
    assert_eq!(gateway.stats().rejected_full, 0);
}

#[test]
fn handles_waited_on_before_and_after_their_batch_runs_both_resolve() {
    // One sample per batch: `early` runs, then `late`.
    let gateway = tiny_gateway(1, 16);
    gateway.pause("tiny").expect("pause");
    let early = gateway.submit("tiny", &[0]).expect("submit");
    let late = gateway.submit("tiny", &[1]).expect("submit");
    // The client of `late` parks in `wait` before its batch runs.
    let parked = about_to_park(move || late.wait());
    gateway.resume("tiny").expect("resume");
    let late = within("a client parked before its batch", move || parked.join().expect("joins"));
    assert_eq!(late.expect("served").samples(), 1);
    // `early` ran first, so its result waits for the client.
    let early = wait_all("a client that waits after its batch ran", vec![early]);
    assert_eq!(early[0].samples(), 1);
}

// ---------------------------------------------------------------------------
// 6. Interleavings
// ---------------------------------------------------------------------------

/// A backend that stamps its plan's version into every [`LayerSample`] it
/// emits (as `ipc`), encodes the sample and layer into `cycles`, and
/// panics on its poison sample, if it has one.
#[derive(Debug)]
struct Stamped {
    version: u64,
    poison: Option<usize>,
}

impl ExecutionBackend for Stamped {
    fn name(&self) -> &'static str {
        "stamped"
    }

    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        _scratch: &mut LayerScratch,
    ) {
        assert_ne!(Some(sample), self.poison, "poison sample reached the backend");
        out.extend((0..ctx.network.len() * ctx.timesteps()).map(|unit| LayerSample {
            cycles: stamp_cycles(sample, unit),
            ipc: self.version as f64,
            ..LayerSample::default()
        }));
    }
}

/// The `cycles` a [`Stamped`] backend reports for one layer unit of one
/// sample: which slot a response reads is then visible in its layers.
fn stamp_cycles(sample: usize, unit: usize) -> f64 {
    (sample * 1000 + unit + 1) as f64
}

/// A tiny-network plan served by a [`Stamped`] backend.
fn stamped_plan(version: u64, poison: Option<usize>) -> Plan {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    let engine = ENGINE.get_or_init(|| {
        let (network, profile) = NetworkChoice::TinyCnn.build(5);
        Engine::new(network, profile)
    });
    engine
        .compiler()
        .with_backend(Box::new(Stamped { version, poison }))
        .compile(InferenceConfig {
            batch: 8,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        })
        .expect("compiles")
}

/// More samples than a 3-layer plan may fold in one request.
fn oversized() -> &'static [usize] {
    static SAMPLES: OnceLock<Vec<usize>> = OnceLock::new();
    SAMPLES.get_or_init(|| (0..1_398_102).collect())
}

const TENANTS: [&str; 2] = ["a", "b"];

/// One accepted submission: the tenant, the samples, and the handle.
type Accepted = (usize, Vec<usize>, ResponseHandle);

/// One `submit_timeout` on a helper thread: the tenant, the samples, and
/// the thread that returns the submission's outcome.
type Helper = (usize, Vec<usize>, JoinHandle<Result<ResponseHandle, ServeError>>);

/// Check one resolved request; returns whether it resolved with an error.
fn check_resolved(
    seed: u64,
    samples: &[usize],
    result: Result<GatewayResponse, ServeError>,
) -> bool {
    let response = match result {
        Ok(response) => response,
        Err(ServeError::Poisoned(_)) => return true,
        Err(other) => panic!("seed {seed:#x}: a queued request failed with {other:?}"),
    };
    let version = response.plan_version() as f64;
    let units = response.layers().len() / samples.len();
    assert_eq!(response.samples(), samples.len(), "seed {seed:#x}");
    for (i, &sample) in samples.iter().enumerate() {
        for unit in 0..units {
            let layer = &response.layers()[i * units + unit];
            assert_eq!(layer.ipc, version, "seed {seed:#x}: layers from another plan version");
            assert_eq!(layer.cycles, stamp_cycles(sample, unit), "seed {seed:#x}: wrong slot");
        }
    }
    false
}

/// Drive one seeded interleaving against a fresh gateway, then shut it
/// down and check that every request was accounted for exactly once.
fn run_interleaving(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = GatewayConfig { max_batch: rng.gen_range(1..6), queue_cap: rng.gen_range(1..6) };
    let gateway = Arc::new(Gateway::new(config));
    let mut versions = [0u64; 2];
    for (t, tenant) in TENANTS.iter().enumerate() {
        versions[t] = gateway.publish(tenant, stamped_plan(1, None)).expect("publish");
    }
    let mut accepted: Vec<Accepted> = Vec::new();
    let mut helpers: Vec<Helper> = Vec::new();
    let mut errored = 0usize;
    let draw_samples = |rng: &mut StdRng| -> Vec<usize> {
        (0..rng.gen_range(1..9)).map(|_| rng.gen_range(0..16)).collect()
    };
    for _ in 0..rng.gen_range(8..24) {
        let t = rng.gen_range(0..2);
        let tenant = TENANTS[t];
        match rng.gen_range(0..10) {
            0..=3 => {
                let samples = draw_samples(&mut rng);
                match gateway.submit(tenant, &samples) {
                    Ok(handle) => accepted.push((t, samples, handle)),
                    Err(ServeError::Full { .. } | ServeError::Poisoned(_)) => {}
                    Err(other) => panic!("seed {seed:#x}: submit failed with {other:?}"),
                }
            }
            4 => match gateway.submit(tenant, oversized()) {
                Err(ServeError::RequestTooLarge { .. } | ServeError::Poisoned(_)) => {}
                other => panic!("seed {seed:#x}: an oversized request got {:?}", other.err()),
            },
            5 => {
                let samples = draw_samples(&mut rng);
                let timeout = Duration::from_micros(rng.gen_range(0..3000));
                let (gateway, submitted) = (Arc::clone(&gateway), samples.clone());
                let helper =
                    std::thread::spawn(move || gateway.submit_timeout(tenant, &submitted, timeout));
                helpers.push((t, samples, helper));
            }
            6 | 7 => {
                let poison = (rng.gen_range(0..2) == 0).then(|| rng.gen_range(0..16));
                let next = versions[t] + 1;
                let published = gateway.publish(tenant, stamped_plan(next, poison));
                assert_eq!(published, Ok(next), "seed {seed:#x}: versions count publishes");
                versions[t] = next;
            }
            8 => gateway.pause(tenant).expect("pause"),
            _ => {
                gateway.resume(tenant).expect("resume");
                // A client parks on the oldest request of a running tenant.
                if let Some(at) = accepted.iter().position(|(owner, ..)| *owner == t) {
                    let (_, samples, handle) = accepted.remove(at);
                    errored += usize::from(check_resolved(seed, &samples, handle.wait()));
                }
            }
        }
    }
    // Shut down as `Drop` does: queues drain, and every dispatcher (with
    // its session's pool) is joined; the deadline around the case fails if
    // that never returns.
    gateway.shutdown();
    for (t, samples, helper) in helpers {
        match helper.join().expect("helper joins") {
            Ok(handle) => accepted.push((t, samples, handle)),
            Err(
                ServeError::Full { .. }
                | ServeError::Timeout { .. }
                | ServeError::Poisoned(_)
                | ServeError::Shutdown,
            ) => {}
            Err(other) => panic!("seed {seed:#x}: submit_timeout failed with {other:?}"),
        }
    }
    for (_, samples, handle) in accepted {
        errored += usize::from(check_resolved(seed, &samples, handle.wait()));
    }
    let stats = gateway.stats();
    assert_eq!(
        stats.submitted,
        stats.completed + errored as u64,
        "seed {seed:#x}: every submitted request resolved exactly once"
    );
    let gateway = Arc::into_inner(gateway).expect("every helper released the gateway");
    drop(gateway);
}

proptest! {
    #[test]
    fn seeded_interleavings_resolve_every_request_on_its_plan_version(seed in any::<u64>()) {
        within(&format!("interleaving seed {seed:#x}"), move || run_interleaving(seed));
    }
}
