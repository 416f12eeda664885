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

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use spikestream::{
    attribute_shards, Engine, ExecutionBackend, FpFormat, InferenceConfig, InferenceReport,
    KernelVariant, LayerSample, Plan, Request, SampleContext, Scenario,
};
use spikestream_kernels::LayerScratch;
use spikestream_serve::{Gateway, GatewayConfig, GatewayResponse, ServeError};

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
    Gateway::new(GatewayConfig { max_batch, linger_us: 0, queue_cap: 256 })
}

/// The report of an `n`-shard request: the response's plain fold plus its
/// fleet attribution, as a bare `Session::infer` of
/// `Request::with_shards(n)` renders it.
fn fleet_report(response: &GatewayResponse, shards: usize) -> InferenceReport {
    let mut report = response.report();
    report.shards = Some(attribute_shards(response.cycles(), shards));
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

// ---------------------------------------------------------------------------
// 2. Backpressure
// ---------------------------------------------------------------------------

#[test]
fn a_full_queue_rejects_deterministically_and_drains_cleanly() {
    let tiny = scenario("tiny.toml");
    let gateway = Gateway::new(GatewayConfig { max_batch: 8, linger_us: 0, queue_cap: 2 });
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
    let gateway = Gateway::new(GatewayConfig { max_batch: 4, linger_us: 0, queue_cap: 64 });
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
