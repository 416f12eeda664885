//! The two gateway workloads: `gateway-fresh` (open loop, never-repeating
//! sample indices, so every binding misses the program cache and runs the
//! emitter) and `gateway-hot` (closed loop over a warmed 64-index hot set,
//! so every binding hits and the gateway's own stages dominate).
//!
//! Both serve one tenant on `Gateway::new(GatewayConfig::default())` with
//! the analytic S-VGG11 FP16 SpikeStream plan.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use spikestream::{
    backend_for, CostModel, EnergyModel, Engine, FpFormat, InferenceConfig, KernelVariant,
    LayerSample, Request, ResultSink, SampleContext, TimingModel,
};
use spikestream_ir::CostIntegrator;
use spikestream_serve::{Gateway, GatewayConfig, GatewayStats, ResponseHandle, ServeError};

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::outcome::{Outcome, Phase, SetupTimes};
use crate::schedule::{fresh_requests, hot_set, poisson_schedule, request_sizes, stream};
use crate::stats::{mean, median, percentile, Histogram};
use crate::trace::{Recorder, Span, TracedBackend, KEEP_REQUESTS, NONE};

const TENANT: &str = "svgg11";
/// Seed of the S-VGG11 weights (the model, not the workload).
const NETWORK_SEED: u64 = 1;
/// Open-loop mean arrival rate of `gateway-fresh`, in requests per second:
/// served without a growing backlog on a 2-core host, and low enough that
/// a 30 s run (about 8 programs cached per fresh sample) stays under the
/// program cache's default capacity, so peak RSS measures one regime.
pub const FRESH_RATE: f64 = 40.0;
/// Largest `gateway-fresh` request, in samples.
const FRESH_MAX_SAMPLES: usize = 8;
/// Untimed fresh requests served before timing starts.
const FRESH_WARM: usize = 8;
/// `gateway-hot`: indices in the hot set, client threads, requests per
/// client burst.
const HOT_SET: usize = 64;
const HOT_CLIENTS: usize = 2;
const HOT_BURST: usize = 32;
/// Bursts timed on each side of `gateway.overhead_ratio`.
const OVERHEAD_BURSTS: usize = 200;
/// Set-up repetitions per round; a run times one round before and one after
/// its timed phase and reports the median.
const SETUP_REPS: usize = 5;
/// Requests per run re-served on a bare session for the correctness gate.
const CHECKS: usize = 16;
/// Fresh samples lowered and integrated directly per traced run.
const EMIT_SAMPLES: usize = 64;

fn config() -> InferenceConfig {
    InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
}

/// A ready-to-serve gateway and the engine it was built from.
struct Served {
    engine: Engine,
    gateway: Gateway,
}

/// Build network, compiler and plan and publish it, `SETUP_REPS` times;
/// keep the last. A traced run binds the analytic backend wrapped in a
/// [`TracedBackend`].
fn set_up(recorder: Option<&Arc<Recorder>>, times: &mut SetupTimes) -> Served {
    let mut served = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        let t0 = Instant::now();
        let engine = Engine::svgg11(NETWORK_SEED);
        let t1 = Instant::now();
        let mut compiler = engine.compiler();
        let t2 = Instant::now();
        if let Some(recorder) = recorder {
            let traced =
                TracedBackend::new(backend_for(TimingModel::Analytic), Arc::clone(recorder));
            compiler = compiler.with_backend(Box::new(traced));
        }
        let plan = compiler.compile(config()).expect("the S-VGG11 plan compiles");
        let t3 = Instant::now();
        let gateway = Gateway::new(GatewayConfig::default());
        gateway.publish(TENANT, plan).expect("a fresh gateway accepts a publish");
        let t4 = Instant::now();
        times.network_build.push((t1 - t0).as_secs_f64());
        times.compiler_clone.push((t2 - t1).as_secs_f64());
        times.compile.push((t3 - t2).as_secs_f64());
        times.publish.push((t4 - t3).as_secs_f64());
        times.total.push((t4 - t0).as_secs_f64());
        served = Some(Served { engine, gateway });
    }
    served.expect("at least one set-up repetition")
}

/// Shut the served gateway down, run the correctness gate, then time a
/// second round of set-ups, so the reported median spans the whole run
/// rather than the speed of the machine in its first second.
fn finish(
    served: Served,
    checks: &[(Vec<usize>, String)],
    recorder: Option<&Arc<Recorder>>,
    mut times: SetupTimes,
    outcome: &mut Outcome,
) {
    served.gateway.shutdown();
    check(&served.engine, checks, outcome);
    drop(served);
    drop(set_up(recorder, &mut times));
    times.report(outcome);
}

/// Gateway and program-cache counters at a phase boundary.
struct Snapshot {
    stats: GatewayStats,
    hits: u64,
    rebinds: u64,
    emits: u64,
    resident: usize,
}

fn snapshot(gateway: &Gateway) -> Snapshot {
    let stats = gateway.stats();
    let plan = gateway.registry().get(TENANT).expect("the tenant is published").plan.clone();
    let counters = plan.programs().counters();
    Snapshot {
        stats,
        hits: counters.hits,
        rebinds: counters.rebinds,
        emits: counters.emits,
        resident: plan.programs().len(),
    }
}

/// One completed (or failed) request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Done {
    /// First sample index and sample count.
    first: usize,
    len: usize,
    /// When the request was due (open loop) or submitted (closed loop).
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    /// `wait()` returned, then `report()` finished; `None` on failure.
    waited: Option<(Instant, Instant)>,
    /// The batch the request rode in: (requests, samples).
    batch: (usize, usize),
}

impl Done {
    fn latency_ms(&self) -> f64 {
        self.waited.map_or(f64::INFINITY, |(_, folded)| (folded - self.due).as_secs_f64() * 1e3)
    }
}

/// Wait for one handle and fold its report; keep the report's JSON when
/// `keep` so the correctness gate can compare it.
fn collect(
    handle: Result<ResponseHandle, ServeError>,
    mut done: Done,
    keep: bool,
    checks: &mut Vec<(Vec<usize>, String)>,
) -> Done {
    let Ok(handle) = handle else { return done };
    let Ok(response) = handle.wait() else { return done };
    let waited = Instant::now();
    let report = response.report();
    let folded = Instant::now();
    done.waited = Some((waited, folded));
    done.batch = (response.batch_requests(), response.batch_samples());
    if keep {
        checks.push(((done.first..done.first + done.len).collect(), report.to_json()));
    }
    std::hint::black_box(report);
    done
}

/// Re-serve the kept requests on a bare, sequential session of an
/// untraced plan and count reports that are not byte-identical.
fn check(engine: &Engine, checks: &[(Vec<usize>, String)], outcome: &mut Outcome) {
    let plan = engine.compile(&config());
    let mut session = plan.open_session();
    let mismatched = checks
        .iter()
        .filter(|(samples, json)| {
            let bare = session.infer_gather(&Request::batch(samples.len()).sequential(), samples);
            bare.to_json() != *json
        })
        .count() as u64;
    if mismatched > 0 {
        outcome.incorrect.push(format!(
            "{mismatched} of {} gateway reports differ from a bare session",
            checks.len()
        ));
    }
    outcome.phases.push(Phase {
        name: "check",
        sent: checks.len() as u64,
        succeeded: checks.len() as u64 - mismatched,
        failed: mismatched,
    });
}

/// Seeded ordinals of the requests the correctness gate re-serves.
fn check_ordinals(rng: &mut StdRng, below: usize) -> Vec<bool> {
    let mut keep = vec![false; below];
    for _ in 0..CHECKS.min(below) {
        keep[rng.gen_range(0..below)] = true;
    }
    keep
}

/// `gateway-fresh`: one generator thread submits on a seeded Poisson
/// schedule at [`FRESH_RATE`]; this thread collects every response in
/// submission order (the gateway is FIFO, so that is completion order).
pub fn fresh(seed: u64, seconds: u64, recorder: Option<Arc<Recorder>>) -> Outcome {
    let mut outcome = Outcome { offered_rate: Some(FRESH_RATE), ..Outcome::default() };
    let mut times = SetupTimes::default();
    let served = set_up(recorder.as_ref(), &mut times);
    let (engine, gateway) = (&served.engine, &served.gateway);

    let n = (FRESH_RATE * seconds as f64).round() as usize;
    let due = poisson_schedule(&mut stream(seed, 1), FRESH_RATE, n);
    let mut sizes = request_sizes(&mut stream(seed, 8), FRESH_WARM, FRESH_MAX_SAMPLES);
    sizes.extend(request_sizes(&mut stream(seed, 2), n, FRESH_MAX_SAMPLES));
    let requests = fresh_requests(&mut stream(seed, 3), &sizes);
    let (warm, timed) = requests.split_at(FRESH_WARM);
    let keep = check_ordinals(&mut stream(seed, 5), n);

    for samples in warm {
        let response = gateway.submit(TENANT, samples).and_then(ResponseHandle::wait);
        response.expect("warm-up requests are served").report();
    }
    if let Some(recorder) = &recorder {
        recorder.take();
    }
    let before = snapshot(gateway);

    let start = Instant::now() + Duration::from_millis(5);
    let mut checks = Vec::new();
    let mut dones = Vec::with_capacity(n);
    let (late_ms, backlog) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(n);
            for (offset, samples) in due.iter().zip(timed) {
                let due_at = start + *offset;
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let submit_start = Instant::now();
                let handle = gateway.submit(TENANT, samples);
                let submit_end = Instant::now();
                late_ms.push((submit_start - due_at).as_secs_f64() * 1e3);
                let done = Done {
                    first: samples[0],
                    len: samples.len(),
                    due: due_at,
                    submit_start,
                    submit_end,
                    waited: None,
                    batch: (0, 0),
                };
                tx.send((handle, done)).expect("the collector outlives the generator");
            }
            let stats = gateway.stats();
            (late_ms, stats.submitted.saturating_sub(stats.completed))
        });
        for (i, (handle, done)) in rx.into_iter().enumerate() {
            dones.push(collect(handle, done, keep[i], &mut checks));
        }
        generator.join().expect("the generator thread does not panic")
    });
    let finished = dones.iter().filter_map(|d| d.waited.map(|w| w.1)).max().unwrap_or(start);
    let elapsed = (finished - start).as_secs_f64();
    let after = snapshot(gateway);
    let mut latency = Histogram::default();
    dones.iter().for_each(|d| latency.record(d.latency_ms()));
    let samples = dones.iter().filter(|d| d.waited.is_some()).map(|d| d.len as u64).sum();
    outcome.timed_phase(&latency, samples, elapsed);

    // Validity: the offered rate must be sustainable.
    let backlog = backlog.saturating_sub(before.stats.submitted - before.stats.completed);
    let late_p99 = percentile(&late_ms, 99.0).unwrap_or(f64::INFINITY);
    outcome.layers.set("gen.late_ms_p99", late_p99, "ms");
    outcome.layers.set("gen.backlog_end", backlog as f64, "count");
    let limit = (n / 50).max(10) as u64;
    if backlog > limit {
        outcome.invalid.push(format!(
            "backlog grew: {backlog} requests outstanding when the schedule ended (limit {limit})"
        ));
    }
    if after.resident >= spikestream_ir::ProgramCache::DEFAULT_CAPACITY {
        outcome.invalid.push(format!(
            "the program cache filled up ({} programs): shorten the run to stay in one regime",
            after.resident
        ));
    }

    if let Some(recorder) = &recorder {
        let spans = recorder.take();
        layer_metrics(&mut outcome, recorder, spans, &dones, &before, &after, elapsed);
        emit_path(&mut outcome, engine, seed);
    }
    finish(served, &checks, recorder.as_ref(), times, &mut outcome);
    outcome
}

/// What one `gateway-hot` client recorded.
#[derive(Default)]
struct ClientLog {
    /// Latency of every request, failures as +∞.
    latency: Histogram,
    /// Requests served so far: the ordinal of the next one.
    served: usize,
    /// Time of each burst, in ms; +∞ for a burst with a failed request.
    bursts: Histogram,
    /// Per-request records of a traced run, until its span store fills.
    dones: Vec<Done>,
    checks: Vec<(Vec<usize>, String)>,
}

/// One closed-loop burst: submit `HOT_BURST` single-sample requests, then
/// wait for and fold every response in order.
fn burst(
    gateway: &Gateway,
    rng: &mut StdRng,
    set: &[usize],
    log: &mut ClientLog,
    keep: &[bool],
    recorder: Option<&Recorder>,
) {
    // Client records stop with the recorder's spans, so both cover the
    // same stretch of the run.
    let record = recorder.is_some_and(|r| !r.is_full());
    let began = Instant::now();
    let mut failed = false;
    let mut sent = Vec::with_capacity(HOT_BURST);
    for _ in 0..HOT_BURST {
        let sample = set[rng.gen_range(0..set.len())];
        let submit_start = Instant::now();
        let handle = gateway.submit(TENANT, &[sample]);
        let submit_end = Instant::now();
        let done = Done {
            first: sample,
            len: 1,
            due: submit_start,
            submit_start,
            submit_end,
            waited: None,
            batch: (0, 0),
        };
        sent.push((handle, done));
    }
    for (handle, done) in sent {
        let keep = keep.get(log.served).copied().unwrap_or(false);
        let done = collect(handle, done, keep, &mut log.checks);
        log.latency.record(done.latency_ms());
        failed |= done.waited.is_none();
        log.served += 1;
        if record {
            log.dones.push(done);
        }
    }
    let took = if failed { f64::INFINITY } else { began.elapsed().as_secs_f64() * 1e3 };
    log.bursts.record(took);
}

/// `gateway-hot`: `HOT_CLIENTS` closed-loop clients, each repeating
/// bursts over the warmed hot set until the run's time is up.
pub fn hot(seed: u64, seconds: u64, recorder: Option<Arc<Recorder>>) -> Outcome {
    let mut outcome = Outcome::default();
    let mut times = SetupTimes::default();
    let served = set_up(recorder.as_ref(), &mut times);
    let (engine, gateway) = (&served.engine, &served.gateway);
    let set = hot_set(&mut stream(seed, 4), HOT_SET);

    // Warm: every hot index once, then a short untimed closed loop so the
    // pool threads and arenas reach steady state.
    for &sample in &set {
        gateway.submit(TENANT, &[sample]).and_then(ResponseHandle::wait).expect("warm-up serves");
    }
    let mut warm_rng = stream(seed, 9);
    let mut warm_log = ClientLog::default();
    for _ in 0..20 {
        burst(gateway, &mut warm_rng, &set, &mut warm_log, &[], None);
    }
    if let Some(recorder) = &recorder {
        recorder.take();
    }
    let before = snapshot(gateway);

    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..HOT_CLIENTS as u64)
            .map(|client| {
                let (set, recorder) = (&set, recorder.as_deref());
                scope.spawn(move || {
                    let mut rng = stream(seed, 10 + client);
                    let keep = check_ordinals(&mut stream(seed, 20 + client), 4096);
                    let mut log = ClientLog::default();
                    while Instant::now() < deadline {
                        burst(gateway, &mut rng, set, &mut log, &keep, recorder);
                    }
                    log
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client threads do not panic")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let after = snapshot(gateway);

    let (mut latency, mut bursts) = (Histogram::default(), Histogram::default());
    for log in &logs {
        latency.merge(&log.latency);
        bursts.merge(&log.bursts);
    }
    let samples = (latency.len() - latency.failed()) as u64;
    outcome.timed_phase(&latency, samples, elapsed);
    // A closed loop's rate: each client completes one burst per burst time,
    // so the median burst time sets the typical rate, and a stall of the
    // host inside a few bursts does not.
    let rate =
        (HOT_CLIENTS * HOT_BURST) as f64 * 1e3 / bursts.percentile(50.0).unwrap_or(f64::INFINITY);
    outcome.e2e.set("throughput_rps", rate, "1/s");
    outcome.e2e.set("samples_per_s", rate, "1/s");
    outcome.counts.push(("bursts", bursts.len()));

    // Validity: the hot set stayed hot.
    let emits = after.emits - before.emits;
    if emits > 0 {
        outcome.incorrect.push(format!("the hot timed phase emitted {emits} programs"));
    }

    let mut checks: Vec<(Vec<usize>, String)> = Vec::new();
    for log in &logs {
        checks.extend(log.checks.iter().cloned());
    }
    if let Some(recorder) = &recorder {
        let spans = recorder.take();
        let mut dones: Vec<Done> = logs.into_iter().flat_map(|l| l.dones).collect();
        dones.sort_by_key(|d| d.submit_end);
        layer_metrics(&mut outcome, recorder, spans, &dones, &before, &after, elapsed);
        overhead_ratio(&mut outcome, engine, gateway, &set, recorder, seed);
        recorder.take();
        emit_path(&mut outcome, engine, seed);
    }
    finish(served, &checks, recorder.as_ref(), times, &mut outcome);
    outcome
}

/// A sink that drops what it receives, as the bare side of
/// `gateway.overhead_ratio`.
struct Drain;

impl ResultSink for Drain {
    fn on_sample(&mut self, _sample: usize, layers: &[LayerSample]) {
        std::hint::black_box(layers);
    }
}

/// `gateway.overhead_ratio`: one client's burst of `HOT_BURST`
/// single-sample requests through the gateway, over the same samples
/// served as one `Session::run_gather` on a bare session of a plan bound
/// to the same backend. Medians over alternating bursts.
fn overhead_ratio(
    outcome: &mut Outcome,
    engine: &Engine,
    gateway: &Gateway,
    set: &[usize],
    recorder: &Arc<Recorder>,
    seed: u64,
) {
    let traced = TracedBackend::new(backend_for(TimingModel::Analytic), Arc::clone(recorder));
    let plan =
        engine.compiler().with_backend(Box::new(traced)).compile(config()).expect("compiles");
    let mut session = plan.open_session();
    let request = Request::batch(HOT_BURST);
    session.run_gather(&Request::batch(set.len()), set, &mut Drain);
    let mut rng = stream(seed, 30);
    let (mut via_gateway, mut bare) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_BURSTS {
        let samples: Vec<usize> =
            (0..HOT_BURST).map(|_| set[rng.gen_range(0..set.len())]).collect();
        let t0 = Instant::now();
        let handles: Vec<_> = samples
            .iter()
            .map(|s| gateway.submit(TENANT, std::slice::from_ref(s)).expect("submit"))
            .collect();
        for handle in handles {
            std::hint::black_box(handle.wait().expect("served"));
        }
        let t1 = Instant::now();
        session.run_gather(&request, &samples, &mut Drain);
        let t2 = Instant::now();
        via_gateway.push((t1 - t0).as_secs_f64());
        bare.push((t2 - t1).as_secs_f64());
    }
    let ratio = median(&via_gateway).unwrap_or(0.0) / median(&bare).unwrap_or(f64::INFINITY);
    outcome.layers.set("gateway.overhead_ratio", ratio, "ratio");
}

/// `kernels.lower_symbolic_us` and `ir.integrate_us`: lower and integrate
/// every S-VGG11 layer directly, at the firing rates of fresh samples —
/// the work one program-cache emit does.
fn emit_path(outcome: &mut Outcome, engine: &Engine, seed: u64) {
    let config = config();
    let cost = CostModel::default();
    let energy = EnergyModel::calibrated();
    let cluster = engine.cluster_config();
    let integrator = CostIntegrator::new(cluster.clone(), cost.clone());
    let ctx = SampleContext {
        network: engine.network(),
        profile: engine.profile(),
        cluster,
        cost: &cost,
        energy: &energy,
        config: &config,
        programs: None,
        integrator: &integrator,
        executor: spikestream_kernels::LayerExecutor::new(config.variant, config.format),
    };
    let layers = ctx.network.layers();
    let last = layers.len() - 1;
    let mut rng = stream(seed, 6);
    let (mut lower, mut integrate) = (Vec::new(), Vec::new());
    for _ in 0..EMIT_SAMPLES {
        let sample = (rng.next_u64() % (1 << 40)) as usize;
        for (idx, layer) in layers.iter().enumerate() {
            let input = ctx.sample_rate(idx, sample);
            let output = ctx.sample_rate((idx + 1).min(last), sample);
            let t0 = Instant::now();
            let program = ctx.executor.lower_symbolic(cluster, layer, input, output);
            let t1 = Instant::now();
            std::hint::black_box(ctx.integrator.integrate(&program));
            let t2 = Instant::now();
            lower.push((t1 - t0).as_secs_f64() * 1e6);
            integrate.push((t2 - t1).as_secs_f64() * 1e6);
        }
    }
    outcome.layers.set("kernels.lower_symbolic_us", mean(&lower), "us");
    outcome.layers.set("ir.integrate_us", mean(&integrate), "us");
}

/// Attribute the timed phase's backend spans to the requests that caused
/// them and derive the gateway, session, pool, backend, cache and report
/// metrics. `dones` must be in submission order.
fn layer_metrics(
    outcome: &mut Outcome,
    recorder: &Recorder,
    mut spans: Vec<Span>,
    dones: &[Done],
    before: &Snapshot,
    after: &Snapshot,
    elapsed: f64,
) {
    let ns = |at: Instant| recorder.ns(at);
    // Backend spans of each sample index, in start order.
    let mut by_sample: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        by_sample.entry(span.sample).or_default().push(i);
    }
    for list in by_sample.values_mut() {
        list.sort_by_key(|&i| spans[i].start);
    }

    // Client-side spans, and each request's first and last evaluation: the
    // earliest span of each of its samples that starts after its submit.
    // Fresh indices are unique, so this is exact there; a hot index can
    // also recur in a batch already in flight, which can shorten the
    // measured queue wait.
    let (mut submit_us, mut fold_us, mut queue_us, mut handoff_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut evaluated: Vec<Option<(u64, u64)>> = Vec::with_capacity(dones.len());
    let mut client_spans = Vec::new();
    for (id, done) in dones.iter().enumerate() {
        let id = id as u64;
        submit_us.push((done.submit_end - done.submit_start).as_secs_f64() * 1e6);
        let Some((waited, folded)) = done.waited else {
            evaluated.push(None);
            continue;
        };
        fold_us.push((folded - waited).as_secs_f64() * 1e6);
        let request_span = Span {
            name: "request",
            start: ns(done.due),
            end: ns(folded),
            parent: NONE,
            request: id,
            sample: done.first as u64,
            cycles: 0.0,
        };
        let submit_span = Span {
            name: "submit",
            start: ns(done.submit_start),
            end: ns(done.submit_end),
            ..request_span
        };
        let fold_span = Span { name: "fold", start: ns(waited), end: ns(folded), ..request_span };
        if id < KEEP_REQUESTS {
            client_spans.push((request_span, submit_span, fold_span));
        }
        let submitted = ns(done.submit_start);
        let mut window: Option<(u64, u64)> = None;
        for sample in done.first..done.first + done.len {
            let Some(list) = by_sample.get(&(sample as u64)) else { continue };
            let at = list.partition_point(|&i| spans[i].start < submitted);
            if let Some(&i) = list.get(at) {
                spans[i].request = id;
                let (s, e) = (spans[i].start, spans[i].end);
                window = Some(window.map_or((s, e), |(a, b)| (a.min(s), b.max(e))));
            }
        }
        if let Some((first, last)) = window {
            queue_us.push(first.saturating_sub(submitted) as f64 / 1e3);
            handoff_us.push(ns(waited).saturating_sub(last) as f64 / 1e3);
        }
        evaluated.push(window);
    }

    // Batches: responses of one batch are consecutive in submission order
    // and agree on (requests, samples). Service time runs from the batch's
    // first evaluation to its last.
    let mut service_us = Vec::new();
    let mut at = 0;
    while at < dones.len() {
        let (requests, samples) = dones[at].batch;
        let end = (at + requests.max(1)).min(dones.len());
        let members = &dones[at..end];
        if requests > 0 && members.iter().all(|d| d.batch == (requests, samples)) {
            let windows: Vec<(u64, u64)> = evaluated[at..end].iter().flatten().copied().collect();
            if let (Some(first), Some(last)) =
                (windows.iter().map(|w| w.0).min(), windows.iter().map(|w| w.1).max())
            {
                service_us.push((last - first) as f64 / 1e3);
            }
        }
        at = end;
    }

    let backend_us: Vec<f64> = spans.iter().map(Span::micros).collect();
    let cycles: f64 = spans.iter().map(|s| s.cycles).sum();
    let host_s: f64 = backend_us.iter().sum::<f64>() / 1e6;
    let pct = |v: &[f64], p: f64| percentile(v, p).unwrap_or(0.0);
    let l = &mut outcome.layers;
    l.set("gateway.submit_us_p50", pct(&submit_us, 50.0), "us");
    l.set("gateway.queue_wait_us_p50", pct(&queue_us, 50.0), "us");
    l.set("gateway.queue_wait_us_p99", pct(&queue_us, 99.0), "us");
    l.set("gateway.handoff_us_p50", pct(&handoff_us, 50.0), "us");
    let stats = (&before.stats, &after.stats);
    let batches = (stats.1.batches - stats.0.batches) as f64;
    let completed = (stats.1.completed - stats.0.completed) as f64;
    // Samples the tenant's session evaluated in the timed phase: the base of
    // every per-sample figure (client records may stop early, see `burst`).
    let (s0, s1) = (stats.0.tenants[0].session, stats.1.tenants[0].session);
    let samples = s1.runs - s0.runs;
    l.set("gateway.batch_samples_mean", samples as f64 / batches.max(1.0), "samples");
    l.set(
        "gateway.coalesced_frac",
        (stats.1.coalesced - stats.0.coalesced) as f64 / completed.max(1.0),
        "ratio",
    );
    l.set("gateway.rejected", (stats.1.rejected_full - stats.0.rejected_full) as f64, "count");
    l.set("session.batch_service_us_p50", pct(&service_us, 50.0), "us");
    let per_sample = |a: u64, b: u64| (b - a) as f64 / samples.max(1) as f64;
    l.set("pool.wakeups", per_sample(s0.pool.wakeups, s1.pool.wakeups), "1/sample");
    l.set("pool.steals", per_sample(s0.pool.steals, s1.pool.steals), "1/sample");
    l.set("pool.park_ms", (s1.pool.park_ns - s0.pool.park_ns) as f64 / 1e6 / elapsed, "ms/s");
    l.set("session.arena_grows", (s1.grows - s0.grows) as f64, "count");
    l.set("backend.sample_us_p50", pct(&backend_us, 50.0), "us");
    l.set("backend.sample_us_p99", pct(&backend_us, 99.0), "us");
    let lookups = (after.hits + after.rebinds + after.emits)
        .saturating_sub(before.hits + before.rebinds + before.emits) as f64;
    l.set("cache.hits", per_sample(before.hits, after.hits), "1/sample");
    l.set("cache.rebinds", per_sample(before.rebinds, after.rebinds), "1/sample");
    l.set("cache.emits", per_sample(before.emits, after.emits), "1/sample");
    l.set("cache.hit_frac", (after.hits - before.hits) as f64 / lookups.max(1.0), "ratio");
    l.set("cache.resident", after.resident as f64, "count");
    l.set("report.fold_us_p50", pct(&fold_us, 50.0), "us");
    l.set("sim.mcycles_per_host_s", cycles / 1e6 / host_s.max(1e-12), "Mcycle/s");
    outcome.counts.extend([
        ("gateway.queue_wait", queue_us.len()),
        ("session.batch_service", service_us.len()),
        ("backend.sample", backend_us.len()),
    ]);

    let mut all = Vec::with_capacity(spans.len() + 3 * client_spans.len());
    for (request, submit, fold) in client_spans {
        let parent = all.len() as u64;
        all.push(request);
        all.push(Span { parent, ..submit });
        all.push(Span { parent, ..fold });
    }
    let request_index: HashMap<u64, u64> = all
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "request")
        .map(|(i, s)| (s.request, i as u64))
        .collect();
    all.extend(spans.into_iter().filter_map(|span| {
        let parent = *request_index.get(&span.request)?;
        Some(Span { parent, ..span })
    }));
    outcome.spans = all;
}
