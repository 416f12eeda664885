//! Long-lived serving sessions: [`Session`], [`Request`], [`ResultSink`].
//!
//! A [`Session`] is the per-process serving handle of a compiled
//! [`Plan`]. It owns what a *running* service owns — one
//! [`WorkerArena`] per worker slot (the per-sample staging buffers, the
//! kernels' compressed-input scratch and the persistent membrane state of
//! temporal samples), the parked [`WorkerPool`] threads
//! that serve multi-worker requests without per-request
//! spawn/join, and the reusable batch bookkeeping — and serves
//! [`Request`]s against the plan's immutable, shared program cache.
//!
//! Results *stream*: every completed sample is handed to a caller-supplied
//! [`ResultSink`] as soon as its worker finishes it, instead of
//! materializing one monolithic report. [`InferenceReport`] is literally a
//! fold over that stream — [`Session::infer`] plugs in the folding sink.
//!
//! Determinism: samples are seeded independently and land in their own
//! slot of the fold, so the report is independent of worker scheduling.
//! The *callback order* of a parallel session is not deterministic;
//! order-sensitive sinks should serve sequential requests
//! ([`Request::sequential`]).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::backend::{LayerSample, WorkerArena};
use crate::plan::Plan;
use crate::pool::{PoolStats, WorkerPool};
use crate::report::{InferenceReport, ShardSummary};
use crate::sharding::{attribute_shards, clamp_workers};

/// One serving request: which batch samples to evaluate and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Sample indices to evaluate (each is an independently seeded batch
    /// sample of the plan's workload).
    pub samples: Range<usize>,
    /// Temporal-pipeline override: run each sample for this many timesteps
    /// instead of the compiled config's count. On a synthetic plan this
    /// switches the request to direct-coded temporal inference, mirroring
    /// the CLI's `--timesteps` flag.
    pub timesteps: Option<usize>,
    /// Attribute the request to a fleet of N simulated cluster shards and
    /// deliver the [`ShardSummary`] through [`ResultSink::on_fleet`].
    pub shards: Option<usize>,
    /// Host worker override: `Some(1)` serves the request strictly
    /// sequentially on the calling thread (deterministic callback order);
    /// `None` uses the session default.
    pub workers: Option<usize>,
}

impl Request {
    /// The full-batch request over samples `0..batch` (at least one).
    pub fn batch(batch: usize) -> Self {
        Request { samples: 0..batch.max(1), timesteps: None, shards: None, workers: None }
    }

    /// A request over an explicit sample range.
    pub fn samples(samples: Range<usize>) -> Self {
        let samples = if samples.is_empty() { samples.start..samples.start + 1 } else { samples };
        Request { samples, timesteps: None, shards: None, workers: None }
    }

    /// Attribute the request to `shards` simulated cluster shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Override the temporal timestep count.
    pub fn with_timesteps(mut self, timesteps: usize) -> Self {
        self.timesteps = Some(timesteps.max(1));
        self
    }

    /// Serve strictly sequentially on the calling thread.
    pub fn sequential(mut self) -> Self {
        self.workers = Some(1);
        self
    }

    /// Override the host worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Number of samples this request evaluates.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the request is empty (never: constructors clamp to one).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// A streaming consumer of session results.
///
/// Sinks receive each sample's measurements as soon as a worker completes
/// them. Implementations must tolerate arbitrary arrival order for
/// parallel requests (each callback carries its sample index); sequential
/// requests call back in ascending sample order.
pub trait ResultSink: Send {
    /// One completed batch sample: `layers` holds one [`LayerSample`] per
    /// network layer per timestep, step-major — exactly the layout of
    /// [`ExecutionBackend::run_sample`](crate::ExecutionBackend::run_sample).
    fn on_sample(&mut self, sample: usize, layers: &[LayerSample]);

    /// One completed sample with its *position* in the request: `slot` is
    /// the index into the request's sample sequence (`0..request.len()`),
    /// `sample` the batch sample that position names. For range requests
    /// `sample == request.samples.start + slot`, so the default forwards
    /// to [`ResultSink::on_sample`]; gather requests
    /// ([`Session::run_gather`]) may evaluate the *same* sample at several
    /// positions (two coalesced clients asking for sample 0), and a
    /// demultiplexing sink must key on `slot`, not `sample`, to route each
    /// result to its requester.
    fn on_slot(&mut self, _slot: usize, sample: usize, layers: &[LayerSample]) {
        self.on_sample(sample, layers);
    }

    /// Fleet statistics of a sharded request, delivered once after the
    /// last sample. Not called for unsharded requests.
    fn on_fleet(&mut self, _summary: &ShardSummary) {}
}

/// A [`ResultSink`] adapter over a closure (sample index + samples).
pub struct FnSink<F: FnMut(usize, &[LayerSample]) + Send>(pub F);

impl<F: FnMut(usize, &[LayerSample]) + Send> ResultSink for FnSink<F> {
    fn on_sample(&mut self, sample: usize, layers: &[LayerSample]) {
        (self.0)(sample, layers)
    }
}

/// The folding sink behind [`Session::infer`]: collects every sample into
/// its slot of one flat buffer (so the fold is independent of arrival
/// order) and folds the buffer into an [`InferenceReport`] — the
/// monolithic report is this fold, nothing more.
struct ReportSink<'a> {
    units: usize,
    flat: &'a mut Vec<LayerSample>,
    fleet: Option<ShardSummary>,
}

impl ResultSink for ReportSink<'_> {
    fn on_sample(&mut self, _sample: usize, _layers: &[LayerSample]) {
        unreachable!("the folding sink is slot-addressed");
    }

    fn on_slot(&mut self, slot: usize, _sample: usize, layers: &[LayerSample]) {
        let at = slot * self.units;
        debug_assert_eq!(layers.len(), self.units, "one LayerSample per layer per timestep");
        self.flat[at..at + self.units].copy_from_slice(layers);
    }

    fn on_fleet(&mut self, summary: &ShardSummary) {
        self.fleet = Some(summary.clone());
    }
}

/// The sample positions one serving call evaluates: a contiguous range
/// ([`Request::samples`]) or an explicit, possibly non-contiguous (and
/// possibly repeating) gather list ([`Session::run_gather`]).
enum SampleIds<'a> {
    Range(Range<usize>),
    List(&'a [usize]),
}

impl SampleIds<'_> {
    fn len(&self) -> usize {
        match self {
            SampleIds::Range(r) => r.len(),
            SampleIds::List(l) => l.len(),
        }
    }

    fn get(&self, slot: usize) -> usize {
        match self {
            SampleIds::Range(r) => r.start + slot,
            SampleIds::List(l) => l[slot],
        }
    }
}

/// A long-lived serving session over a compiled [`Plan`].
///
/// # Example
///
/// ```
/// use spikestream::{Engine, FpFormat, InferenceConfig, KernelVariant, Request};
///
/// let engine = Engine::svgg11(1);
/// let plan = engine.compile(&InferenceConfig {
///     batch: 8,
///     ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
/// });
/// let mut session = plan.open_session();
/// // Serve the same plan request after request — lowering happened once,
/// // at compile time, and the session's arenas are reused throughout.
/// let a = session.infer(&Request::batch(8));
/// let b = session.infer(&Request::batch(8).with_shards(4));
/// assert_eq!(a.to_json(), b.clone().without_shard_stats().to_json());
/// assert_eq!(b.shards.unwrap().shards.len(), 4);
/// ```
pub struct Session<'p> {
    plan: &'p Plan,
    arenas: Vec<WorkerArena>,
    pool: WorkerPool,
    workers: usize,
    chunk: usize,
    flat: Vec<LayerSample>,
    cycles: Vec<f64>,
    mirror: SessionStatsHandle,
}

impl<'p> Session<'p> {
    pub(crate) fn new(plan: &'p Plan) -> Self {
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Session {
            plan,
            arenas: Vec::new(),
            pool: WorkerPool::new(),
            workers: host,
            chunk: 4,
            flat: Vec::new(),
            cycles: Vec::new(),
            mirror: SessionStatsHandle::default(),
        }
    }

    /// The plan this session serves.
    pub fn plan(&self) -> &'p Plan {
        self.plan
    }

    /// Override the number of samples per stolen chunk (clamped to at
    /// least 1).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Steady-state counters of this session: arena reuse (samples run,
    /// buffer growths) plus the worker-pool counters (`spawned` threads,
    /// `wakeups`, `steals`, `park_ns`). After warm-up, `grows` and
    /// `pool.spawned` must stay flat across requests — no allocation and
    /// no thread creation on the serving hot path.
    ///
    /// ```
    /// use spikestream::{Engine, FpFormat, InferenceConfig, KernelVariant, Request};
    ///
    /// let engine = Engine::svgg11(1);
    /// let plan = engine.compile(&InferenceConfig {
    ///     batch: 16,
    ///     ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
    /// });
    /// let mut session = plan.open_session();
    /// session.infer(&Request::batch(16).with_workers(4));
    /// let warm = session.stats();
    /// assert_eq!(warm.pool.spawned, 3, "slot 0 is the calling thread");
    /// session.infer(&Request::batch(16).with_workers(4));
    /// assert_eq!(session.stats().pool.spawned, warm.pool.spawned);
    /// ```
    pub fn stats(&self) -> SessionStats {
        let (runs, grows) =
            self.arenas.iter().fold((0, 0), |(r, g), a| (r + a.runs(), g + a.grows()));
        SessionStats { runs, grows, pool: self.pool.stats() }
    }

    /// A cloneable, `Send + Sync` handle onto this session's steady-state
    /// counters that stays readable while the session itself is serving.
    ///
    /// [`Session::stats`] needs `&self`, which a serving dispatcher that
    /// holds the session `&mut` for the duration of a batch cannot share;
    /// the handle reads a set of interior atomic mirrors instead, updated
    /// by the session at the end of every request, so a monitoring thread
    /// (a gateway's stats endpoint) never contends with serving — a
    /// snapshot is a handful of relaxed loads and reflects the state as of
    /// the last completed request.
    pub fn stats_handle(&self) -> SessionStatsHandle {
        self.mirror.clone()
    }

    /// Store the current counters into the atomic mirror the stats
    /// handles read. Called at the end of every serving call.
    fn publish_stats(&self) {
        self.mirror.publish(self.stats());
    }

    /// Serve `request`, streaming every completed sample into `sink`.
    pub fn run(&mut self, request: &Request, sink: &mut dyn ResultSink) {
        self.serve(request, SampleIds::Range(request.samples.clone()), sink)
    }

    /// Serve `request` and fold the stream into an [`InferenceReport`].
    pub fn infer(&mut self, request: &Request) -> InferenceReport {
        self.fold(request, SampleIds::Range(request.samples.clone()))
    }

    /// Serve an explicit — possibly non-contiguous, possibly repeating —
    /// list of batch sample indices with the options of `request`
    /// (`request.samples` itself is ignored), streaming every completed
    /// sample into `sink` via [`ResultSink::on_slot`] with its position in
    /// `samples`.
    ///
    /// This is the serving entry point of a coalescing gateway: several
    /// clients' sample lists are concatenated into one gather list, the
    /// whole batch runs as one sharded request over the session's arenas
    /// and pool, and the sink demultiplexes results back per client by
    /// slot. Each evaluated sample is bit-identical to serving it alone
    /// through [`Session::run`] — samples are independently seeded, so
    /// batch composition can never change a result.
    pub fn run_gather(&mut self, request: &Request, samples: &[usize], sink: &mut dyn ResultSink) {
        self.serve(request, SampleIds::List(samples), sink)
    }

    /// [`Session::run_gather`] folded into an [`InferenceReport`] over the
    /// listed samples (in list order) — the report a bare session would
    /// produce for an equivalent range request.
    pub fn infer_gather(&mut self, request: &Request, samples: &[usize]) -> InferenceReport {
        self.fold(request, SampleIds::List(samples))
    }

    /// The one serving loop behind every entry point: evaluate the sample
    /// at each position of `ids` through the plan's bound backend and
    /// stream results into `sink`.
    fn serve(&mut self, request: &Request, ids: SampleIds<'_>, sink: &mut dyn ResultSink) {
        let backend = self.plan.backend();
        let config = self.plan.effective_config(request);
        let batch = ids.len();

        self.cycles.clear();
        self.cycles.resize(batch, 0.0);
        // The one shared sizing policy (`sharding::clamp_workers`): never
        // run more workers than there are chunks to steal.
        let chunks = batch.div_ceil(self.chunk);
        let workers = clamp_workers(request.workers.unwrap_or(self.workers), chunks);
        // Worker-count growth grows the arenas and the pool together: the
        // arenas here, the pool threads inside `run_stealing` on dispatch.
        if self.arenas.len() < workers {
            self.arenas.resize_with(workers, WorkerArena::new);
        }

        let ctx = self.plan.context(&config);
        if workers == 1 {
            // Strictly sequential: ascending slot order on this thread.
            let arena = &mut self.arenas[0];
            for i in 0..batch {
                let sample = ids.get(i);
                let layers = arena.run_sample(backend, &ctx, sample);
                self.cycles[i] = layers.iter().map(|l| l.cycles).sum();
                sink.on_slot(i, sample, layers);
            }
        } else {
            // The chunk-stealing claim loop over the session's parked
            // worker pool; results stream through one serialized sink
            // handle as they complete. Delivery is a per-sample critical
            // section — a small copy for the folding sink, cheap next to
            // evaluating the sample.
            let shared = Mutex::new((&mut *sink, self.cycles.as_mut_slice()));
            let chunk = self.chunk;
            let ids = &ids;
            // Worker slot `s` owns arena `s` for the whole request, so
            // per-worker kernel scratch and membrane buffers keep their
            // locality across requests; the mutexes only hand the `&mut`
            // arenas across the parked threads and are each locked once,
            // by their own slot.
            let slots: Vec<Mutex<&mut WorkerArena>> =
                self.arenas[..workers].iter_mut().map(Mutex::new).collect();
            self.pool.run_stealing(workers, chunks, |slot, w| {
                let arena = &mut *slots[slot].lock().expect("arena slot poisoned");
                let start = w * chunk;
                let end = (start + chunk).min(batch);
                for i in start..end {
                    let sample = ids.get(i);
                    let layers = arena.run_sample(backend, &ctx, sample);
                    let cycles: f64 = layers.iter().map(|l| l.cycles).sum();
                    let mut guard = shared.lock().expect("result sink poisoned");
                    let (sink, cycle_slots) = &mut *guard;
                    cycle_slots[i] = cycles;
                    sink.on_slot(i, sample, layers);
                }
            });
        }

        // Deterministic fleet attribution in simulated time: a pure
        // function of the per-sample cycle totals, identical no matter how
        // the host threads raced.
        if let Some(shards) = request.shards {
            sink.on_fleet(&attribute_shards(&self.cycles, shards));
        }
        self.publish_stats();
    }

    /// Serve `ids` and fold the stream into an [`InferenceReport`].
    fn fold(&mut self, request: &Request, ids: SampleIds<'_>) -> InferenceReport {
        let config = self.plan.effective_config(request);
        let units = self.plan.network().len() * config.timesteps();
        let batch = ids.len();

        let mut flat = std::mem::take(&mut self.flat);
        flat.clear();
        flat.resize(batch * units, LayerSample::default());
        let mut sink = ReportSink { units, flat: &mut flat, fleet: None };
        self.serve(request, ids, &mut sink);

        let fleet = sink.fleet.take();
        let mut report = InferenceReport::fold_batch(
            self.plan.network(),
            self.plan.clock_hz(),
            &config,
            &flat,
            batch,
        );
        report.shards = fleet;
        self.flat = flat;
        report
    }
}

/// Steady-state serving counters of a [`Session`] (see
/// [`Session::stats`]): arena reuse plus worker-pool activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Total samples evaluated across the session's worker arenas.
    pub runs: u64,
    /// Arena buffer growth events; flat after warm-up.
    pub grows: u64,
    /// Parked worker-pool counters; `pool.spawned` is flat after warm-up.
    pub pool: PoolStats,
}

/// A cloneable, lock-free view onto a [`Session`]'s counters (see
/// [`Session::stats_handle`]). The session publishes into the shared
/// atomic cells at the end of every serving call; readers snapshot with
/// relaxed loads and never touch the session itself, so a stats poll
/// can run concurrently with serving without contending on anything.
#[derive(Clone, Debug, Default)]
pub struct SessionStatsHandle {
    cells: Arc<StatsCells>,
}

#[derive(Debug, Default)]
struct StatsCells {
    runs: AtomicU64,
    grows: AtomicU64,
    spawned: AtomicU64,
    jobs: AtomicU64,
    wakeups: AtomicU64,
    steals: AtomicU64,
    park_ns: AtomicU64,
}

impl SessionStatsHandle {
    /// The counters as of the last completed request. All-zero before the
    /// first request finishes.
    pub fn snapshot(&self) -> SessionStats {
        let c = &*self.cells;
        SessionStats {
            runs: c.runs.load(Ordering::Relaxed),
            grows: c.grows.load(Ordering::Relaxed),
            pool: PoolStats {
                spawned: c.spawned.load(Ordering::Relaxed),
                jobs: c.jobs.load(Ordering::Relaxed),
                wakeups: c.wakeups.load(Ordering::Relaxed),
                steals: c.steals.load(Ordering::Relaxed),
                park_ns: c.park_ns.load(Ordering::Relaxed),
            },
        }
    }

    fn publish(&self, stats: SessionStats) {
        let c = &*self.cells;
        c.runs.store(stats.runs, Ordering::Relaxed);
        c.grows.store(stats.grows, Ordering::Relaxed);
        c.spawned.store(stats.pool.spawned, Ordering::Relaxed);
        c.jobs.store(stats.pool.jobs, Ordering::Relaxed);
        c.wakeups.store(stats.pool.wakeups, Ordering::Relaxed);
        c.steals.store(stats.pool.steals, Ordering::Relaxed);
        c.park_ns.store(stats.pool.park_ns, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Session")
            .field("plan", &self.plan.network().name)
            .field("workers", &self.workers)
            .field("arena_runs", &stats.runs)
            .field("arena_grows", &stats.grows)
            .field("pool", &self.pool)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, FpFormat, InferenceConfig, KernelVariant};

    fn plan() -> crate::Plan {
        Engine::svgg11(3).compile(&InferenceConfig {
            batch: 12,
            seed: 0xFEED,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        })
    }

    #[test]
    fn request_constructors_clamp_and_build() {
        assert_eq!(Request::batch(0).samples, 0..1);
        assert_eq!(Request::samples(5..5).samples, 5..6);
        let r = Request::batch(8).with_shards(0).with_timesteps(0).sequential();
        assert_eq!((r.shards, r.timesteps, r.workers), (Some(1), Some(1), Some(1)));
        assert_eq!(r.len(), 8);
        assert!(!r.is_empty());
    }

    #[test]
    fn a_manually_built_empty_request_folds_to_a_zero_report() {
        // The constructors clamp to one sample, but `Request` fields are
        // public; an empty range must fold gracefully, not panic.
        let plan = plan();
        let empty = Request { samples: 3..3, timesteps: None, shards: None, workers: None };
        assert!(empty.is_empty());
        let report = plan.open_session().infer(&empty);
        assert_eq!(report.batch, 0);
        assert_eq!(report.layers.len(), 8);
        assert_eq!(report.total_cycles(), 0.0);
    }

    #[test]
    fn parallel_and_sequential_requests_fold_identically() {
        let plan = plan();
        let mut session = plan.open_session();
        let parallel = session.infer(&Request::batch(12));
        let sequential = session.infer(&Request::batch(12).sequential());
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.to_json(), sequential.to_json());
    }

    #[test]
    fn streaming_sink_sees_every_sample_exactly_once() {
        let plan = plan();
        let mut session = plan.open_session();
        let seen = std::sync::Mutex::new(vec![0u32; 12]);
        let mut sink = FnSink(|sample: usize, layers: &[LayerSample]| {
            assert_eq!(layers.len(), 8);
            seen.lock().unwrap()[sample] += 1;
        });
        session.run(&Request::batch(12), &mut sink);
        assert!(seen.lock().unwrap().iter().all(|&n| n == 1));
    }

    #[test]
    fn sample_subranges_serve_the_same_measurements_as_full_batches() {
        let plan = plan();
        let mut session = plan.open_session();
        let full = session.infer(&Request::batch(12));
        // Samples are independently seeded, so serving sample 4..8 alone
        // reproduces those samples' measurements exactly.
        let sub = std::sync::Mutex::new(Vec::new());
        let mut sink = FnSink(|sample: usize, layers: &[LayerSample]| {
            sub.lock().unwrap().push((sample, layers.to_vec()));
        });
        session.run(&Request::samples(4..8).sequential(), &mut sink);
        let sub = sub.into_inner().unwrap();
        assert_eq!(sub.len(), 4);
        assert_eq!(sub[0].0, 4);
        assert!(full.total_cycles() > 0.0);
    }

    #[test]
    fn arena_counters_reach_steady_state_after_the_first_request() {
        let plan = plan();
        let mut session = plan.open_session();
        session.infer(&Request::batch(12));
        let warm = session.stats();
        assert_eq!(warm.runs, 12);
        for _ in 0..3 {
            session.infer(&Request::batch(12));
        }
        let steady = session.stats();
        assert_eq!(steady.runs, 48);
        assert_eq!(steady.grows, warm.grows, "steady-state requests grow no arena buffer");
    }
}
