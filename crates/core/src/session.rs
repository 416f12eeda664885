//! Long-lived serving sessions: [`Session`], [`Request`].
//!
//! A [`Session`] is the per-process serving handle of a compiled
//! [`Plan`]. It owns what a *running* service owns — one
//! [`WorkerArena`] per worker slot (the per-sample staging buffers, the
//! kernels' compressed-input scratch and the persistent membrane state of
//! temporal samples), the parked [`WorkerPool`] threads
//! that serve multi-worker requests without per-request
//! spawn/join, and the reusable batch bookkeeping — and serves
//! [`Request`]s against the plan's shared program-cost cache.
//!
//! Results are *slot-addressed*: every position of a request owns one
//! chunk of a slot-major buffer of [`LayerSample`]s, and the worker that
//! claims the position writes that chunk and nothing else.
//! [`Session::serve_into`] serves into a caller's buffer;
//! [`Session::infer`] serves into the session's own and folds it into an
//! [`InferenceReport`] — the monolithic report is that fold, nothing more.
//!
//! Determinism: samples are seeded independently and land in their own
//! slot, so the buffer, and every report folded from it, is independent
//! of worker scheduling.

use std::ops::Range;
use std::sync::Mutex;

use crate::backend::{LayerSample, WorkerArena};
use crate::plan::Plan;
use crate::pool::{PoolStats, WorkerPool};
use crate::report::InferenceReport;
use crate::sharding::{attribute_shards, clamp_workers};

/// One serving request: which batch samples to evaluate, plus the two
/// host/fleet knobs of how they are served. How each sample is *evaluated*
/// (variant, format, timing, timesteps) is fixed by the plan; serving
/// another configuration means compiling another plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Sample indices to evaluate (each is an independently seeded batch
    /// sample of the plan's workload).
    pub samples: Range<usize>,
    /// Attribute the request to a fleet of N simulated cluster shards: the
    /// folded report carries the [`ShardSummary`](crate::ShardSummary) in
    /// its `shards`. N is clamped to
    /// `1..=`[`MAX_SHARDS`](crate::sharding::MAX_SHARDS).
    pub shards: Option<usize>,
    /// Host worker override: `Some(1)` serves the request strictly
    /// sequentially on the calling thread, in ascending slot order; `None`
    /// uses the session default. The worker count never changes a result.
    pub workers: Option<usize>,
}

impl Request {
    /// The full-batch request over samples `0..batch` (at least one).
    pub fn batch(batch: usize) -> Self {
        Request { samples: 0..batch.max(1), shards: None, workers: None }
    }

    /// A request over an explicit sample range.
    pub fn samples(samples: Range<usize>) -> Self {
        let samples = if samples.is_empty() { samples.start..samples.start + 1 } else { samples };
        Request { samples, shards: None, workers: None }
    }

    /// Attribute the request to `shards` simulated cluster shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Serve strictly sequentially on the calling thread.
    pub fn sequential(mut self) -> Self {
        self.workers = Some(1);
        self
    }

    /// Override the host worker count. The session serves with at most
    /// [`MAX_WORKERS`](crate::sharding::MAX_WORKERS) workers, and never
    /// with more than the request has samples.
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

/// A per-position consumer of [`Session::run_gather`], which goes with it
/// (see there); serving code reads slots of a [`Session::serve_into`]
/// buffer instead.
pub trait ResultSink {
    /// One position, in list order: the batch `sample` it names and its
    /// slot, one [`LayerSample`] per layer per timestep, step-major.
    fn on_sample(&mut self, sample: usize, layers: &[LayerSample]);
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
/// // Serve the same plan request after request — the first request lowers
/// // and prices each layer binding once, later ones hit the plan's cache,
/// // and the session's arenas are reused throughout.
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
    flat: Vec<LayerSample>,
}

impl<'p> Session<'p> {
    pub(crate) fn new(plan: &'p Plan) -> Self {
        let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Session {
            plan,
            arenas: Vec::new(),
            pool: WorkerPool::new(),
            workers: host,
            flat: Vec::new(),
        }
    }

    /// The plan this session serves.
    pub fn plan(&self) -> &'p Plan {
        self.plan
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

    /// Serve `request` and fold its samples into an [`InferenceReport`].
    pub fn infer(&mut self, request: &Request) -> InferenceReport {
        let start = request.samples.start;
        self.fold(request, request.len(), |i| start + i)
    }

    /// [`Session::infer`] over an explicit — possibly non-contiguous,
    /// possibly repeating — list of batch sample indices, folded in list
    /// order (`request.samples` itself is ignored): the report a bare
    /// session would produce for an equivalent range request.
    pub fn infer_gather(&mut self, request: &Request, samples: &[usize]) -> InferenceReport {
        self.fold(request, samples.len(), |i| samples[i])
    }

    /// Serve an explicit — possibly non-contiguous, possibly repeating —
    /// list of batch sample indices into `out`, slot-major: position `i`
    /// fills `out[i * units..(i + 1) * units]` with one [`LayerSample`] per
    /// layer per timestep, step-major (`units` = the plan's layers ×
    /// timesteps), the layout [`Plan::fold_report`] and
    /// [`Plan::sample_cycles`] read. Of `request`, only `workers` is read.
    ///
    /// A coalescing gateway serves each micro-batch here and hands every
    /// client its own slots. Samples are independently seeded, so each
    /// slot is bit-identical to serving its sample alone.
    ///
    /// # Panics
    ///
    /// If `out.len()` is not `samples.len() * units`, or if the backend
    /// panics (the session stays serviceable).
    pub fn serve_into(&mut self, request: &Request, samples: &[usize], out: &mut [LayerSample]) {
        self.serve(request, samples.len(), |i| samples[i], out)
    }

    /// [`Session::serve_into`] the session's own buffer, then hand each
    /// position's slot to `sink` in list order. It stays only because the
    /// repository benchmark (`perfbench`) drains requests through it, and
    /// goes once that benchmark drains through [`Session::infer_gather`]
    /// (ROADMAP item 1).
    pub fn run_gather(&mut self, request: &Request, samples: &[usize], sink: &mut dyn ResultSink) {
        let units = self.units();
        let flat = self.serve_own(request, samples.len(), |i| samples[i]);
        for (i, &sample) in samples.iter().enumerate() {
            sink.on_sample(sample, &flat[i * units..(i + 1) * units]);
        }
    }

    /// The one serving loop behind every entry point: evaluate sample
    /// `id(i)` for each position `i < batch` through the plan's bound
    /// backend into position `i`'s chunk of `out`.
    fn serve(
        &mut self,
        request: &Request,
        batch: usize,
        id: impl Fn(usize) -> usize + Sync,
        out: &mut [LayerSample],
    ) {
        let backend = self.plan.backend();
        let units = self.units();
        assert_eq!(out.len(), batch * units, "one LayerSample per layer per timestep per position");

        // The one shared sizing policy (`sharding::clamp_workers`): never
        // run more workers than there are samples to claim.
        let workers = clamp_workers(request.workers.unwrap_or(self.workers), batch);
        // Worker-count growth grows the arenas and the pool together: the
        // arenas here, the pool threads inside `run_stealing` on dispatch.
        if self.arenas.len() < workers {
            self.arenas.resize_with(workers, WorkerArena::new);
        }
        // Size every participating arena up front: the claim loop may hand
        // a slot no sample, and its first sample must not grow it later.
        for arena in &mut self.arenas[..workers] {
            arena.reserve(units);
        }

        let ctx = self.plan.context();
        if workers == 1 {
            // Strictly sequential: ascending slot order on this thread.
            let arena = &mut self.arenas[0];
            for i in 0..batch {
                let layers = arena.run_sample(backend, &ctx, id(i));
                out[i * units..(i + 1) * units].copy_from_slice(layers);
            }
        } else {
            // The claim loop over the session's parked worker pool, one
            // sample per claim, so a request of n samples keeps up to n
            // workers busy. Worker slot `s` owns arena `s` for the whole
            // request (its scratch and membranes keep their locality across
            // requests), and a claim copies its sample into its position's
            // own chunk of `out`, so no lock is shared by all workers; the
            // mutexes only hand the `&mut`s across the parked threads.
            let arenas: Vec<Mutex<&mut WorkerArena>> =
                self.arenas[..workers].iter_mut().map(Mutex::new).collect();
            // Split by hand: `chunks_mut` panics on the zero-length chunks
            // of a layerless plan.
            let mut rest = out;
            let chunks: Vec<Mutex<&mut [LayerSample]>> = (0..batch)
                .map(|_| {
                    let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(units);
                    rest = tail;
                    Mutex::new(chunk)
                })
                .collect();
            let id = &id;
            self.pool.run_stealing(workers, batch, |slot, i| {
                // Neither `expect` can fire. Each mutex is locked only by
                // the worker slot (arena) or the claim (chunk) that owns
                // it; a panic ends that slot's claim loop, so no later
                // lock finds a mutex it poisoned; and both vectors are
                // rebuilt per request, so no poison outlives its request.
                let arena = &mut *arenas[slot].lock().expect("arena slot poisoned");
                let layers = arena.run_sample(backend, &ctx, id(i));
                chunks[i].lock().expect("output slot poisoned").copy_from_slice(layers);
            });
        }
    }

    /// Layer samples per sample: one per layer per timestep.
    fn units(&self) -> usize {
        self.plan.network().len() * self.plan.config().timesteps()
    }

    /// Serve into the session's own buffer, reused across requests, and
    /// return it.
    fn serve_own(
        &mut self,
        request: &Request,
        batch: usize,
        id: impl Fn(usize) -> usize + Sync,
    ) -> &[LayerSample] {
        let mut flat = std::mem::take(&mut self.flat);
        flat.clear();
        flat.resize(batch * self.units(), LayerSample::default());
        self.serve(request, batch, id, &mut flat);
        self.flat = flat;
        &self.flat
    }

    /// Serve into the session's own buffer and fold it into an
    /// [`InferenceReport`].
    fn fold(
        &mut self,
        request: &Request,
        batch: usize,
        id: impl Fn(usize) -> usize + Sync,
    ) -> InferenceReport {
        let plan = self.plan;
        let flat = self.serve_own(request, batch, id);
        let mut report = plan.fold_report(flat, batch);
        // Deterministic fleet attribution in simulated time: a pure
        // function of the per-sample cycle totals, identical no matter how
        // the host threads raced.
        report.shards =
            request.shards.map(|shards| attribute_shards(&plan.sample_cycles(flat, batch), shards));
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
        let r = Request::batch(8).with_shards(0).sequential();
        assert_eq!((r.shards, r.workers), (Some(1), Some(1)));
        assert_eq!(r.len(), 8);
        assert!(!r.is_empty());
    }

    #[test]
    fn a_manually_built_empty_request_folds_to_a_zero_report() {
        // The constructors clamp to one sample, but `Request` fields are
        // public; an empty range must fold gracefully, not panic.
        let plan = plan();
        let empty = Request { samples: 3..3, shards: None, workers: None };
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

    /// `samples` served into a fresh slot-major buffer.
    fn serve_slots(
        session: &mut Session<'_>,
        request: &Request,
        samples: &[usize],
    ) -> Vec<LayerSample> {
        let mut out = vec![LayerSample::default(); samples.len() * session.units()];
        session.serve_into(request, samples, &mut out);
        out
    }

    #[test]
    fn run_gather_hands_each_position_to_the_sink_once_in_list_order() {
        struct Collect(Vec<(usize, Vec<LayerSample>)>);
        impl ResultSink for Collect {
            fn on_sample(&mut self, sample: usize, layers: &[LayerSample]) {
                self.0.push((sample, layers.to_vec()));
            }
        }
        let plan = plan();
        let mut session = plan.open_session();
        let list = [3, 0, 3, 7];
        let request = Request::batch(1).with_workers(4);
        let mut sink = Collect(Vec::new());
        session.run_gather(&request, &list, &mut sink);
        let slots = serve_slots(&mut session, &request, &list);
        assert_eq!(sink.0.len(), list.len(), "one delivery per position");
        let chunks = slots.chunks(session.units());
        for (i, ((sample, layers), chunk)) in sink.0.iter().zip(chunks).enumerate() {
            assert_eq!(*sample, list[i], "position {i} is delivered in list order");
            assert_eq!(layers.as_slice(), chunk, "position {i} carries its serve_into slot");
        }
        assert_eq!(sink.0[0].1, sink.0[2].1, "a repeated sample measures the same");
    }

    #[test]
    fn sample_subranges_serve_the_same_measurements_as_full_batches() {
        let plan = plan();
        let mut session = plan.open_session();
        let all: Vec<usize> = (0..12).collect();
        let full = serve_slots(&mut session, &Request::batch(12).with_workers(4), &all);
        // Samples are independently seeded, so serving samples 4..8 alone
        // reproduces those samples' measurements exactly.
        let sub = serve_slots(&mut session, &Request::batch(4).sequential(), &all[4..8]);
        let units = session.units();
        assert_eq!(sub, full[4 * units..8 * units]);
        assert!(sub.iter().all(|l| l.cycles > 0.0));
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
