//! The concurrent serving front end: [`Gateway`].
//!
//! One dispatcher thread per tenant owns that tenant's [`Session`] and
//! drains a bounded submission queue. Each micro-batch is the queue head
//! plus the FIFO prefix that fits under the batch cap — whatever queued
//! while the previous batch ran — served at once as a single
//! [`Session::serve_into`] call into one slot-major buffer, and each
//! caller's [`ResponseHandle`] receives its own range of slots. Samples are
//! independently seeded by the core, so coalescing can never change a
//! result: every per-request response is bit-identical to serving that
//! request alone on a bare session.
//!
//! The threading idiom is the same parked epoch/condvar discipline as
//! `spikestream`'s worker pool: submitters park on `space` when a queue
//! is full, the dispatcher parks on `work` when its queue is empty or
//! paused, clients park on their response cell, and all cross-thread
//! signalling runs through those condvars — no async runtime, no
//! channels. A notify costs a syscall whether or not anyone
//! waits, so the serving path signals only a thread that is parked and
//! waiting for the change:
//!
//! - a submission wakes the dispatcher only when it is parked idle, and
//!   only the first submission after it parked does;
//! - a pop wakes submitters only when some are parked on `space`;
//! - a completed request wakes its client only when the client is parked
//!   in [`ResponseHandle::wait`].
//!
//! Publish, resume and shutdown always wake everyone.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spikestream::scenario::MAX_QUEUE_CAP;
use spikestream::{
    Compiler, InferenceReport, LayerSample, Plan, Request, Session, SessionStatsHandle,
};

use crate::registry::{PlanRegistry, VersionedPlan};
use crate::stats::{Counters, GatewayStats, TenantStats};
use crate::{GatewayConfig, ServeError};

/// What a [`ResponseCell`] guards: the result once the dispatcher has
/// delivered it, and whether the client is parked waiting for it.
#[derive(Default)]
struct CellState {
    result: Option<Result<GatewayResponse, ServeError>>,
    parked: bool,
}

/// The rendezvous cell a dispatcher fulfills and a client waits on.
#[derive(Default)]
struct ResponseCell {
    state: Mutex<CellState>,
    ready: Condvar,
}

impl ResponseCell {
    /// Deliver `result`, waking the client only if it is parked in
    /// [`ResponseHandle::wait`]. A handle has one owner, so at most one
    /// thread waits.
    fn fulfill(&self, result: Result<GatewayResponse, ServeError>) {
        let parked = {
            let mut cell = self.state.lock().expect("response cell poisoned");
            cell.result = Some(result);
            cell.parked
        };
        if parked {
            self.ready.notify_one();
        }
    }
}

/// A claim on one submitted request's eventual result (see
/// [`Gateway::submit`]).
pub struct ResponseHandle {
    cell: Arc<ResponseCell>,
}

impl ResponseHandle {
    /// Block until the request completes, consuming the handle.
    pub fn wait(self) -> Result<GatewayResponse, ServeError> {
        let mut cell = self.cell.state.lock().expect("response cell poisoned");
        loop {
            if let Some(result) = cell.result.take() {
                return result;
            }
            cell.parked = true;
            cell = self.cell.ready.wait(cell).expect("response cell poisoned");
        }
    }
}

/// One completed request: the raw per-sample measurements plus everything
/// needed to fold them into the exact [`InferenceReport`] a bare
/// [`Session`] would have produced.
///
/// Demultiplexing copies nothing: every response of a micro-batch shares
/// the batch's one result buffer and names its own slot range of it, and
/// the fold is deferred to [`GatewayResponse::report`] — callers that only
/// need raw layer samples ([`GatewayResponse::layers`]) never pay for a
/// report. The trade-off: a response keeps its whole batch's buffer alive
/// until the batch's last response is dropped. That buffer is bounded like
/// the batch, by
/// [`Compiler::MAX_LAYER_SAMPLES`](spikestream::Compiler::MAX_LAYER_SAMPLES)
/// layer samples.
pub struct GatewayResponse {
    plan: Arc<VersionedPlan>,
    batch: Arc<Vec<LayerSample>>,
    slots: Range<usize>,
    batch_samples: usize,
    batch_requests: usize,
}

impl GatewayResponse {
    /// The plan version this request was evaluated under.
    pub fn plan_version(&self) -> u64 {
        self.plan.version
    }

    /// Number of samples this request asked for.
    pub fn samples(&self) -> usize {
        self.slots.len()
    }

    /// Raw per-layer measurements, sample-major then step-major — the
    /// exact slots a bare [`Session::serve_into`] over the same samples
    /// would have written.
    pub fn layers(&self) -> &[LayerSample] {
        let units = PlanShape::of(&self.plan.plan).units();
        &self.batch[self.slots.start * units..self.slots.end * units]
    }

    /// Per-sample cycle totals, in request order, summed from this
    /// request's slots on each call. Fleet statistics of the request are
    /// [`attribute_shards(&response.cycles(), n)`](spikestream::attribute_shards),
    /// which clamps `n` to
    /// [`MAX_SHARDS`](spikestream::sharding::MAX_SHARDS).
    pub fn cycles(&self) -> Vec<f64> {
        self.plan.plan.sample_cycles(self.layers(), self.samples())
    }

    /// Total samples in the coalesced batch this request rode in.
    pub fn batch_samples(&self) -> usize {
        self.batch_samples
    }

    /// Number of requests coalesced into that batch.
    pub fn batch_requests(&self) -> usize {
        self.batch_requests
    }

    /// Fold this request's samples into the [`InferenceReport`] a bare,
    /// unsharded `Session::infer` over the same samples would return —
    /// byte-identical. For the report of an `n`-shard request, set its
    /// `shards` to
    /// [`attribute_shards(&response.cycles(), n)`](spikestream::attribute_shards).
    pub fn report(&self) -> InferenceReport {
        self.plan.plan.fold_report(self.layers(), self.samples())
    }
}

/// One queued request awaiting dispatch.
struct Pending {
    samples: Vec<usize>,
    cell: Arc<ResponseCell>,
}

/// The layer count and timesteps of a plan generation: what a request's
/// size is checked against.
#[derive(Debug, Clone, Copy, Default)]
struct PlanShape {
    layers: usize,
    timesteps: usize,
}

impl PlanShape {
    fn of(plan: &Plan) -> Self {
        PlanShape { layers: plan.network().len(), timesteps: plan.config().timesteps() }
    }

    /// Layer samples per sample: one per layer per timestep. The plan's
    /// own batch passed [`Compiler::layer_samples`], so this cannot
    /// overflow.
    fn units(&self) -> usize {
        self.layers * self.timesteps
    }

    /// [`ServeError::RequestTooLarge`] when `samples` samples would fold
    /// more than [`Compiler::MAX_LAYER_SAMPLES`] layer samples.
    fn check(&self, samples: usize) -> Result<(), ServeError> {
        let (layers, timesteps) = (self.layers, self.timesteps);
        Compiler::layer_samples(samples, layers, timesteps)
            .map(drop)
            .ok_or(ServeError::RequestTooLarge { samples, layers, timesteps })
    }
}

/// Samples one micro-batch of requests at `units` layer samples per sample
/// may hold: `max_batch`, and no more than [`Compiler::MAX_LAYER_SAMPLES`]
/// layer samples.
fn batch_cap(max_batch: usize, units: usize) -> usize {
    max_batch.min(Compiler::MAX_LAYER_SAMPLES / units.max(1))
}

/// Mutable per-tenant state, guarded by [`Tenant::state`].
#[derive(Default)]
struct TenantState {
    queue: VecDeque<Pending>,
    /// Whether the dispatcher is parked idle, so that a submission must
    /// wake it: false while it runs, is paused, or has already been
    /// signalled.
    parked_idle: bool,
    /// Submitters parked on [`Tenant::space`], counted on every exit from
    /// the wait, timeouts included.
    space_waiters: usize,
    paused: bool,
    shutdown: bool,
    dispatcher_alive: bool,
    poisoned: Option<String>,
    serving_version: u64,
    session_stats: Option<SessionStatsHandle>,
    /// The shape of the latest published generation, set at publish.
    shape: PlanShape,
}

/// One tenant: a bounded queue plus the two condvars its dispatcher and
/// submitters park on.
struct Tenant {
    name: String,
    state: Mutex<TenantState>,
    /// Dispatcher parks here while the queue is empty or paused. A
    /// submission signals it only while it is parked idle
    /// ([`TenantState::parked_idle`]); [`Gateway::publish`],
    /// [`Gateway::resume`] and shutdown always do.
    work: Condvar,
    /// Submitters park here while the queue is at capacity; the
    /// dispatcher signals it as it pops, if any are parked.
    space: Condvar,
}

impl Tenant {
    fn new(name: &str) -> Self {
        Tenant {
            name: name.to_string(),
            state: Mutex::new(TenantState::default()),
            work: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Park the dispatcher on `work` until a publish, resume or shutdown,
    /// or, if `idle`, until a submission.
    fn park<'a>(
        &self,
        mut state: MutexGuard<'a, TenantState>,
        idle: bool,
    ) -> MutexGuard<'a, TenantState> {
        state.parked_idle = idle;
        let mut state = self.work.wait(state).expect("tenant state poisoned");
        state.parked_idle = false;
        state
    }

    /// A pop made room: wake the submitters parked on a full queue, if any.
    fn made_room(&self, state: &TenantState) {
        if state.space_waiters > 0 {
            self.space.notify_all();
        }
    }
}

/// State shared between the gateway handle and every dispatcher thread.
struct Shared {
    config: GatewayConfig,
    registry: Arc<PlanRegistry>,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
    counters: Counters,
    closed: AtomicBool,
}

impl Shared {
    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        self.tenants
            .lock()
            .expect("tenant map poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }
}

/// The serving gateway: a [`PlanRegistry`] of named, versioned tenants,
/// each served by its own dispatcher thread that dynamically micro-batches
/// queued requests (see the [crate docs](crate)).
///
/// Dropping the gateway shuts it down: queues drain, dispatchers join.
pub struct Gateway {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Gateway {
    /// An empty gateway; add tenants with [`Gateway::publish`].
    pub fn new(config: GatewayConfig) -> Self {
        Gateway {
            shared: Arc::new(Shared {
                config,
                registry: Arc::new(PlanRegistry::new()),
                tenants: Mutex::new(BTreeMap::new()),
                counters: Counters::default(),
                closed: AtomicBool::new(false),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The underlying plan registry (for version lookups; publish through
    /// [`Gateway::publish`] so dispatcher lifecycle stays managed).
    pub fn registry(&self) -> Arc<PlanRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Install `plan` as tenant `tenant`'s current generation and return
    /// the new version number (1 on first publish).
    ///
    /// Hot swap: a republish over a live tenant never drops queued
    /// requests. The dispatcher finishes its in-flight batch on the old
    /// plan (those results carry the old version), then reopens its
    /// session on the new generation — everything still queued, and every
    /// later submission, runs on the new version. Publishing also clears a
    /// poisoned tenant (see [`ServeError::Poisoned`]) by restarting its
    /// dispatcher on the fresh plan.
    pub fn publish(&self, tenant: &str, plan: Plan) -> Result<u64, ServeError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let shape = PlanShape::of(&plan);
        let version = self.shared.registry.publish(tenant, plan);
        if version > 1 {
            self.shared.counters.on_hot_swap();
        }
        let tenant = {
            let mut tenants = self.shared.tenants.lock().expect("tenant map poisoned");
            Arc::clone(
                tenants.entry(tenant.to_string()).or_insert_with(|| Arc::new(Tenant::new(tenant))),
            )
        };
        let mut state = tenant.state.lock().expect("tenant state poisoned");
        state.poisoned = None;
        state.shape = shape;
        if state.dispatcher_alive {
            // Wake the parked dispatcher so it notices the version bump at
            // its next batch boundary.
            tenant.work.notify_all();
        } else {
            state.dispatcher_alive = true;
            let shared = Arc::clone(&self.shared);
            let worker = Arc::clone(&tenant);
            let handle = std::thread::Builder::new()
                .name(format!("serve-{}", tenant.name))
                .spawn(move || run_dispatcher(&shared, &worker))
                .expect("failed to spawn gateway dispatcher thread");
            self.handles.lock().expect("handle list poisoned").push(handle);
        }
        Ok(version)
    }

    /// Submit `samples` to tenant `tenant`; the tenant's plan fixes how
    /// each sample is evaluated. Fails fast with [`ServeError::Full`] when
    /// the tenant queue is at capacity, and with
    /// [`ServeError::RequestTooLarge`] when the request would fold more
    /// than
    /// [`Compiler::MAX_LAYER_SAMPLES`](spikestream::Compiler::MAX_LAYER_SAMPLES)
    /// layer samples on the tenant's published plan.
    pub fn submit(&self, tenant: &str, samples: &[usize]) -> Result<ResponseHandle, ServeError> {
        self.enqueue(tenant, samples, None)
    }

    /// [`Gateway::submit`], but park up to `timeout` for queue space
    /// instead of failing fast; [`ServeError::Timeout`] if none opens up.
    pub fn submit_timeout(
        &self,
        tenant: &str,
        samples: &[usize],
        timeout: Duration,
    ) -> Result<ResponseHandle, ServeError> {
        self.enqueue(tenant, samples, Some(timeout))
    }

    fn enqueue(
        &self,
        name: &str,
        samples: &[usize],
        wait: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        if samples.is_empty() {
            return Err(ServeError::EmptyRequest);
        }
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let tenant = self.shared.tenant(name)?;
        let cap = self.shared.config.queue_cap.clamp(1, MAX_QUEUE_CAP);
        let deadline = wait.map(|timeout| Instant::now() + timeout);
        let mut state = tenant.state.lock().expect("tenant state poisoned");
        loop {
            if state.shutdown {
                return Err(ServeError::Shutdown);
            }
            if let Some(message) = &state.poisoned {
                return Err(ServeError::Poisoned(message.clone()));
            }
            state.shape.check(samples.len())?;
            if state.queue.len() < cap {
                break;
            }
            let Some(deadline) = deadline else {
                self.shared.counters.on_rejected_full();
                return Err(ServeError::Full { tenant: name.to_string(), cap });
            };
            let now = Instant::now();
            if now >= deadline {
                self.shared.counters.on_rejected_full();
                return Err(ServeError::Timeout { tenant: name.to_string() });
            }
            state.space_waiters += 1;
            let (guard, _timed_out) =
                tenant.space.wait_timeout(state, deadline - now).expect("tenant state poisoned");
            state = guard;
            state.space_waiters -= 1;
        }
        let cell = Arc::new(ResponseCell::default());
        state.queue.push_back(Pending { samples: samples.to_vec(), cell: Arc::clone(&cell) });
        self.shared.counters.on_submitted();
        // A running dispatcher pops this request when its batch ends, so
        // only an idle one needs the wakeup, and only once.
        if std::mem::take(&mut state.parked_idle) {
            tenant.work.notify_one();
        }
        Ok(ResponseHandle { cell })
    }

    /// Hold tenant `tenant`'s dispatcher: submissions still queue (and
    /// still backpressure), nothing dispatches until
    /// [`Gateway::resume`]. Deterministic drivers (the tests and the
    /// demo CLI) use this to pin exact batch compositions.
    pub fn pause(&self, tenant: &str) -> Result<(), ServeError> {
        let tenant = self.shared.tenant(tenant)?;
        tenant.state.lock().expect("tenant state poisoned").paused = true;
        Ok(())
    }

    /// Release a paused tenant's dispatcher.
    pub fn resume(&self, tenant: &str) -> Result<(), ServeError> {
        let tenant = self.shared.tenant(tenant)?;
        tenant.state.lock().expect("tenant state poisoned").paused = false;
        tenant.work.notify_all();
        Ok(())
    }

    /// Snapshot the gateway counters (see [`GatewayStats`]): the global
    /// cells are relaxed atomic loads, and each tenant's entry takes that
    /// tenant's queue lock only for the length/flag reads — session
    /// counters come from the lock-free
    /// [`stats handle`](spikestream::Session::stats_handle) mirror.
    pub fn stats(&self) -> GatewayStats {
        let mut stats = self.shared.counters.snapshot();
        let tenants = self.shared.tenants.lock().expect("tenant map poisoned");
        for (name, tenant) in tenants.iter() {
            let state = tenant.state.lock().expect("tenant state poisoned");
            stats.tenants.push(TenantStats {
                name: name.clone(),
                version: self.shared.registry.version(name).unwrap_or(0),
                serving_version: state.serving_version,
                queue_depth: state.queue.len(),
                poisoned: state.poisoned.is_some(),
                session: state
                    .session_stats
                    .as_ref()
                    .map(SessionStatsHandle::snapshot)
                    .unwrap_or_default(),
            });
        }
        stats
    }

    /// Drain every tenant queue and join every dispatcher. Idempotent;
    /// also runs on drop. Later submissions and publishes fail with
    /// [`ServeError::Shutdown`].
    pub fn shutdown(&self) {
        self.shared.closed.store(true, Ordering::Release);
        {
            let tenants = self.shared.tenants.lock().expect("tenant map poisoned");
            for tenant in tenants.values() {
                let mut state = tenant.state.lock().expect("tenant state poisoned");
                state.shutdown = true;
                tenant.work.notify_all();
                tenant.space.notify_all();
            }
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.handles.lock().expect("handle list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("config", &self.shared.config)
            .field("tenants", &self.shared.registry.names())
            .finish_non_exhaustive()
    }
}

/// Why a dispatcher left its current plan generation.
enum EraExit {
    /// A newer version was published; reopen the session on it.
    Swap,
    /// The gateway is shutting down and the queue is drained.
    Shutdown,
    /// A batch panicked; the tenant is poisoned until the next publish.
    Poisoned,
}

/// Dispatcher thread body: serve plan generation after plan generation
/// until shutdown or poison.
fn run_dispatcher(shared: &Shared, tenant: &Tenant) {
    loop {
        let Some(era) = shared.registry.get(&tenant.name) else {
            tenant.state.lock().expect("tenant state poisoned").dispatcher_alive = false;
            return;
        };
        let plan = Arc::clone(&era.plan);
        let mut session = plan.open_session();
        {
            let mut state = tenant.state.lock().expect("tenant state poisoned");
            state.serving_version = era.version;
            state.session_stats = Some(session.stats_handle());
        }
        match serve_era(shared, tenant, &era, &mut session) {
            EraExit::Swap => continue,
            EraExit::Shutdown | EraExit::Poisoned => return,
        }
    }
}

/// Serve micro-batches on one plan generation until it is superseded, the
/// gateway shuts down, or a batch panics.
fn serve_era(
    shared: &Shared,
    tenant: &Tenant,
    era: &Arc<VersionedPlan>,
    session: &mut Session<'_>,
) -> EraExit {
    // One plan generation serves one request shape, so the per-sample
    // layer count and the batch cap are fixed for the whole era.
    let shape = PlanShape::of(&era.plan);
    let units = shape.units();
    let cap = batch_cap(shared.config.max_batch.max(1), units);
    loop {
        let (batch, total) = {
            let mut state = tenant.state.lock().expect("tenant state poisoned");
            let head = loop {
                if state.shutdown && state.queue.is_empty() {
                    state.dispatcher_alive = false;
                    return EraExit::Shutdown;
                }
                // Batch-boundary staleness check: a publish happened, so
                // hand back to `run_dispatcher` to reopen on the new
                // generation. Everything still queued runs on it.
                if shared.registry.version(&tenant.name) != Some(era.version) {
                    return EraExit::Swap;
                }
                let serving = !state.paused || state.shutdown;
                if serving {
                    if let Some(head) = state.queue.pop_front() {
                        break head;
                    }
                }
                // Parked idle, the first submission is worth a wakeup;
                // paused, none is (resume wakes the dispatcher).
                state = tenant.park(state, serving);
            };
            // The micro-batch is the head plus the FIFO prefix that fits
            // under the cap: whatever queued while the previous batch ran.
            // A queued request that does not fit closes the batch rather
            // than being overtaken by later, smaller ones.
            let mut total = head.samples.len();
            let mut batch = vec![head];
            while let Some(next) =
                state.queue.pop_front_if(|next| total + next.samples.len() <= cap)
            {
                total += next.samples.len();
                batch.push(next);
            }
            tenant.made_room(&state);
            (batch, total)
        };
        // Submission checked the size against the generation published
        // then; a hot swap since may have grown the layers or timesteps. A
        // request that no longer fits the plan exceeds the cap, so it is
        // alone in its batch.
        if let Err(error) = shape.check(total) {
            batch[0].cell.fulfill(Err(error));
            continue;
        }

        // Execute outside the queue lock: submitters keep queueing while
        // the batch runs. The batch's one result buffer is shared by all
        // of its responses, each naming its own slot range: no copy.
        let gather: Vec<usize> =
            batch.iter().flat_map(|pending| pending.samples.iter().copied()).collect();
        let mut flat = vec![LayerSample::default(); total * units];
        let run = catch_unwind(AssertUnwindSafe(|| {
            session.serve_into(&Request::batch(total), &gather, &mut flat)
        }));
        match run {
            Ok(()) => {
                shared.counters.on_batch(batch.len(), total);
                let requests = batch.len();
                let results = Arc::new(flat);
                let mut at = 0usize;
                for pending in batch {
                    let n = pending.samples.len();
                    let response = GatewayResponse {
                        plan: Arc::clone(era),
                        batch: Arc::clone(&results),
                        slots: at..at + n,
                        batch_samples: total,
                        batch_requests: requests,
                    };
                    at += n;
                    shared.counters.on_completed();
                    pending.cell.fulfill(Ok(response));
                }
            }
            Err(payload) => {
                // Panic containment: fail this batch and everything queued
                // behind it, poison the tenant, and retire the dispatcher.
                // Other tenants' threads are untouched; the next publish
                // restarts this one on a fresh plan and session.
                let message = panic_message(payload.as_ref());
                shared.counters.on_panic();
                let error = ServeError::Poisoned(message.clone());
                for pending in batch {
                    pending.cell.fulfill(Err(error.clone()));
                }
                let mut state = tenant.state.lock().expect("tenant state poisoned");
                state.poisoned = Some(message);
                state.dispatcher_alive = false;
                for pending in state.queue.drain(..) {
                    pending.cell.fulfill(Err(error.clone()));
                }
                tenant.made_room(&state);
                return EraExit::Poisoned;
            }
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikestream::{Engine, FpFormat, InferenceConfig, KernelVariant};

    fn plan(batch: usize) -> Plan {
        Engine::svgg11(1).compile(&InferenceConfig {
            batch,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        })
    }

    #[test]
    fn submit_routes_through_a_published_tenant() {
        let gateway = Gateway::new(GatewayConfig::default());
        assert_eq!(gateway.publish("svgg11", plan(4)), Ok(1));
        let handle = gateway.submit("svgg11", &[0, 1]).expect("submit");
        let response = handle.wait().expect("serve");
        assert_eq!(response.plan_version(), 1);
        assert_eq!(response.samples(), 2);
        assert_eq!(response.cycles().len(), 2);
        let report = response.report();
        assert_eq!(report.batch, 2);
        assert!(report.total_cycles() > 0.0);
        let stats = gateway.stats();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].name, "svgg11");
    }

    #[test]
    fn unknown_tenants_and_empty_requests_are_rejected() {
        let gateway = Gateway::new(GatewayConfig::default());
        assert_eq!(
            gateway.submit("nope", &[0]).err(),
            Some(ServeError::UnknownTenant("nope".to_string()))
        );
        gateway.publish("svgg11", plan(2)).expect("publish");
        assert_eq!(gateway.submit("svgg11", &[]).err(), Some(ServeError::EmptyRequest));
    }

    #[test]
    fn pause_coalesces_and_resume_drains() {
        let gateway = Gateway::new(GatewayConfig { max_batch: 8, queue_cap: 16 });
        gateway.publish("svgg11", plan(8)).expect("publish");
        gateway.pause("svgg11").expect("pause");
        let handles: Vec<ResponseHandle> =
            (0..4).map(|i| gateway.submit("svgg11", &[i]).expect("submit")).collect();
        gateway.resume("svgg11").expect("resume");
        for handle in handles {
            let response = handle.wait().expect("serve");
            assert_eq!(response.batch_samples(), 4);
            assert_eq!(response.batch_requests(), 4);
        }
        let stats = gateway.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced, 4);
        assert_eq!(stats.batch_hist[2], 1, "one batch of four samples");
    }

    #[test]
    fn coalescing_stops_at_the_layer_sample_bound() {
        // S-VGG11 (8 layers) at T = 1: `max_batch` binds.
        assert_eq!(batch_cap(64, 8), 64);
        // T = 2^16: 2^22 / (8 x 2^16) = 8 samples per batch.
        assert_eq!(batch_cap(64, 8 << 16), 8);
        // T = 2^19: one sample fills the bound, where 64 coalesced ones
        // would have asked for 20 GiB.
        assert_eq!(batch_cap(64, 8 << 19), 1);
        // A layerless plan folds nothing per sample.
        assert_eq!(batch_cap(64, 0), 64);
    }

    #[test]
    fn shutdown_rejects_later_submissions() {
        let gateway = Gateway::new(GatewayConfig::default());
        gateway.publish("svgg11", plan(2)).expect("publish");
        gateway.shutdown();
        assert_eq!(gateway.submit("svgg11", &[0]).err(), Some(ServeError::Shutdown));
    }
}
