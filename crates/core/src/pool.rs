//! The persistent, parked worker pool behind [`Session`](crate::Session)
//! serving.
//!
//! A [`WorkerPool`] keeps OS thread spawn/join off the serving path: N-1
//! OS threads are created once, lazily, on the first request that
//! clamps to more than one worker, and *parked* on a condvar between
//! requests. Dispatching a request is one mutex lock, an epoch bump and a
//! `notify_all`; the calling thread itself serves worker slot 0, so the
//! single-threaded fast path of a request never crosses a thread boundary
//! at all.
//!
//! The wakeup protocol is a monotonically increasing **epoch** guarded by
//! one mutex: a parked worker runs exactly one job per epoch it observes,
//! and a worker whose slot is not needed by the current request (requests
//! clamp their worker count to their sample count) re-parks without
//! touching the job. The dispatcher blocks until every participating slot
//! has checked in, which is what makes the one `unsafe` lifetime erasure
//! in `WorkerPool::run_stealing` sound: the job closure — which borrows
//! the session's arenas, the request's context and the caller's output
//! buffer — cannot be observed by any pool thread after the dispatch
//! returns.
//!
//! **Panic policy:** a panicking job (a backend panic) is caught on the
//! worker that raised it, the remaining workers drain the claim loop, and
//! the first payload is re-raised on the calling thread once every slot
//! has finished. The pool's own state is never left locked or mid-epoch,
//! so the *next* request serves normally — a panicking backend costs its
//! request, not the session.
//!
//! Counters ([`PoolStats`]) make the steady state observable: `spawned`
//! must stay flat once a session is warm (tests assert it), `wakeups`
//! counts every park→run transition, `steals` counts the work items
//! claimed through the claim loop (for a session: one per sample of every
//! multi-worker request), and `park_ns` accumulates time threads spent
//! parked rather than burning cycles.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Observable counters of a [`WorkerPool`], surfaced through
/// [`Session::stats`](crate::Session::stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// OS threads created since the session opened. Stays flat across
    /// requests once the pool is warm — the whole point of the pool.
    pub spawned: u64,
    /// Multi-worker requests dispatched through the pool.
    pub jobs: u64,
    /// Park→run transitions: how many times a parked worker woke up with
    /// work to do (one per participating pool thread per job).
    pub wakeups: u64,
    /// Work items claimed through the claim loop. A session claims one
    /// sample at a time, so this counts the samples of its multi-worker
    /// requests.
    pub steals: u64,
    /// Total time pool threads spent parked on the job condvar, in
    /// nanoseconds. Grows while the session is idle; the serving cost of
    /// a request is what happens between parks.
    pub park_ns: u64,
}

/// The job slot handed from the dispatcher to the parked workers.
///
/// The pointee is the dispatch closure on the *caller's stack*; see the
/// safety argument in [`WorkerPool::run_stealing`].
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only dereferenced by workers between the epoch
// bump that publishes it and the `active == 0` handshake that the
// dispatcher blocks on; the dispatcher keeps the pointee alive (and
// unmoved) for that entire window.
unsafe impl Send for Job {}

/// Mutex-guarded dispatch state shared between the session thread and the
/// parked workers.
struct State {
    /// Bumped once per dispatched job; workers run one job per epoch.
    epoch: u64,
    /// The current job, `Some` only while an epoch is being served.
    job: Option<Job>,
    /// Worker slots `0..participants` serve the current epoch (slot 0 is
    /// the calling thread); pool threads with higher slots re-park.
    participants: usize,
    /// Participating *pool* threads that have not yet finished the job.
    active: usize,
    /// First panic payload raised by a pool thread during this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set once, by `Drop`: workers exit instead of re-parking.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The dispatcher blocks here until `active` returns to zero.
    done: Condvar,
    wakeups: AtomicU64,
    park_ns: AtomicU64,
}

/// A long-lived pool of parked worker threads owned by one
/// [`Session`](crate::Session).
///
/// Threads are spawned lazily — opening a session costs no threads, a
/// session that only ever serves sequential requests costs no threads,
/// and a session serving at `W` workers costs exactly `W - 1` threads for
/// its whole lifetime. Dropping the pool (with its session) parks nothing:
/// shutdown is flagged, the workers wake, exit their loop and are joined.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    // Written only through `&mut self`; `wakeups` and `park_ns` live in
    // `Shared` as atomics because the pool threads write them.
    spawned: u64,
    jobs: u64,
    steals: u64,
}

impl WorkerPool {
    /// A pool with no threads; workers spawn on first multi-worker use.
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    epoch: 0,
                    job: None,
                    participants: 0,
                    active: 0,
                    panic: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                wakeups: AtomicU64::new(0),
                park_ns: AtomicU64::new(0),
            }),
            handles: Vec::new(),
            spawned: 0,
            jobs: 0,
            steals: 0,
        }
    }

    /// Pool threads currently parked or serving.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            spawned: self.spawned,
            jobs: self.jobs,
            wakeups: self.shared.wakeups.load(Ordering::Relaxed),
            steals: self.steals,
            park_ns: self.shared.park_ns.load(Ordering::Relaxed),
        }
    }

    /// Run the claim loop over worker slots `0..workers`: every slot claims
    /// work-item indices `0..items` one at a time from a shared atomic
    /// cursor and runs `work(slot, item)` for each claim. Slot 0 runs on
    /// the calling thread; slots `1..workers` run on parked pool threads,
    /// spawned on first use and reused for every later request (growing if
    /// a later request clamps to more workers).
    ///
    /// Blocks until every slot has drained the cursor. If any slot
    /// panics, the remaining slots finish (or panic in turn on shared
    /// poisoned state), and the first payload is re-raised here — the
    /// pool itself stays serviceable for the next request.
    pub(crate) fn run_stealing(
        &mut self,
        workers: usize,
        items: usize,
        work: impl Fn(usize, usize) + Sync,
    ) {
        let cursor = AtomicUsize::new(0);
        let job = |slot: usize| loop {
            let item = cursor.fetch_add(1, Ordering::Relaxed);
            if item >= items {
                break;
            }
            work(slot, item);
        };

        if workers <= 1 {
            job(0);
            self.steals += items as u64;
            return;
        }
        self.ensure_spawned(workers - 1);
        self.jobs += 1;

        let erased: &(dyn Fn(usize) + Sync) = &job;
        // SAFETY: we erase the closure's lifetime to park it in the shared
        // job slot. Soundness rests on the handshake below: this function
        // does not return — not even by unwinding, since the caller-slot
        // job runs under `catch_unwind` — until `active == 0`, i.e. until
        // every pool thread that read the pointer has finished with it.
        let erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
        };
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            debug_assert!(state.job.is_none() && state.active == 0, "one job at a time");
            state.epoch += 1;
            state.job = Some(Job(erased as *const _));
            state.participants = workers;
            state.active = workers - 1;
            state.panic = None;
            self.shared.work.notify_all();
        }

        // The calling thread is worker slot 0 — its share of the claim
        // loop needs no wakeup and no handoff.
        let caller = catch_unwind(AssertUnwindSafe(|| job(0)));

        // Wait for every participating pool thread before the job closure
        // (and everything it borrows) can leave scope.
        let worker_panic = {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            while state.active != 0 {
                state = self.shared.done.wait(state).expect("pool state poisoned");
            }
            state.job = None;
            state.panic.take()
        };
        self.steals += items as u64;

        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Grow the pool to at least `threads` parked workers.
    fn ensure_spawned(&mut self, threads: usize) {
        while self.handles.len() < threads {
            // Slot 0 is the calling thread, so pool thread k serves slot
            // k + 1.
            let slot = self.handles.len() + 1;
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("spikestream-serve-{slot}"))
                .spawn(move || worker_loop(&shared, slot))
                .expect("failed to spawn session worker thread");
            self.handles.push(handle);
            self.spawned += 1;
        }
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The parked worker: wait for a fresh epoch, run the job for this slot,
/// check back in, re-park.
fn worker_loop(shared: &Shared, slot: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen {
                    if let Some(job) = state.job {
                        seen = state.epoch;
                        if slot < state.participants {
                            break job;
                        }
                        // This request clamped to fewer workers than the
                        // pool holds: not our epoch, back to the condvar.
                    }
                }
                let parked = Instant::now();
                state = shared.work.wait(state).expect("pool state poisoned");
                shared.park_ns.fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        };
        shared.wakeups.fetch_add(1, Ordering::Relaxed);

        // SAFETY: `job` was published this epoch; the dispatcher blocks on
        // `active == 0` below before invalidating the pointee.
        let task = unsafe { &*job.0 };
        let result = catch_unwind(AssertUnwindSafe(|| task(slot)));

        let mut state = shared.state.lock().expect("pool state poisoned");
        if let Err(payload) = result {
            // Keep the first payload: it is the cause, and a later one
            // may be a sibling slot's knock-on panic.
            state.panic.get_or_insert(payload);
        }
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn a_fresh_pool_owns_no_threads() {
        let pool = WorkerPool::new();
        assert_eq!(pool.threads(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn every_chunk_is_claimed_exactly_once() {
        let mut pool = WorkerPool::new();
        let claims: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        pool.run_stealing(4, claims.len(), |_, chunk| {
            claims[chunk].fetch_add(1, Ordering::Relaxed);
        });
        assert!(claims.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.threads(), 3);
        assert_eq!(pool.stats().steals, 97);
        assert_eq!(pool.stats().wakeups, 3);
    }

    #[test]
    fn single_worker_dispatch_stays_on_the_calling_thread() {
        let mut pool = WorkerPool::new();
        let caller = std::thread::current().id();
        pool.run_stealing(1, 5, |slot, _| {
            assert_eq!(slot, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
        assert_eq!(pool.threads(), 0, "sequential work spawns nothing");
    }

    #[test]
    fn the_pool_grows_but_never_respawns_warm_threads() {
        let mut pool = WorkerPool::new();
        pool.run_stealing(2, 8, |_, _| {});
        assert_eq!(pool.stats().spawned, 1);
        pool.run_stealing(4, 8, |_, _| {});
        assert_eq!(pool.stats().spawned, 3, "growing 2 -> 4 workers adds two threads");
        for _ in 0..16 {
            pool.run_stealing(4, 8, |_, _| {});
        }
        assert_eq!(pool.stats().spawned, 3, "warm requests spawn nothing");
        assert_eq!(pool.stats().jobs, 18);
    }

    #[test]
    fn shrunk_requests_leave_extra_workers_parked() {
        let mut pool = WorkerPool::new();
        pool.run_stealing(8, 32, |_, _| {});
        let wakeups = pool.stats().wakeups;
        assert_eq!(wakeups, 7);
        // A 2-worker request wakes exactly one pool thread with work; the
        // other six re-park without claiming anything.
        let slots_seen = Mutex::new(Vec::new());
        pool.run_stealing(2, 32, |slot, _| {
            slots_seen.lock().unwrap().push(slot);
        });
        assert!(slots_seen.into_inner().unwrap().iter().all(|&s| s < 2));
        assert_eq!(pool.stats().wakeups, wakeups + 1);
    }

    #[test]
    fn a_panicking_job_propagates_and_the_pool_recovers() {
        let mut pool = WorkerPool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_stealing(4, 16, |_, chunk| {
                if chunk == 7 {
                    panic!("chunk 7 exploded");
                }
            });
        }));
        let payload = result.expect_err("the job panic must reach the dispatcher");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("chunk 7 exploded"), "original payload survives: {message}");

        // The epoch closed cleanly: the same pool serves the next request.
        let ran = AtomicU32::new(0);
        pool.run_stealing(4, 16, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn drop_joins_all_workers() {
        let mut pool = WorkerPool::new();
        pool.run_stealing(8, 64, |_, _| {});
        drop(pool); // must not hang or leak threads
    }
}
