//! The shared morsel-driven query scheduler.
//!
//! A [`Scheduler`] owns a fixed set of persistent worker threads. Query
//! executions register through the admission gate
//! ([`Scheduler::begin_query`], bounding in-flight queries), then submit
//! each pipeline as a *task*: a [`Morsels`] dispenser plus a
//! `Fn(worker_id, range)` body. The pool schedules **worker time**, not
//! morsel counts, by the two rules Wagner, Kohn & Neumann apply in
//! Umbra ("Self-Tuning Query Scheduling for Analytical Workloads",
//! SIGMOD 2021):
//!
//! * **Slice-sized morsels.** A worker times every morsel it runs and
//!   adds its units and nanoseconds to the task. Each claim is sized
//!   from the task's own measured rate to take about [`SLICE`] of
//!   worker time, capped by the dispenser's morsel size; a task's first
//!   claim, made before any rate is known, is a probe of a sixteenth
//!   of that size. So a Volcano morsel holds a worker about as long as
//!   a Typer one, and a light query waits about one slice for a worker,
//!   not one heavy morsel.
//! * **Least attained service.** Of the tasks a worker may claim from,
//!   it serves the one whose query has so far received the least
//!   worker time divided by its priority: a query of priority *p* gets
//!   *p* times the time of a priority-1 query it runs beside. Ties go
//!   to a cursor that rotates past every served task. A query that has
//!   waited `STARVE_AFTER` (eight slices) since it was last served is
//!   served next whatever its time, so a long query keeps a fixed share
//!   of a worker while short queries keep arriving.
//!
//! Morsels from concurrently running queries thus interleave slice by
//! slice, and worker count stays fixed at the pool size no matter how
//! many clients submit.
//!
//! [`QueryRun::run_task`] is the pipeline barrier: it returns only after
//! every morsel of the task has been executed, which is also what makes
//! the lifetime-erased body sound (see the safety comment there).
//!
//! Built on std threads, atomics, mutexes and condvars only — the
//! workspace stays dependency-free.

use crate::morsel::Morsels;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Priority a query runs at when nothing else is requested.
pub const DEFAULT_PRIORITY: usize = 1;
/// Upper bound for the per-query priority: the weight its attained
/// worker time is divided by when the pool chooses whom to serve.
pub const MAX_PRIORITY: usize = 16;

/// Worker time one claim is sized to take, from the task's measured
/// rate. The longest a query waits for a worker another query holds is
/// about one slice. Chosen by a sweep of 50, 100 and 250 µs on the
/// benchmark's `serve_mix` tail against `hash_heavy`'s Volcano time
/// (EXPERIMENTS.md, *Scheduling by worker time*).
pub const SLICE: Duration = Duration::from_micros(100);

/// A task's first claim, made before its rate is known, is this share
/// of its dispenser's morsel size (at least one unit).
const PROBE_SHARE: usize = 16;

/// How long a query with a claimable task may wait for one with less
/// attained service before it is served regardless: the starvation
/// bound. Eight slices, so a query that stays claimable gets about one
/// slice in nine of a worker, however short the other queries' claims.
const STARVE_AFTER: Duration = Duration::from_nanos(8 * SLICE.as_nanos() as u64);

/// Scheduler-side counters of one query execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Time spent blocked at the admission gate before the run started.
    pub admission_wait: Duration,
    /// Summed time from task submission to its first executed morsel.
    pub queue_wait: Duration,
    /// Pipelines submitted as pool tasks.
    pub tasks: u64,
    /// Morsels executed on pool workers.
    pub morsels: u64,
    /// Morsels a worker took from this query while previously serving a
    /// different query — cross-query task switches.
    pub steals: u64,
    /// Column-payload bytes the query's scans touched. Scans of encoded
    /// companions report the packed width, so this measures the actual
    /// bandwidth demand (Table 5 model), not the logical row count.
    pub bytes_scanned: u64,
}

impl RunStats {
    /// Morsels executed on pool workers (`morsels`, under the name the
    /// observability layer exports it as).
    pub fn morsels_executed(&self) -> u64 {
        self.morsels
    }

    /// [`RunStats::queue_wait`] in integer nanoseconds, the unit the
    /// query log and metrics registry record.
    pub fn queue_wait_ns(&self) -> u64 {
        self.queue_wait.as_nanos() as u64
    }

    /// [`RunStats::admission_wait`] in integer nanoseconds.
    pub fn admission_wait_ns(&self) -> u64 {
        self.admission_wait.as_nanos() as u64
    }
}

#[derive(Default)]
struct StatsCell {
    admission_wait_ns: AtomicU64,
    queue_wait_ns: AtomicU64,
    tasks: AtomicU64,
    morsels: AtomicU64,
    steals: AtomicU64,
    bytes_scanned: AtomicU64,
    /// Worker time the query's morsels took so far: its attained
    /// service. Only changed with the pool state lock held.
    attained_ns: AtomicU64,
    /// When the query last began to wait for a worker, in nanoseconds
    /// since the pool's epoch: its last claim, or the submission of its
    /// task. Only changed with the pool state lock held.
    waiting_since_ns: AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> RunStats {
        RunStats {
            // ORDERING: Relaxed — monotonic stats counters; snapshots
            // are approximate by design and publish no data.
            admission_wait: Duration::from_nanos(self.admission_wait_ns.load(Ordering::Relaxed)),
            queue_wait: Duration::from_nanos(self.queue_wait_ns.load(Ordering::Relaxed)),
            tasks: self.tasks.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
        }
    }
}

/// Lifetime-erased task body. Soundness: [`QueryRun::run_task`] blocks
/// until every execution of the body has finished, so the erased borrow
/// outlives all uses.
struct RawBody(*const (dyn Fn(usize, Range<usize>) + Sync));
// SAFETY: the pointee is `Sync` (shared execution from many workers is
// its contract) and is only dereferenced while `run_task` keeps the
// original reference alive.
unsafe impl Send for RawBody {}
unsafe impl Sync for RawBody {}

struct TaskState {
    morsels: Morsels,
    body: RawBody,
    /// Cap on workers executing this task concurrently (the query's
    /// effective degree of parallelism).
    max_workers: usize,
    priority: usize,
    /// Identifies the owning query run (for the steal counter).
    run_seq: u64,
    stats: Arc<StatsCell>,
    submitted: Instant,
    // All fields below are only mutated with the pool state lock held;
    // atomics keep them shareable through the `Arc` without unsafe.
    running: AtomicUsize,
    exhausted: AtomicBool,
    completed: AtomicBool,
    first_claim: AtomicBool,
    /// Units the task's finished morsels covered, and the worker time
    /// they took: its measured rate.
    units_done: AtomicU64,
    busy_ns: AtomicU64,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl TaskState {
    /// Units the next claim asks for: a [`SLICE`] at the measured rate,
    /// or the probe while no morsel has finished. The dispenser clamps
    /// it to `1..=morsel_size`.
    fn claim_size(&self) -> usize {
        let cap = self.morsels.morsel_size();
        // ORDERING: Relaxed — only changed with the state lock held,
        // which the caller holds.
        let (units, ns) = (
            self.units_done.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        );
        if units == 0 {
            return cap / PROBE_SHARE;
        }
        let sized = SLICE.as_nanos() * units as u128 / (ns as u128).max(1);
        sized.min(cap as u128) as usize
    }

    /// Whether a worker may claim from this task now (it is below its
    /// worker cap).
    fn claimable(&self) -> bool {
        // ORDERING: Relaxed — only changed with the state lock held,
        // which the caller holds.
        self.running.load(Ordering::Relaxed) < self.max_workers
    }
}

struct PoolState {
    /// Tasks that may still have morsels to hand out.
    tasks: Vec<Arc<TaskState>>,
    /// Where the scan for the least-served task starts, so ties rotate.
    cursor: usize,
    /// Workers parked on `work_cv`, so a finished morsel wakes one only
    /// when there is one to wake.
    idle: usize,
    /// The time base of every query's `waiting_since_ns`.
    epoch: Instant,
    inflight: usize,
    next_run_seq: u64,
    shutdown: bool,
}

impl PoolState {
    /// Nanoseconds since the pool's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The claimable task to serve next, with the time it was chosen:
    /// one whose query has waited [`STARVE_AFTER`] if any, else the
    /// least attained worker time ÷ priority; the first from the cursor
    /// among equals.
    fn pick(&self) -> Option<(usize, u64)> {
        let (n, now) = (self.tasks.len(), self.now_ns());
        (0..n)
            .map(|k| (self.cursor + k) % n)
            .filter(|&i| self.tasks[i].claimable())
            .min_by_key(|&i| {
                let t = &self.tasks[i];
                // ORDERING: Relaxed — only changed with the state lock
                // held, which the caller holds.
                let since = t.stats.waiting_since_ns.load(Ordering::Relaxed);
                let starved = now.saturating_sub(since) >= STARVE_AFTER.as_nanos() as u64;
                // ORDERING: as above — state lock held.
                let attained = t.stats.attained_ns.load(Ordering::Relaxed);
                (!starved, attained / t.priority as u64)
            })
            .map(|i| (i, now))
    }

    /// Record that `tasks[chosen]` was served at `now`: its query's wait
    /// restarts and the cursor moves past it.
    fn served(&mut self, chosen: usize, now: u64) {
        // ORDERING: Relaxed — only changed with the state lock held,
        // which the caller holds.
        self.tasks[chosen]
            .stats
            .waiting_since_ns
            .store(now, Ordering::Relaxed);
        self.cursor = chosen + 1;
    }
}

struct PoolInner {
    workers: usize,
    max_inflight: usize,
    state: Mutex<PoolState>,
    /// Workers wait here for runnable tasks.
    work_cv: Condvar,
    /// Submitters wait here for task completion.
    done_cv: Condvar,
    /// Queries wait here for admission.
    admit_cv: Condvar,
    /// Live worker-thread count (observability / leak tests).
    live: Arc<AtomicUsize>,
}

/// A persistent work pool + inter-query morsel scheduler. See the
/// module docs for the scheduling model.
pub struct Scheduler {
    inner: Arc<PoolInner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Pool with `workers` persistent threads (`0` normalizes to `1` —
    /// the degenerate-config clamp lives here, not at call sites) and
    /// the default admission bound of `4 × workers` in-flight queries.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self::with_limits(workers, 4 * workers)
    }

    /// Pool with an explicit admission bound (`max_inflight` is the
    /// number of concurrently *running* queries; further
    /// [`Scheduler::begin_query`] calls block until a slot frees).
    pub fn with_limits(workers: usize, max_inflight: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            workers,
            max_inflight: max_inflight.max(1),
            state: Mutex::new(PoolState {
                tasks: Vec::new(),
                cursor: 0,
                idle: 0,
                epoch: Instant::now(),
                inflight: 0,
                next_run_seq: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            admit_cv: Condvar::new(),
            live: Arc::new(AtomicUsize::new(0)),
        });
        let handles = (0..workers)
            .map(|w| {
                // Counted on the spawning side so `live_workers` equals
                // `workers` deterministically from construction on; each
                // worker decrements on exit.
                inner.live.fetch_add(1, Ordering::SeqCst);
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dbep-worker-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn pool worker")
            })
            .collect();
        Scheduler {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Fixed worker-thread count of this pool.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Admission bound on concurrently running queries.
    pub fn max_inflight(&self) -> usize {
        self.inner.max_inflight
    }

    /// Worker threads currently alive (== [`Scheduler::workers`] while
    /// the pool is up, `0` once dropped).
    pub fn live_workers(&self) -> usize {
        self.inner.live.load(Ordering::SeqCst)
    }

    /// Shareable handle onto the live-worker counter, usable after the
    /// scheduler itself is gone (shutdown/leak tests).
    pub fn live_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.inner.live)
    }

    /// Tasks (pipelines) currently queued or running on the pool — the
    /// instantaneous work-queue depth a metrics gauge samples.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().expect("pool state").tasks.len()
    }

    /// Query runs currently holding an admission slot.
    pub fn inflight(&self) -> usize {
        self.inner.state.lock().expect("pool state").inflight
    }

    /// Enter the admission gate: blocks while [`Scheduler::max_inflight`]
    /// queries are in flight, then registers a query run at `priority`
    /// (clamped to `1..=`[`MAX_PRIORITY`]; the weight its worker time is
    /// divided by, so higher = a larger share of the workers). The slot
    /// is released when the returned [`QueryRun`] drops.
    pub fn begin_query(&self, priority: usize) -> QueryRun {
        let t0 = Instant::now();
        let mut st = self.inner.state.lock().expect("pool state");
        while st.inflight >= self.inner.max_inflight && !st.shutdown {
            st = self.inner.admit_cv.wait(st).expect("pool state");
        }
        let shutdown = st.shutdown;
        if !shutdown {
            st.inflight += 1;
        }
        let run_seq = st.next_run_seq;
        st.next_run_seq += 1;
        // Panic only after releasing the lock so the mutex is not
        // poisoned for other waiters.
        drop(st);
        assert!(!shutdown, "begin_query on a shut-down scheduler");
        let stats = Arc::new(StatsCell::default());
        // ORDERING: Relaxed — stats counter, written before the cell is
        // shared and read only through snapshots.
        stats
            .admission_wait_ns
            .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        QueryRun {
            inner: Arc::clone(&self.inner),
            priority: priority.clamp(1, MAX_PRIORITY),
            run_seq,
            stats,
        }
    }

    /// Non-blocking admission: like [`Scheduler::begin_query`] but
    /// returns `None` immediately when [`Scheduler::max_inflight`]
    /// queries already hold slots, instead of parking the caller.
    ///
    /// This is the serving front door's backpressure primitive: a
    /// network server calls it per request and turns `None` into an
    /// explicit RETRY frame, so saturation surfaces to the client as a
    /// protocol fact rather than as unbounded server-side queueing.
    pub fn try_begin_query(&self, priority: usize) -> Option<QueryRun> {
        let mut st = self.inner.state.lock().expect("pool state");
        let shutdown = st.shutdown;
        if !shutdown {
            if st.inflight >= self.inner.max_inflight {
                return None;
            }
            st.inflight += 1;
        }
        let run_seq = st.next_run_seq;
        st.next_run_seq += 1;
        // Panic only after releasing the lock so the mutex is not
        // poisoned for other waiters.
        drop(st);
        assert!(!shutdown, "try_begin_query on a shut-down scheduler");
        Some(QueryRun {
            inner: Arc::clone(&self.inner),
            priority: priority.clamp(1, MAX_PRIORITY),
            run_seq,
            // Admission never waited: the stats cell starts at zero.
            stats: Arc::new(StatsCell::default()),
        })
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("pool state");
            st.shutdown = true;
        }
        // Wake everything: workers re-check the exit condition, and
        // threads parked at the admission gate fail fast instead of
        // hanging on a pool that will never admit them.
        self.inner.work_cv.notify_all();
        self.inner.admit_cv.notify_all();
        for h in self.handles.lock().expect("pool handles").drain(..) {
            let _ = h.join();
        }
    }
}

/// One admitted query execution: the handle pipelines are submitted
/// through, carrier of the priority knob and the per-run [`RunStats`].
/// Dropping it releases the admission slot.
pub struct QueryRun {
    inner: Arc<PoolInner>,
    priority: usize,
    run_seq: u64,
    stats: Arc<StatsCell>,
}

impl QueryRun {
    /// Worker-thread count of the pool this run executes on (the number
    /// of per-worker state slots a task body may be invoked with).
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// The priority this run's tasks are scheduled at: the weight its
    /// attained worker time is divided by (see the module docs).
    pub fn priority(&self) -> usize {
        self.priority
    }

    /// Scheduler counters accumulated by this run so far.
    pub fn stats(&self) -> RunStats {
        self.stats.snapshot()
    }

    /// Record `n` column-payload bytes touched by a scan. Called from
    /// the engines' pacing hooks; cheap enough for per-morsel use.
    #[inline]
    pub fn add_bytes(&self, n: u64) {
        // ORDERING: Relaxed — monotonic stats counter.
        self.stats.bytes_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Execute one pipeline: every morsel of `morsels` runs through
    /// `body(worker_id, range)` on the pool, at most `max_workers`
    /// workers at a time (clamped to the pool size). Returns when the
    /// last morsel has finished — the pipeline barrier.
    pub fn run_task(
        &self,
        morsels: Morsels,
        max_workers: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        if morsels.total() == 0 {
            return;
        }
        // ORDERING: Relaxed — monotonic stats counter.
        self.stats.tasks.fetch_add(1, Ordering::Relaxed);
        // SAFETY: we erase the body's lifetime to move it into the
        // worker-shared task; `run_task` blocks below until the task is
        // complete (every body invocation returned), so the reference
        // outlives every dereference on the workers.
        let body: *const (dyn Fn(usize, Range<usize>) + Sync) =
            unsafe { std::mem::transmute(body as *const (dyn Fn(usize, Range<usize>) + Sync)) };
        let task = Arc::new(TaskState {
            morsels,
            body: RawBody(body),
            max_workers: max_workers.clamp(1, self.inner.workers),
            priority: self.priority,
            run_seq: self.run_seq,
            stats: Arc::clone(&self.stats),
            submitted: Instant::now(),
            running: AtomicUsize::new(0),
            exhausted: AtomicBool::new(false),
            completed: AtomicBool::new(false),
            first_claim: AtomicBool::new(false),
            units_done: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut st = self.inner.state.lock().expect("pool state");
            // After shutdown the workers are (being) joined; enqueueing
            // would hang the barrier forever. Panic with the lock
            // released instead (no poisoning).
            let shutdown = st.shutdown;
            if !shutdown {
                // ORDERING: Relaxed — only changed with the state lock
                // held, which we hold.
                self.stats.waiting_since_ns.store(st.now_ns(), Ordering::Relaxed);
                st.tasks.push(Arc::clone(&task));
            }
            drop(st);
            assert!(!shutdown, "run_task on a shut-down scheduler");
        }
        self.inner.work_cv.notify_all();
        let mut st = self.inner.state.lock().expect("pool state");
        // ORDERING: Relaxed — `completed` is only ever set with the
        // state lock held (which we hold here); the mutex is the
        // happens-before edge for everything the task wrote.
        while !task.completed.load(Ordering::Relaxed) {
            st = self.inner.done_cv.wait(st).expect("pool state");
        }
        drop(st);
        let payload = task.panic.lock().expect("task panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for QueryRun {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock().expect("pool state");
        st.inflight -= 1;
        drop(st);
        self.inner.admit_cv.notify_one();
    }
}

/// Pick the task to serve ([`PoolState::pick`]) and claim a slice of
/// it. Runs with the state lock held. An exhausted task is retired from
/// the claimable set (and completed here if no morsel of it is still
/// running), and the pick is made again.
fn claim_next(inner: &PoolInner, st: &mut PoolState) -> Option<(Arc<TaskState>, Range<usize>)> {
    loop {
        let (i, now) = st.pick()?;
        let task = Arc::clone(&st.tasks[i]);
        // ORDERING: Relaxed everywhere in claim_next — the TaskState
        // flag/count atomics are read and written only with the state
        // lock held (we hold it), so the mutex orders them;
        // queue_wait_ns is a stats counter.
        match task.morsels.claim_up_to(task.claim_size()) {
            Some(r) => {
                st.served(i, now);
                // ORDERING: as above — state lock held.
                task.running.fetch_add(1, Ordering::Relaxed);
                // ORDERING: as above — state lock held; stats counter.
                if !task.first_claim.swap(true, Ordering::Relaxed) {
                    // ORDERING: Relaxed — monotonic stats counter.
                    task.stats
                        .queue_wait_ns
                        .fetch_add(task.submitted.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                return Some((task, r));
            }
            None => {
                // Retire the exhausted task; if nothing is mid-morsel it
                // is already complete.
                // ORDERING: as above — state lock held.
                task.exhausted.store(true, Ordering::Relaxed);
                st.tasks.swap_remove(i);
                // ORDERING: as above — state lock held.
                if task.running.load(Ordering::Relaxed) == 0 && !task.completed.swap(true, Ordering::Relaxed)
                {
                    inner.done_cv.notify_all();
                }
                if st.shutdown {
                    // Parked workers must re-check the (shutdown,
                    // tasks-empty) exit condition now that the
                    // claimable set shrank.
                    inner.work_cv.notify_all();
                }
            }
        }
    }
}

fn worker_loop(inner: &PoolInner, worker_id: usize) {
    // Last query run this worker executed a morsel for — switching away
    // from it counts as a steal on the query being switched to.
    let mut last_seq: Option<u64> = None;
    let mut st = inner.state.lock().expect("pool state");
    loop {
        match claim_next(inner, &mut st) {
            Some((task, range)) => {
                if last_seq.is_some_and(|s| s != task.run_seq) {
                    // ORDERING: Relaxed — monotonic stats counter.
                    task.stats.steals.fetch_add(1, Ordering::Relaxed);
                }
                last_seq = Some(task.run_seq);
                // ORDERING: Relaxed — monotonic stats counter.
                task.stats.morsels.fetch_add(1, Ordering::Relaxed);
                drop(st);
                let units = range.len() as u64;
                // SAFETY: the submitter blocks in `run_task` until this
                // task completes, keeping the erased body alive.
                let body = unsafe { &*task.body.0 };
                let t0 = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| body(worker_id, range)));
                let ns = t0.elapsed().as_nanos() as u64;
                st = inner.state.lock().expect("pool state");
                // ORDERING: Relaxed for every TaskState flag/count
                // atomic in this block, and for the query's attained
                // time — they are read and written only with the state
                // lock held (reacquired above), so the mutex is the
                // happens-before edge.
                task.units_done.fetch_add(units, Ordering::Relaxed);
                task.busy_ns.fetch_add(ns, Ordering::Relaxed);
                task.stats.attained_ns.fetch_add(ns, Ordering::Relaxed);
                let was_exhausted = task.exhausted.load(Ordering::Relaxed);
                if let Err(payload) = result {
                    *task.panic.lock().expect("task panic slot") = Some(payload);
                    // Poisoned task: stop handing out its morsels.
                    // ORDERING: as above — state lock held.
                    task.exhausted.store(true, Ordering::Relaxed);
                    st.tasks.retain(|t| !Arc::ptr_eq(t, &task));
                } else if !was_exhausted && task.morsels.is_exhausted() {
                    // Eager barrier release: the dispenser drained while
                    // we ran its last claimed morsel. Retire the task now
                    // instead of waiting for a future pick to reach it —
                    // otherwise the submitter could stay blocked
                    // behind other queries' long morsels with all of its
                    // own work already finished.
                    // ORDERING: as above — state lock held.
                    task.exhausted.store(true, Ordering::Relaxed);
                    st.tasks.retain(|t| !Arc::ptr_eq(t, &task));
                }
                // ORDERING: as above — state lock held.
                let prev = task.running.fetch_sub(1, Ordering::Relaxed);
                if task.exhausted.load(Ordering::Relaxed) {
                    if prev == 1 && !task.completed.swap(true, Ordering::Relaxed) {
                        inner.done_cv.notify_all();
                    }
                    if st.shutdown {
                        // Parked workers re-check the exit condition
                        // (the claimable set may just have emptied).
                        inner.work_cv.notify_all();
                    }
                } else if st.idle > 0 {
                    // This task dropped below its worker cap — another
                    // waiter may be able to pick it up now.
                    inner.work_cv.notify_one();
                }
            }
            None => {
                if st.shutdown && st.tasks.is_empty() {
                    break;
                }
                st.idle += 1;
                st = inner.work_cv.wait(st).expect("pool state");
                st.idle -= 1;
            }
        }
    }
    drop(st);
    inner.live.fetch_sub(1, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;
    use std::sync::Barrier;

    #[test]
    fn zero_workers_clamps_to_one() {
        let s = Scheduler::new(0);
        assert_eq!(s.workers(), 1);
        assert_eq!(s.live_workers(), 1);
    }

    /// Spin for `d` of wall time: a body whose cost per unit is known
    /// whatever the build (a sanitizer slows the loop, not the clock).
    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn pool_executes_every_morsel_exactly_once() {
        let s = Scheduler::new(4);
        let run = s.begin_query(DEFAULT_PRIORITY);
        let seen: Vec<AtomicUsize> = (0..100_000).map(|_| AtomicUsize::new(0)).collect();
        run.run_task(Morsels::with_size(100_000, 1024), 4, &|_, r| {
            for i in r {
                seen[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, c) in seen.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "tuple {i}");
        }
        let stats = run.stats();
        assert_eq!(stats.tasks, 1);
        // Claims are sized to a slice, capped at the dispenser's 1024:
        // at least as many morsels as fixed-size claims would make.
        assert!(stats.morsels >= 100_000usize.div_ceil(1024) as u64, "{stats:?}");
    }

    #[test]
    fn claims_start_with_the_probe_and_stay_within_slice_and_cap() {
        let s = Scheduler::new(1);
        let run = s.begin_query(DEFAULT_PRIORITY);
        let unit = Duration::from_micros(2);
        let claims = Mutex::new(Vec::new());
        run.run_task(Morsels::with_size(3_000, 1_000), 1, &|_, r| {
            spin(unit * r.len() as u32);
            claims.lock().unwrap().push(r);
        });
        let claims = claims.into_inner().unwrap();
        // One worker: claims run in order, and tile 0..3000 exactly.
        assert!(claims.windows(2).all(|w| w[0].end == w[1].start), "{claims:?}");
        assert_eq!((claims[0].start, claims.last().unwrap().end), (0, 3_000));
        assert_eq!(
            claims[0].len(),
            1_000 / PROBE_SHARE,
            "the first claim is the probe"
        );
        // Every unit takes at least `unit`, so the measured rate sizes
        // no later claim above one slice of them.
        let slice_units = (SLICE.as_nanos() / unit.as_nanos()) as usize;
        assert!(
            claims[1..].iter().all(|r| (1..=slice_units).contains(&r.len())),
            "{claims:?}"
        );
        assert_eq!(run.stats().morsels, claims.len() as u64);
        // A unit dispenser (join publish, partition merge) still hands
        // out one unit per claim.
        let run = s.begin_query(DEFAULT_PRIORITY);
        let ones = AtomicUsize::new(0);
        run.run_task(Morsels::with_size(50, 1), 1, &|_, r| {
            assert_eq!(r.len(), 1);
            ones.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!((ones.into_inner(), run.stats().morsels), (50, 50));
    }

    #[test]
    fn a_light_query_waits_about_a_slice_not_a_heavy_morsel() {
        // One worker, a heavy query of 4096 units at 20 µs each in one
        // dispenser: 82 ms, one morsel if claims were fixed-size. A
        // light query of ten units submitted once the heavy one is past
        // its probe must get the worker within about a slice.
        let s = Arc::new(Scheduler::new(1));
        let unit = Duration::from_micros(20);
        let done = Arc::new(AtomicUsize::new(0));
        let heavy = {
            let (s, done) = (Arc::clone(&s), Arc::clone(&done));
            std::thread::spawn(move || {
                let run = s.begin_query(DEFAULT_PRIORITY);
                run.run_task(Morsels::new(4096), 1, &|_, r| {
                    for _ in r {
                        spin(unit);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            })
        };
        while done.load(Ordering::Relaxed) < 2 * 4096 / PROBE_SHARE {
            std::thread::sleep(Duration::from_micros(100));
        }
        let run = s.begin_query(DEFAULT_PRIORITY);
        let t0 = Instant::now();
        run.run_task(Morsels::new(10), 1, &|_, r| spin(unit * r.len() as u32));
        let waited = t0.elapsed();
        // Own work 0.2 ms, one slice 0.1 ms; the heavy morsel would be
        // 70+ ms.
        assert!(waited < Duration::from_millis(25), "light query took {waited:?}");
        assert!(
            done.load(Ordering::Relaxed) < 4096,
            "the heavy query finished first: the test proves nothing"
        );
        heavy.join().unwrap();
    }

    #[test]
    fn a_long_query_keeps_a_share_while_short_ones_keep_arriving() {
        // One worker. A long query of 1000 units at 20 µs each, while two
        // threads submit short queries of ten units back to back. A
        // short's last unit waits until another short is queued (the
        // queue holds the long query, this short and that one), so some
        // short is always claimable, and each has less attained time
        // than the long query once that is past a short's length. Only
        // the starvation bound serves the long query then; it must finish
        // long before the shorts stop at their deadline.
        let s = Arc::new(Scheduler::new(1));
        let unit = Duration::from_micros(20);
        let stop = Arc::new(AtomicBool::new(false));
        let deadline = Instant::now() + Duration::from_secs(5);
        let shorts: Vec<_> = (0..2)
            .map(|_| {
                let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) && Instant::now() < deadline {
                        let run = s.begin_query(DEFAULT_PRIORITY);
                        run.run_task(Morsels::new(10), 1, &|_, r| {
                            spin(unit * r.len() as u32);
                            while r.end == 10
                                && s.queue_depth() < 3
                                && !stop.load(Ordering::SeqCst)
                                && Instant::now() < deadline
                            {
                                std::hint::spin_loop();
                            }
                        });
                    }
                })
            })
            .collect();
        let run = s.begin_query(DEFAULT_PRIORITY);
        let t0 = Instant::now();
        run.run_task(Morsels::new(1000), 1, &|_, r| spin(unit * r.len() as u32));
        let took = t0.elapsed();
        stop.store(true, Ordering::SeqCst);
        for t in shorts {
            t.join().unwrap();
        }
        // 20 ms of own work at a share of about one slice in nine:
        // about two tenths of a second.
        assert!(took < Duration::from_secs(1), "long query took {took:?}");
    }

    #[test]
    fn try_begin_query_refuses_when_saturated() {
        let s = Scheduler::with_limits(1, 2);
        let a = s.try_begin_query(DEFAULT_PRIORITY).expect("slot 1 free");
        let b = s.try_begin_query(DEFAULT_PRIORITY).expect("slot 2 free");
        assert_eq!(s.inflight(), 2);
        assert!(
            s.try_begin_query(DEFAULT_PRIORITY).is_none(),
            "gate is full: non-blocking admission must refuse"
        );
        drop(a);
        let c = s.try_begin_query(DEFAULT_PRIORITY).expect("slot freed by drop");
        assert_eq!(s.inflight(), 2);
        // Admitted runs execute exactly like blocking admissions.
        let hits = AtomicUsize::new(0);
        c.run_task(Morsels::with_size(100, 10), 1, &|_, r| {
            hits.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(c.stats().admission_wait_ns(), 0, "try admission never waits");
        drop((b, c));
        assert_eq!(s.inflight(), 0);
    }

    #[test]
    fn empty_task_returns_immediately() {
        let s = Scheduler::new(1);
        let run = s.begin_query(DEFAULT_PRIORITY);
        run.run_task(Morsels::new(0), 8, &|_, _| panic!("no morsels to run"));
        assert_eq!(run.stats().tasks, 0);
    }

    #[test]
    fn max_workers_bounds_task_concurrency() {
        let s = Scheduler::new(8);
        let run = s.begin_query(DEFAULT_PRIORITY);
        let active = AtomicI64::new(0);
        let peak = AtomicI64::new(0);
        run.run_task(Morsels::with_size(256, 1), 2, &|_, _| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200));
            active.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn concurrent_queries_interleave_on_one_worker() {
        // One worker, two queries whose execution windows must overlap:
        // serving the least attained time, the single worker switches
        // between the tasks instead of draining one first.
        let s = Arc::new(Scheduler::new(1));
        let barrier = Arc::new(Barrier::new(2));
        let order = Arc::new(Mutex::new(Vec::<usize>::new()));
        let mut joins = Vec::new();
        for q in 0..2usize {
            let s = Arc::clone(&s);
            let barrier = Arc::clone(&barrier);
            let order = Arc::clone(&order);
            joins.push(std::thread::spawn(move || {
                let run = s.begin_query(DEFAULT_PRIORITY);
                barrier.wait();
                run.run_task(Morsels::with_size(40, 1), 1, &|_, _| {
                    order.lock().unwrap().push(q);
                    std::thread::sleep(Duration::from_millis(1));
                });
                run.stats()
            }));
        }
        let stats: Vec<RunStats> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 80);
        let first_1 = order.iter().position(|&q| q == 1).unwrap();
        let last_0 = order.iter().rposition(|&q| q == 0).unwrap();
        let first_0 = order.iter().position(|&q| q == 0).unwrap();
        let last_1 = order.iter().rposition(|&q| q == 1).unwrap();
        assert!(
            first_1 < last_0 && first_0 < last_1,
            "queries did not interleave: {order:?}"
        );
        // The worker switched between queries, so steals were recorded.
        assert!(stats.iter().map(|s| s.steals).sum::<u64>() > 0);
        assert_eq!(stats.iter().map(|s| s.morsels).sum::<u64>(), 80);
    }

    #[test]
    fn priority_weights_worker_time() {
        // Equal-length queries on one worker: the priority-4 query gets
        // four times the worker time of the priority-1 query that
        // started alongside it, so it must finish first.
        let s = Arc::new(Scheduler::new(1));
        let started_high = Arc::new(AtomicBool::new(false));
        let done = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let mut joins = Vec::new();
        {
            let (s, started, done) = (Arc::clone(&s), Arc::clone(&started_high), Arc::clone(&done));
            joins.push(std::thread::spawn(move || {
                let run = s.begin_query(4);
                run.run_task(Morsels::with_size(60, 1), 1, &|_, _| {
                    started.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(500));
                });
                done.lock().unwrap().push("high");
            }));
        }
        {
            let (s, started, done) = (Arc::clone(&s), started_high, Arc::clone(&done));
            joins.push(std::thread::spawn(move || {
                // Submit only once the high-priority task is running, so
                // both are concurrently schedulable from then on.
                while !started.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let run = s.begin_query(1);
                run.run_task(Morsels::with_size(60, 1), 1, &|_, _| {
                    std::thread::sleep(Duration::from_micros(500));
                });
                done.lock().unwrap().push("low");
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(*done.lock().unwrap(), vec!["high", "low"]);
    }

    #[test]
    fn admission_gate_bounds_inflight_queries() {
        let s = Arc::new(Scheduler::with_limits(1, 1));
        let first = s.begin_query(DEFAULT_PRIORITY);
        let admitted = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (s, admitted) = (Arc::clone(&s), Arc::clone(&admitted));
            std::thread::spawn(move || {
                let run = s.begin_query(DEFAULT_PRIORITY);
                admitted.store(true, Ordering::SeqCst);
                assert!(run.stats().admission_wait > Duration::ZERO);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !admitted.load(Ordering::SeqCst),
            "second query admitted past the gate"
        );
        drop(first);
        waiter.join().unwrap();
        assert!(admitted.load(Ordering::SeqCst));
    }

    #[test]
    fn drop_while_task_in_flight_drains_and_joins() {
        // Regression: a worker parked on work_cv during shutdown must be
        // re-woken when the busy worker completes the final task, or
        // Scheduler::drop joins forever. The QueryRun deliberately only
        // holds Arc<PoolInner>, so dropping the Scheduler mid-run is
        // possible; the run must still complete.
        let s = Scheduler::new(2);
        let live = s.live_counter();
        let run = s.begin_query(DEFAULT_PRIORITY);
        let executed = Arc::new(AtomicUsize::new(0));
        let submitter = {
            let executed = Arc::clone(&executed);
            std::thread::spawn(move || {
                // max_workers = 1 keeps the second worker idle (parked).
                run.run_task(Morsels::with_size(6, 1), 1, &|_, _| {
                    std::thread::sleep(Duration::from_millis(10));
                    executed.fetch_add(1, Ordering::SeqCst);
                });
            })
        };
        std::thread::sleep(Duration::from_millis(15)); // task is mid-flight
        drop(s); // must drain the task, wake the parked worker, and join
        submitter.join().unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), 6);
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn run_task_after_scheduler_drop_panics_cleanly() {
        // A QueryRun holds Arc<PoolInner>, not the Scheduler itself, so
        // it can outlive the pool. Submitting to the shut-down pool must
        // fail loudly (the workers are gone — the barrier would hang
        // forever) without poisoning the state mutex.
        let s = Scheduler::new(1);
        let run = s.begin_query(DEFAULT_PRIORITY);
        drop(s);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run.run_task(Morsels::with_size(4, 1), 1, &|_, _| {});
        }));
        assert!(result.is_err(), "run_task on a dead pool must panic, not hang");
        // The mutex must not be poisoned: releasing the admission slot
        // (QueryRun::drop) still works.
        drop(run);
    }

    #[test]
    fn drained_task_releases_its_barrier_before_other_queries_finish() {
        // Regression: query A's barrier must release as soon as A's last
        // morsel finishes, even while query B still has long morsels
        // queued — not when a later claim happens to reach A.
        let s = Arc::new(Scheduler::new(1));
        let b_started = Arc::new(AtomicBool::new(false));
        let b = {
            let (s, b_started) = (Arc::clone(&s), Arc::clone(&b_started));
            std::thread::spawn(move || {
                let run = s.begin_query(DEFAULT_PRIORITY);
                run.run_task(Morsels::with_size(5, 1), 1, &|_, _| {
                    b_started.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(100));
                });
            })
        };
        while !b_started.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        // B occupies the only worker; A's single tiny morsel runs as
        // soon as B's current one ends and must return right after it.
        let run = s.begin_query(DEFAULT_PRIORITY);
        let t0 = Instant::now();
        run.run_task(Morsels::with_size(1, 1), 1, &|_, _| {});
        let a_elapsed = t0.elapsed();
        assert!(
            a_elapsed < Duration::from_millis(300),
            "A waited {a_elapsed:?} — barrier held hostage by B's morsels"
        );
        b.join().unwrap();
    }

    #[test]
    fn workers_join_on_drop() {
        let s = Scheduler::new(3);
        let live = s.live_counter();
        assert_eq!(live.load(Ordering::SeqCst), 3);
        let run = s.begin_query(DEFAULT_PRIORITY);
        let sum = AtomicI64::new(0);
        run.run_task(Morsels::with_size(10_000, 64), 3, &|_, r| {
            sum.fetch_add(r.len() as i64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10_000);
        drop(run);
        drop(s);
        assert_eq!(live.load(Ordering::SeqCst), 0, "worker threads leaked past drop");
    }

    #[test]
    fn body_panic_propagates_to_submitter() {
        let s = Scheduler::new(2);
        let run = s.begin_query(DEFAULT_PRIORITY);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run.run_task(Morsels::with_size(8, 1), 2, &|_, r| {
                if r.start == 3 {
                    panic!("boom at morsel 3");
                }
            });
        }));
        assert!(result.is_err(), "worker panic must surface at the barrier");
        // The pool survives and runs subsequent tasks.
        let count = AtomicI64::new(0);
        run.run_task(Morsels::with_size(4, 1), 2, &|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }
}
