//! Persistent self-scheduling thread pool for the BLASYS flow.
//!
//! The flow's hot loops — per-window profiling and the per-step
//! candidate sweep of the greedy exploration — are embarrassingly
//! parallel: every task reads a shared immutable model and writes only
//! its own result slot. This crate provides the minimal execution
//! layer they need on plain `std` threads (the build environment has
//! no access to crates.io, so no `rayon`):
//!
//! * [`Parallelism`] — the user-facing knob (`Serial`, `Threads(n)`,
//!   `Auto`), threaded through `FlowConfig` and readable from the
//!   `BLASYS_THREADS` environment variable;
//! * [`Pool`] — worker threads spawned once and reused by every
//!   fork-join. [`Pool::run`] maps over task indices `0..n` and
//!   returns results **in task order** regardless of which worker
//!   executed what; [`Pool::run_states`] lends worker `w` the
//!   caller-owned `states[w]`, so scratch state survives *between*
//!   fork-joins (the Monte-Carlo probe overlay reused across every
//!   exploration step). A one-worker pool spawns no threads and runs
//!   inline on the caller.
//! * [`Pool::shared`] — the process-wide pool for a worker count,
//!   created on first use and kept for the life of the process. Flow
//!   sessions, `blasys batch` and the SALSA baseline all borrow it, so
//!   a process runs one set of workers per worker count however many
//!   sessions it holds ([`Pool::serial`] is `Pool::shared(1)`).
//! * [`PoolMetrics`] — per-worker scheduling counters that belong to a
//!   *job*, not to a pool: [`Pool::run_states`] records one
//!   job's tasks into the caller's registry, so sessions sharing a
//!   pool keep their counters apart.
//!
//! # Scheduling
//!
//! Each job has one shared task cursor: a free worker claims the next
//! task index with one atomic increment and runs it, so short tasks
//! flow to whichever worker is free when task sizes are uneven
//! (decomposition windows and probe cones vary wildly in cost).
//!
//! Tasks are handed out **in index order**: no task `t` is claimed
//! before every task `< t` has been. Callers that want some tasks to
//! start first (the exploration sweep's best guesses) put them at the
//! lowest indices. Besides result order, this is the only scheduling
//! property callers may rely on.
//!
//! # Panics and nesting
//!
//! A panic in any task aborts the remaining work and is re-raised on
//! the caller's thread with its original payload; the workers survive
//! it. Nested *parallel* runs are rejected (a task starting another
//! parallel run would oversubscribe or deadlock the pool); running on
//! a serial pool inside a worker is always allowed.
//!
//! # Concurrent submitters
//!
//! A pool runs one job at a time. Threads that submit to a busy pool
//! wait for the job slot and then run their own job on every worker
//! (a submitter only waits; it runs no task itself); each gets its own
//! results, and a task panic re-raises only on the submitter whose job
//! it belongs to.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use blasys_obs::{Counter, Gauge, Registry};

/// How much parallelism a flow phase may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded execution on the calling thread (no pool).
    Serial,
    /// A fixed number of worker threads (`Threads(1)` ≡ `Serial`).
    Threads(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The worker count this setting resolves to on this machine.
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Parse a user-facing spelling, shared by the `BLASYS_THREADS`
    /// environment variable and the experiment binaries' `--threads`
    /// flag: `auto` or `0` → `Auto`, `1` or anything unparseable →
    /// `Serial`, `n` → `Threads(n)`.
    pub fn parse(s: &str) -> Parallelism {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "0" => Parallelism::Auto,
            s => match s.parse::<usize>() {
                Ok(1) | Err(_) => Parallelism::Serial,
                Ok(n) => Parallelism::Threads(n),
            },
        }
    }

    /// Read the setting from the `BLASYS_THREADS` environment
    /// variable via [`Parallelism::parse`] (unset → `Serial`).
    pub fn from_env() -> Parallelism {
        match std::env::var("BLASYS_THREADS") {
            Ok(s) => Parallelism::parse(&s),
            Err(_) => Parallelism::Serial,
        }
    }
}

/// The default honors `BLASYS_THREADS` (see [`Parallelism::from_env`])
/// so the whole test suite and every flow exercise the parallel path
/// when CI sets the variable. Results are bit-identical either way.
impl Default for Parallelism {
    fn default() -> Parallelism {
        Parallelism::from_env()
    }
}

thread_local! {
    /// Set while the current thread is a pool worker: parallel
    /// scopes must not nest.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the calling thread is currently a pool worker.
fn in_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

// ---------------------------------------------------------------------------
// Persistent pool
// ---------------------------------------------------------------------------

/// Per-worker scheduling counters and a queue-depth gauge for the jobs
/// one owner submits, registered in a [`blasys_obs::Registry`].
///
/// These are **wall-clock observations**, not flow data: how many
/// tasks each worker executed and how long it spent inside tasks
/// depend on thread timing and vary run to run (unlike the flow's
/// deterministic engine counters). They travel with each job
/// ([`Pool::run_states`]), so owners sharing one pool each
/// see only their own tasks.
#[derive(Debug)]
pub struct PoolMetrics {
    /// `tasks[w]`: tasks worker `w` executed.
    tasks: Vec<Arc<Counter>>,
    /// `busy_ns[w]`: wall-clock nanoseconds worker `w` spent inside
    /// tasks (summed per job, added once when the worker leaves it).
    busy_ns: Vec<Arc<Counter>>,
    /// Tasks of the jobs submitted and not yet finished, waiting for
    /// the pool included (0 when none is); every owner that shares
    /// the registry adds to it.
    queue_depth: Arc<Gauge>,
}

impl PoolMetrics {
    /// Register `pool.worker<w>.{tasks,busy_ns}` counters
    /// for `workers` workers plus the `pool.queue_depth` gauge.
    pub fn register(registry: &Registry, workers: usize) -> PoolMetrics {
        PoolMetrics {
            tasks: (0..workers)
                .map(|w| registry.counter(&format!("pool.worker{w}.tasks")))
                .collect(),
            busy_ns: (0..workers)
                .map(|w| registry.counter(&format!("pool.worker{w}.busy_ns")))
                .collect(),
            queue_depth: registry.gauge("pool.queue_depth"),
        }
    }
}

/// A type-erased fork-join job: `call(ctx, worker_index)` claims and
/// runs the job's tasks until none is left. The pointer is only
/// dereferenced while the submitting call blocks in
/// [`Pool::run_states`], so the borrowed closure/state/result storage
/// it points at is always live.
#[derive(Clone, Copy)]
struct Job {
    call: unsafe fn(*const (), usize),
    ctx: *const (),
}

// SAFETY: the ctx pointer crosses into worker threads, but the data it
// points at is a `JobCtx` whose fields are constrained to `Send`/`Sync`
// types by the `run_states` signature, and the submitter blocks until
// every worker is done with the job before the storage goes away.
unsafe impl Send for Job {}

struct JobSlot {
    /// Monotone job counter; workers run each epoch exactly once.
    epoch: u64,
    /// The in-flight job, cleared when the last worker finishes it.
    job: Option<Job>,
    /// Number of workers still active on the current job.
    remaining: usize,
    shutdown: bool,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    /// Idle workers wait here for a new job (or shutdown).
    job_ready: Condvar,
    /// Submitters wait here for job completion (or a free slot).
    job_done: Condvar,
}

/// Everything one fork-join job shares with the workers, borrowed from
/// the submitting call's stack frame.
struct JobCtx<'a, S, R, F> {
    f: &'a F,
    /// `states[w]` for worker `w < active`; workers never alias.
    states: *mut S,
    /// One slot per task; each task index is written exactly once.
    results: *mut Option<R>,
    /// The next unclaimed task index; `>= tasks` once all are claimed.
    next: &'a AtomicUsize,
    tasks: usize,
    /// A worker with index `>= active` does nothing.
    active: usize,
    abort: &'a AtomicBool,
    panic_payload: &'a Mutex<Option<Box<dyn std::any::Any + Send>>>,
    metrics: Option<&'a PoolMetrics>,
}

/// The erased worker entry point for one job. Catches panics itself so
/// the persistent worker thread survives them.
unsafe fn job_entry<S, R, F>(ctx: *const (), w: usize)
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let ctx = &*(ctx as *const JobCtx<'_, S, R, F>);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if w >= ctx.active {
            return;
        }
        // SAFETY: worker `w` is the only reader/writer of `states[w]`,
        // and the submitter holds the `&mut [S]` borrow for the whole
        // job, so no other access exists.
        let state = &mut *ctx.states.add(w);
        let mut busy_ns = 0u64;
        while !ctx.abort.load(Ordering::Relaxed) {
            // Relaxed: the cursor publishes no data; results reach the
            // submitter through the job slot's mutex.
            let task = ctx.next.fetch_add(1, Ordering::Relaxed);
            if task >= ctx.tasks {
                break;
            }
            if let Some(m) = ctx.metrics {
                m.tasks[w].inc();
            }
            let start = ctx.metrics.map(|_| Instant::now());
            let r = (ctx.f)(state, task);
            if let Some(start) = start {
                busy_ns += start.elapsed().as_nanos() as u64;
            }
            // SAFETY: the cursor dispenses each task index exactly once,
            // so this slot is written by exactly one worker.
            *ctx.results.add(task) = Some(r);
        }
        if let Some(m) = ctx.metrics {
            m.busy_ns[w].add(busy_ns);
        }
    }));
    if let Err(e) = outcome {
        ctx.abort.store(true, Ordering::Relaxed);
        ctx.panic_payload.lock().unwrap().get_or_insert(e);
    }
}

fn pool_worker(shared: &PoolShared, w: usize) {
    IN_WORKER.with(|g| g.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                match slot.job {
                    Some(job) if slot.epoch != seen => {
                        seen = slot.epoch;
                        break job;
                    }
                    _ => slot = shared.job_ready.wait(slot).unwrap(),
                }
            }
        };
        // SAFETY: the submitter blocks until `remaining` reaches zero,
        // which we only signal after this call returns, so the ctx and
        // everything it borrows outlive the dereference. `job_entry`
        // catches panics internally and never unwinds.
        unsafe { (job.call)(job.ctx, w) };
        let mut slot = shared.slot.lock().unwrap();
        slot.remaining -= 1;
        if slot.remaining == 0 {
            slot.job = None;
            shared.job_done.notify_all();
        }
    }
}

/// A persistent fork-join pool: worker threads are created **once**
/// and reused across any number of [`Pool::run`] / [`Pool::run_states`]
/// calls. Library code borrows the process-wide [`Pool::shared`] pool
/// for its worker count: a flow session drives its profiling and every
/// exploration sweep through it, and so does every other session with
/// the same count.
///
/// `Pool::new(n)` with `n <= 1` spawns no threads at all — every run
/// executes inline on the caller (the serial path).
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// Spawn a private pool with `threads` persistent workers (`<= 1`
    /// spawns none; runs execute inline on the caller). Its workers are
    /// joined when it drops; library code uses [`Pool::shared`].
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let handles = if threads >= 2 {
            (0..threads)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || pool_worker(&shared, w))
                })
                .collect()
        } else {
            Vec::new()
        };
        Pool {
            shared,
            handles,
            threads,
        }
    }

    /// The process-wide pool with `workers` workers (`<= 1` → the
    /// inline pool): spawned on the first call for that count and kept
    /// for the life of the process. Every caller asking for the same
    /// count gets the same pool; concurrent jobs on it take turns (see
    /// the [crate docs](crate#concurrent-submitters)).
    pub fn shared(workers: usize) -> &'static Pool {
        static POOLS: Mutex<BTreeMap<usize, &'static Pool>> = Mutex::new(BTreeMap::new());
        let workers = workers.max(1);
        let mut pools = POOLS.lock().unwrap_or_else(PoisonError::into_inner);
        pools
            .entry(workers)
            .or_insert_with(|| Box::leak(Box::new(Pool::new(workers))))
    }

    /// The shared one-worker pool ([`Pool::shared`]`(1)`): every run
    /// executes inline on the caller, so it is legal inside another
    /// pool's tasks.
    pub fn serial() -> &'static Pool {
        Pool::shared(1)
    }

    /// The worker count this pool resolves to (1 = inline execution).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(0..tasks)` on the pool, returning results in task order.
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic on the caller. Panics if a pool
    /// with more than one worker is run from inside a pool worker
    /// (nested parallel runs are rejected).
    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut states: Vec<()> = vec![(); self.threads.min(tasks.max(1))];
        self.run_states(tasks, &mut states, None, |(), i| f(i))
    }

    /// Like [`Pool::run`], but worker `w` borrows `states[w]` mutably
    /// for every task it executes. The states survive the call, so hot
    /// loops can hoist them out and reuse them across many fork-joins.
    /// `states` must hold at least `min(self.threads(), tasks)` entries
    /// (extras are unused).
    ///
    /// With `metrics`, the job's per-worker task counts and busy time
    /// are recorded there; a job that runs inline on the caller counts
    /// as worker 0's. With `None` the task loop skips all accounting
    /// behind one branch.
    ///
    /// # Panics
    ///
    /// Same contract as [`Pool::run`]; additionally panics if `states`
    /// has fewer entries than the active worker count, or if `metrics`
    /// was registered for fewer workers than that.
    pub fn run_states<S, R, F>(
        &self,
        tasks: usize,
        states: &mut [S],
        metrics: Option<&PoolMetrics>,
        f: F,
    ) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(&mut S, usize) -> R + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let active = self.threads.min(tasks);
        assert!(
            states.len() >= active,
            "Pool::run_states needs one state per worker ({} < {active})",
            states.len()
        );
        if let Some(m) = metrics {
            assert!(
                m.tasks.len() >= active,
                "PoolMetrics registered for {} workers, job uses {active}",
                m.tasks.len()
            );
        }
        if self.handles.is_empty() || active <= 1 {
            // Inline serial path; legal inside a worker.
            let state = &mut states[0];
            let start = Instant::now();
            let results = (0..tasks).map(|i| f(state, i)).collect();
            if let Some(m) = metrics {
                m.tasks[0].add(tasks as u64);
                m.busy_ns[0].add(start.elapsed().as_nanos() as u64);
            }
            return results;
        }
        assert!(
            !in_worker(),
            "nested blasys-par parallel scope: a pool task attempted to start \
             another parallel run (use the serial path for inner maps)"
        );

        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let mut results: Vec<Option<R>> = (0..tasks).map(|_| None).collect();

        let ctx = JobCtx {
            f: &f,
            states: states.as_mut_ptr(),
            results: results.as_mut_ptr(),
            next: &next,
            tasks,
            active,
            abort: &abort,
            panic_payload: &panic_payload,
            metrics,
        };
        if let Some(m) = metrics {
            m.queue_depth.add(tasks as i64);
        }

        {
            let mut slot = self.shared.slot.lock().unwrap();
            // Another thread may be mid-job on this pool; wait for the
            // slot to free before installing ours.
            while slot.job.is_some() {
                slot = self.shared.job_done.wait(slot).unwrap();
            }
            slot.epoch += 1;
            let my_epoch = slot.epoch;
            slot.remaining = self.handles.len();
            slot.job = Some(Job {
                call: job_entry::<S, R, F>,
                ctx: &ctx as *const JobCtx<'_, S, R, F> as *const (),
            });
            self.shared.job_ready.notify_all();
            // Our job is done when the slot is free again at our epoch
            // (a later submitter can only install after ours cleared).
            while !(slot.epoch > my_epoch || slot.job.is_none()) {
                slot = self.shared.job_done.wait(slot).unwrap();
            }
        }

        if let Some(m) = metrics {
            m.queue_depth.add(-(tasks as i64));
        }
        if let Some(payload) = panic_payload.lock().unwrap().take() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|r| r.expect("every task produced a result"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn results_are_in_task_order() {
        for par in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
            Parallelism::Auto,
        ] {
            let pool = Pool::shared(par.worker_count());
            for round in 0..3 {
                let got = pool.run(33, |i| i * i + round);
                let want: Vec<usize> = (0..33).map(|i| i * i + round).collect();
                assert_eq!(got, want, "{par:?} round {round}");
            }
        }
    }

    #[test]
    fn zero_tasks_and_more_workers_than_tasks() {
        assert_eq!(Pool::new(4).run(0, |i| i), Vec::<usize>::new());
        assert_eq!(Pool::new(8).run(2, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn uneven_task_sizes_go_to_idle_workers() {
        // Task 0 is huge — it blocks (bounded) until every small task
        // has completed, so the test is a handshake rather than a
        // timing race: while its worker is stuck, the other worker
        // must claim every small task for task 0 to ever see
        // `done == 15` before the timeout.
        const TASKS: usize = 16;
        let done = AtomicUsize::new(0);
        let ran_by: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        let results = Pool::new(2).run(TASKS, |i| {
            ran_by
                .lock()
                .unwrap()
                .push((i, std::thread::current().id()));
            if i == 0 {
                let start = std::time::Instant::now();
                while done.load(Ordering::Relaxed) < TASKS - 1
                    && start.elapsed() < Duration::from_secs(10)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                done.fetch_add(1, Ordering::Relaxed);
            }
            i
        });
        assert_eq!(results, (0..TASKS).collect::<Vec<_>>());
        let ran_by = ran_by.lock().unwrap();
        let threads: HashSet<ThreadId> = ran_by.iter().map(|&(_, t)| t).collect();
        // On a heavily loaded machine the second worker's thread may
        // only get scheduled after the first drained everything; the
        // distribution claim is meaningful (and deterministic) exactly
        // when both workers ran: task 0 is the first task claimed,
        // and it cannot return before all small tasks are done — so
        // the big-task worker must have executed no small task at all.
        if threads.len() == 2 {
            let big_thread = ran_by.iter().find(|&&(i, _)| i == 0).unwrap().1;
            let big_thread_small_tasks = ran_by
                .iter()
                .filter(|&&(i, t)| i != 0 && t == big_thread)
                .count();
            assert_eq!(
                big_thread_small_tasks, 0,
                "worker stuck on the big task ran small tasks; the idle \
                 worker should have claimed them all while it waited"
            );
        }
    }

    #[test]
    fn first_tasks_start_first() {
        // Tasks 0 and 1 each wait (bounded) until both have started,
        // so they hold both workers at once; no task >= 2 may have
        // started by then, because tasks are claimed in index order.
        // Neither returns before both have looked, so the other's
        // worker cannot claim task 2 in between.
        const TASKS: usize = 8;
        let started: Vec<AtomicBool> = (0..TASKS).map(|_| AtomicBool::new(false)).collect();
        let looked = AtomicUsize::new(0);
        let early_starts = AtomicUsize::new(0);
        let wait_until = |cond: &dyn Fn() -> bool| {
            let start = std::time::Instant::now();
            while !cond() && start.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        Pool::new(2).run(TASKS, |i| {
            started[i].store(true, Ordering::SeqCst);
            if i < 2 {
                wait_until(&|| started[..2].iter().all(|s| s.load(Ordering::SeqCst)));
                let early = started[2..]
                    .iter()
                    .filter(|s| s.load(Ordering::SeqCst))
                    .count();
                early_starts.fetch_max(early, Ordering::SeqCst);
                looked.fetch_add(1, Ordering::SeqCst);
                wait_until(&|| looked.load(Ordering::SeqCst) == 2);
            }
        });
        assert_eq!(
            early_starts.load(Ordering::SeqCst),
            0,
            "tasks >= 2 started while tasks 0 and 1 held both workers"
        );
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        // Each worker's state counts the tasks it executed: the states
        // sum to the task count, and at least one worker saw a running
        // count > 1, proving one state serves all of a worker's tasks.
        let mut states = vec![0usize; 3];
        let counts = Pool::new(3).run_states(64, &mut states, None, |count, _i| {
            *count += 1;
            *count
        });
        assert_eq!(counts.len(), 64);
        assert!(counts.iter().any(|&c| c > 1));
        assert_eq!(states.iter().sum::<usize>(), 64);
    }

    #[test]
    fn caller_owned_states_survive_across_calls() {
        // The states belong to the caller, not to a pool: one vector
        // carries over between the inline pool and a threaded one.
        let mut states = vec![0usize; 3];
        let threaded = Pool::new(3);
        for (round, pool) in [Pool::serial(), &threaded, Pool::serial(), &threaded]
            .into_iter()
            .enumerate()
        {
            let got = pool.run_states(30, &mut states, None, |st, i| {
                *st += 1;
                i
            });
            assert_eq!(got, (0..30).collect::<Vec<_>>(), "round {round}");
            assert_eq!(states.iter().sum::<usize>(), 30 * (round + 1));
        }
    }

    #[test]
    fn too_few_states_is_rejected() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut states = vec![0usize; 1];
            Pool::new(4).run_states(16, &mut states, None, |st, i| {
                *st += 1;
                i
            })
        }));
        assert!(caught.is_err(), "one state cannot serve four workers");
    }

    #[test]
    fn panics_propagate_with_their_payload() {
        // Both the threaded and the inline path re-raise the task's own
        // payload, formatted `String`s included.
        for pool in [&Pool::new(2), Pool::serial()] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run(8, |i| {
                    if i == 5 {
                        panic!("task {i} exploded");
                    }
                    i
                })
            }));
            let payload = caught.expect_err("panic must propagate");
            let msg = panic_message(payload.as_ref());
            assert!(msg.contains("task 5 exploded"), "payload: {msg}");
        }
    }

    #[test]
    fn nested_parallel_scopes_are_rejected() {
        // An inner parallel run on a *different* pool, from inside a
        // worker: rejected.
        let outer = Pool::new(2);
        let inner = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            outer.run(4, |i| inner.run(4, |j| i + j))
        }));
        let payload = caught.expect_err("nested parallel scope must panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("nested"), "payload: {msg}");
    }

    #[test]
    fn nested_serial_maps_are_allowed() {
        let got = Pool::new(2).run(4, |i| Pool::serial().run(3, |j| i * 10 + j));
        assert_eq!(got[2], vec![20, 21, 22]);
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Parallelism::Serial.worker_count(), 1);
        assert_eq!(Parallelism::Threads(7).worker_count(), 7);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert!(Parallelism::Auto.worker_count() >= 1);
        assert_eq!(Pool::shared(3).threads(), 3);
        assert_eq!(Pool::serial().threads(), 1);
    }

    #[test]
    fn pool_states_survive_between_jobs() {
        let pool = Pool::new(3);
        let mut states = vec![0usize; 3];
        for round in 1..=4 {
            let got = pool.run_states(30, &mut states, None, |st, i| {
                *st += 1;
                i
            });
            assert_eq!(got, (0..30).collect::<Vec<_>>(), "round {round}");
            assert_eq!(states.iter().sum::<usize>(), 30 * round);
        }
    }

    #[test]
    fn pool_serial_runs_inline_without_threads() {
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.run(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn pool_panics_propagate_and_workers_survive() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("pool task three exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("pool task three exploded"), "payload: {msg}");
        // The workers survived the panic and serve the next job.
        assert_eq!(pool.run(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_rejects_nested_parallel_runs() {
        // A task re-entering its *own* pool is rejected before it could
        // wait on the job slot it is holding.
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| pool.run(4, move |j| i + j))
        }));
        let payload = caught.expect_err("nested parallel scope must panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("nested"), "payload: {msg}");
        // The pool still serves the next job.
        assert_eq!(pool.run(3, |i| i * 2), vec![0, 2, 4]);
    }

    /// `run` with every job's tasks recorded into `metrics`.
    fn run_metered(pool: &Pool, tasks: usize, metrics: &PoolMetrics) -> Vec<usize> {
        let mut states = vec![(); pool.threads()];
        pool.run_states(tasks, &mut states, Some(metrics), |(), i| i)
    }

    #[test]
    fn pool_metrics_account_every_task() {
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry, 3);
        let pool = Pool::new(3);
        for _ in 0..4 {
            let got = run_metered(&pool, 25, &metrics);
            assert_eq!(got, (0..25).collect::<Vec<_>>());
        }
        // A one-task job runs inline and counts as worker 0's.
        assert_eq!(run_metered(&pool, 1, &metrics), vec![0]);
        let snap = registry.snapshot();
        let executed: u64 = (0..3)
            .map(|w| snap.counter(&format!("pool.worker{w}.tasks")).unwrap())
            .sum();
        assert_eq!(executed, 101, "every task is counted exactly once");
        // The gauge is reset after the last job completes.
        let depth = snap
            .entries
            .iter()
            .find(|e| e.name == "pool.queue_depth")
            .unwrap();
        assert_eq!(depth.value, blasys_obs::SnapshotValue::Gauge(0));
    }

    #[test]
    fn pool_metrics_busy_time_is_bounded_by_the_job() {
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry, 2);
        let pool = Pool::new(2);
        let start = std::time::Instant::now();
        let mut states = vec![(); 2];
        pool.run_states(8, &mut states, Some(&metrics), |(), i| {
            let spin = std::time::Instant::now();
            while spin.elapsed() < std::time::Duration::from_millis(2) {
                std::hint::black_box(i);
            }
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let snap = registry.snapshot();
        let mut ran = 0;
        for w in 0..2 {
            let tasks = snap.counter(&format!("pool.worker{w}.tasks")).unwrap();
            let busy = snap.counter(&format!("pool.worker{w}.busy_ns")).unwrap();
            if tasks > 0 {
                ran += 1;
                assert!(
                    busy > 0,
                    "worker {w} ran {tasks} tasks but reports no busy time"
                );
            }
            assert!(
                busy <= wall_ns,
                "worker {w}: busy {busy} ns > job wall {wall_ns} ns"
            );
        }
        assert!(ran > 0, "some worker ran the tasks");
    }

    #[test]
    fn shared_pools_are_one_per_worker_count() {
        assert!(std::ptr::eq(Pool::shared(4), Pool::shared(4)));
        assert!(!std::ptr::eq(Pool::shared(2), Pool::shared(4)));
        assert!(std::ptr::eq(Pool::serial(), Pool::shared(1)));
        assert!(std::ptr::eq(Pool::shared(0), Pool::shared(1)));
        assert_eq!(Pool::shared(4).threads(), 4);
    }

    #[test]
    fn queue_depth_sums_the_jobs_sharing_a_registry() {
        // Job A's first task holds the pool until job B, submitted on
        // another thread with the same registry's metrics, is waiting
        // for the slot: the gauge then counts both jobs' tasks.
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry, 2);
        let depth = registry.gauge("pool.queue_depth");
        let pool = Pool::new(2);
        let wait_until = |cond: &dyn Fn() -> bool| {
            let start = std::time::Instant::now();
            while !cond() && start.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let started = AtomicBool::new(false);
        let seen = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let mut states = vec![(); 2];
                pool.run_states(5, &mut states, Some(&metrics), |(), i| {
                    if i == 0 {
                        started.store(true, Ordering::SeqCst);
                        wait_until(&|| depth.get() == 8);
                    }
                    depth.get()
                })[0]
            });
            wait_until(&|| started.load(Ordering::SeqCst));
            assert_eq!(run_metered(&pool, 3, &metrics), vec![0, 1, 2]);
            a.join().unwrap()
        });
        assert_eq!(seen, 8, "job A saw its 5 tasks plus job B's 3");
        assert_eq!(depth.get(), 0, "both jobs finished");
    }

    /// A task of uneven cost: task `i` of submitter `s` spins for
    /// `(i * 7 + s) % 5` × 50 µs.
    fn uneven(s: usize, i: usize) -> usize {
        let spin = std::time::Instant::now();
        let cost = Duration::from_micros(50 * ((i * 7 + s) % 5) as u64);
        while spin.elapsed() < cost {
            std::hint::black_box(i);
        }
        s * 1000 + i
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        // Several threads submit uneven jobs of different sizes to one
        // shared pool at once. Each gets its own results in task order,
        // its worker states see exactly its own tasks, and its metrics
        // count exactly its own tasks.
        let pool = Pool::shared(4);
        std::thread::scope(|scope| {
            for s in 0..4 {
                scope.spawn(move || {
                    let registry = Registry::new();
                    let metrics = PoolMetrics::register(&registry, 4);
                    let mut states = vec![0usize; 4];
                    let mut submitted = 0;
                    for round in 0..6 {
                        let tasks = 5 + 9 * s + round;
                        let got = pool.run_states(tasks, &mut states, Some(&metrics), |st, i| {
                            *st += 1;
                            uneven(s, i)
                        });
                        let want: Vec<usize> = (0..tasks).map(|i| s * 1000 + i).collect();
                        assert_eq!(got, want, "submitter {s} round {round}");
                        submitted += tasks;
                        assert_eq!(states.iter().sum::<usize>(), submitted);
                    }
                    let snap = registry.snapshot();
                    let counted: u64 = (0..4)
                        .map(|w| snap.counter(&format!("pool.worker{w}.tasks")).unwrap())
                        .sum();
                    assert_eq!(counted, submitted as u64, "submitter {s}");
                });
            }
        });
    }

    #[test]
    fn a_task_panic_reraises_only_on_its_submitter() {
        let pool = Pool::shared(4);
        let outcomes: Vec<Result<Vec<usize>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|s| {
                    scope.spawn(move || {
                        let mut last = Ok(Vec::new());
                        for round in 0..4 {
                            last = catch_unwind(AssertUnwindSafe(|| {
                                pool.run(24, |i| {
                                    if s == 2 && round == 3 && i == 11 {
                                        panic!("submitter {s} task {i} exploded");
                                    }
                                    uneven(s, i)
                                })
                            }))
                            .map_err(|p| panic_message(p.as_ref()));
                        }
                        last
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (s, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Err(msg) => {
                    assert_eq!(s, 2, "submitter {s} saw a foreign panic: {msg}");
                    assert!(msg.contains("submitter 2 task 11 exploded"), "{msg}");
                }
                Ok(got) => {
                    assert_ne!(s, 2, "the panicking job returned results");
                    assert_eq!(got, (0..24).map(|i| s * 1000 + i).collect::<Vec<_>>());
                }
            }
        }
        // The shared workers survived and serve the next job.
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn from_env_parses_the_knob() {
        // This is the only test in the crate touching the variable, so
        // there is no cross-test race despite the parallel harness.
        std::env::set_var("BLASYS_THREADS", "4");
        assert_eq!(Parallelism::from_env(), Parallelism::Threads(4));
        std::env::set_var("BLASYS_THREADS", "auto");
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::set_var("BLASYS_THREADS", "1");
        assert_eq!(Parallelism::from_env(), Parallelism::Serial);
        std::env::set_var("BLASYS_THREADS", "garbage");
        assert_eq!(Parallelism::from_env(), Parallelism::Serial);
        std::env::remove_var("BLASYS_THREADS");
        assert_eq!(Parallelism::from_env(), Parallelism::Serial);
    }
}
