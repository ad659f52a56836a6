//! A persistent, self-healing worker-thread pool for the pipeline
//! executor.
//!
//! PR 4 spawned one scoped thread per stage per run, which is fine for
//! long runs but dominates sub-millisecond ones (thread spawn is tens of
//! microseconds — several steady cycles of a small graph). This module
//! keeps the threads: a [`PipelinePool`] owns parked workers that serve
//! one boxed job at a time, and [`crate::parallel::PipelineSession`] draws
//! its stage workers from a process-wide pool, returning them when the
//! run finishes.
//!
//! Three properties keep this safe under `cargo test`'s in-process
//! concurrency and under injected faults:
//!
//! * a run *acquires all its stage workers atomically* (spawning fresh
//!   ones when the idle list runs short), so two concurrent pipeline
//!   runs can never each hold half of the threads they need and stall
//!   each other;
//! * job panics are normally contained *inside* the job (the pipeline's
//!   `worker_main` wraps stage execution in `catch_unwind`); a panic
//!   that escapes that containment leaves the worker in an unknown
//!   state, so the thread retires itself instead of parking again —
//!   and the pool *self-heals*: acquisition and release detect dead
//!   workers via a liveness token and replace them with fresh spawns,
//!   so one poisoned worker no longer degrades the pool for the process
//!   lifetime;
//! * the supervisor can `retire_global` a run's whole complement when
//!   a teardown abandoned workers mid-job (watchdog trip with a thread
//!   that never reported), guaranteeing the next run starts from known-
//!   good threads.
//!
//! Pooling changes scheduling only, never data: each stage's state is
//! moved into its job exactly as it was moved into a scoped thread
//! before, so outputs, tallies and firing counts are untouched —
//! `tests/pool_reuse.rs` pins that two back-to-back runs on one pool
//! print identical bits without spawning new threads for the second,
//! and that a fault-killed worker is respawned on the next acquisition.

use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock};

use streamlin_support::FaultPlan;

/// A unit of work shipped to a pooled thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One parked worker thread, addressed by its job channel.
pub(crate) struct PoolThread {
    tx: Sender<Job>,
    /// Liveness token: the worker loop holds the only other strong
    /// reference, so `strong_count > 1` ⇔ the thread is still serving.
    alive: Arc<()>,
}

impl PoolThread {
    /// Runs `job` on this worker (queued; the thread executes jobs in
    /// order). Dropping all handles to the channel retires the thread.
    pub(crate) fn run(&self, job: Job) {
        // A send fails only if the worker thread died; acquisition
        // filters dead workers, and the supervisor's liveness checks
        // cover a death after hand-off.
        let _ = self.tx.send(job);
    }

    /// Whether the worker loop is still running (its liveness token is
    /// dropped on any exit path, including an uncontained job panic).
    pub(crate) fn is_alive(&self) -> bool {
        Arc::strong_count(&self.alive) > 1
    }
}

/// A reusable set of worker threads.
pub struct PipelinePool {
    idle: Vec<PoolThread>,
    spawned: usize,
    retired: usize,
}

impl PipelinePool {
    /// An empty pool; threads are spawned on first demand.
    pub const fn new() -> Self {
        PipelinePool {
            idle: Vec::new(),
            spawned: 0,
            retired: 0,
        }
    }

    /// Total threads ever spawned by this pool (a second run that reuses
    /// the pool leaves this unchanged — the regression handle for the
    /// "pools are spawned per run" caveat).
    pub fn spawned(&self) -> usize {
        self.spawned
    }

    /// Workers currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.idle.len()
    }

    /// Workers dropped dead or abandoned (self-healing counter: each one
    /// was replaced by a fresh spawn on the acquisition that needed it).
    pub fn retired(&self) -> usize {
        self.retired
    }

    /// Takes `n` workers out of the pool, spawning the shortfall. Dead
    /// parked workers (a prior job's panic escaped containment) are
    /// discarded and replaced — the pool self-heals here rather than
    /// handing a run a thread that will never serve its job.
    pub(crate) fn acquire(&mut self, n: usize) -> Vec<PoolThread> {
        let mut taken = Vec::with_capacity(n);
        while taken.len() < n {
            match self.idle.pop() {
                Some(t) if t.is_alive() => taken.push(t),
                Some(_) => self.retired += 1,
                None => {
                    taken.push(spawn_worker());
                    self.spawned += 1;
                }
            }
        }
        taken
    }

    /// Returns workers to the pool for the next run, dropping any that
    /// died while serving.
    pub(crate) fn release(&mut self, threads: Vec<PoolThread>) {
        for t in threads {
            if t.is_alive() {
                self.idle.push(t);
            } else {
                self.retired += 1;
            }
        }
    }

    /// Drops a run's whole complement without re-parking it: used when a
    /// teardown abandoned workers mid-job (their state is unknown).
    pub(crate) fn retire(&mut self, threads: Vec<PoolThread>) {
        self.retired += threads.len();
        // Dropping the handles closes the job channels; each thread
        // exits after finishing whatever it is still running.
        drop(threads);
    }
}

impl Default for PipelinePool {
    fn default() -> Self {
        Self::new()
    }
}

fn spawn_worker() -> PoolThread {
    let (tx, rx) = channel::<Job>();
    let alive = Arc::new(());
    let token = Arc::clone(&alive);
    std::thread::Builder::new()
        .name("streamlin-pipeline".into())
        .spawn(move || {
            // Dropped on every exit path; `is_alive` watches the count.
            let _token = token;
            while let Ok(job) = rx.recv() {
                if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                    // Stage execution contains its own panics inside the
                    // job (`worker_main`); one that reaches here left the
                    // worker in an unknown state. Retire the thread — the
                    // pool respawns a replacement at the next acquisition
                    // instead of parking a poisoned worker forever.
                    break;
                }
            }
        })
        .expect("spawning a pipeline worker thread");
    PoolThread { tx, alive }
}

/// The process-wide pool [`crate::parallel::PipelineSession`] draws from.
fn global() -> &'static Mutex<PipelinePool> {
    static POOL: OnceLock<Mutex<PipelinePool>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(PipelinePool::new()))
}

/// Acquires `n` workers from the process-wide pool.
pub(crate) fn acquire_global(n: usize) -> Vec<PoolThread> {
    global().lock().expect("pipeline pool poisoned").acquire(n)
}

/// Fault-checked acquisition: an armed [`FaultPlan`] may refuse the whole
/// run (exercising the supervisor's pool-exhaustion fallback); the
/// production plan compiles down to plain [`acquire_global`].
pub(crate) fn acquire_global_faulted<F: FaultPlan>(
    n: usize,
    fault: &F,
) -> Result<Vec<PoolThread>, String> {
    if F::ARMED {
        if let Some(reason) = fault.pool_refuse() {
            return Err(reason);
        }
    }
    Ok(acquire_global(n))
}

/// Returns workers to the process-wide pool.
pub(crate) fn release_global(threads: Vec<PoolThread>) {
    global()
        .lock()
        .expect("pipeline pool poisoned")
        .release(threads);
}

/// Retires a run's workers without re-parking them (supervisor teardown
/// after an abandoned run).
pub(crate) fn retire_global(threads: Vec<PoolThread>) {
    global()
        .lock()
        .expect("pipeline pool poisoned")
        .retire(threads);
}

/// Threads ever spawned by the process-wide pool. Repeated
/// pipeline runs ([`crate::RunSpec::threads`]) reuse them, so this is stable
/// across back-to-back runs of the same shape.
pub fn global_spawned() -> usize {
    global().lock().expect("pipeline pool poisoned").spawned()
}

/// Workers currently parked in the process-wide pool (telemetry: how much
/// of an acquisition was served from the pool vs freshly spawned).
pub fn global_idle() -> usize {
    global().lock().expect("pipeline pool poisoned").idle()
}

/// Workers the process-wide pool has retired (died or abandoned); the
/// self-healing counterpart to [`global_spawned`].
pub fn global_retired() -> usize {
    global().lock().expect("pipeline pool poisoned").retired()
}
