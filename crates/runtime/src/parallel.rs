//! Pipeline-parallel execution of a partitioned static plan.
//!
//! Each stage of a [`Partition`] runs **its slice of the compiled
//! schedule** on its own worker thread: the stage executes exactly the
//! steps of [`ExecPlan::init`]/[`ExecPlan::steady`] whose nodes it owns,
//! in schedule order, over a stage-local [`RingSet`]. Items cross stage
//! boundaries through the lock-free SPSC rings of
//! [`crate::ring::SharedRings`], sized by the partitioner so a producer
//! can run several steady cycles ahead before backpressure blocks it —
//! workers synchronize on the cycle batch, not the firing.
//!
//! **Determinism is the contract.** Every node fires the same number of
//! times, on the same input windows, with the same batch sizes (the plan's
//! steps are executed verbatim, so even the blocked linear multiplies
//! accumulate identically) as under the single-threaded
//! [`crate::plan::PlanEngine`] — and all nodes that can print share one
//! stage, so the output stream is produced by a single worker in schedule
//! order. Printed values are therefore **bit-identical for every worker
//! count**, and because runs are quantized to whole steady cycles by a
//! thread-count-independent pacing protocol, the operation tallies and
//! firing counts are identical across worker counts too (the
//! single-threaded `PlanEngine` stops a few firings earlier, mid-cycle —
//! the printed prefix is the same).
//!
//! The coordinator/worker protocol is intentionally coarse: the
//! coordinator announces a cumulative cycle target, every worker runs to
//! it and reports its printed count, and the coordinator extends the
//! target until the output goal is met. Estimation only looks at
//! deterministic state (printed counts at round boundaries), which is what
//! makes the quantization reproducible.
//!
//! # Supervision
//!
//! [`PipelineSession`] layers fault tolerance on the same
//! protocol without touching the deterministic core. The executor is
//! generic over a [`FaultPlan`] ([`streamlin_support::NoFault`] in production — every
//! injection site is guarded by `const ARMED` and monomorphizes away;
//! [`streamlin_support::InjectFaults`] for seeded, reproducible worker
//! panics, stage wedges, ring delays and pool refusals). When a wall-
//! clock watchdog is requested (or any fault plan is armed), the
//! coordinator polls instead of blocking: per-stage progress counters
//! are snapshotted between report waits, and a deadline with no counter
//! movement trips a clean teardown — poison the run, diagnose the stuck
//! stage from boundary-ring occupancy, collect what reports remain
//! within a grace window, and return a structured [`RunError::Stalled`]
//! instead of hanging. Workers whose pool thread died surface as
//! [`RunError::WorkerLost`]; a teardown that had to abandon workers
//! mid-job retires the whole thread complement to the pool's self-
//! healing path instead of re-parking threads in unknown states. Both
//! error classes are [`RunError::is_degradable`]: the session layer
//! ([`crate::session`]) replays them on the single-threaded static plan,
//! which is *correct* because every execution family is pinned
//! bit-identical.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streamlin_support::{FaultAction, FaultPlan, OpCounter, Probe, StallKind, Tally};

use crate::engine::RunError;
use crate::flat::{FlatGraph, FlatNode, NodeKind};
use crate::partition::Partition;
use crate::plan::{batch_need, exec_batch, node_rates, ExecPlan, PlanState, Rates};
use crate::pool;
use crate::ring::{Backoff, RingSet, SharedRings};

/// Default cycle-count quantum of the pacing protocol, in **original**
/// steady cycles: the coordinator only ever runs whole multiples of this
/// many cycles. A fissed graph whose steady cycle spans `scale` original
/// cycles (see [`crate::fission`]) quantizes to `quantum / scale` of its
/// own cycles — the same amount of work — which is what makes run
/// lengths (and with them tallies and firing counts) identical across
/// fission widths, including width 1. Fission constrains its cycle
/// expansion to divisors of the effective quantum.
///
/// The quantum is overridable per run ([`resolve_quantum`]): explicit
/// knob (`streamlinc --quantum`, a per-stream `streamlind` option, or
/// [`crate::measure::Supervision::quantum`]) first, then the
/// `STREAMLIN_CYCLE_QUANTUM` environment variable, then this default.
/// Larger quanta amortize coordinator round trips on long-running
/// streams; quantum 1 removes the up-to-4× sub-cycle overshoot on short
/// ones (at the cost of restricting fission's cycle expansion to 1).
pub const CYCLE_QUANTUM: u64 = 4;

/// Parses a `STREAMLIN_CYCLE_QUANTUM` value: a positive integer.
///
/// # Errors
///
/// A human-readable description of why the value is unusable.
pub fn parse_quantum(raw: &str) -> Result<u64, String> {
    match raw.trim().parse::<u64>() {
        Ok(0) => Err("STREAMLIN_CYCLE_QUANTUM must be >= 1, got `0`".into()),
        Ok(q) => Ok(q),
        Err(_) => Err(format!(
            "STREAMLIN_CYCLE_QUANTUM must be a positive integer, got `{}`",
            raw.trim()
        )),
    }
}

/// Resolves the effective cycle quantum for a run, rejecting a bad
/// environment override: a nonzero `explicit` request wins, else
/// `STREAMLIN_CYCLE_QUANTUM` (which must parse to a positive integer),
/// else [`CYCLE_QUANTUM`].
///
/// # Errors
///
/// When `STREAMLIN_CYCLE_QUANTUM` is set but unusable (not unicode, not
/// a positive integer) and no explicit quantum overrides it. Callers
/// with a structured failure channel (the daemon's `open`) surface
/// this; [`resolve_quantum`] instead warns once and falls back.
pub fn resolve_quantum_checked(explicit: u64) -> Result<u64, String> {
    if explicit != 0 {
        return Ok(explicit);
    }
    match std::env::var("STREAMLIN_CYCLE_QUANTUM") {
        Err(std::env::VarError::NotPresent) => Ok(CYCLE_QUANTUM),
        Err(std::env::VarError::NotUnicode(_)) => {
            Err("STREAMLIN_CYCLE_QUANTUM is not valid unicode".into())
        }
        Ok(raw) => parse_quantum(&raw),
    }
}

/// Resolves the effective cycle quantum for a run: a nonzero `explicit`
/// request wins, else `STREAMLIN_CYCLE_QUANTUM` (when it parses to a
/// positive integer), else [`CYCLE_QUANTUM`]. An invalid environment
/// value is **not** silently swallowed: the first one encountered warns
/// on stderr (once per process) before falling back to the default.
pub fn resolve_quantum(explicit: u64) -> u64 {
    match resolve_quantum_checked(explicit) {
        Ok(q) => q,
        Err(why) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!("warning: ignoring invalid quantum override: {why}");
            });
            CYCLE_QUANTUM
        }
    }
}

/// Outcome of a pipeline run: the merged view a profiler needs.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The program's printed output, in schedule order.
    pub printed: Vec<f64>,
    /// Summed operation tallies of all workers.
    pub ops: OpCounter,
    /// Summed node firings of all workers.
    pub firings: u64,
    /// Steady cycles executed (identical for every worker count).
    pub cycles: u64,
    /// Worker threads that ran (= stages of the partition).
    pub stages: usize,
}

/// Consecutive output-less steady cycles tolerated before the run is
/// declared dead (mirrors `PlanEngine::MAX_SILENT_CYCLES`). Expressed in
/// **original** cycles, like [`CYCLE_QUANTUM`]: a fissed run's budget is
/// divided by its scale so the bound fires after the same work.
const MAX_SILENT_CYCLES: u64 = 1 << 16;

/// Watchdog deadline used when a fault plan is armed but the caller gave
/// no explicit deadline: injection must never convert a test run into a
/// hang, so supervision always has *some* wall-clock bound.
const DEFAULT_ARMED_WATCHDOG: Duration = Duration::from_secs(5);

/// After a trip (watchdog or dead worker), how long the coordinator keeps
/// collecting reports/results from the surviving workers before it
/// abandons the stragglers and retires the run's threads.
const TEARDOWN_GRACE: Duration = Duration::from_millis(750);

/// Marker detail for errors caused by *another* worker's failure; the
/// coordinator reports the root cause instead when one exists.
const PEER_FAILURE: &str = "aborted: a pipeline peer failed";

fn peer_failure() -> RunError {
    RunError::Deadlock {
        detail: PEER_FAILURE.into(),
    }
}

/// A partitioner/setup invariant violated at run time: surfaced as a
/// structured error (these paths used to `expect`-panic mid-setup).
fn setup_bug(what: &str) -> RunError {
    RunError::Eval(format!(
        "internal pipeline setup invariant violated: {what}"
    ))
}

/// Keep the root cause: a peer-failure abort only stands in until the
/// real error arrives; everything else is first-come-first-kept.
fn absorb_err(slot: &mut Option<RunError>, e: RunError) {
    let is_peer =
        |e: &RunError| matches!(e, RunError::Deadlock { detail } if detail == PEER_FAILURE);
    match slot {
        None => *slot = Some(e),
        Some(cur) if is_peer(cur) && !is_peer(&e) => *slot = Some(e),
        _ => {}
    }
}

/// Best-effort panic payload message (panics carry `&str` or `String`).
fn panic_detail(payload: &dyn std::any::Any) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One schedule step owned by a stage, with its boundary actions.
#[derive(Debug, Clone)]
struct LocalStep {
    /// Node index *within the stage's local node vector*.
    node: usize,
    /// Node index in the *global* flat graph (telemetry span naming).
    gnode: usize,
    /// Consecutive firings (verbatim from the plan — batch sizes must not
    /// change, or blocked linear multiplies would accumulate differently).
    times: u32,
    /// Boundary input channels to receive on before firing:
    /// `(input slot, channel)`.
    recv: Vec<(usize, usize)>,
    /// Boundary output channels to flush after firing.
    send: Vec<usize>,
}

/// Commands from the coordinator to a worker.
enum Cmd {
    /// Run until `cycles == target` (the first command also runs init).
    Run(u64),
    /// Hand back results and exit.
    Finish,
}

/// One worker's answer to a [`Cmd::Run`] round. The worker drains the
/// values it printed during the round into the report, so the
/// coordinator can hand out ordered output incrementally (the resident
/// [`PipelineSession`] reads) — concatenation in arrival order is exact
/// because all printing nodes share one stage.
struct Report {
    stage: usize,
    values: Vec<f64>,
    err: Option<RunError>,
}

/// Final per-worker results, returned through the join handle.
struct StageResult<P: Probe> {
    stage: usize,
    printed: Vec<f64>,
    ops: OpCounter,
    firings: u64,
    /// The worker's forked telemetry probe, absorbed by the coordinator.
    probe: P,
}

/// A stage's executable state, moved onto its (pooled) worker thread.
struct StageWorker<T: Tally, P: Probe, F: FaultPlan> {
    stage: usize,
    /// Forked telemetry probe; lane `stage + 1` (lane 0 = coordinator).
    probe: P,
    /// Forked fault plan ([`NoFault`] in production — inert, zero-size).
    fault: F,
    /// Executed schedule steps, the key for batch-site fault injection.
    steps: u64,
    /// Per-stage progress counters read by the supervisor's watchdog.
    progress: Arc<Vec<AtomicU64>>,
    /// Whether to maintain `progress` (true only under supervision).
    watch: bool,
    nodes: Vec<FlatNode>,
    /// Rate signatures, indexed like `nodes`.
    rates: Vec<Rates>,
    /// First firing still pending, indexed like `nodes`.
    fresh: Vec<bool>,
    init_steps: Vec<LocalStep>,
    steady_steps: Vec<LocalStep>,
    state: PlanState<T>,
    /// Local ring capacities (for computing drain room on boundary-ins).
    local_caps: Vec<usize>,
    shared: Arc<SharedRings>,
    poisoned: Arc<AtomicBool>,
    /// True when the host has a single hardware thread (skip spinning).
    solo: bool,
    cycles: u64,
    init_done: bool,
}

impl<T: Tally, P: Probe, F: FaultPlan> StageWorker<T, P, F> {
    fn poison_check(&self) -> Result<(), RunError> {
        if self.poisoned.load(Ordering::Relaxed) {
            Err(peer_failure())
        } else {
            Ok(())
        }
    }

    /// Telemetry lane of this worker (lane 0 is the coordinator).
    fn lane(&self) -> u32 {
        self.stage as u32 + 1
    }

    /// Moves available items of a boundary-in channel from the SPSC ring
    /// into the local ring, bounded by local space. Returns items moved.
    fn drain(&mut self, chan: usize) -> usize {
        let free = self.local_caps[chan] - self.state.rings.len(chan);
        if free == 0 {
            return 0;
        }
        let shared = &self.shared;
        let rings = &mut self.state.rings;
        shared.consume(chan, free, |a, b| {
            rings.produce(chan, a);
            rings.produce(chan, b);
        })
    }

    /// Pushes everything buffered on a boundary-out channel into its SPSC
    /// ring, blocking (with bounded exponential backoff) while the
    /// consumer lags.
    fn flush(&mut self, chan: usize) -> Result<(), RunError> {
        let mut remaining = self.state.rings.len(chan);
        let mut backoff = Backoff::new(self.solo);
        // Stall accounting starts lazily at the first full retry, so the
        // happy path (consumer keeping up) records nothing but a sample.
        let mut stall_t0 = 0u64;
        while remaining > 0 {
            let shared = &self.shared;
            let window = self.state.rings.window(chan, remaining);
            let pushed = shared.produce(chan, window);
            if pushed == 0 {
                if P::ENABLED && stall_t0 == 0 {
                    stall_t0 = self.probe.now();
                    self.probe.ring_stall(chan, true);
                }
                self.poison_check()?;
                if F::ARMED {
                    if let Some(d) = self.fault.ring_wait(chan, true) {
                        std::thread::sleep(d);
                    }
                }
                backoff.wait();
            } else {
                self.state.rings.consume(chan, pushed);
                remaining -= pushed;
                backoff.reset();
            }
        }
        if P::ENABLED {
            let lane = self.lane();
            if stall_t0 != 0 {
                self.probe.stall(lane, StallKind::SendFull, stall_t0);
            }
            let ts = self.probe.now();
            self.probe.ring_depth(chan, self.shared.occupancy(chan), ts);
        }
        Ok(())
    }

    fn exec_step(&mut self, step: &LocalStep) -> Result<(), RunError> {
        if F::ARMED {
            let idx = self.steps;
            self.steps += 1;
            match self.fault.batch_action(self.stage, idx) {
                FaultAction::None => {}
                FaultAction::Panic(msg) => panic!("{msg}"),
                FaultAction::Sleep(d) => std::thread::sleep(d),
                // Stop making progress but stay responsive to teardown:
                // the watchdog poisons the run, and this loop notices.
                FaultAction::Wedge => loop {
                    self.poison_check()?;
                    std::thread::sleep(Duration::from_micros(200));
                },
            }
        }
        let first = self.fresh[step.node];
        for &(slot, chan) in &step.recv {
            let need = batch_need(&self.rates[step.node], first, step.times as u64, slot) as usize;
            let mut backoff = Backoff::new(self.solo);
            let mut stall_t0 = 0u64;
            while self.state.rings.len(chan) < need {
                if self.drain(chan) == 0 {
                    if P::ENABLED && stall_t0 == 0 {
                        stall_t0 = self.probe.now();
                        self.probe.ring_stall(chan, false);
                    }
                    self.poison_check()?;
                    if F::ARMED {
                        if let Some(d) = self.fault.ring_wait(chan, false) {
                            std::thread::sleep(d);
                        }
                    }
                    backoff.wait();
                } else {
                    backoff.reset();
                }
            }
            if P::ENABLED && stall_t0 != 0 {
                let lane = self.lane();
                self.probe.stall(lane, StallKind::RecvEmpty, stall_t0);
            }
        }
        let t0 = self.probe.now();
        exec_batch(
            &mut self.nodes[step.node],
            step.times,
            &mut self.state,
            usize::MAX,
        )?;
        if P::ENABLED {
            let lane = self.lane();
            self.probe.batch(lane, step.gnode, step.times, t0);
        }
        self.fresh[step.node] = false;
        for &chan in &step.send {
            self.flush(chan)?;
        }
        if self.watch {
            // Relaxed is enough: the watchdog only compares snapshots for
            // *movement*, never for a precise value.
            self.progress[self.stage].fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Runs a whole phase (borrow juggling: the steps are taken out of
    /// `self` for the duration so `exec_step` can borrow freely).
    fn run_steps(&mut self, init: bool) -> Result<(), RunError> {
        let steps = if init {
            std::mem::take(&mut self.init_steps)
        } else {
            std::mem::take(&mut self.steady_steps)
        };
        let result = steps.iter().try_for_each(|s| self.exec_step(s));
        if init {
            self.init_steps = steps;
        } else {
            self.steady_steps = steps;
        }
        result
    }

    fn run_to(&mut self, target: u64) -> Result<(), RunError> {
        if !self.init_done {
            self.init_done = true;
            self.run_steps(true)?;
        }
        while self.cycles < target {
            self.run_steps(false)?;
            self.cycles += 1;
        }
        Ok(())
    }
}

/// The worker thread body: serve `Run` rounds until `Finish`.
fn worker_main<T: Tally, P: Probe, F: FaultPlan>(
    mut w: StageWorker<T, P, F>,
    rx: Receiver<Cmd>,
    tx: Sender<Report>,
) -> StageResult<P> {
    let mut failed = false;
    loop {
        // Time between rounds is the worker sitting idle, waiting for the
        // coordinator's next target.
        let idle_t0 = w.probe.now();
        let Ok(cmd) = rx.recv() else { break };
        if P::ENABLED {
            let lane = w.lane();
            w.probe.stall(lane, StallKind::Idle, idle_t0);
        }
        match cmd {
            Cmd::Run(target) => {
                let err = if failed {
                    None
                } else {
                    match std::panic::catch_unwind(AssertUnwindSafe(|| w.run_to(target))) {
                        Ok(Ok(())) => None,
                        Ok(Err(e)) => Some(e),
                        Err(payload) => Some(RunError::WorkerLost {
                            detail: format!(
                                "pipeline stage {} panicked: {}",
                                w.stage,
                                panic_detail(payload.as_ref())
                            ),
                        }),
                    }
                };
                if err.is_some() {
                    failed = true;
                    w.poisoned.store(true, Ordering::Relaxed);
                }
                let report = Report {
                    stage: w.stage,
                    values: std::mem::take(&mut w.state.printed),
                    err,
                };
                if tx.send(report).is_err() {
                    break;
                }
            }
            Cmd::Finish => break,
        }
    }
    StageResult {
        stage: w.stage,
        printed: std::mem::take(&mut w.state.printed),
        ops: w.state.ops.counts(),
        firings: w.state.firings,
        probe: w.probe,
    }
}

/// The watchdog's diagnosis of a no-progress pipeline, built from state
/// the executor already has: progress counters, which stages still owe a
/// report, and boundary-ring occupancy. A stage that has input available
/// and output space yet made no progress is singled out — everything
/// around a wedged stage is starved or backed up instead.
fn diagnose_stall(
    deadline: Duration,
    counts: &[u64],
    reported: &[bool],
    part: &Partition,
    shared: &SharedRings,
) -> String {
    use std::fmt::Write;
    let mut d = format!(
        "watchdog: no pipeline progress for {}ms",
        deadline.as_millis()
    );
    let pending: Vec<usize> = (0..reported.len()).filter(|&s| !reported[s]).collect();
    let _ = write!(
        d,
        "; stage step counters {counts:?}, awaiting stages {pending:?}"
    );
    for &s in &pending {
        let starved = part
            .boundaries
            .iter()
            .any(|b| b.to_stage == s && shared.occupancy(b.chan) == 0);
        let blocked = part
            .boundaries
            .iter()
            .any(|b| b.from_stage == s && shared.occupancy(b.chan) >= b.capacity);
        if !starved && !blocked {
            let _ = write!(
                d,
                "; stage {s} has input available and output space but made no \
                 progress (suspected wedged)"
            );
        }
    }
    let rings: Vec<String> = part
        .boundaries
        .iter()
        .map(|b| {
            format!(
                "chan {}: {}/{}",
                b.chan,
                shared.occupancy(b.chan),
                b.capacity
            )
        })
        .collect();
    let _ = write!(d, "; boundary rings [{}]", rings.join(", "));
    d
}

/// Per-stage payload prepared during setup, handed to the stage's worker.
struct StageSeed {
    nodes: Vec<FlatNode>,
    rates: Vec<Rates>,
    caps: Vec<usize>,
    initial: Vec<(usize, Vec<f64>)>,
    init_steps: Vec<LocalStep>,
    steady_steps: Vec<LocalStep>,
}

/// Runs a partitioned plan on one pooled worker thread per stage until at
/// least `outputs` values have been printed — the one-shot degenerate
/// case of a [`PipelineSession`]: start, run to `outputs`, finish. Runs
/// are quantized to whole multiples of `quantum` original steady cycles
/// (see [`resolve_quantum`]).
///
/// `scale` is the number of original steady cycles one cycle of this
/// graph spans: 1 for ordinary graphs, the fission pass's cycle expansion
/// (a divisor of the quantum) for fissed graphs — the quantization is
/// what keeps run lengths, tallies and firing counts identical across
/// fission widths.
///
/// Each stage worker records into a [`Probe::fork`]ed probe on its own
/// lane (stage *k* → lane *k* + 1; lane 0 is the coordinator), absorbed
/// back when the run finishes. The executor is generic over a
/// [`FaultPlan`] (injection sites compile away under
/// [`streamlin_support::NoFault`]) and,
/// when `watchdog` is set or the plan is armed, guarded by a wall-clock
/// no-progress watchdog; a trip is a clean teardown reported as
/// [`RunError::Stalled`], a dead or refused worker is
/// [`RunError::WorkerLost`].
///
/// # Errors
///
/// Evaluation/rate errors from work functions; a deadlock when
/// `MAX_SILENT_CYCLES` consecutive cycles print nothing;
/// `Stalled`/`WorkerLost` as above.
///
/// # Panics
///
/// Panics if `scale` does not divide `quantum`.
#[allow(clippy::too_many_arguments)]
pub fn run_pipeline_quantized<
    T: Tally + Default + Send,
    P: Probe + Send + 'static,
    F: FaultPlan,
>(
    flat: FlatGraph,
    plan: &ExecPlan,
    part: &Partition,
    outputs: usize,
    scale: u64,
    quantum: u64,
    probe: &mut P,
    fault: F,
    watchdog: Option<Duration>,
) -> Result<PipelineOutcome, RunError> {
    let mut session =
        PipelineSession::start::<T, F>(flat, plan, part, scale, quantum, probe, fault, watchdog)?;
    let _ = session.run_until(outputs);
    session.finish(probe)
}

/// A **resident** pipeline run: the stage workers stay parked on their
/// pooled threads between reads, all engine state (ring occupancy, node
/// state, cycle position) persists, and the caller pulls ordered output
/// incrementally. This is the persistence backbone of the `streamlind`
/// service — a per-stream session lives across many protocol round
/// trips, and a one-shot [`crate::measure::run`] is the degenerate case
/// (start → one read → finish), so every equivalence suite that pins the
/// one-shot executor pins the resident one too.
///
/// The pacing protocol is unchanged and remains a deterministic function
/// of printed counts at round boundaries; the *values* delivered for a
/// given program are a deterministic prefix regardless of how the reads
/// are batched (overshoot beyond a read goal is buffered, not
/// discarded).
///
/// Dropping a session without [`PipelineSession::finish`] tears it down:
/// workers are told to finish and collected within the usual grace
/// rules; threads are released back to the pool (or retired when
/// abandoned mid-job).
pub struct PipelineSession<P: Probe> {
    cmd_txs: Vec<Sender<Cmd>>,
    report_rx: Receiver<Report>,
    result_rx: Receiver<StageResult<P>>,
    threads: Vec<pool::PoolThread>,
    progress: Arc<Vec<AtomicU64>>,
    poisoned: Arc<AtomicBool>,
    shared: Arc<SharedRings>,
    part: Partition,
    num_stages: usize,
    supervised: bool,
    deadline: Duration,
    /// Pacing quantum in cycles *of this graph* (original quantum/scale).
    quantum: u64,
    scale: u64,
    est_per_cycle: u64,
    /// Cumulative cycle target announced to the workers.
    target: u64,
    /// Target when output last grew (silent-cycle accounting).
    progress_at: u64,
    /// Printed values not yet handed out, in schedule order.
    values: Vec<f64>,
    /// Values handed out through [`Self::read`] so far.
    delivered: usize,
    tripped: bool,
    failed: Option<RunError>,
    done: bool,
    /// Coordinator-lane probe (forked at start, absorbed at finish).
    coord: P,
}

impl<P: Probe> PipelineSession<P> {
    /// Sets up stage workers on pooled threads and runs nothing yet.
    /// `quantum` is in original steady cycles (see [`resolve_quantum`]).
    ///
    /// # Errors
    ///
    /// Setup invariant violations and pool refusals
    /// ([`RunError::WorkerLost`]).
    ///
    /// # Panics
    ///
    /// Panics if `scale` does not divide `quantum`.
    #[allow(clippy::too_many_arguments)]
    pub fn start<T, F>(
        flat: FlatGraph,
        plan: &ExecPlan,
        part: &Partition,
        scale: u64,
        quantum: u64,
        probe: &mut P,
        fault: F,
        watchdog: Option<Duration>,
    ) -> Result<Self, RunError>
    where
        T: Tally + Default + Send,
        F: FaultPlan,
        P: Send + 'static,
    {
        assert!(
            scale >= 1 && quantum >= 1 && quantum.is_multiple_of(scale),
            "cycle scale {scale} must divide the quantum {quantum}"
        );
        let quantum = quantum / scale;
        let num_stages = part.num_stages;
        let num_channels = flat.num_channels;
        let rates: Vec<Rates> = flat.nodes.iter().map(node_rates).collect();

        // Boundary lookup: per channel, the crossing (if any) and capacity.
        let mut spsc_caps = vec![0usize; num_channels];
        let mut boundary_to: Vec<Option<usize>> = vec![None; num_channels];
        let mut boundary_from: Vec<Option<usize>> = vec![None; num_channels];
        for b in &part.boundaries {
            spsc_caps[b.chan] = b.capacity;
            boundary_to[b.chan] = Some(b.to_stage);
            boundary_from[b.chan] = Some(b.from_stage);
        }

        // Expected prints per steady cycle (sinks only; interpreted printers
        // are data-dependent and contribute nothing to the estimate). The
        // fallback floor is one print per *original* cycle — `scale` per
        // cycle of this graph — so the estimate stays scale-invariant.
        let mut est_per_cycle = 0u64;
        for step in &plan.steady {
            if let NodeKind::PrintSink { pop } = &flat.nodes[step.node].kind {
                est_per_cycle += step.times as u64 * *pop as u64;
            }
        }
        let est_per_cycle = est_per_cycle.max(scale);

        // Distribute nodes, rates, ring capacities and schedule slices.
        let mut local_idx = vec![usize::MAX; flat.nodes.len()];
        let mut stage_nodes: Vec<Vec<FlatNode>> = (0..num_stages).map(|_| Vec::new()).collect();
        let mut stage_rates: Vec<Vec<Rates>> = (0..num_stages).map(|_| Vec::new()).collect();
        let mut stage_caps: Vec<Vec<usize>> =
            (0..num_stages).map(|_| vec![0; num_channels]).collect();
        for (i, node) in flat.nodes.into_iter().enumerate() {
            let s = part.stage_of[i];
            // Ring capacities, from this node's endpoint perspective:
            // boundary-ins get the SPSC capacity (drain headroom), everything
            // else keeps the plan's exact bound.
            for &c in &node.inputs {
                stage_caps[s][c] = if boundary_to[c] == Some(s) {
                    spsc_caps[c]
                } else {
                    plan.caps[c]
                };
            }
            for &c in &node.outputs {
                if boundary_from[c] != Some(s) {
                    stage_caps[s][c] = plan.caps[c];
                } else {
                    // Staging room for one step's pushes before the flush.
                    stage_caps[s][c] = stage_caps[s][c].max(plan.caps[c]);
                }
            }
            local_idx[i] = stage_nodes[s].len();
            stage_rates[s].push(rates[i].clone());
            stage_nodes[s].push(node);
        }
        // Initial items (feedback preloads) land in the consumer's local ring,
        // mirroring the sequential engine's starting occupancy.
        let mut stage_initial: Vec<Vec<(usize, Vec<f64>)>> =
            (0..num_stages).map(|_| Vec::new()).collect();
        for (c, items) in flat.initial {
            let consumer_stage = (0..num_stages)
                .find(|&s| stage_nodes[s].iter().any(|n| n.inputs.contains(&c)))
                .ok_or_else(|| {
                    setup_bug(&format!(
                        "initial items on channel {c} have no consuming stage"
                    ))
                })?;
            stage_initial[consumer_stage].push((c, items));
        }

        let slice_steps = |steps: &[crate::plan::Step]| -> Vec<Vec<LocalStep>> {
            let mut per_stage: Vec<Vec<LocalStep>> = (0..num_stages).map(|_| Vec::new()).collect();
            for step in steps {
                let s = part.stage_of[step.node];
                let node = &stage_nodes[s][local_idx[step.node]];
                let recv = node
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| boundary_to[c] == Some(s))
                    .map(|(slot, &c)| (slot, c))
                    .collect();
                let send = node
                    .outputs
                    .iter()
                    .copied()
                    .filter(|&c| boundary_from[c] == Some(s))
                    .collect();
                per_stage[s].push(LocalStep {
                    node: local_idx[step.node],
                    gnode: step.node,
                    times: step.times,
                    recv,
                    send,
                });
            }
            per_stage
        };
        let mut init_slices = slice_steps(&plan.init);
        let mut steady_slices = slice_steps(&plan.steady);

        // Bundle every stage's payload *before* touching the worker pool, so
        // all fallible setup completes while nothing is held. Built in
        // reverse so each `pop` hands a stage its own data (a miscount here
        // is a partitioner bug, surfaced structurally instead of the
        // `expect` panics this loop used to contain).
        let mut seeds: Vec<StageSeed> = Vec::with_capacity(num_stages);
        for _ in 0..num_stages {
            seeds.push(StageSeed {
                nodes: stage_nodes
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage nodes"))?,
                rates: stage_rates
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage rates"))?,
                caps: stage_caps
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage ring capacities"))?,
                initial: stage_initial
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage initial items"))?,
                init_steps: init_slices
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage init slice"))?,
                steady_steps: steady_slices
                    .pop()
                    .ok_or_else(|| setup_bug("missing per-stage steady slice"))?,
            });
        }

        let shared = Arc::new(SharedRings::new(&spsc_caps));
        let poisoned = Arc::new(AtomicBool::new(false));
        let solo = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        let (report_tx, report_rx) = channel::<Report>();
        let (result_tx, result_rx) = channel::<StageResult<P>>();

        // Supervision: poll instead of block whenever a watchdog was asked
        // for or any fault plan is armed (injected faults must never turn a
        // run into a hang, so an armed plan always gets a deadline).
        let supervised = F::ARMED || watchdog.is_some();
        let deadline = watchdog.unwrap_or(DEFAULT_ARMED_WATCHDOG);
        let progress: Arc<Vec<AtomicU64>> =
            Arc::new((0..num_stages).map(|_| AtomicU64::new(0)).collect());
        if F::ARMED {
            fault.arm(num_stages, num_channels);
            if P::ENABLED {
                probe.note("fault", &fault.describe());
            }
        }

        // Stage workers come from the persistent process-wide pool (acquired
        // atomically so concurrent runs never starve each other) instead of
        // being spawned per run — repeated profiling runs reuse the threads.
        let spawned_before = if P::ENABLED {
            pool::global_spawned()
        } else {
            0
        };
        let threads = match pool::acquire_global_faulted(num_stages, &fault) {
            Ok(t) => t,
            Err(reason) => {
                return Err(RunError::WorkerLost {
                    detail: format!("worker pool refused {num_stages} stage workers: {reason}"),
                })
            }
        };
        if P::ENABLED {
            probe.lane_name(0, "coordinator");
            for b in &part.boundaries {
                probe.ring_cap(b.chan, b.capacity);
            }
            let fresh = pool::global_spawned() - spawned_before;
            probe.note(
                "pool",
                &format!(
                    "acquired {num_stages} workers ({} reused, {fresh} newly spawned; \
                 {} spawned process-wide, {} left idle)",
                    num_stages - fresh,
                    pool::global_spawned(),
                    pool::global_idle()
                ),
            );
        }
        let mut cmd_txs = Vec::with_capacity(num_stages);
        for (stage, seed) in seeds.into_iter().rev().enumerate() {
            let (tx, rx) = channel::<Cmd>();
            cmd_txs.push(tx);
            let report_tx = report_tx.clone();
            let result_tx = result_tx.clone();
            let shared = Arc::clone(&shared);
            let poisoned = Arc::clone(&poisoned);
            let wprogress = Arc::clone(&progress);
            let wfault = fault.fork();
            let lane = stage as u32 + 1;
            if P::ENABLED {
                probe.lane_name(lane, &format!("stage {stage}"));
            }
            let wprobe = probe.fork(lane);
            threads[stage].run(Box::new(move || {
                if F::ARMED && wfault.spawn_abort(stage) {
                    // Deliberately *outside* worker_main's containment: this
                    // unwinds into the pool thread's loop and kills the
                    // thread itself, exercising liveness detection and pool
                    // self-healing.
                    panic!("injected fault: stage {stage} worker thread died at job start");
                }
                let fresh = vec![true; seed.nodes.len()];
                let worker = StageWorker {
                    stage,
                    probe: wprobe,
                    fault: wfault,
                    steps: 0,
                    progress: wprogress,
                    watch: supervised,
                    rates: seed.rates,
                    fresh,
                    init_steps: seed.init_steps,
                    steady_steps: seed.steady_steps,
                    state: PlanState {
                        rings: RingSet::new(&seed.caps, &seed.initial),
                        printed: Vec::new(),
                        ops: T::default(),
                        firings: 0,
                        out_buf: Vec::new(),
                    },
                    local_caps: seed.caps,
                    nodes: seed.nodes,
                    shared,
                    poisoned,
                    solo,
                    cycles: 0,
                    init_done: false,
                };
                let result = worker_main(worker, rx, report_tx);
                let _ = result_tx.send(result);
            }));
        }
        drop(report_tx);
        drop(result_tx);

        let coord = probe.fork(0);
        Ok(PipelineSession {
            cmd_txs,
            report_rx,
            result_rx,
            threads,
            progress,
            poisoned,
            shared,
            part: part.clone(),
            num_stages,
            supervised,
            deadline,
            quantum,
            scale,
            est_per_cycle,
            target: 0,
            progress_at: 0,
            values: Vec::new(),
            delivered: 0,
            tripped: false,
            failed: None,
            done: false,
            coord,
        })
    }

    /// Total values printed so far (delivered or not).
    pub fn available(&self) -> usize {
        self.delivered + self.values.len()
    }

    /// Values handed out through [`Self::read`] so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Runs until `n` further values are available and returns them, in
    /// order. The value sequence is independent of how reads are
    /// batched: overshoot beyond the goal stays buffered for the next
    /// read.
    ///
    /// # Errors
    ///
    /// As [`run_pipeline_quantized`]; once a session has failed, every
    /// subsequent read reports the same error.
    pub fn read(&mut self, n: usize) -> Result<Vec<f64>, RunError> {
        self.run_until(self.delivered + n)?;
        self.delivered += n;
        // Hand the buffer's head over and keep only the (sub-quantum)
        // overshoot, so a session holds no copy of delivered values.
        let rest = self.values.split_off(n);
        Ok(std::mem::replace(&mut self.values, rest))
    }

    /// The pacing protocol: extends the cumulative cycle target until at
    /// least `goal` total values have been printed. Every quantity here
    /// is a deterministic function of printed counts at round
    /// boundaries, and targets are quantized to whole multiples of
    /// `quantum` cycles, so the total cycle count — and with it tallies
    /// and firing counts — is independent of the worker count, the
    /// fission width, and how a session's reads are batched.
    ///
    /// # Errors
    ///
    /// As [`Self::read`].
    pub fn run_until(&mut self, goal: usize) -> Result<(), RunError> {
        while self.available() < goal && self.failed.is_none() {
            let remaining = (goal - self.available()) as u64;
            let printed = self.available() as u64;
            let add = if printed > 0 {
                // Observed rate so far, rounded pessimistically upward.
                (remaining * self.target).div_ceil(printed)
            } else {
                remaining.div_ceil(self.est_per_cycle)
            };
            // The silent-cycle budget is defined in *original* cycles
            // (like the quantum), so the clamp binds at the same amount
            // of work for every fission scale — otherwise a scale-s run
            // could overshoot s× further in one round and break the
            // width-invariance of tallies on runs long enough to hit the
            // clamp.
            let max_silent = MAX_SILENT_CYCLES / self.scale;
            let silent = self.target - self.progress_at;
            let add = add.clamp(1, max_silent.saturating_sub(silent).max(1));
            let add = add.div_ceil(self.quantum) * self.quantum;
            self.target += add;
            for tx in &self.cmd_txs {
                if tx.send(Cmd::Run(self.target)).is_err() {
                    absorb_err(
                        &mut self.failed,
                        RunError::WorkerLost {
                            detail: "a pipeline worker exited before its run command".into(),
                        },
                    );
                }
            }
            let before = self.available();
            let wait_t0 = self.coord.now();
            if self.supervised {
                self.collect_round_supervised();
            } else {
                self.collect_round();
            }
            if P::ENABLED {
                self.coord.stall(0, StallKind::Quantum, wait_t0);
            }
            if self.available() > before {
                self.progress_at = self.target;
            } else if self.target - self.progress_at >= MAX_SILENT_CYCLES / self.scale
                && self.failed.is_none()
            {
                self.failed = Some(RunError::Deadlock {
                    detail: format!(
                        "{} consecutive steady cycles produced no program output",
                        (self.target - self.progress_at) * self.scale
                    ),
                });
            }
        }
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn absorb_report(&mut self, rep: Report) {
        self.values.extend(rep.values);
        if let Some(e) = rep.err {
            absorb_err(&mut self.failed, e);
        }
    }

    /// One unsupervised round: block until every stage reports.
    fn collect_round(&mut self) {
        for _ in 0..self.num_stages {
            match self.report_rx.recv() {
                Ok(rep) => self.absorb_report(rep),
                Err(_) => {
                    absorb_err(
                        &mut self.failed,
                        RunError::WorkerLost {
                            detail: "a pipeline worker exited without reporting".into(),
                        },
                    );
                    break;
                }
            }
        }
    }

    /// Supervised wait: poll with a timeout, watching per-stage progress
    /// counters and pool-thread liveness between polls. A deadline with
    /// no counter movement (or a dead thread) trips teardown: poison,
    /// diagnose, then give the surviving workers a grace window to
    /// report before abandoning them.
    fn collect_round_supervised(&mut self) {
        let poll = (self.deadline / 8).clamp(Duration::from_millis(2), Duration::from_millis(50));
        let mut reported = vec![false; self.num_stages];
        let mut got = 0usize;
        let mut last_counts: Vec<u64> = self
            .progress
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let mut last_advance = Instant::now();
        let mut tripped_at: Option<Instant> = None;
        while got < self.num_stages {
            match self.report_rx.recv_timeout(poll) {
                Ok(rep) => {
                    if !reported[rep.stage] {
                        reported[rep.stage] = true;
                        got += 1;
                    }
                    self.absorb_report(rep);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    absorb_err(
                        &mut self.failed,
                        RunError::WorkerLost {
                            detail: "a pipeline worker exited without reporting".into(),
                        },
                    );
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(t0) = tripped_at {
                        if t0.elapsed() >= TEARDOWN_GRACE {
                            break;
                        }
                        continue;
                    }
                    if let Some(dead) = self.threads.iter().position(|t| !t.is_alive()) {
                        self.poisoned.store(true, Ordering::Relaxed);
                        absorb_err(
                            &mut self.failed,
                            RunError::WorkerLost {
                                detail: format!("stage {dead} worker thread died mid-run"),
                            },
                        );
                        tripped_at = Some(Instant::now());
                        continue;
                    }
                    let counts: Vec<u64> = self
                        .progress
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect();
                    if counts != last_counts {
                        last_counts = counts;
                        last_advance = Instant::now();
                    } else if last_advance.elapsed() >= self.deadline {
                        self.poisoned.store(true, Ordering::Relaxed);
                        let detail = diagnose_stall(
                            self.deadline,
                            &last_counts,
                            &reported,
                            &self.part,
                            &self.shared,
                        );
                        absorb_err(&mut self.failed, RunError::Stalled { detail });
                        tripped_at = Some(Instant::now());
                    }
                }
            }
        }
        if tripped_at.is_some() {
            self.tripped = true;
            if P::ENABLED {
                if let Some(e) = self.failed.clone() {
                    self.coord.note("supervisor", &format!("tripped: {e}"));
                }
            }
        }
    }

    /// Tells every worker to finish, collects their results within the
    /// usual grace rules, and returns the threads to the pool (retiring
    /// the whole complement when any worker had to be abandoned mid-job
    /// — never re-park a thread that might still be executing an
    /// abandoned job). Collection errors land in `self.failed`.
    fn shutdown(&mut self) -> Vec<StageResult<P>> {
        self.done = true;
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Finish);
        }
        let mut results: Vec<StageResult<P>> = Vec::with_capacity(self.num_stages);
        let mut abandoned = false;
        if !self.supervised {
            for _ in 0..self.num_stages {
                match self.result_rx.recv() {
                    Ok(r) => results.push(r),
                    Err(_) => {
                        // Disconnection means every outstanding job ended
                        // (each holds a sender) — at least one without
                        // reporting, i.e. it panicked outside the
                        // contained run path.
                        if self.failed.is_none() {
                            self.failed = Some(RunError::WorkerLost {
                                detail: "a pipeline worker panicked outside its contained run path"
                                    .into(),
                            });
                        }
                        break;
                    }
                }
            }
        } else {
            let t0 = Instant::now();
            let mut have = vec![false; self.num_stages];
            while results.len() < self.num_stages {
                match self.result_rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(r) => {
                        if r.stage < have.len() {
                            have[r.stage] = true;
                        }
                        results.push(r);
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        // All jobs ended; a missing result means its
                        // thread died mid-job. The survivors already
                        // finished, so the pool's own liveness filtering
                        // suffices.
                        if self.failed.is_none() {
                            self.failed = Some(RunError::WorkerLost {
                                detail: "a pipeline worker panicked outside its contained run path"
                                    .into(),
                            });
                        }
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        let missing_all_dead = (0..self.num_stages)
                            .filter(|&s| !have[s])
                            .all(|s| !self.threads[s].is_alive());
                        let grace_over = self.tripped && t0.elapsed() >= TEARDOWN_GRACE;
                        if missing_all_dead || grace_over {
                            if self.failed.is_none() {
                                self.failed = Some(RunError::WorkerLost {
                                    detail: "stage workers were abandoned mid-run".into(),
                                });
                            }
                            abandoned = true;
                            break;
                        }
                    }
                }
            }
        }
        let threads = std::mem::take(&mut self.threads);
        if abandoned {
            if P::ENABLED {
                self.coord.note(
                    "supervisor",
                    &format!(
                        "retired {} pool workers after an abandoned run",
                        self.num_stages
                    ),
                );
            }
            pool::retire_global(threads);
        } else {
            // `result_rx` answered for every job (or disconnected,
            // meaning all jobs ended), so the surviving threads are idle
            // again.
            pool::release_global(threads);
        }
        results
    }

    /// Finishes the run: tears the workers down, absorbs the coordinator
    /// and worker probes into `probe`, and merges the outcome (whose
    /// `printed` holds the values not yet read).
    ///
    /// # Errors
    ///
    /// Reports the session's stored failure (or one discovered during
    /// teardown) instead of an outcome.
    pub fn finish(mut self, probe: &mut P) -> Result<PipelineOutcome, RunError> {
        let mut results = self.shutdown();
        let coord = std::mem::replace(&mut self.coord, probe.fork(0));
        probe.absorb(coord);
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        results.sort_by_key(|r| r.stage);
        let mut outcome = PipelineOutcome {
            printed: std::mem::take(&mut self.values),
            ops: OpCounter::default(),
            firings: 0,
            cycles: self.target,
            stages: self.num_stages,
        };
        for r in results {
            // Undrained leftovers (normally none) land after the drained
            // values; concatenation in stage order is exact because
            // printers share one stage.
            outcome.printed.extend(r.printed);
            outcome.ops.merge(&r.ops);
            outcome.firings += r.firings;
            probe.absorb(r.probe);
        }
        Ok(outcome)
    }
}

impl<P: Probe> Drop for PipelineSession<P> {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;
    use crate::linear_exec::MatMulStrategy;
    use crate::partition::partition;
    use crate::plan::{compile, PlanEngine};
    use streamlin_core::cost::CostModel;
    use streamlin_core::opt::OptStream;
    use streamlin_support::{InjectFaults, NoCount, NoFault, NoProbe};

    fn planned(src: &str) -> (FlatGraph, ExecPlan) {
        let p = streamlin_lang::parse(src).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let flat = flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap();
        let plan = compile(&flat).unwrap();
        (flat, plan)
    }

    fn run_with<T: Tally + Default + Send, F: FaultPlan>(
        src: &str,
        threads: usize,
        outputs: usize,
        fault: F,
        watchdog: Option<Duration>,
    ) -> Result<PipelineOutcome, RunError> {
        let (flat, plan) = planned(src);
        let part = partition(&flat, &plan, threads, &CostModel::default());
        run_pipeline_quantized::<T, NoProbe, F>(
            flat,
            &plan,
            &part,
            outputs,
            1,
            CYCLE_QUANTUM,
            &mut NoProbe,
            fault,
            watchdog,
        )
    }

    fn run_threads(src: &str, threads: usize, outputs: usize) -> PipelineOutcome {
        run_with::<OpCounter, _>(src, threads, outputs, NoFault, None).unwrap()
    }

    const CHAIN: &str = "void->void pipeline Main { add S(); add G(); add H(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
         float->float filter H { work peek 2 pop 1 push 1 { push(peek(1) - peek(0)); pop(); } }
         float->void filter K { work pop 1 { println(pop()); } }";

    #[test]
    fn pipeline_matches_plan_engine_output() {
        let (flat, plan) = planned(CHAIN);
        let mut seq = PlanEngine::<OpCounter>::new(flat, plan);
        seq.run_until_outputs(40).unwrap();
        let expected: Vec<f64> = seq.printed()[..40].to_vec();
        for threads in [1, 2, 3, 4] {
            let out = run_threads(CHAIN, threads, 40);
            assert!(out.printed.len() >= 40);
            assert_eq!(&out.printed[..40], &expected[..], "threads {threads}");
        }
    }

    #[test]
    fn tallies_are_identical_across_worker_counts() {
        let one = run_threads(CHAIN, 1, 64);
        for threads in [2, 4] {
            let many = run_threads(CHAIN, threads, 64);
            assert_eq!(one.cycles, many.cycles, "threads {threads}");
            assert_eq!(one.firings, many.firings, "threads {threads}");
            assert_eq!(one.ops, many.ops, "threads {threads}");
            assert_eq!(one.printed, many.printed, "threads {threads}");
        }
    }

    #[test]
    fn multirate_splitjoin_pipeline_is_exact() {
        const SJ: &str = "void->void pipeline Main { add S(); add SJ(); add C(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add G(10.0); add G(100.0);
                 join roundrobin;
             }
             float->float filter G(float k) { work pop 1 push 1 { push(k * pop()); } }
             float->float filter C { work pop 2 push 1 { push(pop() + pop()); } }
             float->void filter K { work pop 1 { println(pop()); } }";
        let (flat, plan) = planned(SJ);
        let mut seq = PlanEngine::<OpCounter>::new(flat, plan);
        seq.run_until_outputs(30).unwrap();
        let expected: Vec<f64> = seq.printed()[..30].to_vec();
        for threads in [2, 4] {
            let out = run_threads(SJ, threads, 30);
            assert_eq!(&out.printed[..30], &expected[..], "threads {threads}");
        }
    }

    #[test]
    fn init_phases_cross_boundaries() {
        // The peeking filter needs a 2-item prologue from the source; with
        // a cut between them the prologue flows through the SPSC ring.
        const PEEKY: &str = "void->void pipeline Main { add S(); add D(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter D {
                 work peek 3 pop 1 push 1 { push(peek(2) - peek(0)); pop(); }
             }
             float->void filter K { work pop 1 { println(pop()); } }";
        let out = run_threads(PEEKY, 3, 10);
        assert_eq!(&out.printed[..3], &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn uncounted_mode_prints_identical_bits() {
        let fast = run_with::<NoCount, _>(CHAIN, 2, 50, NoFault, None).unwrap();
        let counted = run_threads(CHAIN, 2, 50);
        assert_eq!(fast.printed.len(), counted.printed.len());
        for (a, b) in fast.printed.iter().zip(&counted.printed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.ops, OpCounter::default());
    }

    #[test]
    fn rate_violations_poison_the_pipeline() {
        const BAD: &str = "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 2 { push(x); if (x > 0.5) push(x); x = x + 1; } }
             float->void filter K { work pop 1 { println(pop()); } }";
        let err = run_with::<OpCounter, _>(BAD, 2, 5, NoFault, None).unwrap_err();
        assert!(matches!(err, RunError::RateViolation(_)), "{err}");
    }

    #[test]
    fn conditional_printers_survive_silent_cycles() {
        const SPARSE: &str = "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->void filter K {
                 int c;
                 work pop 1 {
                     c++;
                     if (c % 3 == 0) println(pop()); else pop();
                 }
             }";
        let out = run_threads(SPARSE, 2, 3);
        assert_eq!(&out.printed[..3], &[2.0, 5.0, 8.0]);
    }

    #[test]
    fn injected_panic_is_a_structured_worker_loss() {
        let fault = InjectFaults::parse("11:panic@s1").unwrap();
        let err = run_with::<OpCounter, _>(CHAIN, 2, 40, fault, None).unwrap_err();
        assert!(matches!(err, RunError::WorkerLost { .. }), "{err}");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(err.is_degradable());
    }

    #[test]
    fn watchdog_trips_on_a_wedged_stage() {
        let fault = InjectFaults::parse("3:wedge@s0").unwrap();
        let t0 = Instant::now();
        let watchdog = Some(Duration::from_millis(250));
        let err = run_with::<OpCounter, _>(CHAIN, 2, 40, fault, watchdog).unwrap_err();
        assert!(matches!(err, RunError::Stalled { .. }), "{err}");
        assert!(err.to_string().contains("watchdog"), "{err}");
        // Trip + teardown must be prompt: deadline, grace, slack — not a
        // hang (the pre-supervision executor span here forever).
        assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());
    }

    #[test]
    fn output_preserving_faults_keep_bits_identical() {
        let clean = run_threads(CHAIN, 2, 40);
        let fault = InjectFaults::parse("5:slow@s0=40,delay=20").unwrap();
        let out = run_with::<OpCounter, _>(CHAIN, 2, 40, fault, None).unwrap();
        assert_eq!(out.printed, clean.printed);
        assert_eq!(out.ops, clean.ops);
        assert_eq!(out.firings, clean.firings);
    }

    #[test]
    fn quantum_values_parse_or_explain() {
        assert_eq!(parse_quantum("8"), Ok(8));
        assert_eq!(parse_quantum("  1\n"), Ok(1));
        for bad in ["0", "-3", "4.5", "four", ""] {
            let why = parse_quantum(bad).unwrap_err();
            assert!(
                why.contains("STREAMLIN_CYCLE_QUANTUM"),
                "error should name the variable: {why}"
            );
        }
    }

    #[test]
    fn explicit_quantum_bypasses_environment() {
        // Explicit requests never consult the environment, so this is
        // deterministic regardless of the test runner's env.
        assert_eq!(resolve_quantum_checked(7), Ok(7));
        assert_eq!(resolve_quantum(7), 7);
    }
}
