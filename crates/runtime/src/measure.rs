//! The run API: one [`RunSpec`] through one compile path ([`compile`])
//! and one session path ([`crate::session::open_session`]); [`run`] is
//! the one-shot composition of the two.
//!
//! Mirrors the paper's measurement methodology (§5.1): programs run for a
//! fixed number of outputs; floating-point operations and multiplications
//! are counted over the whole run and normalized per output, and wall-clock
//! time is recorded alongside.

use std::time::{Duration, Instant};

use streamlin_core::cost::CostModel;
use streamlin_core::opt::OptStream;
use streamlin_support::{FaultPlan, InjectFaults, NoFault, NoProbe, OpCounter, Probe, Recorder};

use crate::engine::RunError;
use crate::fission::{self, Fission};
use crate::flat::{flatten, FlatGraph, FlattenError, Tier};
use crate::linear_exec::MatMulStrategy;
use crate::parallel::resolve_quantum;
use crate::partition::{partition, Partition};
use crate::plan::{self, ExecPlan, PlanError};
use crate::session::{open_graphs, Instruments};

/// Which scheduler executes the flattened graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheduler {
    /// Compile a static plan; fall back to the data-driven engine when the
    /// graph has no plan (feedback loops). The default.
    #[default]
    Auto,
    /// Require the compiled static plan; error if none exists.
    Static,
    /// Always use the data-driven engine.
    Dynamic,
}

impl Scheduler {
    /// Short label used in tables and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            Scheduler::Auto => "auto",
            Scheduler::Static => "static",
            Scheduler::Dynamic => "dynamic",
        }
    }
}

/// Whether execution pays for instruction accounting.
///
/// The paper's experiments (§5.1) count every floating-point instruction;
/// our runtime reproduces that with [`OpCounter`]. Production execution
/// should not carry that tax, so the kernels are generic over
/// [`streamlin_support::Tally`] and sessions monomorphize the whole
/// engine twice:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Count every floating-point operation ([`streamlin_support::CountOps`]).
    /// The default, and the only mode whose [`Profile::ops`] is meaningful.
    #[default]
    Measured,
    /// Bare arithmetic ([`streamlin_support::NoCount`]): the same kernels
    /// monomorphized with a zero-sized tally — bit-identical outputs, no
    /// counting overhead, vectorizable inner loops. [`Profile::ops`] is
    /// all zeros.
    Fast,
}

impl ExecMode {
    /// Short label used in tables and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Measured => "measured",
            ExecMode::Fast => "fast",
        }
    }

    /// The matrix-multiply strategy this mode ships with when the caller
    /// doesn't pick one explicitly: the paper's unrolled kernel for the
    /// measured experiment, the vectorized dense kernel for production.
    pub fn default_strategy(self) -> MatMulStrategy {
        match self {
            ExecMode::Measured => MatMulStrategy::Unrolled,
            ExecMode::Fast => MatMulStrategy::Simd,
        }
    }
}

/// Measured results of one program execution.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The captured program output (printed values), in order — truncated
    /// to exactly the requested count so different schedulers (which may
    /// overshoot by different amounts) are directly comparable.
    pub outputs: Vec<f64>,
    /// Operation counts over the whole run.
    pub ops: OpCounter,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Total node firings.
    pub firings: u64,
    /// The scheduler that actually ran ([`Scheduler::Static`] or
    /// [`Scheduler::Dynamic`], never `Auto`).
    pub sched: Scheduler,
    /// The execution mode that ran ([`ExecMode::Fast`] leaves `ops` at
    /// zero).
    pub mode: ExecMode,
    /// Worker threads that executed the run (1 unless the pipeline
    /// executor ran; the dynamic fallback is always single-threaded).
    pub threads: usize,
    /// Data-parallel fission width that was applied to the dominant node
    /// (1 = the graph ran unfissed; see [`crate::fission`]).
    pub fission: usize,
    /// `Some(reason)` when the supervised pipeline run failed with a
    /// degradable error ([`RunError::is_degradable`]) and the results
    /// came from the graceful single-threaded replay instead; `None` for
    /// a run that completed on its intended executor. The outputs of a
    /// degraded run are bit-identical to the undegraded ones — the replay
    /// runs the canonical static plan, which every executor is pinned
    /// against.
    pub degraded: Option<String>,
}

impl Profile {
    /// Floating-point operations per program output.
    pub fn flops_per_output(&self) -> f64 {
        self.ops.flops() as f64 / self.outputs.len().max(1) as f64
    }

    /// Multiplications (incl. divisions, per the paper's convention) per
    /// program output.
    pub fn mults_per_output(&self) -> f64 {
        self.ops.mults() as f64 / self.outputs.len().max(1) as f64
    }

    /// Nanoseconds per program output.
    pub fn nanos_per_output(&self) -> f64 {
        self.wall.as_nanos() as f64 / self.outputs.len().max(1) as f64
    }
}

/// Errors from profiling.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The stream could not be lowered.
    Flatten(FlattenError),
    /// The run failed.
    Run(RunError),
    /// A static plan was required ([`Scheduler::Static`]) but the graph
    /// has none.
    Plan(PlanError),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Flatten(e) => write!(f, "{e}"),
            ProfileError::Run(e) => write!(f, "{e}"),
            ProfileError::Plan(e) => write!(f, "no static schedule: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<FlattenError> for ProfileError {
    fn from(e: FlattenError) -> Self {
        ProfileError::Flatten(e)
    }
}

impl From<RunError> for ProfileError {
    fn from(e: RunError) -> Self {
        ProfileError::Run(e)
    }
}

impl From<PlanError> for ProfileError {
    fn from(e: PlanError) -> Self {
        ProfileError::Plan(e)
    }
}

/// Everything that selects how one run executes: the one value every
/// execution entry point takes ([`compile`],
/// [`crate::session::open_session`], [`run`]). Environment variables
/// never reach the runtime; the CLI and daemon read them once into this
/// spec.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Program outputs a one-shot [`run`] produces.
    pub outputs: usize,
    pub sched: Scheduler,
    pub mode: ExecMode,
    /// Matrix-multiply strategy; `None` takes the mode's default
    /// ([`ExecMode::default_strategy`]).
    pub matmul: Option<MatMulStrategy>,
    /// Pipeline stage budget: `Some(n)` runs the static plan on the
    /// pipeline-parallel executor over at most `n` cost-balanced stages
    /// ([`mod@crate::partition`], [`crate::parallel`]); tallies and firing
    /// counts are identical across thread counts. `None` runs the
    /// single-threaded engines.
    pub threads: Option<usize>,
    /// Data-parallel fission of the dominant node ([`crate::fission`]).
    /// Fission runs on the pipeline executor, so a lone fission request
    /// implies a one-stage pipeline ([`RunSpec::pipeline_threads`]).
    pub fission: Fission,
    /// Cycle quantum of the pipeline pacing protocol, in original steady
    /// cycles; `0` resolves through [`crate::parallel::resolve_quantum`].
    /// Also bounds fission's cycle expansion (the scale must divide it).
    pub quantum: u64,
    /// Wall-clock no-progress deadline for the pipeline watchdog. `None`
    /// leaves the blocking coordinator in place (armed fault plans still
    /// get a built-in deadline so injection can never hang a run).
    pub watchdog: Option<Duration>,
    /// Keep the canonical pre-fission plan so a *degradable* pipeline
    /// failure ([`RunError::is_degradable`]: a stall or a lost worker,
    /// never a program error) replays on the single-threaded static plan
    /// and reports [`Profile::degraded`].
    pub fallback: bool,
    /// How interpreted filters execute (bit-identical across tiers).
    pub tier: Tier,
}

impl RunSpec {
    /// `outputs` values under every default: auto scheduler, measured
    /// mode, single-threaded, no fission, default quantum and tier, no
    /// watchdog, no fallback.
    pub fn new(outputs: usize) -> Self {
        RunSpec {
            outputs,
            sched: Scheduler::Auto,
            mode: ExecMode::Measured,
            matmul: None,
            threads: None,
            fission: Fission::Off,
            quantum: 0,
            watchdog: None,
            fallback: false,
            tier: Tier::default(),
        }
    }

    /// The matrix-multiply strategy the run executes with.
    pub fn strategy(&self) -> MatMulStrategy {
        self.matmul.unwrap_or_else(|| self.mode.default_strategy())
    }

    /// The pipeline stage budget after normalization: `threads`, or one
    /// stage when fission is requested without a thread count.
    pub fn pipeline_threads(&self) -> Option<usize> {
        match (self.threads, self.fission) {
            (None, Fission::Off) => None,
            (threads, _) => Some(threads.unwrap_or(1)),
        }
    }
}

/// A compiled program, ready to open sessions on: the output of
/// [`compile`], shared by the daemon's plan cache across streams.
#[derive(Debug)]
pub struct Artifact {
    /// The graph to execute: post-fission when the pass engaged.
    pub flat: FlatGraph,
    /// The compiled static schedule; `None` = data-driven execution
    /// (feedback loops under `auto`, or [`Scheduler::Dynamic`]).
    pub plan: Option<ExecPlan>,
    /// The pipeline partition, present when the run has a stage budget
    /// and a plan.
    pub part: Option<Partition>,
    /// The canonical *pre-fission* graph and plan: the single-threaded
    /// replay source for graceful degradation, kept for pipeline
    /// artifacts when [`RunSpec::fallback`] is on.
    pub canonical: Option<(FlatGraph, ExecPlan)>,
    /// Original steady cycles one post-fission cycle spans.
    pub scale: u64,
    /// Fission width that was actually applied (1 = unfissed).
    pub width: usize,
    /// Resolved cycle quantum baked into this artifact.
    pub quantum: u64,
    /// Wall-clock cost of compilation, in milliseconds.
    pub compile_ms: f64,
}

impl Artifact {
    /// Worker threads a session of this artifact occupies (the
    /// partition's actual stage count, which may be below the requested
    /// budget); 1 for single-threaded execution.
    pub fn workers_needed(&self) -> usize {
        self.part.as_ref().map_or(1, |p| p.num_stages)
    }
}

/// Compiles an optimized stream for `spec`: flatten → plan → fission →
/// partition, plus the canonical pre-fission pair when fallback is on.
/// The tier is not applied here (sessions apply it to their own copy),
/// so one artifact serves every tier. An enabled probe records the
/// compile phases, the node names and cost-model predictions of the
/// graph that executes, and the `fission`/`schedule`/`pipeline`
/// decision notes. `fault` can veto fission (the `nofission` drill).
///
/// # Errors
///
/// Flattening errors; [`ProfileError::Plan`] when
/// [`Scheduler::Static`] is requested for a graph with no static
/// schedule (e.g. a feedback loop).
pub fn compile<P: Probe>(
    opt: &OptStream,
    spec: &RunSpec,
    probe: &mut P,
    fault: Option<&InjectFaults>,
) -> Result<Artifact, ProfileError> {
    let start = Instant::now();
    let t0 = probe.now();
    let flat = flatten(opt, spec.strategy())?;
    if P::ENABLED {
        probe.phase("flatten", t0);
    }
    let t0 = probe.now();
    let plan = match spec.sched {
        Scheduler::Dynamic => None,
        Scheduler::Static => Some(plan::compile(&flat)?),
        // `has_feedback` is a cheap structural pre-check; the compiler
        // still validates everything else (rates, bounds).
        Scheduler::Auto if opt.has_feedback() => None,
        Scheduler::Auto => plan::compile(&flat).ok(),
    };
    if P::ENABLED {
        probe.phase("plan", t0);
    }
    let threads = spec.pipeline_threads();
    let canonical = match (&plan, threads) {
        (Some(p), Some(_)) if spec.fallback => Some((flat.clone(), p.clone())),
        _ => None,
    };
    // Fission rewrites the flat graph; under `Scheduler::Dynamic` the
    // plan is still compiled (when possible) purely to drive the fission
    // decision, and the fissed graph then runs data-driven — the fuzz
    // suite differentially checks that path too.
    let quantum = resolve_quantum(spec.quantum);
    let (keep_plan, fiss_plan) = match (plan, spec.sched) {
        (Some(plan), _) => (true, Some(plan)),
        (None, Scheduler::Dynamic) if spec.fission != Fission::Off => {
            (false, plan::compile(&flat).ok())
        }
        (None, _) => (false, None),
    };
    let (flat, plan, scale, width) = match fiss_plan {
        Some(plan) => {
            let fission = spec.fission;
            let pipeline = threads.unwrap_or(1);
            let (f, p, s, w) = apply_fission(flat, plan, fission, pipeline, probe, fault, quantum);
            (f, keep_plan.then_some(p), s, w)
        }
        None => (flat, None, 1, 1),
    };
    let model = CostModel::default();
    if P::ENABLED {
        // Name the nodes of the graph that actually executes (including
        // fission duplicates) and record the cost model's per-firing
        // predictions, so the metrics report can show measured-vs-
        // predicted per node.
        for (i, node) in flat.nodes.iter().enumerate() {
            probe.node_name(i, &node.name);
            probe.node_cost(i, crate::partition::firing_cost(node, &model));
        }
        match &plan {
            Some(p) => probe.note("schedule", &p.summary()),
            None => probe.note("schedule", "data-driven (no static plan)"),
        }
    }
    let part = match (&plan, threads) {
        (Some(p), Some(threads)) => {
            let t0 = probe.now();
            let part = partition(&flat, p, threads, &model);
            if P::ENABLED {
                probe.phase("partition", t0);
                probe.note("pipeline", &part.summary());
            }
            Some(part)
        }
        _ => None,
    };
    Ok(Artifact {
        flat,
        plan,
        part,
        canonical,
        scale,
        width,
        quantum,
        compile_ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

/// Runs an optimized stream until it produces `spec.outputs` values and
/// returns the measurements: [`compile`], then
/// [`crate::session::open_session`], one read, and close. Outputs are
/// bit-identical for every scheduler, mode, thread count, fission width
/// and tier; tallies and firing counts are identical across thread
/// counts and fission widths.
///
/// `rec` collects compile phases, firing batches, stalls, ring
/// occupancy and the run's decision notes (which `streamlinc` prints
/// under `--emit-graph`); `fault` arms the deterministic injection sites
/// of the pipeline executor, the worker pool and the fission pass (see
/// [`streamlin_support::fault`]). Single-threaded runs execute unfaulted.
///
/// # Errors
///
/// As [`compile`], plus execution errors; with fallback off,
/// [`RunError::Stalled`]/[`RunError::WorkerLost`] from the supervisor.
pub fn run(
    opt: &OptStream,
    spec: &RunSpec,
    mut rec: Option<&mut Recorder>,
    fault: Option<&InjectFaults>,
) -> Result<Profile, ProfileError> {
    let mut art = match rec.as_deref_mut() {
        Some(r) => compile(opt, spec, r, fault)?,
        None => compile(opt, spec, &mut NoProbe, fault)?,
    };
    let instruments = Instruments {
        rec: rec.as_deref_mut().map(std::mem::take),
        fault: fault.map(InjectFaults::fork),
    };
    let sched = if art.plan.is_some() {
        Scheduler::Static
    } else {
        Scheduler::Dynamic
    };
    let (threads, fission) = (art.workers_needed(), art.width);
    let start = Instant::now();
    // The artifact is this run's alone: hand its graphs over uncopied.
    let graphs = (std::mem::take(&mut art.flat), art.canonical.take());
    let mut exec = open_graphs(&art, graphs, spec, instruments)?;
    drop(art);
    let read = exec.read(spec.outputs);
    let report = exec.close();
    if let (Some(slot), Some(r)) = (rec, report.probe) {
        *slot = r;
    }
    let outputs = read?.values;
    let degraded = report.degraded;
    Ok(Profile {
        wall: start.elapsed(),
        outputs,
        ops: report.ops,
        firings: report.firings,
        sched,
        mode: spec.mode,
        threads: if degraded.is_some() { 1 } else { threads },
        fission: if degraded.is_some() { 1 } else { fission },
        degraded,
    })
}

/// Supervisor configuration for [`profile_supervised`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Supervision {
    /// As [`RunSpec::watchdog`].
    pub watchdog: Option<Duration>,
    /// As [`RunSpec::fallback`].
    pub fallback: bool,
    /// As [`RunSpec::quantum`].
    pub quantum: u64,
}

/// [`run`] under positional arguments. This adapter exists for the
/// benchmark tracer (`streambench/tracer`), which builds against this
/// signature; everything else calls [`run`] with a [`RunSpec`].
///
/// # Errors
///
/// As [`run`].
#[allow(clippy::too_many_arguments)]
pub fn profile_supervised(
    opt: &OptStream,
    outputs: usize,
    strategy: MatMulStrategy,
    sched: Scheduler,
    mode: ExecMode,
    threads: Option<usize>,
    fission: Fission,
    sup: &Supervision,
    fault: Option<&InjectFaults>,
    rec: Option<&mut Recorder>,
) -> Result<Profile, ProfileError> {
    let spec = RunSpec {
        matmul: Some(strategy),
        sched,
        mode,
        threads,
        fission,
        watchdog: sup.watchdog,
        fallback: sup.fallback,
        quantum: sup.quantum,
        ..RunSpec::new(outputs)
    };
    run(opt, &spec, rec, fault)
}

/// Applies the fission pass to a planned graph, recompiling the plan.
/// Returns the graph to execute, its plan, the cycle scale and the width.
/// The decision — engagement summary or refusal reason — is recorded as a
/// `fission` note on the probe, so instrumented runs surface *why* the
/// pass did or did not fire.
fn apply_fission<P: Probe>(
    flat: FlatGraph,
    plan: ExecPlan,
    fission: Fission,
    threads: usize,
    probe: &mut P,
    fault: Option<&InjectFaults>,
    quantum: u64,
) -> (FlatGraph, ExecPlan, u64, usize) {
    if fission == Fission::Off {
        probe.note("fission", "off");
        return (flat, plan, 1, 1);
    }
    let t0 = probe.now();
    let model = CostModel::default();
    let fissed = match fault {
        Some(f) => fission::fiss_bottleneck(&flat, &plan, fission, threads, &model, f, quantum),
        None => fission::fiss_bottleneck(&flat, &plan, fission, threads, &model, &NoFault, quantum),
    };
    match fissed {
        Ok((fissed, info)) => match plan::compile(&fissed) {
            Ok(p2) => {
                if P::ENABLED {
                    probe.phase("fission", t0);
                    probe.note("fission", &info.summary());
                }
                (fissed, p2, info.scale, info.width)
            }
            // A fissed graph that exceeds plan bounds falls back whole.
            Err(e) => {
                if P::ENABLED {
                    probe.note(
                        "fission",
                        &format!(
                            "none ({} planned, but its schedule failed: {e})",
                            info.summary()
                        ),
                    );
                }
                (flat, plan, 1, 1)
            }
        },
        Err(reason) => {
            if P::ENABLED {
                probe.note("fission", &format!("none ({reason})"));
            }
            (flat, plan, 1, 1)
        }
    }
}

/// Asserts two program outputs agree (element-wise, with tolerance
/// suitable for frequency-domain round-trips); returns the first
/// mismatch if any.
pub fn first_mismatch(a: &[f64], b: &[f64], atol: f64, rtol: f64) -> Option<usize> {
    let n = a.len().min(b.len());
    (0..n).find(|&i| !streamlin_support::num::approx_eq(a[i], b[i], atol, rtol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_core::combine::{analyze_graph, replace, ReplaceOptions};

    fn profile(opt: &OptStream, n: usize) -> Profile {
        run(opt, &RunSpec::new(n), None, None).unwrap()
    }

    const PROGRAM: &str = "
        void->void pipeline Main { add S(); add F(8); add F(6); add K(); }
        void->float filter S { float x; work push 1 { push(sin(x++)); } }
        float->float filter F(int N) {
            float[N] h;
            init { for (int i=0;i<N;i++) h[i] = 1.0 / (i + 1); }
            work peek N pop 1 push 1 {
                float s = 0;
                for (int i=0;i<N;i++) s += h[i]*peek(i);
                push(s); pop();
            }
        }
        float->void filter K { work pop 1 { println(pop()); } }
    ";

    #[test]
    fn every_configuration_produces_identical_output() {
        let p = streamlin_lang::parse(PROGRAM).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let analysis = analyze_graph(&g);
        let n = 300;

        let baseline = profile(&replace(&g, &analysis, &ReplaceOptions::per_filter()), n);
        let interp = profile(&OptStream::from_graph(&g), n);
        let linear = profile(
            &replace(&g, &analysis, &ReplaceOptions::maximal_linear()),
            n,
        );
        let freq = profile(&replace(&g, &analysis, &ReplaceOptions::maximal_freq()), n);

        assert_eq!(
            first_mismatch(&baseline.outputs, &interp.outputs, 1e-9, 1e-9),
            None
        );
        assert_eq!(
            first_mismatch(&baseline.outputs, &linear.outputs, 1e-9, 1e-9),
            None
        );
        assert_eq!(
            first_mismatch(&baseline.outputs, &freq.outputs, 1e-6, 1e-6),
            None
        );
    }

    #[test]
    fn combination_reduces_multiplications() {
        let p = streamlin_lang::parse(PROGRAM).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let analysis = analyze_graph(&g);
        let n = 500;
        let baseline = profile(&replace(&g, &analysis, &ReplaceOptions::per_filter()), n);
        let linear = profile(
            &replace(&g, &analysis, &ReplaceOptions::maximal_linear()),
            n,
        );
        // 8 + 6 mults/output separately vs 13 combined.
        assert!(
            linear.mults_per_output() < baseline.mults_per_output(),
            "combined {} vs baseline {}",
            linear.mults_per_output(),
            baseline.mults_per_output()
        );
    }

    #[test]
    fn interpreted_baseline_counts_the_same_multiplications() {
        // The work-function interpreter and the per-filter linear executor
        // perform the same arithmetic — the substitution argument of
        // DESIGN.md, checked.
        let p = streamlin_lang::parse(PROGRAM).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let analysis = analyze_graph(&g);
        let n = 200;
        let interp = profile(&OptStream::from_graph(&g), n);
        let node_based = profile(&replace(&g, &analysis, &ReplaceOptions::per_filter()), n);
        let a = interp.mults_per_output();
        let b = node_based.mults_per_output();
        assert!(
            (a - b).abs() / a < 0.05,
            "interp {a} vs node {b} mults/output"
        );
    }
}
