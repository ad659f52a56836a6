//! Resident sessions: engine state that persists across reads.
//!
//! [`open_session`] instantiates a compiled [`Artifact`] as a
//! [`StreamExec`] — the view of a stream program as a long-lived stateful
//! process whose output is consumed in ordered batches. A one-shot
//! [`crate::measure::run`] is a session read once; the `streamlind`
//! daemon keeps one per named stream. Three engine families back a
//! session:
//!
//! * **pipeline** ([`PipelineSession`]): the artifact carries a
//!   partition; stage workers park on the process-wide pool between
//!   reads and every read extends the same paced run;
//! * **static plan** ([`PlanEngine`]): single-threaded, cursor kept
//!   across calls;
//! * **data-driven** ([`Engine`]): the fallback for unplannable graphs.
//!
//! The tally (the spec's mode), the probe and the fault plan come in as
//! runtime values and are monomorphized here, in the one tally × probe ×
//! fault dispatch of the workspace. Each session applies the spec's
//! [`crate::flat::Tier`] to its own copy of the graph, so artifacts stay
//! tier-neutral and concurrent sessions never share a tier switch.
//! A stream's value sequence is a deterministic prefix of the program's
//! output, independent of read batching and of neighbor sessions.
//!
//! A session keeps no copy of what it delivered: every backend hands
//! a read's values over and retains only the overshoot past the read
//! goal (the rest of a firing, or of a pipeline quantum).
//!
//! **Degradation** is per session: a degradable failure
//! ([`RunError::is_degradable`] — a stall or a lost worker) tears down
//! the pipeline, rebuilds the canonical single-threaded plan engine from
//! the artifact's pre-fission pair, fast-forwards it past the values
//! already delivered ([`CHUNK`] values at a time, dropping each; the
//! count lands in a `replay` recorder note), and keeps serving. This is
//! the only replay path.

use streamlin_support::{
    InjectFaults, NoCount, NoFault, NoProbe, OpCounter, Probe, Recorder, Tally,
};

use crate::engine::{Engine, RunError};
use crate::flat::{FlatGraph, Tier};
use crate::measure::{Artifact, ExecMode, RunSpec};
use crate::parallel::PipelineSession;
use crate::plan::{ExecPlan, PlanEngine};

/// Values a one-shot [`crate::measure::run_streaming`] reads per session
/// read, and the step of a degraded session's fast-forward: the bound
/// on the values either holds at once.
pub const CHUNK: usize = 8192;

/// The instruments a session carries: a [`Recorder`] for telemetry and a
/// fault plan for drills (neither: the production engines).
#[derive(Debug)]
pub struct Instruments {
    pub rec: Option<Recorder>,
    /// Arms the pipeline's injection sites (single-threaded sessions
    /// have none).
    pub fault: Option<InjectFaults>,
}

/// One batch of values out of a stream, plus whether this read is the
/// one that degraded the stream (the server releases the surplus worker
/// claim exactly once, on that transition).
pub struct ReadOut {
    pub values: Vec<f64>,
    pub just_degraded: Option<String>,
}

/// Final accounting handed back when a stream closes.
pub struct CloseReport {
    /// Values delivered over the stream's lifetime.
    pub delivered: usize,
    /// Operation counts (all-zero under [`ExecMode::Fast`]).
    pub ops: OpCounter,
    pub firings: u64,
    /// The degradation reason, if the stream fell back mid-life.
    pub degraded: Option<String>,
    /// The session's recorder, when it ran instrumented.
    pub probe: Option<Recorder>,
}

/// The object-safe face of a resident engine: callers hold
/// `Box<dyn StreamExec>`, so one type covers every monomorphization
/// (tally × probe × fault × engine family).
pub trait StreamExec: Send {
    /// Produces the next `n` values of the stream, in order.
    ///
    /// # Errors
    ///
    /// Non-degradable engine failures (program errors recur identically
    /// on any executor, so they are surfaced, not degraded).
    fn read(&mut self, n: usize) -> Result<ReadOut, RunError>;
    /// Values delivered so far.
    fn delivered(&self) -> usize;
    /// Whether (and why) the stream has degraded to the single-threaded
    /// plan.
    fn degraded(&self) -> Option<&str>;
    /// Tears the engine down and reports final accounting.
    fn close(self: Box<Self>) -> CloseReport;
}

/// Opens a resident session on `art` under `spec`'s mode, watchdog and
/// tier. A pipeline whose setup fails degradably (e.g. the pool refused
/// threads) starts life on the canonical single-threaded plan when the
/// artifact kept one.
///
/// # Errors
///
/// Pipeline setup failures that cannot degrade (pool refusals surface
/// as [`RunError::WorkerLost`]).
pub fn open_session(
    art: &Artifact,
    spec: &RunSpec,
    instruments: Instruments,
) -> Result<Box<dyn StreamExec>, RunError> {
    let graphs = (art.flat.clone(), art.canonical.clone());
    open_graphs(art, graphs, spec, instruments)
}

/// A session's own graph and canonical pair.
pub(crate) type Graphs = (FlatGraph, Option<(FlatGraph, ExecPlan)>);

/// [`open_session`] on graphs the caller hands over: a one-shot run
/// moves them out of its artifact instead of copying them.
pub(crate) fn open_graphs(
    art: &Artifact,
    graphs: Graphs,
    spec: &RunSpec,
    instruments: Instruments,
) -> Result<Box<dyn StreamExec>, RunError> {
    let graphs = with_tier(graphs, spec.tier);
    let Instruments { rec, fault } = instruments;
    Ok(match (spec.mode, rec) {
        (ExecMode::Measured, None) => Box::new(open_with::<OpCounter, _>(
            art, graphs, spec, NoProbe, fault,
        )?),
        (ExecMode::Measured, Some(r)) => {
            Box::new(open_with::<OpCounter, _>(art, graphs, spec, r, fault)?)
        }
        (ExecMode::Fast, None) => {
            Box::new(open_with::<NoCount, _>(art, graphs, spec, NoProbe, fault)?)
        }
        (ExecMode::Fast, Some(r)) => {
            Box::new(open_with::<NoCount, _>(art, graphs, spec, r, fault)?)
        }
    })
}

/// A probe that can hand its telemetry back at close.
trait ProbeReport: Probe + Send + 'static {
    fn report(self) -> Option<Recorder>;
}

impl ProbeReport for NoProbe {
    fn report(self) -> Option<Recorder> {
        None
    }
}

impl ProbeReport for Recorder {
    fn report(self) -> Option<Recorder> {
        Some(self)
    }
}

fn open_with<T, P>(
    art: &Artifact,
    (flat, mut canonical): Graphs,
    spec: &RunSpec,
    mut probe: P,
    fault: Option<InjectFaults>,
) -> Result<Session<T, P>, RunError>
where
    T: Tally + Default + Send + 'static,
    P: ProbeReport,
{
    if P::ENABLED {
        probe.note("tier", &spec.tier.label());
    }
    let mut degraded = None;
    let backend = match (&art.part, &art.plan) {
        (Some(part), Some(plan)) => {
            let (scale, quantum, watchdog) = (art.scale, art.quantum, spec.watchdog);
            let started = match fault {
                Some(f) => PipelineSession::start::<T, InjectFaults>(
                    flat, plan, part, scale, quantum, &mut probe, f, watchdog,
                ),
                None => PipelineSession::start::<T, NoFault>(
                    flat, plan, part, scale, quantum, &mut probe, NoFault, watchdog,
                ),
            };
            match started {
                Ok(s) => Backend::Pipe(s),
                Err(e) if e.is_degradable() && canonical.is_some() => {
                    degraded = Some(e.to_string());
                    let pair = canonical.take().expect("checked above");
                    Backend::Plan(fallback(pair, &e, &mut probe))
                }
                Err(e) => return Err(e),
            }
        }
        (None, Some(plan)) => {
            if P::ENABLED {
                probe.lane_name(1, "engine");
            }
            Backend::Plan(PlanEngine::new(flat, plan.clone()))
        }
        (_, None) => {
            if P::ENABLED {
                probe.lane_name(1, "engine (dynamic)");
            }
            Backend::Dyn(Engine::new(flat))
        }
    };
    Ok(Session {
        backend,
        probe,
        canonical,
        handed: 0,
        degraded,
    })
}

/// Applies `tier` to a session's graphs (the artifact they were taken
/// from stays tier-neutral).
fn with_tier((mut flat, mut canonical): Graphs, tier: Tier) -> Graphs {
    flat.set_tier(tier);
    if let Some((f, _)) = &mut canonical {
        f.set_tier(tier);
    }
    (flat, canonical)
}

/// The canonical single-threaded replay engine for a failed pipeline.
fn fallback<T: Tally + Default, P: Probe>(
    (flat, plan): (FlatGraph, ExecPlan),
    cause: &RunError,
    probe: &mut P,
) -> PlanEngine<T> {
    if P::ENABLED {
        probe.note(
            "supervisor",
            &format!("degraded: {cause}; replaying on the single-threaded static plan"),
        );
        probe.lane_name(1, "engine (fallback)");
    }
    PlanEngine::new(flat, plan)
}

enum Backend<T: Tally, P: Probe> {
    Pipe(PipelineSession<P>),
    Plan(PlanEngine<T>),
    Dyn(Engine<T>),
}

struct Session<T: Tally, P: ProbeReport> {
    backend: Backend<T, P>,
    probe: P,
    /// Replay source while a pipeline may still degrade.
    canonical: Option<(FlatGraph, ExecPlan)>,
    /// Values handed to the caller so far (the fast-forward target on
    /// degradation).
    handed: usize,
    degraded: Option<String>,
}

impl<T: Tally + Default + Send + 'static, P: ProbeReport> Session<T, P> {
    /// Replaces the dead pipeline with the canonical plan engine,
    /// fast-forwarded past everything already delivered. Bit-identity of
    /// the continuation is the executors' shared determinism contract.
    fn degrade(&mut self, cause: &RunError) -> Result<(), RunError> {
        let pair = self
            .canonical
            .take()
            .expect("degrade needs a canonical pair");
        let engine = fallback(pair, cause, &mut self.probe);
        if let Backend::Pipe(dead) = std::mem::replace(&mut self.backend, Backend::Plan(engine)) {
            // Absorb the dead session's telemetry; its stored failure is
            // expected here, so the result is dropped deliberately.
            let _ = dead.finish(&mut self.probe);
        }
        if let Backend::Plan(engine) = &mut self.backend {
            // Fast-forward past what the caller already holds, one chunk
            // at a time, so the replay never holds more than a chunk.
            let t0 = self.probe.now();
            let mut skipped = 0;
            while skipped < self.handed {
                let n = CHUNK.min(self.handed - skipped);
                engine.run_probed(skipped + n, &mut self.probe)?;
                drop(engine.take_printed(n));
                skipped += n;
            }
            if P::ENABLED {
                let ms = self.probe.now().saturating_sub(t0) as f64 / 1e6;
                let chunks = self.handed.div_ceil(CHUNK);
                self.probe.note(
                    "replay",
                    &format!(
                        "fast-forwarded {skipped} delivered values in {chunks} chunk(s) \
                         ({ms:.3} ms)"
                    ),
                );
            }
        }
        self.degraded = Some(cause.to_string());
        Ok(())
    }
}

impl<T: Tally + Default + Send + 'static, P: ProbeReport> StreamExec for Session<T, P> {
    fn read(&mut self, n: usize) -> Result<ReadOut, RunError> {
        let goal = self.handed + n;
        let mut just_degraded = None;
        if let Backend::Pipe(s) = &mut self.backend {
            match s.read(n) {
                Ok(values) => {
                    self.handed = goal;
                    return Ok(ReadOut {
                        values,
                        just_degraded,
                    });
                }
                Err(e) if e.is_degradable() && self.canonical.is_some() => {
                    self.degrade(&e)?;
                    just_degraded = Some(e.to_string());
                }
                Err(e) => return Err(e),
            }
        }
        // The engines retain the stream from `handed` on: hand the read's
        // values over and keep only the overshoot.
        let values = match &mut self.backend {
            Backend::Plan(e) => {
                e.run_probed(goal, &mut self.probe)?;
                e.take_printed(n)
            }
            Backend::Dyn(e) => {
                e.run_probed(goal, &mut self.probe)?;
                e.take_printed(n)
            }
            Backend::Pipe(_) => unreachable!("pipeline reads return above"),
        };
        self.handed = goal;
        Ok(ReadOut {
            values,
            just_degraded,
        })
    }

    fn delivered(&self) -> usize {
        self.handed
    }

    fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    fn close(self: Box<Self>) -> CloseReport {
        let Session {
            backend,
            mut probe,
            handed,
            degraded,
            ..
        } = *self;
        let (ops, firings) = match backend {
            Backend::Pipe(s) => s
                .finish(&mut probe)
                .map_or((OpCounter::default(), 0), |o| (o.ops, o.firings)),
            Backend::Plan(e) => (e.ops().counts(), e.firings()),
            Backend::Dyn(e) => (e.ops().counts(), e.firings()),
        };
        CloseReport {
            delivered: handed,
            ops,
            firings,
            degraded,
            probe: probe.report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fission::{FissKernel, FissWorker, Fission};
    use crate::flat::{InterpState, NodeKind};
    use crate::measure::{compile, Scheduler};
    use streamlin_core::opt::OptStream;

    /// Every interpreter state in a graph, fission duplicates included.
    fn interps(flat: &FlatGraph) -> Vec<&InterpState> {
        let mut states = Vec::new();
        for node in &flat.nodes {
            match &node.kind {
                NodeKind::Interp(s)
                | NodeKind::FissWorker(FissWorker {
                    kernel: FissKernel::Interp(s),
                    ..
                }) => states.push(s),
                _ => {}
            }
        }
        states
    }

    /// A source, a gain and a sink that prints three values per firing,
    /// so a read goal that is not a multiple of three overshoots.
    const TRIPLE: &str = "void->void pipeline Main { add S(); add G(); add K(); }
         void->float filter S { float x; work push 1 { push(sin(x++)); } }
         float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
         float->void filter K {
             work pop 3 { println(pop()); println(pop()); println(pop()); }
         }";

    fn triple_artifact(spec: &RunSpec) -> Artifact {
        let g = streamlin_graph::elaborate(&streamlin_lang::parse(TRIPLE).unwrap()).unwrap();
        compile(&OptStream::from_graph(&g), spec, &mut NoProbe, None).unwrap()
    }

    /// The undrained reference: the same program's first `n` values.
    fn reference(n: usize) -> Vec<f64> {
        let art = triple_artifact(&RunSpec::new(n));
        let mut e = PlanEngine::<NoCount>::new(art.flat.clone(), art.plan.unwrap());
        e.run_until_outputs(n).unwrap();
        e.printed()[..n].to_vec()
    }

    fn session(art: &Artifact, spec: &RunSpec) -> Session<NoCount, Recorder> {
        let graphs = (art.flat.clone(), art.canonical.clone());
        open_with::<NoCount, _>(art, graphs, spec, Recorder::new(), None).unwrap()
    }

    fn retained(s: &Session<NoCount, Recorder>) -> usize {
        match &s.backend {
            Backend::Plan(e) => e.printed().len(),
            Backend::Dyn(e) => e.printed().len(),
            Backend::Pipe(_) => panic!("single-threaded session expected"),
        }
    }

    fn assert_bits(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "value {i}");
        }
    }

    #[test]
    fn single_threaded_sessions_keep_only_the_overshoot() {
        let reads = [1000, 1, 7, 2048, 500];
        let want = reference(reads.iter().sum());
        for sched in [Scheduler::Static, Scheduler::Dynamic] {
            let spec = RunSpec {
                sched,
                mode: ExecMode::Fast,
                ..RunSpec::new(0)
            };
            let mut s = session(&triple_artifact(&spec), &spec);
            let mut got = Vec::new();
            for n in reads {
                got.extend(s.read(n).unwrap().values);
                // One firing prints three values: at most two are left
                // over past the read goal.
                assert!(retained(&s) < 3, "{sched:?}: {} retained", retained(&s));
            }
            assert_eq!(s.delivered(), got.len());
            assert_bits(&got, &want);
        }
    }

    #[test]
    fn degrading_after_several_chunks_replays_in_chunks_and_continues_bit_identical() {
        let spec = RunSpec {
            threads: Some(2),
            mode: ExecMode::Fast,
            fallback: true,
            ..RunSpec::new(0)
        };
        let art = triple_artifact(&spec);
        assert_eq!(art.workers_needed(), 2, "the chain must run as a pipeline");
        let mut s = session(&art, &spec);
        let mut got = Vec::new();
        for _ in 0..3 {
            got.extend(s.read(CHUNK).unwrap().values);
        }
        got.extend(s.read(5).unwrap().values);
        let handed = 3 * CHUNK + 5;
        let cause = RunError::Stalled {
            detail: "drill".into(),
        };
        s.degrade(&cause).unwrap();
        assert!(matches!(s.backend, Backend::Plan(_)));
        assert!(retained(&s) < 3, "the replay drops what it skips");
        for n in [CHUNK, 11] {
            got.extend(s.read(n).unwrap().values);
        }
        assert_bits(&got, &reference(handed + CHUNK + 11));
        let report = Box::new(s).close();
        assert_eq!(report.delivered, handed + CHUNK + 11);
        assert!(report.degraded.is_some());
        let notes = report.probe.expect("instrumented").notes;
        let replay = notes
            .iter()
            .find(|(k, _)| *k == "replay")
            .map(|(_, v)| v.as_str())
            .expect("a replay note");
        assert!(
            replay.contains(&format!(
                "fast-forwarded {handed} delivered values in 4 chunk(s)"
            )),
            "{replay}"
        );
    }

    #[test]
    fn tier_reaches_every_interp_node_fission_duplicates_and_the_canonical_pair() {
        // F is stateless and dominant, so fission duplicates it as
        // interpreted kernels; S stays a plain interpreted node.
        let p = streamlin_lang::parse(
            "void->void pipeline Main { add S(); add F(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter F {
                 work pop 1 push 1 { float v = pop(); push(sin(v) * cos(v) + sqrt(v * v + 1)); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        )
        .unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        let spec = RunSpec {
            threads: Some(2),
            fission: Fission::Width(2),
            fallback: true,
            tier: Tier {
                bytecode: false,
                cert_elision: false,
            },
            ..RunSpec::new(16)
        };
        let art = compile(&OptStream::from_graph(&g), &spec, &mut NoProbe, None).unwrap();
        assert_eq!(art.width, 2, "fission must engage");
        let workers = art.flat.nodes.iter().filter(|n| {
            matches!(&n.kind, NodeKind::FissWorker(w) if matches!(w.kernel, FissKernel::Interp(_)))
        });
        assert_eq!(workers.count(), 2, "two interpreted duplicates");
        let default_tier = |s: &&InterpState| s.use_bytecode && s.work_certified;
        assert!(
            interps(&art.flat).iter().all(default_tier),
            "artifact stays tier-neutral"
        );

        let graphs = (art.flat.clone(), art.canonical.clone());
        let (flat, canonical) = with_tier(graphs, spec.tier);
        let (canonical, _) = canonical.expect("fallback keeps the canonical pair");
        for graph in [&flat, &canonical] {
            let states = interps(graph);
            assert!(states.len() >= 2);
            for s in states {
                assert!(!s.use_bytecode && !s.work_certified && !s.init_certified);
            }
        }
    }
}
