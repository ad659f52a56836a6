//! The data-driven execution engine.

use std::collections::VecDeque;

use streamlin_graph::bytecode;
use streamlin_graph::exec::{Flow, Host};
use streamlin_graph::lower::{SlotInterp, SlotStore};
use streamlin_graph::value::{EvalError, Value};
use streamlin_support::{NoProbe, OpCounter, Probe, Tally};

use crate::fission::FissKernel;
use crate::flat::{FlatGraph, FlatNode, InterpState, NodeKind};

/// Errors during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// No node can fire but the program has not produced enough output.
    Deadlock {
        /// A description of the stuck state.
        detail: String,
    },
    /// A work function violated its declared rates at runtime.
    RateViolation(String),
    /// A work function failed to evaluate.
    Eval(String),
    /// The supervisor's watchdog tripped: the pipeline made no progress
    /// for the configured deadline and was torn down.
    Stalled {
        /// The watchdog's diagnosis (progress counters, pending stages,
        /// boundary-ring occupancy, suspected wedged stage).
        detail: String,
    },
    /// A pipeline stage worker panicked, its pool thread died, or the
    /// worker pool could not supply threads for the run.
    WorkerLost {
        /// What was lost and where.
        detail: String,
    },
}

impl RunError {
    /// Whether a failed parallel run may be transparently replayed on the
    /// single-threaded static plan: true for infrastructure failures
    /// (lost workers, watchdog trips), false for program errors (rate
    /// violations, evaluation errors, program deadlocks), which would
    /// fail identically under any executor.
    pub fn is_degradable(&self) -> bool {
        matches!(self, RunError::Stalled { .. } | RunError::WorkerLost { .. })
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            RunError::RateViolation(m) => write!(f, "rate violation: {m}"),
            RunError::Eval(m) => write!(f, "evaluation error: {m}"),
            RunError::Stalled { detail } => write!(f, "stalled: {detail}"),
            RunError::WorkerLost { detail } => write!(f, "worker lost: {detail}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Hard upper bound on any channel (safety net against runaway growth).
const CHANNEL_CAP_MAX: usize = 1 << 24;

/// Shared mutable execution state (kept apart from the nodes so a firing
/// can borrow both).
#[derive(Debug)]
struct EngineState<T> {
    channels: Vec<VecDeque<f64>>,
    /// Per-channel occupancy bound. Starts tight (a small multiple of the
    /// endpoints' rates) so producers cannot run far ahead of demand —
    /// otherwise a node early in the graph would burn operations computing
    /// data the measured run never consumes. Raised adaptively when a
    /// graph (e.g. a splitjoin with imbalanced branches) genuinely needs
    /// deeper buffering.
    caps: Vec<usize>,
    printed: Vec<f64>,
    ops: T,
    firings: u64,
}

/// An executable program instance, generic over the [`Tally`] that its
/// arithmetic threads through ([`OpCounter`] for the measured experiment,
/// [`streamlin_support::NoCount`] for production execution).
#[derive(Debug)]
pub struct Engine<T: Tally = OpCounter> {
    nodes: Vec<FlatNode>,
    state: EngineState<T>,
}

impl<T: Tally + Default> Engine<T> {
    /// Instantiates a flattened graph (applying feedback preloads).
    pub fn new(flat: FlatGraph) -> Self {
        let mut channels = vec![VecDeque::new(); flat.num_channels];
        for (chan, items) in &flat.initial {
            channels[*chan].extend(items.iter().copied());
        }
        // Initial caps: room for a couple of firings at each endpoint.
        let mut caps = vec![64usize; flat.num_channels];
        for node in &flat.nodes {
            let (needed, pushed) = node_demands(node);
            for (&c, &n) in node.inputs.iter().zip(&needed) {
                caps[c] = caps[c].max(4 * n + 16);
            }
            for (&c, &p) in node.outputs.iter().zip(&pushed) {
                caps[c] = caps[c].max(4 * p + 16);
            }
        }
        for (chan, items) in &flat.initial {
            caps[*chan] = caps[*chan].max(2 * items.len() + 16);
        }
        Engine {
            nodes: flat.nodes,
            state: EngineState {
                channels,
                caps,
                printed: Vec::new(),
                ops: T::default(),
                firings: 0,
            },
        }
    }
}

impl<T: Tally> Engine<T> {
    /// Values printed so far (the program's output stream).
    pub fn printed(&self) -> &[f64] {
        &self.state.printed
    }

    /// The tally so far (use [`Tally::counts`] for the numbers; a
    /// `NoCount` engine reports all-zero tallies).
    pub fn ops(&self) -> &T {
        &self.state.ops
    }

    /// Total node firings so far.
    pub fn firings(&self) -> u64 {
        self.state.firings
    }

    /// Runs until the program has printed at least `n` values.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] if no progress is possible, or any
    /// evaluation/rate error from a work function.
    pub fn run_until_outputs(&mut self, n: usize) -> Result<(), RunError> {
        self.run_probed(n, &mut NoProbe)
    }

    /// [`Self::run_until_outputs`] with a telemetry [`Probe`]: each firing
    /// becomes a span on lane 1 (the data-driven engine is single-
    /// threaded). Monomorphized over [`NoProbe`] this is exactly the
    /// uninstrumented loop.
    ///
    /// # Errors
    ///
    /// As [`Self::run_until_outputs`].
    pub fn run_probed<P: Probe>(&mut self, n: usize, probe: &mut P) -> Result<(), RunError> {
        while self.state.printed.len() < n {
            let mut fired = false;
            for i in 0..self.nodes.len() {
                if self.state.printed.len() >= n {
                    return Ok(());
                }
                if self.readiness(i) == Readiness::Ready {
                    let t0 = probe.now();
                    fire(&mut self.nodes[i], &mut self.state)?;
                    if P::ENABLED {
                        probe.batch(1, i, 1, t0);
                    }
                    fired = true;
                }
            }
            if !fired && !self.relieve_backpressure()? {
                let detail = self
                    .nodes
                    .iter()
                    .map(|node| {
                        let ins: Vec<usize> = node
                            .inputs
                            .iter()
                            .map(|&c| self.state.channels[c].len())
                            .collect();
                        format!("{}{ins:?}", node.name)
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                return Err(RunError::Deadlock { detail });
            }
        }
        Ok(())
    }

    /// What, if anything, prevents node `i` from firing.
    fn readiness(&self, i: usize) -> Readiness {
        let node = &self.nodes[i];
        let (needed, pushed) = node_demands(node);
        for (k, &chan) in node.inputs.iter().enumerate() {
            if self.state.channels[chan].len() < needed[k] {
                return Readiness::NeedsInput;
            }
        }
        for (&chan, &count) in node.outputs.iter().zip(&pushed) {
            if self.state.channels[chan].len() + count > self.state.caps[chan] {
                return Readiness::OutputFull(chan);
            }
        }
        Readiness::Ready
    }

    /// When every node is blocked, grow the caps of channels that are the
    /// only obstacle for otherwise-ready nodes (imbalanced splitjoin
    /// branches legitimately need deeper buffers). Returns whether any cap
    /// was raised.
    fn relieve_backpressure(&mut self) -> Result<bool, RunError> {
        let mut raised = false;
        for i in 0..self.nodes.len() {
            if let Readiness::OutputFull(chan) = self.readiness(i) {
                let cap = &mut self.state.caps[chan];
                if *cap >= CHANNEL_CAP_MAX {
                    return Err(RunError::Deadlock {
                        detail: format!(
                            "channel of {} exceeded the {CHANNEL_CAP_MAX}-item bound",
                            self.nodes[i].name
                        ),
                    });
                }
                *cap = (*cap * 2).min(CHANNEL_CAP_MAX);
                raised = true;
            }
        }
        Ok(raised)
    }
}

/// Why a node can or cannot fire right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readiness {
    Ready,
    NeedsInput,
    OutputFull(usize),
}

/// Items needed per input channel and produced per output channel for the
/// node's *next* firing.
fn node_demands(node: &FlatNode) -> (Vec<usize>, Vec<usize>) {
    match &node.kind {
        NodeKind::Interp(s) => {
            let w = match (s.first, s.inst.init_work.as_ref()) {
                (true, Some(init)) => init,
                _ => &s.inst.work,
            };
            (
                if node.inputs.is_empty() {
                    vec![]
                } else {
                    vec![w.peek]
                },
                if node.outputs.is_empty() {
                    vec![]
                } else {
                    vec![w.push]
                },
            )
        }
        NodeKind::Linear(exec) => {
            let n = exec.node();
            (
                if node.inputs.is_empty() {
                    vec![]
                } else {
                    vec![n.peek()]
                },
                if node.outputs.is_empty() {
                    vec![]
                } else {
                    vec![n.push()]
                },
            )
        }
        NodeKind::Redund(exec) => {
            let n = exec.spec().node();
            (
                vec![n.peek()],
                if node.outputs.is_empty() {
                    vec![]
                } else {
                    vec![n.push()]
                },
            )
        }
        NodeKind::Freq(exec) => {
            let (peek, _pop, push) = exec.current_rates();
            (vec![peek], vec![push])
        }
        NodeKind::Decimator { pop, push } => (vec![*pop], vec![*push]),
        NodeKind::FissSplit(sp) => {
            if sp.first && sp.first_share > 0 {
                let mut pushed = vec![0; node.outputs.len()];
                pushed[0] = sp.first_share + sp.suffix;
                (vec![sp.first_share + sp.suffix], pushed)
            } else {
                (
                    vec![sp.steady_pop() + sp.suffix],
                    vec![sp.chunk_len(); node.outputs.len()],
                )
            }
        }
        NodeKind::FissWorker(fw) => {
            if fw.first && fw.first_fires > 0 {
                (vec![fw.first_chunk_len()], vec![fw.first_pushes()])
            } else {
                (vec![fw.chunk_len()], vec![fw.batch * fw.push])
            }
        }
        NodeKind::FissJoin(fj) => {
            if fj.first && fj.first_take > 0 {
                let mut needed = vec![0; node.inputs.len()];
                needed[0] = fj.first_take;
                (needed, vec![fj.first_take])
            } else {
                (
                    vec![fj.weight; node.inputs.len()],
                    vec![fj.width * fj.weight],
                )
            }
        }
        NodeKind::Periodic { .. } => (vec![], vec![1]),
        NodeKind::PrintSink { pop } | NodeKind::DiscardSink { pop } => (vec![*pop], vec![]),
        NodeKind::Duplicate => (vec![1], vec![1; node.outputs.len()]),
        NodeKind::SplitRR(w) => (vec![w.iter().sum()], w.clone()),
        NodeKind::JoinRR(w) => (w.clone(), vec![w.iter().sum()]),
    }
}

fn fire<T: Tally>(node: &mut FlatNode, state: &mut EngineState<T>) -> Result<(), RunError> {
    // Synthesized fission plumbing counts no firings and a fission worker
    // counts its kernel firings (see [`crate::fission`]) — so fission
    // widths leave the program's firing totals invariant. Everything else
    // counts one firing per fire.
    match &node.kind {
        NodeKind::FissSplit(_) | NodeKind::FissWorker(_) | NodeKind::FissJoin(_) => {}
        _ => state.firings += 1,
    }
    match &mut node.kind {
        NodeKind::Interp(interp) => fire_interp(interp, &node.inputs, &node.outputs, state),
        NodeKind::Linear(exec) => {
            // Read the rates out before the mutable `fire` borrow — the
            // old `exec.node().clone()` copied the whole coefficient
            // matrix every firing.
            let (peek, pop) = (exec.node().peek(), exec.node().pop());
            let window = read_window(state, node.inputs.first().copied(), peek);
            let out = exec.fire(&window, &mut state.ops);
            consume(state, node.inputs.first().copied(), pop);
            produce(state, node.outputs.first().copied(), &out);
            Ok(())
        }
        NodeKind::Redund(exec) => {
            let (peek, pop) = (exec.spec().node().peek(), exec.spec().node().pop());
            let window = read_window(state, node.inputs.first().copied(), peek);
            let out = exec.fire(&window, &mut state.ops);
            consume(state, node.inputs.first().copied(), pop);
            produce(state, node.outputs.first().copied(), &out);
            Ok(())
        }
        NodeKind::Freq(exec) => {
            let (peek, pop, _push) = exec.current_rates();
            let window = read_window(state, node.inputs.first().copied(), peek);
            let out = exec.fire(&window, &mut state.ops);
            consume(state, node.inputs.first().copied(), pop);
            produce(state, node.outputs.first().copied(), &out);
            Ok(())
        }
        NodeKind::Decimator { pop, push } => {
            let (pop, push) = (*pop, *push);
            let chan = &mut state.channels[node.inputs[0]];
            let mut kept = Vec::with_capacity(push);
            for i in 0..pop {
                let v = chan.pop_front().expect("fireable checked occupancy");
                if i < push {
                    kept.push(v);
                }
            }
            produce(state, node.outputs.first().copied(), &kept);
            Ok(())
        }
        NodeKind::FissSplit(sp) => {
            let first = std::mem::take(&mut sp.first);
            if first && sp.first_share > 0 {
                let span = sp.first_share + sp.suffix;
                let w = read_window(state, node.inputs.first().copied(), span);
                consume(state, node.inputs.first().copied(), sp.first_share);
                produce(state, node.outputs.first().copied(), &w);
                if sp.prefix > 0 {
                    sp.carry.clear();
                    sp.carry.extend_from_slice(&w[sp.first_share - sp.prefix..]);
                }
                return Ok(());
            }
            let total = sp.steady_pop();
            let w = read_window(state, node.inputs.first().copied(), total + sp.suffix);
            consume(state, node.inputs.first().copied(), total);
            for (k, &out) in node.outputs.iter().enumerate() {
                if sp.prefix > 0 {
                    let prefix: &[f64] = if k == 0 {
                        &sp.carry
                    } else {
                        &w[k * sp.share - sp.prefix..k * sp.share]
                    };
                    state.channels[out].extend(prefix.iter().copied());
                }
                let start = k * sp.share;
                state.channels[out].extend(w[start..start + sp.share + sp.suffix].iter().copied());
            }
            if sp.prefix > 0 {
                sp.carry.clear();
                sp.carry.extend_from_slice(&w[total - sp.prefix..total]);
            }
            Ok(())
        }
        NodeKind::FissWorker(fw) => {
            let first = std::mem::take(&mut fw.first) && fw.first_fires > 0;
            let (chunk, prefix, fires) = if first {
                (fw.first_chunk_len(), 0, fw.first_fires)
            } else {
                (fw.chunk_len(), fw.prefix, fw.batch)
            };
            let w = read_window(state, node.inputs.first().copied(), chunk);
            let mut out = Vec::with_capacity(fires * fw.push);
            match &mut fw.kernel {
                FissKernel::Linear(exec) => exec.fire_batch(&w, fires, &mut out, &mut state.ops),
                FissKernel::Freq(exec) => {
                    if prefix > 0 {
                        let _ = exec.fire(&w[..prefix], &mut streamlin_support::NoCount);
                    }
                    for f in 0..fires {
                        let base = prefix + f * fw.pop;
                        let peek = exec.current_rates().0;
                        let o = exec.fire(&w[base..base + peek], &mut state.ops);
                        out.extend_from_slice(&o);
                    }
                }
                FissKernel::Interp(interp) => {
                    for f in 0..fires {
                        let base = f * fw.pop;
                        let (_, pushed) = run_work_phase(
                            interp,
                            &w[base..base + fw.peek],
                            &mut state.printed,
                            &mut state.ops,
                        )?;
                        out.extend_from_slice(&pushed);
                    }
                }
            }
            state.firings += fires as u64;
            consume(state, node.inputs.first().copied(), chunk);
            produce(state, node.outputs.first().copied(), &out);
            Ok(())
        }
        NodeKind::FissJoin(fj) => {
            let first = std::mem::take(&mut fj.first);
            if first && fj.first_take > 0 {
                for _ in 0..fj.first_take {
                    let v = state.channels[node.inputs[0]]
                        .pop_front()
                        .expect("fireable checked occupancy");
                    state.channels[node.outputs[0]].push_back(v);
                }
                return Ok(());
            }
            for &cin in &node.inputs {
                for _ in 0..fj.weight {
                    let v = state.channels[cin]
                        .pop_front()
                        .expect("fireable checked occupancy");
                    state.channels[node.outputs[0]].push_back(v);
                }
            }
            Ok(())
        }
        NodeKind::Periodic { values, pos } => {
            let v = values[*pos];
            *pos = (*pos + 1) % values.len();
            produce(state, node.outputs.first().copied(), &[v]);
            Ok(())
        }
        NodeKind::PrintSink { pop } => {
            let chan = node.inputs[0];
            for _ in 0..*pop {
                let v = state.channels[chan]
                    .pop_front()
                    .expect("fireable checked occupancy");
                state.printed.push(v);
            }
            Ok(())
        }
        NodeKind::DiscardSink { pop } => {
            consume(state, node.inputs.first().copied(), *pop);
            Ok(())
        }
        NodeKind::Duplicate => {
            let v = state.channels[node.inputs[0]]
                .pop_front()
                .expect("fireable checked occupancy");
            for &o in &node.outputs {
                state.channels[o].push_back(v);
            }
            Ok(())
        }
        NodeKind::SplitRR(w) => {
            // The weights and the channels live in disjoint structures, so
            // no per-firing `w.clone()` is needed.
            for (k, &count) in w.iter().enumerate() {
                for _ in 0..count {
                    let v = state.channels[node.inputs[0]]
                        .pop_front()
                        .expect("fireable checked occupancy");
                    state.channels[node.outputs[k]].push_back(v);
                }
            }
            Ok(())
        }
        NodeKind::JoinRR(w) => {
            for (k, &count) in w.iter().enumerate() {
                for _ in 0..count {
                    let v = state.channels[node.inputs[k]]
                        .pop_front()
                        .expect("fireable checked occupancy");
                    state.channels[node.outputs[0]].push_back(v);
                }
            }
            Ok(())
        }
    }
}

fn read_window<T>(state: &EngineState<T>, chan: Option<usize>, peek: usize) -> Vec<f64> {
    match chan {
        None => Vec::new(),
        Some(c) => state.channels[c].iter().take(peek).copied().collect(),
    }
}

fn consume<T>(state: &mut EngineState<T>, chan: Option<usize>, pop: usize) {
    if let Some(c) = chan {
        for _ in 0..pop {
            state.channels[c]
                .pop_front()
                .expect("fireable checked occupancy");
        }
    }
}

fn produce<T>(state: &mut EngineState<T>, chan: Option<usize>, items: &[f64]) {
    if let Some(c) = chan {
        state.channels[c].extend(items.iter().copied());
    }
}

// ---- interpreted filters ----------------------------------------------------

/// Tape host over a window snapshot: peeks/pops index into the window,
/// pushes and prints are collected, float operations are tallied.
struct WindowHost<'a, T> {
    window: &'a [f64],
    cursor: usize,
    pushed: Vec<f64>,
    printed: &'a mut Vec<f64>,
    ops: &'a mut T,
}

impl<T: Tally> Host for WindowHost<'_, T> {
    fn peek(&mut self, i: usize) -> Result<f64, EvalError> {
        self.window.get(self.cursor + i).copied().ok_or_else(|| {
            EvalError::new(format!(
                "peek({i}) after {} pops exceeds the declared peek window of {}",
                self.cursor,
                self.window.len()
            ))
        })
    }
    fn pop(&mut self) -> Result<f64, EvalError> {
        let v = self.peek(0)?;
        self.cursor += 1;
        Ok(v)
    }
    fn push(&mut self, v: f64) -> Result<(), EvalError> {
        self.pushed.push(v);
        Ok(())
    }
    fn print(&mut self, v: Value, _newline: bool) -> Result<(), EvalError> {
        self.printed.push(v.as_f64()?);
        Ok(())
    }
    fn count_add(&mut self) {
        self.ops.add(0.0, 0.0);
    }
    fn count_mul(&mut self) {
        self.ops.mul(0.0, 0.0);
    }
    fn count_div(&mut self) {
        self.ops.div(1.0, 1.0);
    }
    fn count_other(&mut self) {
        self.ops.other(1);
    }
}

/// Tape host for rate/bounds-certified phases (see
/// [`streamlin_graph::analyze`]): the abstract interpreter proved every
/// peek/pop stays inside the declared window, so accesses index the
/// window directly with no `Option` plumbing and no error formatting,
/// and the caller skips post-firing rate validation. Outputs are
/// bit-identical to [`WindowHost`] — the certificate guarantees the
/// checked path would never have taken an error branch.
struct CertWindowHost<'a, T> {
    window: &'a [f64],
    cursor: usize,
    pushed: Vec<f64>,
    printed: &'a mut Vec<f64>,
    ops: &'a mut T,
}

impl<T: Tally> Host for CertWindowHost<'_, T> {
    fn peek(&mut self, i: usize) -> Result<f64, EvalError> {
        Ok(self.window[self.cursor + i])
    }
    fn pop(&mut self) -> Result<f64, EvalError> {
        let v = self.window[self.cursor];
        self.cursor += 1;
        Ok(v)
    }
    fn push(&mut self, v: f64) -> Result<(), EvalError> {
        self.pushed.push(v);
        Ok(())
    }
    fn print(&mut self, v: Value, _newline: bool) -> Result<(), EvalError> {
        self.printed.push(v.as_f64()?);
        Ok(())
    }
    fn count_add(&mut self) {
        self.ops.add(0.0, 0.0);
    }
    fn count_mul(&mut self) {
        self.ops.mul(0.0, 0.0);
    }
    fn count_div(&mut self) {
        self.ops.div(1.0, 1.0);
    }
    fn count_other(&mut self) {
        self.ops.other(1);
    }
}

/// Interpreter fuel per firing — generous (Radar's largest work functions
/// run tens of thousands of statements per firing).
const FIRING_FUEL: u64 = 50_000_000;

/// `(peek, pop, push)` of an interpreted filter's *next* firing (the init
/// phase on the first firing when declared, the work phase afterwards).
pub(crate) fn interp_phase_rates(interp: &InterpState) -> (usize, usize, usize) {
    let w = match (interp.first, interp.inst.init_work.as_ref()) {
        (true, Some(init)) => init,
        _ => &interp.inst.work,
    };
    (w.peek, w.pop, w.push)
}

/// Runs one firing of an interpreted filter over a window snapshot,
/// validating the declared rates. Returns `(popped, pushed)`; the caller
/// owns channel consumption/production. Shared by the data-driven engine
/// and the static-plan engine so both execute byte-for-byte the same
/// work-function semantics. Execution defaults to the linear bytecode
/// tier ([`streamlin_graph::bytecode`]) over the filter's `Vec<Cell>`
/// storage — no recursion, no `Box` chasing on the firing path — with
/// the slot-resolved tree-walker ([`streamlin_graph::lower`]) kept as
/// the differential reference (a run's [`crate::flat::Tier`]).
pub(crate) fn run_work_phase<T: Tally>(
    interp: &mut InterpState,
    window: &[f64],
    printed: &mut Vec<f64>,
    ops: &mut T,
) -> Result<(usize, Vec<f64>), RunError> {
    let use_init = interp.first && interp.inst.init_work.is_some();
    let (phase, code, certified) = if use_init {
        (
            interp.inst.init_work.as_ref().expect("checked"),
            interp
                .inst
                .lowered
                .init_work
                .as_ref()
                .expect("lowered alongside init_work"),
            interp.init_certified,
        )
    } else {
        (
            &interp.inst.work,
            &interp.inst.lowered.work,
            interp.work_certified,
        )
    };
    interp.first = false;

    let mut store = SlotStore {
        globals: &mut interp.globals,
        frame: &mut interp.frame,
    };
    if certified {
        // Rate/bounds-certified phase: unchecked tape accesses, and the
        // declared rates need no post-firing validation.
        let mut host = CertWindowHost {
            window,
            cursor: 0,
            pushed: Vec::with_capacity(phase.push),
            printed,
            ops,
        };
        let flow = if interp.use_bytecode {
            bytecode::exec(&code.code, &mut store, &mut host, FIRING_FUEL)
        } else {
            SlotInterp::new(&mut host, FIRING_FUEL).exec_work(&mut store, &code.body)
        };
        match flow {
            Ok(Flow::Normal) | Ok(Flow::Return) => {}
            Err(e) => {
                return Err(RunError::Eval(format!(
                    "{}: {}",
                    interp.inst.name, e.message
                )))
            }
        }
        return Ok((phase.pop, host.pushed));
    }

    let (cursor, pushed) = {
        let mut host = WindowHost {
            window,
            cursor: 0,
            pushed: Vec::with_capacity(phase.push),
            printed,
            ops,
        };
        let flow = if interp.use_bytecode {
            bytecode::exec(&code.code, &mut store, &mut host, FIRING_FUEL)
        } else {
            SlotInterp::new(&mut host, FIRING_FUEL).exec_work(&mut store, &code.body)
        };
        match flow {
            Ok(Flow::Normal) | Ok(Flow::Return) => {}
            Err(e) => {
                return Err(RunError::Eval(format!(
                    "{}: {}",
                    interp.inst.name, e.message
                )))
            }
        }
        (host.cursor, host.pushed)
    };
    if cursor != phase.pop {
        return Err(RunError::RateViolation(format!(
            "{} declared pop {} but popped {}",
            interp.inst.name, phase.pop, cursor
        )));
    }
    if pushed.len() != phase.push {
        return Err(RunError::RateViolation(format!(
            "{} declared push {} but pushed {}",
            interp.inst.name,
            phase.push,
            pushed.len()
        )));
    }
    Ok((phase.pop, pushed))
}

fn fire_interp<T: Tally>(
    interp: &mut InterpState,
    inputs: &[usize],
    outputs: &[usize],
    state: &mut EngineState<T>,
) -> Result<(), RunError> {
    let (peek, _, _) = interp_phase_rates(interp);
    let window = read_window(state, inputs.first().copied(), peek);
    let (popped, pushed) = run_work_phase(interp, &window, &mut state.printed, &mut state.ops)?;
    consume(state, inputs.first().copied(), popped);
    produce(state, outputs.first().copied(), &pushed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;
    use crate::linear_exec::MatMulStrategy;
    use streamlin_core::opt::OptStream;

    fn engine_for(src: &str) -> Engine {
        let p = streamlin_lang::parse(src).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        Engine::new(flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap())
    }

    #[test]
    fn ramp_through_gain() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add G(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        e.run_until_outputs(4).unwrap();
        assert_eq!(&e.printed()[..4], &[0.0, 3.0, 6.0, 9.0]);
        assert!(e.ops().mults() >= 4);
    }

    #[test]
    fn peeking_filter_sees_lookahead() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add D(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter D {
                 work peek 2 pop 1 push 1 { push(peek(1) - peek(0)); pop(); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        e.run_until_outputs(3).unwrap();
        assert_eq!(&e.printed()[..3], &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn splitjoin_round_trip() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add SJ(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float splitjoin SJ {
                 split duplicate;
                 add G(10.0); add G(100.0);
                 join roundrobin;
             }
             float->float filter G(float k) { work pop 1 push 1 { push(k * pop()); } }
             float->void filter K { work pop 2 { println(pop()); println(pop()); } }",
        );
        e.run_until_outputs(4).unwrap();
        assert_eq!(&e.printed()[..4], &[0.0, 0.0, 10.0, 100.0]);
    }

    #[test]
    fn feedback_accumulator() {
        // y[n] = x[n] + y[n-1] via a feedback loop around an adder.
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { float x; work push 1 { x = x + 1; push(x); } }
             float->void filter K { work pop 1 { println(pop()); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body Adder();
                 loop Id();
                 split duplicate;
                 enqueue 0;
             }
             float->float filter Adder { work pop 2 push 1 { push(pop() + pop()); } }
             float->float filter Id { work pop 1 push 1 { push(pop()); } }",
        );
        e.run_until_outputs(4).unwrap();
        // x = 1,2,3,4 -> running sums 1,3,6,10
        assert_eq!(&e.printed()[..4], &[1.0, 3.0, 6.0, 10.0]);
    }

    #[test]
    fn rate_violation_is_reported() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 2 { push(x); if (x > 0.5) push(x); x = x + 1; } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let err = e.run_until_outputs(1).unwrap_err();
        assert!(matches!(err, RunError::RateViolation(_)), "{err}");
    }

    #[test]
    fn deadlock_is_detected() {
        // A feedback loop with no enqueued items can never fire.
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->void filter K { work pop 1 { println(pop()); } }
             float->float feedbackloop FB {
                 join roundrobin(1, 1);
                 body Adder();
                 loop Id();
                 split duplicate;
             }
             float->float filter Adder { work pop 2 push 1 { push(pop() + pop()); } }
             float->float filter Id { work pop 1 push 1 { push(pop()); } }",
        );
        let err = e.run_until_outputs(1).unwrap_err();
        assert!(matches!(err, RunError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn init_work_phase_runs_once() {
        let mut e = engine_for(
            "void->void pipeline Main { add S(); add P(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter P {
                 initWork pop 2 push 1 { push(pop() + pop()); }
                 work pop 1 push 1 { push(pop()); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        e.run_until_outputs(3).unwrap();
        // First firing consumes 0,1 -> 1; then identity: 2, 3.
        assert_eq!(&e.printed()[..3], &[1.0, 2.0, 3.0]);
    }
}
