//! Static steady-state execution plans (the schedule compiler).
//!
//! StreamIt programs run under a schedule resolved entirely at compile
//! time (§2.1 of the paper): the balance equations give every node a fixed
//! repetition count per steady-state cycle, an initialization phase
//! satisfies peek prologues and `initWork` phases, and channel occupancies
//! are periodic — so buffer sizes are known exactly before the first item
//! flows. This module compiles a [`crate::flat::FlatGraph`] into that
//! form:
//!
//! * [`compile`] solves the flat balance equations (via
//!   [`streamlin_graph::steady::balance`]), topologically orders the
//!   nodes, derives an **init schedule** (extra upstream firings that build
//!   up each consumer's `peek − pop` lookahead slack, plus every firing
//!   whose rates differ from the steady phase, e.g. `initWork`), then
//!   symbolically executes init + one steady cycle to compute **exact
//!   per-channel capacities** — yielding an [`ExecPlan`].
//! * [`PlanEngine`] executes a plan over [`crate::ring::RingSet`] ring
//!   buffers in one contiguous slab: no readiness polling, no `VecDeque`
//!   shuffling, no per-firing window allocation. Consecutive firings of a
//!   linear node become one blocked multiply
//!   ([`crate::linear_exec::LinearExec::fire_batch`]).
//!
//! Graphs the compiler cannot schedule — feedback loops (cyclic, never
//! collapsed per §3.3/§7.1), zero-rate channels, or inconsistent rates —
//! are reported as [`PlanError`]s; [`crate::measure::compile`] falls back
//! to the data-driven [`crate::engine::Engine`] for those.
//!
//! The firing *semantics* are shared with the dynamic engine (same
//! slot-resolved work-function interpreter via
//! `engine::run_work_phase`, same kernels, same operation
//! counting), so a program's printed output is bit-identical under either
//! scheduler; the equivalence suite in `tests/sched_equivalence.rs` pins
//! that down for every benchmark.

use streamlin_graph::steady::{balance, RateEdge};
use streamlin_support::{NoProbe, OpCounter, Probe, Tally};

use crate::engine::{interp_phase_rates, run_work_phase, RunError};
use crate::fission::FissKernel;
use crate::flat::{FlatGraph, FlatNode, NodeKind};
use crate::ring::RingSet;

/// Per-channel capacity bound (matches the dynamic engine's safety net).
const CAP_LIMIT: u64 = 1 << 24;
/// Bound on the whole slab, across all channels.
const SLAB_LIMIT: u64 = 1 << 26;
/// Bound on firings per steady cycle (keeps plans and runs tractable).
const FIRINGS_LIMIT: u64 = 1 << 26;

/// Why a graph has no static plan (the caller falls back to the
/// data-driven scheduler).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The graph contains a cycle (feedback loops stay data-driven).
    Cyclic,
    /// The balance equations have no consistent solution.
    Unschedulable(String),
    /// The plan exists but exceeds implementation bounds.
    TooLarge(String),
    /// A structural invariant of flattening is violated.
    Malformed(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Cyclic => write!(f, "graph has a feedback cycle"),
            PlanError::Unschedulable(m) => write!(f, "not statically schedulable: {m}"),
            PlanError::TooLarge(m) => write!(f, "plan exceeds bounds: {m}"),
            PlanError::Malformed(m) => write!(f, "malformed flat graph: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// `times` consecutive firings of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Node index in the flat graph.
    pub node: usize,
    /// Consecutive firings.
    pub times: u32,
}

/// A compiled schedule: run `init` once, then repeat `steady` forever.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// Initialization firings (peek prologues, `initWork` phases).
    pub init: Vec<Step>,
    /// One steady-state cycle, in topological order.
    pub steady: Vec<Step>,
    /// Exact per-channel capacity (the maximum occupancy over init plus
    /// one steady cycle — and therefore over the whole run).
    pub caps: Vec<usize>,
}

impl ExecPlan {
    /// Firings per steady cycle.
    pub fn steady_firings(&self) -> u64 {
        self.steady.iter().map(|s| s.times as u64).sum()
    }

    /// Firings in the init phase.
    pub fn init_firings(&self) -> u64 {
        self.init.iter().map(|s| s.times as u64).sum()
    }

    /// Total buffer slots across all channels.
    pub fn buffer_slots(&self) -> usize {
        self.caps.iter().sum()
    }

    /// One-line description for logs and the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} init + {} steady firings/cycle over {} channels ({} buffer slots)",
            self.init_firings(),
            self.steady_firings(),
            self.caps.len(),
            self.buffer_slots()
        )
    }
}

/// `(peek, pop)` per input channel and pushes per output channel for one
/// firing phase of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Phase {
    pub(crate) in_peek: Vec<u64>,
    pub(crate) in_pop: Vec<u64>,
    pub(crate) out_push: Vec<u64>,
}

/// A node's rate signature: the steady phase, plus a distinct first-firing
/// phase when one exists (`initWork`, frequency priming).
#[derive(Debug, Clone)]
pub(crate) struct Rates {
    pub(crate) steady: Phase,
    pub(crate) first: Option<Phase>,
}

impl Rates {
    /// The phase of firing `idx` (0-based since node creation).
    pub(crate) fn phase(&self, first_firing: bool) -> &Phase {
        match (&self.first, first_firing) {
            (Some(f), true) => f,
            _ => &self.steady,
        }
    }

    fn has_distinct_first(&self) -> bool {
        self.first.as_ref().is_some_and(|f| *f != self.steady)
    }
}

fn phase_for(node: &FlatNode, peek: u64, pop: u64, push: u64) -> Phase {
    Phase {
        in_peek: if node.inputs.is_empty() {
            vec![]
        } else {
            vec![peek.max(pop)]
        },
        in_pop: if node.inputs.is_empty() {
            vec![]
        } else {
            vec![pop]
        },
        out_push: if node.outputs.is_empty() {
            vec![]
        } else {
            vec![push]
        },
    }
}

pub(crate) fn node_rates(node: &FlatNode) -> Rates {
    match &node.kind {
        NodeKind::Interp(s) => {
            let w = &s.inst.work;
            let steady = phase_for(node, w.peek as u64, w.pop as u64, w.push as u64);
            let first = s
                .inst
                .init_work
                .as_ref()
                .filter(|_| s.first)
                .map(|iw| phase_for(node, iw.peek as u64, iw.pop as u64, iw.push as u64));
            Rates { steady, first }
        }
        NodeKind::Linear(exec) => {
            let n = exec.node();
            Rates {
                steady: phase_for(node, n.peek() as u64, n.pop() as u64, n.push() as u64),
                first: None,
            }
        }
        NodeKind::Redund(exec) => {
            let n = exec.spec().node();
            Rates {
                steady: phase_for(node, n.peek() as u64, n.pop() as u64, n.push() as u64),
                first: None,
            }
        }
        NodeKind::Freq(exec) => {
            let spec = exec.spec();
            let (peek, pop, push) = spec.work_rates();
            let steady = phase_for(node, peek as u64, pop as u64, push as u64);
            let first = spec
                .init_work_rates()
                .map(|(pe, po, pu)| phase_for(node, pe as u64, po as u64, pu as u64));
            Rates { steady, first }
        }
        NodeKind::Decimator { pop, push } => Rates {
            steady: phase_for(node, *pop as u64, *pop as u64, *push as u64),
            first: None,
        },
        NodeKind::Periodic { .. } => Rates {
            steady: phase_for(node, 0, 0, 1),
            first: None,
        },
        NodeKind::PrintSink { pop } | NodeKind::DiscardSink { pop } => Rates {
            steady: phase_for(node, *pop as u64, *pop as u64, 0),
            first: None,
        },
        NodeKind::FissSplit(sp) => {
            let steady = Phase {
                in_peek: vec![(sp.steady_pop() + sp.suffix) as u64],
                in_pop: vec![sp.steady_pop() as u64],
                out_push: vec![sp.chunk_len() as u64; node.outputs.len()],
            };
            let first = (sp.first_share > 0 && sp.first).then(|| {
                let mut out_push = vec![0u64; node.outputs.len()];
                out_push[0] = (sp.first_share + sp.suffix) as u64;
                Phase {
                    in_peek: vec![(sp.first_share + sp.suffix) as u64],
                    in_pop: vec![sp.first_share as u64],
                    out_push,
                }
            });
            Rates { steady, first }
        }
        NodeKind::FissWorker(fw) => {
            let steady = phase_for(
                node,
                fw.chunk_len() as u64,
                fw.chunk_len() as u64,
                (fw.batch * fw.push) as u64,
            );
            let first = (fw.first_fires > 0 && fw.first).then(|| {
                phase_for(
                    node,
                    fw.first_chunk_len() as u64,
                    fw.first_chunk_len() as u64,
                    fw.first_pushes() as u64,
                )
            });
            Rates { steady, first }
        }
        NodeKind::FissJoin(fj) => {
            let steady = Phase {
                in_peek: vec![fj.weight as u64; node.inputs.len()],
                in_pop: vec![fj.weight as u64; node.inputs.len()],
                out_push: vec![(fj.width * fj.weight) as u64],
            };
            let first = (fj.first_take > 0 && fj.first).then(|| {
                let mut in_pop = vec![0u64; node.inputs.len()];
                in_pop[0] = fj.first_take as u64;
                Phase {
                    in_peek: in_pop.clone(),
                    in_pop,
                    out_push: vec![fj.first_take as u64],
                }
            });
            Rates { steady, first }
        }
        NodeKind::Duplicate => Rates {
            steady: Phase {
                in_peek: vec![1],
                in_pop: vec![1],
                out_push: vec![1; node.outputs.len()],
            },
            first: None,
        },
        NodeKind::SplitRR(w) => Rates {
            steady: Phase {
                in_peek: vec![w.iter().map(|&x| x as u64).sum()],
                in_pop: vec![w.iter().map(|&x| x as u64).sum()],
                out_push: w.iter().map(|&x| x as u64).collect(),
            },
            first: None,
        },
        NodeKind::JoinRR(w) => Rates {
            steady: Phase {
                in_peek: w.iter().map(|&x| x as u64).collect(),
                in_pop: w.iter().map(|&x| x as u64).collect(),
                out_push: vec![w.iter().map(|&x| x as u64).sum()],
            },
            first: None,
        },
    }
}

/// Items a batch of `k` firings needs buffered on input slot `s` before it
/// starts (the peak of `consumed-so-far + peek` over the batch).
pub(crate) fn batch_need(rates: &Rates, first_firing: bool, k: u64, s: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    let fp = rates.phase(first_firing);
    let sp = &rates.steady;
    let mut need = fp.in_peek[s];
    if k >= 2 {
        need = need.max(fp.in_pop[s] + (k - 2) * sp.in_pop[s] + sp.in_peek[s]);
    }
    need
}

/// Items a batch of `k` firings pops from input slot `s` in total.
pub(crate) fn batch_pop(rates: &Rates, first_firing: bool, k: u64, s: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    let fp = rates.phase(first_firing);
    fp.in_pop[s] + (k - 1) * rates.steady.in_pop[s]
}

/// Items a batch of `k` firings pushes to output slot `s` in total.
pub(crate) fn batch_push(rates: &Rates, first_firing: bool, k: u64, s: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    let fp = rates.phase(first_firing);
    fp.out_push[s] + (k - 1) * rates.steady.out_push[s]
}

/// Minimal firings of a producer (whose first firing may still be pending
/// when `fired` is false) so that its pushes on output slot `s` cover
/// `deficit` items. `None` when no number of firings can (zero steady
/// push). Shared by the init-phase derivation and the demand-driven steady
/// generator so the two can never disagree.
fn fires_to_cover(rates: &Rates, fired: bool, s: usize, deficit: u64) -> Option<u64> {
    debug_assert!(deficit > 0, "no firings needed for a zero deficit");
    let first_push = rates.phase(!fired).out_push[s];
    let steady_push = rates.steady.out_push[s];
    if first_push >= deficit {
        Some(1)
    } else if steady_push == 0 {
        None
    } else {
        Some(1 + (deficit - first_push).div_ceil(steady_push))
    }
}

/// Compiles a flat graph into a static execution plan.
///
/// # Errors
///
/// See [`PlanError`]; the caller is expected to fall back to the dynamic
/// engine on failure.
pub fn compile(flat: &FlatGraph) -> Result<ExecPlan, PlanError> {
    let n = flat.nodes.len();
    let rates: Vec<Rates> = flat.nodes.iter().map(node_rates).collect();

    // Channel endpoints: (node, slot) of the producer and the consumer.
    let mut prod: Vec<Option<(usize, usize)>> = vec![None; flat.num_channels];
    let mut cons: Vec<Option<(usize, usize)>> = vec![None; flat.num_channels];
    for (i, node) in flat.nodes.iter().enumerate() {
        for (s, &c) in node.outputs.iter().enumerate() {
            if prod[c].replace((i, s)).is_some() {
                return Err(PlanError::Malformed(format!(
                    "channel {c} has two producers"
                )));
            }
        }
        for (s, &c) in node.inputs.iter().enumerate() {
            if cons[c].replace((i, s)).is_some() {
                return Err(PlanError::Malformed(format!(
                    "channel {c} has two consumers"
                )));
            }
        }
    }
    let mut edges = Vec::with_capacity(flat.num_channels);
    let mut endpoints = Vec::with_capacity(flat.num_channels);
    for c in 0..flat.num_channels {
        let (p, ps) =
            prod[c].ok_or_else(|| PlanError::Malformed(format!("channel {c} has no producer")))?;
        let (q, qs) =
            cons[c].ok_or_else(|| PlanError::Malformed(format!("channel {c} has no consumer")))?;
        edges.push(RateEdge {
            from: p,
            to: q,
            push: rates[p].steady.out_push[ps],
            pop: rates[q].steady.in_pop[qs],
        });
        endpoints.push(((p, ps), (q, qs)));
    }
    for e in &edges {
        if e.push == 0 || e.pop == 0 {
            return Err(PlanError::Unschedulable(format!(
                "channel {} -> {} has a zero steady rate",
                e.from, e.to
            )));
        }
    }

    // Repetition vector.
    let reps = balance(n, &edges).map_err(|e| PlanError::Unschedulable(e.message))?;
    let total: u64 = reps.iter().sum();
    if total > FIRINGS_LIMIT || reps.iter().any(|&q| q > u32::MAX as u64) {
        return Err(PlanError::TooLarge(format!(
            "{total} firings per steady cycle"
        )));
    }

    // Topological order (Kahn); a leftover node means a cycle.
    let mut indeg = vec![0usize; n];
    for e in &edges {
        indeg[e.to] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut topo = Vec::with_capacity(n);
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in edges.iter().enumerate() {
        out_edges[e.from].push(ei);
    }
    while let Some(i) = ready.pop() {
        topo.push(i);
        for &ei in &out_edges[i] {
            let t = edges[ei].to;
            indeg[t] -= 1;
            if indeg[t] == 0 {
                ready.push(t);
            }
        }
    }
    if topo.len() != n {
        return Err(PlanError::Cyclic);
    }

    // Init repetition counts, consumers before producers: every node whose
    // first firing has distinct rates must fire during init; a producer
    // fires enough extra times to cover its consumers' init consumption
    // plus their steady lookahead slack (peek − pop).
    let mut init_fires = vec![0u64; n];
    let mut initial_items = vec![0u64; flat.num_channels];
    for (c, items) in &flat.initial {
        initial_items[*c] = items.len() as u64;
    }
    for &j in topo.iter().rev() {
        let mut k = u64::from(rates[j].has_distinct_first());
        for &ei in &out_edges[j] {
            let ((_, ps), (q, qs)) = endpoints[ei];
            let c = flat.nodes[j].outputs[ps];
            let slack = rates[q].steady.in_peek[qs] - rates[q].steady.in_pop[qs];
            let consumed = batch_pop(&rates[q], true, init_fires[q], qs);
            let needed_on_chan = batch_need(&rates[q], true, init_fires[q], qs)
                .max(consumed + slack)
                .saturating_sub(initial_items[c]);
            if needed_on_chan == 0 {
                continue;
            }
            // Minimal fires of j so its (first + steady) pushes cover it.
            let fires = fires_to_cover(&rates[j], false, ps, needed_on_chan).ok_or_else(|| {
                PlanError::Unschedulable(format!(
                    "node {} cannot supply its consumer's init prologue",
                    flat.nodes[j].name
                ))
            })?;
            k = k.max(fires);
        }
        if k > u32::MAX as u64 {
            return Err(PlanError::TooLarge("init phase too long".into()));
        }
        init_fires[j] = k;
    }

    // Symbolic execution of init + one steady cycle: validates the
    // schedule and records each channel's exact maximum occupancy.
    //
    // The init phase runs topo-batched (a one-time cost). The steady cycle
    // is generated *demand-driven*: sinks are pulled one firing at a time,
    // each pull recursively firing producers in the largest batch that
    // covers the remaining demand. That keeps contiguous runs (so linear
    // nodes still batch) while giving the schedule the same fine
    // interleaving the data-driven engine discovers at run time — which is
    // what lets the plan engine stop a few steps past the requested output
    // count instead of overshooting by a whole cycle (frequency-heavy
    // graphs can emit thousands of outputs per cycle).
    let mut sim = Sim {
        flat,
        rates: &rates,
        prod: &prod,
        occ: initial_items.clone(),
        max_occ: initial_items,
        fired: vec![false; n],
        budget: init_fires.clone(),
        seq: Vec::new(),
        depth: 0,
    };
    for &i in &topo {
        if init_fires[i] > 0 {
            sim.fire_batch(i, init_fires[i])?;
        }
    }
    let init = std::mem::take(&mut sim.seq);
    let post_init = sim.occ.clone();
    sim.budget.copy_from_slice(&reps);
    let sinks: Vec<usize> = (0..n)
        .filter(|&i| flat.nodes[i].outputs.is_empty())
        .collect();
    if sinks.is_empty() {
        return Err(PlanError::Unschedulable("graph has no sink".into()));
    }
    loop {
        let mut any = false;
        for &s in &sinks {
            if sim.budget[s] > 0 {
                sim.pull(s, 1)?;
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    // Nodes whose output the sinks drew from *buffered* slack (built up by
    // the init phase) still owe firings this cycle: replenish in topo
    // order so every channel returns to its periodic occupancy.
    for &i in &topo {
        let owed = sim.budget[i];
        if owed > 0 {
            sim.pull(i, owed)?;
        }
    }
    if let Some(i) = (0..n).find(|&i| sim.budget[i] > 0) {
        return Err(PlanError::Unschedulable(format!(
            "node {} has {} unconsumed firings per cycle",
            flat.nodes[i].name, sim.budget[i]
        )));
    }
    if sim.occ != post_init {
        return Err(PlanError::Unschedulable(
            "steady cycle does not restore channel occupancies".into(),
        ));
    }
    if sim.max_occ.iter().sum::<u64>() > SLAB_LIMIT {
        return Err(PlanError::TooLarge(
            "total buffering exceeds the slab bound".into(),
        ));
    }
    Ok(ExecPlan {
        init,
        steady: sim.seq,
        caps: sim.max_occ.into_iter().map(|v| v as usize).collect(),
    })
}

/// Symbolic executor used by [`compile`]: tracks occupancies, firing
/// budgets and high-water marks while recording the firing sequence.
struct Sim<'a> {
    flat: &'a FlatGraph,
    rates: &'a [Rates],
    /// Per channel: `(producer node, output slot)`.
    prod: &'a [Option<(usize, usize)>],
    occ: Vec<u64>,
    max_occ: Vec<u64>,
    fired: Vec<bool>,
    budget: Vec<u64>,
    seq: Vec<Step>,
    depth: usize,
}

impl Sim<'_> {
    /// Fires node `i` exactly `k` consecutive times, assuming its inputs
    /// are already buffered (the init phase, and the leaf of a pull).
    fn fire_batch(&mut self, i: usize, k: u64) -> Result<(), PlanError> {
        let first = !self.fired[i];
        let node = &self.flat.nodes[i];
        for (s, &c) in node.inputs.iter().enumerate() {
            let need = batch_need(&self.rates[i], first, k, s);
            if self.occ[c] < need {
                return Err(PlanError::Unschedulable(format!(
                    "node {} needs {need} items buffered but only {} arrive",
                    node.name, self.occ[c]
                )));
            }
            self.occ[c] -= batch_pop(&self.rates[i], first, k, s);
        }
        for (s, &c) in node.outputs.iter().enumerate() {
            self.occ[c] += batch_push(&self.rates[i], first, k, s);
            self.max_occ[c] = self.max_occ[c].max(self.occ[c]);
            if self.occ[c] > CAP_LIMIT {
                return Err(PlanError::TooLarge(format!(
                    "channel of {} needs {} items buffered",
                    node.name, self.occ[c]
                )));
            }
        }
        if self.budget[i] < k {
            return Err(PlanError::Unschedulable(format!(
                "node {} is demanded beyond its repetition count",
                node.name
            )));
        }
        self.budget[i] -= k;
        self.fired[i] = true;
        match self.seq.last_mut() {
            Some(last) if last.node == i && (last.times as u64 + k) <= u32::MAX as u64 => {
                last.times += k as u32;
            }
            _ => self.seq.push(Step {
                node: i,
                times: k as u32,
            }),
        }
        Ok(())
    }

    /// Fires node `i` in a batch of `k`, first recursively pulling every
    /// producer whose channel lacks the items the batch needs.
    fn pull(&mut self, i: usize, k: u64) -> Result<(), PlanError> {
        self.depth += 1;
        if self.depth > 100_000 {
            return Err(PlanError::TooLarge("pull recursion too deep".into()));
        }
        for s in 0..self.flat.nodes[i].inputs.len() {
            let c = self.flat.nodes[i].inputs[s];
            // Recompute after each upstream pull; the loop is bounded
            // because every pull strictly raises the channel's occupancy.
            loop {
                let need = batch_need(&self.rates[i], !self.fired[i], k, s);
                if self.occ[c] >= need {
                    break;
                }
                let deficit = need - self.occ[c];
                let (p, ps) = self.prod[c].expect("validated above");
                let t = fires_to_cover(&self.rates[p], self.fired[p], ps, deficit).ok_or_else(
                    || {
                        PlanError::Unschedulable(format!(
                            "node {} cannot supply {}",
                            self.flat.nodes[p].name, self.flat.nodes[i].name
                        ))
                    },
                )?;
                self.pull(p, t)?;
            }
        }
        self.fire_batch(i, k)?;
        self.depth -= 1;
        Ok(())
    }
}

/// Mutable run state, kept apart from the nodes so a firing can borrow
/// both (mirrors the dynamic engine's split).
#[derive(Debug)]
pub(crate) struct PlanState<T> {
    pub(crate) rings: RingSet,
    pub(crate) printed: Vec<f64>,
    pub(crate) ops: T,
    pub(crate) firings: u64,
    /// Reusable staging buffer for batched outputs.
    pub(crate) out_buf: Vec<f64>,
}

/// Executes a compiled [`ExecPlan`] over ring buffers, generic over the
/// [`Tally`] its arithmetic threads through ([`OpCounter`] for the
/// measured experiment, [`streamlin_support::NoCount`] for production
/// execution).
#[derive(Debug)]
pub struct PlanEngine<T: Tally = OpCounter> {
    nodes: Vec<FlatNode>,
    plan: ExecPlan,
    state: PlanState<T>,
    init_done: bool,
    /// Next steady step to execute (the cycle position survives across
    /// calls, so a run can stop a few firings past the requested output
    /// count and resume mid-cycle later).
    cursor: usize,
    /// Firings of `steady[cursor]` already executed.
    partial: u32,
    /// Output count when the cursor last wrapped (progress detection).
    printed_at_wrap: usize,
}

impl<T: Tally + Default> PlanEngine<T> {
    /// Instantiates a flat graph under a plan compiled from it.
    pub fn new(flat: FlatGraph, plan: ExecPlan) -> Self {
        let rings = RingSet::new(&plan.caps, &flat.initial);
        PlanEngine {
            nodes: flat.nodes,
            plan,
            state: PlanState {
                rings,
                printed: Vec::new(),
                ops: T::default(),
                firings: 0,
                out_buf: Vec::new(),
            },
            init_done: false,
            cursor: 0,
            partial: 0,
            printed_at_wrap: 0,
        }
    }
}

impl<T: Tally> PlanEngine<T> {
    /// The compiled plan this engine runs.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

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

    /// Guard against programs that never print: how many consecutive
    /// output-less steady cycles to tolerate before giving up. A filter
    /// may legitimately print only every k-th cycle (conditional
    /// `println`s), so this is generous; the dynamic engine's equivalent
    /// backstop is its channel-capacity ceiling.
    const MAX_SILENT_CYCLES: u32 = 1 << 16;

    /// Runs the steady schedule (after the one-time init phase) until the
    /// program has printed at least `n` values, stopping at the exact
    /// firing that crosses the threshold — the cycle position is kept so a
    /// later call resumes mid-cycle.
    ///
    /// # Errors
    ///
    /// Propagates evaluation/rate errors from work functions, and reports
    /// a deadlock if `MAX_SILENT_CYCLES` consecutive steady cycles
    /// produce no output (the program can never reach `n`).
    pub fn run_until_outputs(&mut self, n: usize) -> Result<(), RunError> {
        self.run_probed(n, &mut NoProbe)
    }

    /// [`Self::run_until_outputs`] with a telemetry [`Probe`]: every
    /// firing batch becomes a span on lane 1 and local ring occupancy is
    /// sampled after each batch. Monomorphized over [`NoProbe`] this is
    /// exactly the uninstrumented loop — every record site is behind the
    /// compile-time-false `P::ENABLED` guard.
    ///
    /// # Errors
    ///
    /// As [`Self::run_until_outputs`].
    pub fn run_probed<P: Probe>(&mut self, n: usize, probe: &mut P) -> Result<(), RunError> {
        if !self.init_done {
            self.init_done = true;
            for si in 0..self.plan.init.len() {
                let step = self.plan.init[si];
                let t0 = probe.now();
                exec_batch(
                    &mut self.nodes[step.node],
                    step.times,
                    &mut self.state,
                    usize::MAX,
                )?;
                if P::ENABLED {
                    probe.batch(1, step.node, step.times, t0);
                }
            }
            self.printed_at_wrap = self.state.printed.len();
        }
        let mut silent_cycles = 0u32;
        while self.state.printed.len() < n {
            let step = self.plan.steady[self.cursor];
            let remaining = step.times - self.partial;
            let t0 = probe.now();
            let done = exec_batch(&mut self.nodes[step.node], remaining, &mut self.state, n)?;
            if P::ENABLED {
                probe.batch(1, step.node, done, t0);
                let ts = probe.now();
                for &c in &self.nodes[step.node].outputs {
                    probe.ring_depth(c, self.state.rings.len(c), ts);
                    probe.ring_cap(c, self.plan.caps[c]);
                }
            }
            if done < remaining {
                self.partial += done; // the print target interrupted the batch
            } else {
                self.partial = 0;
                self.cursor += 1;
                if self.cursor == self.plan.steady.len() {
                    self.cursor = 0;
                    if self.state.printed.len() == self.printed_at_wrap {
                        silent_cycles += 1;
                        if silent_cycles >= Self::MAX_SILENT_CYCLES {
                            return Err(RunError::Deadlock {
                                detail: format!(
                                    "{silent_cycles} consecutive steady cycles produced no \
                                     program output"
                                ),
                            });
                        }
                    } else {
                        silent_cycles = 0;
                        self.printed_at_wrap = self.state.printed.len();
                    }
                }
            }
        }
        Ok(())
    }
}

/// Fires one node up to `times` consecutive times over the ring buffers.
/// Nodes that can print (interpreted filters) stop as soon as `stop_at`
/// outputs exist — exactly like the data-driven engine's between-firing
/// check — and report how many firings actually ran; all other node kinds
/// always complete the batch.
pub(crate) fn exec_batch<T: Tally>(
    node: &mut FlatNode,
    times: u32,
    state: &mut PlanState<T>,
    stop_at: usize,
) -> Result<u32, RunError> {
    let input = node.inputs.first().copied();
    let output = node.outputs.first().copied();
    match &mut node.kind {
        NodeKind::Interp(interp) => {
            for done in 0..times {
                if state.printed.len() >= stop_at {
                    return Ok(done);
                }
                let (peek, _, _) = interp_phase_rates(interp);
                let window: &[f64] = match input {
                    Some(c) => state.rings.window(c, peek),
                    None => &[],
                };
                let (popped, pushed) =
                    run_work_phase(interp, window, &mut state.printed, &mut state.ops)?;
                state.firings += 1;
                if let Some(c) = input {
                    state.rings.consume(c, popped);
                }
                if let Some(c) = output {
                    state.rings.produce(c, &pushed);
                }
            }
            Ok(times)
        }
        NodeKind::Linear(exec) => {
            state.firings += times as u64;
            let k = times as usize;
            let (peek, pop) = (exec.node().peek(), exec.node().pop());
            state.out_buf.clear();
            match input {
                Some(c) => {
                    let span = (k - 1) * pop + peek;
                    let window = state.rings.window(c, span);
                    exec.fire_batch(window, k, &mut state.out_buf, &mut state.ops);
                    state.rings.consume(c, k * pop);
                }
                None => exec.fire_batch(&[], k, &mut state.out_buf, &mut state.ops),
            }
            if let Some(c) = output {
                state.rings.produce(c, &state.out_buf);
            }
            Ok(times)
        }
        NodeKind::Redund(exec) => {
            state.firings += times as u64;
            let (peek, pop) = (exec.spec().node().peek(), exec.spec().node().pop());
            for _ in 0..times {
                let window: &[f64] = match input {
                    Some(c) => state.rings.window(c, peek),
                    None => &[],
                };
                let out = exec.fire(window, &mut state.ops);
                if let Some(c) = input {
                    state.rings.consume(c, pop);
                }
                if let Some(c) = output {
                    state.rings.produce(c, &out);
                }
            }
            Ok(times)
        }
        NodeKind::Freq(exec) => {
            state.firings += times as u64;
            for _ in 0..times {
                let (peek, pop, _push) = exec.current_rates();
                let window: &[f64] = match input {
                    Some(c) => state.rings.window(c, peek),
                    None => &[],
                };
                let out = exec.fire(window, &mut state.ops);
                if let Some(c) = input {
                    state.rings.consume(c, pop);
                }
                if let Some(c) = output {
                    state.rings.produce(c, &out);
                }
            }
            Ok(times)
        }
        NodeKind::Decimator { pop, push } => {
            state.firings += times as u64;
            let (pop, push) = (*pop, *push);
            let c_in = input.expect("decimators always have an input");
            for _ in 0..times {
                let window = state.rings.window(c_in, pop);
                state.out_buf.clear();
                state.out_buf.extend_from_slice(&window[..push]);
                state.rings.consume(c_in, pop);
                if let Some(c) = output {
                    state.rings.produce(c, &state.out_buf);
                }
            }
            Ok(times)
        }
        NodeKind::Periodic { values, pos } => {
            state.firings += times as u64;
            state.out_buf.clear();
            for _ in 0..times {
                state.out_buf.push(values[*pos]);
                *pos = (*pos + 1) % values.len();
            }
            if let Some(c) = output {
                state.rings.produce(c, &state.out_buf);
            }
            Ok(times)
        }
        NodeKind::PrintSink { pop } => {
            let pop = *pop;
            let c_in = input.expect("sinks always have an input");
            // Every firing prints exactly `pop` items, so the number of
            // firings before the print target interrupts the batch is
            // known up front — run them as one slice append.
            let deficit = stop_at.saturating_sub(state.printed.len());
            if deficit == 0 {
                return Ok(0);
            }
            let run = (times as usize).min(deficit.div_ceil(pop)) as u32;
            let span = run as usize * pop;
            let PlanState { rings, printed, .. } = state;
            printed.extend_from_slice(rings.window(c_in, span));
            state.rings.consume(c_in, span);
            state.firings += run as u64;
            Ok(run)
        }
        NodeKind::DiscardSink { pop } => {
            state.firings += times as u64;
            let c_in = input.expect("sinks always have an input");
            state.rings.consume(c_in, *pop * times as usize);
            Ok(times)
        }
        // The synthesized fission plumbing moves items without arithmetic
        // and deliberately does NOT count as firings: the workers count
        // the original node's firings, so fission leaves the program's
        // firing totals (and tallies) invariant across widths.
        NodeKind::FissSplit(sp) => {
            let c_in = input.expect("splitters always have an input");
            for _ in 0..times {
                if std::mem::take(&mut sp.first) && sp.first_share > 0 {
                    // Distinct first firing: the windows of the unfissed
                    // plan's init firings go to worker 0 alone; their
                    // tail doubles as the first carried priming prefix.
                    let span = sp.first_share + sp.suffix;
                    let window = state.rings.window(c_in, span);
                    sp.scratch.clear();
                    sp.scratch.extend_from_slice(window);
                    state.rings.consume(c_in, sp.first_share);
                    state.rings.produce(node.outputs[0], &sp.scratch);
                    if sp.prefix > 0 {
                        sp.carry.clear();
                        sp.carry
                            .extend_from_slice(&sp.scratch[sp.first_share - sp.prefix..]);
                    }
                    continue;
                }
                let total = sp.steady_pop();
                {
                    let window = state.rings.window(c_in, total + sp.suffix);
                    sp.scratch.clear();
                    sp.scratch.extend_from_slice(window);
                }
                state.rings.consume(c_in, total);
                for (k, &out) in node.outputs.iter().enumerate() {
                    if sp.prefix > 0 {
                        if k == 0 {
                            state.rings.produce(out, &sp.carry);
                        } else {
                            let start = k * sp.share - sp.prefix;
                            state.rings.produce(out, &sp.scratch[start..k * sp.share]);
                        }
                    }
                    let start = k * sp.share;
                    state
                        .rings
                        .produce(out, &sp.scratch[start..start + sp.share + sp.suffix]);
                }
                if sp.prefix > 0 {
                    sp.carry.clear();
                    let tail = total - sp.prefix;
                    sp.carry.extend_from_slice(&sp.scratch[tail..total]);
                }
            }
            Ok(times)
        }
        NodeKind::FissWorker(fw) => {
            let c_in = input.expect("fission workers always have an input");
            for _ in 0..times {
                // The distinct first firing replays the unfissed init
                // batch (no priming prefix — the kernel's own first-firing
                // path runs naturally, and its internal state carries
                // across the contiguous batch); steady rounds prime from
                // the duplicated prefix when the kernel needs it.
                let first = std::mem::take(&mut fw.first) && fw.first_fires > 0;
                let (chunk, prefix, fires) = if first {
                    (fw.first_chunk_len(), 0, fw.first_fires)
                } else {
                    (fw.chunk_len(), fw.prefix, fw.batch)
                };
                let PlanState {
                    rings,
                    printed,
                    ops,
                    firings,
                    out_buf,
                } = state;
                let window = rings.window(c_in, chunk);
                out_buf.clear();
                match &mut fw.kernel {
                    FissKernel::Linear(exec) => exec.fire_batch(window, fires, out_buf, ops),
                    FissKernel::Freq(exec) => {
                        if prefix > 0 {
                            // Recompute the previous firing's edge
                            // partials from the duplicated prefix window —
                            // uncounted, like the unfissed node never
                            // performing this work at all.
                            let _ = exec.fire(&window[..prefix], &mut streamlin_support::NoCount);
                        }
                        for f in 0..fires {
                            let base = prefix + f * fw.pop;
                            let peek = exec.current_rates().0;
                            let out = exec.fire(&window[base..base + peek], ops);
                            out_buf.extend_from_slice(&out);
                        }
                    }
                    FissKernel::Interp(interp) => {
                        for f in 0..fires {
                            let base = f * fw.pop;
                            let (_, pushed) = run_work_phase(
                                interp,
                                &window[base..base + fw.peek],
                                printed,
                                ops,
                            )?;
                            out_buf.extend_from_slice(&pushed);
                        }
                    }
                }
                *firings += fires as u64;
                rings.consume(c_in, chunk);
                if let Some(c) = output {
                    rings.produce(c, out_buf);
                }
            }
            Ok(times)
        }
        NodeKind::FissJoin(fj) => {
            let c_out = output.expect("joiners always have an output");
            for _ in 0..times {
                if std::mem::take(&mut fj.first) && fj.first_take > 0 {
                    state.out_buf.clear();
                    {
                        let window = state.rings.window(node.inputs[0], fj.first_take);
                        state.out_buf.extend_from_slice(window);
                    }
                    state.rings.consume(node.inputs[0], fj.first_take);
                    state.rings.produce(c_out, &state.out_buf);
                    continue;
                }
                for &cin in &node.inputs {
                    state.out_buf.clear();
                    {
                        let window = state.rings.window(cin, fj.weight);
                        state.out_buf.extend_from_slice(window);
                    }
                    state.rings.consume(cin, fj.weight);
                    state.rings.produce(c_out, &state.out_buf);
                }
            }
            Ok(times)
        }
        NodeKind::Duplicate => {
            state.firings += times as u64;
            let c_in = input.expect("splitters always have an input");
            for _ in 0..times {
                let v = state.rings.pop_one(c_in);
                for &o in &node.outputs {
                    state.rings.push_one(o, v);
                }
            }
            Ok(times)
        }
        NodeKind::SplitRR(w) => {
            state.firings += times as u64;
            let c_in = input.expect("splitters always have an input");
            for _ in 0..times {
                for (k, &count) in w.iter().enumerate() {
                    for _ in 0..count {
                        let v = state.rings.pop_one(c_in);
                        state.rings.push_one(node.outputs[k], v);
                    }
                }
            }
            Ok(times)
        }
        NodeKind::JoinRR(w) => {
            state.firings += times as u64;
            let c_out = output.expect("joiners always have an output");
            for _ in 0..times {
                for (k, &count) in w.iter().enumerate() {
                    for _ in 0..count {
                        let v = state.rings.pop_one(node.inputs[k]);
                        state.rings.push_one(c_out, v);
                    }
                }
            }
            Ok(times)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;
    use crate::linear_exec::MatMulStrategy;
    use streamlin_core::opt::OptStream;

    fn flat_for(src: &str) -> FlatGraph {
        let p = streamlin_lang::parse(src).unwrap();
        let g = streamlin_graph::elaborate(&p).unwrap();
        flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap()
    }

    const RAMP: &str = "void->void pipeline Main { add S(); add G(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
         float->void filter K { work pop 1 { println(pop()); } }";

    #[test]
    fn simple_pipeline_plans_one_firing_each() {
        let plan = compile(&flat_for(RAMP)).unwrap();
        assert!(plan.init.is_empty(), "{plan:?}");
        assert_eq!(plan.steady_firings(), 3);
        assert_eq!(plan.caps, vec![1, 1]);
    }

    #[test]
    fn plan_engine_matches_dynamic_output() {
        let flat = flat_for(RAMP);
        let plan = compile(&flat).unwrap();
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(4).unwrap();
        assert_eq!(&e.printed()[..4], &[0.0, 3.0, 6.0, 9.0]);
        assert!(e.ops().mults() >= 4);
    }

    #[test]
    fn peek_prologue_gets_init_firings() {
        // D peeks 3, pops 1: the source must prime 2 items of slack.
        let flat = flat_for(
            "void->void pipeline Main { add S(); add D(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter D {
                 work peek 3 pop 1 push 1 { push(peek(2) - peek(0)); pop(); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        assert_eq!(plan.init_firings(), 2, "{plan:?}");
        // Channel S->D holds the 2-item prologue plus the in-cycle item.
        assert_eq!(plan.caps[0], 3);
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(3).unwrap();
        assert_eq!(&e.printed()[..3], &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn init_work_phase_is_scheduled_in_init() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add P(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->float filter P {
                 initWork pop 2 push 1 { push(pop() + pop()); }
                 work pop 1 push 1 { push(pop()); }
             }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        assert!(plan.init_firings() >= 1, "{plan:?}");
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(3).unwrap();
        // Same semantics as the dynamic engine's init_work test.
        assert_eq!(&e.printed()[..3], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn multirate_pipeline_balances_firings() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add E(); add C(); add K(); }
             void->float filter S { work push 1 { push(1.0); } }
             float->float filter E { work pop 1 push 3 { push(pop()); push(0); push(0); } }
             float->float filter C { work pop 2 push 1 { push(pop()); pop(); } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        // E pushes 3, C pops 2: q = [2, 2, 3, 3].
        assert_eq!(plan.steady_firings(), 10, "{plan:?}");
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(6).unwrap();
        assert_eq!(e.printed()[0], 1.0);
    }

    #[test]
    fn splitjoin_round_trip_matches_dynamic() {
        let flat = flat_for(
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
        let plan = compile(&flat).unwrap();
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(4).unwrap();
        assert_eq!(&e.printed()[..4], &[0.0, 0.0, 10.0, 100.0]);
    }

    #[test]
    fn feedback_loops_are_rejected_as_cyclic() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add FB(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
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
        assert_eq!(compile(&flat).unwrap_err(), PlanError::Cyclic);
    }

    #[test]
    fn conditionally_printing_sinks_survive_silent_cycles() {
        // The sink prints only every third firing, so two out of three
        // steady cycles produce no output — that must not be mistaken for
        // a deadlock (the dynamic engine runs this program fine).
        let flat = flat_for(
            "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 1 { push(x++); } }
             float->void filter K {
                 int c;
                 work pop 1 {
                     c++;
                     if (c % 3 == 0) println(pop()); else pop();
                 }
             }",
        );
        let plan = compile(&flat).unwrap();
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        e.run_until_outputs(3).unwrap();
        assert_eq!(&e.printed()[..3], &[2.0, 5.0, 8.0]);
    }

    #[test]
    fn rate_violation_is_still_reported() {
        let flat = flat_for(
            "void->void pipeline Main { add S(); add K(); }
             void->float filter S { float x; work push 2 { push(x); if (x > 0.5) push(x); x = x + 1; } }
             float->void filter K { work pop 1 { println(pop()); } }",
        );
        let plan = compile(&flat).unwrap();
        let mut e = PlanEngine::<OpCounter>::new(flat, plan);
        let err = e.run_until_outputs(1).unwrap_err();
        assert!(matches!(err, RunError::RateViolation(_)), "{err}");
    }
}
