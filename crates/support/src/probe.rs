//! Runtime telemetry, following the [`crate::flops::Tally`] convention.
//!
//! The paper's methodology is measurement-driven: every experiment in
//! Chapter 5 is an *observed* count, not an estimate. The workspace
//! reproduces arithmetic counting with `Tally`; this module applies the
//! same zero-cost pattern to **time**: the compile pipeline and both
//! runtime engines are generic over a [`Probe`], and the run API
//! monomorphizes them twice —
//!
//! * [`NoProbe`] is a zero-sized type whose methods are `#[inline(always)]`
//!   empty bodies. Instrumented code guards every record site with
//!   `if P::ENABLED { … }` (a compile-time constant), so production runs
//!   carry **no clocks, no branches, no allocation** — bit-identical
//!   outputs and unchanged throughput.
//! * [`Recorder`] timestamps spans against a shared epoch, keeps bounded
//!   raw events for the Chrome-trace export and unbounded aggregates for
//!   the summary table. Worker threads record into [`Probe::fork`]ed
//!   recorders (same epoch, their own lane) that the coordinator
//!   [`Probe::absorb`]s when the run finishes, so no record site ever
//!   takes a lock.
//!
//! What gets recorded (see the runtime crate for the call sites):
//! compile-phase spans (parse/elaborate/flatten/plan/fission/partition),
//! per-lane firing-batch spans and busy time, stall time by kind
//! (empty-input waits, full-output waits, coordinator quantum waits,
//! between-round idle), ring occupancy samples with high-water marks and
//! full/empty stall counts, per-node firing counts and busy time against
//! the cost model's predicted per-firing cost, and free-form decision
//! notes (fission engagement/refusal, partition shape, pool acquisition).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Why an instrumented wait happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// A consumer waited on an empty boundary ring.
    RecvEmpty,
    /// A producer waited on a full boundary ring.
    SendFull,
    /// The coordinator waited for worker reports at a quantum boundary.
    Quantum,
    /// A worker sat idle between pacing rounds.
    Idle,
}

impl StallKind {
    /// Stable index for fixed-size per-lane accumulators.
    pub fn index(self) -> usize {
        match self {
            StallKind::RecvEmpty => 0,
            StallKind::SendFull => 1,
            StallKind::Quantum => 2,
            StallKind::Idle => 3,
        }
    }

    /// Display label (also the span name in exported traces).
    pub fn label(self) -> &'static str {
        match self {
            StallKind::RecvEmpty => "stall:recv-empty",
            StallKind::SendFull => "stall:send-full",
            StallKind::Quantum => "wait:quantum",
            StallKind::Idle => "idle",
        }
    }
}

/// The telemetry sink the compile pipeline and engines are generic over.
///
/// All durations are nanoseconds relative to the recorder's epoch; a
/// record site reads [`Probe::now`] once before the region and hands the
/// start back when closing it, so disabled probes never touch a clock.
/// Implementations must keep every method cheap and lock-free: the hot
/// paths call them between firings.
pub trait Probe: Sized {
    /// `false` statically removes every record site (the [`NoProbe`]
    /// instantiation): guard allocation or formatting work with
    /// `if P::ENABLED`.
    const ENABLED: bool;

    /// Nanoseconds since the recorder epoch (0 when disabled).
    fn now(&self) -> u64;

    /// Closes a compile-phase span (flatten, plan, fission, …) opened at
    /// `start_ns`.
    fn phase(&mut self, name: &'static str, start_ns: u64);

    /// Closes a firing-batch span: `times` firings of node `node` on
    /// `lane`, opened at `start_ns`. Also accumulates lane busy time and
    /// per-node firing counts/busy time.
    fn batch(&mut self, lane: u32, node: usize, times: u32, start_ns: u64);

    /// Closes a stall span of `kind` on `lane`, opened at `start_ns`.
    fn stall(&mut self, lane: u32, kind: StallKind, start_ns: u64);

    /// Samples a ring's occupancy (high-water tracking + trace counter).
    fn ring_depth(&mut self, chan: usize, depth: usize, ts_ns: u64);

    /// Counts one blocked episode on a ring: `full` for a producer that
    /// found it full, otherwise a consumer that found it empty.
    fn ring_stall(&mut self, chan: usize, full: bool);

    /// Registers a ring's capacity (for `high-water / capacity` reports).
    fn ring_cap(&mut self, chan: usize, cap: usize);

    /// Names a node (summary tables and trace span names).
    fn node_name(&mut self, node: usize, name: &str);

    /// Records the cost model's predicted per-firing cost of a node.
    fn node_cost(&mut self, node: usize, cost: f64);

    /// Names a lane (`coordinator`, `stage 0`, …).
    fn lane_name(&mut self, lane: u32, name: &str);

    /// Records a free-form decision note (`fission`, `pipeline`, `pool`).
    fn note(&mut self, key: &'static str, text: &str);

    /// A probe for a worker thread: same epoch, recording into `lane`.
    fn fork(&self, lane: u32) -> Self;

    /// Merges a forked probe's recordings back.
    fn absorb(&mut self, other: Self);
}

/// The production probe: a zero-sized no-op. Engines monomorphized over
/// `NoProbe` compile to exactly the uninstrumented code — the telemetry
/// equivalence suite pins bit-identical outputs and tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn phase(&mut self, _name: &'static str, _start_ns: u64) {}
    #[inline(always)]
    fn batch(&mut self, _lane: u32, _node: usize, _times: u32, _start_ns: u64) {}
    #[inline(always)]
    fn stall(&mut self, _lane: u32, _kind: StallKind, _start_ns: u64) {}
    #[inline(always)]
    fn ring_depth(&mut self, _chan: usize, _depth: usize, _ts_ns: u64) {}
    #[inline(always)]
    fn ring_stall(&mut self, _chan: usize, _full: bool) {}
    #[inline(always)]
    fn ring_cap(&mut self, _chan: usize, _cap: usize) {}
    #[inline(always)]
    fn node_name(&mut self, _node: usize, _name: &str) {}
    #[inline(always)]
    fn node_cost(&mut self, _node: usize, _cost: f64) {}
    #[inline(always)]
    fn lane_name(&mut self, _lane: u32, _name: &str) {}
    #[inline(always)]
    fn note(&mut self, _key: &'static str, _text: &str) {}
    #[inline(always)]
    fn fork(&self, _lane: u32) -> Self {
        NoProbe
    }
    #[inline(always)]
    fn absorb(&mut self, _other: Self) {}
}

/// A raw timeline event kept for the Chrome-trace export.
#[derive(Debug, Clone)]
pub enum Event {
    /// A compile-phase span (lane 0).
    Phase {
        /// Phase name.
        name: &'static str,
        /// Start, ns since epoch.
        start_ns: u64,
        /// Duration in ns.
        dur_ns: u64,
    },
    /// A firing-batch span.
    Batch {
        /// Lane (0 = coordinator, k = stage k−1).
        lane: u32,
        /// Node index in the executed flat graph.
        node: usize,
        /// Consecutive firings in the batch.
        times: u32,
        /// Start, ns since epoch.
        start_ns: u64,
        /// Duration in ns.
        dur_ns: u64,
    },
    /// A stall span.
    Stall {
        /// Lane the wait happened on.
        lane: u32,
        /// Why.
        kind: StallKind,
        /// Start, ns since epoch.
        start_ns: u64,
        /// Duration in ns.
        dur_ns: u64,
    },
    /// A ring-occupancy sample (exported as a counter track).
    RingDepth {
        /// Channel id.
        chan: usize,
        /// Items in flight.
        depth: usize,
        /// Sample time, ns since epoch.
        ts_ns: u64,
    },
}

impl Event {
    fn start(&self) -> u64 {
        match self {
            Event::Phase { start_ns, .. }
            | Event::Batch { start_ns, .. }
            | Event::Stall { start_ns, .. } => *start_ns,
            Event::RingDepth { ts_ns, .. } => *ts_ns,
        }
    }
}

/// Per-lane accumulated time, indexed by [`StallKind::index`] for stalls.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneStats {
    /// Time spent inside firing batches.
    pub busy_ns: u64,
    /// Firings executed on this lane.
    pub firings: u64,
    /// Stall time by kind.
    pub stall_ns: [u64; 4],
    /// Stall episodes by kind.
    pub stall_count: [u64; 4],
}

impl LaneStats {
    /// Total recorded stall time, excluding between-round idle (idle is
    /// bounded by the run's tail, not by pipeline contention).
    pub fn contention_ns(&self) -> u64 {
        self.stall_ns[StallKind::RecvEmpty.index()] + self.stall_ns[StallKind::SendFull.index()]
    }
}

/// Per-ring occupancy and blocking statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingStats {
    /// Highest observed occupancy.
    pub high_water: usize,
    /// Ring capacity (0 if never registered).
    pub cap: usize,
    /// Producer-blocked episodes (ring full).
    pub full_stalls: u64,
    /// Consumer-blocked episodes (ring empty).
    pub empty_stalls: u64,
    /// Occupancy samples taken.
    pub samples: u64,
}

/// Per-node firing statistics against the cost model.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Display name.
    pub name: String,
    /// Firings executed.
    pub firings: u64,
    /// Time inside firing batches of this node.
    pub busy_ns: u64,
    /// Cost model's predicted per-firing cost (arbitrary units).
    pub predicted: f64,
}

/// Raw events kept per run; aggregates are exact regardless. Big enough
/// for hundreds of steady cycles on every benchmark, small enough that a
/// runaway trace stays in the tens of megabytes.
const EVENT_CAP: usize = 1 << 18;

/// The instrumented probe: bounded raw events + exact aggregates.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    lane: u32,
    /// Raw timeline (bounded by `EVENT_CAP`; see [`Recorder::dropped`]).
    pub events: Vec<Event>,
    /// Events discarded after the cap was reached.
    pub dropped: u64,
    /// Per-lane busy/stall accumulators.
    pub lanes: BTreeMap<u32, LaneStats>,
    /// Per-ring occupancy/blocking accumulators.
    pub rings: BTreeMap<usize, RingStats>,
    /// Per-node firing accumulators.
    pub nodes: BTreeMap<usize, NodeStats>,
    /// Lane display names.
    pub lane_names: BTreeMap<u32, String>,
    /// Decision notes, in emission order.
    pub notes: Vec<(&'static str, String)>,
}

impl Recorder {
    /// A fresh recorder; its creation instant is the trace epoch.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            lane: 0,
            events: Vec::new(),
            dropped: 0,
            lanes: BTreeMap::new(),
            rings: BTreeMap::new(),
            nodes: BTreeMap::new(),
            lane_names: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// The lane this recorder's events land on.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    fn push(&mut self, e: Event) {
        if self.events.len() < EVENT_CAP {
            self.events.push(e);
        } else {
            self.dropped += 1;
        }
    }

    /// Total compile-phase time (every [`Event::Phase`] span), in ns.
    /// Phases never nest, so the sum is the wall time spent compiling.
    pub fn compile_ns(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Phase { dur_ns, .. } => Some(*dur_ns),
                _ => None,
            })
            .sum()
    }

    /// Fraction of worker time spent blocked on ring boundaries
    /// (recv-empty + send-full over busy + those stalls), across all
    /// lanes. 0.0 when nothing was recorded.
    pub fn stall_fraction(&self) -> f64 {
        let (mut busy, mut stalled) = (0u64, 0u64);
        for l in self.lanes.values() {
            busy += l.busy_ns;
            stalled += l.contention_ns();
        }
        if busy + stalled == 0 {
            0.0
        } else {
            stalled as f64 / (busy + stalled) as f64
        }
    }

    fn lane_label(&self, lane: u32) -> String {
        self.lane_names
            .get(&lane)
            .cloned()
            .unwrap_or_else(|| format!("lane {lane}"))
    }

    fn node_label(&self, node: usize) -> String {
        match self.nodes.get(&node) {
            Some(s) if !s.name.is_empty() => s.name.clone(),
            _ => format!("node {node}"),
        }
    }

    /// The human `--metrics` report: where time went, per phase, lane,
    /// ring and node, plus the decision notes.
    pub fn summary(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        let _ = writeln!(out, "== compile phases ==");
        for e in &self.events {
            if let Event::Phase { name, dur_ns, .. } = e {
                let _ = writeln!(out, "  {name:<12} {:>9.3} ms", ms(*dur_ns));
            }
        }
        let _ = writeln!(out, "== lanes ==");
        let _ = writeln!(
            out,
            "  {:<12} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "lane", "busy ms", "recv-stall", "send-stall", "quantum", "idle ms", "firings"
        );
        for (&lane, l) in &self.lanes {
            let pct = |kind: StallKind| {
                let s = l.stall_ns[kind.index()];
                let denom = l.busy_ns + l.contention_ns();
                if denom == 0 {
                    format!("{:.2}ms", ms(s))
                } else {
                    format!("{:.2}ms/{:.0}%", ms(s), 100.0 * s as f64 / denom as f64)
                }
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>10.3} {:>12} {:>12} {:>12} {:>10.2} {:>10}",
                self.lane_label(lane),
                ms(l.busy_ns),
                pct(StallKind::RecvEmpty),
                pct(StallKind::SendFull),
                format!(
                    "{}x/{:.2}ms",
                    l.stall_count[StallKind::Quantum.index()],
                    ms(l.stall_ns[StallKind::Quantum.index()])
                ),
                ms(l.stall_ns[StallKind::Idle.index()]),
                l.firings
            );
        }
        if !self.rings.is_empty() {
            let _ = writeln!(out, "== rings ==");
            let _ = writeln!(
                out,
                "  {:<6} {:>15} {:>12} {:>13}",
                "chan", "high-water/cap", "full-stalls", "empty-stalls"
            );
            for (&chan, r) in &self.rings {
                let cap = if r.cap > 0 {
                    format!("{}/{}", r.high_water, r.cap)
                } else {
                    format!("{}", r.high_water)
                };
                let _ = writeln!(
                    out,
                    "  {:<6} {:>15} {:>12} {:>13}",
                    chan, cap, r.full_stalls, r.empty_stalls
                );
            }
        }
        if !self.nodes.is_empty() {
            let _ = writeln!(out, "== nodes ==");
            let _ = writeln!(
                out,
                "  {:<28} {:>10} {:>12} {:>12} {:>10} {:>10}",
                "node", "firings", "busy ms", "ns/firing", "predicted", "meas/pred"
            );
            for s in self.nodes.values() {
                if s.firings == 0 && s.busy_ns == 0 {
                    continue;
                }
                let per = s.busy_ns as f64 / s.firings.max(1) as f64;
                let ratio = if s.predicted > 0.0 {
                    format!("{:.2}", per / s.predicted)
                } else {
                    "-".into()
                };
                let _ = writeln!(
                    out,
                    "  {:<28} {:>10} {:>12.3} {:>12.1} {:>10.1} {:>10}",
                    s.name,
                    s.firings,
                    ms(s.busy_ns),
                    per,
                    s.predicted,
                    ratio
                );
            }
            // Data-parallel fission duplicates are named `fiss[k/w] …`;
            // their busy spread is the worker-imbalance report.
            let fiss: Vec<&NodeStats> = self
                .nodes
                .values()
                .filter(|s| s.name.starts_with("fiss[") && s.firings > 0)
                .collect();
            if fiss.len() > 1 {
                let max = fiss.iter().map(|s| s.busy_ns).max().unwrap_or(0);
                let min = fiss.iter().map(|s| s.busy_ns).min().unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  fission imbalance: busiest/laziest worker = {:.2} ({:.3} ms vs {:.3} ms)",
                    max as f64 / min.max(1) as f64,
                    ms(max),
                    ms(min)
                );
            }
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "== decisions ==");
            for (k, v) in &self.notes {
                let _ = writeln!(out, "  {k}: {v}");
            }
        }
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "  (trace truncated: {} events beyond the {EVENT_CAP}-event cap were \
                 dropped; aggregates above remain exact)",
                self.dropped
            );
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto): one `tid`
    /// lane per worker/stage, `X` spans for firing batches, phases and
    /// stalls, `C` counters for ring occupancy, `i` instants for decision
    /// notes. Events are sorted by start time, so per-lane span
    /// timestamps are monotone.
    pub fn chrome_trace(&self) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |out: &mut String, item: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&item);
        };
        emit(
            &mut out,
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"streamlin\"}}"
                .into(),
        );
        let mut lanes: Vec<u32> = self.lanes.keys().copied().collect();
        for e in &self.events {
            let lane = match e {
                Event::Phase { .. } => 0,
                Event::Batch { lane, .. } | Event::Stall { lane, .. } => *lane,
                Event::RingDepth { .. } => continue,
            };
            if !lanes.contains(&lane) {
                lanes.push(lane);
            }
        }
        lanes.sort_unstable();
        for lane in lanes {
            emit(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{lane},\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(&self.lane_label(lane))
                ),
            );
        }
        for (k, v) in &self.notes {
            emit(
                &mut out,
                format!(
                    "{{\"ph\":\"i\",\"s\":\"g\",\"name\":{},\"pid\":1,\"tid\":0,\"ts\":0}}",
                    json_string(&format!("{k}: {v}"))
                ),
            );
        }
        let mut events: Vec<&Event> = self.events.iter().collect();
        events.sort_by_key(|e| e.start());
        for e in events {
            let item = match e {
                Event::Phase {
                    name,
                    start_ns,
                    dur_ns,
                } => format!(
                    "{{\"ph\":\"X\",\"name\":{},\"cat\":\"compile\",\"pid\":1,\"tid\":0,\
                     \"ts\":{:.3},\"dur\":{:.3}}}",
                    json_string(name),
                    us(*start_ns),
                    us(*dur_ns)
                ),
                Event::Batch {
                    lane,
                    node,
                    times,
                    start_ns,
                    dur_ns,
                } => format!(
                    "{{\"ph\":\"X\",\"name\":{},\"cat\":\"exec\",\"pid\":1,\"tid\":{lane},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"firings\":{times}}}}}",
                    json_string(&format!("{} x{times}", self.node_label(*node))),
                    us(*start_ns),
                    us(*dur_ns)
                ),
                Event::Stall {
                    lane,
                    kind,
                    start_ns,
                    dur_ns,
                } => format!(
                    "{{\"ph\":\"X\",\"name\":{},\"cat\":\"stall\",\"pid\":1,\"tid\":{lane},\
                     \"ts\":{:.3},\"dur\":{:.3}}}",
                    json_string(kind.label()),
                    us(*start_ns),
                    us(*dur_ns)
                ),
                Event::RingDepth { chan, depth, ts_ns } => format!(
                    "{{\"ph\":\"C\",\"name\":{},\"pid\":1,\"tid\":0,\"ts\":{:.3},\
                     \"args\":{{\"depth\":{depth}}}}}",
                    json_string(&format!("ring {chan}")),
                    us(*ts_ns)
                ),
            };
            emit(&mut out, item);
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Probe for Recorder {
    const ENABLED: bool = true;

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn phase(&mut self, name: &'static str, start_ns: u64) {
        let dur_ns = self.now().saturating_sub(start_ns);
        self.push(Event::Phase {
            name,
            start_ns,
            dur_ns,
        });
    }

    fn batch(&mut self, lane: u32, node: usize, times: u32, start_ns: u64) {
        let dur_ns = self.now().saturating_sub(start_ns);
        let l = self.lanes.entry(lane).or_default();
        l.busy_ns += dur_ns;
        l.firings += times as u64;
        let n = self.nodes.entry(node).or_default();
        n.firings += times as u64;
        n.busy_ns += dur_ns;
        self.push(Event::Batch {
            lane,
            node,
            times,
            start_ns,
            dur_ns,
        });
    }

    fn stall(&mut self, lane: u32, kind: StallKind, start_ns: u64) {
        let dur_ns = self.now().saturating_sub(start_ns);
        let l = self.lanes.entry(lane).or_default();
        l.stall_ns[kind.index()] += dur_ns;
        l.stall_count[kind.index()] += 1;
        self.push(Event::Stall {
            lane,
            kind,
            start_ns,
            dur_ns,
        });
    }

    fn ring_depth(&mut self, chan: usize, depth: usize, ts_ns: u64) {
        let r = self.rings.entry(chan).or_default();
        r.high_water = r.high_water.max(depth);
        r.samples += 1;
        // Counter samples are dense; keep the trace readable by only
        // recording changes of direction-free duplicates.
        match self.events.last() {
            Some(Event::RingDepth {
                chan: c, depth: d, ..
            }) if *c == chan && *d == depth => {}
            _ => self.push(Event::RingDepth { chan, depth, ts_ns }),
        }
    }

    fn ring_stall(&mut self, chan: usize, full: bool) {
        let r = self.rings.entry(chan).or_default();
        if full {
            r.full_stalls += 1;
        } else {
            r.empty_stalls += 1;
        }
    }

    fn ring_cap(&mut self, chan: usize, cap: usize) {
        self.rings.entry(chan).or_default().cap = cap;
    }

    fn node_name(&mut self, node: usize, name: &str) {
        self.nodes.entry(node).or_default().name = name.to_string();
    }

    fn node_cost(&mut self, node: usize, cost: f64) {
        self.nodes.entry(node).or_default().predicted = cost;
    }

    fn lane_name(&mut self, lane: u32, name: &str) {
        self.lane_names.insert(lane, name.to_string());
    }

    fn note(&mut self, key: &'static str, text: &str) {
        self.notes.push((key, text.to_string()));
    }

    fn fork(&self, lane: u32) -> Self {
        Recorder {
            epoch: self.epoch,
            lane,
            events: Vec::new(),
            dropped: 0,
            lanes: BTreeMap::new(),
            rings: BTreeMap::new(),
            nodes: BTreeMap::new(),
            lane_names: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Self) {
        for e in other.events {
            self.push(e);
        }
        self.dropped += other.dropped;
        for (lane, l) in other.lanes {
            let m = self.lanes.entry(lane).or_default();
            m.busy_ns += l.busy_ns;
            m.firings += l.firings;
            for i in 0..4 {
                m.stall_ns[i] += l.stall_ns[i];
                m.stall_count[i] += l.stall_count[i];
            }
        }
        for (chan, r) in other.rings {
            let m = self.rings.entry(chan).or_default();
            m.high_water = m.high_water.max(r.high_water);
            m.cap = m.cap.max(r.cap);
            m.full_stalls += r.full_stalls;
            m.empty_stalls += r.empty_stalls;
            m.samples += r.samples;
        }
        for (node, n) in other.nodes {
            let m = self.nodes.entry(node).or_default();
            if m.name.is_empty() {
                m.name = n.name;
            }
            m.firings += n.firings;
            m.busy_ns += n.busy_ns;
            if m.predicted == 0.0 {
                m.predicted = n.predicted;
            }
        }
        for (lane, name) in other.lane_names {
            self.lane_names.entry(lane).or_insert(name);
        }
        self.notes.extend(other.notes);
    }
}

/// Escapes a string as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::json::write_string(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprobe_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
        const { assert!(!NoProbe::ENABLED) }
        assert_eq!(NoProbe.now(), 0);
    }

    #[test]
    fn recorder_accumulates_lane_and_node_stats() {
        let mut r = Recorder::new();
        let t0 = r.now();
        r.node_name(3, "fir");
        r.batch(1, 3, 16, t0);
        r.stall(1, StallKind::RecvEmpty, r.now());
        assert_eq!(r.lanes[&1].firings, 16);
        assert_eq!(r.nodes[&3].firings, 16);
        assert_eq!(r.lanes[&1].stall_count[StallKind::RecvEmpty.index()], 1);
    }

    #[test]
    fn fork_and_absorb_merge_aggregates() {
        let mut main = Recorder::new();
        let mut w = main.fork(2);
        let t0 = w.now();
        w.batch(2, 0, 4, t0);
        w.ring_depth(7, 5, w.now());
        w.ring_stall(7, true);
        main.absorb(w);
        assert_eq!(main.lanes[&2].firings, 4);
        assert_eq!(main.rings[&7].high_water, 5);
        assert_eq!(main.rings[&7].full_stalls, 1);
    }

    #[test]
    fn high_water_takes_the_max_across_workers() {
        let mut main = Recorder::new();
        let mut a = main.fork(1);
        let mut b = main.fork(2);
        a.ring_depth(0, 3, 10);
        b.ring_depth(0, 9, 20);
        main.absorb(a);
        main.absorb(b);
        assert_eq!(main.rings[&0].high_water, 9);
    }

    #[test]
    fn chrome_trace_contains_lanes_and_spans() {
        let mut r = Recorder::new();
        r.lane_name(1, "stage 0");
        r.node_name(0, "src \"quoted\"");
        let t0 = r.now();
        r.batch(1, 0, 2, t0);
        r.note("fission", "off");
        let trace = r.chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("thread_name"));
        assert!(trace.contains("\\\"quoted\\\""));
        assert!(trace.contains("fission: off"));
    }

    #[test]
    fn event_cap_preserves_aggregates() {
        let mut r = Recorder::new();
        for _ in 0..(EVENT_CAP + 10) {
            let t0 = r.now();
            r.batch(1, 0, 1, t0);
        }
        assert_eq!(r.dropped, 10);
        assert_eq!(r.lanes[&1].firings, (EVENT_CAP + 10) as u64);
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
