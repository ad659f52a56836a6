//! In-memory spans: name, start, end, parent and operation id, kept in a
//! `Vec` while the replay runs and written out once at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use streamlin_support::json::Json;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: usize,
}

/// A span recorder. Disabled, it records nothing and [`Spans::time`] is a
/// plain call, which is what the untraced replay runs.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose name is decided when it closes; returns its
    /// handle for [`Spans::finish`]. Spans nest strictly.
    pub fn start(&mut self, op: usize) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: "",
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        idx
    }

    pub fn finish(&mut self, idx: usize, name: &'static str) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must nest");
        let span = &mut self.spans[idx];
        span.name = name;
        span.end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, op: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.start(op);
        let out = f(self);
        self.finish(idx, name);
        out
    }

    /// Self time per span name, in nanoseconds: each span's duration
    /// minus the part of it its children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the root spans (those without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent, op]`
    /// rows (`parent` is -1 for a root).
    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::arr([
                Json::Str(s.name.into()),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                Json::Num(s.op as f64),
            ])
        }))
    }
}
