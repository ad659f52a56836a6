//! Reproduction harness for the paper's evaluation (Chapter 5).
//!
//! One binary per table/figure lives in `src/bin/` (see DESIGN.md's
//! per-experiment index); this library holds the shared machinery: the
//! four measured configurations of §5.2, percentage/speedup arithmetic,
//! and a fixed-width table printer so every binary emits the same rows and
//! series the paper reports.

use streamlin_benchmarks::Benchmark;
use streamlin_core::combine::{analyze_graph, replace, ReplaceOptions, ReplaceTarget};
use streamlin_core::cost::CostModel;
use streamlin_core::frequency::FreqStrategy;
use streamlin_core::opt::OptStream;
use streamlin_core::select::{select, SelectOptions};
use streamlin_fft::FftKind;
use streamlin_runtime::{run as run_spec, MatMulStrategy, Profile, RunSpec};

/// The measured configurations of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Fully interpreted program: no linear replacement at all, every
    /// work function runs in the slot-resolved interpreter. The
    /// interpreter-bound row of the perf trajectory.
    Interp,
    /// Unoptimized program (per-filter direct execution — the paper's
    /// compiled-C baseline; see DESIGN.md's substitution notes).
    Baseline,
    /// Maximal linear replacement.
    Linear,
    /// Maximal frequency replacement.
    Freq,
    /// Automatic optimization selection.
    AutoSel,
    /// Per-filter linear replacement, no combination (Fig. 5-4 "(nc)").
    LinearNc,
    /// Per-filter frequency replacement, no combination (Fig. 5-4 "(nc)").
    FreqNc,
    /// Maximal linear replacement with redundancy elimination (§5.6).
    Redund,
}

impl Config {
    /// Short label used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Config::Interp => "interp",
            Config::Baseline => "baseline",
            Config::Linear => "linear",
            Config::Freq => "freq",
            Config::AutoSel => "autosel",
            Config::LinearNc => "linear(nc)",
            Config::FreqNc => "freq(nc)",
            Config::Redund => "redund",
        }
    }
}

/// Builds the optimized stream for a configuration.
///
/// # Panics
///
/// Panics if selection fails (benchmark graphs always schedule).
pub fn configure(bench: &Benchmark, config: Config) -> OptStream {
    let analysis = analyze_graph(bench.graph());
    let freq = |combine: bool| ReplaceOptions {
        combine,
        target: ReplaceTarget::Freq {
            strategy: FreqStrategy::Optimized,
            kind: FftKind::Tuned,
            unit_pop_only: false,
        },
    };
    match config {
        Config::Interp => OptStream::from_graph(bench.graph()),
        Config::Baseline => replace(bench.graph(), &analysis, &ReplaceOptions::per_filter()),
        Config::Linear => replace(bench.graph(), &analysis, &ReplaceOptions::maximal_linear()),
        Config::Freq => replace(bench.graph(), &analysis, &freq(true)),
        Config::FreqNc => replace(bench.graph(), &analysis, &freq(false)),
        Config::LinearNc => replace(bench.graph(), &analysis, &ReplaceOptions::per_filter()),
        Config::Redund => replace(
            bench.graph(),
            &analysis,
            &ReplaceOptions {
                combine: true,
                target: ReplaceTarget::Redund,
            },
        ),
        Config::AutoSel => {
            select(
                bench.graph(),
                &analysis,
                &CostModel::default(),
                &SelectOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
            .opt
        }
    }
}

/// Profiles a benchmark under a configuration.
///
/// # Panics
///
/// Panics on execution errors — the harness measures known-good programs.
pub fn run(bench: &Benchmark, config: Config, outputs: usize) -> Profile {
    run_with_strategy(bench, config, outputs, MatMulStrategy::Unrolled)
}

/// Profiles with an explicit matrix-multiply strategy (the ATLAS study).
///
/// # Panics
///
/// Panics on execution errors.
pub fn run_with_strategy(
    bench: &Benchmark,
    config: Config,
    outputs: usize,
    strategy: MatMulStrategy,
) -> Profile {
    let opt = configure(bench, config);
    let spec = RunSpec {
        matmul: Some(strategy),
        ..RunSpec::new(outputs)
    };
    run_spec(&opt, &spec, None, None)
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", bench.name(), config.label()))
}

/// Percentage removed: `(1 − after/before)·100` (negative = increase),
/// the quantity of Figures 5-1/5-2.
pub fn pct_removed(before: f64, after: f64) -> f64 {
    (1.0 - after / before) * 100.0
}

/// Speedup percentage: `(t_before/t_after − 1)·100`, the quantity of
/// Figure 5-3 (an 800% speedup is 9× faster).
pub fn speedup_pct(before_ns: f64, after_ns: f64) -> f64 {
    (before_ns / after_ns - 1.0) * 100.0
}

/// Fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with one decimal place.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        assert_eq!(pct_removed(100.0, 14.0), 86.0);
        assert!(pct_removed(100.0, 130.0) < 0.0);
        assert_eq!(speedup_pct(10.0, 2.0), 400.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("long-name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn configs_produce_distinct_structures() {
        let b = streamlin_benchmarks::fir(64);
        let base = configure(&b, Config::Baseline).stats();
        let lin = configure(&b, Config::Linear).stats();
        let freq = configure(&b, Config::Freq).stats();
        assert_eq!(base.linear, 1);
        assert_eq!(lin.linear, 1);
        assert_eq!(freq.freq, 1);
    }
}

/// One benchmark measured under the four §5.2 configurations.
#[derive(Debug)]
pub struct OverallRow {
    /// Benchmark name.
    pub name: String,
    /// Unoptimized measurement.
    pub baseline: Profile,
    /// Maximal linear replacement.
    pub linear: Profile,
    /// Maximal frequency replacement.
    pub freq: Profile,
    /// Automatic selection.
    pub autosel: Profile,
}

/// Measures the whole suite under baseline/linear/freq/autosel, as used by
/// Figures 5-1, 5-2 and 5-3. `scale` multiplies each benchmark's default
/// output count (1.0 for the full runs recorded in EXPERIMENTS.md).
pub fn overall_results(scale: f64) -> Vec<OverallRow> {
    streamlin_benchmarks::all_default()
        .into_iter()
        .map(|b| {
            let n = ((b.default_outputs() as f64 * scale) as usize).max(32);
            eprintln!("measuring {} ({} outputs)...", b.name(), n);
            OverallRow {
                name: b.name().to_string(),
                baseline: run(&b, Config::Baseline, n),
                linear: run(&b, Config::Linear, n),
                freq: run(&b, Config::Freq, n),
                autosel: run(&b, Config::AutoSel, n),
            }
        })
        .collect()
}

/// Reads an output-scale factor from the first CLI argument (default 1.0),
/// so quick sanity runs can use e.g. `0.1`.
pub fn arg_scale() -> f64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}
