//! Domain scenario: the paper's FM software radio. Runs the full compiler
//! pipeline — extraction, maximal combination, frequency translation, and
//! automatic selection — and reports what each pass did to the graph and
//! to the executed operation counts.
//!
//! Run with: `cargo run --release --example optimization_report`

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = streamlin::benchmarks::fm_radio();
    let graph = bench.graph();

    let analysis = analyze_graph(graph);
    println!("== FMRadio ==");
    println!(
        "filters: {} ({} linear)",
        graph.filter_count(),
        analysis.linear_count()
    );
    for (id, reason) in &analysis.reasons {
        println!("  non-linear filter #{id}: {reason}");
    }

    let configs = [
        (
            "baseline",
            replace(graph, &analysis, &ReplaceOptions::per_filter()),
        ),
        (
            "linear",
            replace(graph, &analysis, &ReplaceOptions::maximal_linear()),
        ),
        (
            "freq",
            replace(graph, &analysis, &ReplaceOptions::maximal_freq()),
        ),
        (
            "autosel",
            select(
                graph,
                &analysis,
                &CostModel::default(),
                &SelectOptions::default(),
            )?
            .opt,
        ),
    ];

    let n = 512;
    let mut baseline_mults = None;
    for (name, opt) in configs {
        let stats = opt.stats();
        let prof = run(&opt, &RunSpec::new(n), None, None)?;
        let base = *baseline_mults.get_or_insert(prof.mults_per_output());
        println!(
            "{name:>9}: {:>2} nodes ({} linear, {} freq) | {:>8.1} mults/out ({:>6.1}% removed) | {:>7.1} us/out",
            stats.filters,
            stats.linear,
            stats.freq,
            prof.mults_per_output(),
            (1.0 - prof.mults_per_output() / base) * 100.0,
            prof.nanos_per_output() / 1000.0,
        );
    }
    Ok(())
}
