//! The central end-to-end correctness statement: every optimization
//! configuration — including automatic selection, redundancy elimination
//! and the ATLAS-substitute matmul — produces program output identical to
//! the unoptimized baseline, on every benchmark.

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions, ReplaceTarget};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::runtime::MatMulStrategy;
use streamlin::runtime::{first_mismatch, run, RunSpec};

fn check(bench: &streamlin::benchmarks::Benchmark, outputs: usize) {
    let analysis = analyze_graph(bench.graph());
    let baseline = run(
        &replace(bench.graph(), &analysis, &ReplaceOptions::per_filter()),
        &RunSpec::new(outputs),
        None,
        None,
    )
    .unwrap_or_else(|e| panic!("{} baseline: {e}", bench.name()));

    let autosel = select(
        bench.graph(),
        &analysis,
        &CostModel::default(),
        &SelectOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
    .opt;

    let configs: Vec<(&str, streamlin::core::OptStream, MatMulStrategy)> = vec![
        ("autosel", autosel, MatMulStrategy::Unrolled),
        (
            "redund",
            replace(
                bench.graph(),
                &analysis,
                &ReplaceOptions {
                    combine: true,
                    target: ReplaceTarget::Redund,
                },
            ),
            MatMulStrategy::Unrolled,
        ),
        (
            "atlas",
            replace(bench.graph(), &analysis, &ReplaceOptions::maximal_linear()),
            MatMulStrategy::Blocked,
        ),
        (
            "diagonal",
            replace(bench.graph(), &analysis, &ReplaceOptions::maximal_linear()),
            MatMulStrategy::Diagonal,
        ),
    ];
    for (label, opt, strategy) in configs {
        let prof = run(
            &opt,
            &RunSpec {
                matmul: Some(strategy),
                ..RunSpec::new(outputs)
            },
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("{} {label}: {e}", bench.name()));
        if let Some(i) = first_mismatch(&baseline.outputs, &prof.outputs, 1e-5, 1e-5) {
            panic!(
                "{} {label}: output {i} differs: {} vs {}",
                bench.name(),
                baseline.outputs[i],
                prof.outputs[i]
            );
        }
    }
}

#[test]
fn fir_all_configs() {
    check(&streamlin::benchmarks::fir(64), 512);
}

#[test]
fn rate_convert_all_configs() {
    check(&streamlin::benchmarks::rate_convert(), 256);
}

#[test]
fn target_detect_all_configs() {
    check(&streamlin::benchmarks::target_detect(), 256);
}

#[test]
fn fm_radio_all_configs() {
    check(&streamlin::benchmarks::fm_radio(), 128);
}

#[test]
fn radar_all_configs() {
    check(&streamlin::benchmarks::radar(8, 2), 64);
}

#[test]
fn filter_bank_all_configs() {
    check(&streamlin::benchmarks::filter_bank(), 128);
}

#[test]
fn vocoder_all_configs() {
    check(&streamlin::benchmarks::vocoder(), 64);
}

#[test]
fn oversampler_all_configs() {
    check(&streamlin::benchmarks::oversampler(), 512);
}

#[test]
fn dtoa_all_configs() {
    check(&streamlin::benchmarks::dtoa(), 256);
}
