//! Scheduler equivalence: for every benchmark program and every
//! optimization configuration, the compiled static plan produces printed
//! output **bit-identical** to the data-driven scheduler. The two engines
//! share firing semantics (same interpreter, same kernels, same
//! accumulation order in the batched linear path), so equality here is
//! exact — `f64::to_bits`, not a tolerance.

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions, ReplaceTarget};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::core::OptStream;
use streamlin::runtime::MatMulStrategy;
use streamlin::runtime::{run, ExecMode, RunSpec, Scheduler};
use streamlin::service::env_tier;

/// CI runs this suite once per execution mode: `STREAMLIN_TEST_MODE=fast`
/// selects the uncounted production path, which must print the same bits
/// under either scheduler just like the measured path does.
fn test_mode() -> ExecMode {
    match std::env::var("STREAMLIN_TEST_MODE").as_deref() {
        Ok("fast") => ExecMode::Fast,
        _ => ExecMode::Measured,
    }
}

/// `STREAMLIN_TEST_THREADS=n` routes the static side of the comparison
/// through the pipeline-parallel executor with at most `n` stages — the
/// data-driven scheduler must still see the same bits (CI runs the suite
/// once more with 2 threads).
fn test_threads() -> Option<usize> {
    std::env::var("STREAMLIN_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// `STREAMLIN_TEST_FISSION=w` additionally fisses the dominant node at
/// width `w` on the static side (a no-op where the pass refuses) — the
/// dynamic scheduler must still see identical bits.
fn test_fission() -> streamlin::runtime::fission::Fission {
    match std::env::var("STREAMLIN_TEST_FISSION")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(w) if w > 1 => streamlin::runtime::fission::Fission::Width(w),
        _ => streamlin::runtime::fission::Fission::Off,
    }
}

fn configs(bench: &streamlin::benchmarks::Benchmark) -> Vec<(&'static str, OptStream)> {
    let analysis = analyze_graph(bench.graph());
    vec![
        (
            "baseline",
            replace(bench.graph(), &analysis, &ReplaceOptions::per_filter()),
        ),
        (
            "linear",
            replace(bench.graph(), &analysis, &ReplaceOptions::maximal_linear()),
        ),
        (
            "freq",
            replace(bench.graph(), &analysis, &ReplaceOptions::maximal_freq()),
        ),
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
        ),
        (
            "autosel",
            select(
                bench.graph(),
                &analysis,
                &CostModel::default(),
                &SelectOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
            .opt,
        ),
    ]
}

/// The suite's base spec: the CI leg's mode and the environment's tier
/// (`STREAMLIN_NO_BYTECODE=1` reruns the suite on the tree-walker).
fn base(outputs: usize) -> RunSpec {
    RunSpec {
        matmul: Some(MatMulStrategy::Unrolled),
        mode: test_mode(),
        tier: env_tier(),
        ..RunSpec::new(outputs)
    }
}

fn check(bench: &streamlin::benchmarks::Benchmark, outputs: usize) {
    for (label, opt) in configs(bench) {
        let dynamic = RunSpec {
            sched: Scheduler::Dynamic,
            ..base(outputs)
        };
        let dynamic = run(&opt, &dynamic, None, None)
            .unwrap_or_else(|e| panic!("{} {label} dynamic: {e}", bench.name()));
        // Feedback programs have no static plan; `Auto` must still run
        // them (via the fallback) with identical output.
        let sched = if opt.has_feedback() {
            Scheduler::Auto
        } else {
            Scheduler::Static
        };
        // A lone fission request runs a one-stage pipeline.
        let staticp = RunSpec {
            sched,
            threads: test_threads(),
            fission: test_fission(),
            ..base(outputs)
        };
        let staticp = run(&opt, &staticp, None, None)
            .unwrap_or_else(|e| panic!("{} {label} static: {e}", bench.name()));
        if !opt.has_feedback() {
            assert_eq!(
                staticp.sched,
                Scheduler::Static,
                "{} {label}: expected a compiled plan",
                bench.name()
            );
        }
        assert_eq!(
            dynamic.outputs.len(),
            staticp.outputs.len(),
            "{} {label}: output counts differ",
            bench.name()
        );
        for (i, (a, b)) in dynamic.outputs.iter().zip(&staticp.outputs).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {label}: output {i} differs: {a} (dynamic) vs {b} (static)",
                bench.name()
            );
        }
    }
}

#[test]
fn fir_static_plan_is_bit_identical() {
    check(&streamlin::benchmarks::fir(64), 512);
}

#[test]
fn rate_convert_static_plan_is_bit_identical() {
    check(&streamlin::benchmarks::rate_convert(), 256);
}

#[test]
fn target_detect_static_plan_is_bit_identical() {
    check(&streamlin::benchmarks::target_detect(), 256);
}

#[test]
fn fm_radio_static_plan_is_bit_identical() {
    check(&streamlin::benchmarks::fm_radio(), 128);
}

#[test]
fn radar_static_plan_is_bit_identical() {
    check(&streamlin::benchmarks::radar(8, 2), 64);
}

#[test]
fn filter_bank_static_plan_is_bit_identical() {
    check(&streamlin::benchmarks::filter_bank(), 128);
}

#[test]
fn vocoder_static_plan_is_bit_identical() {
    check(&streamlin::benchmarks::vocoder(), 64);
}

#[test]
fn oversampler_static_plan_is_bit_identical() {
    check(&streamlin::benchmarks::oversampler(), 512);
}

#[test]
fn dtoa_static_plan_is_bit_identical() {
    // dtoa has a noise-shaping feedback loop: no static plan exists, and
    // `Auto` must transparently run the dynamic fallback.
    check(&streamlin::benchmarks::dtoa(), 256);
}

#[test]
fn every_feedback_free_benchmark_compiles_a_plan() {
    for b in streamlin::benchmarks::all_default() {
        let analysis = analyze_graph(b.graph());
        let opt = replace(b.graph(), &analysis, &ReplaceOptions::per_filter());
        let prof = run(&opt, &base(64), None, None).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let expected = if opt.has_feedback() {
            Scheduler::Dynamic
        } else {
            Scheduler::Static
        };
        assert_eq!(prof.sched, expected, "{}", b.name());
    }
}
