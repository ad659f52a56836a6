//! Execution-mode equivalence over the full benchmark suite.
//!
//! Two guarantees pin the `Fast` production path to the `Measured`
//! experiment:
//!
//! * With the same matrix strategy, `Fast` ([`NoCount`]-monomorphized
//!   kernels, including the AVX dispatch where the CPU has it) prints
//!   **bit-identical** output to `Measured` — the zero-cost claim.
//! * The vectorized `Simd` strategy agrees with the paper's `Unrolled`
//!   strategy to within 1e-9 relative tolerance — its accumulation order
//!   differs (eight partial sums per output), its math does not.
//!
//! [`NoCount`]: streamlin::support::NoCount

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin::runtime::MatMulStrategy;
use streamlin::runtime::{run, ExecMode, RunSpec};

fn outputs_for(name: &str) -> usize {
    match name {
        "Radar" | "Vocoder" => 64,
        "FMRadio" | "FilterBank" => 128,
        _ => 256,
    }
}

#[test]
fn fast_mode_is_bit_identical_to_measured() {
    for bench in streamlin::benchmarks::all_default() {
        let analysis = analyze_graph(bench.graph());
        let n = outputs_for(bench.name());
        for opts in [
            ReplaceOptions::per_filter(),
            ReplaceOptions::maximal_linear(),
        ] {
            let opt = replace(bench.graph(), &analysis, &opts);
            let strategy = MatMulStrategy::Unrolled;
            let measured = run(
                &opt,
                &RunSpec {
                    matmul: Some(strategy),
                    ..RunSpec::new(n)
                },
                None,
                None,
            )
            .unwrap_or_else(|e| panic!("{} measured: {e}", bench.name()));
            let fast = run(
                &opt,
                &RunSpec {
                    matmul: Some(strategy),
                    mode: ExecMode::Fast,
                    ..RunSpec::new(n)
                },
                None,
                None,
            )
            .unwrap_or_else(|e| panic!("{} fast: {e}", bench.name()));
            assert_eq!(
                measured.outputs.len(),
                fast.outputs.len(),
                "{}",
                bench.name()
            );
            for (i, (a, b)) in measured.outputs.iter().zip(&fast.outputs).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: output {i} differs: {a} (measured) vs {b} (fast)",
                    bench.name()
                );
            }
            // Fast mode reports no tallies; measured mode reports the run's.
            assert_eq!(fast.ops.flops(), 0, "{}", bench.name());
            assert_eq!(fast.mode, ExecMode::Fast);
        }
    }
}

#[test]
fn simd_strategy_agrees_with_unrolled_on_every_benchmark() {
    for bench in streamlin::benchmarks::all_default() {
        let analysis = analyze_graph(bench.graph());
        let n = outputs_for(bench.name());
        let opt = replace(bench.graph(), &analysis, &ReplaceOptions::maximal_linear());
        let unrolled = run(
            &opt,
            &RunSpec {
                matmul: Some(MatMulStrategy::Unrolled),
                mode: ExecMode::Fast,
                ..RunSpec::new(n)
            },
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("{} unrolled: {e}", bench.name()));
        let simd = run(
            &opt,
            &RunSpec {
                mode: ExecMode::Fast,
                ..RunSpec::new(n)
            },
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("{} simd: {e}", bench.name()));
        assert_eq!(
            unrolled.outputs.len(),
            simd.outputs.len(),
            "{}",
            bench.name()
        );
        for (i, (a, b)) in unrolled.outputs.iter().zip(&simd.outputs).enumerate() {
            let tol = 1e-9 * a.abs().max(b.abs()).max(1.0);
            assert!(
                (a - b).abs() <= tol,
                "{}: output {i}: {a} (unrolled) vs {b} (simd)",
                bench.name()
            );
        }
    }
}
