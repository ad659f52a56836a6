//! Data-parallel fission determinism: for every benchmark program,
//! running with `--fission {off, 2, 4}` produces printed output
//! **bit-identical** to the unfissed static plan, and — because the
//! synthesized splitter/joiner move items without arithmetic, priming
//! firings run uncounted, the workers perform exactly the original
//! node's firings, and the pipeline coordinator quantizes every run to
//! the same number of original steady cycles — identical operation
//! tallies and firing counts across every fission width, including
//! width 1 (no fission).
//!
//! Programs whose dominant node is not safely duplicable (stateful
//! filters, printers) simply run unfissed — the assertions then pin that
//! the pass is a clean no-op. Feedback programs (dtoa) have no static
//! plan at all; fission must refuse and the dynamic fallback must still
//! match. Direct refusal unit tests for stateful filters and feedback
//! loops live at the bottom.

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::core::OptStream;
use streamlin::runtime::fission::{fissability, Fission};
use streamlin::runtime::MatMulStrategy;
use streamlin::runtime::{run, ExecMode, RunSpec, Scheduler};

/// `STREAMLIN_TEST_THREADS=n` sets the pipeline stage budget the fissed
/// graphs run under (CI exercises 2); the default also uses 2 so the
/// fission workers actually land in different stages.
fn test_threads() -> usize {
    std::env::var("STREAMLIN_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

fn configs(bench: &streamlin::benchmarks::Benchmark) -> Vec<(&'static str, OptStream)> {
    let analysis = analyze_graph(bench.graph());
    vec![
        (
            "baseline",
            replace(bench.graph(), &analysis, &ReplaceOptions::per_filter()),
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

/// Runs the width sweep for one benchmark; returns true if fission
/// actually engaged for at least one (config, width) combination.
fn check(bench: &streamlin::benchmarks::Benchmark, outputs: usize) -> bool {
    let threads = test_threads();
    let mut engaged = false;
    for (label, opt) in configs(bench) {
        for mode in [ExecMode::Measured, ExecMode::Fast] {
            let reference = run(
                &opt,
                &RunSpec {
                    matmul: Some(MatMulStrategy::Unrolled),
                    mode,
                    threads: Some(threads),
                    ..RunSpec::new(outputs)
                },
                None,
                None,
            )
            .unwrap_or_else(|e| panic!("{} {label} unfissed: {e}", bench.name()));
            assert_eq!(reference.fission, 1);

            for width in [2usize, 4] {
                let prof = run(
                    &opt,
                    &RunSpec {
                        matmul: Some(MatMulStrategy::Unrolled),
                        mode,
                        threads: Some(threads),
                        fission: Fission::Width(width),
                        ..RunSpec::new(outputs)
                    },
                    None,
                    None,
                )
                .unwrap_or_else(|e| panic!("{} {label} fission={width}: {e}", bench.name()));
                engaged |= prof.fission > 1;
                assert_eq!(
                    prof.sched,
                    reference.sched,
                    "{} {label} fission={width}: scheduler drifted",
                    bench.name()
                );
                assert_eq!(
                    prof.outputs.len(),
                    reference.outputs.len(),
                    "{} {label} fission={width}: output counts differ",
                    bench.name()
                );
                for (i, (a, b)) in reference.outputs.iter().zip(&prof.outputs).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} {label} {} fission={width}: output {i} differs: {a} vs {b}",
                        bench.name(),
                        mode.label()
                    );
                }
                assert_eq!(
                    reference.firings,
                    prof.firings,
                    "{} {label} {}: firings differ at fission={width}",
                    bench.name(),
                    mode.label()
                );
                if mode == ExecMode::Measured {
                    assert_eq!(
                        reference.ops,
                        prof.ops,
                        "{} {label}: tallies differ at fission={width}",
                        bench.name()
                    );
                }
            }
        }
    }
    engaged
}

#[test]
fn fir_fission_is_deterministic_and_engages() {
    // FIR's dominant node is duplicable in every configuration (the
    // direct linear kernel under baseline, the optimized frequency stage
    // under autosel), so fission must actually fire here.
    assert!(check(&streamlin::benchmarks::fir(64), 512));
}

#[test]
fn rate_convert_fission_is_deterministic() {
    check(&streamlin::benchmarks::rate_convert(), 256);
}

#[test]
fn target_detect_fission_is_deterministic() {
    check(&streamlin::benchmarks::target_detect(), 256);
}

#[test]
fn fm_radio_fission_is_deterministic() {
    check(&streamlin::benchmarks::fm_radio(), 128);
}

#[test]
fn radar_fission_is_deterministic() {
    check(&streamlin::benchmarks::radar(8, 2), 64);
}

#[test]
fn filter_bank_fission_is_deterministic() {
    check(&streamlin::benchmarks::filter_bank(), 128);
}

#[test]
fn vocoder_fission_is_deterministic() {
    check(&streamlin::benchmarks::vocoder(), 64);
}

#[test]
fn oversampler_fission_is_deterministic() {
    check(&streamlin::benchmarks::oversampler(), 512);
}

#[test]
fn dtoa_fission_refuses_feedback_and_falls_back_identically() {
    // dtoa has a noise-shaping feedback loop: no static plan exists, so
    // fission must refuse (no plan to read firings from) and every
    // width must run the identical single-threaded dynamic fallback.
    assert!(!check(&streamlin::benchmarks::dtoa(), 256));
}

// ---- refusal unit tests -----------------------------------------------------

fn flat_for(src: &str) -> streamlin::runtime::flat::FlatGraph {
    let p = streamlin::lang::parse(src).unwrap();
    let g = streamlin::graph::elaborate(&p).unwrap();
    streamlin::runtime::flat::flatten(&OptStream::from_graph(&g), MatMulStrategy::Unrolled).unwrap()
}

#[test]
fn stateful_filters_are_refused_fission() {
    let flat = flat_for(
        "void->void pipeline Main { add S(); add Acc(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter Acc {
             float total;
             work pop 1 push 1 { total += pop(); push(total); }
         }
         float->void filter K { work pop 1 { println(pop()); } }",
    );
    let acc = flat
        .nodes
        .iter()
        .find(|n| n.name.starts_with("Acc"))
        .expect("accumulator is in the flat graph");
    let err = fissability(acc).unwrap_err();
    assert!(err.contains("mutates persistent state"), "{err}");

    // A filter whose state lives in an array cell is just as stateful.
    let flat = flat_for(
        "void->void pipeline Main { add S(); add H(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter H {
             float[4] hist; int idx;
             work pop 1 push 1 { hist[idx] = pop(); idx = (idx + 1) % 4; push(hist[0]); }
         }
         float->void filter K { work pop 1 { println(pop()); } }",
    );
    let h = flat.nodes.iter().find(|n| n.name.starts_with("H")).unwrap();
    assert!(fissability(h).is_err());
}

#[test]
fn init_work_filters_are_refused_fission() {
    let flat = flat_for(
        "void->void pipeline Main { add S(); add P(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->float filter P {
             initWork pop 2 push 1 { push(pop() + pop()); }
             work pop 1 push 1 { push(pop()); }
         }
         float->void filter K { work pop 1 { println(pop()); } }",
    );
    let p = flat.nodes.iter().find(|n| n.name.starts_with("P")).unwrap();
    let err = fissability(p).unwrap_err();
    assert!(err.contains("initWork"), "{err}");
}

#[test]
fn feedback_loops_are_refused_fission() {
    // The whole feedback program has no static plan, so profile-level
    // fission refuses; and the loop's member filters sit behind
    // `Scheduler::Auto`'s dynamic fallback where the pass never runs.
    let opt = {
        let p = streamlin::lang::parse(
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
        )
        .unwrap();
        let g = streamlin::graph::elaborate(&p).unwrap();
        OptStream::from_graph(&g)
    };
    for width in [2usize, 4] {
        let prof = run(
            &opt,
            &RunSpec {
                threads: Some(2),
                fission: Fission::Width(width),
                ..RunSpec::new(16)
            },
            None,
            None,
        )
        .unwrap();
        assert_eq!(prof.fission, 1, "feedback graph must stay unfissed");
        assert_eq!(prof.sched, Scheduler::Dynamic);
        assert_eq!(&prof.outputs[..4], &[0.0, 1.0, 3.0, 6.0]);
    }
}
