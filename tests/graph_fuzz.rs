//! Random-graph differential fuzzing of the whole execution stack.
//!
//! A property-based generator (built on the offline `proptest` stand-in
//! in `tools/proptest`) produces well-formed `void->void` programs —
//! pipelines and splitjoins of stateless, linear-extractable (FIR-like)
//! and stateful filters with random rates — and every generated program
//! is executed five ways:
//!
//! * the data-driven dynamic engine,
//! * the single-threaded static plan,
//! * the pipeline-parallel executor (`STREAMLIN_TEST_THREADS` stages),
//! * the pipeline executor with the dominant node fissed at widths 2
//!   and 4 (when the node is duplicable; the pass refusing is part of
//!   the property — the run must then be a clean no-op),
//! * the dynamic engine over the *fissed* graph (the synthesized
//!   splitter/worker/joiner nodes under data-driven scheduling),
//! * and the pipeline executor once more under **supervision with a
//!   seeded injected worker panic** — the run must complete (on the
//!   pipeline, or via the watchdog-guarded single-threaded fallback)
//!   with the same bits,
//! * plus a **bytecode ablation**: the single-threaded static plan run
//!   again with the bytecode tier disabled (the run's `RunSpec::tier`),
//!   pinning the flattened instruction dispatch against the
//!   tree-walking reference.
//!
//! Every run takes its tier from `env_tier()`, so the
//! `STREAMLIN_NO_BYTECODE=1` CI leg runs the whole suite on the
//! tree-walker.
//!
//! The differential property: all of them print **bit-identical**
//! outputs, and — within the cycle-quantized pipeline family, where the
//! determinism contract promises it — operation tallies and firing
//! counts are identical across fission widths including width 1. (The
//! dynamic and single-threaded static engines stop at the exact output
//! target rather than on cycle boundaries, so their tallies measure a
//! different run length by design; their printed output is the pinned
//! surface.) Both optimization configs run: `interp` (no replacement —
//! the fission targets are stateless interpreted filters) and `autosel`
//! (linear extraction may turn them into linear/frequency kernels).

use std::time::Duration;

use proptest::prelude::*;
use streamlin::core::combine::analyze_graph;
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::core::OptStream;
use streamlin::runtime::fission::Fission;
use streamlin::runtime::{run, RunSpec, Scheduler, Tier};
use streamlin::service::env_tier;
use streamlin::support::InjectFaults;

/// FNV-1a over the rendered program: a deterministic per-case fault seed,
/// so every fuzz case drills a *different* (but reproducible) fault site.
fn fault_seed(src: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in src.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn test_threads() -> usize {
    std::env::var("STREAMLIN_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

// ---- program generator ------------------------------------------------------

/// One mid-pipeline stage of a generated program.
#[derive(Debug, Clone)]
enum Stage {
    /// FIR-like stateless filter: `push(Σ cᵢ·peek(iᵢ) + b)` per output.
    Stateless {
        peek: usize,
        pop: usize,
        push: usize,
        coeffs: Vec<i32>,
    },
    /// Stateful accumulator (must never be fissed).
    Stateful { pop: usize, push: usize },
    /// Heavy sliding-window filter (a loop over the whole peek window) —
    /// expensive enough to become the dominant node, and
    /// linear-extractable under `autosel`.
    Heavy { peek: usize, scale_q: i32 },
    /// Round-robin splitjoin of two stateless branches.
    SplitJoin {
        pops: [usize; 2],
        pushes: [usize; 2],
        coeffs: [i32; 2],
    },
    /// Occasionally-uncertifiable filter: a state-guarded extra `push`
    /// sits behind a threshold the run never reaches, so the static
    /// analysis cannot certify the push rate (range `[push, push+1]`)
    /// and the engines must keep it on the checked tape path — where it
    /// behaves exactly at the declared rate.
    Wobbly { pop: usize, push: usize, coeff: i32 },
}

#[derive(Debug, Clone)]
struct Spec {
    stages: Vec<Stage>,
    /// Items the source pushes per firing.
    src_push: usize,
}

/// Renders a spec as StreamIt-dialect source. All coefficients are small
/// dyadic rationals, so the printed program round-trips exactly.
fn render(spec: &Spec) -> String {
    use std::fmt::Write as _;
    let mut adds = String::new();
    let mut decls = String::new();
    for (i, stage) in spec.stages.iter().enumerate() {
        let _ = write!(adds, " add F{i}();");
        match stage {
            Stage::Stateless {
                peek,
                pop,
                push,
                coeffs,
            } => {
                let mut body = String::new();
                for j in 0..*push {
                    let mut terms = Vec::new();
                    for (t, c) in coeffs.iter().enumerate() {
                        let pos = (t * 3 + j) % peek;
                        terms.push(format!("{}.0 * 0.25 * peek({pos})", c));
                    }
                    let _ = write!(body, "push({} + {}.5); ", terms.join(" + "), j);
                }
                for _ in 0..*pop {
                    body.push_str("pop(); ");
                }
                let _ = writeln!(
                    decls,
                    "float->float filter F{i} {{ work peek {peek} pop {pop} push {push} {{ {body} }} }}"
                );
            }
            Stage::Stateful { pop, push } => {
                let mut body = String::from("acc = acc * 0.5 + pop(); ");
                for _ in 1..*pop {
                    body.push_str("acc += pop(); ");
                }
                for j in 0..*push {
                    let _ = write!(body, "push(acc + {j}.0); ");
                }
                let _ = writeln!(
                    decls,
                    "float->float filter F{i} {{ float acc; work pop {pop} push {push} {{ {body} }} }}"
                );
            }
            Stage::Heavy { peek, scale_q } => {
                let _ = write!(
                    decls,
                    "float->float filter F{i} {{
                         work peek {peek} pop 1 push 1 {{
                             float s = 0;
                             for (int k = 0; k < {peek}; k++) s += ({scale_q}.0 * 0.125) * peek(k);
                             push(s);
                             pop();
                         }}
                     }}\n"
                );
            }
            Stage::SplitJoin {
                pops,
                pushes,
                coeffs,
            } => {
                let _ = write!(
                    decls,
                    "float->float splitjoin F{i} {{
                         split roundrobin({}, {});
                         add B{i}a(); add B{i}b();
                         join roundrobin({}, {});
                     }}\n",
                    pops[0], pops[1], pushes[0], pushes[1]
                );
                for (tag, (o, (u, c))) in ["a", "b"]
                    .iter()
                    .zip(pops.iter().zip(pushes.iter().zip(coeffs.iter())))
                {
                    let mut body = String::new();
                    for j in 0..*u {
                        let _ = write!(body, "push({c}.0 * 0.5 * peek({})); ", j % o);
                    }
                    for _ in 0..*o {
                        body.push_str("pop(); ");
                    }
                    let _ = writeln!(
                        decls,
                        "float->float filter B{i}{tag} {{ work peek {o} pop {o} push {u} {{ {body} }} }}"
                    );
                }
            }
            Stage::Wobbly { pop, push, coeff } => {
                let mut body = String::new();
                for j in 0..*push {
                    let _ = write!(body, "push({coeff}.0 * 0.25 * peek({}) + {j}.5); ", j % pop);
                }
                body.push_str("if (t > 1000000000.0) push(t); t = t + 0.5; ");
                for _ in 0..*pop {
                    body.push_str("pop(); ");
                }
                let _ = writeln!(
                    decls,
                    "float->float filter F{i} {{ float t; work pop {pop} push {push} {{ {body} }} }}"
                );
            }
        }
    }
    let mut src = String::new();
    let _ = writeln!(
        src,
        "void->void pipeline Main {{ add Src();{adds} add Snk(); }}"
    );
    let mut pushes = String::new();
    for j in 0..spec.src_push {
        let _ = write!(pushes, "push(x * 0.75 - {j}.25); x = x + 1.0; ");
    }
    let _ = writeln!(
        src,
        "void->float filter Src {{ float x; work push {} {{ {pushes} }} }}",
        spec.src_push
    );
    src.push_str("float->void filter Snk { work pop 1 { println(pop()); } }\n");
    src.push_str(&decls);
    src
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (
            2usize..6,
            1usize..3,
            1usize..3,
            proptest::collection::vec(-4i32..=4, 1..3)
        )
            .prop_map(|(peek_extra, pop, push, coeffs)| Stage::Stateless {
                peek: pop + peek_extra,
                pop,
                push,
                coeffs,
            }),
        (1usize..3, 1usize..3).prop_map(|(pop, push)| Stage::Stateful { pop, push }),
        (6usize..24, 1i32..5).prop_map(|(peek, scale_q)| Stage::Heavy { peek, scale_q }),
        (
            1usize..3,
            1usize..3,
            1usize..3,
            1usize..3,
            -3i32..=3,
            -3i32..=3
        )
            .prop_map(|(o1, o2, u1, u2, c1, c2)| Stage::SplitJoin {
                pops: [o1, o2],
                pushes: [u1, u2],
                coeffs: [c1, c2],
            }),
        (1usize..3, 1usize..3, -3i32..=3).prop_map(|(pop, push, coeff)| Stage::Wobbly {
            pop,
            push,
            coeff
        }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (proptest::collection::vec(stage_strategy(), 1..4), 1usize..3)
        .prop_map(|(stages, src_push)| Spec { stages, src_push })
}

// ---- the differential property ---------------------------------------------

fn assert_bits_equal(label: &str, reference: &[f64], got: &[f64]) {
    assert_eq!(reference.len(), got.len(), "{label}: output count differs");
    for (i, (a, b)) in reference.iter().zip(got).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: output {i} differs: {a} vs {b}"
        );
    }
}

/// The default spec on the tier the environment selects
/// (`STREAMLIN_NO_BYTECODE` runs the whole suite on the tree-walker).
fn tiered(outputs: usize) -> RunSpec {
    RunSpec {
        tier: env_tier(),
        ..RunSpec::new(outputs)
    }
}

/// Runs the differential property; returns true if fission engaged for
/// at least one (config, width) combination.
fn check_spec(spec: &Spec) -> bool {
    let mut engaged = false;
    let src = render(spec);
    let program = streamlin::lang::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let graph = streamlin::graph::elaborate(&program).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let analysis = analyze_graph(&graph);
    // Wobbly stages must have defeated certification (their push count is
    // state-dependent), everything else here is statically provable.
    for (i, stage) in spec.stages.iter().enumerate() {
        let decl = format!("F{i}");
        graph.for_each_filter(&mut |inst| {
            if inst.decl_name == decl {
                let certified = inst.facts.work.cert.is_some();
                match stage {
                    Stage::Wobbly { .. } => {
                        assert!(!certified, "{decl} must be uncertifiable\n{src}")
                    }
                    _ => assert!(
                        certified,
                        "{decl} must certify: {:?}\n{src}",
                        inst.facts.work.uncertified
                    ),
                }
            }
        });
    }
    let configs = vec![
        ("interp", OptStream::from_graph(&graph)),
        (
            "autosel",
            select(
                &graph,
                &analysis,
                &CostModel::default(),
                &SelectOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{e}\n{src}"))
            .opt,
        ),
    ];
    let outputs = 48;
    let threads = test_threads();
    for (label, opt) in configs {
        let dynamic = run(
            &opt,
            &RunSpec {
                sched: Scheduler::Dynamic,
                ..tiered(outputs)
            },
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("{label} dynamic: {e}\n{src}"));
        let static1 = run(
            &opt,
            &RunSpec {
                sched: Scheduler::Static,
                ..tiered(outputs)
            },
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("{label} static: {e}\n{src}"));
        assert_bits_equal(label, &dynamic.outputs, &static1.outputs);

        // The bytecode ablation family: the same plan with interpreted
        // work functions forced back onto the tree-walker must print the
        // same bits. The tier lives in this run's spec, so concurrent
        // tests keep their own.
        let treewalk = run(
            &opt,
            &RunSpec {
                sched: Scheduler::Static,
                tier: Tier {
                    bytecode: false,
                    ..env_tier()
                },
                ..tiered(outputs)
            },
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("{label} tree-walk: {e}\n{src}"));
        assert_bits_equal(label, &dynamic.outputs, &treewalk.outputs);
        assert_eq!(
            static1.ops, treewalk.ops,
            "{label}: tallies differ with bytecode disabled\n{src}"
        );

        // The cycle-quantized pipeline family: tallies and firing counts
        // must match across fission widths, including width 1.
        let unfissed = run(
            &opt,
            &RunSpec {
                threads: Some(threads),
                ..tiered(outputs)
            },
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("{label} pipeline: {e}\n{src}"));
        assert_bits_equal(label, &dynamic.outputs, &unfissed.outputs);
        for width in [2usize, 4] {
            let fissed = run(
                &opt,
                &RunSpec {
                    threads: Some(threads),
                    fission: Fission::Width(width),
                    ..tiered(outputs)
                },
                None,
                None,
            )
            .unwrap_or_else(|e| panic!("{label} fission={width}: {e}\n{src}"));
            engaged |= fissed.fission > 1;
            assert_bits_equal(label, &dynamic.outputs, &fissed.outputs);
            assert_eq!(
                unfissed.firings, fissed.firings,
                "{label}: firings differ at fission={width}\n{src}"
            );
            assert_eq!(
                unfissed.ops, fissed.ops,
                "{label}: tallies differ at fission={width}\n{src}"
            );
        }

        // Robustness: the same pipeline run once more with a seeded
        // worker panic under supervision. Whatever the fault hits (or
        // misses — a seed can land on a step the run never reaches), the
        // property is the same: the run completes, either on the pipeline
        // or via the single-threaded fallback, and prints the same bits.
        let fault =
            InjectFaults::parse(&format!("{}:panic", fault_seed(&src))).expect("valid fault spec");
        let supervised = RunSpec {
            threads: Some(threads),
            watchdog: Some(Duration::from_secs(5)),
            fallback: true,
            ..tiered(outputs)
        };
        let drilled = run(&opt, &supervised, None, Some(&fault))
            .unwrap_or_else(|e| panic!("{label} fault drill: {e}\n{src}"));
        assert_bits_equal(label, &dynamic.outputs, &drilled.outputs);

        // The fissed graph under the *dynamic* scheduler: the synthesized
        // split/worker/join nodes must behave identically data-driven.
        let fissed_dynamic = run(
            &opt,
            &RunSpec {
                sched: Scheduler::Dynamic,
                threads: Some(1),
                fission: Fission::Width(2),
                ..tiered(outputs)
            },
            None,
            None,
        )
        .unwrap_or_else(|e| panic!("{label} fissed dynamic: {e}\n{src}"));
        assert_bits_equal(label, &dynamic.outputs, &fissed_dynamic.outputs);
    }
    engaged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_graphs_agree_across_all_engines(spec in spec_strategy()) {
        check_spec(&spec);
    }
}

/// A pinned regression case: heavy dominant filter behind a splitjoin,
/// stateful neighbor — exercises refusal, fission and both overlap kinds
/// in one program.
#[test]
fn pinned_mixed_graph_agrees_and_fission_engages() {
    let engaged = check_spec(&Spec {
        stages: vec![
            Stage::SplitJoin {
                pops: [2, 1],
                pushes: [1, 2],
                coeffs: [2, -1],
            },
            Stage::Heavy {
                peek: 12,
                scale_q: 3,
            },
            Stage::Stateful { pop: 2, push: 1 },
        ],
        src_push: 2,
    });
    assert!(engaged, "the heavy sliding-window filter must be fissed");
}

/// A pinned case with an uncertifiable stage in the middle: the checked
/// tape path must coexist with certified neighbors on every engine.
#[test]
fn pinned_uncertifiable_stage_agrees_across_engines() {
    check_spec(&Spec {
        stages: vec![
            Stage::Stateless {
                peek: 3,
                pop: 1,
                push: 2,
                coeffs: vec![2, -1],
            },
            Stage::Wobbly {
                pop: 2,
                push: 1,
                coeff: 2,
            },
            Stage::Heavy {
                peek: 8,
                scale_q: 2,
            },
        ],
        src_push: 1,
    });
}
