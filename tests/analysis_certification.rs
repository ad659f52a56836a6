//! The verified-filter dataflow framework across the nine paper
//! benchmarks: every filter must rate/bounds-certify with the expected
//! state-effect class, the certified unchecked tape path must be
//! bit-identical to the checked path across modes and schedulers, and
//! adversarial uncertifiable filters must still run (checked) and stay
//! correct. Also cross-checks the effect lattice against the stateful
//! linear extraction and pins that fission admissions are a superset of
//! the old syntactic `writes_global` walk.

use streamlin::benchmarks::all_default;
use streamlin::core::opt::OptStream;
use streamlin::core::state_space::extract_stateful;
use streamlin::graph::{elaborate, StateEffect};
use streamlin::lang::parse;
use streamlin::runtime::fission::{fissability, Fission};
use streamlin::runtime::flat::flatten;
use streamlin::runtime::{run, ExecMode, RunSpec, Scheduler};
use streamlin::runtime::{MatMulStrategy, Tier};

/// Expected state-effect class per (benchmark, filter declaration).
/// Everything not listed here must analyze as `Pure`.
const EXPECTED_EFFECTS: &[(&str, &str, StateEffect)] = &[
    ("FIR", "FloatSource", StateEffect::OpaqueState), // idx = (idx + 1) % 16
    ("RateConvert", "SampledSource", StateEffect::AffineState), // n++
    ("TargetDetect", "TargetSource", StateEffect::OpaqueState),
    ("FMRadio", "FloatOneSource", StateEffect::AffineState),
    ("Radar", "InputGenerate", StateEffect::AffineState),
    ("FilterBank", "DataSource", StateEffect::AffineState),
    ("Vocoder", "DataSource", StateEffect::OpaqueState),
    ("Oversampler", "DataSource", StateEffect::OpaqueState),
    ("DToA", "DataSource", StateEffect::OpaqueState),
    ("DToA", "Delay", StateEffect::AffineState),
];

fn expected_effect(bench: &str, decl: &str) -> StateEffect {
    EXPECTED_EFFECTS
        .iter()
        .find(|(b, d, _)| *b == bench && *d == decl)
        .map(|(_, _, e)| *e)
        .unwrap_or(StateEffect::Pure)
}

/// Every filter of every benchmark certifies both phases, carries no
/// analysis errors, and lands in its expected effect class.
#[test]
fn all_benchmark_filters_certify_with_expected_effects() {
    for b in all_default() {
        b.graph().for_each_filter(&mut |inst| {
            let f = &inst.facts;
            assert!(
                f.work.cert.is_some(),
                "{}/{}: work phase uncertified: {:?}",
                b.name(),
                inst.decl_name,
                f.work.uncertified
            );
            if let Some(init) = &f.init_work {
                assert!(
                    init.cert.is_some(),
                    "{}/{}: init phase uncertified: {:?}",
                    b.name(),
                    inst.decl_name,
                    init.uncertified
                );
            }
            assert!(f.errors.is_empty(), "{}/{}", b.name(), inst.decl_name);
            assert_eq!(
                f.effect,
                expected_effect(b.name(), &inst.decl_name),
                "{}/{}",
                b.name(),
                inst.decl_name
            );
            // The certified rates must be exactly the declared ones.
            let c = f.work.cert.unwrap();
            assert_eq!(
                (c.peek, c.pop, c.push),
                (inst.work.peek, inst.work.pop, inst.work.push),
                "{}/{}",
                b.name(),
                inst.decl_name
            );
        });
    }
}

/// The certified unchecked tape path must be bit-identical to the fully
/// checked path on every benchmark, across execution modes and
/// schedulers, including operation tallies.
#[test]
fn cert_elision_is_bit_identical_across_modes_and_schedulers() {
    for b in all_default() {
        let opt = OptStream::from_graph(b.graph());
        let n = b.default_outputs().min(128);
        // `Auto` statically schedules everything schedulable and falls
        // back to the data-driven engine (DToA has a feedback loop).
        for sched in [Scheduler::Auto, Scheduler::Dynamic] {
            for mode in [ExecMode::Measured, ExecMode::Fast] {
                let spec = RunSpec {
                    sched,
                    mode,
                    ..RunSpec::new(n)
                };
                let checked_spec = RunSpec {
                    tier: Tier {
                        cert_elision: false,
                        ..Tier::default()
                    },
                    ..spec.clone()
                };
                let fast = run(&opt, &spec, None, None)
                    .unwrap_or_else(|e| panic!("{} {sched:?} {mode:?}: {e}", b.name()));
                let checked = run(&opt, &checked_spec, None, None)
                    .unwrap_or_else(|e| panic!("{} {sched:?} {mode:?}: {e}", b.name()));
                assert_eq!(
                    fast.outputs.len(),
                    checked.outputs.len(),
                    "{} {sched:?} {mode:?}",
                    b.name()
                );
                for (a, c) in fast.outputs.iter().zip(&checked.outputs) {
                    assert_eq!(a.to_bits(), c.to_bits(), "{} {sched:?} {mode:?}", b.name());
                }
                assert_eq!(fast.ops, checked.ops, "{} {sched:?} {mode:?}", b.name());
            }
        }
    }
}

/// A filter whose push count depends on runtime state cannot be
/// certified, but as long as the data keeps it at the declared rate it
/// still runs on the checked path and produces correct output.
#[test]
fn uncertifiable_filter_runs_checked_and_correct() {
    let src = "void->void pipeline Main { add Src(); add Gate(); add Sink(); }
         void->float filter Src { float x; work push 1 { push(x); x = x + 1; } }
         float->float filter Gate { float x; work pop 1 push 1 {
             if (x < 10000.0) push(pop()); else pop();
             x = x + 1;
         } }
         float->void filter Sink { work pop 1 { println(pop()); } }";
    let g = elaborate(&parse(src).unwrap()).unwrap();
    let mut gate_uncertified = false;
    g.for_each_filter(&mut |inst| {
        if inst.decl_name == "Gate" {
            gate_uncertified = inst.facts.work.cert.is_none();
        }
    });
    assert!(
        gate_uncertified,
        "state-dependent push count must not certify"
    );

    let opt = OptStream::from_graph(&g);
    let prof = run(
        &opt,
        &RunSpec {
            sched: Scheduler::Static,
            ..RunSpec::new(16)
        },
        None,
        None,
    )
    .unwrap();
    // Within this horizon `x < 10000.0` always holds, so the filter is
    // the identity — and the checked engine verified every firing.
    let want: Vec<f64> = (0..16).map(f64::from).collect();
    assert_eq!(prof.outputs, want);
}

/// A provable rate violation in a filter the analysis can decide is a
/// compile-time error, not a runtime one.
#[test]
fn provable_violation_fails_elaboration() {
    let src = "void->void pipeline Main { add S(); add K(); }
         void->float filter S { work push 2 { push(1.0); } }
         float->void filter K { work pop 1 { println(pop()); } }";
    let err = elaborate(&parse(src).unwrap()).unwrap_err().to_string();
    assert!(
        err.contains("declared push rate is 2 but the body always pushes 1"),
        "{err}"
    );
}

/// Fission admissions are a strict superset of the old syntactic
/// `writes_global` walk: a write on a constant-false path no longer
/// disqualifies a filter, and the fissioned graph stays bit-identical.
#[test]
fn fission_admits_dead_branch_writers() {
    let src = "void->void pipeline Main { add Src(); add Heavy(); add Sink(); }
         void->float filter Src { float x; work push 1 { push(x); x = x + 1; } }
         float->float filter Heavy { float junk; work pop 1 push 1 {
             if (false) junk = 1.0;
             push(pop() * 0.5);
         } }
         float->void filter Sink { work pop 1 { println(pop()); } }";
    let g = elaborate(&parse(src).unwrap()).unwrap();
    let mut effect = StateEffect::OpaqueState;
    g.for_each_filter(&mut |inst| {
        if inst.decl_name == "Heavy" {
            effect = inst.facts.effect;
        }
    });
    // The old syntactic walk called this stateful; the flow-sensitive
    // lattice prunes the dead branch.
    assert_eq!(effect, StateEffect::Pure);

    let opt = OptStream::from_graph(&g);
    let flat = flatten(&opt, MatMulStrategy::Unrolled).unwrap();
    let heavy = flat
        .nodes
        .iter()
        .find(|n| n.name.contains("Heavy"))
        .expect("Heavy survives flattening");
    assert!(fissability(heavy).is_ok(), "{:?}", fissability(heavy));

    let base = run(
        &opt,
        &RunSpec {
            sched: Scheduler::Static,
            ..RunSpec::new(32)
        },
        None,
        None,
    )
    .unwrap();
    let fissed = run(
        &opt,
        &RunSpec {
            sched: Scheduler::Static,
            threads: Some(2),
            fission: Fission::Width(2),
            ..RunSpec::new(32)
        },
        None,
        None,
    )
    .unwrap();
    assert_eq!(base.outputs.len(), fissed.outputs.len());
    for (a, b) in base.outputs.iter().zip(&fissed.outputs) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Cross-check the effect lattice against the stateful linear
/// extraction: any benchmark filter the state-space extractor can
/// express (with a non-empty state vector) must be classified
/// `AffineState` — the extractor's representation *is* an affine state
/// update, so `OpaqueState` there would be an analysis bug.
#[test]
fn affine_classification_agrees_with_stateful_extraction() {
    let mut checked = 0;
    for b in all_default() {
        b.graph().for_each_filter(&mut |inst| {
            if let Ok(node) = extract_stateful(inst) {
                if node.state_dim() > 0 {
                    checked += 1;
                    assert_eq!(
                        inst.facts.effect,
                        StateEffect::AffineState,
                        "{}/{}: state-space extractable but not AffineState",
                        b.name(),
                        inst.decl_name
                    );
                }
            }
        });
    }
    assert!(checked > 0, "cross-check must cover at least one filter");
}
