//! Failure injection across the stack: malformed programs, unschedulable
//! graphs and runtime rate violations must produce descriptive errors, not
//! panics or wrong answers.
//!
//! The second half drills the **supervised pipeline runtime** with
//! deterministic injected faults (`streamlin::support::InjectFaults`):
//! every fault class — worker panic, wedged stage, dead pool thread,
//! refused acquisition, timing perturbation — must end in either a clean
//! structured error or a completed single-threaded fallback whose output
//! is bit-identical to the unfaulted reference. No hangs, no partial
//! output.

use std::time::{Duration, Instant};

use streamlin::core::opt::OptStream;
use streamlin::graph::elaborate;
use streamlin::lang::parse;
use streamlin::runtime::engine::RunError;
use streamlin::runtime::fission::Fission;
use streamlin::runtime::{run, ProfileError, RunSpec};
use streamlin::support::InjectFaults;

#[test]
fn parse_errors_carry_positions() {
    let err = parse("float->float filter F {\n  work push 1 { push( } \n}").unwrap_err();
    assert_eq!(err.span.line, 2);
}

#[test]
fn unknown_stream_reference() {
    let p = parse("void->void pipeline Main { add Ghost(); }").unwrap();
    let err = elaborate(&p).unwrap_err();
    assert!(err.message.contains("Ghost"));
}

#[test]
fn non_constant_rate_fails_elaboration() {
    let p = parse(
        "void->void pipeline Main { add S(); }
         void->float filter S { work push peek(0) { push(1.0); } }",
    )
    .unwrap();
    assert!(elaborate(&p).is_err());
}

#[test]
fn unschedulable_splitjoin_fails_scheduling() {
    let p = parse(
        "void->void pipeline Main { add S(); add SJ(); add K(); }
         void->float filter S { work push 1 { push(1.0); } }
         float->float splitjoin SJ {
             split duplicate;
             add A(); add B();
             join roundrobin;
         }
         float->float filter A { work pop 1 push 1 { push(pop()); } }
         float->float filter B { work pop 2 push 1 { push(pop() + pop()); } }
         float->void filter K { work pop 2 { pop(); pop(); } }",
    )
    .unwrap();
    let g = elaborate(&p).unwrap();
    assert!(streamlin::graph::steady::steady_state(&g).is_err());
}

#[test]
fn runtime_rate_violation_is_caught() {
    let p = parse(
        "void->void pipeline Main { add S(); add K(); }
         void->float filter S {
             float x;
             work push 1 { push(x); if (x > 2) { push(x); } x = x + 1; }
         }
         float->void filter K { work pop 1 { println(pop()); } }",
    )
    .unwrap();
    let g = elaborate(&p).unwrap();
    let err = run(&OptStream::from_graph(&g), &RunSpec::new(100), None, None).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("push"), "{msg}");
}

#[test]
fn feedback_without_enqueue_deadlocks_cleanly() {
    let p = parse(
        "void->void pipeline Main { add S(); add FB(); add K(); }
         void->float filter S { float x; work push 1 { push(x++); } }
         float->void filter K { work pop 1 { println(pop()); } }
         float->float feedbackloop FB {
             join roundrobin(1, 1);
             body A();
             loop I();
             split roundrobin(1, 1);
         }
         float->float filter A { work pop 2 push 2 { push(pop() + peek(0)); push(pop()); } }
         float->float filter I { work pop 1 push 1 { push(pop()); } }",
    )
    .unwrap();
    let g = elaborate(&p).unwrap();
    let err = run(&OptStream::from_graph(&g), &RunSpec::new(10), None, None).unwrap_err();
    assert!(matches!(
        err,
        streamlin::runtime::measure::ProfileError::Run(RunError::Deadlock { .. })
    ));
}

#[test]
fn division_by_zero_in_init_is_reported() {
    let p = parse(
        "void->void pipeline Main { add S(); }
         void->float filter S {
             int z;
             init { z = 1 / (1 - 1); }
             work push 1 { push(z); }
         }",
    )
    .unwrap();
    let err = elaborate(&p).unwrap_err();
    assert!(err.message.contains("division"), "{err}");
}

#[test]
fn array_out_of_bounds_is_reported() {
    let p = parse(
        "void->void pipeline Main { add S(); }
         void->float filter S {
             float[4] t;
             init { t[4] = 1.0; }
             work push 1 { push(t[0]); }
         }",
    )
    .unwrap();
    let err = elaborate(&p).unwrap_err();
    assert!(err.message.contains("out of bounds"), "{err}");
}

// ---- supervised runtime: injected faults ------------------------------------

/// A four-filter chain that partitions into multiple pipeline stages and
/// whose middle filter is fissable — one program covers both executors.
const CHAIN: &str = "void->void pipeline Main { add S(); add G(); add H(); add K(); }
     void->float filter S { float x; work push 1 { push(x++); } }
     float->float filter G { work pop 1 push 1 { push(3 * pop()); } }
     float->float filter H {
         work peek 8 pop 1 push 1 {
             float s = 0;
             for (int i = 0; i < 8; i++) s += peek(i) * 0.25;
             push(s); pop();
         }
     }
     float->void filter K { work pop 1 { println(pop()); } }";

const N: usize = 96;
const THREADS: usize = 2;

fn chain_opt() -> OptStream {
    let p = parse(CHAIN).unwrap();
    let g = elaborate(&p).unwrap();
    OptStream::from_graph(&g)
}

/// The unfaulted pipeline run every drilled run is compared against.
fn reference() -> streamlin::runtime::measure::Profile {
    run(
        &chain_opt(),
        &RunSpec {
            threads: Some(THREADS),
            ..RunSpec::new(N)
        },
        None,
        None,
    )
    .expect("clean pipeline run")
}

/// Runs the chain under a 400 ms watchdog with `spec` injected,
/// degrading to the single-threaded plan when `fallback` is on.
fn drill(
    spec: &str,
    fallback: bool,
    fission: Fission,
) -> Result<streamlin::runtime::measure::Profile, ProfileError> {
    let fault = InjectFaults::parse(spec).expect("valid fault spec");
    let supervised = RunSpec {
        threads: Some(THREADS),
        fission,
        watchdog: Some(Duration::from_millis(400)),
        fallback,
        ..RunSpec::new(N)
    };
    run(&chain_opt(), &supervised, None, Some(&fault))
}

fn assert_bits_equal(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "output {i} differs");
    }
}

#[test]
fn injected_worker_panic_degrades_to_identical_bits() {
    let clean = reference();
    let prof = drill("7:panic@s1", true, Fission::Off).expect("fallback must complete");
    let reason = prof
        .degraded
        .as_deref()
        .expect("run must report degradation");
    assert!(reason.contains("injected fault"), "{reason}");
    assert_eq!(prof.threads, 1, "fallback runs single-threaded");
    assert_bits_equal(&clean.outputs, &prof.outputs);
}

#[test]
fn injected_worker_panic_without_fallback_is_structured() {
    let err = drill("7:panic@s1", false, Fission::Off).unwrap_err();
    let ProfileError::Run(e) = &err else {
        panic!("expected a run error, got {err}");
    };
    assert!(matches!(e, RunError::WorkerLost { .. }), "{e}");
    assert!(e.to_string().contains("injected fault"), "{e}");
}

#[test]
fn wedged_stage_trips_the_watchdog_instead_of_hanging() {
    let t0 = Instant::now();
    let err = drill("3:wedge@s0", false, Fission::Off).unwrap_err();
    let ProfileError::Run(e) = &err else {
        panic!("expected a run error, got {err}");
    };
    assert!(matches!(e, RunError::Stalled { .. }), "{e}");
    assert!(e.to_string().contains("watchdog"), "{e}");
    // Deadline + teardown grace + slack — the old executor hung forever.
    assert!(t0.elapsed() < Duration::from_secs(30), "{:?}", t0.elapsed());
}

#[test]
fn wedged_stage_with_fallback_completes_bit_identical() {
    let clean = reference();
    let prof = drill("3:wedge@s1", true, Fission::Off).expect("fallback must complete");
    assert!(prof.degraded.is_some());
    assert_bits_equal(&clean.outputs, &prof.outputs);
}

#[test]
fn dead_worker_thread_degrades_to_identical_bits() {
    let clean = reference();
    // `die` kills the pool thread itself at job start; liveness detection
    // must catch it and the pool must respawn a replacement later.
    let prof = drill("5:die@s1", true, Fission::Off).expect("fallback must complete");
    let reason = prof
        .degraded
        .as_deref()
        .expect("run must report degradation");
    assert!(reason.contains("worker"), "{reason}");
    assert_bits_equal(&clean.outputs, &prof.outputs);
}

#[test]
fn refused_pool_acquisition_degrades_to_identical_bits() {
    let clean = reference();
    let prof = drill("9:refuse#1", true, Fission::Off).expect("fallback must complete");
    let reason = prof
        .degraded
        .as_deref()
        .expect("run must report degradation");
    assert!(reason.contains("refused"), "{reason}");
    assert_bits_equal(&clean.outputs, &prof.outputs);
}

#[test]
fn refused_pool_acquisition_without_fallback_is_structured() {
    let err = drill("9:refuse#1", false, Fission::Off).unwrap_err();
    let ProfileError::Run(e) = &err else {
        panic!("expected a run error, got {err}");
    };
    assert!(matches!(e, RunError::WorkerLost { .. }), "{e}");
}

#[test]
fn timing_faults_never_change_output() {
    // Slowdowns and ring delays perturb scheduling, never data: the run
    // completes on the pipeline (no degradation) with identical bits,
    // tallies and firing counts.
    let clean = reference();
    let prof = drill("5:slow@s0=40,delay=20", true, Fission::Off)
        .expect("timing faults must not fail the run");
    assert!(prof.degraded.is_none(), "{:?}", prof.degraded);
    assert_bits_equal(&clean.outputs, &prof.outputs);
    assert_eq!(clean.ops, prof.ops);
    assert_eq!(clean.firings, prof.firings);
}

#[test]
fn fission_panic_degrades_to_identical_bits() {
    let clean = run(
        &chain_opt(),
        &RunSpec {
            threads: Some(THREADS),
            fission: Fission::Width(2),
            ..RunSpec::new(N)
        },
        None,
        None,
    )
    .expect("clean fissed run");
    let prof = drill("13:panic", true, Fission::Width(2)).expect("fallback must complete");
    assert_bits_equal(&clean.outputs, &prof.outputs);
}

#[test]
fn nofission_directive_forces_a_clean_unfissed_run() {
    let clean = reference();
    let prof = drill("1:nofission", true, Fission::Width(2))
        .expect("a refused fission pass is a clean no-op");
    assert_eq!(prof.fission, 1, "fission must have been refused");
    assert!(prof.degraded.is_none());
    assert_bits_equal(&clean.outputs, &prof.outputs);
}

#[test]
fn malformed_fault_specs_are_rejected() {
    for bad in [
        "",
        "panic",
        "7:",
        "7:bogus",
        "x:panic",
        "7:refuse#x",
        "7:slow@s",
    ] {
        assert!(InjectFaults::parse(bad).is_err(), "accepted {bad:?}");
    }
}
