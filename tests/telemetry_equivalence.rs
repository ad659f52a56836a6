//! The zero-cost telemetry contract: instrumenting a run with a
//! [`Recorder`] probe must not change what the run computes. For every
//! benchmark program, every execution mode, pipeline budget and fission
//! width, a recorded `run` (probe on) must produce printed output
//! **bit-identical** to the NoProbe-monomorphized engines (probe off),
//! with identical operation tallies and firing counts — the probe
//! observes the run, it never participates in it.
//!
//! A second group pins the *shape* of what was observed: the Chrome
//! trace export parses under the workspace's own JSON reader, satisfies
//! the viewer invariants ([`validate_trace`]), carries one named lane
//! per worker plus the coordinator, and the recorder's firing totals
//! agree with the profile's own counters.

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin::core::cost::CostModel;
use streamlin::core::select::{select, SelectOptions};
use streamlin::core::OptStream;
use streamlin::runtime::fission::Fission;
use streamlin::runtime::telemetry::validate_trace;
use streamlin::runtime::{run, RunSpec, CHUNK};
use streamlin::runtime::{ExecMode, Scheduler, Tier};
use streamlin::support::probe::Event;
use streamlin::support::{Recorder, SINK_PHASE};

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

/// Asserts one probe-on run against its probe-off reference.
fn assert_identical(
    name: &str,
    label: &str,
    what: &str,
    mode: ExecMode,
    reference: &streamlin::runtime::Profile,
    probed: &streamlin::runtime::Profile,
) {
    assert_eq!(
        probed.sched, reference.sched,
        "{name} {label} {what}: scheduler drifted under the probe"
    );
    assert_eq!(
        probed.outputs.len(),
        reference.outputs.len(),
        "{name} {label} {what}: output counts differ"
    );
    for (i, (a, b)) in reference.outputs.iter().zip(&probed.outputs).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} {label} {what}: output {i} differs: {a} vs {b}"
        );
    }
    assert_eq!(
        reference.firings, probed.firings,
        "{name} {label} {what}: firing counts differ under the probe"
    );
    if mode == ExecMode::Measured {
        assert_eq!(
            reference.ops, probed.ops,
            "{name} {label} {what}: tallies differ under the probe"
        );
    }
}

/// The full matrix for one benchmark: modes × threads {1, 2} × fission
/// {off, 2}, probe on vs probe off, plus the classic (non-pipeline)
/// engines under both schedulers.
fn check(bench: &streamlin::benchmarks::Benchmark, outputs: usize) {
    for (label, opt) in configs(bench) {
        for mode in [ExecMode::Measured, ExecMode::Fast] {
            let strategy = mode.default_strategy();
            // The classic engines: threads = None routes the recorded run
            // through the same plan/dynamic executors as the unrecorded one.
            for sched in [Scheduler::Auto, Scheduler::Dynamic] {
                let reference = run(
                    &opt,
                    &RunSpec {
                        matmul: Some(strategy),
                        sched,
                        mode,
                        ..RunSpec::new(outputs)
                    },
                    None,
                    None,
                )
                .unwrap_or_else(|e| panic!("{} {label}: {e}", bench.name()));
                let mut rec = Recorder::new();
                let probed = run(
                    &opt,
                    &RunSpec {
                        matmul: Some(strategy),
                        sched,
                        mode,
                        ..RunSpec::new(outputs)
                    },
                    Some(&mut rec),
                    None,
                )
                .unwrap_or_else(|e| panic!("{} {label} probed: {e}", bench.name()));
                let what = format!("{} {}", sched.label(), mode.label());
                assert_identical(bench.name(), label, &what, mode, &reference, &probed);
            }
            // The pipeline executor across stage budgets and fission widths.
            for threads in [1usize, 2] {
                for fission in [Fission::Off, Fission::Width(2)] {
                    let reference = run(
                        &opt,
                        &RunSpec {
                            matmul: Some(strategy),
                            mode,
                            threads: Some(threads),
                            fission,
                            ..RunSpec::new(outputs)
                        },
                        None,
                        None,
                    )
                    .unwrap_or_else(|e| panic!("{} {label}: {e}", bench.name()));
                    let mut rec = Recorder::new();
                    let probed = run(
                        &opt,
                        &RunSpec {
                            matmul: Some(strategy),
                            mode,
                            threads: Some(threads),
                            fission,
                            ..RunSpec::new(outputs)
                        },
                        Some(&mut rec),
                        None,
                    )
                    .unwrap_or_else(|e| panic!("{} {label} probed: {e}", bench.name()));
                    let what = format!("{} t{threads} fiss={:?}", mode.label(), probed.fission);
                    assert_identical(bench.name(), label, &what, mode, &reference, &probed);
                    assert_eq!(
                        probed.fission,
                        reference.fission,
                        "{} {label} {what}: fission decision drifted under the probe",
                        bench.name()
                    );
                }
            }
        }
    }
}

#[test]
fn fir_probe_is_invisible() {
    check(&streamlin::benchmarks::fir(64), 512);
}

#[test]
fn rate_convert_probe_is_invisible() {
    check(&streamlin::benchmarks::rate_convert(), 256);
}

#[test]
fn target_detect_probe_is_invisible() {
    check(&streamlin::benchmarks::target_detect(), 256);
}

#[test]
fn fm_radio_probe_is_invisible() {
    check(&streamlin::benchmarks::fm_radio(), 128);
}

#[test]
fn radar_probe_is_invisible() {
    check(&streamlin::benchmarks::radar(8, 2), 64);
}

#[test]
fn filter_bank_probe_is_invisible() {
    check(&streamlin::benchmarks::filter_bank(), 128);
}

#[test]
fn vocoder_probe_is_invisible() {
    check(&streamlin::benchmarks::vocoder(), 64);
}

#[test]
fn oversampler_probe_is_invisible() {
    check(&streamlin::benchmarks::oversampler(), 512);
}

#[test]
fn dtoa_probe_is_invisible_on_the_dynamic_fallback() {
    // dtoa's feedback loop has no static plan: every configuration runs
    // the dynamic engine, and the probe must be invisible there too.
    check(&streamlin::benchmarks::dtoa(), 256);
}

// ---- trace shape ------------------------------------------------------------

#[test]
fn recorded_trace_has_viewer_shape_and_consistent_totals() {
    let bench = streamlin::benchmarks::fir(64);
    let opt = configs(&bench).pop().unwrap().1;
    let mut rec = Recorder::new();
    let prof = run(
        &opt,
        &RunSpec {
            mode: ExecMode::Fast,
            threads: Some(2),
            fission: Fission::Width(2),
            ..RunSpec::new(512)
        },
        Some(&mut rec),
        None,
    )
    .expect("instrumented pipeline run");

    let trace = rec.chrome_trace();
    let shape = validate_trace(&trace).expect("exported trace must satisfy viewer invariants");
    assert!(shape.spans > 0, "a run must record firing spans");
    assert!(
        shape.lanes >= prof.threads,
        "every worker gets a span lane: {} lanes for {} stages",
        shape.lanes,
        prof.threads
    );
    assert!(
        shape.named_lanes > prof.threads,
        "coordinator + every stage get thread_name metadata"
    );
    assert!(shape.counters > 0, "ring occupancy must be sampled");

    // The recorder's firing total is the profile's firing total: the
    // probe saw every firing the engines performed. The synthesized
    // fission splitter/joiner are recorded (they occupy trace lanes) but
    // deliberately excluded from the engine's firing counter — that
    // counter must stay invariant across fission widths — so subtract
    // their batches before comparing.
    let recorded: u64 = rec.lanes.values().map(|l| l.firings).sum();
    let plumbing: u64 = rec
        .nodes
        .values()
        .filter(|n| n.name.starts_with("fiss-split") || n.name.starts_with("fiss-join"))
        .map(|n| n.firings)
        .sum();
    assert_eq!(
        recorded - plumbing,
        prof.firings,
        "recorded firings (minus fission plumbing) == performed firings"
    );

    // Phase spans cover the lowering pipeline.
    let compile_ns = rec.compile_ns();
    assert!(compile_ns > 0, "compile phases were timed");
}

#[test]
fn single_threaded_trace_validates_too() {
    let bench = streamlin::benchmarks::rate_convert();
    let opt = configs(&bench).remove(0).1;
    let mut rec = Recorder::new();
    run(&opt, &RunSpec::new(256), Some(&mut rec), None).expect("instrumented classic run");
    let shape = validate_trace(&rec.chrome_trace()).expect("valid trace");
    assert!(shape.spans > 0);
    assert!(shape.named_lanes >= 1, "the engine lane is named");
}

/// Sink time is its own phase: a one-shot run records one `sink` span
/// per chunk it hands over, which stays out of the compile time, gets
/// its own summary line and is tagged apart in the trace.
#[test]
fn sink_time_is_recorded_apart_from_compile_phases() {
    let bench = streamlin::benchmarks::rate_convert();
    let opt = configs(&bench).remove(0).1;
    let mut rec = Recorder::new();
    let prof = run(&opt, &RunSpec::new(2 * CHUNK + 1), Some(&mut rec), None).unwrap();
    assert_eq!(prof.outputs.len(), 2 * CHUNK + 1);
    let (mut sinks, mut compile) = (0, 0);
    for e in &rec.events {
        match e {
            Event::Phase { name, .. } if *name == SINK_PHASE => sinks += 1,
            Event::Phase { dur_ns, .. } => compile += dur_ns,
            _ => {}
        }
    }
    assert_eq!(sinks, 3, "one sink span per chunk");
    assert_eq!(rec.compile_ns(), compile, "sink time is not compile time");
    assert!(rec.summary().contains("== sink =="));
    let trace = rec.chrome_trace();
    assert!(trace.contains("\"cat\":\"sink\""));
    validate_trace(&trace).expect("valid trace");
}

/// The interpreter tier is per run, not per process: the default tier
/// and the tree-walking reference run at the same time on two threads,
/// each run's `tier` note names its own tier, and both print the same
/// bits with the same tallies.
#[test]
fn concurrent_runs_keep_their_own_tier() {
    // Stream graphs are single-threaded (`Rc`), so each thread
    // elaborates its own copy of the program.
    let run_tier = |tier: Tier| {
        let opt = OptStream::from_graph(streamlin::benchmarks::fm_radio().graph());
        (0..4)
            .map(|_| {
                let mut rec = Recorder::new();
                let spec = RunSpec {
                    tier,
                    ..RunSpec::new(128)
                };
                let prof = run(&opt, &spec, Some(&mut rec), None).expect("interpreted run");
                let notes: Vec<String> = rec
                    .notes
                    .iter()
                    .filter(|(k, _)| *k == "tier")
                    .map(|(_, v)| v.clone())
                    .collect();
                assert_eq!(notes, [tier.label()], "each run notes its own tier");
                prof
            })
            .collect::<Vec<_>>()
    };
    let tree_walker = Tier {
        bytecode: false,
        cert_elision: false,
    };
    assert!(tree_walker.label().starts_with("tree-walker"));
    let (default, reference) = std::thread::scope(|s| {
        let default = s.spawn(|| run_tier(Tier::default()));
        let reference = s.spawn(|| run_tier(tree_walker));
        (default.join().unwrap(), reference.join().unwrap())
    });
    for (d, r) in default.iter().zip(&reference) {
        let bits = |p: &streamlin::runtime::Profile| {
            p.outputs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(d), bits(r));
        assert_eq!(d.ops, r.ops);
    }
}
