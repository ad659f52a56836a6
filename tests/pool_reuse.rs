//! Worker-pool reuse: PR 4 spawned the pipeline's stage threads per run
//! (fine for long runs, visible on sub-millisecond ones). The runtime now
//! draws stage workers from a persistent process-wide pool
//! (`streamlin_runtime::pool`); this suite pins both halves of the fix:
//!
//! * two back-to-back pipeline runs produce identical output
//!   (pooling changes scheduling only, never data), and
//! * the second run spawns **zero** new threads — the pool's spawn
//!   counter is flat across repetitions.
//!
//! This file holds a single `#[test]` on purpose: the spawn counter is
//! process-global, and a sibling test running pipelines concurrently
//! would legitimately grow it.

use std::time::Duration;

use streamlin::core::combine::{analyze_graph, replace, ReplaceOptions};
use streamlin::core::OptStream;
use streamlin::runtime::{run, RunSpec};
use streamlin::support::InjectFaults;

fn opt() -> OptStream {
    let bench = streamlin::benchmarks::fir(32);
    let analysis = analyze_graph(bench.graph());
    replace(bench.graph(), &analysis, &ReplaceOptions::per_filter())
}

#[test]
fn repeated_runs_reuse_the_worker_pool_and_match_bit_for_bit() {
    let opt = opt();
    let pipeline = |threads: usize| {
        run(
            &opt,
            &RunSpec {
                threads: Some(threads),
                ..RunSpec::new(256)
            },
            None,
            None,
        )
        .expect("pipeline run")
    };

    // Warm the pool to this shape, then measure the steady state.
    let first = pipeline(3);
    let spawned_after_first = streamlin::runtime::pool::global_spawned();
    assert!(
        spawned_after_first >= first.threads,
        "the first run must have populated the pool"
    );

    let second = pipeline(3);
    let spawned_after_second = streamlin::runtime::pool::global_spawned();
    assert_eq!(
        spawned_after_first, spawned_after_second,
        "a repeated run of the same shape must reuse pooled workers"
    );

    // Identical results — pooling must not touch data.
    assert_eq!(first.outputs.len(), second.outputs.len());
    for (i, (a, b)) in first.outputs.iter().zip(&second.outputs).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "output {i} differs across runs");
    }
    assert_eq!(first.ops, second.ops);
    assert_eq!(first.firings, second.firings);

    // A smaller run fits inside the warm pool too.
    let third = pipeline(2);
    assert_eq!(
        streamlin::runtime::pool::global_spawned(),
        spawned_after_second,
        "a narrower run must not spawn new workers"
    );
    assert_eq!(&first.outputs[..64], &third.outputs[..64]);

    // ---- self-healing: a fault-killed worker must not poison the pool
    // for the process lifetime. A `die` fault kills one pool thread at
    // job start; the supervised run degrades to the single-threaded
    // fallback (bit-identical output), the pool retires the corpse, and
    // the next acquisition of the same shape spawns a replacement.
    let retired_before = streamlin::runtime::pool::global_retired();
    let supervised = RunSpec {
        threads: Some(3),
        watchdog: Some(Duration::from_millis(500)),
        fallback: true,
        ..RunSpec::new(256)
    };
    let fault = InjectFaults::parse("5:die@s1").expect("valid fault spec");
    let degraded =
        run(&opt, &supervised, None, Some(&fault)).expect("a killed worker must degrade, not fail");
    assert!(
        degraded.degraded.is_some(),
        "the run must report its degradation"
    );
    assert_eq!(first.outputs.len(), degraded.outputs.len());
    for (i, (a, b)) in first.outputs.iter().zip(&degraded.outputs).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "fallback output {i} differs");
    }
    assert!(
        streamlin::runtime::pool::global_retired() > retired_before,
        "the dead worker must be retired, not re-parked"
    );

    let spawned_before_heal = streamlin::runtime::pool::global_spawned();
    let healed = pipeline(3);
    assert!(
        streamlin::runtime::pool::global_spawned() > spawned_before_heal,
        "the next acquisition must respawn a replacement for the dead worker"
    );
    assert_eq!(first.outputs.len(), healed.outputs.len());
    for (i, (a, b)) in first.outputs.iter().zip(&healed.outputs).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "healed output {i} differs");
    }
}
