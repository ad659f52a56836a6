//! Criterion end-to-end benchmarks: engine throughput per benchmark under
//! the baseline and automatically-selected configurations (the wall-clock
//! side of Figures 5-1/5-3, in bench form), measured under both the
//! compiled static scheduler and the data-driven fallback so the
//! `static/..` and `dynamic/..` rows are directly comparable — and under
//! both execution modes, so the cost of instruction accounting
//! (`measured/..` vs `fast/..`) is pinned in numbers. `Fast` rows run the
//! vectorized `Simd` matrix kernel, `Measured` rows the paper's
//! `Unrolled` one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use streamlin_bench::{configure, Config};
use streamlin_runtime::{run, ExecMode, RunSpec, Scheduler};

fn bench_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    for bench in [
        streamlin_benchmarks::fir(256),
        streamlin_benchmarks::rate_convert(),
        streamlin_benchmarks::filter_bank(),
        streamlin_benchmarks::oversampler(),
    ] {
        let outputs = (bench.default_outputs() / 4).max(64);
        for config in [Config::Baseline, Config::AutoSel] {
            let opt = configure(&bench, config);
            for sched in [Scheduler::Static, Scheduler::Dynamic] {
                for mode in [ExecMode::Measured, ExecMode::Fast] {
                    group.bench_with_input(
                        BenchmarkId::new(
                            format!("{}/{}/{}", mode.label(), sched.label(), bench.name()),
                            config.label(),
                        ),
                        &outputs,
                        |b, &n| {
                            b.iter(|| {
                                black_box(
                                    run(
                                        black_box(&opt),
                                        &RunSpec {
                                            sched,
                                            mode,
                                            ..RunSpec::new(n)
                                        },
                                        None,
                                        None,
                                    )
                                    .unwrap(),
                                )
                            })
                        },
                    );
                }
            }
        }
    }
    group.finish();
}

/// The scheduler's best case: one large linear node (FIR after maximal
/// combination) and the frequency-domain FFT kernels, static vs dynamic
/// and measured vs fast — the four-way matrix the acceptance speedup is
/// read from.
fn bench_kernel_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_kernels");
    group.sample_size(10);
    let fir = streamlin_benchmarks::fir(256);
    let fir_big = streamlin_benchmarks::fir(1024);
    for (label, bench, config) in [
        ("fir-linear", &fir, Config::Linear),
        ("fir-freq", &fir, Config::Freq),
        ("fir1024-linear", &fir_big, Config::Linear),
        ("fir1024-freq", &fir_big, Config::Freq),
    ] {
        let opt = configure(bench, config);
        for sched in [Scheduler::Static, Scheduler::Dynamic] {
            for mode in [ExecMode::Measured, ExecMode::Fast] {
                group.bench_with_input(
                    BenchmarkId::new(label, format!("{}/{}", mode.label(), sched.label())),
                    &512usize,
                    |b, &n| {
                        b.iter(|| {
                            black_box(
                                run(
                                    black_box(&opt),
                                    &RunSpec {
                                        sched,
                                        mode,
                                        ..RunSpec::new(n)
                                    },
                                    None,
                                    None,
                                )
                                .unwrap(),
                            )
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

/// The threads dimension: the pipeline-parallel executor against the
/// single-threaded static engine, Fast mode (the production path), on the
/// benchmarks with enough stages to cut. On a single-core host the t>1
/// rows measure protocol overhead, not parallelism.
fn bench_pipeline_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_threads");
    group.sample_size(10);
    for bench in [
        streamlin_benchmarks::fir(256),
        streamlin_benchmarks::filter_bank(),
        streamlin_benchmarks::oversampler(),
        streamlin_benchmarks::target_detect(),
    ] {
        let outputs = (bench.default_outputs() / 4).max(64);
        let opt = configure(&bench, Config::Baseline);
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(bench.name().to_string(), format!("t{threads}")),
                &outputs,
                |b, &n| {
                    b.iter(|| {
                        let mode = ExecMode::Fast;
                        black_box(if threads > 1 {
                            run(
                                black_box(&opt),
                                &RunSpec {
                                    mode,
                                    threads: Some(threads),
                                    ..RunSpec::new(n)
                                },
                                None,
                                None,
                            )
                            .unwrap()
                        } else {
                            run(
                                black_box(&opt),
                                &RunSpec {
                                    mode,
                                    ..RunSpec::new(n)
                                },
                                None,
                                None,
                            )
                            .unwrap()
                        })
                    })
                },
            );
        }
    }
    group.finish();
}

/// The fission dimension: the dominant node split into `w` round-robin
/// duplicates under the 4-stage pipeline, against the unfissed pipeline
/// (`w = 1`). FIR's frequency stage (autosel) and its direct linear
/// kernel (baseline) are the two duplicable-bottleneck shapes; as with
/// the threads group, single-core hosts measure protocol overhead.
fn bench_fission(c: &mut Criterion) {
    use streamlin_runtime::fission::Fission;
    use streamlin_runtime::{run, RunSpec};
    let mut group = c.benchmark_group("fission");
    group.sample_size(10);
    for (bench, config) in [
        (streamlin_benchmarks::fir(256), Config::AutoSel),
        (streamlin_benchmarks::fir(256), Config::Baseline),
        (streamlin_benchmarks::vocoder(), Config::AutoSel),
    ] {
        let outputs = (bench.default_outputs() / 4).max(64);
        let opt = configure(&bench, config);
        for width in [1usize, 2, 4] {
            let fission = if width > 1 {
                Fission::Width(width)
            } else {
                Fission::Off
            };
            group.bench_with_input(
                BenchmarkId::new(
                    format!("{}-{}", bench.name(), config.label()),
                    format!("w{width}"),
                ),
                &outputs,
                |b, &n| {
                    b.iter(|| {
                        let mode = ExecMode::Fast;
                        black_box(
                            run(
                                black_box(&opt),
                                &RunSpec {
                                    mode,
                                    threads: Some(4),
                                    fission,
                                    ..RunSpec::new(n)
                                },
                                None,
                                None,
                            )
                            .unwrap(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_suite,
    bench_kernel_paths,
    bench_pipeline_threads,
    bench_fission
);
criterion_main!(benches);
