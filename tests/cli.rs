//! Integration tests for the `streamlinc` command-line driver, run against
//! the checked-in benchmark sources in `assets/`.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use streamlin::runtime::{RunSpec, CHUNK};

fn streamlinc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_streamlinc"))
}

#[test]
fn compiles_and_runs_the_fir_asset() {
    let out = streamlinc()
        .args(["assets/fir.str", "-n", "64", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(lines.len(), 64);
    for l in lines {
        l.parse::<f64>().expect("numeric program output");
    }
}

#[test]
fn all_configs_agree_on_rate_convert_asset() {
    let mut outputs = Vec::new();
    for config in ["baseline", "linear", "freq", "autosel"] {
        let out = streamlinc()
            .args([
                "assets/rateconvert.str",
                "--config",
                config,
                "-n",
                "128",
                "--quiet",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{config}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let vals: Vec<f64> = std::str::from_utf8(&out.stdout)
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        outputs.push((config, vals));
    }
    let (_, base) = &outputs[0];
    for (config, vals) in &outputs[1..] {
        assert_eq!(vals.len(), base.len(), "{config}");
        for (a, b) in base.iter().zip(vals) {
            assert!((a - b).abs() < 1e-6, "{config}: {a} vs {b}");
        }
    }
}

#[test]
fn schedulers_agree_on_the_fir_asset() {
    let run = |sched: &str| -> Vec<String> {
        let out = streamlinc()
            .args(["assets/fir.str", "--sched", sched, "-n", "64", "--quiet"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{sched}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::str::from_utf8(&out.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    };
    let stat = run("static");
    let dyn_ = run("dynamic");
    assert_eq!(stat.len(), 64);
    // Textual equality is bit-level equality of the printed floats.
    assert_eq!(stat, dyn_);
}

#[test]
fn rejects_unknown_scheduler() {
    let out = streamlinc()
        .args(["assets/fir.str", "--sched", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn reports_errors_for_bad_programs() {
    let dir = std::env::temp_dir().join("streamlinc_bad.str");
    std::fs::write(&dir, "void->void pipeline Main { add Missing(); }").unwrap();
    let out = streamlinc()
        .arg(dir.to_str().unwrap())
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("Missing"));
}

#[test]
fn rejects_unknown_config() {
    let out = streamlinc()
        .args(["assets/fir.str", "--config", "nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn fission_flag_prints_identical_output_and_reports_the_decision() {
    // The unfissed run is the byte-exact reference for every width; the
    // emit-graph run must name the fissed node (FIR freq's dominant node
    // is duplicable, so `--fission 2` must engage, not silently no-op).
    let reference = streamlinc()
        .args([
            "assets/fir.str",
            "--config",
            "freq",
            "--threads",
            "2",
            "-n",
            "96",
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(reference.status.success());
    for width in ["2", "4", "auto"] {
        let out = streamlinc()
            .args([
                "assets/fir.str",
                "--config",
                "freq",
                "--threads",
                "2",
                "--fission",
                width,
                "--emit-graph",
                "-n",
                "96",
                "--quiet",
            ])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--fission {width}: {stderr}");
        assert_eq!(
            out.stdout, reference.stdout,
            "--fission {width}: output bytes differ from the unfissed run"
        );
        assert!(
            stderr.contains("fission: freq"),
            "--fission {width}: decision missing from --emit-graph: {stderr}"
        );
    }
}

#[test]
fn fault_injection_flag_degrades_to_identical_output() {
    // Clean pipeline run = the byte-exact reference.
    let reference = streamlinc()
        .args(["assets/fir.str", "--threads", "2", "-n", "64", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Same run with an injected worker panic: the supervisor must fall
    // back to the single-threaded static plan, say so on stderr, and
    // print byte-identical program output.
    let out = streamlinc()
        .args([
            "assets/fir.str",
            "--threads",
            "2",
            "--fault-inject",
            "7:panic@s1",
            "--watchdog-ms",
            "2000",
            "-n",
            "64",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("degraded to the single-threaded static plan"),
        "degradation notice missing: {stderr}"
    );

    let quiet = streamlinc()
        .args([
            "assets/fir.str",
            "--threads",
            "2",
            "--fault-inject",
            "7:panic@s1",
            "-n",
            "64",
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(
        quiet.status.success(),
        "{}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    assert_eq!(
        quiet.stdout, reference.stdout,
        "faulted run must print byte-identical program output"
    );
}

#[test]
fn rejects_malformed_fault_specs() {
    let out = streamlinc()
        .args(["assets/fir.str", "--fault-inject", "notaspec"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad --fault-inject spec"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn lint_reports_multiple_spanned_diagnostics_in_one_run() {
    let out = streamlinc()
        .args(["assets/lintbait.str", "--lint", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut codes: Vec<&str> = stdout
        .lines()
        .filter_map(|l| {
            let start = l.find("warning[")? + "warning[".len();
            let end = l[start..].find(']')? + start;
            Some(&l[start..end])
        })
        .collect();
    codes.sort_unstable();
    codes.dedup();
    assert!(
        codes.len() >= 2,
        "expected at least 2 distinct lint codes, got {codes:?} from:\n{stdout}"
    );
    // Every diagnostic is spanned: `path:line:col:`.
    for l in stdout.lines() {
        assert!(
            l.starts_with("assets/lintbait.str:"),
            "unspanned diagnostic: {l}"
        );
        let mut parts = l.split(':');
        parts.next();
        parts.next().unwrap().parse::<u32>().expect("line number");
        parts.next().unwrap().parse::<u32>().expect("column");
    }
}

#[test]
fn deny_lints_fails_on_lintbait_and_passes_clean_assets() {
    let out = streamlinc()
        .args(["assets/lintbait.str", "--deny-lints", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "lintbait must fail --deny-lints");

    for asset in ["assets/fir.str", "assets/rateconvert.str"] {
        let out = streamlinc()
            .args([asset, "--deny-lints", "--quiet"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{asset} should be lint-clean: {}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn lintbait_still_runs_despite_lints() {
    let out = streamlinc()
        .args(["assets/lintbait.str", "-n", "8", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::str::from_utf8(&out.stdout).unwrap().lines().count(), 8);
}

#[test]
fn provable_rate_violation_is_a_spanned_compile_error() {
    let dir = std::env::temp_dir().join("streamlinc-lint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad_rate.str");
    std::fs::write(
        &path,
        "void->void pipeline Main { add S(); add K(); }\n\
         void->float filter S { work push 2 { push(1.0); } }\n\
         float->void filter K { work pop 1 { println(pop()); } }\n",
    )
    .unwrap();
    let out = streamlinc()
        .args([path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("declared push rate is 2 but the body always pushes 1"),
        "{stderr}"
    );
    assert!(stderr.contains("at 2:"), "span missing: {stderr}");
}

/// The tree-walker tier is selectable per run at the CLI boundary, by
/// `--no-bytecode` or by `STREAMLIN_NO_BYTECODE`: both print the
/// tree-walker `tier` note under `--emit-graph` and the same output bits
/// as the default bytecode tier.
#[test]
fn no_bytecode_flag_and_env_select_the_tree_walker() {
    let run = |flag: Option<&str>, env: bool| {
        let mut cmd = streamlinc();
        cmd.args([
            "assets/rateconvert.str",
            "-n",
            "96",
            "--quiet",
            "--emit-graph",
        ]);
        cmd.args(flag);
        cmd.env_remove("STREAMLIN_NO_BYTECODE");
        if env {
            cmd.env("STREAMLIN_NO_BYTECODE", "1");
        }
        let out = cmd.output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        (out.stdout, stderr)
    };
    let (default, stderr) = run(None, false);
    assert!(stderr.contains("tier: bytecode"), "{stderr}");
    for (flag, env) in [(Some("--no-bytecode"), false), (None, true)] {
        let (stdout, stderr) = run(flag, env);
        assert!(
            stderr.contains("tier: tree-walker"),
            "{flag:?} env={env}: {stderr}"
        );
        assert_eq!(stdout, default, "{flag:?} env={env}: output bits differ");
    }
}

// ---- streaming output -------------------------------------------------------

/// The nine benchmark programs as CLI inputs, written under a directory
/// of the calling test's own (tests run concurrently).
fn bench_files(dir: &str) -> Vec<(streamlin::benchmarks::Benchmark, PathBuf)> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    std::fs::create_dir_all(&dir).unwrap();
    streamlin::benchmarks::all_default()
        .into_iter()
        .map(|b| {
            let path = dir.join(format!("{}.str", b.name().replace(' ', "_")));
            std::fs::write(&path, b.source()).unwrap();
            (b, path)
        })
        .collect()
}

/// The collected `run` of what `streamlinc --mode fast` executes, one
/// `{}`-formatted line per value: the text the CLI must print.
fn collected_lines(bench: &streamlin::benchmarks::Benchmark, n: usize) -> Vec<String> {
    let analysis = streamlin::core::combine::analyze_graph(bench.graph());
    let opt = streamlin::core::optimize(bench.graph(), &analysis, "autosel").unwrap();
    let spec = RunSpec {
        mode: streamlin::runtime::ExecMode::Fast,
        ..RunSpec::new(n)
    };
    let prof = streamlin::runtime::run(&opt, &spec, None, None).unwrap();
    assert_eq!(prof.outputs.len(), n, "{}", bench.name());
    prof.outputs.iter().map(|v| format!("{v}")).collect()
}

/// `--quiet` output at chunk boundaries (one short of a chunk, one past
/// it, several chunks and a tail) is the collected run's text, for all
/// nine programs under one executor; the instrumented run prints the
/// same bits.
fn quiet_output_matches_the_collected_run(executor: &[&str], dir: &str) {
    let sizes = [CHUNK - 1, CHUNK + 1, 3 * CHUNK + 7];
    for (bench, path) in bench_files(dir) {
        let want = collected_lines(&bench, sizes[2]);
        let quiet = |n: usize, extra: &[&str]| -> String {
            let out = streamlinc()
                .arg(&path)
                .args(["--mode", "fast", "--quiet", "-n", &n.to_string()])
                .args(executor)
                .args(extra)
                .output()
                .expect("binary runs");
            assert!(
                out.status.success(),
                "{} {executor:?} {extra:?}: {}",
                bench.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).unwrap()
        };
        for n in sizes {
            let got = quiet(n, &[]);
            let lines: Vec<&str> = got.lines().collect();
            assert_eq!(lines.len(), n, "{} {executor:?} n={n}", bench.name());
            if let Some(i) = (0..n).find(|&i| lines[i] != want[i]) {
                panic!(
                    "{} {executor:?} n={n}: line {i} is {} vs collected {}",
                    bench.name(),
                    lines[i],
                    want[i]
                );
            }
        }
        let plain = quiet(sizes[2], &[]);
        assert!(
            quiet(sizes[2], &["--metrics"]) == plain,
            "{} {executor:?}: --metrics changed the output",
            bench.name()
        );
    }
}

#[test]
fn chunk_boundaries_stream_the_collected_bits_single_threaded() {
    quiet_output_matches_the_collected_run(&[], "chunks_single");
}

#[test]
fn chunk_boundaries_stream_the_collected_bits_on_the_pipeline() {
    quiet_output_matches_the_collected_run(
        &["--threads", "2", "--fission", "auto"],
        "chunks_pipeline",
    );
}

#[test]
fn chunk_boundaries_stream_the_collected_bits_data_driven() {
    quiet_output_matches_the_collected_run(&["--sched", "dynamic"], "chunks_dynamic");
}

/// A reader that closes the pipe early (`streamlinc ... | head -1`) ends
/// the run: exit 0, no panic, on the `--quiet` path (the reader takes
/// one line first) and on the summary path (closed before any output).
#[test]
fn closed_stdout_exits_cleanly() {
    for quiet in [true, false] {
        let mut child = streamlinc()
            .args(["assets/fir.str", "--mode", "fast", "-n", "200000"])
            .args(quiet.then_some("--quiet"))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let stdout = child.stdout.take().unwrap();
        if quiet {
            let mut first = String::new();
            BufReader::new(stdout).read_line(&mut first).unwrap();
            first.trim().parse::<f64>().expect("a value came first");
        } else {
            drop(stdout);
        }
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "quiet={quiet}: {:?} {stderr}",
            out.status
        );
        assert!(!stderr.contains("panicked"), "quiet={quiet}: {stderr}");
    }
}

/// Peak resident memory while `--quiet` streams two million values: a
/// run that collected every value held 32 MB of them or more; an engine
/// that kept every printed value behind a streaming sink, 17 MB or more.
#[cfg(target_os = "linux")]
#[test]
fn streaming_memory_stays_flat() {
    let mut child = streamlinc()
        .args([
            "assets/fir.str",
            "--mode",
            "fast",
            "--quiet",
            "-n",
            "2000000",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    let status = format!("/proc/{}/status", child.id());
    let hwm_kb = || -> Option<u64> {
        let text = std::fs::read_to_string(&status).ok()?;
        let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    let mut stdout = child.stdout.take().unwrap();
    let (mut buf, mut lines, mut peak) = (vec![0u8; 1 << 16], 0usize, 0u64);
    loop {
        peak = peak.max(hwm_kb().unwrap_or(0));
        let got = stdout.read(&mut buf).unwrap();
        if got == 0 {
            break;
        }
        lines += buf[..got].iter().filter(|&&b| b == b'\n').count();
    }
    assert!(child.wait().unwrap().success());
    assert_eq!(lines, 2_000_000);
    assert!(peak > 0, "VmHWM was sampled");
    assert!(peak < 16 * 1024, "peak resident {peak} kB");
}

/// A consumer that stops reading for 200 ms mid-stream blocks the
/// sink, not the pipeline: workers park between reads, so a 50 ms
/// watchdog sees no stalled round and nothing degrades.
#[test]
fn slow_consumer_does_not_trip_the_watchdog() {
    let n = 200_000;
    let mut child = streamlinc()
        .args([
            "assets/fir.str",
            "--mode",
            "fast",
            "--quiet",
            "--emit-graph",
        ])
        .args([
            "--threads",
            "2",
            "--watchdog-ms",
            "50",
            "-n",
            &n.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let mut lines = 0;
    while reader.read_line(&mut line).unwrap() > 0 {
        lines += 1;
        line.clear();
        if lines == 20_000 {
            std::thread::sleep(Duration::from_millis(200));
        }
    }
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(lines, n);
    assert!(
        stderr.contains("pipeline:"),
        "ran on the pipeline: {stderr}"
    );
    assert!(!stderr.contains("degraded"), "{stderr}");
}
