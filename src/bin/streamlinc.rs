//! `streamlinc` — command-line driver for the streamlin compiler.
//!
//! Parses a StreamIt-dialect program, runs the linear analysis and the
//! requested optimization, executes it, and reports structure and
//! operation counts:
//!
//! ```console
//! $ streamlinc program.str                        # autosel, 1000 outputs
//! $ streamlinc program.str --config freq -n 5000
//! $ streamlinc program.str --sched dynamic        # data-driven engine
//! $ streamlinc program.str --mode fast            # uncounted, SIMD kernels
//! $ streamlinc program.str --threads 4            # pipeline-parallel stages
//! $ streamlinc program.str --threads 4 --fission auto   # split the bottleneck
//! $ streamlinc program.str --fission 2            # force a fission width
//! $ streamlinc program.str --emit-graph           # print the structures
//! $ streamlinc program.str --metrics              # telemetry summary table
//! $ streamlinc program.str --trace-out t.json     # Chrome trace-event file
//! $ streamlinc program.str --quiet                # program output only
//! $ streamlinc program.str --lint                 # spanned diagnostics, no run
//! $ streamlinc program.str --deny-lints           # CI: non-zero exit on lints
//! $ streamlinc program.str --threads 4 --watchdog-ms 2000   # stall watchdog
//! $ streamlinc program.str --threads 4 --fault-inject 7:panic@s1  # drill
//! ```
//!
//! `--quiet` output streams as it is computed, one buffered write per
//! chunk of [`streamlin::runtime::CHUNK`] values. A runtime error
//! mid-stream leaves the chunks already written and exits 1; a reader
//! that closes the pipe early ends the run with exit 0.

use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use std::time::Duration;

use streamlin::core::combine::analyze_graph;
use streamlin::core::optimize;
use streamlin::prelude::*;
use streamlin::runtime::fission::Fission;
use streamlin::runtime::{run_streaming, ProfileError, RunSpec};
use streamlin::support::{InjectFaults, Probe, Recorder};

struct Args {
    path: String,
    config: String,
    /// Every execution knob: scheduler, mode, matmul (`None`: the mode's
    /// default), threads, fission (a lone `--fission` runs a one-stage
    /// pipeline), quantum, watchdog, tier and output count. Fallback is
    /// always on: infrastructure failures degrade to the single-threaded
    /// static plan instead of failing the run.
    spec: RunSpec,
    emit_graph: bool,
    /// Print the telemetry summary (where time went: phases, stages,
    /// rings, nodes) after the run.
    metrics: bool,
    /// Write a Chrome trace-event JSON timeline of the run here.
    trace_out: Option<String>,
    quiet: bool,
    /// Deterministic fault plan (`--fault-inject <seed>:<spec>`): a
    /// supervised drill of the pipeline executor's failure paths. See
    /// the fault module's spec grammar (`panic@s1`, `wedge`, `die`,
    /// `slow=50`, `delay@c2=100`, `refuse#1`, `nofission`).
    fault: Option<InjectFaults>,
    /// `--lint`: print every advisory diagnostic the static analysis
    /// produced (spanned, one line each) and skip execution.
    lint: bool,
    /// `--deny-lints`: like `--lint`, but exit non-zero if any lint
    /// fired (for CI).
    deny_lints: bool,
}

impl Args {
    /// Whether the run needs an instrumented (Recorder) profile: any of
    /// the telemetry outputs, or `--emit-graph` (whose decision dump is
    /// sourced from the recorder's notes).
    fn instrumented(&self) -> bool {
        self.metrics || self.trace_out.is_some() || self.emit_graph
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: streamlinc <program.str> [--config baseline|linear|freq|redund|autosel]\n\
         \x20                [--sched auto|static|dynamic] [--mode measured|fast]\n\
         \x20                [--matmul unrolled|diagonal|blocked|simd] [--threads <n>]\n\
         \x20                [--fission auto|off|<w>] [-n <outputs>] [--emit-graph]\n\
         \x20                [--metrics] [--trace-out <file>] [--quiet]\n\
         \x20                [--watchdog-ms <n>] [--fault-inject <seed>:<spec>[,<spec>...]]\n\
         \x20                [--quantum <n>] [--no-bytecode] [--lint] [--deny-lints]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        path: String::new(),
        config: "autosel".into(),
        spec: RunSpec {
            fallback: true,
            tier: streamlin::service::env_tier(),
            ..RunSpec::new(1000)
        },
        emit_graph: false,
        metrics: false,
        trace_out: None,
        quiet: false,
        fault: None,
        lint: false,
        deny_lints: false,
    };
    let mut quantum = 0;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => args.config = it.next().unwrap_or_else(|| usage()),
            "--sched" => {
                args.spec.sched = match it.next().as_deref() {
                    Some("auto") => Scheduler::Auto,
                    Some("static") => Scheduler::Static,
                    Some("dynamic") => Scheduler::Dynamic,
                    _ => usage(),
                }
            }
            "--mode" => {
                args.spec.mode = match it.next().as_deref() {
                    Some("measured") => ExecMode::Measured,
                    Some("fast") => ExecMode::Fast,
                    _ => usage(),
                }
            }
            "--matmul" => {
                args.spec.matmul = Some(match it.next().as_deref() {
                    Some("unrolled") => MatMulStrategy::Unrolled,
                    Some("diagonal") => MatMulStrategy::Diagonal,
                    Some("blocked") => MatMulStrategy::Blocked,
                    Some("simd") => MatMulStrategy::Simd,
                    _ => usage(),
                })
            }
            "--threads" => {
                args.spec.threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&t| t >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--fission" => {
                args.spec.fission = match it.next().as_deref() {
                    Some("auto") => Fission::Auto,
                    Some("off") => Fission::Off,
                    Some(v) => match v.parse() {
                        Ok(w) if w >= 1 => Fission::Width(w),
                        _ => usage(),
                    },
                    None => usage(),
                }
            }
            "-n" | "--outputs" => {
                args.spec.outputs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--fault-inject" => {
                let spec = it.next().unwrap_or_else(|| usage());
                args.fault = Some(InjectFaults::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("streamlinc: bad --fault-inject spec: {e}");
                    std::process::exit(2);
                }));
            }
            "--watchdog-ms" => {
                args.spec.watchdog = Some(Duration::from_millis(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&ms| ms >= 1)
                        .unwrap_or_else(|| usage()),
                ))
            }
            "--quantum" => {
                quantum = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&q| q >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--no-bytecode" => args.spec.tier.bytecode = false,
            "--lint" => args.lint = true,
            "--deny-lints" => {
                args.lint = true;
                args.deny_lints = true;
            }
            "--emit-graph" => args.emit_graph = true,
            "--metrics" => args.metrics = true,
            "--trace-out" => args.trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--quiet" => args.quiet = true,
            "-h" | "--help" => usage(),
            other if args.path.is_empty() && !other.starts_with('-') => {
                args.path = other.to_string()
            }
            _ => usage(),
        }
    }
    if args.path.is_empty() {
        usage();
    }
    args.spec.quantum = streamlin::runtime::resolve_quantum(quantum);
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("streamlinc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let source = std::fs::read_to_string(&args.path)
        .map_err(|e| format!("cannot read {}: {e}", args.path))?;
    // The recorder's creation instant is the trace epoch, so it exists
    // before the first compile phase; uninstrumented runs never build one
    // and execute the NoProbe-monomorphized engines.
    let mut rec = args.instrumented().then(Recorder::new);
    let t0 = rec.as_ref().map_or(0, |r| r.now());
    let program = parse(&source).map_err(|e| e.to_string())?;
    if let Some(r) = rec.as_mut() {
        r.phase("parse", t0);
    }
    let t0 = rec.as_ref().map_or(0, |r| r.now());
    let graph = elaborate(&program).map_err(|e| e.to_string())?;
    if let Some(r) = rec.as_mut() {
        r.phase("elaborate", t0);
    }
    if args.lint {
        // One line per distinct (position, code, message, declaration):
        // a declaration instantiated many times reports each finding once.
        let mut lints: Vec<(u32, u32, &'static str, String, String)> = Vec::new();
        graph.for_each_filter(&mut |inst| {
            for l in &inst.facts.lints {
                lints.push((
                    l.span.line,
                    l.span.col,
                    l.code,
                    l.message.clone(),
                    inst.decl_name.clone(),
                ));
            }
        });
        lints.sort();
        lints.dedup();
        for (line, col, code, msg, decl) in &lints {
            println!(
                "{}:{line}:{col}: warning[{code}]: {msg} (in filter {decl})",
                args.path
            );
        }
        if !args.quiet {
            eprintln!("{} lint(s)", lints.len());
        }
        if args.deny_lints && !lints.is_empty() {
            return Err(format!("--deny-lints: {} lint(s)", lints.len()));
        }
        return Ok(());
    }

    let analysis = analyze_graph(&graph);

    if !args.quiet {
        eprintln!(
            "parsed {} declarations; {} filters ({} linear)",
            program.decls.len(),
            graph.filter_count(),
            analysis.linear_count()
        );
    }

    let t0 = rec.as_ref().map_or(0, |r| r.now());
    let opt = optimize(&graph, &analysis, &args.config)?;
    if let Some(r) = rec.as_mut() {
        r.phase("select", t0);
    }

    if args.emit_graph {
        eprintln!("structure: {}", opt.describe());
    }

    // Output streams as it is computed: the run hands the sink each
    // chunk, and `--quiet` writes it through one buffered stdout,
    // flushed per chunk. The summary keeps only the first few values.
    let stdout = io::stdout();
    let mut out = BufWriter::with_capacity(1 << 16, stdout.lock());
    let mut head = Vec::with_capacity(HEAD);
    let mut sink = |chunk: &[f64]| -> io::Result<()> {
        if args.quiet {
            for v in chunk {
                writeln!(out, "{v}")?;
            }
            out.flush()
        } else {
            let room = HEAD - head.len();
            head.extend_from_slice(&chunk[..room.min(chunk.len())]);
            Ok(())
        }
    };
    let prof = match run_streaming(
        &opt,
        &args.spec,
        rec.as_mut(),
        args.fault.as_ref(),
        &mut sink,
    ) {
        Ok(prof) => prof,
        // The reader closed the pipe: nothing more to say.
        Err(ProfileError::Sink {
            kind: io::ErrorKind::BrokenPipe,
            ..
        }) => return Ok(()),
        Err(e) => return Err(e.to_string()),
    };
    if let Some(reason) = &prof.degraded {
        if !args.quiet {
            eprintln!("streamlinc: degraded to the single-threaded static plan ({reason})");
        }
    }

    if args.emit_graph {
        // The decision dump: fission engagement/refusal, schedule shape,
        // partition and pool — straight from the telemetry notes the
        // profiler recorded, so the text dump and the exported trace
        // describe the same run.
        for (key, text) in &rec.as_ref().expect("emit-graph runs instrumented").notes {
            eprintln!("{key}: {text}");
        }
    }
    if args.metrics {
        eprint!(
            "{}",
            rec.as_ref().expect("--metrics runs instrumented").summary()
        );
    }
    if let Some(path) = &args.trace_out {
        let trace = rec
            .as_ref()
            .expect("--trace-out runs instrumented")
            .chrome_trace();
        std::fs::write(path, trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            eprintln!("trace written to {path}");
        }
    }
    if !args.quiet {
        let stats = opt.stats();
        eprintln!(
            "nodes: {} ({} interpreted, {} linear, {} freq, {} redund)",
            stats.filters, stats.originals, stats.linear, stats.freq, stats.redund
        );
        let mut sched_desc = if prof.threads > 1 {
            format!("{} scheduler, {} threads", prof.sched.label(), prof.threads)
        } else {
            format!("{} scheduler", prof.sched.label())
        };
        if prof.fission > 1 {
            sched_desc.push_str(&format!(", fission x{}", prof.fission));
        }
        match args.spec.mode {
            ExecMode::Measured => eprintln!(
                "{} outputs in {:?} [{sched_desc}]: {:.1} flops/output, {:.1} mults/output",
                prof.delivered,
                prof.wall,
                prof.flops_per_output(),
                prof.mults_per_output()
            ),
            ExecMode::Fast => eprintln!(
                "{} outputs in {:?} [{sched_desc}, fast/{}]: {:.0} outputs/sec (uncounted)",
                prof.delivered,
                prof.wall,
                args.spec.strategy().label(),
                prof.delivered as f64 / prof.wall.as_secs_f64().max(1e-9),
            ),
        }
        match print_head(&mut out, &head, prof.delivered) {
            Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                return Err(format!("cannot write output: {e}"))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Values the summary shows before eliding the rest.
const HEAD: usize = 10;

/// The summary's stdout: the first values and a count of the rest.
fn print_head(out: &mut impl Write, head: &[f64], delivered: usize) -> io::Result<()> {
    for v in head {
        writeln!(out, "{v}")?;
    }
    if delivered > head.len() {
        writeln!(out, "... ({} more)", delivered - head.len())?;
    }
    out.flush()
}
