//! The traced replay: the same generated operations the untraced run
//! sends to `streamlinc`/`streamlind`, executed in process with a span
//! around every call into a layer's public functions.
//!
//! Input (`ops.json`), written by `streambench/run.py`:
//!
//! ```json
//! {"kind":"cli","ops":[{"id":0,"program":"p.str","config":"autosel",
//!   "n":1000,"threads":2,"fission":"auto"}]}
//! {"kind":"daemon","requests":["{\"op\":\"open\",...}", ...]}
//! ```
//!
//! Each CLI operation runs twice, untraced and traced, so the difference
//! is the tracing overhead; the traced spans are then the layer
//! accounting. Two auxiliary runs per operation fill in what spans at
//! the layer boundary cannot see: a `Recorder` run (per-node busy time,
//! ring stalls, cost-model predictions) and a measured-mode run (the
//! paper's operation counts). They are reported apart from the
//! accounting.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use streamlin_core::combine::{analyze_graph, replace, ReplaceOptions, ReplaceTarget};
use streamlin_core::cost::CostModel;
use streamlin_core::opt::OptStream;
use streamlin_core::select::{select, SelectOptions};
use streamlin_runtime::fission::{fiss_bottleneck, Fission};
use streamlin_runtime::flat::{flatten, FlatGraph, NodeKind};
use streamlin_runtime::measure::{profile_supervised, ExecMode, Scheduler, Supervision};
use streamlin_runtime::plan::{self, ExecPlan, PlanEngine};
use streamlin_runtime::{
    partition, resolve_quantum, resolve_quantum_checked, run_pipeline_quantized, Engine,
    MatMulStrategy, Partition,
};
use streamlin_service::cache::{fnv1a64, PlanCache, PlanKey};
use streamlin_service::proto::{self, Request};
use streamlin_service::session::{build_exec, StreamExec};
use streamlin_service::{Service, ServiceOpts};
use streamlin_support::json::{self, Json};
use streamlin_support::{NoCount, NoFault, NoProbe, Recorder, StallKind};

use crate::digest;
use crate::spans::Spans;

pub fn run(ops_path: &str, out_path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(ops_path).map_err(|e| format!("cannot read {ops_path}: {e}"))?;
    let spec = json::parse(&text)?;
    let out = match spec.get("kind").and_then(Json::as_str) {
        Some("cli") => cli_replay(&spec)?,
        Some("daemon") => daemon_replay(&spec)?,
        _ => return Err(format!("{ops_path}: missing or unknown \"kind\"")),
    };
    std::fs::write(out_path, out.dump()).map_err(|e| format!("cannot write {out_path}: {e}"))
}

/// Outputs of a measured-mode (operation-counting) run at most: the
/// counts per output settle long before, and counting is slow.
const MEASURED_CAP: usize = 50_000;

struct CliOp {
    id: usize,
    program: String,
    config: String,
    n: usize,
    threads: Option<usize>,
    fission: Fission,
}

fn parse_fission(v: Option<&Json>) -> Result<Fission, String> {
    match v {
        None | Some(Json::Null) => Ok(Fission::Off),
        Some(Json::Str(s)) if s == "off" => Ok(Fission::Off),
        Some(Json::Str(s)) if s == "auto" => Ok(Fission::Auto),
        Some(other) => Err(format!("bad fission {other:?}")),
    }
}

fn parse_cli_op(v: &Json) -> Result<CliOp, String> {
    let num = |k: &str| v.get(k).and_then(Json::as_num);
    let string = |k: &str| {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("op without \"{k}\""))
    };
    Ok(CliOp {
        id: num("id").ok_or("op without \"id\"")? as usize,
        program: string("program")?,
        config: string("config")?,
        n: num("n").ok_or("op without \"n\"")? as usize,
        threads: num("threads").map(|t| t as usize),
        fission: parse_fission(v.get("fission"))?,
    })
}

/// `streamlinc`'s replacement step for a `--config` name.
fn optimize(
    graph: &streamlin_graph::Stream,
    analysis: &streamlin_core::LinearAnalysis,
    config: &str,
) -> Result<OptStream, String> {
    let redund = ReplaceOptions {
        combine: true,
        target: ReplaceTarget::Redund,
    };
    Ok(match config {
        "baseline" => replace(graph, analysis, &ReplaceOptions::per_filter()),
        "linear" => replace(graph, analysis, &ReplaceOptions::maximal_linear()),
        "freq" => replace(graph, analysis, &ReplaceOptions::maximal_freq()),
        "redund" => replace(graph, analysis, &redund),
        "autosel" => {
            select(
                graph,
                analysis,
                &CostModel::default(),
                &SelectOptions::default(),
            )
            .map_err(|e| e.to_string())?
            .opt
        }
        other => return Err(format!("unknown config `{other}`")),
    })
}

/// A program compiled through planning, plus the layer counts.
struct Compiled {
    opt: OptStream,
    flat: FlatGraph,
    plan: Option<ExecPlan>,
    part: Option<Partition>,
    scale: u64,
    quantum: u64,
    counts: Counts,
}

#[derive(Default, Clone, Copy)]
struct Counts {
    filters: f64,
    opt_nodes: f64,
    linear_nodes: f64,
    buffer_slots: f64,
    stages: f64,
    fission_width: f64,
}

impl Counts {
    /// The counts as per-op means, named as layer metrics.
    fn layers(&self, ops: usize) -> Vec<(String, Json)> {
        let n = ops.max(1) as f64;
        [
            ("graph.filters", self.filters),
            ("core.opt_nodes", self.opt_nodes),
            ("core.linear_nodes", self.linear_nodes),
            ("runtime.buffer_slots", self.buffer_slots),
            ("runtime.stages", self.stages),
            ("runtime.fission_width", self.fission_width),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Num(v / n)))
        .collect()
    }

    fn add(&mut self, o: &Counts) {
        self.filters += o.filters;
        self.opt_nodes += o.opt_nodes;
        self.linear_nodes += o.linear_nodes;
        self.buffer_slots += o.buffer_slots;
        self.stages += o.stages;
        self.fission_width += o.fission_width;
    }
}

/// The pipeline executor's stage budget: `--threads`/`--fission` select
/// it, exactly as in `streamlinc` (a lone `--fission` runs one stage).
fn pipeline_threads(threads: Option<usize>, fission: Fission) -> Option<usize> {
    match (threads, fission) {
        (None, Fission::Off) => None,
        (t, _) => Some(t.unwrap_or(1)),
    }
}

/// `streamlinc`'s compile path (front end, linear optimization,
/// planning) with the fast mode's matmul strategy and `--sched auto`,
/// one span per layer call.
fn compile(
    src: &str,
    config: &str,
    threads: Option<usize>,
    fission: Fission,
    strategy: MatMulStrategy,
    op: usize,
    s: &mut Spans,
) -> Result<Compiled, String> {
    let program = s
        .time("lang.parse", op, |_| streamlin_lang::parse(src))
        .map_err(|e| e.to_string())?;
    let graph = s
        .time("graph.elaborate", op, |_| {
            streamlin_graph::elaborate(&program)
        })
        .map_err(|e| e.to_string())?;
    let analysis = s.time("core.extract", op, |_| analyze_graph(&graph));
    let opt = s.time("core.select", op, |_| optimize(&graph, &analysis, config))?;
    let flat = s
        .time("runtime.flatten", op, |_| flatten(&opt, strategy))
        .map_err(|e| e.to_string())?;
    let plan = s.time("runtime.plan", op, |_| {
        if opt.has_feedback() {
            None
        } else {
            plan::compile(&flat).ok()
        }
    });
    let pipeline = pipeline_threads(threads, fission);
    let quantum = resolve_quantum(0);
    let (flat, plan, scale, width) = match plan {
        Some(p) if fission != Fission::Off => s.time("runtime.fission", op, |_| {
            let model = CostModel::default();
            let fissed = fiss_bottleneck(
                &flat,
                &p,
                fission,
                pipeline.unwrap_or(1),
                &model,
                &NoFault,
                quantum,
            );
            match fissed {
                Ok((g, info)) => match plan::compile(&g) {
                    Ok(p2) => (g, Some(p2), info.scale, info.width),
                    Err(_) => (flat, Some(p), 1, 1),
                },
                Err(_) => (flat, Some(p), 1, 1),
            }
        }),
        p => (flat, p, 1, 1),
    };
    let part = match (&plan, pipeline) {
        (Some(p), Some(t)) => Some(s.time("runtime.partition", op, |_| {
            partition(&flat, p, t, &CostModel::default())
        })),
        _ => None,
    };
    let counts = Counts {
        filters: graph.filter_count() as f64,
        opt_nodes: opt.stats().filters as f64,
        linear_nodes: analysis.linear_count() as f64,
        buffer_slots: plan.as_ref().map_or(0, ExecPlan::buffer_slots) as f64,
        stages: part.as_ref().map_or(1, |p| p.num_stages) as f64,
        fission_width: width as f64,
    };
    Ok(Compiled {
        opt,
        flat,
        plan,
        part,
        scale,
        quantum,
        counts,
    })
}

/// The uninstrumented engines `streamlinc --mode fast` runs.
fn execute(c: &Compiled, n: usize) -> Result<Vec<f64>, String> {
    let flat = c.flat.clone();
    let mut out = match (&c.plan, &c.part) {
        (Some(plan), Some(part)) => {
            run_pipeline_quantized::<NoCount, NoProbe, NoFault>(
                flat,
                plan,
                part,
                n,
                c.scale,
                c.quantum,
                &mut NoProbe,
                NoFault,
                None,
            )
            .map_err(|e| e.to_string())?
            .printed
        }
        (Some(plan), None) => {
            let mut engine = PlanEngine::<NoCount>::new(flat, plan.clone());
            engine.run_until_outputs(n).map_err(|e| e.to_string())?;
            engine.printed().to_vec()
        }
        (None, _) => {
            let mut engine = Engine::<NoCount>::new(flat);
            engine.run_until_outputs(n).map_err(|e| e.to_string())?;
            engine.printed().to_vec()
        }
    };
    out.truncate(n);
    Ok(out)
}

/// The CLI's `--quiet` sink: one `{}`-formatted line per value.
fn format_values(vals: &[f64]) -> usize {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(vals.len() * 20);
    for v in vals {
        let _ = writeln!(text, "{v}");
    }
    std::hint::black_box(&text).len()
}

/// Kernel groups for per-node busy time.
fn kernel_group(kind: &NodeKind) -> &'static str {
    use streamlin_runtime::fission::FissKernel;
    match kind {
        NodeKind::Linear(_) => "linear",
        NodeKind::Freq(_) => "freq",
        NodeKind::Redund(_) => "redund",
        NodeKind::Interp(_) => "interp",
        NodeKind::FissWorker(w) => match &w.kernel {
            FissKernel::Linear(_) => "linear",
            FissKernel::Freq(_) => "freq",
            FissKernel::Interp(_) => "interp",
        },
        _ => "plumbing",
    }
}

const KERNEL_GROUPS: [&str; 5] = ["linear", "freq", "redund", "interp", "plumbing"];

#[derive(Default)]
struct KernelTotals {
    busy_ns: BTreeMap<&'static str, u64>,
    lane_busy_ns: u64,
    recv_ns: u64,
    send_ns: u64,
    quantum_ns: u64,
    ring_full: u64,
    ring_empty: u64,
    imbalance: Vec<f64>,
    ln_meas_pred: Vec<f64>,
    firings: u64,
    flops: u64,
    mults: u64,
    measured_items: u64,
}

/// The auxiliary runs: a `Recorder` run for the per-node split and the
/// transport stalls, and a measured-mode run for the operation counts.
fn probe_runs(
    c: &Compiled,
    op: &CliOp,
    measured_n: usize,
    k: &mut KernelTotals,
) -> Result<(), String> {
    let sup = Supervision {
        watchdog: None,
        fallback: true,
        quantum: 0,
    };
    let pipeline = pipeline_threads(op.threads, op.fission);
    let mut rec = Recorder::new();
    let prof = profile_supervised(
        &c.opt,
        op.n,
        ExecMode::Fast.default_strategy(),
        Scheduler::Auto,
        ExecMode::Fast,
        pipeline,
        op.fission,
        &sup,
        None,
        Some(&mut rec),
    )
    .map_err(|e| e.to_string())?;
    k.firings += prof.firings;
    for (&i, stats) in &rec.nodes {
        // The profiler flattens and fisses the same stream the same way,
        // so node indices line up with the compiled graph.
        let group = c
            .flat
            .nodes
            .get(i)
            .map_or("plumbing", |n| kernel_group(&n.kind));
        *k.busy_ns.entry(group).or_insert(0) += stats.busy_ns;
        if stats.firings > 0 && stats.busy_ns > 0 && stats.predicted > 0.0 {
            let per = stats.busy_ns as f64 / stats.firings as f64;
            k.ln_meas_pred.push((per / stats.predicted).ln());
        }
    }
    let mut lane_busy = Vec::new();
    for l in rec.lanes.values() {
        k.lane_busy_ns += l.busy_ns;
        k.recv_ns += l.stall_ns[StallKind::RecvEmpty.index()];
        k.send_ns += l.stall_ns[StallKind::SendFull.index()];
        k.quantum_ns += l.stall_ns[StallKind::Quantum.index()];
        if l.busy_ns > 0 {
            lane_busy.push(l.busy_ns as f64);
        }
    }
    if lane_busy.len() > 1 {
        let mean = lane_busy.iter().sum::<f64>() / lane_busy.len() as f64;
        let max = lane_busy.iter().cloned().fold(0.0, f64::max);
        k.imbalance.push(max / mean);
    }
    for r in rec.rings.values() {
        k.ring_full += r.full_stalls;
        k.ring_empty += r.empty_stalls;
    }
    let counted = profile_supervised(
        &c.opt,
        measured_n,
        ExecMode::Measured.default_strategy(),
        Scheduler::Auto,
        ExecMode::Measured,
        None,
        Fission::Off,
        &sup,
        None,
        None,
    )
    .map_err(|e| e.to_string())?;
    k.flops += counted.ops.flops();
    k.mults += counted.ops.mults();
    k.measured_items += measured_n as u64;
    Ok(())
}

/// One CLI operation under `s`: compile, execute, format, all inside an
/// `op` root span. Returns the compiled program and the output values.
fn cli_op(op: &CliOp, src: &str, s: &mut Spans) -> Result<(Compiled, Vec<f64>), String> {
    s.time("op", op.id, |s| {
        let strategy = ExecMode::Fast.default_strategy();
        let c = compile(src, &op.config, op.threads, op.fission, strategy, op.id, s)?;
        let vals = s.time("runtime.exec", op.id, |_| execute(&c, op.n))?;
        s.time("sink.format", op.id, |_| format_values(&vals));
        Ok((c, vals))
    })
}

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

fn ms(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e6)
}

fn cli_replay(spec: &Json) -> Result<Json, String> {
    let ops: Vec<CliOp> = spec
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or("cli spec without \"ops\"")?
        .iter()
        .map(parse_cli_op)
        .collect::<Result<_, _>>()?;
    let mut traced = Spans::new(true);
    let mut untraced = Spans::new(false);
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let mut counts = Counts::default();
    let mut kernels = KernelTotals::default();
    let mut per_op = Vec::new();
    for op in &ops {
        let src = std::fs::read_to_string(&op.program)
            .map_err(|e| format!("cannot read {}: {e}", op.program))?;
        // Alternate which replay goes first, so warm caches favour
        // neither side of the overhead figure.
        let mut plain = Vec::new();
        let mut traced_out = None;
        for traced_turn in [op.id % 2 == 0, op.id % 2 != 0] {
            let t = Instant::now();
            if traced_turn {
                traced_out = Some(cli_op(op, &src, &mut traced)?);
                traced_ns += t.elapsed().as_nanos() as u64;
            } else {
                plain = cli_op(op, &src, &mut untraced)?.1;
                untraced_ns += t.elapsed().as_nanos() as u64;
            }
        }
        let (c, vals) = traced_out.expect("the traced replay ran");
        let dig = digest::values(&vals);
        if digest::values(&plain) != dig {
            return Err(format!("op {}: traced and untraced outputs differ", op.id));
        }
        counts.add(&c.counts);
        probe_runs(&c, op, op.n.min(MEASURED_CAP), &mut kernels)?;
        per_op.push(Json::obj([
            ("id", Json::Num(op.id as f64)),
            ("digest", Json::Str(dig)),
        ]));
    }
    // In-process setup and exec per op, for the sink residual.
    let mut setup_ns: HashMap<usize, u64> = HashMap::new();
    let mut exec_ns: HashMap<usize, u64> = HashMap::new();
    for sp in traced.all() {
        let d = sp.end_ns - sp.start_ns;
        match sp.name {
            "op" | "sink.format" => {}
            "runtime.exec" => *exec_ns.entry(sp.op).or_insert(0) += d,
            _ => *setup_ns.entry(sp.op).or_insert(0) += d,
        }
    }
    for entry in per_op.iter_mut() {
        if let Json::Obj(m) = entry {
            let id = m["id"].as_num().unwrap_or(0.0) as usize;
            m.insert(
                "setup_ms".into(),
                ms(setup_ns.get(&id).copied().unwrap_or(0)),
            );
            m.insert("exec_ms".into(), ms(exec_ns.get(&id).copied().unwrap_or(0)));
        }
    }
    let k = &kernels;
    let geo = |v: &[f64]| {
        if v.is_empty() {
            1.0
        } else {
            (v.iter().sum::<f64>() / v.len() as f64).exp()
        }
    };
    let stall = k.recv_ns + k.send_ns;
    let mut layer = counts.layers(ops.len());
    layer.extend([
        ("kernel.firings".into(), Json::Num(k.firings as f64)),
        (
            "kernel.flops_per_item".into(),
            Json::Num(k.flops as f64 / k.measured_items.max(1) as f64),
        ),
        (
            "kernel.mults_per_item".into(),
            Json::Num(k.mults as f64 / k.measured_items.max(1) as f64),
        ),
        (
            "runtime.cost_meas_pred".into(),
            Json::Num(geo(&k.ln_meas_pred)),
        ),
        (
            "transport.stall_pct".into(),
            Json::Num(100.0 * stall as f64 / (k.lane_busy_ns + stall).max(1) as f64),
        ),
        ("transport.recv_stall_ms".into(), ms(k.recv_ns)),
        ("transport.send_stall_ms".into(), ms(k.send_ns)),
        ("transport.quantum_wait_ms".into(), ms(k.quantum_ns)),
        (
            "transport.ring_full_stalls".into(),
            Json::Num(k.ring_full as f64),
        ),
        (
            "transport.ring_empty_stalls".into(),
            Json::Num(k.ring_empty as f64),
        ),
        (
            "transport.stage_imbalance".into(),
            Json::Num(if k.imbalance.is_empty() {
                1.0
            } else {
                k.imbalance.iter().sum::<f64>() / k.imbalance.len() as f64
            }),
        ),
    ]);
    for g in KERNEL_GROUPS {
        layer.push((
            format!("kernel.{g}_ms"),
            ms(k.busy_ns.get(g).copied().unwrap_or(0)),
        ));
    }
    Ok(Json::obj([
        ("spans", traced.to_json()),
        ("self_ms", self_ms(&traced)),
        ("traced_ms", ms(traced_ns)),
        ("untraced_ms", ms(untraced_ns)),
        ("root_ms", ms(traced.root_ns())),
        ("layers", Json::obj(layer)),
        ("ops", Json::arr(per_op)),
    ]))
}

fn self_ms(s: &Spans) -> Json {
    Json::obj(s.self_ns().into_iter().map(|(k, v)| (k, ms(v))))
}

/// Per-stream state of the decomposed daemon replay.
struct Stream {
    exec: Box<dyn StreamExec>,
    values: Vec<f64>,
}

/// Totals of one decomposed daemon replay.
#[derive(Default)]
struct DaemonTotals {
    hits: u64,
    misses: u64,
    bytes_out: u64,
    values_out: u64,
    digests: Vec<(String, usize, String)>,
    cold: Vec<(String, String, Option<usize>, Fission)>,
}

/// `Service::handle`, taken apart at its public layer calls: protocol
/// parse, plan cache, session build, session read, encode, close.
/// Admission is left out (the client never holds more streams than
/// the worker budget), so no request here is refused.
fn daemon_requests(lines: &[String], s: &mut Spans) -> Result<DaemonTotals, String> {
    let cache = PlanCache::new();
    let mut streams: HashMap<String, Stream> = HashMap::new();
    let mut t = DaemonTotals::default();
    for (i, line) in lines.iter().enumerate() {
        let root = s.start(i);
        let req = s.time("service.parse_request", i, |_| proto::parse_request(line))?;
        match req {
            Request::Open(req) => {
                let quantum = resolve_quantum_checked(req.quantum)?;
                let matmul = req.matmul.unwrap_or_else(|| req.mode.default_strategy());
                let key = PlanKey {
                    src_hash: fnv1a64(req.program.as_bytes()),
                    config: req.config.clone(),
                    sched: req.sched,
                    matmul,
                    threads: req.threads,
                    fission: format!("{:?}", req.fission),
                    quantum,
                };
                let span = s.start(i);
                let (art, cached) = cache.get_or_compile(&key, &req.program, req.fission)?;
                s.finish(
                    span,
                    if cached {
                        "service.cache_hit"
                    } else {
                        "service.cache_miss"
                    },
                );
                if cached {
                    t.hits += 1;
                } else {
                    t.misses += 1;
                    t.cold.push((
                        req.program.clone(),
                        req.config.clone(),
                        req.threads,
                        req.fission,
                    ));
                }
                let exec = s
                    .time("service.session_open", i, |_| {
                        build_exec(&art, req.mode, false, None, None)
                    })
                    .map_err(|e| e.to_string())?;
                let _ = s.time("service.encode", i, |_| {
                    proto::ok_response("open", vec![("id".into(), Json::Str(req.id.clone()))])
                });
                streams.insert(
                    req.id.clone(),
                    Stream {
                        exec,
                        values: Vec::new(),
                    },
                );
            }
            Request::Read { id, n } => {
                let st = streams
                    .get_mut(&id)
                    .ok_or(format!("read of unknown {id}"))?;
                let out = s
                    .time("service.session_read", i, |_| st.exec.read(n))
                    .map_err(|e| e.to_string())?;
                st.values.extend_from_slice(&out.values);
                t.values_out += out.values.len() as u64;
                let resp = s.time("service.encode", i, |_| {
                    let vals = Json::arr(out.values.into_iter().map(proto::encode_sample));
                    proto::ok_response(
                        "read",
                        vec![
                            ("id".into(), Json::Str(id.clone())),
                            ("values".into(), vals),
                        ],
                    )
                });
                t.bytes_out += resp.len() as u64 + 1;
            }
            Request::Close { id } => {
                let st = streams
                    .remove(&id)
                    .ok_or(format!("close of unknown {id}"))?;
                let delivered = st.values.len();
                t.digests.push((id, delivered, digest::values(&st.values)));
                s.time("service.session_close", i, |_| st.exec.close());
            }
            Request::Stats | Request::Ping | Request::Shutdown => {}
        }
        s.finish(root, "request");
    }
    Ok(t)
}

fn daemon_replay(spec: &Json) -> Result<Json, String> {
    let lines: Vec<String> = spec
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or("daemon spec without \"requests\"")?
        .iter()
        .filter_map(|l| l.as_str().map(str::to_string))
        .collect();
    // Three untraced and three traced replays after a warm-up, in ABBA
    // order, so drift on a shared host cancels out of the overhead
    // figure; the first traced replay's spans are the accounting.
    daemon_requests(&lines, &mut Spans::new(false))?;
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let mut traced = Spans::new(true);
    let mut plain = None;
    let mut totals = None;
    for turn in [false, true, true, false, false, true] {
        let t = Instant::now();
        if !turn {
            plain = Some(daemon_requests(&lines, &mut Spans::new(false))?);
            untraced_ns.push(t.elapsed().as_nanos() as u64);
        } else if totals.is_none() {
            totals = Some(daemon_requests(&lines, &mut traced)?);
            traced_ns.push(t.elapsed().as_nanos() as u64);
        } else {
            daemon_requests(&lines, &mut Spans::new(true))?;
            traced_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    let (plain, totals) = (plain.expect("ran"), totals.expect("ran"));
    let (untraced_ns, traced_ns) = (median(untraced_ns), median(traced_ns));
    if plain.digests != totals.digests {
        return Err("traced and untraced daemon replays delivered different values".into());
    }
    // The whole dispatcher, per request, on a fresh service.
    let svc = Service::new(ServiceOpts::default());
    let mut handle_ns = Vec::with_capacity(lines.len());
    let mut refusals = 0u64;
    for line in &lines {
        let t = Instant::now();
        let resp = svc.handle(line);
        handle_ns.push(Json::Num(t.elapsed().as_nanos() as f64 / 1e6));
        if resp.contains("\"ok\":false") {
            refusals += 1;
        }
    }
    drop(svc);
    // The front end behind each cache miss, split by layer (reported
    // beside the accounting: inside the service it is one call).
    let mut front = Spans::new(true);
    let mut counts = Counts::default();
    for (k, (src, config, threads, fission)) in totals.cold.iter().enumerate() {
        let strategy = ExecMode::Fast.default_strategy();
        let c = compile(src, config, *threads, *fission, strategy, k, &mut front)?;
        counts.add(&c.counts);
    }
    let opens = (totals.hits + totals.misses).max(1) as f64;
    let mut layer = counts.layers(totals.cold.len());
    layer.extend([
        (
            "service.cache_hit_ratio".into(),
            Json::Num(totals.hits as f64 / opens),
        ),
        (
            "service.bytes_out_per_item".into(),
            Json::Num(totals.bytes_out as f64 / totals.values_out.max(1) as f64),
        ),
        ("service.refusals".into(), Json::Num(refusals as f64)),
    ]);
    let digests = totals.digests.iter().map(|(id, n, d)| {
        Json::obj([
            ("id", Json::Str(id.clone())),
            ("delivered", Json::Num(*n as f64)),
            ("digest", Json::Str(d.clone())),
        ])
    });
    Ok(Json::obj([
        ("spans", traced.to_json()),
        ("self_ms", self_ms(&traced)),
        ("front_end_ms", self_ms(&front)),
        ("traced_ms", ms(traced_ns)),
        ("untraced_ms", ms(untraced_ns)),
        ("root_ms", ms(traced.root_ns())),
        ("handle_ms", Json::arr(handle_ns)),
        ("layers", Json::obj(layer)),
        ("streams", Json::arr(digests)),
    ]))
}
