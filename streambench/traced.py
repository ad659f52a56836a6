"""The traced run (`--trace 1`): the workload's first pass (or first two
daemon rounds), replayed in process by the tracer with a span around
every call into a layer, plus the same operations untraced through the
real binaries for the parts only a process boundary shows (the CLI
sink, the daemon pipe)."""

import json
import os
import random
import subprocess

import common
import workloads as w

# Per-layer metrics, in BENCHMARK.json's order: (name, unit).
PER_LAYER = [
    ("lang.parse_ms", "ms"), ("graph.elaborate_ms", "ms"), ("graph.filters", "count"),
    ("core.extract_ms", "ms"), ("core.select_ms", "ms"), ("core.opt_nodes", "count"),
    ("core.linear_nodes", "count"),
    ("runtime.flatten_ms", "ms"), ("runtime.plan_ms", "ms"), ("runtime.fission_ms", "ms"),
    ("runtime.partition_ms", "ms"), ("runtime.buffer_slots", "count"),
    ("runtime.stages", "count"), ("runtime.fission_width", "count"),
    ("runtime.exec_ms", "ms"), ("kernel.linear_ms", "ms"), ("kernel.freq_ms", "ms"),
    ("kernel.redund_ms", "ms"), ("kernel.interp_ms", "ms"), ("kernel.plumbing_ms", "ms"),
    ("kernel.firings", "count"), ("kernel.flops_per_item", "count"),
    ("kernel.mults_per_item", "count"), ("runtime.cost_meas_pred", "ratio"),
    ("transport.stall_pct", "%"), ("transport.recv_stall_ms", "ms"),
    ("transport.send_stall_ms", "ms"), ("transport.quantum_wait_ms", "ms"),
    ("transport.ring_full_stalls", "count"), ("transport.ring_empty_stalls", "count"),
    ("transport.stage_imbalance", "ratio"),
    ("sink.format_ms", "ms"), ("sink.cli_residual_ms", "ms"),
    ("service.parse_request_ms", "ms"), ("service.cache_hit_ms", "ms"),
    ("service.cache_miss_ms", "ms"), ("service.cache_hit_ratio", "ratio"),
    ("service.session_open_ms", "ms"), ("service.session_read_ms", "ms"),
    ("service.encode_ms", "ms"), ("service.session_close_ms", "ms"),
    ("service.handle_ms", "ms"), ("service.pipe_ms", "ms"),
    ("service.bytes_out_per_item", "B"), ("service.refusals", "count"),
    ("trace.wall_ms", "ms"), ("trace.unattributed_ms", "ms"), ("trace.overhead_pct", "%"),
]

# Span names whose self time is a layer metric of the same name + `_ms`.
COMPILE_SPANS = ["lang.parse", "graph.elaborate", "core.extract", "core.select",
                 "runtime.flatten", "runtime.plan", "runtime.fission", "runtime.partition"]
SPAN_LAYERS = COMPILE_SPANS + [
    "runtime.exec", "sink.format", "service.parse_request", "service.cache_hit",
    "service.cache_miss", "service.session_open", "service.session_read",
    "service.encode", "service.session_close"]
ROOT_SPANS = ("op", "request")


def tracer(spec, name):
    """Runs the tracer on `spec`; its spans and totals land in
    `.bench_out/traces/<name>.json`, which is returned parsed."""
    d = os.path.join(common.OUT_DIR, "traces")
    os.makedirs(d, exist_ok=True)
    ops_path = os.path.join(d, f"{name}.ops.json")
    out_path = os.path.join(d, f"{name}.json")
    with open(ops_path, "w") as f:
        json.dump(spec, f)
    r = subprocess.run([common.binary("streambench-tracer"), "trace", ops_path, out_path])
    if r.returncode != 0:
        raise RuntimeError("the traced replay failed")
    with open(out_path) as f:
        return json.load(f)


def accounting(out, layers):
    """Layer self times from the spans, the unattributed remainder (the
    root spans' own time), and the tracing overhead."""
    self_ms = out["self_ms"]
    for span in SPAN_LAYERS:
        if span in self_ms:
            layers[span + "_ms"] = self_ms[span]
    layers["trace.wall_ms"] = out["root_ms"]
    layers["trace.unattributed_ms"] = sum(self_ms.get(r, 0.0) for r in ROOT_SPANS)
    layers["trace.overhead_pct"] = 100.0 * (out["traced_ms"] / out["untraced_ms"] - 1.0)
    attributed = sum(self_ms.get(s, 0.0) for s in SPAN_LAYERS)
    return (f"accounting: layers {attributed:.3f} ms + unattributed "
            f"{layers['trace.unattributed_ms']:.3f} ms = traced wall "
            f"{layers['trace.wall_ms']:.3f} ms; tracing overhead "
            f"{layers['trace.overhead_pct']:+.2f}% (traced {out['traced_ms']:.1f} ms vs "
            f"untraced {out['untraced_ms']:.1f} ms)")


def traced_cli(workload, seed, expected, tally):
    launches = w.cli_pass(workload, random.Random(f"{workload}:{seed}"))
    walls = [w.run_launch(l, expected, tally)["wall"] for l in launches]
    out = tracer({"kind": "cli", "ops": [l.op(i) for i, l in enumerate(launches)]},
                 f"{workload}-seed{seed}")
    in_process_ms = 0.0
    for o in out["ops"]:
        l = launches[o["id"]]
        want = expected.digests.get(common.key(l.variant, l.config, l.n))
        tally.record(o["digest"] == want, f"traced {l.variant}/{l.config}/{l.n}: digest")
        in_process_ms += o["setup_ms"] + o["exec_ms"]
    layers = dict(out["layers"])
    summary_line = accounting(out, layers)
    layers["sink.cli_residual_ms"] = sum(walls) * 1e3 - in_process_ms
    detail = {"launch_wall_ms": sum(walls) * 1e3, "in_process_ms": in_process_ms,
              "ops": len(launches), "accounting": summary_line}
    return layers, detail


def traced_daemon(seed, expected, tally):
    rng = random.Random(f"daemon_mixed:{seed}")
    sources = w.read_sources()
    events = w.daemon_round(rng, 0, sources) + w.daemon_round(rng, 1, sources)
    d = w.Daemon()
    log = w.DaemonLog()
    try:
        w.play(d, events, expected, tally, log)
    except BaseException:
        d.kill()
        raise
    d.shutdown()
    lines = [w.request_line(k, s, n) for k, s, n in events]
    out = tracer({"kind": "daemon", "requests": lines}, f"daemon_mixed-seed{seed}")
    totals = {s.sid: s for _, s, _ in events}
    for st in out["streams"]:
        s = totals[st["id"]]
        want = expected.digests.get(common.key(s.program, w.DAEMON_CONFIG, s.total()))
        tally.record(st["digest"] == want and st["delivered"] == s.total(),
                     f"traced stream {s.sid}: digest")
    layers = dict(out["layers"])
    summary_line = accounting(out, layers)
    for span in COMPILE_SPANS:
        if span in out["front_end_ms"]:
            layers[span + "_ms"] = out["front_end_ms"][span]
    handle_ms = sum(out["handle_ms"])
    layers["service.handle_ms"] = handle_ms
    layers["service.pipe_ms"] = sum(log.latencies) * 1e3 - handle_ms
    layers["service.refusals"] += log.refusals
    detail = {"requests": len(lines), "client_ms": sum(log.latencies) * 1e3,
              "accounting": summary_line}
    return layers, detail


def run_traced(workload, seed, expected, tally):
    if workload == "daemon_mixed":
        layers, detail = traced_daemon(seed, expected, tally)
    else:
        layers, detail = traced_cli(workload, seed, expected, tally)
    metrics = {}
    for name, unit in PER_LAYER:
        v = float(layers.get(name, 0.0))
        metrics[name] = common.single(v, unit, 1)
    detail["not_exercised"] = sorted(n for n, _ in PER_LAYER if n not in layers)
    return metrics, detail
