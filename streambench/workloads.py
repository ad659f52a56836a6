"""The four workloads: what each runs, generated from the seed, and the
closed-loop clients that drive `streamlinc` and `streamlind`."""

import json
import os
import random
import select
import statistics
import subprocess
import time
from array import array

import common
from common import geomean, summary, tail

PROGRAMS = ["fir", "rateconvert", "targetdetect", "fmradio", "radar",
            "filterbank", "vocoder", "oversampler", "dtoa"]
STREAM_CONFIGS = ["autosel", "baseline"]
# Outputs per streaming launch: roughly 0.2 s of work each on a 2-CPU
# host (Radar about 0.7 s, so its compile stays near a tenth of the run).
STREAM_N = {
    ("fir", "autosel"): 400000, ("fir", "baseline"): 320000,
    ("rateconvert", "autosel"): 240000, ("rateconvert", "baseline"): 150000,
    ("targetdetect", "autosel"): 300000, ("targetdetect", "baseline"): 250000,
    ("fmradio", "autosel"): 160000, ("fmradio", "baseline"): 45000,
    ("radar", "autosel"): 80000, ("radar", "baseline"): 80000,
    ("filterbank", "autosel"): 200000, ("filterbank", "baseline"): 70000,
    ("vocoder", "autosel"): 26000, ("vocoder", "baseline"): 18000,
    ("oversampler", "autosel"): 500000, ("oversampler", "baseline"): 300000,
    ("dtoa", "autosel"): 140000, ("dtoa", "baseline"): 90000,
}
# Tiny (set-up) launches: output counts, and launches per program x
# config per pass. Radar gets one: its set-up is 5-10x the others', and
# at two its launches would be a ninth of the samples, putting the p90
# on the edge of the Radar cluster, where it does not repeat.
TINY_N = (1, 16, 64)
TINY_PER_PAIR = 2
TINY_PER_PAIR_RADAR = 1

# cli_compile: the nine defaults plus the paper's scaling families
# (FIR taps, Radar channels x beams), each under every optimizing config.
COMPILE_VARIANTS = PROGRAMS + ["fir-16", "fir-128", "fir-512", "fir-2048",
                               "radar-4x2", "radar-32x8"]
COMPILE_CONFIGS = ["linear", "freq", "redund", "autosel"]
COMPILE_N = 16

# daemon_mixed.
BULK_READ = 4096
BULK_READS = 4
INTERACTIVE_TOTAL = 256
INTERACTIVE_MAX = 64
DAEMON_CONFIG = "autosel"

# How often a running launch's peak memory is sampled.
HWM_POLL_S = 0.005

MIN_PASSES = {"cli_stream": 3, "cli_threads": 3, "cli_compile": 2, "daemon_mixed": 8}
WORKLOADS = list(MIN_PASSES)


def expected_keys():
    """Every (variant, config, n) whose digest some workload checks."""
    keys = set()
    for (p, c), n in STREAM_N.items():
        keys.add((p, c, n))
        for k in TINY_N:
            keys.add((p, c, k))
    for v in COMPILE_VARIANTS:
        for c in COMPILE_CONFIGS:
            keys.add((v, c, COMPILE_N))
    for p in PROGRAMS:
        keys.add((p, DAEMON_CONFIG, BULK_READ * BULK_READS))
        keys.add((p, DAEMON_CONFIG, INTERACTIVE_TOTAL))
    return sorted(keys)


def source_path(variant):
    return os.path.join(common.OUT_DIR, "src", f"{variant}.str")


def write_sources():
    """Writes every variant's source text (from the benchmark crate) into
    the output directory."""
    variants = sorted(set(PROGRAMS) | set(COMPILE_VARIANTS))
    r = subprocess.run([common.binary("streambench-tracer"), "sources",
                        os.path.join(common.OUT_DIR, "src")] + variants)
    if r.returncode != 0:
        raise RuntimeError("tracer could not write the program sources")


# ---------------------------------------------------------------- plans

class Launch:
    """One `streamlinc` launch: program variant, config, outputs, kind
    (`stream` or `tiny`), and whether it runs the 2-thread pipeline."""

    def __init__(self, variant, config, n, kind, threads=False):
        self.variant, self.config, self.n, self.kind = variant, config, n, kind
        self.threads = threads

    def argv(self):
        return ([common.binary("streamlinc"), source_path(self.variant),
                 "--config", self.config, "--mode", "fast", "--quiet", "-n", str(self.n)]
                + (["--threads", "2", "--fission", "auto"] if self.threads else []))

    def op(self, i):
        """The traced replay's description of this launch."""
        return {"id": i, "program": source_path(self.variant), "config": self.config,
                "n": self.n, "threads": 2 if self.threads else None,
                "fission": "auto" if self.threads else "off"}


def cli_pass(workload, rng):
    """One pass of a CLI workload, in seeded order."""
    launches = []
    if workload in ("cli_stream", "cli_threads"):
        threads = workload == "cli_threads"
        for p in PROGRAMS:
            for c in STREAM_CONFIGS:
                launches.append(Launch(p, c, STREAM_N[(p, c)], "stream", threads))
                for _ in range(TINY_PER_PAIR_RADAR if p == "radar" else TINY_PER_PAIR):
                    launches.append(Launch(p, c, rng.choice(TINY_N), "tiny", threads))
    else:
        for v in COMPILE_VARIANTS:
            for c in COMPILE_CONFIGS:
                launches.append(Launch(v, c, COMPILE_N, "tiny"))
    rng.shuffle(launches)
    return launches


class Stream:
    """One daemon stream of a round: its open line, its read sizes, and
    the variant whose digests it must match."""

    def __init__(self, sid, program, source, kind, reads):
        self.sid, self.program, self.kind, self.reads = sid, program, kind, reads
        self.open_line = json.dumps({"op": "open", "id": sid, "program": source,
                                     "config": DAEMON_CONFIG, "mode": "fast"})

    def total(self):
        return sum(self.reads)


def interactive_reads(rng):
    reads, left = [], INTERACTIVE_TOTAL
    while left > 0:
        k = min(left, rng.randint(1, INTERACTIVE_MAX))
        reads.append(k)
        left -= k
    return reads


def daemon_round(rng, r, sources):
    """The request events of one round of the daemon mix: a bulk reader
    per program, two cached interactive readers per program, and an
    interactive reader per program on a freshly seeded variant (a new
    comment line, so its text, and hence its cache key, is new while its
    output is not). Streams go in seeded pairs; within a pair both open,
    their reads interleave at random, and each closes after its last
    read, so at most two streams are ever open."""
    streams = []
    for p in PROGRAMS:
        streams.append(Stream(f"r{r}-bulk-{p}", p, sources[p], "bulk",
                              [BULK_READ] * BULK_READS))
        for j in range(2):
            streams.append(Stream(f"r{r}-int{j}-{p}", p, sources[p], "interactive",
                                  interactive_reads(rng)))
        fresh = sources[p] + f"\n// variant {rng.getrandbits(48):012x}\n"
        streams.append(Stream(f"r{r}-cold-{p}", p, fresh, "cold",
                              interactive_reads(rng)))
    rng.shuffle(streams)
    events = []
    for i in range(0, len(streams), 2):
        pair = streams[i:i + 2]
        events += [("open", s, 0) for s in pair]
        pending = {s.sid: list(s.reads) for s in pair}
        live = list(pair)
        while live:
            s = rng.choice(live)
            events.append(("read", s, pending[s.sid].pop(0)))
            if not pending[s.sid]:
                events.append(("close", s, 0))
                live.remove(s)
    return events


def request_line(kind, s, n):
    if kind == "open":
        return s.open_line
    if kind == "read":
        return json.dumps({"op": "read", "id": s.sid, "n": n})
    return json.dumps({"op": "close", "id": s.sid})


def read_sources():
    out = {}
    for p in PROGRAMS:
        with open(source_path(p)) as f:
            out[p] = f.read()
    return out


# ---------------------------------------------------------------- clients

class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def vm_hwm_kb(pid):
    """The process's peak resident set (`VmHWM`), or 0 once it is gone.
    Unlike `wait4`'s maxrss, it excludes the client's own pages, which a
    spawned child is charged with until it execs."""
    try:
        with open(f"/proc/{pid}/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_launch(launch, expected, tally, corrupt=False):
    """Spawns one launch, reads its stdout as it arrives, reaps it with
    `wait4` and checks its values. Returns the timings and usage. The
    peak memory is sampled every few milliseconds while the launch runs;
    a streaming launch blocks on the full pipe once its values are
    computed, so the sample then is its peak."""
    errlog = open(os.path.join(common.OUT_DIR, "stderr.log"), "ab")
    t0 = time.perf_counter()
    p = subprocess.Popen(launch.argv(), stdout=subprocess.PIPE, stderr=errlog)
    try:
        fd = p.stdout.fileno()
        chunks, first, hwm = [], None, 0
        while True:
            ready, _, _ = select.select([fd], [], [], HWM_POLL_S)
            hwm = max(hwm, vm_hwm_kb(p.pid))
            if not ready:
                continue
            b = os.read(fd, 1 << 20)
            if not b:
                break
            if first is None and b"\n" in b:
                first = time.perf_counter()
            chunks.append(b)
        last = time.perf_counter()
        _, status, ru = os.wait4(p.pid, 0)
        end = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        p.stdout.close()
        errlog.close()
    values = common.parse_lines(b"".join(chunks))
    if corrupt:
        common.corrupt_one(values)
    ok = p.returncode == 0 and expected.check(launch.variant, launch.config, launch.n, values)
    tally.record(ok, f"{' '.join(launch.argv()[1:])}: exit {p.returncode}, "
                     f"{len(values)} values")
    return {
        "wall": end - t0,
        "first": (first if first is not None else last) - t0,
        "last": last - t0,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_kb": hwm,
        "values": len(values),
    }


def run_cli(workload, seed, seconds, expected, tally):
    """Passes of a CLI workload until `seconds` are spent (at least the
    workload's minimum). Returns the metrics and per-pass detail."""
    rng = random.Random(f"{workload}:{seed}")
    tiny, tiny_read, pass_walls = [], [], []
    firsts = {"stream": [], "tiny": []}
    rates = {}
    records = []
    cpu = values = 0.0
    rss = {}
    start = time.perf_counter()
    while True:
        pass_wall = 0.0
        for launch in cli_pass(workload, rng):
            r = run_launch(launch, expected, tally)
            cpu += r["cpu"]
            values += r["values"]
            key = (launch.variant, launch.config, launch.kind)
            rss.setdefault(key, []).append(r["rss_kb"])
            rates.setdefault(key, []).append(launch.n / r["last"])
            if launch.kind == "tiny":
                tiny.append(r["wall"])
                tiny_read.append(r["last"] * 1e3)
            firsts[launch.kind].append(r["first"])
            records.append([launch.variant, launch.config, launch.kind, launch.n,
                            r["wall"], r["first"], r["cpu"], r["rss_kb"]])
            pass_wall += r["wall"]
        pass_walls.append(pass_wall)
        elapsed = time.perf_counter() - start
        mean_pass = elapsed / len(pass_walls)
        if len(pass_walls) >= MIN_PASSES[workload] and elapsed + mean_pass > seconds:
            break
    # Items per second: each program's median over passes, combined by
    # geometric mean (streaming launches where the workload has them).
    kinds = {"stream"} if workload != "cli_compile" else {"tiny"}
    per_program = [statistics.median(v) for (_, _, k), v in rates.items() if k in kinds]
    first = firsts["stream"] or firsts["tiny"]
    metrics = {
        "setup_s": summary(tiny, "s"),
        "first_value_s": summary(first, "s"),
        "items_per_s": common.single(geomean(per_program), "1/s", len(per_program)),
        "wall_s": summary(pass_walls, "s"),
        "read_p50_ms": summary(tiny_read, "ms"),
        # The hungriest program's peak (its median over passes).
        "peak_rss_mb": common.single(max(statistics.median(v) for v in rss.values()) / 1024,
                                     "MB", tally.attempted),
        "cpu_us_per_item": common.single(cpu / max(values, 1) * 1e6, "us", tally.attempted),
    }
    add_tail(metrics, "setup_p90_s", tiny, "s")
    add_tail(metrics, "read_p90_ms", tiny_read, "ms")
    return metrics, {"passes": len(pass_walls), "launches": records,
                     "launch_fields": ["variant", "config", "kind", "n", "wall_s",
                                       "first_s", "cpu_s", "vm_hwm_kb"]}


def add_tail(metrics, name, values, unit):
    v = tail(values, 0.9)
    if v is not None:
        metrics[name] = common.single(v, unit, len(values))


class Daemon:
    """A `streamlind` over stdio with one closed-loop client."""

    def __init__(self):
        self.errlog = open(os.path.join(common.OUT_DIR, "stderr.log"), "ab")
        self.proc = subprocess.Popen([common.binary("streamlind")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.errlog)

    def request(self, line):
        """Sends one line; returns (latency in s, parsed response)."""
        t0 = time.perf_counter()
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        raw = self.proc.stdout.readline()
        resp = json.loads(raw) if raw else {"ok": False, "error": "eof"}
        return time.perf_counter() - t0, resp

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.errlog.close()

    def shutdown(self):
        """Shuts the daemon down and reaps it; returns its CPU seconds."""
        try:
            self.request(json.dumps({"op": "shutdown"}))
            self.proc.stdin.close()
        except OSError:
            pass
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.errlog.close()
        return ru.ru_utime + ru.ru_stime


class DaemonLog:
    """What the client saw over a daemon session."""

    def __init__(self):
        self.opens, self.firsts, self.reads, self.rates, self.latencies = [], [], [], [], []
        self.delivered = 0
        self.refusals = 0


def play(d, events, expected, tally, log, corrupt=False):
    """Sends a round's events to the daemon, timing each request from
    line written to response parsed, and checks every stream's values
    against the expected digest when it closes."""
    got, read_s, open_s = {}, {}, {}
    for kind, s, n in events:
        lat, resp = d.request(request_line(kind, s, n))
        log.latencies.append(lat)
        ok = bool(resp.get("ok"))
        log.refusals += not ok
        if kind == "open":
            log.opens.append(lat)
            open_s[s.sid], got[s.sid], read_s[s.sid] = lat, [], 0.0
        elif kind == "read":
            vals = [common.decode_sample(v) for v in resp.get("values", [])]
            if not got[s.sid]:
                log.firsts.append(open_s[s.sid] + lat)
            got[s.sid].extend(vals)
            read_s[s.sid] += lat
            log.delivered += len(vals)
            ok = ok and len(vals) == n
            if s.kind != "bulk":
                log.reads.append(lat * 1e3)
        else:
            vals = array("d", got.pop(s.sid))
            if corrupt:
                common.corrupt_one(vals)
                corrupt = False
            ok = ok and expected.check(s.program, DAEMON_CONFIG, s.total(), vals)
            if s.kind == "bulk":
                log.rates.append(len(vals) / read_s[s.sid])
        tally.record(ok, f"{kind} {s.sid}: {resp.get('error', 'digest mismatch')}")


def run_daemon(seed, seconds, expected, tally):
    """Rounds of the daemon mix against one `streamlind` until `seconds`
    are spent (at least the minimum). Returns the metrics and detail."""
    rng = random.Random(f"daemon_mixed:{seed}")
    sources = read_sources()
    d = Daemon()
    log = DaemonLog()
    round_walls = []
    start = time.perf_counter()
    try:
        while True:
            events = daemon_round(rng, len(round_walls), sources)
            t0 = time.perf_counter()
            play(d, events, expected, tally, log)
            round_walls.append(time.perf_counter() - t0)
            if len(round_walls) == MIN_PASSES["daemon_mixed"]:
                # The plan cache keeps every fresh variant, so memory grows
                # with the rounds played: read the high-water mark after a
                # fixed number of rounds, not after however many fit.
                hwm = vm_hwm_kb(d.proc.pid)
            elapsed = time.perf_counter() - start
            if (len(round_walls) >= MIN_PASSES["daemon_mixed"]
                    and elapsed + elapsed / len(round_walls) > seconds):
                break
    except BaseException:
        d.kill()
        raise
    cpu = d.shutdown()
    metrics = {
        "setup_s": summary(log.opens, "s"),
        "first_value_s": summary(log.firsts, "s"),
        "items_per_s": common.single(geomean(log.rates), "1/s", len(log.rates)),
        "wall_s": summary(round_walls, "s"),
        "read_p50_ms": summary(log.reads, "ms"),
        "peak_rss_mb": common.single(hwm / 1024, "MB", 1),
        "cpu_us_per_item": common.single(cpu / max(log.delivered, 1) * 1e6, "us",
                                         tally.attempted),
    }
    add_tail(metrics, "setup_p90_s", log.opens, "s")
    add_tail(metrics, "read_p90_ms", log.reads, "ms")
    return metrics, {"rounds": len(round_walls), "requests": tally.attempted,
                     "values": log.delivered}
