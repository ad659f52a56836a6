"""The benchmark's side commands: `compare`, `record` and `selfcheck`."""

import argparse
import json
import os
import random
import subprocess
from concurrent.futures import ThreadPoolExecutor

import common
import workloads as w


# ---------------------------------------------------------------- compare

def load_results(path):
    """Result documents from a result file or a directory of them, keyed
    by workload (end-to-end runs only)."""
    paths = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    out = {}
    for p in paths:
        with open(p) as f:
            doc = json.load(f)
        prov = doc.get("provenance", {})
        if prov.get("trace") == 0:
            out.setdefault(prov["workload"], []).append(doc)
    return out


def side(docs, name):
    """(median, spread, run medians) of one metric over a side's runs.
    With several runs the spread is the quartile distance of the run
    medians; a single run falls back to its own within-run quartiles."""
    vals = [d["metrics"][name]["value"] for d in docs if name in d["metrics"]]
    if not vals:
        return None
    if len(vals) > 1:
        q1, med, q3 = common.quartiles(vals)
    else:
        m = docs[0]["metrics"][name]
        q1, med, q3 = m["q1"], m["value"], m["q3"]
    return med, (q3 - q1) / med if med else float("inf"), vals


def verdict(base, new, better, bound):
    """Improved, worse, unchanged or unresolved, under the benchmark's
    bound for the metric. A gain counts only with at least ten run pairs
    of which the new side wins nine tenths, and a median gain larger
    than the base side's spread; a loss beyond the bound counts when it
    exceeds the spread or every base run beats every new run. A spread
    wider than the bound is unresolved, not unchanged."""
    (bm, bs, bv), (nm, ns, nv) = base, new
    gain = (bm / nm - 1) if better == "lower" else (nm / bm - 1)
    noise = max(bs, ns)

    def beats(a, b):
        return a < b if better == "lower" else a > b

    pairs = list(zip(bv, nv))
    wins = sum(beats(n, b) for b, n in pairs)
    if gain > bs and len(pairs) >= 10 and wins >= 0.9 * len(pairs):
        return "improved"
    separated = len(bv) > 1 and len(nv) > 1 and all(beats(b, n) for b in bv for n in nv)
    if gain < -bound and (-gain > noise or separated):
        return "worse"
    if noise > bound or gain > noise:
        return "unresolved"
    return "unchanged"


def compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare",
                                 description="Verdict per metric x workload between "
                                             "two result files or directories.")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load_results(args.base), load_results(args.new)
    for workload in w.WORKLOADS:
        if workload not in base or workload not in new:
            continue
        cells = []
        for m in spec["end_to_end"]:
            b, n = side(base[workload], m["name"]), side(new[workload], m["name"])
            if b is None or n is None:
                cells.append(f"{m['name']}: missing")
                continue
            v = verdict(b, n, m["better"], m["bound"])
            cells.append(f"{m['name']}: {v} {n[0] / b[0]:.3f}x of base "
                         f"{b[0]:.6g} {m['unit']} (spread {max(b[1], n[1]):.1%}, "
                         f"bound {m['bound']:.0%})")
        runs = f"{len(base[workload])} vs {len(new[workload])} runs"
        print(f"{workload} ({runs}) | " + " | ".join(cells))
    return 0


# ---------------------------------------------------------------- record

def launch_digest(variant, config, n, extra):
    argv = [common.binary("streamlinc"), w.source_path(variant), "--config", config,
            "--mode", "fast", "--quiet", "-n", str(n)] + extra
    r = subprocess.run(argv, capture_output=True, check=True)
    vals = common.parse_lines(r.stdout)
    if len(vals) != n:
        raise RuntimeError(f"{' '.join(argv)}: {len(vals)} values, wanted {n}")
    return common.digest(vals)


def record(argv):
    """Re-records `expected.json`: every (variant, config, n) the
    workloads check, on the default engines, each cross-checked against
    the tree-walking dynamic engine with the same matmul strategy."""
    argparse.ArgumentParser(prog="run.py record").parse_args(argv)
    common.build()
    w.write_sources()
    matmul = "simd"
    reference = ["--matmul", matmul, "--sched", "dynamic", "--no-bytecode"]

    def one(k):
        v, c, n = k
        got = launch_digest(v, c, n, ["--matmul", matmul])
        ref = launch_digest(v, c, n, reference)
        if got != ref:
            raise RuntimeError(f"{common.key(v, c, n)}: default engine {got} != "
                               f"tree-walking dynamic engine {ref}")
        common.log(f"recorded {common.key(v, c, n)} {got}")
        return common.key(v, c, n), got

    with ThreadPoolExecutor(os.cpu_count()) as pool:
        digests = dict(pool.map(one, w.expected_keys()))
    doc = {
        "meta": {
            "digest": "sha256 of the little-endian f64 bit patterns, first 16 hex digits",
            "mode": "fast",
            "matmul": matmul,
            "cross_check": "streamlinc " + " ".join(reference),
        },
        "digests": dict(sorted(digests.items())),
    }
    with open(common.EXPECTED_PATH, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    common.log(f"wrote {len(digests)} digests to {common.EXPECTED_PATH}")
    return 0


# ---------------------------------------------------------------- selfcheck

def selfcheck(argv):
    """The harness must omit a tail percentile with fewer than ten
    samples beyond it, and must count a corrupted output value as a
    failure on both the CLI and the daemon path."""
    common.build()
    os.makedirs(common.OUT_DIR, exist_ok=True)
    w.write_sources()
    expected = common.Expected()
    problems = []
    if common.tail(list(range(99)), 0.9) is not None:
        problems.append("p90 of 99 samples was reported")
    if common.tail(list(range(100)), 0.9) is None:
        problems.append("p90 of 100 samples was omitted")

    launch = w.Launch("fir", "autosel", 64, "tiny")
    clean, dirty = w.Tally(), w.Tally()
    w.run_launch(launch, expected, clean)
    w.run_launch(launch, expected, dirty, corrupt=True)
    if (clean.failed, dirty.failed) != (0, 1):
        problems.append(f"CLI: clean run failed {clean.failed}, corrupted run "
                        f"failed {dirty.failed} (want 0 and 1)")

    events = [e for e in w.daemon_round(random.Random(0), 0, w.read_sources())
              if e[1].sid.startswith("r0-bulk-fir")]
    for corrupt in (False, True):
        tally, d = w.Tally(), w.Daemon()
        try:
            w.play(d, events, expected, tally, w.DaemonLog(), corrupt=corrupt)
        except BaseException:
            d.kill()
            raise
        d.shutdown()
        if tally.failed != int(corrupt):
            problems.append(f"daemon: corrupt={corrupt} counted {tally.failed} failures")
        print(f"daemon corrupt={corrupt}: fail_ratio {tally.failed}/{tally.attempted}")
    print(f"cli clean: fail_ratio {clean.failed}/{clean.attempted}; "
          f"cli corrupted: fail_ratio {dirty.failed}/{dirty.attempted}")
    for p in problems:
        print(f"SELFCHECK FAILED: {p}")
    if not problems:
        print("selfcheck passed")
    return 1 if problems else 0

