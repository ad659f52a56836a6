"""Shared pieces of the streamlin benchmark: paths, the build, statistics,
output digests, the expected-digest table and result files."""

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")
TRACER_MANIFEST = os.path.join(BENCH_DIR, "tracer", "Cargo.toml")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    """Cargo's target directory: `CARGO_TARGET_DIR` (relative to the
    checkout root when relative), else `.bench_build`."""
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def binary(name):
    return os.path.join(target_dir(), "release", name)


def build():
    """Builds the release `streamlinc`/`streamlind` and the tracer from
    source. Raises `RuntimeError` when either build fails."""
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        raise RuntimeError("no Cargo.toml at the checkout root: nothing to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "streamlin",
         "--bin", "streamlinc", "--bin", "streamlind"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", TRACER_MANIFEST],
    ):
        r = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(argv)}")


# ---------------------------------------------------------------- statistics

def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail(values, p):
    """The `p`-quantile, or `None` when fewer than ten samples lie beyond
    it (a tail estimate from fewer is noise, so it is omitted)."""
    if len(values) * (1 - p) < 10 - 1e-9:
        return None
    k = round(p * 100)
    return statistics.quantiles(values, n=100)[k - 1]


def geomean(values):
    return statistics.geometric_mean(values)


def summary(values, unit):
    """A metric record: median, quartiles, sample count and unit."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def single(value, unit, n):
    """A metric that is one figure derived from `n` samples."""
    return {"value": value, "unit": unit, "q1": value, "q3": value, "n": n}


# ---------------------------------------------------------------- digests

def digest(values):
    """SHA-256 of the values' little-endian f64 bit patterns, first 16
    hex digits (the tracer computes the same)."""
    a = values if isinstance(values, array) else array("d", values)
    if sys.byteorder != "little":
        a = array("d", a)
        a.byteswap()
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def parse_lines(data):
    """`streamlinc --quiet` output to values: one `{}`-formatted f64 per
    line, which parses back to the exact bits."""
    return array("d", map(float, data.split()))


def decode_sample(v):
    """A daemon wire sample: a JSON number, or a non-finite sentinel."""
    if isinstance(v, str):
        return {"inf": float("inf"), "-inf": float("-inf"), "nan": float("nan")}[v]
    return float(v)


def corrupt_one(values):
    """Flips the lowest bit of the middle value (the harness self-check:
    the digest comparison must catch it)."""
    if values:
        i = len(values) // 2
        b = array("d", [values[i]])
        raw = bytearray(b.tobytes())
        raw[0 if sys.byteorder == "little" else 7] ^= 1
        values[i] = array("d", bytes(raw))[0]


def key(variant, config, n):
    return f"{variant}/{config}/{n}"


class Expected:
    """The committed digest table (`expected.json`)."""

    def __init__(self, path=EXPECTED_PATH):
        with open(path) as f:
            self.digests = json.load(f)["digests"]

    def check(self, variant, config, n, values):
        """True when `values` are exactly the recorded first `n` outputs."""
        want = self.digests.get(key(variant, config, n))
        return want is not None and len(values) == n and digest(values) == want


# ---------------------------------------------------------------- provenance

def source_hash():
    """Content hash of the sources the benchmark builds (the checkout is
    not always a git repository)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in sorted(files):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def provenance(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host_cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_hash": source_hash(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_result(doc):
    d = os.path.join(OUT_DIR, "results")
    os.makedirs(d, exist_ok=True)
    p = doc["provenance"]
    path = os.path.join(d, f"{p['workload']}-seed{p['seed']}-trace{p['trace']}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return path
