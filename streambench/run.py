#!/usr/bin/env python3
"""The streamlin end-to-end benchmark.

Drives the release `streamlinc` and `streamlind` binaries, built from
the checkout, as a single-process closed-loop client, checks every
output value against committed digests, and prints each metric by name
with its unit, median, quartiles and sample count. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.

    python3 streambench/run.py --workload cli_stream --seed 1 --seconds 30 --trace 0
    python3 streambench/run.py --workload daemon_mixed --seed 1 --seconds 30 --trace 1
    python3 streambench/run.py compare BASE NEW      # verdict per metric x workload
    python3 streambench/run.py record                # re-record expected digests
    python3 streambench/run.py selfcheck             # the harness catches corruption

Workloads: cli_stream, cli_threads, cli_compile, daemon_mixed (see
BENCHMARK.json for why each exists). `--trace 0` reports the end-to-end
metrics; `--trace 1` is the separate traced run, reporting per-layer
metrics from an in-process replay of the same generated inputs. Every
run also writes a result file with provenance under
`.bench_out/results/`, and traced runs their spans under
`.bench_out/traces/`.
"""

import argparse
import json
import os
import signal
import sys
import time

import common
import workloads
import traced

# Seconds a run may take after its build before it gives up.
RUN_DEADLINE_S = 170


def benchmark_spec():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def print_table(metrics, tally, header):
    print(header)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    ratio = tally.failed / max(tally.attempted, 1)
    print(f"  {'fail_ratio':<28} {ratio:>14.6g} {'':<6} "
          f"{tally.failed} failed of {tally.attempted} attempted")
    for e in tally.errors:
        print(f"  FAILED: {e}")


def measure(args):
    start = time.perf_counter()
    common.build()
    build_s = time.perf_counter() - start
    os.makedirs(common.OUT_DIR, exist_ok=True)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    expected = common.Expected()
    workloads.write_sources()
    tally = workloads.Tally()
    if args.trace:
        metrics, detail = traced.run_traced(args.workload, args.seed, expected, tally)
        wanted = {m["name"] for m in benchmark_spec()["per_layer"]}
    else:
        if args.workload == "daemon_mixed":
            metrics, detail = workloads.run_daemon(args.seed, args.seconds, expected, tally)
        else:
            metrics, detail = workloads.run_cli(args.workload, args.seed, args.seconds,
                                                expected, tally)
        wanted = {m["name"] for m in benchmark_spec()["end_to_end"]}
    signal.alarm(0)
    detail["build_s"] = build_s
    detail["run_s"] = time.perf_counter() - start - build_s
    doc = {
        "provenance": common.provenance(args.workload, args.seed, args.seconds, args.trace),
        "metrics": metrics,
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "detail": detail,
    }
    path = common.write_result(doc)
    print_table(metrics, tally,
                f"{args.workload} seed {args.seed} trace {args.trace} "
                f"(host_cpus {os.cpu_count()}; result file {os.path.relpath(path, common.ROOT)})")
    if "accounting" in detail:
        print(f"  {detail['accounting']}")
    missing = sorted(wanted - set(metrics))
    if missing:
        print(f"  omitted (too few samples): {', '.join(missing)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items() if k in wanted},
    }))


def main(argv):
    if argv and argv[0] in ("compare", "record", "selfcheck"):
        import tools
        return getattr(tools, argv[0])(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        measure(args)
    except (RuntimeError, OSError, TimeoutError, KeyError, ValueError) as e:
        common.log(f"streambench: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
