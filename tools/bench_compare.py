#!/usr/bin/env python3
"""Bench-regression pipeline for the MINOS simulator.

Two subcommands:

  collect  — run a pinned matrix of `minos-sim` configurations and write
             one JSON document with the tracked metrics per config.
  compare  — diff a freshly collected document against the committed
             baseline (BENCH_seed.json) with direction-aware relative
             thresholds; exit 1 on regression.

The simulator is seeded and discrete-event, so every tracked metric is
bit-reproducible for a given source tree: a non-zero delta always means
the code changed behavior, never that the machine was noisy. Wall-clock
time is deliberately NOT tracked. The default threshold still allows
small intentional shifts; when a change legitimately moves the numbers
further, regenerate the baseline with
`bench_compare.py collect --out BENCH_seed.json` and commit it alongside
the change that explains it.
"""

import argparse
import json
import subprocess
import sys

# The pinned benchmark matrix: small enough for CI, wide enough to cover
# both engines and the protocol corners (split ACKs, scoped persists).
MATRIX = [
    ("b_synch", ["--engine=b", "--model=synch"]),
    ("b_strict", ["--engine=b", "--model=strict"]),
    ("b_renf", ["--engine=b", "--model=renf"]),
    ("b_scope", ["--engine=b", "--model=scope"]),
    ("o_synch", ["--engine=o", "--model=synch"]),
    ("o_renf", ["--engine=o", "--model=renf"]),
    ("o_strict", ["--engine=o", "--model=strict"]),
    ("o_strict_nobatch", ["--engine=o", "--model=strict", "--no-batch"]),
    ("o_scope", ["--engine=o", "--model=scope"]),
]

COMMON_FLAGS = ["--requests=500", "--records=1000", "--seed=42"]

# Tracked metrics: (json pointer, direction). Direction "up" = higher is
# better (fail on drops), "down" = lower is better (fail on increases),
# "pin" = any drift beyond the threshold fails in either direction
# (simulator-efficiency guards from the zero-allocation event core).
# ring_hit_rate is pinned, not "up": removing useless same-tick wakeups
# lowers the share of ring events while making the simulator cheaper.
# predicate_tests (waiter predicates re-tested by wakeups) is the
# deterministic proxy of the wakeup cost; a wait herd inflates it.
METRICS = [
    ("gauges/run.write_tput_ops", "up"),
    ("gauges/run.total_tput_ops", "up"),
    ("gauges/run.duration_ns", "down"),
    ("histograms/run.write_lat_ns/p50", "down"),
    ("histograms/run.write_lat_ns/p95", "down"),
    ("histograms/run.write_lat_ns/p99", "down"),
    ("histograms/run.read_lat_ns/p50", "down"),
    ("counters/run.sim.events_executed", "pin"),
    ("counters/run.sim.heap_pushes", "pin"),
    ("gauges/run.sim.ring_hit_rate", "pin"),
    ("counters/run.sim.predicate_tests", "pin"),
]


def lookup(doc, pointer):
    node = doc
    for part in pointer.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def collect(args):
    out = {}
    for name, flags in MATRIX:
        cmd = ([args.sim] + flags + COMMON_FLAGS +
               ["--metrics-out", args.tmp])
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(args.tmp) as f:
            doc = json.load(f)
        metrics = {}
        for pointer, _ in METRICS:
            value = lookup(doc, pointer)
            if value is None:
                sys.exit(f"{name}: metric {pointer} missing from "
                         f"{args.tmp}")
            metrics[pointer] = value
        out[name] = metrics
        print(f"collected {name}", file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


def compare(args):
    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    directions = dict(METRICS)
    failures = []
    rows = []
    for name in sorted(base):
        if name not in cur:
            failures.append(f"{name}: missing from {args.current}")
            continue
        for pointer, base_value in sorted(base[name].items()):
            cur_value = cur[name].get(pointer)
            if cur_value is None:
                failures.append(f"{name}/{pointer}: missing")
                continue
            if base_value == 0:
                delta = 0.0 if cur_value == 0 else float("inf")
            else:
                delta = (cur_value - base_value) / abs(base_value)
            direction = directions.get(pointer, "pin")
            if direction == "up":
                bad = delta < -args.threshold
            elif direction == "down":
                bad = delta > args.threshold
            else:
                bad = abs(delta) > args.threshold
            rows.append((name, pointer, base_value, cur_value,
                         delta, bad))
            if bad:
                failures.append(
                    f"{name}/{pointer}: {base_value} -> {cur_value} "
                    f"({delta:+.2%}, allowed ±{args.threshold:.0%} "
                    f"{direction})")

    width = max(len(f"{n}/{p}") for n, p, *_ in rows) if rows else 0
    for name, pointer, base_value, cur_value, delta, bad in rows:
        flag = " REGRESSION" if bad else ""
        print(f"{name + '/' + pointer:<{width}}  "
              f"{base_value:>14.6g}  {cur_value:>14.6g}  "
              f"{delta:+8.2%}{flag}")

    if failures:
        print(f"\n{len(failures)} bench regression(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        print("If this change is intentional, regenerate the baseline "
              "with:\n  python3 tools/bench_compare.py collect "
              f"--sim <minos-sim> --out {args.baseline}",
              file=sys.stderr)
        sys.exit(1)
    print(f"\nall {len(rows)} tracked metrics within "
          f"±{args.threshold:.0%} of {args.baseline}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)

    c = sub.add_parser("collect", help="run the matrix, write metrics")
    c.add_argument("--sim", default="build/tools/minos-sim",
                   help="path to the minos-sim binary")
    c.add_argument("--out", default="bench.json")
    c.add_argument("--tmp", default="/tmp/bench_metrics.json",
                   help="scratch file for per-run --metrics-out")
    c.set_defaults(func=collect)

    p = sub.add_parser("compare", help="diff against the baseline")
    p.add_argument("--baseline", default="BENCH_seed.json")
    p.add_argument("--current", default="bench.json")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative delta allowed (default 5%%)")
    p.set_defaults(func=compare)

    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
