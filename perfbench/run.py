#!/usr/bin/env python3
"""Run one workload of the MINOS repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. On first use it builds the measuring program
(perfbench/CMakeLists.txt, an optimised build of the unchanged src/ libraries)
into .bench_build/perfbench. It then:

  * with --trace 0, runs the workload for S seconds with tracing off and
    reports the end-to-end host metrics;
  * with --trace 1, runs the traced variant and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it carries the simulated results, the
error rate and the result hash, which are correctness guards rather than
host metrics, and names each per-layer metric the workload does not
exercise (it reads 0) with the reason. A full result file with provenance (revision, build type and
flags, seed, workload config, nproc) is written under
.bench_build/perfbench-results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "perfbench-results"
BINARY = BUILD / "minos_perfbench"

WORKLOADS = ("o_strict_write", "b_synch_read", "o_scope_audit",
             "check_synch_3w")
OPTIMISED = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170

# End-to-end metrics printed with --trace 0.
END_TO_END = ("host_kops_per_s", "wall_s", "setup_s", "peak_rss_mb")

# Simulated results and error rate: printed, never bounded as host metrics.
GUARD_UNITS = {
    "sim_write_p50_us": "sim_us",
    "sim_write_p99_us": "sim_us",
    "sim_read_p99_us": "sim_us",
    "sim_mops": "sim_Mops/s",
    "error_rate": "frac",
    "audit_findings": "count",
}


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step; its output goes to stderr, never to stdout."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def cmake_cache(key):
    cache = BUILD / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: src/ not found next to perfbench/; "
                         "run from a full checkout of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        log("configuring", BUILD)
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs,
               "--target", "minos_perfbench"], timeout=840)
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    if build_type not in OPTIMISED:
        raise SystemExit(f"perfbench: refusing to report host metrics from "
                         f"an unoptimised build ({build_type!r})")
    return build_type


def source_digest():
    """SHA-256 over src/ and perfbench/ sources (a checkout may lack .git)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None,
                "note": "not a git checkout; see source_sha256"}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain", "--", "src", "perfbench"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout
        return {"revision": rev, "dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError) as exc:
        return {"revision": None, "dirty": None, "note": str(exc)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        raise SystemExit("perfbench: --seed must be >= 0, --seconds >= 1")

    build_type = build()
    RESULTS.mkdir(parents=True, exist_ok=True)

    mode = "trace" if args.trace else "measure"
    cmd = [str(BINARY), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--mode={mode}", f"--out-dir={RESULTS}"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: measuring program exited "
                         f"{proc.returncode} without a result")
    out = json.loads(lines[-1])

    metrics = out["metrics"]
    if not args.trace:
        metrics = {k: metrics[k] for k in END_TO_END}
    guards = {k: {"value": out["report"][k], "unit": u}
              for k, u in GUARD_UNITS.items() if k in out["report"]}
    correct = bool(out["correct"]) and proc.returncode == 0
    result = {"correct": correct, "attempted": int(out["attempted"]),
              "failed": int(out["failed"]), "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "guards": guards,
        "report": out["report"],
        "not_measured": out["not_measured"],
        "errors": out["errors"],
        "provenance": {
            **git_revision(),
            "source_sha256": source_digest(),
            "build_type": build_type,
            "cxx_flags": out["report"].get("cxx_flags"),
            "compiler": cmake_cache("CMAKE_CXX_COMPILER"),
            "nproc": os.cpu_count(),
            "config": out["report"].get("config"),
        },
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for err in out["errors"]:
        log("ERROR:", err)
    print(json.dumps({"guards": guards,
                      "sim_result_hash": out["report"].get("sim_result_hash"),
                      "not_measured": out["not_measured"],
                      "result_file": str(path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
