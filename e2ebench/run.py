#!/usr/bin/env python3
"""End-to-end compile benchmark for Merced.

Run from the repository root:

    python3 e2ebench/run.py --workload cold_suite --seed 0 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

The first call builds e2ebench/ (which compiles ../src) into
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e. Later calls only re-check
the build.

--trace 0 runs the untraced driver: whole passes of the workload back to
back for --seconds (at least one), and prints the end-to-end metrics of
BENCHMARK.json. --trace 1 runs one pass of the traced driver, in which
every operation runs both untraced and through the traced replay of
compile(); it checks that the replay reproduces every compile()'s result
digest and prints the per-layer metrics plus the tracing overhead (traced
minus untraced wall time of the same operations). The spans are written to
<build dir>/trace-<workload>-<seed>.json.

The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Any other failure exits non-zero without a result line.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170  # per run, after the build
TARGETS = ["merced_e2e", "merced_e2e_traced"]


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    with path.open() as f:
        return json.load(f)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2e"


def run_logged(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no Merced sources under {ROOT / 'src'}; nothing to benchmark")
    bdir = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (bdir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(bdir), "-j", jobs, "--target", *TARGETS],
               max(1.0, deadline - time.monotonic()))
    return bdir


def run_driver(exe, args, deadline):
    """Runs one driver process; returns (other stdout lines, report dict)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run([str(exe), *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{exe.name} did not finish within the run budget")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{exe.name} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{exe.name} printed nothing")
    return lines[:-1], json.loads(lines[-1])


def checked_metrics(report, declared, kind):
    """Keeps exactly the declared metrics; every one must be present with
    its declared unit and a finite value."""
    got = report["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in got]
    if missing:
        raise BenchError(f"{kind} metrics missing from the output: {', '.join(missing)}")
    extra = sorted(set(got) - {m["name"] for m in declared})
    if extra:
        raise BenchError(f"{kind} metrics not declared in BENCHMARK.json: {', '.join(extra)}")
    out = {}
    for m in declared:
        value, unit = got[m["name"]].get("value"), got[m["name"]].get("unit")
        if not unit or unit != m["unit"]:
            raise BenchError(f"metric {m['name']} has unit {unit!r}, declared {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} has no finite value")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def run_workload(spec, bdir, workload, seed, seconds, trace, scale):
    """Returns the result object for one run."""
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    if trace:
        exe, declared = bdir / TARGETS[1], spec["per_layer"]
        args = ["--trace-out", str(bdir / f"trace-{workload}-{seed}.json")]
    else:
        exe, declared = bdir / TARGETS[0], spec["end_to_end"]
        args = ["--seconds", str(seconds)]
    lines, report = run_driver(exe, [*common, *args], deadline)
    for line in lines:
        print(line)
    metrics = checked_metrics(report, declared, "per-layer" if trace else "end-to-end")
    attempted, failed = report["attempted"], report["failed"]
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def self_test(spec, bdir):
    """Runs every workload at tiny scale, traced and untraced."""
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            try:
                result = run_workload(spec, bdir, w["name"], 0, 0, trace, "tiny")
                good = result["correct"]
                note = f"{result['attempted']} ops, {result['failed']} failed, " \
                       f"{len(result['metrics'])} metrics"
            except BenchError as e:
                good, note = False, str(e)
            ok = ok and good
            print(f"self-test {w['name']} trace={trace}: {'ok' if good else 'FAILED'} ({note})",
                  file=sys.stderr)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
        bdir = build()
        if args.self_test:
            return 0 if self_test(spec, bdir) else 1
        if not args.workload:
            raise BenchError("--workload is required")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result = run_workload(spec, bdir, args.workload, args.seed, seconds, args.trace,
                              "full")
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
