#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uniform|sssp|service --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seed N]

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs it, and passes its output
through. The last line of standard output is the JSON result. A traced run
also writes a Chrome trace next to the build and validates it with
tools/check_chrome_trace.py. Exits non-zero, printing no result, when the
library sources are missing, the build fails, or the result is malformed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configures once and builds; build output goes to standard error."""
    if not (ROOT / "src" / "mm" / "epoch.cpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return out / "perfbench"


def source_id():
    """Git commit and dirty flag when available, and a hash of the sources
    the benchmark builds from (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    parts = [f"tree={digest.hexdigest()[:16]}"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            parts.append(f"git={sha.stdout.strip()}")
            parts.append(f"dirty={int(bool(dirty.stdout.strip()))}")
    except (OSError, subprocess.SubprocessError):
        pass
    return " ".join(parts)


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last line of output is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted no checked operation")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["uniform", "sssp", "service"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    binary = build(out)
    if args.self_test:
        return subprocess.run([str(binary), "--self-test", "--seed",
                               str(args.seed)]).returncode

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--source", source_id()]
    trace_path = out / f"trace-{args.workload}-{args.seed}.json"
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    check_result(lines[-1], args.trace)
    if args.trace:
        checker = ROOT / "tools" / "check_chrome_trace.py"
        if checker.is_file():
            check = subprocess.run([sys.executable, str(checker),
                                    str(trace_path), "--min-events", "1"],
                                   stdout=sys.stderr, stderr=sys.stderr)
            if check.returncode != 0:
                fail(f"trace {trace_path} failed validation")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
