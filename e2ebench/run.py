#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark (e2ebench/CMakeLists.txt,
which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs the
workload in a fresh process, checks its result, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the workload's end-to-end metrics; with
--trace 1 its per-layer metrics, and the spans of the traced run are
written to <build>/spans/. The line before the result carries the host
profile. The full record (profile, metrics, diagnostics) is kept in
<build>/results/ for compare.py. See README.md.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cable_study", "serve_read", "serve_republish")
# The workload process may take this long beyond twice --seconds: three
# setups, the parallelism-1 reference and the last iteration's overrun.
SETUP_ALLOWANCE_S = 60


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(target="e2e_bench"):
    """Configures once and builds incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def source_digest():
    """SHA-256 over the benchmarked sources (src/ and e2ebench/)."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or "none" when it is not a git work tree of
    its own."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_profile(info):
    """The profile results are compared under (see compare.py), plus the
    build's provenance."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check(record, names, trace):
    """Turns the binary's record into the verdict and the metrics to print:
    those BENCHMARK.json declares for this mode. An error, a failed
    operation, a non-finite value, or an end-to-end metric that is not
    positive makes the run incorrect."""
    problems = list(record["errors"])
    metrics = {}
    for name, metric in record["metrics"].items():
        if name not in names:
            continue  # setup_s and peak_rss_mb come with traced runs too
        if not math.isfinite(metric["value"]):
            problems.append(f"{name} is not finite")
        metrics[name] = metric
    if not trace:
        for name, metric in metrics.items():
            if metric["value"] <= 0:
                problems.append(f"{name} is {metric['value']}, expected > 0")
    if record["failed"] > 0:
        problems.append(f"{record['failed']} operation(s) failed")
    if not metrics:
        problems.append("no metric reported")
    return problems, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    names = {m["name"] for m in spec[kind]}
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(build_dir(), "spans"), exist_ok=True)
        cmd += ["--spans-out", os.path.join(build_dir(), "spans", tag + ".json")]
    timeout_s = SETUP_ALLOWANCE_S + 2 * args.seconds
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {timeout_s:g} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"workload process exited with {proc.returncode}")
        return 1
    record = json.loads(lines[-1])

    problems, metrics = check(record, names, args.trace)
    for problem in problems:
        log(f"check failed: {problem}")
    profile = host_profile(record["info"])
    result = {
        "correct": not problems,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    os.makedirs(os.path.join(build_dir(), "results"), exist_ok=True)
    with open(os.path.join(build_dir(), "results", tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "profile": profile, "result": result,
                   "info": record["info"], "problems": problems}, f, indent=1)
    print(json.dumps({"profile": profile}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
