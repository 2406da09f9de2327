#!/usr/bin/env python3
"""Pricing-service benchmark: one command for every workload.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the C++ runner (perfbench/runner/)
into .bench_build/ with CMake, runs one workload, checks its outputs and
prints a report followed by one JSON result line:

  --trace 0  every end-to-end metric of BENCHMARK.json;
  --trace 1  an untraced run, then a traced run of the same workload and
             seed; every per-layer metric, including the tracing overhead
             (traced minus untraced end-to-end values). The traced run's
             raw report, spans included, is kept under
             .bench_build/traces/.

Exits non-zero when an output check fails, or when the repository
sources are not next to this directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

WORKLOADS = ["serve-read", "serve-write"]
DEFAULT_SEED = 1
# Confirms a later performance claim on a seed its author did not tune on.
HELD_OUT_SEED = 97
# A request that failed reads as this many units in a percentile, which
# is above any latency limit the benchmark could set.
FAILED_VALUE = 1e9
# Two runner invocations (--trace 1) must end within the benchmark's 180 s.
RUNNER_TIMEOUT_S = 80


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def repo_root():
    return os.path.dirname(HERE)


def source_fingerprint(root):
    """The commit when the checkout is a git repository, else a hash of
    the sources the runner is built from."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        log("perfbench: run from the repository root; no CMakeLists.txt "
            "and src/ found at", root)
        return None
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_runner",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "perfbench_runner")


def run_workload(binary, build_dir, args, trace):
    workdir = os.path.join(build_dir, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "report.json")
    # Address-space randomization off: the same code and heap placement in
    # every run, so placement luck does not move the timings.
    norandom = ["setarch", os.uname().machine, "-R"] if shutil.which(
        "setarch") else []
    cmd = norandom + [binary, "--workload", args.workload, "--seed",
                      str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--out", out, "--workdir", workdir]
    if args.force_mismatch:
        cmd.append("--force-mismatch")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: runner timed out")
        return None
    if proc.returncode != 0:
        log("perfbench: runner exited with", proc.returncode)
        return None
    with open(out) as fh:
        report = json.load(fh)
    if trace:
        keep = os.path.join(build_dir, "traces")
        os.makedirs(keep, exist_ok=True)
        shutil.copy(out, os.path.join(
            keep, "%s-seed%d.json" % (args.workload, args.seed)))
    shutil.rmtree(workdir, ignore_errors=True)
    return report


def finite(metrics):
    for m in metrics.values():
        if m["value"] is None or m["value"] == benchlib.INF:
            m["value"] = FAILED_VALUE
    return metrics


def print_stamp(report, fingerprint):
    stamp = dict(report["stamp"])
    stamp["source"] = fingerprint
    stamp["held_out_seed"] = HELD_OUT_SEED
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    if "skip_notice" in stamp:
        print("SKIP NOTICE: " + stamp["skip_notice"])


def print_metrics(title, metrics, ungated=()):
    print(title)
    for name, m in metrics.items():
        extra = ""
        if "n" in m:
            extra = " (n=%d%s%s)" % (
                m["n"], ", %d beyond" % m["beyond"] if "beyond" in m else "",
                ", median of %d windows; their lower quartile %.6g" % (
                    m["windows"], m["lower_quartile"])
                if m.get("lower_quartile") is not None else "")
        if name in ungated:
            extra += " [reported, not gated]"
        print("  %-36s %14.6g %-12s%s" % (name, m["value"], m["unit"], extra))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--force-mismatch", action="store_true",
                        help="corrupt one expected quote (tests the checks)")
    args = parser.parse_args(argv)

    root = repo_root()
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        return 2
    fingerprint = source_fingerprint(root)

    untraced = run_workload(binary, build_dir, args, trace=False)
    if untraced is None:
        return 3
    reports = [untraced]
    metrics = finite(benchlib.end_to_end(untraced))
    if args.trace:
        traced = run_workload(binary, build_dir, args, trace=True)
        if traced is None:
            return 3
        reports.append(traced)
        try:
            layers = finite(benchlib.per_layer(traced, metrics))
        except benchlib.MissingMetrics as e:
            log("perfbench: the traced run did not produce:", e)
            return 5

    print_stamp(untraced, fingerprint)
    attempted = failed = 0
    problems = []
    for report in reports:
        a, f = benchlib.ops_counts(report)
        attempted += a
        failed += f
        problems += benchlib.check_failures(report)
    print("checks: " + json.dumps(untraced["checks"], sort_keys=True))
    print("ops: %d attempted, %d failed" % (attempted, failed))
    w = untraced["writer"]
    print("writer: %d ops closed loop in %.3f s, waiting on replies %.1f%% "
          "of it" % (w["ops"], w["seconds"],
                     100.0 * w["busy_s"] / w["seconds"] if w["seconds"] else 0))
    print_metrics("end-to-end (untraced):", metrics, benchlib.REPORTED)
    result, names = metrics, benchlib.END_TO_END
    if args.trace:
        print_metrics("per-layer (traced):", layers)
        result, names = layers, benchlib.PER_LAYER
    correct = not problems
    if problems:
        print("OUTPUT CHECK FAILED: " + ", ".join(sorted(set(problems))))
    line = benchlib.result_line(correct, attempted, failed, result, names)
    errors = benchlib.validate_result(json.loads(line), benchlib.SPEC,
                                      args.trace)
    if errors:
        log("perfbench: result does not match BENCHMARK.json:", errors)
        return 4
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
