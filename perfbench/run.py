#!/usr/bin/env python3
"""Simulator benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload gc_heavy --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload on TPFTL and DFTL, validates the emitted metrics against
BENCHMARK.json, writes the full result with its provenance to
<build>/results/, prints every metric with its unit, and prints as its last
stdout line one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero when the output check found a mismatch, when a
self-test fails, or when anything needed to build or run is missing.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("gc_heavy", "read_miss_trace", "tenant_serve")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """Commit of the checkout, or a digest of the sources when not in git."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_catalog(spec):
    """Self-test: every declared metric has a valid name, a unit and a direction."""
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            name = metric.get("name", "")
            if not NAME_RE.match(name) or name in seen:
                fail("bad or duplicate metric name %r" % name, 3)
            if not UNIT_RE.match(metric.get("unit", "")):
                fail("metric %s has no valid unit" % name, 3)
            if metric.get("better") not in ("higher", "lower"):
                fail("metric %s has no direction" % name, 3)
            seen.add(name)


def build(root, build_dir, env):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the repository root: %s not found" % needed)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_catalog(spec)

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    work_dir = os.path.join(build_dir, "work")
    results_dir = os.path.join(build_dir, "results")
    tmp_dir = os.path.join(build_dir, "tmp")
    for d in (work_dir, results_dir, tmp_dir):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(root, build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark crashed with code %d and printed nothing" % proc.returncode)
    result = json.loads(lines[-1])

    # The emitted metrics must be exactly the declared set for this mode,
    # each with its declared unit.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))), 3)
    for name, entry in metrics.items():
        if entry["unit"] != units[name]:
            fail("metric %s has unit %s, declared %s" % (name, entry["unit"], units[name]), 3)

    details = result["details"]
    provenance = {
        "commit": source_digest(root),
        "build_type": details.pop("build_type"),
        "cxx_flags": details.pop("cxx_flags"),
        "compiler": details.pop("compiler"),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": details.pop("rounds"),
    }
    record = {"provenance": provenance, "details": details, "correct": result["correct"],
              "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    out_path = os.path.join(results_dir, "%s.seed%d.trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    better = {m["name"]: m["better"] for m in declared}
    print("provenance " + json.dumps(provenance))
    for note in details.get("notes", []):
        print("check " + note)
    for name in sorted(metrics):
        print("%-40s %22.6f %-10s (%s is better)" % (
            name, metrics[name]["value"], metrics[name]["unit"], better[name]))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
