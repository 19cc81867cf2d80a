#!/usr/bin/env python3
"""Build and run one benchmark run of the nmspmm serving stack.

    python3 perfbench/run.py --workload decode_closed --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (and through it the repository's nmspmm library) into
.bench_build/; later runs rebuild incrementally. The run's identity,
accounting and result are stored under .bench_results/, and the last
line printed is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Workloads: decode_closed, prefill_closed and mixed_open. --trace 0
prints the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones (and writes a Chrome trace of the traced run). The exit code is
non-zero when the build fails, an output check fails, the metrics printed
are not the ones BENCHMARK.json lists, or perfbench/layers.json (which
says what each per-layer metric should move) names other per-layer
metrics than BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("decode_closed", "prefill_closed", "mixed_open")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def run(cmd, timeout, **kwargs):
    """subprocess.run in its own process group; on timeout the whole group
    (e.g. make and its compilers) is killed and reaped before raising."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build():
    """Configure (once) and build the perfbench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no nmspmm sources under {ROOT}; nothing to build")
        return None
    steps = []
    generated = any((BUILD / f).is_file() for f in ("Makefile", "build.ninja"))
    if not (BUILD / "CMakeCache.txt").is_file() or not generated:
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(jobs())])
    for cmd in steps:
        try:
            proc = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                       stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return None
    binary = BUILD / "perfbench"
    return binary if binary.is_file() else None


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json lists for this mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_layer_map():
    """Problems with perfbench/layers.json against BENCHMARK.json's
    per-layer list (the two must name the same metrics)."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return []
    listed = [m["name"] for m in json.loads(spec_path.read_text())["per_layer"]]
    mapped = [m["name"] for m in
              json.loads((HERE / "layers.json").read_text())["per_layer"]]
    problems = [f"layers.json lacks per-layer metric {n}"
                for n in listed if n not in mapped]
    problems += [f"layers.json maps {n}, not in BENCHMARK.json"
                 for n in mapped if n not in listed]
    if len(set(mapped)) != len(mapped):
        problems.append("layers.json names a metric twice")
    return problems


def check_result(result, trace):
    """Returns a list of problems with the result line."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    want = expected_metrics(trace)
    if want is None:
        return problems
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append(f"metric {name} in {got[name]}, listed in "
                            f"{want[name]}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    problems = check_layer_map()
    if problems:
        for p in problems:
            log(p)
        return 1
    binary = build()
    if binary is None:
        return 1

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(RESULTS / f"{stem}.trace.json")]
    try:
        proc = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                   stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1

    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        info = json.loads(lines[-2]) if len(lines) >= 2 else {}
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        log(f"no result from the benchmark (exit {proc.returncode}): {e}")
        return 1
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            log(p)
        return 1

    record = dict(info, result=result, command=cmd[1:])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
