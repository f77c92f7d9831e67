#!/usr/bin/env python3
"""Builds the GRFusion benchmark harness, runs one workload and reports it.

    python3 perfbench/run.py --workload serve|traverse|export --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # tiny-scale self-test

The harness (perfbench/*.cc) is compiled together with the engine sources
under src/ into $CARGO_TARGET_DIR (default .bench_build) at the checkout
root. One run prints one line per metric and, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. The full report, with sample counts, the host header,
the workload's reason and the per-layer map, goes to
<build dir>/results/<workload>-seed<N>-trace<T>.json; a traced run also
leaves its spans next to it.

Exit status: 0 when every answer matched its reference; 1 when an answer
was wrong or an operation failed (the JSON line is still printed); 2 when
the harness could not be built or run, or its output does not match
BENCHMARK.json (nothing is printed on stdout).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env():
    """Keeps compiler and harness scratch files inside the build tree."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", out, "--target", "grfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log,
                              env=child_env()).returncode != 0:
                # A failed configure must not leave a cache that skips it.
                shutil.rmtree(os.path.join(out, "CMakeFiles"),
                              ignore_errors=True)
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return os.path.join(out, "grfbench")


def host_header(report, seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # The ceiling keeps git from searching above the checkout.
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "build_type": BUILD_TYPE,
        "git_sha": sha,
        "scale": float(report.get("notes", {}).get("scale", "nan")),
        "seed": seed,
    }


def cpu_times():
    """The host's aggregate CPU counters from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return [int(x) for x in fields[1:]]
    except (OSError, ValueError, IndexError):
        return None


def steal_frac(before, after):
    """Share of CPU time the hypervisor gave to other guests in between:
    runs with a high share ran in a noisy spell."""
    if before is None or after is None or len(before) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """Runs the harness once; returns its parsed report and exit code."""
    work = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    cpu_before = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    steal = steal_frac(cpu_before, cpu_times())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} exited with {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload} printed no report")
    report.setdefault("notes", {})["steal_frac"] = steal
    spans = os.path.join(work, f"spans-{workload}.jsonl")
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    if os.path.exists(spans):
        kept = os.path.join(
            results, f"{workload}-seed{seed}-trace{int(trace)}.spans.jsonl")
        shutil.move(spans, kept)
        report.setdefault("notes", {})["spans_file"] = kept
    shutil.rmtree(work, ignore_errors=True)
    return report, proc.returncode


def check_report(report, spec, layer_map, workload, trace):
    """The report must carry every listed metric with its unit and a sample
    count. A per-layer metric may be absent only on a workload that
    layers.json lists under its "bypass"; it then reads 0 with n = 0."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = report["metrics"]
    problems = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if trace and workload in layer_map[m["name"]].get("bypass", []):
                metrics[m["name"]] = {"value": 0, "unit": m["unit"], "n": 0}
            else:
                problems.append(f"{m['name']} missing")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']} has unit {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        elif got.get("n", 0) < 1:
            problems.append(f"{m['name']} has no samples")
        elif got["value"] is None:
            problems.append(f"{m['name']} is not a number")
    if report.get("attempted", 0) < 1:
        problems.append("no operation attempted")
    if problems:
        raise BenchError("report does not match BENCHMARK.json: " +
                         "; ".join(problems))
    return {m["name"]: metrics[m["name"]] for m in wanted}


def write_result(report, spec, layer_map, workload, seed, trace):
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    result = {
        "host": host_header(report, seed),
        "workload": workload,
        "why": why.get(workload, ""),
        "trace": bool(trace),
        "correct": report["mismatches"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
        "notes": report.get("notes", {}),
        "errors": report.get("errors", []),
        "layer_map": layer_map,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(build_dir(), "results",
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return path


def load_layer_map(spec):
    with open(os.path.join(HERE, "layers.json")) as f:
        layer_map = json.load(f)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layer_map]
    if missing:
        raise BenchError("layers.json lacks " + ", ".join(missing))
    return layer_map


def one_run(args, spec, layer_map, binary):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
    report, code = run_workload(binary, args.workload, args.seed,
                                args.seconds, args.trace, smoke=False)
    metrics = check_report(report, spec, layer_map, args.workload,
                           args.trace)
    path = write_result(report, spec, layer_map, args.workload, args.seed,
                        args.trace)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
              f"(n={m['n']})")
    print(f"result file: {path}")
    correct = report["mismatches"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }))
    return 0 if correct and code == 0 else 1


def smoke(spec, layer_map, binary):
    """Every workload at tiny scale, untraced and traced, checked against
    BENCHMARK.json: the benchmark's own test."""
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            report, code = run_workload(binary, w["name"], 1, 1, trace,
                                        smoke=True)
            try:
                check_report(report, spec, layer_map, w["name"], trace)
                ok = code == 0 and report["mismatches"] == 0
            except BenchError as e:
                print(f"smoke {w['name']} trace={trace}: {e}")
                ok = False
            print(f"smoke {w['name']} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"({report['attempted']} attempted, {report['failed']} "
                  f"failed)")
            failures += not ok
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        layer_map = load_layer_map(spec)
        binary = build()
        if args.smoke:
            return smoke(spec, layer_map, binary)
        if args.workload is None:
            raise BenchError("--workload is required")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return one_run(args, spec, layer_map, binary)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
