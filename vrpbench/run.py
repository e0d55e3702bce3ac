#!/usr/bin/env python3
"""Builds the vrpbench harness from source and runs its workloads.

README.md in this directory describes the workloads and metrics.

One run; the last line of stdout is the result JSON:
    python3 vrpbench/run.py --workload module_cold --seed 3 --seconds 20 --trace 0
Every workload (or the named ones), an end-to-end run and a traced run
per seed, with a summary; --out keeps every result for --agree and
appends to an existing file of the same commit and build:
    python3 vrpbench/run.py [--workload W]... [--runs N] [--seed N] [--out FILE]
Harness self-check, every workload on tiny inputs:
    python3 vrpbench/run.py --smoke
Compare two sets of runs; exit 1 when a metric is outside its bound:
    python3 vrpbench/run.py --agree A.json B.json

The build goes to $CARGO_TARGET_DIR/vrpbench (default .bench_build/vrpbench),
as do each run's scratch files and span files.
"""

import argparse
import contextlib
import fcntl
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite_eval", "module_cold", "module_incremental", "serve_mixed"]
TIME_UNITS = {"ms", "s"}
# Runs are comparable only when these stamp fields agree.
STAMP_KEYS = ("host", "cpu", "nproc", "compiler", "build")
# A run must end within 180 s; the harness itself stops at --seconds plus
# its set-up and checks, so this only catches a hung run.
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "vrpbench")


def build():
    """Configures and builds the harness; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", out] + gen,
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--target", "vrpbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "vrpbench")


def git_commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def make_stamp(binary):
    stamp = json.loads(subprocess.run([binary, "--stamp"], capture_output=True,
                                      text=True, check=True).stdout)
    stamp.update(host=platform.node(), cpu=cpu_model(), commit=git_commit())
    return stamp


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the harness once; returns (result dict or None, exit code,
    stdout lines)."""
    work = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    args = [binary, "--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%g" % seconds,
            "--workdir=" + os.path.relpath(work, ROOT)]
    if trace:
        args.append("--trace")
    if smoke:
        args.append("--smoke")
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        out += "TIMEOUT after %d s\n" % RUN_TIMEOUT_S
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    for name in os.listdir(work):
        if name.startswith("trace-"):
            os.replace(os.path.join(work, name),
                       os.path.join(traces, "%s-seed%d.json" % (workload, seed)))
    shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return result, proc.returncode, lines


def check_names(result, spec, trace):
    """The metric names a run reports must be exactly BENCHMARK.json's."""
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        return "metrics %s differ from BENCHMARK.json %s" % (got, want)
    return None


def problem_of(result, spec, trace):
    """Why a run's result is not acceptable, or None."""
    if result is None:
        return "no result"
    if not result["correct"] or result["failed"]:
        return "failed %d of %d" % (result["failed"], result["attempted"])
    return check_names(result, spec, trace)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def single(args, binary, spec):
    print("stamp: " + json.dumps(make_stamp(binary)))
    sys.stdout.flush()
    result, code, lines = run_once(binary, args.workload[0], args.seed,
                                   args.seconds, args.trace)
    problem = result and check_names(result, spec, args.trace)
    if problem:
        print(problem, file=sys.stderr)
        code = code or 1
    print("\n".join(lines))
    return code


def summarize(runs):
    """Median and quartiles of every metric over the runs, per workload;
    printed, and returned as {workload: {metric: {...}}}."""
    rows = {}
    for r in runs:
        if not r["result"]:
            continue
        for name, m in r["result"]["metrics"].items():
            rows.setdefault((r["workload"], name, m["unit"]), []).append(
                m["value"])
    summary = {}
    print("\n%-19s %-26s %14s %14s %14s %8s" %
          ("workload", "metric", "q1", "median", "q3", "iqr/med"))
    for (workload, name, unit), values in rows.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        print("%-19s %-26s %14.6g %14.6g %14.6g %7.1f%% %s (n=%d)" %
              (workload, name, q1, med, q3, 100 * spread, unit, len(values)))
        summary.setdefault(workload, {})[name] = {
            "median": med, "q1": q1, "q3": q3, "unit": unit,
            "n": len(values)}
    return summary


def write_runs(path, stamp, summary, runs):
    """The --out file: stamp, summary, then one run per line."""
    with open(path, "w") as f:
        f.write('{"stamp": %s,\n"summary": %s,\n"runs": [\n' %
                (json.dumps(stamp), json.dumps(summary)))
        f.write(",\n".join(json.dumps(r) for r in runs))
        f.write("\n]}\n")


def batch(args, binary, spec):
    stamp = make_stamp(binary)
    print("stamp: " + json.dumps(stamp))
    traces = [args.trace] if args.trace is not None else [0, 1]
    runs, bad = [], 0
    for workload in args.workload or WORKLOADS:
        for i in range(args.runs):
            for trace in traces:
                seed = args.seed + i
                result, code, lines = run_once(binary, workload, seed,
                                               args.seconds, trace)
                problem = problem_of(result, spec, trace)
                if problem or code != 0:
                    bad += 1
                    print("\n".join(lines[:-1]))
                print("%s seed=%d trace=%d: %s" %
                      (workload, seed, trace, problem or "ok, 0 failed of %d"
                       % result["attempted"]))
                sys.stdout.flush()
                runs.append({"workload": workload, "seed": seed,
                             "trace": trace, "seconds": args.seconds,
                             "result": result})
    summary = summarize(runs)
    if args.out:
        if os.path.exists(args.out):
            # Appending: a file collects the runs of one commit and build.
            with open(args.out) as f:
                old = json.load(f)
            differs = [k for k in STAMP_KEYS + ("commit",)
                       if old["stamp"].get(k) != stamp.get(k)]
            if differs:
                print("not appending to %s: %s differ" %
                      (args.out, ", ".join(differs)))
                return 2
            runs = old["runs"] + runs
            with contextlib.redirect_stdout(io.StringIO()):
                summary = summarize(runs)
        write_runs(args.out, stamp, summary, runs)
    return 1 if bad else 0


def smoke(binary, spec):
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, code, lines = run_once(binary, workload, 1, 1, trace,
                                           smoke=True)
            problem = problem_of(result, spec, trace)
            if problem or code != 0:
                bad += 1
                print("\n".join(lines))
            print("smoke %s trace=%d: %s" % (workload, trace,
                                             problem or "ok"))
    return 1 if bad else 0


def agree(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for key in STAMP_KEYS:
        if a["stamp"].get(key) != b["stamp"].get(key):
            print("refusing to compare: %s differs (%r vs %r)" %
                  (key, a["stamp"].get(key), b["stamp"].get(key)))
            return 2

    def values(data, workload, trace, name):
        return [r["result"]["metrics"][name]["value"] for r in data["runs"]
                if r["result"] and r["workload"] == workload
                and r["trace"] == trace and name in r["result"]["metrics"]]

    ok = True
    workloads = [w for w in WORKLOADS
                 if any(r["workload"] == w for r in a["runs"])
                 and any(r["workload"] == w for r in b["runs"])]
    print("%-19s %-18s %24s %24s %8s %6s" %
          ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "worse", "bound"))
    for workload in workloads:
        for m in spec["end_to_end"]:
            va = values(a, workload, 0, m["name"])
            vb = values(b, workload, 0, m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if m["better"] == "lower" else -change
            verdict = "ok" if worse <= m["bound"] else "OUTSIDE"
            ok = ok and verdict == "ok"
            print("%-19s %-18s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] "
                  "%+7.1f%% %5.0f%% %s" %
                  (workload, m["name"], qa[1], qa[0], qa[2], qb[1], qb[0],
                   qb[2], 100 * worse, 100 * m["bound"], verdict))
        # Counts and ratios are functions of the inputs: runs with the same
        # seed must report them exactly.
        for m in spec["per_layer"]:
            if m["unit"] in TIME_UNITS:
                continue
            for ra in a["runs"]:
                if (ra["workload"] != workload or ra["trace"] != 1
                        or not ra["result"]):
                    continue
                for rb in b["runs"]:
                    if (rb["workload"] == workload and rb["trace"] == 1
                            and rb["seed"] == ra["seed"] and rb["result"]):
                        x = ra["result"]["metrics"][m["name"]]["value"]
                        y = rb["result"]["metrics"][m["name"]]["value"]
                        if x != y:
                            ok = False
                            print("%-19s %-26s seed %d: %r vs %r DIFFERS" %
                                  (workload, m["name"], ra["seed"], x, y))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--runs", type=int)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    spec = load_spec()
    if args.agree:
        return agree(args.agree[0], args.agree[1], spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("vrpbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary, spec)
    if (args.workload and len(args.workload) == 1 and args.runs is None
            and args.out is None and args.trace is not None):
        return single(args, binary, spec)
    args.runs = args.runs or 1
    return batch(args, binary, spec)


if __name__ == "__main__":
    sys.exit(main())
