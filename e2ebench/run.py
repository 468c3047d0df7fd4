#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the tuning pipeline.

One run (what BENCHMARK.json's command does):

    python3 e2ebench/run.py --workload corpus_stream --seed 1 --seconds 20 --trace 0

builds the benchmark from source into .bench_build/e2ebench (build output
goes to stderr), runs one workload in a fresh process, and passes its
output through: human-readable lines, then one JSON result line. The exit
code is the benchmark's: non-zero on any verdict mismatch or build failure.

Steadiness mode runs each workload repeatedly, each run in a fresh process
with its own seed, and reports the median and quartiles of every
end-to-end metric, flagging any whose quartile spread (as a share of the
median) exceeds its bound in BENCHMARK.json. With --sets 2 it makes two
sets of runs of the same code, alternating between them run by run so that
a slow spell of the host falls on both, and also flags any metric whose
two medians differ by more than its bound:

    python3 e2ebench/run.py --steadiness [--workload W ...] [--runs 10] [--sets 2]

Self-test mode builds and runs the benchmark's own unit tests:

    python3 e2ebench/run.py --selftest
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(".bench_build", "e2ebench", "out")  # relative to ROOT
WORKLOADS = ["corpus_stream", "daemon_sessions", "phase_files"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def build(target):
    """Configure, then (re)build `target`; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", target]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"run.py: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_bench(workload, seed, seconds, trace):
    """One fresh benchmark process; returns (exit code, stdout text)."""
    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", OUT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, err.stdout or ""
    return done.returncode, done.stdout


def parse_result(stdout):
    """The JSON object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def print_set(workload, label, seeds, values, bounds, flagged):
    """Quartiles of one set's runs; flags spreads beyond the bound."""
    print(f"\n{workload}{label}: {len(seeds)} fresh-process runs, seeds "
          f"{' '.join(map(str, seeds))}")
    print(f"  {'metric':<24}{'q1':>14}{'median':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}")
    medians = {}
    for name, bound in bounds.items():
        vals = values.get(name, [])
        if len(vals) < 2:
            print(f"  {name:<24} missing")
            flagged.append(f"{workload}:{name}")
            continue
        q1, med, q3, spread = quartile_spread(vals)
        medians[name] = med
        flag = ""
        if spread > bound:
            flag = "  FLAG: spread exceeds bound"
            flagged.append(f"{workload}{label}:{name}")
        elif spread > bound / 3:
            flag = "  (above a third of the bound)"
        print(f"  {name:<24}{q1:>14.6g}{med:>14.6g}{q3:>14.6g}"
              f"{100 * spread:>8.2f}%{100 * bound:>6.0f}%{flag}")
    return medians


def steadiness(workloads, runs, sets, first_seed, seconds):
    bounds = load_bounds()
    flagged = []
    for workload in workloads:
        values = [{} for _ in range(sets)]
        seeds = [[] for _ in range(sets)]
        for k in range(runs):
            for s in range(sets):
                seed = first_seed + s * runs + k
                seeds[s].append(seed)
                code, stdout = run_bench(workload, seed, seconds, trace=False)
                result = parse_result(stdout)
                if code != 0 or result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: run failed (exit {code})")
                    flagged.append(f"{workload}:run")
                    continue
                for name, metric in result["metrics"].items():
                    values[s].setdefault(name, []).append(metric["value"])
                print(f"{workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.6g}"
                    for n, m in result["metrics"].items()), flush=True)
        medians = [print_set(workload, f" set {s + 1}" if sets > 1 else "",
                             seeds[s], values[s], bounds, flagged)
                   for s in range(sets)]
        for s in range(1, sets):
            print(f"  set {s + 1} vs set 1 medians:")
            for name, bound in bounds.items():
                if name not in medians[0] or name not in medians[s]:
                    continue
                m1, m2 = medians[0][name], medians[s][name]
                diff = (m2 - m1) / m1 if m1 else float("inf")
                flag = ""
                if abs(diff) > bound:
                    flag = "  FLAG: sets differ by more than the bound"
                    flagged.append(f"{workload}:sets:{name}")
                print(f"    {name:<24}{100 * diff:>+8.2f}%"
                      f"{100 * bound:>6.0f}%{flag}")
        print()
    if flagged:
        print("flagged: " + ", ".join(flagged))
        return 1
    print("every end-to-end spread is within its bound")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("e2ebench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "e2ebench_tests")],
                              cwd=BUILD).returncode

    if not build("e2ebench"):
        return 1
    if args.steadiness:
        return steadiness(args.workload or WORKLOADS, args.runs, args.sets,
                          args.seed, args.seconds)

    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    code, stdout = run_bench(args.workload[0], args.seed, args.seconds,
                              args.trace == 1)
    sys.stdout.write(stdout)
    if parse_result(stdout) is None:
        print("run.py: the benchmark printed no result line", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
