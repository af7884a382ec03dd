#!/usr/bin/env python3
"""Paired, interleaved A/B of qobench between a git ref and the working tree.

    python3 scripts/ab.py <parent-ref> --workload offline --seeds 2022,7 \\
        --pairs 10 --seconds 15 [--trace]

Builds a Release qobench for <parent-ref> (from a `git worktree` under
.bench_build/ab/, reused while it sits at the same commit) and one for the
working tree, each by the `build()` of that checkout's own
bench/qobench/run.py, as the benchmark builds it; then runs `qobench --workload W --seed S --seconds X` for both
in alternating order, `--pairs` times per seed (the first build to run
alternates, so drift of the host hits both sides alike). Any run whose result
line says `correct: false`, or that fails calls, stops the A/B with exit 1.

For each seed and each end-to-end metric of BENCHMARK.json it prints both
medians and quartiles, the median paired delta, the change's wins (pairs in
which it was better), the parent's spread (Q3 - Q1) / median against the
metric's bound, and a verdict:

    unresolved  the parent's spread exceeds the bound and the two sides'
                runs overlap: these runs cannot tell
    regress     the change's median is worse than the parent's by more than
                the bound
    win         the change won at least 90% of the pairs and its median is
                better by more than the parent's spread, or the parent's
                spread exceeds the bound but every change run reads better
                than every parent run
    flat        anything else

A metric whose parent spread exceeds its bound is still resolved when the
sides do not overlap (every change run better, or every one worse, than every
parent run); it is then judged by the regress and win rules above.

With --trace it also runs one traced pair (`qobench --trace`) for the first
seed and prints every per-layer row of both. The counts, the ratios and
pipeline.pnhours_saved_pct must be equal (exit 1 otherwise); timing rows get
their relative change. Uses only the standard library; reads BENCHMARK.json
and never writes it.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, ".bench_build", "ab")
# Per-layer rows that repeat exactly for a seed on identical work, besides
# the counts and the *_ratio rows.
EXACT_ROWS = {"pipeline.pnhours_saved_pct"}
NAN = float("nan")


def git(*args, cwd=ROOT):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def build_qobench(source):
    """Builds qobench with `source`'s own bench/qobench/run.py; its path."""
    run_py = os.path.join(source, "bench", "qobench", "run.py")
    spec = importlib.util.spec_from_file_location("qobench_run", run_py)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    binary = module.build()
    if binary is None:
        sys.exit("ab.py: building qobench from %s failed" % source)
    return binary


def parent_source(ref):
    """A worktree of `ref` under .bench_build/ab/, created or reused."""
    sha = git("rev-parse", "--verify", ref + "^{commit}")
    path = os.path.join(AB_DIR, "src-" + sha[:12])
    if not os.path.exists(path):
        os.makedirs(AB_DIR, exist_ok=True)
        git("worktree", "add", "--detach", path, sha)
    elif git("rev-parse", "HEAD", cwd=path) != sha:
        sys.exit("ab.py: %s is not at %s; remove it (git worktree remove)"
                 % (path, sha))
    return sha, path


def run_qobench(binary, workload, seed, seconds, trace_path=None):
    """One qobench run; returns its parsed result line."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    if trace_path:
        command += ["--trace", trace_path]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("ab.py: %s printed no result line" % binary)
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("ab.py: %s seed %d: correct=%s, %s of %s calls failed"
                 % (binary, seed, result.get("correct"), result.get("failed"),
                    result.get("attempted")))
    # qobench writes a metric it could not compute as null.
    return {name: NAN if m["value"] is None else m["value"]
            for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(metric, change, parent):
    return change > parent if metric["better"] == "higher" else change < parent


def separated(metric, winner, loser):
    """True when every run in `winner` reads better than every one in `loser`."""
    if metric["better"] == "higher":
        return min(winner) > max(loser)
    return max(winner) < min(loser)


def summarize(metric, parent, change):
    """One table row for a metric's paired samples."""
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    deltas = [c / p - 1.0 for p, c in zip(parent, change) if p]
    delta = statistics.median(deltas) if deltas else float("nan")
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    gap = (c_med - p_med) / p_med if p_med else 0.0
    if metric["better"] == "lower":
        gap = -gap  # positive gap = the change is better
    noisy = spread > bound
    if noisy and not (separated(metric, change, parent) or
                      separated(metric, parent, change)):
        verdict = "unresolved"
    elif gap < -bound:
        verdict = "regress"
    elif wins >= 0.9 * len(parent) and (gap > spread or noisy):
        verdict = "win"  # noisy here means every change run was better
    else:
        verdict = "flat"
    return ("%-15s %12.4g [%10.4g %10.4g] %12.4g [%10.4g %10.4g] %+8.1f%% "
            "%3d/%-3d %6.1f%% / %3.0f%%  %s"
            % (metric["name"], p_med, p_q1, p_q3, c_med, c_q1, c_q3,
               100.0 * delta, wins, len(parent), 100.0 * spread,
               100.0 * bound, verdict))


def compare_trace(per_layer, parent, change):
    """Prints every per-layer row; returns the exact rows that differ."""
    mismatched = []
    print("\n%-32s %16s %16s  %s" % ("per-layer row", "parent", "change", ""))
    for row in per_layer:
        name = row["name"]
        p, c = parent.get(name, NAN), change.get(name, NAN)
        exact = (row["unit"] == "count" or name.endswith("_ratio") or
                 name in EXACT_ROWS)
        if exact:
            same = p == c or (p != p and c != c)  # NaN on both sides
            note = "equal" if same else "MISMATCH"
            if not same:
                mismatched.append(name)
        else:
            note = "%+.1f%%" % (100.0 * (c / p - 1.0)) if p else ""
        print("%-32s %16.6g %16.6g  %s" % (name, p, c, note))
    return mismatched


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--workload", required=True,
                        choices=["offline", "serve_hot", "serve_mixed"])
    parser.add_argument("--seeds", default="2022",
                        help="comma-separated workload seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", action="store_true",
                        help="add one traced pair and diff its per-layer rows")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if args.pairs < 1 or not seeds:
        parser.error("need at least one pair and one seed")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sha, source = parent_source(args.parent_ref)
    binaries = {"parent": build_qobench(source), "change": build_qobench(ROOT)}
    print("parent %s vs working tree: %s, seconds %g, %d pairs per seed"
          % (sha[:12], args.workload, args.seconds, args.pairs))

    for seed in seeds:
        samples = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                samples[side].append(run_qobench(
                    binaries[side], args.workload, seed, args.seconds))
            print("  seed %d pair %d/%d done" % (seed, k + 1, args.pairs),
                  file=sys.stderr)
        print("\n%s seed %d: medians [Q1 Q3], median paired delta, change "
              "wins, parent spread / bound" % (args.workload, seed))
        print("%-15s %12s %23s %12s %23s %9s %7s %14s  %s"
              % ("metric", "parent", "[Q1 Q3]", "change", "[Q1 Q3]", "delta",
                 "wins", "spread / bound", "verdict"))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [run[name] for run in samples["parent"]]
            change = [run[name] for run in samples["change"]]
            print(summarize(metric, parent, change))

    if args.trace:
        traced = {}
        for side in ("parent", "change"):
            path = os.path.join(AB_DIR, "trace-%s-%s-%d.json"
                                % (side, args.workload, seeds[0]))
            traced[side] = run_qobench(binaries[side], args.workload,
                                       seeds[0], args.seconds, path)
        mismatched = compare_trace(bench["per_layer"], traced["parent"],
                                   traced["change"])
        if mismatched:
            print("\nab.py: count/ratio rows differ: " + ", ".join(mismatched))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
