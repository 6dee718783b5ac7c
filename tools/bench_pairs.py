#!/usr/bin/env python3
"""Benchmark a revision against the working tree in alternating pairs of runs:

    python3 tools/bench_pairs.py REV WORKLOAD PAIRS [--seconds S] [--first-seed F] [--trace]

Extracts REV's src/ with `git archive`, as tools/same_outputs.sh does, and
the working tree's src/ with a copy, each into its own temporary directory,
and copies the working tree's perfbench/ and BENCHMARK.json beside both, so
the two sides run identical benchmark code.  Pair i (F to F + PAIRS - 1,
F = 1 by default) runs BENCHMARK.json's command with `--workload WORKLOAD
--seed i --seconds S` on both sides, REV first when i is odd and the working
tree first when it is even.  S defaults to BENCHMARK.json's `run_seconds`;
a fresh F checks a claim on seeds not used while the change was written.

For each end-to-end metric in BENCHMARK.json (each per-layer one with
--trace, which runs `--trace 1`), it prints each side's median and
quartiles and in how many pairs the working tree was better (by the
metric's `better`), then each side's failed/attempted summed over its
runs.  It exits 1 if any run is not `correct` or prints no result, and
2 on a usage error.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("rev", "tree")


def quartiles(values):
    """(lower quartile, median, upper quartile), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metrics, results):
    """The report lines and whether every run was correct.

    ``metrics`` is a BENCHMARK.json metric list; ``results`` maps each side
    to its runs' result objects, pair by pair, as ``perfbench/run.py``
    prints them on its last line.
    """
    pairs = len(results["rev"])
    lines = [f"{'metric':<36} {'rev median [q1, q3]':>32} {'tree median [q1, q3]':>32} "
             f"{'tree better':>11}"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["metrics"][name]["value"] for run in results[side]] for side in SIDES}
        wins = sum((b < a) if lower else (b > a) for a, b in zip(values["rev"], values["tree"]))
        cells = []
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        lines.append(f"{name:<36} {cells[0]:>32} {cells[1]:>32} {f'{wins}/{pairs}':>11}")
    shares = [(sum(r["failed"] for r in results[s]), sum(r["attempted"] for r in results[s]))
              for s in SIDES]
    lines.append("failed/attempted: " + ", ".join(
        f"{side} {failed}/{attempted}" for side, (failed, attempted) in zip(SIDES, shares)
    ))
    correct = all(run["correct"] for side in SIDES for run in results[side])
    if not correct:
        lines.append("not correct: " + ", ".join(
            f"{side} pair {i}" for side in SIDES
            for i, run in enumerate(results[side], 1) if not run["correct"]
        ))
    return lines, correct


def prepare(rev, where: Path):
    """Lay out REV's source and the working tree's, each beside the working tree's benchmark."""
    sides = {side: where / side for side in SIDES}
    sides["rev"].mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["rev"])], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "perfbench-out")
    shutil.copytree(ROOT / "src", sides["tree"] / "src", ignore=ignore)
    for side in sides.values():
        shutil.copytree(ROOT / "perfbench", side / "perfbench", ignore=ignore)
        shutil.copy2(ROOT / "BENCHMARK.json", side / "BENCHMARK.json")
    return sides


def run_once(command, cwd: Path, workload, seed, seconds, trace):
    """One benchmark run's result object, or None when it prints none."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    done = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0 or done.stderr.strip():
        print(f"{cwd.name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("PAIRS must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    metrics = benchmark["per_layer" if args.trace else "end_to_end"]

    results = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        sides = prepare(args.rev, Path(tmp))
        for seed in range(args.first_seed, args.first_seed + args.pairs):
            for side in SIDES if seed % 2 else SIDES[::-1]:
                result = run_once(benchmark["command"], sides[side], args.workload, seed,
                                  seconds, args.trace)
                if result is None:
                    print(f"{side} pair {seed}: no result", file=sys.stderr)
                    return 1
                results[side].append(result)
    lines, correct = summarize(metrics, results)
    print(f"{args.workload}: {args.rev} (rev) against the working tree (tree), "
          f"{args.pairs} pairs of {seconds:g} s runs, seeds {args.first_seed} to "
          f"{args.first_seed + args.pairs - 1}")
    print("\n".join(lines))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
