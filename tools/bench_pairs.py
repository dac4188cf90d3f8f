"""Run the benchmark on two checkouts in alternating pairs and summarize each metric.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD PAIRS FIRST_SEED [--json PATH]

PARENT and CHANGE are checkouts of the repository. Pair i runs
`perfbench/run.py --workload WORKLOAD --seed FIRST_SEED+i --trace 0` once in
each, for the `run_seconds` of PARENT's BENCHMARK.json, one run at a time:
the parent first in even pairs, the change first in odd ones. Before the
first pair it removes every `__pycache__` directory from both checkouts, so
that neither side imports from bytecode the other has to compile. Besides the
benchmark's end-to-end metrics, each run records `ops`, the ops it measured,
and `minor_faults`, the minor page faults of all its processes (getrusage of
the children, set-ups included).

For each metric one line gives both sides' medians and quartiles (linear
interpolation, numpy's default percentile), the pairs the change wins and
ties, whether the median gain exceeds the parent's quartile spread, and
whether the change's median is within the metric's bound of the parent's.
--json writes the same figures, with every run, to PATH. A pair with a
failed run is left out of the figures and listed under failed_runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys

# Figures each run records besides BENCHMARK.json's end-to-end metrics; no bound applies.
EXTRA = {"ops": "higher", "minor_faults": "lower"}


def _percentile(ordered: list[float], q: float) -> float:
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _spread(runs: list[float]) -> dict:
    ordered = sorted(runs)
    return {
        "median": statistics.median(ordered),
        "q1": _percentile(ordered, 0.25),
        "q3": _percentile(ordered, 0.75),
        "n": len(ordered),
    }


def summarize(parent_runs: list[float], change_runs: list[float], better: str, bound: float | None) -> dict:
    """Compare paired runs of one metric; run i of each side forms pair i."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent_runs, change_runs)]
    parent, change = _spread(parent_runs), _spread(change_runs)
    parent_iqr = parent["q3"] - parent["q1"]
    gain = sign * (parent["median"] - change["median"])
    return {
        "better": better,
        "bound": bound,
        "parent": parent,
        "change": change,
        "change_wins": sum(g > 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "median_change_ratio": change["median"] / parent["median"] - 1.0 if parent["median"] else None,
        "parent_iqr": parent_iqr,
        "gain_beyond_parent_iqr": gain > parent_iqr,
        "within_bound": None if bound is None else -gain <= bound * abs(parent["median"]),
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
    }


def clear_bytecode(checkout: str) -> int:
    """Remove every `__pycache__` directory under checkout; returns how many there were."""
    found = []
    for dirpath, dirnames, _ in os.walk(checkout):
        if "__pycache__" in dirnames:
            dirnames.remove("__pycache__")
            found.append(os.path.join(dirpath, "__pycache__"))
    for path in found:
        shutil.rmtree(path)
    return len(found)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run: its end-to-end metrics plus ops and minor_faults, or None if it failed."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        return None
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {**values, "ops": report["ops"]["measured"], "minor_faults": faults}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("workload")
    parser.add_argument("pairs", type=int)
    parser.add_argument("first_seed", type=int)
    parser.add_argument("--json", metavar="PATH", help="also write the figures and every run as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update({name: (better, None) for name, better in EXTRA.items()})

    for side in ("parent", "change"):
        cleared = clear_bytecode(getattr(args, side))
        if cleared:
            print(f"removed {cleared} __pycache__ directories from the {side} checkout", file=sys.stderr)
    runs = {"parent": [], "change": []}
    seeds, failed = [], []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {side: run_once(getattr(args, side), args.workload, seed, seconds) for side in order}
        if None in pair.values():
            failed.append({"seed": seed, "failed": [side for side, r in pair.items() if r is None]})
            continue
        seeds.append(seed)
        for side, result in pair.items():
            runs[side].append(result)
        print(f"pair {i} (seed {seed}) done", file=sys.stderr)
    if not seeds:
        print("error: every pair had a failed run", file=sys.stderr)
        return 1

    figures = {
        name: summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]], better, bound)
        for name, (better, bound) in metrics.items()
    }
    print(f"{args.workload}: {len(seeds)} pairs, {seconds} s runs, seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  wins ties  beyond_iqr  within_bound")
    for name, f in figures.items():
        p, c = f["parent"], f["change"]
        print(
            f"{name:16s} {p['median']:>12.6g} [{p['q1']:.6g}, {p['q3']:.6g}] {c['median']:>12.6g} "
            f"[{c['q1']:.6g}, {c['q3']:.6g}]  {f['change_wins']:4d} {f['ties']:4d}  "
            f"{str(f['gain_beyond_parent_iqr']):10s}  {f['within_bound']}"
        )
    if failed:
        print(f"failed runs: {failed}")
    if args.json:
        payload = {"workload": args.workload, "run_seconds": seconds, "pairs": len(seeds), "seeds": seeds,
                   "failed_runs": failed, "metrics": figures}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
