"""Time single ops of one workload on two checkouts in lockstep and summarize the per-op ratios.

    python3 tools/bench_lockstep.py PARENT CHANGE WORKLOAD OPS [--seed N] [--json PATH]

PARENT and CHANGE are checkouts of the repository. The tool first removes
every `__pycache__` directory from both, as `bench_pairs.py` does. It then
starts one persistent worker process per checkout, each importing its own
`src` and the workload of its own `perfbench/workloads.py`, with one BLAS
thread as perfbench runs. Each worker runs the workload's `prepare` on the
same seed in a directory of its own, and the tool refuses to go on if the
two sides' input digests differ. After one warm-up op a side, it runs
single ops a side, alternating the parent first and the change first, and
the workload's own `check` checks every op; a failed op stops the run. A
pair of workers serves BLOCK_OPS ops a side; the next block starts a new
pair, in the other order, until OPS ops a side have run.

For CPU time (the worker's process time) and wall time, it reports the
median of the per-op ratios change / parent, their quartiles (linear
interpolation), a 95% bootstrap interval of the median (2,000 resamples,
seeded) and the median of each run of BLOCK_MEDIAN_OPS consecutive ops, whose
spread shows drift that the interval alone hides. A ratio below 1 means the
change is faster. --json writes the same figures, with every op's times, to
PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import _percentile, clear_bytecode  # noqa: E402

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RESAMPLES = 2000
# Ops a side per pair of workers. Each block starts fresh workers, the parent's first in even blocks and the
# change's first in odd ones: with one pair for the whole run on a 2-core host, the worker started second ran
# detect-long 1-3% slower whichever tree it held (a tree against itself read 1.010-1.028 over 200 ops).
BLOCK_OPS = 50
BLOCK_MEDIAN_OPS = 20  # ops per block median; the last block holds the rest


def summarize(ratios: list[float], resamples: int = RESAMPLES, seed: int = 0) -> dict:
    """Median, quartiles and a bootstrap 95% interval of the median of per-op ratios."""
    ordered = sorted(ratios)
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ordered, k=len(ordered))) for _ in range(resamples))
    return {
        "median": statistics.median(ordered),
        "q1": _percentile(ordered, 0.25),
        "q3": _percentile(ordered, 0.75),
        "ci95": [_percentile(medians, 0.025), _percentile(medians, 0.975)],
        "n": len(ordered),
    }


def block_medians(ratios: list[float]) -> list[float]:
    """The median of each run of BLOCK_MEDIAN_OPS consecutive ratios, in op order; the last run may be shorter."""
    return [statistics.median(ratios[i : i + BLOCK_MEDIAN_OPS]) for i in range(0, len(ratios), BLOCK_MEDIAN_OPS)]


def worker(checkout: str, workdir: str, workload_name: str, seed: int) -> int:
    """Serve ops on stdin, one op number per line, with one JSON line each on stdout."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import vadkit
    import workloads
    from vadkit import cli

    if not os.path.abspath(vadkit.__file__).startswith(os.path.abspath(checkout) + os.sep):
        print(json.dumps({"error": f"vadkit imported from {vadkit.__file__}, not from {checkout}"}), flush=True)
        return 2
    workload = workloads.WORKLOADS[workload_name](workdir, "full")
    workload.prepare(seed)
    print(json.dumps({"inputs": workload.input_files()}), flush=True)
    for line in sys.stdin:
        op = int(line)
        argv = workload.argv(op)
        with contextlib.redirect_stdout(io.StringIO()):
            c0, t0 = time.process_time(), time.perf_counter()
            code = cli.main(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        try:
            problems = [f"vadkit {argv[0]} exited {code}"] if code else workload.check(op)
        except Exception as exc:  # a missing or unparsable output is a failed op
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        print(json.dumps({"wall_s": wall, "cpu_s": cpu, "problems": problems}), flush=True)
    return 0


class Side:
    """One checkout's worker process."""

    def __init__(self, checkout: str, workdir: str, workload: str, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", checkout, workdir, workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env={**os.environ, **SINGLE_THREAD},
        )

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def op(self, op: int) -> dict:
        self.proc.stdin.write(f"{op}\n")
        self.proc.stdin.flush()
        reply = self.reply()
        if reply["problems"]:
            raise RuntimeError(f"op {op} failed its check: {reply['problems']}")
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def run(parent: str, change: str, workload: str, ops: int, seed: int, scratch: str) -> dict:
    """Every op's times per side and the summary of their ratios."""
    checkouts = {"parent": os.path.abspath(parent), "change": os.path.abspath(change)}
    times = {"parent": [], "change": []}
    for block, first in enumerate(range(0, ops, BLOCK_OPS)):
        starts = ("parent", "change") if block % 2 == 0 else ("change", "parent")
        sides = {}
        try:
            for name in starts:
                sides[name] = Side(checkouts[name], os.path.join(scratch, f"{name}-{block}"), workload, seed)
            inputs = {name: side.reply()["inputs"] for name, side in sides.items()}
            if inputs["parent"] != inputs["change"]:
                raise RuntimeError("the two checkouts prepared different inputs from the same seed")
            for side in sides.values():
                side.op(0)  # warm-up
            for i in range(first, min(ops, first + BLOCK_OPS)):
                for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    times[name].append(sides[name].op(i + 1))
        finally:
            for name, side in sides.items():
                side.close()
                shutil.rmtree(os.path.join(scratch, f"{name}-{block}"), ignore_errors=True)
    figures = {}
    for key in ("cpu_s", "wall_s"):
        ratios = [c[key] / p[key] for p, c in zip(times["parent"], times["change"])]
        figures[key] = {**summarize(ratios), "block_medians": block_medians(ratios)}
    return {"workload": workload, "ops": ops, "seed": seed, "ratios": figures,
            "runs": {name: [{k: t[k] for k in ("cpu_s", "wall_s")} for t in ts] for name, ts in times.items()}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        checkout, workdir, workload, seed = argv[1:]
        return worker(checkout, workdir, workload, int(seed))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("workload")
    parser.add_argument("ops", type=int)
    parser.add_argument("--seed", type=int, default=0, help="the inputs' seed (default 0)")
    parser.add_argument("--json", metavar="PATH", help="also write the figures and every op's times as JSON")
    args = parser.parse_args(argv)

    for side in ("parent", "change"):
        cleared = clear_bytecode(getattr(args, side))
        if cleared:
            print(f"removed {cleared} __pycache__ directories from the {side} checkout", file=sys.stderr)
    scratch = tempfile.mkdtemp(prefix="lockstep-")
    try:
        result = run(args.parent, args.change, args.workload, args.ops, args.seed, scratch)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload}: {args.ops} ops a side in lockstep, seed {args.seed}; change / parent per op")
    for key, f in result["ratios"].items():
        low, high = f["ci95"]
        print(f"{key:6s} median {f['median']:.4f}  IQR [{f['q1']:.4f}, {f['q3']:.4f}]  95% CI [{low:.4f}, {high:.4f}]  "
              f"{BLOCK_MEDIAN_OPS}-op block medians {min(f['block_medians']):.4f} to {max(f['block_medians']):.4f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
