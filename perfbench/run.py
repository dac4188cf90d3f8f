"""vadkit benchmark: whole commands through `vadkit.cli.main`, seeded inputs.

    python3 perfbench/run.py --workload detect-long --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  detect-long    `detect --threshold 12` on a 60 s stereo PCM16 44.1 kHz WAV
  sweep-corpus   `sweep --jobs 1` over the seeded 13-clip corpus, 5 windows x 28 thresholds
  repro-figures  `repro-figures --seed <seed>` into a fresh directory per op

The run sets the workload up three times, each time in a fresh child process
(import, input generation from the seed, one checked warm-up op); the last
child then runs ops in a closed loop for --seconds. Every op's output is
checked. The last line of stdout is one JSON object with correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. The line before it is the full report
(tail percentile and sample count, run metadata, input digests, every span
total), also written under .perfbench_out/results/ with the span file of a
traced run.

Per-layer figures are per op, the median over the traced ops. With
--trace 1, ops alternate untraced and traced, and trace.overhead_s is the
traced median op time minus the untraced one. No layer queues work, so no
wait time is reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # setup_s is the median of this many set-ups, each in its own process
DEADLINE_S = 170.0  # the whole run, set-ups included, ends within this
# numpy's BLAS would otherwise start worker threads for the resampler's matmuls.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10  # the tail has this many samples beyond it once a run has 4x as many ops


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the tail op time.

    The highest percentile with TAIL_BEYOND samples beyond it. A run of fewer
    than 4 * TAIL_BEYOND ops keeps a quarter of its samples beyond the tail
    instead, so the tail never drops below the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - min(TAIL_BEYOND, n // 4)
    return ordered[k - 1], 100.0 * k / n, n - k


def tree_sha256(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        if "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_child(cfg: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the next child process")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env={**os.environ, **SINGLE_THREAD}, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        check=True, timeout=remaining,
    )
    with open(cfg["result"]) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    src = ROOT / "src"
    if not (src / "vadkit" / "__init__.py").is_file():
        print(f"error: no vadkit sources under {src}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / "work" / f"{tag}-{os.getpid()}"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    deadline = start + DEADLINE_S
    children = []
    try:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            workdir = work / f"setup{i}"
            cfg = {
                "src": str(src), "workdir": str(workdir), "workload": args.workload,
                "size": args.size, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "setup_only": not last, "result": str(workdir / "result.json"),
                "spans": str(results / f"{tag}.spans.jsonl"),
            }
            os.makedirs(workdir)
            children.append(run_child(cfg, deadline))
    except (subprocess.SubprocessError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = children[-1]
    problems = [p for c in children for p in c["problems"]]
    if any(c["inputs"] != measured["inputs"] for c in children):
        problems.append("the same seed generated different inputs in different processes")
    ops = measured["ops"]
    attempted = len(children) + len(ops)
    failed = sum(not c["warmup_ok"] for c in children) + sum(not o["ok"] for o in ops)

    untraced = [o["wall_s"] for o in ops if not o["traced"]]
    audio_s = measured["inputs"]["audio_s_per_op"]
    tail_s, tail_pct, tail_beyond = tail(untraced)
    e2e = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "op_p50_s": statistics.median(untraced),
        "op_tail_s": tail_s,
        "audio_s_per_s": audio_s * len(untraced) / sum(untraced),
        "cpu_s_per_op": statistics.median(o["cpu_s"] for o in ops if not o["traced"]),
        "peak_rss_mb": measured["peak_rss_mb"],
        "success_ratio": (attempted - failed) / attempted,
    }
    layers = {}
    if args.trace:
        traced = [o["wall_s"] for o in ops if o["traced"]]
        layers = dict(measured["per_op_layers"])
        layers["trace.op_p50_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = layers["trace.op_p50_s"] - e2e["op_p50_s"]

    def with_units(kind: str, values: dict) -> dict:
        return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    e2e_metrics = with_units("end_to_end", e2e)
    layer_metrics = with_units("per_layer", layers) if args.trace else {}
    metrics = layer_metrics if args.trace else e2e_metrics

    report = {
        "meta": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "git_commit": git_commit(),
            "src_sha256": tree_sha256(src, "*.py"), "bench_sha256": tree_sha256(HERE, "*.py"),
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), **measured["versions"],
            "closed_loop": "one client; each op starts after the previous one returned and was checked",
            "child_env": SINGLE_THREAD,
        },
        "inputs": measured["inputs"],
        "ops": {"measured": len(ops), "wall_s": [o["wall_s"] for o in ops], "traced": [o["traced"] for o in ops],
                "warmup_s": [c["warmup_op_s"] for c in children]},
        "tail": {"percentile": tail_pct, "samples": len(untraced), "samples_beyond": tail_beyond},
        "setup_s_each": [c["setup_s"] for c in children],
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
        "end_to_end": e2e_metrics,
        "per_layer": layer_metrics,
        "all_layer_figures": layers,
        "expected_effect": spans.EXPECTED_EFFECT if args.trace else None,
        "wait_time": "not reported: no layer queues work",
        "computed": "flops and bytes_moved are computed from array sizes, not measured",
        "spans_path": str((results / f"{tag}.spans.jsonl").relative_to(ROOT)) if args.trace else None,
    }
    (results / f"{tag}.report.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, m in {**e2e_metrics, **layer_metrics}.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
