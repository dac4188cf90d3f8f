"""One workload in one process: set up, then (unless only setting up) measure.

Run by run.py, never by hand. argv[1] is a JSON object with the keys src,
workdir, workload, size, seed, seconds, trace, setup_only, result and spans. The
process starts no threads or pools, so its getrusage peak memory belongs to
this workload alone. Ops run in a closed loop: one client, each command
starts after the previous one returned and was checked.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_op(cli, workload, op: int) -> tuple[float, float, list[str]]:
    argv = workload.argv(op)
    c0 = _cpu_s()
    t0 = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - c0
    if rc != 0:
        return wall, cpu, [f"vadkit {argv[0]} exited {rc}"]
    try:
        problems = workload.check(op)
    except Exception as exc:  # a missing or unparsable output is a failed op
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return wall, cpu, problems


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    import numpy

    import vadkit
    from vadkit import _kernels, cli

    if not os.path.abspath(vadkit.__file__).startswith(os.path.abspath(cfg["src"]) + os.sep):
        print(f"vadkit imported from {vadkit.__file__}, not from {cfg['src']}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workload = workloads.WORKLOADS[cfg["workload"]](cfg["workdir"], cfg["size"])
    workload.prepare(cfg["seed"])
    warm_wall, _, warm_problems = _run_op(cli, workload, 0)
    setup_s = time.perf_counter() - _T0

    result = {
        "setup_s": setup_s,
        "warmup_op_s": warm_wall,
        "warmup_ok": not warm_problems,
        "problems": [f"warm-up: {p}" for p in warm_problems],
        "ops": [],
        "inputs": {"files": workload.input_files(), "audio_s_per_op": workload.audio_s},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "vadkit": vadkit.__version__,
            "vadkit_backend": _kernels.BACKEND,
        },
    }
    if not cfg["setup_only"]:
        tracer = spans.Tracer() if cfg["trace"] else None
        summaries = []
        deadline = time.perf_counter() + cfg["seconds"]
        op = 1
        while True:
            # With tracing on, ops alternate untraced and traced so the two
            # medians see the same machine conditions.
            traced = tracer is not None and op % 2 == 0
            if traced:
                tracer.install(op)
            try:
                wall, cpu, problems = _run_op(cli, workload, op)
            finally:
                if traced:
                    tracer.uninstall()
            result["ops"].append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "ok": not problems})
            result["problems"] += [f"op {op}: {p}" for p in problems]
            if traced:
                summaries.append(tracer.op_summary(op, wall))
            op += 1
            if time.perf_counter() >= deadline and (tracer is None or op > 2):
                break
        if tracer is not None:
            result["per_op_layers"] = spans.median_summary(summaries)
            tracer.write(cfg["spans"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
