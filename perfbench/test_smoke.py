"""Smoke test of the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from vadkit import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert report["fail_ratio"] == 0
    for kind, got in (("per_layer", result["metrics"]), ("end_to_end", report["end_to_end"])):
        for metric in SPEC[kind]:
            assert got[metric["name"]]["unit"] == metric["unit"], (kind, metric["name"])
            assert isinstance(got[metric["name"]]["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def _run(workload, op=0):
    assert cli.main(workload.argv(op)) == 0


def test_detect_checker_flags_shifted_intervals(tmp_path):
    wl = workloads.DetectLong(str(tmp_path), "tiny")
    wl.prepare(5)
    _run(wl)
    assert wl.check(0) == []
    payload = json.loads(Path(wl.out).read_text())
    assert workloads.check_detect(payload, wl.gates) == []
    for iv in payload["intervals"]:
        iv["start_s"] += workloads.FRAME_S
        iv["end_s"] += workloads.FRAME_S
    assert workloads.check_detect(payload, wl.gates)
    payload["intervals"].pop()
    assert workloads.check_detect(payload, wl.gates)


def test_sweep_checker_flags_wrong_outputs(tmp_path):
    wl = workloads.SweepCorpus(str(tmp_path), "tiny")
    wl.prepare(5)
    _run(wl)
    assert wl.check(0) == []
    payload = json.loads(Path(wl.out).read_text())
    text = Path(wl.csv).read_text()

    def flagged(p=payload, t=text):
        return workloads.check_sweep(p, t, wl.windows, workloads.SWEEP_THRESHOLDS, wl.total_frames)

    rows = text.splitlines()
    assert flagged(t="\n".join(rows[:-1]) + "\n")  # a grid point missing from the CSV
    assert flagged(t="\n".join(rows[:1] + rows[2:] + rows[1:2]) + "\n")  # rows out of order
    low = json.loads(json.dumps(payload))
    for point in low["grid"] + [low["best"]]:
        point["report"]["f1"] = 0.5
    assert flagged(p=low)  # JSON disagrees with the CSV
    assert workloads.check_sweep(payload, text, wl.windows, workloads.SWEEP_THRESHOLDS[:-1], wl.total_frames)
    short = {w: n - 1 for w, n in wl.total_frames.items()}
    assert workloads.check_sweep(payload, text, wl.windows, workloads.SWEEP_THRESHOLDS, short)


def test_sweep_checker_enforces_f1_floor():
    point = {"window_s": 0.31, "threshold_db": 3.0,
             "report": {"tp": 1, "fp": 1, "tn": 1, "fn": 1, "accuracy": 0.5,
                        "precision": 0.5, "recall": 0.5, "f1": 0.5}}
    payload = {"grid": [point], "best": point}
    text = "window_s,threshold_db,tp,fp,tn,fn,accuracy,precision,recall,f1\n0.31,3.0,1,1,1,1,0.5,0.5,0.5,0.5\n"
    problems = workloads.check_sweep(payload, text, (0.31,), (3,), {0.31: 4})
    assert problems and "floor" in problems[0]


def test_repro_checker_flags_changed_bytes_and_wrong_detection(tmp_path):
    wl = workloads.ReproFigures(str(tmp_path), "tiny")
    wl.prepare(5)
    _run(wl, op=0)
    out = tmp_path / "figures-0"
    digests = workloads.file_digests(str(out))
    summary = json.loads((out / "summary.json").read_text())
    labels = json.loads((out / "corpus" / "speech_a.labels.json").read_text())
    assert workloads.check_repro(digests, digests, summary, labels) == []

    changed = dict(digests, **{"fig3_waveform.csv": "0" * 64})
    assert workloads.check_repro(changed, digests, summary, labels)
    shifted = dict(summary, intervals_detected=[[s + 0.31, e + 0.31] for s, e in summary["intervals_detected"]])
    assert workloads.check_repro(digests, digests, shifted, labels)

    assert wl.check(0) == []  # the first op becomes the reference
    _run(wl, op=1)
    (tmp_path / "figures-1" / "fig3_waveform.csv").write_text("time_s,amplitude\n")
    assert wl.check(1)
    assert not os.path.exists(tmp_path / "figures-1")
