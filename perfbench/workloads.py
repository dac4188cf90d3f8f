"""Seeded inputs, command lines and correctness checks for each workload.

A workload object owns one working directory. `prepare` writes the inputs
from the seed, `argv` gives the vadkit command line of one op, and `check`
returns the list of problems found in that op's outputs (empty when the op
is correct). The checkers are plain functions of parsed outputs so the
smoke test can feed them deliberately wrong data.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import struct
import wave

import numpy as np

FRAME_S = 0.31  # vadkit's default window; detect-long gates sit on its multiples
SWEEP_WINDOWS = (0.02, 0.05, 0.155, 0.31, 0.62)
SWEEP_THRESHOLDS = tuple(range(3, 31))
SWEEP_F1_FLOOR = 0.95  # the acceptance gate's floor for the tuned detector
INTERVAL_TOL_S = 1e-6


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def file_digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = sha256_file(path)
    return dict(sorted(out.items()))


def describe_files(root: str) -> list[dict]:
    return [
        {"path": rel, "bytes": os.path.getsize(os.path.join(root, rel)), "sha256": digest}
        for rel, digest in file_digests(root).items()
    ]


def wav_duration_s(path: str) -> float:
    with wave.open(path, "rb") as fh:
        return fh.getnframes() / fh.getframerate()


# ---------------------------------------------------------------- detect-long

def plan_gates(rng: np.random.Generator, n_frames: int) -> list[tuple[int, int]]:
    """Speech gates as [first, end) frame ranges, with noise-only gaps between.

    Gaps of 2..7 frames and gates of 1..5 frames keep well over the noise
    percentile (10%) of frames speech-free, so the floor is the bed.
    """
    gates = []
    pos = int(rng.integers(2, 8))
    while True:
        length = int(rng.integers(1, 6))
        if pos + length + 2 > n_frames:
            return gates
        gates.append((pos, pos + length))
        pos += length + int(rng.integers(2, 8))


def write_gated_stereo_wav(path: str, seed: int, n_frames: int, rate: int = 44100) -> list[tuple[int, int]]:
    """Stereo PCM16 noise bed with harmonic speech surrogates on planted gates.

    The file is written in blocks so that generating it does not raise the
    process's peak memory above what the detector itself needs. Returns the
    gates as frame ranges of FRAME_S seconds.
    """
    frame_len = int(round(FRAME_S * rate))
    if abs(frame_len - FRAME_S * rate) > 1e-6:
        raise ValueError(f"{rate} Hz does not put {FRAME_S} s frames on whole samples")
    plan = np.random.default_rng([seed, 0])
    noise = np.random.default_rng([seed, 1])
    gates = plan_gates(plan, n_frames)
    tones = []
    for first, end in gates:
        f0 = float(plan.uniform(120.0, 220.0))
        harmonics = [k * f0 for k in range(2, int(1500.0 // f0) + 1) if k * f0 >= 300.0]
        phases = plan.uniform(0.0, 2.0 * math.pi, len(harmonics))
        tones.append((first * frame_len, end * frame_len, harmonics, phases))

    ramp = int(round(0.02 * rate))
    rise = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    n_total = n_frames * frame_len
    block = 16 * frame_len
    with open(path, "wb") as fh:
        data_bytes = n_total * 2 * 2
        fh.write(b"RIFF" + struct.pack("<I", 36 + data_bytes) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, rate, rate * 4, 4, 16))
        fh.write(b"data" + struct.pack("<I", data_bytes))
        for b0 in range(0, n_total, block):
            b1 = min(b0 + block, n_total)
            x = 0.01 * noise.standard_normal((b1 - b0, 2))
            for g0, g1, harmonics, phases in tones:
                lo, hi = max(g0, b0), min(g1, b1)
                if lo >= hi:
                    continue
                n = np.arange(lo, hi)
                env = np.ones(hi - lo)
                head = n - g0 < ramp
                env[head] = rise[n[head] - g0]
                tail = g1 - 1 - n < ramp
                env[tail] = rise[g1 - 1 - n[tail]]
                t = n / rate
                tone = sum((0.3 / (k + 1)) * np.sin(2.0 * math.pi * f * t + p)
                           for k, (f, p) in enumerate(zip(harmonics, phases)))
                x[lo - b0 : hi - b0] += (tone * env)[:, None]
            fh.write(np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes())
    return gates


def check_detect(payload: dict, gates: list[tuple[int, int]]) -> list[str]:
    """Detected intervals must equal the planted gates, in seconds."""
    got = [(iv["start_s"], iv["end_s"]) for iv in payload.get("intervals", [])]
    want = [(a * FRAME_S, b * FRAME_S) for a, b in gates]
    if len(got) != len(want):
        return [f"{len(got)} intervals detected, {len(want)} gates planted"]
    for (gs, ge), (ws, we) in zip(got, want):
        if abs(gs - ws) > INTERVAL_TOL_S or abs(ge - we) > INTERVAL_TOL_S:
            return [f"interval ({gs}, {ge}) does not match gate ({ws}, {we})"]
    return []


class DetectLong:
    """`vadkit detect --threshold 12` on one long stereo 44.1 kHz recording."""

    name = "detect-long"

    def __init__(self, workdir: str, size: str):
        self.n_frames = 194 if size == "full" else 32  # 60 s or 10 s of audio
        self.wav = os.path.join(workdir, "inputs", "long.wav")
        self.out = os.path.join(workdir, "long.vad.json")

    def prepare(self, seed: int) -> None:
        os.makedirs(os.path.dirname(self.wav), exist_ok=True)
        self.gates = write_gated_stereo_wav(self.wav, seed, self.n_frames)
        self.audio_s = wav_duration_s(self.wav)

    def input_files(self) -> list[dict]:
        return describe_files(os.path.dirname(self.wav))

    def argv(self, op: int) -> list[str]:
        return ["detect", self.wav, "--threshold", "12", "--out", self.out]

    def check(self, op: int) -> list[str]:
        with open(self.out) as fh:
            return check_detect(json.load(fh), self.gates)


# --------------------------------------------------------------- sweep-corpus

def frames_per_window(clip_samples: list[int], rate: int, window_s: float) -> int:
    """Frames the detector cuts from the clips at a hop of one window."""
    hop = max(1, int(round(window_s * rate)))
    return sum(-(-n // hop) for n in clip_samples)


def check_sweep(payload: dict, csv_text: str, windows, thresholds, total_frames: dict) -> list[str]:
    """Grid shape and order, JSON/CSV agreement, frame totals and the best F1."""
    grid = payload.get("grid", [])
    expected = [(float(w), float(t)) for w in windows for t in thresholds]
    if [(p["window_s"], p["threshold_db"]) for p in grid] != expected:
        return [f"grid has {len(grid)} points, not the {len(expected)} requested in order"]
    rows = list(csv.reader(io.StringIO(csv_text)))
    if len(rows) != len(grid) + 1:
        return [f"CSV has {len(rows) - 1} rows for {len(grid)} grid points"]
    fields = ["tp", "fp", "tn", "fn", "accuracy", "precision", "recall", "f1"]
    for i, (row, point) in enumerate(zip(rows[1:], grid)):
        r = point["report"]
        want = [point["window_s"], point["threshold_db"]] + [r[k] for k in fields]
        if [float(v) for v in row] != [float(v) for v in want]:
            return [f"CSV row {i} disagrees with JSON grid point {i}"]
        if r["tp"] + r["fp"] + r["tn"] + r["fn"] != total_frames[point["window_s"]]:
            return [f"grid point {i} scores {r['tp'] + r['fp'] + r['tn'] + r['fn']} frames, "
                    f"the clips have {total_frames[point['window_s']]}"]
    best = payload["best"]
    top = max(p["report"]["f1"] for p in grid)
    if best["report"]["f1"] != top:
        return [f"best F1 {best['report']['f1']} is not the grid maximum {top}"]
    if top < SWEEP_F1_FLOOR:
        return [f"best F1 {top} below the {SWEEP_F1_FLOOR} floor"]
    return []


class SweepCorpus:
    """`vadkit sweep --jobs 1` over the seeded labeled corpus."""

    name = "sweep-corpus"

    def __init__(self, workdir: str, size: str):
        self.size = size
        self.clip_s = 4.0 if size == "full" else 3.1
        self.windows = SWEEP_WINDOWS if size == "full" else (0.31,)
        self.corpus = os.path.join(workdir, "inputs")
        self.out = os.path.join(workdir, "sweep.json")
        self.csv = os.path.join(workdir, "sweep.csv")

    def prepare(self, seed: int) -> None:
        from vadkit.corpus import generate_corpus
        from vadkit.evaluate import save_manifest

        clips = generate_corpus(seed, self.corpus, clip_duration_s=self.clip_s)
        if self.size == "tiny":  # silence, two ambient beds and one surrogate
            clips = clips[:4]
            save_manifest(clips, os.path.join(self.corpus, "manifest.json"))
        samples, rates = [], set()
        for clip in clips:
            with wave.open(clip.audio_path, "rb") as fh:
                samples.append(fh.getnframes())
                rates.add(fh.getframerate())
        (rate,) = rates
        self.audio_s = sum(samples) / rate
        self.total_frames = {float(w): frames_per_window(samples, rate, w) for w in self.windows}

    def input_files(self) -> list[dict]:
        return describe_files(self.corpus)

    def argv(self, op: int) -> list[str]:
        return [
            "sweep", "--manifest", os.path.join(self.corpus, "manifest.json"),
            "--windows", ",".join(str(w) for w in self.windows),
            "--thresholds", ",".join(str(t) for t in SWEEP_THRESHOLDS),
            "--jobs", "1", "--out", self.out, "--csv", self.csv,
        ]

    def check(self, op: int) -> list[str]:
        with open(self.out) as fh:
            payload = json.load(fh)
        with open(self.csv, newline="") as fh:
            text = fh.read()
        return check_sweep(payload, text, self.windows, SWEEP_THRESHOLDS, self.total_frames)


# ------------------------------------------------------------- repro-figures

def check_repro(digests: dict, reference: dict, summary: dict, labels: dict) -> list[str]:
    """Artifacts byte-identical to the reference op; detection equals truth."""
    if digests != reference:
        changed = sorted(k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k))
        return [f"artifacts differ from the first op: {', '.join(changed[:5])}"]
    truth = [list(map(float, iv)) for iv in labels["speech_intervals"]]
    if summary["speech_intervals_truth"] != truth:
        return ["summary truth differs from the corpus label sidecar"]
    detected = summary["intervals_detected"]
    if len(detected) != len(truth) or any(
        abs(a - b) > INTERVAL_TOL_S for d, t in zip(detected, truth) for a, b in zip(d, t)
    ):
        return [f"detected {detected} != truth {truth}"]
    return []


class ReproFigures:
    """`vadkit repro-figures --seed <seed>` into a fresh directory per op."""

    name = "repro-figures"

    def __init__(self, workdir: str, size: str):
        self.workdir = workdir
        self.reference = None

    def prepare(self, seed: int) -> None:
        # The command's only input is the seed; it synthesizes its own corpus.
        self.seed = seed
        self.audio_s = None  # known after the first op

    def input_files(self) -> list[dict]:
        return []

    def _dir(self, op: int) -> str:
        return os.path.join(self.workdir, f"figures-{op}")

    def argv(self, op: int) -> list[str]:
        return ["repro-figures", "--out-dir", self._dir(op), "--seed", str(self.seed)]

    def check(self, op: int) -> list[str]:
        out = self._dir(op)
        try:
            digests = file_digests(out)
            if self.reference is None:
                self.reference = digests
                corpus = os.path.join(out, "corpus")
                self.audio_s = sum(
                    wav_duration_s(os.path.join(corpus, n)) for n in os.listdir(corpus) if n.endswith(".wav")
                )
            with open(os.path.join(out, "summary.json")) as fh:
                summary = json.load(fh)
            with open(os.path.join(out, "corpus", "speech_a.labels.json")) as fh:
                labels = json.load(fh)
            return check_repro(digests, self.reference, summary, labels)
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DetectLong, SweepCorpus, ReproFigures)}
