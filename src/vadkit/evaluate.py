"""Scoring detections against labeled clips, plus a parameter sweep harness.

Ground truth per frame: a frame is speech when at least half of its window
overlaps the union of the labeled intervals. Confusion counts aggregate
across clips; derived rates fall back to 0.0 when their denominator is 0.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .artifacts import field_dict, json_number, read_json, write_json, write_table
from .audio_io import read_wav
from .errors import LabelOutOfRange, SweepFailure, VadKitError
from ._kernels import PassBuffers
from .filters import BiquadCascade, filter_passes
from .vad import VadConfig, VadResult, WindowEnergies, config_to_dict, feed_squares


@dataclass(frozen=True)
class LabeledClip:
    audio_path: str
    speech_intervals: tuple[tuple[float, float], ...]
    source_note: str = ""

    def __post_init__(self):
        intervals = []
        for start, end in self.speech_intervals:
            try:  # the config file's number rule: no booleans, strings, NaN or infinity
                start, end = json_number(start), json_number(end)
            except ValueError as exc:
                raise LabelOutOfRange(f"bad interval ({start!r}, {end!r}) in {self.audio_path}: {exc}") from None
            if not 0 <= start < end:
                raise LabelOutOfRange(f"bad interval ({start}, {end}) in {self.audio_path}")
            if intervals and start < intervals[-1][1]:
                raise LabelOutOfRange(f"overlapping intervals in {self.audio_path}")
            intervals.append((start, end))
        object.__setattr__(self, "speech_intervals", tuple(intervals))

    def to_dict(self, audio_path: str) -> dict:
        """The clip as a manifest entry or a labels sidecar, its audio named audio_path."""
        return field_dict(self, audio_path=audio_path)


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    config: VadConfig

    @classmethod
    def from_counts(cls, tp: int, fp: int, tn: int, fn: int, config: VadConfig) -> "EvalReport":
        total = tp + fp + tn + fn
        accuracy = (tp + tn) / total if total else 0.0
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return cls(tp, fp, tn, fn, accuracy, precision, recall, f1, config)


@dataclass(frozen=True)
class GridPoint:
    window_s: float
    threshold_db: float
    report: EvalReport


@dataclass(frozen=True)
class SweepResult:
    grid: tuple[GridPoint, ...]
    best: GridPoint


def truth_frame_flags(starts: np.ndarray, window: float, clip: LabeledClip) -> np.ndarray:
    """Boolean ground truth per frame (start times in s, window in s) via the half-overlap rule."""
    clip_end = float(starts[-1]) + window if len(starts) else 0.0
    ends = starts + window
    covered = np.zeros(len(starts))
    for start, end in clip.speech_intervals:
        if end > clip_end + window:
            raise LabelOutOfRange(
                f"interval ({start}, {end}) runs past the clip end ({clip_end:.3f} s) in {clip.audio_path}"
            )
        covered += np.maximum(0.0, np.minimum(ends, end) - np.maximum(starts, start))
    return covered >= 0.5 * window


def _confusion_counts(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """(tp, fp, tn, fn) along the first axis, each summed over the frame axis.

    Only tp needs a product; the rest follow from the flagged and speech totals.
    """
    tp = np.sum(predicted & truth, axis=-1)
    flagged = np.sum(predicted, axis=-1)
    speech = np.sum(truth, axis=-1)
    return np.stack([tp, flagged - tp, truth.shape[-1] - flagged - speech + tp, speech - tp])


def score(result: VadResult, clip: LabeledClip) -> EvalReport:
    truth = truth_frame_flags(result.frames.start_s, result.config.window_length_s, clip)
    counts = _confusion_counts(result.frames.is_speech, truth)
    return EvalReport.from_counts(*counts.tolist(), result.config)


def load_manifest(path) -> list[LabeledClip]:
    """Read a non-empty JSON clip list.

    Relative audio paths resolve against the manifest. An unreadable file,
    bad JSON, an empty list or a malformed entry raises VadKitError.
    """
    entries = read_json(path, "manifest")
    if not isinstance(entries, list) or not entries:
        raise VadKitError(f"manifest {path} must hold a non-empty JSON list")
    base = os.path.dirname(os.path.abspath(path))
    clips = []
    for i, entry in enumerate(entries):
        try:
            clips.append(
                LabeledClip(
                    audio_path=os.path.join(base, entry["audio_path"]),
                    speech_intervals=tuple(tuple(iv) for iv in entry["speech_intervals"]),
                    source_note=entry.get("source_note", ""),
                )
            )
        except KeyError as exc:
            raise VadKitError(f"manifest {path}: entry {i} has no {exc} field") from exc
        except (TypeError, ValueError) as exc:
            raise VadKitError(f"manifest {path}: entry {i} is malformed: {exc}") from exc
    return clips


def save_manifest(clips, path) -> None:
    """Write a manifest with audio paths stored relative to its directory."""
    base = os.path.dirname(os.path.abspath(path))
    write_json([clip.to_dict(os.path.relpath(os.path.abspath(clip.audio_path), base)) for clip in clips], path)


def _parallel_map(fn, args: list[tuple], jobs: int) -> list:
    """[fn(*a) for a in args], over a process pool when jobs > 1; order kept."""
    if jobs < 1:
        raise VadKitError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(args) > 1:  # fork starts every worker at the first submit: one per item at most
        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            return list(pool.map(fn, *zip(*args)))
    return [fn(*a) for a in args]


def _clip_counts(clip: LabeledClip, cascade: BiquadCascade, configs, thresholds_db, buffers) -> np.ndarray:
    """Confusion counts of one clip, shape (config, 4, threshold).

    The clip is read and resampled once, and bandpassed pass by pass
    through buffers, a `PassBuffers`; each pass is squared once, and
    every config's window takes its frames from those squares. Every
    threshold is scored from the window's SNR column. A failure in
    detection or scoring names the clip and the window.
    """
    buffer = read_wav(clip.audio_path, cascade.spec.sample_rate_hz)[0]
    passes = filter_passes(cascade, buffer, buffers)
    windows, truths = [], []
    for config in configs:  # every check that needs no samples, in config order
        with _naming(clip, config):
            windows.append(WindowEnergies(config, buffer.sample_rate_hz, len(buffer)))
            starts = np.arange(windows[-1].frames) * config.hop_s
            truths.append(truth_frame_flags(starts, config.window_length_s, clip))
    feed_squares(passes, windows, buffers.squares)
    thresholds = np.array(thresholds_db)[:, None]
    counts = []
    for config, window, truth in zip(configs, windows, truths):
        with _naming(clip, config):
            energies, floor_db = window.energies()
            counts.append(_confusion_counts(energies - floor_db >= thresholds, truth))
    return np.array(counts)


@contextlib.contextmanager
def _naming(clip: LabeledClip, config: VadConfig):
    """Re-raise a VadKitError with the clip and the window named."""
    try:
        yield
    except VadKitError as exc:
        raise type(exc)(f"clip {clip.audio_path}, window {config.window_length_s} s: {exc}") from exc


def _chunk_counts(clips, cascade: BiquadCascade, configs, thresholds_db) -> list[np.ndarray]:
    """`_clip_counts` of each clip in order, all through one set of pass buffers."""
    buffers = PassBuffers()
    return [_clip_counts(clip, cascade, configs, thresholds_db, buffers) for clip in clips]


def _counts_per_clip(clips, cascade: BiquadCascade, configs, thresholds_db, jobs: int) -> list[np.ndarray]:
    """`_clip_counts` of every clip, in order, over up to jobs processes.

    The clips go out in min(jobs, clips) contiguous chunks, one task each,
    so that each worker reuses one set of pass buffers for its chunk.
    """
    tasks = max(1, min(jobs, len(clips)))
    bounds = [len(clips) * k // tasks for k in range(tasks + 1)]
    args = [(clips[lo:hi], cascade, configs, thresholds_db) for lo, hi in zip(bounds, bounds[1:])]
    return [counts for chunk in _parallel_map(_chunk_counts, args, jobs) for counts in chunk]


def evaluate_clips(clips, cascade: BiquadCascade, config: VadConfig, jobs: int = 1):
    """Score every clip under one config.

    Returns (aggregate report, list of (clip, per-clip report)). Results are
    ordered by the input clip list regardless of job count. The aggregate
    sums the per-clip counts, as `sweep` does.
    """
    counts = _counts_per_clip(clips, cascade, [config], [config.snr_threshold_db], jobs)  # per clip: (1, 4, 1)
    aggregate, *reports = [EvalReport.from_counts(*c[0, :, 0].tolist(), config) for c in [sum(counts), *counts]]
    return aggregate, list(zip(clips, reports))


def sweep(
    clips,
    windows_s,
    thresholds_db,
    cascade: BiquadCascade,
    base_config: VadConfig = VadConfig(),
    jobs: int = 1,
) -> SweepResult:
    """Grid search over window length and SNR threshold.

    Every grid value is checked first. Each clip is then scored in one
    `_clip_counts` call (over `jobs` processes), which takes frame energies
    once per window and scores every threshold. Best point maximizes F1, ties
    broken by lower threshold, then shorter window.
    """
    windows_s = [float(w) for w in windows_s]
    thresholds_db = [float(t) for t in thresholds_db]
    if not clips or not windows_s or not thresholds_db:
        raise SweepFailure("sweep needs at least one clip, window, and threshold")
    points = []
    for window_s, threshold_db in itertools.product(windows_s, thresholds_db):
        values = {"window_length_s": window_s, "snr_threshold_db": threshold_db, "hop_length_s": None}
        try:
            points.append(dataclasses.replace(base_config, **values))
        except VadKitError as exc:
            raise SweepFailure(f"grid point (window={window_s}, threshold={threshold_db}): {exc}") from exc
    windows = points[:: len(thresholds_db)]
    counts = sum(_counts_per_clip(clips, cascade, windows, thresholds_db, jobs))  # (window, 4, threshold)
    grid = tuple(
        GridPoint(config.window_length_s, config.snr_threshold_db, EvalReport.from_counts(*point_counts, config))
        for config, point_counts in zip(points, counts.transpose(0, 2, 1).reshape(-1, 4).tolist())
    )
    best = min(grid, key=lambda g: (-g.report.f1, g.threshold_db, g.window_s))
    return SweepResult(grid=grid, best=best)


def report_to_dict(report: EvalReport) -> dict:
    return field_dict(report, config=config_to_dict(report.config))


def sweep_to_csv(result: SweepResult, path) -> None:
    """One CSV row per grid point: its scalar fields, then its report's; CRLF line ends."""
    rows = [{**field_dict(p), **field_dict(p.report)} for p in result.grid]
    columns = {
        name: np.array([row[name] for row in rows])
        for name, value in rows[0].items()
        if not dataclasses.is_dataclass(value)
    }
    write_table(path, columns, "\r\n")
