"""Frame-level voice activity detection over bandpassed audio.

A clip is cut into fixed windows, each window gets a log energy, the noise
floor is a low quantile of those energies, and a frame counts as speech when
its energy clears the floor by the configured SNR margin. Adjacent speech
frames merge into intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import field_dict, write_table
from .audio_io import AudioBuffer, frame_samples, sample_count
from .errors import EmptySignal, InvalidSpec, NoFrames
from .filters import BiquadCascade, apply_cascade


@dataclass(frozen=True)
class VadConfig:
    window_length_s: float = 0.31
    snr_threshold_db: float = 90.0
    hop_length_s: float | None = None  # None means non-overlapping frames
    noise_percentile: float = 0.10
    energy_floor: float = 1e-10

    def __post_init__(self):
        for name in ("window_length_s", "hop_length_s", "snr_threshold_db", "energy_floor"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidSpec(f"{name} must be finite, got {value}")
        if self.window_length_s <= 0:
            raise InvalidSpec(f"window length must be positive, got {self.window_length_s}")
        hop = self.window_length_s if self.hop_length_s is None else self.hop_length_s
        if not 0 < hop <= self.window_length_s:
            raise InvalidSpec(
                f"hop must satisfy 0 < hop <= window, got hop={hop} "
                f"window={self.window_length_s}"
            )
        if not 0 < self.noise_percentile < 1:
            raise InvalidSpec(f"noise percentile must lie in (0, 1), got {self.noise_percentile}")
        if self.energy_floor <= 0:
            raise InvalidSpec(f"energy floor must be positive, got {self.energy_floor}")

    @property
    def hop_s(self) -> float:
        return self.window_length_s if self.hop_length_s is None else self.hop_length_s

    def window_samples(self, sample_rate_hz: int) -> int:
        return max(1, sample_count("window_length_s", self.window_length_s, sample_rate_hz))

    def hop_samples(self, sample_rate_hz: int) -> int:
        return max(1, sample_count("hop_length_s", self.hop_s, sample_rate_hz))


# One record per frame; `VadResult.frames` is a recarray of this dtype, so
# columns read as `frames.snr_db` and records as `frame.snr_db`.
FRAME_DTYPE = np.dtype(
    [("index", np.int64), ("start_s", float), ("energy_db", float), ("snr_db", float), ("is_speech", bool)]
)


@dataclass(frozen=True)
class VadResult:
    frames: np.recarray
    intervals: tuple[tuple[float, float], ...]
    noise_power_db: float
    config: VadConfig


def frame_signal(buffer: AudioBuffer, config: VadConfig, square: bool = False) -> np.ndarray:
    """Cut the buffer into frames, one per row, or its squares with square=True.

    The final frame is zero padded to full window length, so every sample
    lands in at least one frame and frame count is ceil(len / hop).
    """
    if len(buffer) == 0:
        raise EmptySignal("cannot frame an empty signal")
    rate = buffer.sample_rate_hz
    return frame_samples(buffer.samples, config.window_samples(rate), config.hop_samples(rate), square)


def frame_energy_db(frame: np.ndarray, energy_floor: float = VadConfig.energy_floor) -> float:
    """Mean-square frame energy in dB, clamped below by the floor."""
    squares = np.square(np.asarray(frame, dtype=float))
    if squares.size == 0:
        raise EmptySignal("an empty frame has no energy")
    return 10.0 * math.log10(max(np.add.reduce(squares) / squares.size, energy_floor))


def estimate_noise_floor_db(energies_db: np.ndarray, config: VadConfig) -> float:
    """Nearest-rank low quantile of the frame energies.

    rank = ceil(q * N) over the sorted energies, never below the energy
    floor in dB.
    """
    energies_db = np.asarray(energies_db, dtype=float)
    if energies_db.size == 0:
        raise NoFrames("noise floor needs at least one frame")
    ordered = np.sort(energies_db)
    rank = math.ceil(config.noise_percentile * ordered.size)
    value = float(ordered[max(rank - 1, 0)])
    return max(value, 10.0 * math.log10(config.energy_floor))


def merge_intervals(frames: np.recarray, config: VadConfig) -> tuple[tuple[float, float], ...]:
    """Collapse maximal runs of speech frames into (start_s, end_s) spans.

    A run ends at last.start_s + window_length_s, so consecutive intervals
    from overlapping hops never leave sub-window gaps.
    """
    edges = np.diff(np.concatenate(([0], frames.is_speech.astype(np.int8), [0])))
    starts = frames.start_s.tolist()
    return tuple(
        (starts[first], starts[stop - 1] + config.window_length_s)
        for first, stop in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
    )


def frame_energies(buffer: AudioBuffer, config: VadConfig) -> tuple[np.ndarray, float]:
    """Frame energies and the noise floor, both in dB, of a bandpassed buffer; SNR is their difference."""
    # Framing the squares gives each frame's squares as one row, so one
    # add.reduce per window sums every row pairwise, as np.mean does. The
    # squares go straight into the padded frame array, the one clip-sized
    # copy. The log stays scalar, because np.log10 can differ from
    # math.log10 by one ulp.
    squares = frame_signal(buffer, config, square=True)
    powers = np.add.reduce(squares, axis=1) / squares.shape[1]
    energies = np.array([10.0 * math.log10(max(power, config.energy_floor)) for power in powers.tolist()])
    return energies, estimate_noise_floor_db(energies, config)


def detect_prefiltered(buffer: AudioBuffer, config: VadConfig) -> VadResult:
    """Threshold the frame SNRs of `frame_energies` and merge speech runs.

    The buffer is taken as already bandpassed; `detect` is the entry point
    that includes the filter stage.
    """
    energies, floor_db = frame_energies(buffer, config)
    index = np.arange(len(energies))
    snr = energies - floor_db
    records = np.rec.fromarrays(
        [index, index * config.hop_s, energies, snr, snr >= config.snr_threshold_db],
        dtype=FRAME_DTYPE,
    )
    return VadResult(
        frames=records,
        intervals=merge_intervals(records, config),
        noise_power_db=floor_db,
        config=config,
    )


def detect(buffer: AudioBuffer, cascade: BiquadCascade, config: VadConfig) -> VadResult:
    """Full pipeline: bandpass the buffer, then classify frames."""
    if len(buffer) == 0:
        raise EmptySignal("cannot run detection on an empty signal")
    buffer = apply_cascade(cascade, buffer)  # frees the unfiltered samples when the caller holds no reference
    return detect_prefiltered(buffer, config)


def config_to_dict(config: VadConfig) -> dict:
    return field_dict(config, hop_length_s=config.hop_s)


def result_to_dict(result: VadResult) -> dict:
    return {
        "config": config_to_dict(result.config),
        "noise_power_db": result.noise_power_db,
        "intervals": [{"start_s": s, "end_s": e} for s, e in result.intervals],
        "frames": [dict(zip(FRAME_DTYPE.names, row)) for row in result.frames.tolist()],
    }


def frames_to_csv(result: VadResult, path) -> None:
    """The frame table as CSV, is_speech as 0/1, CRLF line ends."""
    columns = {name: result.frames[name] for name in FRAME_DTYPE.names}
    columns["is_speech"] = columns["is_speech"].astype(np.int8)
    write_table(path, columns, "\r\n")
