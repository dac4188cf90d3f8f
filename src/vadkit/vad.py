"""Frame-level voice activity detection over bandpassed audio.

A clip is cut into fixed windows, each window gets a log energy, the noise
floor is a low quantile of those energies, and a frame counts as speech when
its energy clears the floor by the configured SNR margin. Adjacent speech
frames merge into intervals.

One body, `_detect`, runs these steps over a clip in passes of at most PASS
samples: the bandpass filter's passes, or slices of a buffer filtered already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import PASS, PassBuffers, _windows
from .artifacts import field_dict, write_table
from .audio_io import AudioBuffer, frame_samples, sample_count
from .errors import EmptySignal, InvalidSpec, NoFrames
from .filters import BiquadCascade, filter_passes


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


def frame_signal(buffer: AudioBuffer, config: VadConfig) -> np.ndarray:
    """Cut the buffer into frames, one per row.

    The final frame is zero padded to full window length, so every sample
    lands in at least one frame and frame count is ceil(len / hop).
    """
    if len(buffer) == 0:
        raise EmptySignal("cannot frame an empty signal")
    rate = buffer.sample_rate_hz
    return frame_samples(buffer.samples, config.window_samples(rate), config.hop_samples(rate))


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


class WindowEnergies:
    """The energy column of one window over a clip of n samples, reduced from the clip's squares pass by pass.

    The window's frames are those of `frame_signal`: ceil(n / hop) rows of
    win samples, every hop samples, the last zero padded. The per-window
    checks (an empty clip, a window or hop over the size limit) raise here,
    before any sample is filtered.
    """

    def __init__(self, config: VadConfig, sample_rate_hz: int, n: int):
        if n == 0:
            raise EmptySignal("cannot frame an empty signal")
        self.config, self.n = config, n
        self.win = config.window_samples(sample_rate_hz)
        self.hop = config.hop_samples(sample_rate_hz)
        self.frames = -(-n // self.hop)
        self.reach = (self.frames - 1) * self.hop + self.win  # where the padded last frame ends
        self.done = 0  # frames reduced so far; the next starts at done * hop
        self.powers = np.empty(self.frames)  # mean squares, filled by take

    def take(self, squares: np.ndarray, start: int, end: int) -> None:
        """Reduce the frames not yet taken that end by end; squares[i] is the square of sample start + i.

        Each frame is one row of a strided view of squares, and one
        add.reduce sums every row pairwise, as np.mean does, whatever the
        number of rows.
        """
        count = min(self.frames, (end - self.win) // self.hop + 1) - self.done
        if count > 0:
            first = self.done * self.hop - start
            rows = _windows(squares[first : first + (count - 1) * self.hop + self.win], self.win, self.hop)
            powers = np.add.reduce(rows, axis=1, out=self.powers[self.done : self.done + count])
            powers /= self.win
            self.done += count

    def energies(self) -> tuple[np.ndarray, float]:
        """Frame energies and the noise floor, both in dB, once every frame is taken; SNR is their difference."""
        energies, (floor_db,) = energies_db(self.powers, self.config, [self.frames])
        return energies, floor_db


def energies_db(powers: np.ndarray, config: VadConfig, frames) -> tuple[np.ndarray, list[float]]:
    """Frame energies in dB of the frame powers, clamped below by the energy floor, and the noise floor of
    each run of frames[i] consecutive energies: one log over many clips' frames, one floor per clip."""
    # The log stays scalar, because np.log10 can differ from math.log10 by one ulp.
    energies = 10.0 * np.fromiter(map(math.log10, np.maximum(powers, config.energy_floor).tolist()), float, len(powers))
    return energies, [estimate_noise_floor_db(part, config) for part in np.split(energies, np.cumsum(frames[:-1]))]


def feed_squares(passes, windows, squares: np.ndarray) -> None:
    """Square each pass of a bandpassed clip once and let every window take its frames.

    passes are consecutive pieces of the clip of at most PASS samples, as
    `sos_passes` yields them; windows are `WindowEnergies` of that clip.
    The squares go into squares, such as `PassBuffers.squares` of 2 * PASS
    samples, if it holds PASS + 2 * longest window samples, or else into an
    array of that size made here. Between passes it keeps the squares from
    the earliest frame some window has still to take, less than the longest
    window; after the last pass it holds the zeros of the padded last
    frames, fewer than that too.
    """
    n = windows[0].n
    longest = max(window.win for window in windows)
    squares = squares if squares.shape[0] >= PASS + 2 * longest else np.empty(PASS + 2 * longest)
    tail = max(window.reach for window in windows) - n  # zeros after the clip that padded last frames read
    held = top = 0  # squares[:held] holds the squares of samples top - held .. top
    for block in passes:
        m = block.shape[0]
        last = top + m == n
        np.square(block, out=squares[held : held + m])
        start, top = top - held, top + m
        if last:
            squares[held + m : held + m + tail] = 0.0
        for window in windows:
            window.take(squares, start, top + tail if last else top)
        keep = max(top - min(window.done * window.hop for window in windows), 0)
        squares[:keep] = squares[held + m - keep : held + m]
        held = keep


def _detect(passes, buffer: AudioBuffer, config: VadConfig, squares: np.ndarray) -> VadResult:
    """One window's `WindowEnergies` of a bandpassed buffer, fed its passes by `feed_squares` (through squares)
    and built before the first pass is taken; then its frame SNRs thresholded and speech runs merged."""
    window = WindowEnergies(config, buffer.sample_rate_hz, len(buffer))
    feed_squares(passes, [window], squares)
    energies, floor_db = window.energies()
    index = np.arange(len(energies))
    snr = energies - floor_db
    records = np.rec.fromarrays(
        [index, index * config.hop_s, energies, snr, snr >= config.snr_threshold_db], dtype=FRAME_DTYPE
    )
    return VadResult(records, merge_intervals(records, config), floor_db, config)


def detect_prefiltered(buffer: AudioBuffer, config: VadConfig) -> VadResult:
    """`_detect` of a buffer taken as already bandpassed, in slices of PASS samples; `feed_squares` makes the
    squares array. `detect` is the entry point that includes the filter stage."""
    return _detect((buffer.samples[p0 : p0 + PASS] for p0 in range(0, len(buffer), PASS)), buffer, config, np.empty(0))


def detect(buffer: AudioBuffer, cascade: BiquadCascade, config: VadConfig) -> VadResult:
    """Full pipeline: `_detect` of the passes of `filter_passes`, squared into the same `PassBuffers`.

    No array holds the filtered signal or its squares.
    """
    if len(buffer) == 0:
        raise EmptySignal("cannot run detection on an empty signal")
    buffers = PassBuffers()
    return _detect(filter_passes(cascade, buffer, buffers), buffer, config, buffers.squares)


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
