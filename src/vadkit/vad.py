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
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import PASS, PassBuffers
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
        self.powers = []

    def take(self, squares: np.ndarray, start: int, end: int) -> None:
        """Reduce the frames not yet taken that end by end; squares[i] is the square of sample start + i.

        Each frame is one row of a strided view of squares, and one
        add.reduce sums every row pairwise, as np.mean does, whatever the
        number of rows.
        """
        count = min(self.frames, (end - self.win) // self.hop + 1) - self.done
        if count > 0:
            first = self.done * self.hop - start
            rows = sliding_window_view(squares[first : first + (count - 1) * self.hop + self.win], self.win)
            self.powers.append(np.add.reduce(rows[:: self.hop], axis=1) / self.win)
            self.done += count

    def energies(self) -> tuple[np.ndarray, float]:
        """Frame energies and the noise floor, both in dB, once every frame is taken; SNR is their difference."""
        # The log stays scalar, because np.log10 can differ from math.log10 by one ulp.
        powers = np.maximum(np.concatenate(self.powers), self.config.energy_floor)
        energies = 10.0 * np.array(list(map(math.log10, powers.tolist())))
        return energies, estimate_noise_floor_db(energies, self.config)


def feed_squares(passes, windows, squares: np.ndarray) -> None:
    """Square each pass of a bandpassed clip once and let every window take its frames.

    passes are consecutive pieces of the clip of at most PASS samples, as
    `sos_passes` yields them; windows are `WindowEnergies` of that clip.
    The squares go into squares, an array of 2 * PASS samples such as
    `PassBuffers.squares`, or, when a window is over PASS / 2 samples, into
    an array of PASS + 2 * longest window samples made here. Between
    passes it keeps the squares from the earliest frame some window has
    still to take, less than the longest window; after the last pass it
    holds the zeros of the padded last frames, fewer than that too.
    """
    n = windows[0].n
    longest = max(window.win for window in windows)
    squares = squares if 2 * longest <= PASS else np.empty(PASS + 2 * longest)
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


def frame_energies(buffer: AudioBuffer, config: VadConfig) -> tuple[np.ndarray, float]:
    """Frame energies and the noise floor, both in dB, of a bandpassed buffer; SNR is their difference.

    `feed_squares` of the buffer in slices of PASS samples, into squares of its own (no `PassBuffers`).
    """
    window = WindowEnergies(config, buffer.sample_rate_hz, len(buffer))
    feed_squares((buffer.samples[p0 : p0 + PASS] for p0 in range(0, len(buffer), PASS)), [window], np.empty(2 * PASS))
    return window.energies()


def _decide(energies: np.ndarray, floor_db: float, config: VadConfig) -> VadResult:
    """Threshold the frame SNRs and merge speech runs."""
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


def detect_prefiltered(buffer: AudioBuffer, config: VadConfig) -> VadResult:
    """Threshold the frame SNRs of `frame_energies` and merge speech runs.

    The buffer is taken as already bandpassed; `detect` is the entry point
    that includes the filter stage.
    """
    return _decide(*frame_energies(buffer, config), config)


def detect(buffer: AudioBuffer, cascade: BiquadCascade, config: VadConfig) -> VadResult:
    """Full pipeline: bandpass the buffer pass by pass, square each pass once, then classify frames.

    No array holds the filtered signal or its squares.
    """
    if len(buffer) == 0:
        raise EmptySignal("cannot run detection on an empty signal")
    buffers = PassBuffers()
    passes = filter_passes(cascade, buffer, buffers)
    window = WindowEnergies(config, buffer.sample_rate_hz, len(buffer))
    feed_squares(passes, [window], buffers.squares)
    return _decide(*window.energies(), config)


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
