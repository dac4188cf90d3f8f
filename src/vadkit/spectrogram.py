"""Hann-windowed magnitude spectrogram with dB output.

Frames come from the detector's framing helper, `audio_io.frame_samples`:
frame count is ceil(len / hop) and the tail is zero padded, so a
spectrogram and a VAD pass over the same clip line up frame for frame when
their hops match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import open_output, write_table
from .audio_io import _UPSAMPLING_LIMIT, SIZE_LIMIT, AudioBuffer, frame_samples
from .errors import EmptySignal, InvalidFft

DB_FLOOR = -120.0
_MAG_FLOOR = 10.0 ** (DB_FLOOR / 20.0)


@dataclass(frozen=True, eq=False)
class SpectrogramMatrix:
    magnitudes_db: np.ndarray  # shape (frame_count, bin_count)
    fft_size: int
    hop_samples: int
    sample_rate_hz: int

    @property
    def frame_count(self) -> int:
        return self.magnitudes_db.shape[0]

    @property
    def bin_count(self) -> int:
        return self.magnitudes_db.shape[1]

    def times_s(self) -> np.ndarray:
        """Frame start times."""
        return np.arange(self.frame_count) * (self.hop_samples / self.sample_rate_hz)

    def freqs_hz(self) -> np.ndarray:
        return np.arange(self.bin_count) * (self.sample_rate_hz / self.fft_size)


def hann_window(size: int) -> np.ndarray:
    # Periodic form, matching the FFT length rather than size - 1.
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(size) / size)


def check_fft(fft_size: int, hop_samples: int, n: int) -> None:
    """InvalidFft unless fft_size is a power of two and hop_samples is positive, both up to SIZE_LIMIT.

    The frames of n samples, ceil(n / hop_samples) rows of fft_size, may
    hold SIZE_LIMIT samples, or _UPSAMPLING_LIMIT times n where that is
    more: the bound `resample` puts on its output.
    """
    if fft_size <= 0 or fft_size & (fft_size - 1) != 0:
        raise InvalidFft(f"fft size must be a power of two, got {fft_size}")
    if fft_size > SIZE_LIMIT:
        raise InvalidFft(f"fft size {fft_size} is over the limit of {SIZE_LIMIT} samples")
    if hop_samples <= 0:
        raise InvalidFft(f"spectrogram hop must be positive, got {hop_samples}")
    if hop_samples > SIZE_LIMIT:
        raise InvalidFft(f"spectrogram hop {hop_samples} is over the limit of {SIZE_LIMIT} samples")
    cells = -(-n // hop_samples) * fft_size
    if cells > max(SIZE_LIMIT, _UPSAMPLING_LIMIT * n):
        raise InvalidFft(
            f"the frames of {n} samples at fft size {fft_size} and hop {hop_samples} hold {cells} samples, "
            f"over the limit of {SIZE_LIMIT} and over {_UPSAMPLING_LIMIT} times the input"
        )


def spectrogram(buffer: AudioBuffer, fft_size: int = 1024, hop_samples: int = 512) -> SpectrogramMatrix:
    check_fft(fft_size, hop_samples, len(buffer))
    if len(buffer) == 0:
        raise EmptySignal("cannot take a spectrogram of an empty signal")
    frames = frame_samples(buffer.samples, fft_size, hop_samples) * hann_window(fft_size)
    mags = np.abs(np.fft.rfft(frames, axis=1))
    db = 20.0 * np.log10(np.maximum(mags, _MAG_FLOOR))
    return SpectrogramMatrix(
        magnitudes_db=db,
        fft_size=fft_size,
        hop_samples=hop_samples,
        sample_rate_hz=buffer.sample_rate_hz,
    )


def to_json_dict(spec: SpectrogramMatrix) -> dict:
    """The matrix and its settings; magnitudes_db stays the 2-D array, which the JSON writers write as a list."""
    return {
        "fft_size": spec.fft_size,
        "hop_samples": spec.hop_samples,
        "sample_rate_hz": spec.sample_rate_hz,
        "frame_count": spec.frame_count,
        "bin_count": spec.bin_count,
        "magnitudes_db": spec.magnitudes_db,
    }


def write_long_csv(spec: SpectrogramMatrix, path) -> None:
    """One CSV row per (frame, bin) cell: time_s, freq_hz, magnitude_db; CRLF line ends."""
    columns = {
        "time_s": np.repeat(spec.times_s(), spec.bin_count),
        "freq_hz": np.tile(spec.freqs_hz(), spec.frame_count),
        "magnitude_db": spec.magnitudes_db.ravel(),
    }
    write_table(path, columns, "\r\n")


def write_pgm(spec: SpectrogramMatrix, path) -> None:
    """Greyscale image, frequency up the vertical axis, time left to right.

    dB values are scaled linearly from the floor to the clip maximum.
    """
    db = spec.magnitudes_db
    top = float(db.max())
    span = max(top - DB_FLOOR, 1e-12)
    levels = np.clip((db - DB_FLOOR) / span * 255.0, 0.0, 255.0)
    img = np.flipud(np.round(levels).astype(np.uint8).T)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n"
    with open_output(path) as fh:
        fh.write(header.encode("ascii"))
        fh.write(img.tobytes())
