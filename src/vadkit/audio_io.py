"""WAV decode/encode and canonical buffer operations.

Everything downstream works on mono float64 buffers; this module owns the
conversion from RIFF/WAVE files (PCM16 and FLOAT32 only) plus resampling,
truncation, and peak normalization.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from .artifacts import open_output
from .errors import (
    EmptySignal,
    InvalidRate,
    InvalidSpec,
    IoFailure,
    MalformedWav,
    OutOfRange,
    UnsupportedFormat,
)

_FORMAT_PCM = 1
_FORMAT_FLOAT = 3

_KAISER_BETA = 8.6
_MAX_POLYPHASE_COEFFICIENTS = 2**24  # 128 MiB of float64; 44101 -> 16000 Hz needs 1,024,000


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Mono sample sequence with its sample rate.

    Samples are float64, nominal range [-1, 1]. Instances are treated as
    immutable; operations return new buffers.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise InvalidRate(f"sample rate must be positive, got {self.sample_rate_hz}")
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidSpec(f"AudioBuffer wants a 1-D array, got shape {arr.shape}")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz


@dataclass(frozen=True)
class WavMetadata:
    channel_count: int
    bits_per_sample: int
    sample_rate_hz: int
    frame_count: int


def read_wav(path: str | Path) -> tuple[AudioBuffer, WavMetadata]:
    """Decode a RIFF/WAVE file into a mono buffer.

    Multichannel input is downmixed by the arithmetic mean of channels;
    PCM16 samples are scaled by 1/32768. Chunks other than fmt/data (LIST,
    fact, ...) are skipped.

    Raises:
        IoFailure: file missing or unreadable.
        MalformedWav: broken container or non-finite float samples.
        UnsupportedFormat: format codes other than PCM16 / FLOAT32.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWav(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if body_start + chunk_size > len(raw):
            raise MalformedWav(f"{path}: chunk {chunk_id!r} overruns the file")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedWav(f"{path}: fmt chunk too short ({chunk_size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", raw, body_start)
        elif chunk_id == b"data":
            data = raw[body_start : body_start + chunk_size]
        # RIFF chunks are word-aligned; odd sizes carry a pad byte.
        pos = body_start + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise MalformedWav(f"{path}: missing fmt chunk")
    if data is None:
        raise MalformedWav(f"{path}: missing data chunk")

    format_code, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise MalformedWav(f"{path}: channel count {channels}")
    if rate <= 0:
        raise MalformedWav(f"{path}: sample rate {rate}")
    if format_code == _FORMAT_PCM:
        if bits != 16:
            raise UnsupportedFormat(f"{path}: PCM with {bits} bits (only 16 supported)")
        dtype = np.dtype("<i2")
    elif format_code == _FORMAT_FLOAT:
        if bits != 32:
            raise UnsupportedFormat(f"{path}: float with {bits} bits (only 32 supported)")
        dtype = np.dtype("<f4")
    else:
        raise UnsupportedFormat(f"{path}: format code {format_code} (only 1 and 3 supported)")

    frame_bytes = channels * dtype.itemsize
    if len(data) % frame_bytes != 0:
        raise MalformedWav(f"{path}: data size {len(data)} not a multiple of frame size {frame_bytes}")
    frame_count = len(data) // frame_bytes

    values = np.frombuffer(data, dtype=dtype).astype(np.float64)
    if channels > 1:
        values = values.reshape(-1, channels).mean(axis=1)
    if format_code == _FORMAT_PCM:
        values = values / 32768.0
    if not np.all(np.isfinite(values)):
        raise MalformedWav(f"{path}: non-finite samples in data chunk")

    meta = WavMetadata(
        channel_count=channels,
        bits_per_sample=bits,
        sample_rate_hz=rate,
        frame_count=frame_count,
    )
    return AudioBuffer(values, rate), meta


def write_wav(buffer: AudioBuffer, path: str | Path, format: str = "pcm16") -> None:
    """Encode a buffer as mono PCM16 or FLOAT32 WAV.

    Raises:
        OutOfRange: non-finite samples, |sample| > 1 for pcm16, or a sample
            that float32 cannot hold.
        InvalidSpec: format is neither "pcm16" nor "float32".
        IoFailure: file cannot be written.
    """
    x = buffer.samples
    if not np.all(np.isfinite(x)):
        raise OutOfRange("buffer contains non-finite samples")

    if format == "pcm16":
        if x.size and np.max(np.abs(x)) > 1.0:
            raise OutOfRange("pcm16 requires samples within [-1, 1]")
        payload = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
        header = _wav_header(_FORMAT_PCM, 16, buffer.sample_rate_hz, len(x), len(payload))
    elif format == "float32":
        with np.errstate(over="ignore"):
            x32 = x.astype("<f4")
        if not np.all(np.isfinite(x32)):
            raise OutOfRange("float32 cannot hold samples this large")
        payload = x32.tobytes()
        header = _wav_header(_FORMAT_FLOAT, 32, buffer.sample_rate_hz, len(x), len(payload))
    else:
        raise InvalidSpec(f"unknown WAV format {format!r} (use 'pcm16' or 'float32')")

    with open_output(path) as fh:
        fh.write(header + payload)


def _wav_header(format_code: int, bits: int, rate: int, frames: int, data_bytes: int) -> bytes:
    block_align = bits // 8  # mono
    fmt_body = struct.pack(
        "<HHIIHH", format_code, 1, rate, rate * block_align, block_align, bits
    )
    if format_code == _FORMAT_FLOAT:
        # Non-PCM formats carry the cbSize extension field and a fact chunk.
        fmt_body += struct.pack("<H", 0)
        fact = b"fact" + struct.pack("<II", 4, frames)
    else:
        fact = b""
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + fact
    riff_size = 4 + len(chunks) + 8 + data_bytes
    return b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + chunks + b"data" + struct.pack("<I", data_bytes)


def resample(buffer: AudioBuffer, target_rate_hz: int) -> AudioBuffer:
    """Rate-convert with a polyphase windowed-sinc filter.

    Kaiser window (beta 8.6), 64 taps per phase, cutoff at the lower of the
    two Nyquist frequencies. Output length is ceil(n * target / source) so
    duration is preserved to within one output sample period. A rate pair
    whose table of up x 64 taps would exceed 2**24 raises InvalidSpec.
    """
    if target_rate_hz <= 0:
        raise InvalidRate(f"target rate must be positive, got {target_rate_hz}")
    source_rate = buffer.sample_rate_hz
    if target_rate_hz == source_rate:
        return AudioBuffer(buffer.samples, source_rate)
    if len(buffer) == 0:
        return AudioBuffer(np.zeros(0), target_rate_hz)

    g = math.gcd(source_rate, target_rate_hz)
    up = target_rate_hz // g
    down = source_rate // g
    if up * _kernels.RESAMPLER_TAPS > _MAX_POLYPHASE_COEFFICIENTS:
        raise InvalidSpec(
            f"cannot resample {source_rate} Hz to {target_rate_hz} Hz: the polyphase table would hold "
            f"{up * _kernels.RESAMPLER_TAPS} coefficients, over the limit of {_MAX_POLYPHASE_COEFFICIENTS}"
        )
    phase_taps = _design_polyphase(up, source_rate, target_rate_hz)

    pad = _kernels.RESAMPLER_PAD
    xpad = np.concatenate([np.zeros(pad), buffer.samples, np.zeros(pad)])
    n_out = -(-len(buffer) * up // down)
    y = _kernels.polyphase_filter(xpad, phase_taps, up, down, n_out)
    return AudioBuffer(y, target_rate_hz)


def load_at_rate(path: str | Path, sample_rate_hz: int) -> AudioBuffer:
    """Read a WAV file, resampling only when its rate is not sample_rate_hz."""
    buffer, _ = read_wav(path)
    if buffer.sample_rate_hz != sample_rate_hz:
        buffer = resample(buffer, sample_rate_hz)
    return buffer


def _design_polyphase(up: int, source_rate: int, target_rate_hz: int) -> np.ndarray:
    """Prototype lowpass split into `up` branches of RESAMPLER_TAPS taps."""
    taps = _kernels.RESAMPLER_TAPS
    n = taps * up
    t = (np.arange(n) - (n - 1) / 2.0) / up  # in input-sample units
    cutoff = min(1.0, target_rate_hz / source_rate)  # x input Nyquist
    h = cutoff * np.sinc(cutoff * t) * np.kaiser(n, _KAISER_BETA)
    h /= h.sum()
    phase_taps = np.empty((up, taps))
    for p in range(up):
        phase_taps[p] = h[p::up] * up
    return phase_taps


def frame_samples(samples: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Rows of `win` samples starting every `hop` samples, as a read-only view.

    There are ceil(len / hop) rows and the tail is zero padded, so every
    sample lands in at least one row.
    """
    n = samples.shape[0]
    n_frames = -(-n // hop)
    xpad = np.zeros((n_frames - 1) * hop + win)
    xpad[:n] = samples
    return sliding_window_view(xpad, win)[::hop]


def truncate_to(buffer: AudioBuffer, duration_s: float) -> AudioBuffer:
    """Cut or zero-pad to exactly floor(duration * rate) samples."""
    if duration_s <= 0:
        raise InvalidSpec(f"duration must be positive, got {duration_s}")
    # Guard float rounding so exact durations hit their integer sample count.
    n = int(math.floor(duration_s * buffer.sample_rate_hz + 1e-9))
    x = buffer.samples
    if len(x) >= n:
        out = x[:n]
    else:
        out = np.concatenate([x, np.zeros(n - len(x))])
    return AudioBuffer(out, buffer.sample_rate_hz)


def peak_normalize(buffer: AudioBuffer, target_peak: float = 1.0) -> AudioBuffer:
    """Scale so max |sample| equals target_peak; all-zero input is returned unchanged."""
    if len(buffer) == 0:
        raise EmptySignal("cannot normalize an empty buffer")
    if not 0.0 < target_peak <= 1.0:
        raise InvalidSpec(f"target peak must be in (0, 1], got {target_peak}")
    peak = float(np.max(np.abs(buffer.samples)))
    if peak == 0.0:
        return AudioBuffer(buffer.samples, buffer.sample_rate_hz)
    return AudioBuffer(buffer.samples * (target_peak / peak), buffer.sample_rate_hz)
