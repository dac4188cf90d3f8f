"""WAV decode/encode and canonical buffer operations.

Everything downstream works on mono float64 buffers; this module owns the
conversion from RIFF/WAVE files plus resampling, truncation, and peak
normalization. The reader takes PCM with 16, 24 or 32 bits and IEEE float
with 32 bits, plain or as WAVE_FORMAT_EXTENSIBLE, with any number of
channels, which it averages; the writer emits mono PCM16 or FLOAT32.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
_FORMAT_EXTENSIBLE = 0xFFFE
# A WAVE_FORMAT_EXTENSIBLE fmt chunk holds the 16 bytes of a plain one, then
# cbSize, valid bits, channel mask and a 16-byte subformat GUID. The PCM and
# IEEE-float GUIDs are the format code (1 or 3) followed by this tail.
_EXTENSIBLE_FMT_BYTES = 40
_SUBFORMAT_GUID_TAIL = bytes.fromhex("0000 0000 1000 8000 00aa 0038 9b71")
# PCM sample dtype on disk and full-scale value. 24-bit samples are widened to
# left-justified int32 while decoding, hence 2**31.
_PCM_SAMPLES = {16: (np.dtype("<i2"), 32768.0), 24: (np.dtype("V3"), 2.0**31), 32: (np.dtype("<i4"), 2.0**31)}
_BLOCK_FRAMES = 1 << 16  # frames decoded per block
# Streaming recorders leave a data size of 0xFFFFFFFF, or 0 with a RIFF size
# of 0 or 0xFFFFFFFF, when they cannot seek back to patch the header.
_UNKNOWN_SIZE = 0xFFFFFFFF
_ENDED_EARLY = "{path}: file ended before its chunks did (truncated while being read?)"

_KAISER_BETA = 8.6
# The most samples, or resampler coefficients, that one array sized by a
# setting may hold: 128 MiB of float64. 44101 -> 16000 Hz needs 1,024,000.
SIZE_LIMIT = 2**24
# Output samples per input sample that a resample may make once its output is
# over SIZE_LIMIT. No audio rate pair upsamples by more than 24 (8 -> 192 kHz);
# 0.25 s at 16 kHz taken to 3 GHz would need 6 GB.
_UPSAMPLING_LIMIT = 64


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


def read_wav(path: str | Path, sample_rate_hz: int | None = None) -> tuple[AudioBuffer, WavMetadata]:
    """Decode a RIFF/WAVE file into a mono buffer, at sample_rate_hz when given.

    Reads PCM with 16, 24 or 32 bits and IEEE float with 32 bits, in
    WAVE_FORMAT_PCM / WAVE_FORMAT_IEEE_FLOAT files and in
    WAVE_FORMAT_EXTENSIBLE files whose subformat is PCM or IEEE float.
    Two or more channels are averaged (bit-identical to numpy's mean over
    each frame); mono samples are taken as they are, -0.0 kept. PCM is
    scaled to [-1, 1) by its full-scale value (2**15 for 16 bits, 2**23
    for 24, 2**31 for 32). Chunks other than fmt/data (LIST, fact,
    ...) are skipped. A data chunk whose size a streaming recorder left as
    0xFFFFFFFF, or as 0 in a file whose RIFF size is 0 or 0xFFFFFFFF, runs
    to the end of the file, floored to whole frames. `_decode_into` decodes
    the data chunk straight into the mono output, so the largest array held
    is the result itself.

    When sample_rate_hz differs from the file's rate, `resample`'s polyphase
    filter calls `_decode_into` to fill its input window in place, so no
    array holds the signal at the file's rate; the result is bit-identical
    to resample(read_wav(path)[0], sample_rate_hz). The metadata describes
    the file.

    Raises:
        IoFailure: file missing or unreadable, or a pipe or FIFO, which
            the chunk walk cannot seek in.
        MalformedWav: broken container, a file shorter than its chunks say,
            or non-finite float samples.
        UnsupportedFormat: any other format code, sample width or
            WAVE_FORMAT_EXTENSIBLE subformat.
        InvalidRate, InvalidSpec: as `resample`, before any sample is read.
    """
    try:
        with open(path, "rb") as fh:
            if not fh.seekable():
                raise IoFailure(f"cannot read {path}: it is a pipe or FIFO, and the input must be a file")
            fmt, data_start, data_size, to_end = _find_chunks(fh, path)
            meta, dtype, full_scale = _parse_fmt(fmt, data_size, to_end, path)
            rate = meta.sample_rate_hz if sample_rate_hz is None else sample_rate_hz
            convert = _rate_converter(meta.sample_rate_hz, rate)
            fh.seek(data_start)
            fill = functools.partial(_decode_into, fh, dtype, full_scale, meta.channel_count, path)
            if convert is None:
                samples = np.empty(meta.frame_count)
                fill(samples)
            else:
                samples = convert(fill, meta.frame_count)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return AudioBuffer(samples, rate), meta


def _find_chunks(fh, path) -> tuple[bytes, int, int, bool]:
    """Walk the chunk headers: (fmt body, data offset, data size, whether the data runs to the end).

    The last chunk of each kind counts. A data chunk of unknown size ends
    the walk, and its size is what is left of the file.
    """
    file_size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise MalformedWav(f"{path}: not a RIFF/WAVE file")
    riff_size_unknown = struct.unpack_from("<I", head, 4)[0] in (0, _UNKNOWN_SIZE)

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= file_size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", _read_exact(fh, 8, path))
        body_start = pos + 8
        if chunk_id == b"data" and (chunk_size == _UNKNOWN_SIZE or (chunk_size == 0 and riff_size_unknown)):
            data = (body_start, file_size - body_start, True)
            break
        if body_start + chunk_size > file_size:
            raise MalformedWav(f"{path}: chunk {chunk_id!r} overruns the file")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedWav(f"{path}: fmt chunk too short ({chunk_size} bytes)")
            fmt = _read_exact(fh, min(chunk_size, _EXTENSIBLE_FMT_BYTES), path)
        elif chunk_id == b"data":
            data = (body_start, chunk_size, False)
        # RIFF chunks are word-aligned; odd sizes carry a pad byte.
        pos = body_start + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise MalformedWav(f"{path}: missing fmt chunk")
    if data is None:
        raise MalformedWav(f"{path}: missing data chunk")
    return (fmt, *data)


def _read_exact(fh, size: int, path) -> bytes:
    raw = fh.read(size)
    if len(raw) < size:
        raise MalformedWav(_ENDED_EARLY.format(path=path))
    return raw


def _parse_fmt(fmt: bytes, data_size: int, to_end: bool, path) -> tuple[WavMetadata, np.dtype, float | None]:
    """Metadata, on-disk sample dtype and PCM full-scale value (None for float) of a fmt chunk.

    A data chunk that runs to the end of the file (to_end) drops a partial last frame.
    """
    format_code, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if channels < 1:
        raise MalformedWav(f"{path}: channel count {channels}")
    if rate <= 0:
        raise MalformedWav(f"{path}: sample rate {rate}")
    if format_code == _FORMAT_EXTENSIBLE:
        if len(fmt) < _EXTENSIBLE_FMT_BYTES:
            raise MalformedWav(f"{path}: fmt chunk too short for WAVE_FORMAT_EXTENSIBLE ({len(fmt)} bytes)")
        subformat = fmt[24:_EXTENSIBLE_FMT_BYTES]
        format_code = int.from_bytes(subformat[:2], "little")
        if subformat[2:] != _SUBFORMAT_GUID_TAIL or format_code not in (_FORMAT_PCM, _FORMAT_FLOAT):
            raise UnsupportedFormat(
                f"{path}: WAVE_FORMAT_EXTENSIBLE subformat {subformat.hex()} (only PCM and IEEE float supported)"
            )
    if format_code == _FORMAT_PCM:
        if bits not in _PCM_SAMPLES:
            raise UnsupportedFormat(f"{path}: PCM with {bits} bits (only 16, 24 and 32 supported)")
        dtype, full_scale = _PCM_SAMPLES[bits]
    elif format_code == _FORMAT_FLOAT:
        if bits != 32:
            raise UnsupportedFormat(f"{path}: float with {bits} bits (only 32 supported)")
        dtype, full_scale = np.dtype("<f4"), None
    else:
        raise UnsupportedFormat(f"{path}: format code {format_code} (only 1, 3 and 0xFFFE supported)")

    frame_bytes = channels * dtype.itemsize
    if to_end:
        data_size -= data_size % frame_bytes
    elif data_size % frame_bytes != 0:
        raise MalformedWav(f"{path}: data size {data_size} not a multiple of frame size {frame_bytes}")
    meta = WavMetadata(
        channel_count=channels,
        bits_per_sample=bits,
        sample_rate_hz=rate,
        frame_count=data_size // frame_bytes,
    )
    return meta, dtype, full_scale


def _decode_into(fh, dtype: np.dtype, full_scale: float | None, channels: int, path, dest: np.ndarray) -> None:
    """Decode the next dest.shape[0] frames of the data chunk at fh's position into dest, _BLOCK_FRAMES at a time."""
    for start in range(0, dest.shape[0], _BLOCK_FRAMES):
        piece = dest[start : start + _BLOCK_FRAMES]
        count = piece.shape[0] * channels
        block = np.fromfile(fh, dtype=dtype, count=count)
        if block.shape[0] < count:  # the file shrank after its size was read
            raise MalformedWav(_ENDED_EARLY.format(path=path))
        if dtype.itemsize == 3:  # PCM24: each sample goes in the top three bytes of an int32
            wide = np.zeros((count, 4), dtype=np.uint8)
            wide[:, 1:] = block.view(np.uint8).reshape(count, 3)
            block = wide.view("<i4").reshape(count)
        frames = block.reshape(-1, channels)
        if full_scale is not None:
            _pcm_downmix(frames, piece, full_scale)
            continue
        with np.errstate(invalid="ignore"):  # +inf and -inf in one frame average to NaN, refused below
            _downmix(frames, piece)
        if not np.all(np.isfinite(piece)):
            raise MalformedWav(f"{path}: non-finite samples in data chunk")


def _pcm_downmix(frames: np.ndarray, dest: np.ndarray, full_scale: float) -> None:
    """Average the integer columns of one block into dest, scaled to [-1, 1) by full_scale, a power of two.

    The columns are summed in integers, int32 for 16-bit samples and int64
    for wider ones, so the sum is exact for any channel count and stays
    below 2**53, where float64 holds it exactly. The divide by the channel
    count is then the one rounding, and the scale is exact: bit-identical to
    frames.astype(float64).mean(axis=1) / full_scale, whatever order mean sums in.
    """
    channels = frames.shape[1]
    scale = 1.0 / full_scale
    if channels == 1:
        np.multiply(frames[:, 0], scale, out=dest)
        return
    total = np.add(frames[:, 0], frames[:, 1], dtype=np.int32 if frames.dtype.itemsize == 2 else np.int64)
    for k in range(2, channels):
        total += frames[:, k]
    if channels & (channels - 1):  # dividing by a count that is not a power of two rounds
        np.divide(total, channels, out=dest)
        dest *= scale
    else:
        np.multiply(total, scale / channels, out=dest)


def _downmix(frames: np.ndarray, dest: np.ndarray) -> None:
    """Average the float columns of one block into dest.

    Bit-identical to frames.astype(float64).mean(axis=1) without making that
    float64 copy; a single column is copied as it is.
    """
    channels = frames.shape[1]
    if channels == 1:
        dest[:] = frames[:, 0]
    elif channels < 8:
        # Below 8 values numpy's mean adds a row in order, starting from +0.0.
        np.add(frames[:, 0], frames[:, 1], out=dest, dtype=np.float64)
        for k in range(2, channels):
            dest += frames[:, k]
        dest += 0.0  # so that a frame of -0.0 averages to +0.0, as in mean
        dest /= channels
    else:
        # From 8 values up it may sum pairwise; keep mean for this block.
        frames.astype(np.float64).mean(axis=1, out=dest)


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
    whose table of up x 64 taps would exceed 2**24 raises InvalidSpec, as
    does an output over 2**24 samples that is also over _UPSAMPLING_LIMIT
    times the input.
    """
    convert = _rate_converter(buffer.sample_rate_hz, target_rate_hz)
    if convert is None:
        return AudioBuffer(buffer.samples, target_rate_hz)
    return AudioBuffer(convert(buffer.samples, len(buffer)), target_rate_hz)


def _rate_converter(source_rate: int, target_rate_hz: int):
    """`resample`'s filter as a function of (samples, their count), or None when the rates match.

    The samples are an array or a fill function, as `_kernels.polyphase_filter`
    takes them. A bad target rate or an oversized table raises here, and an
    oversized output when the function is called, before it reads a sample.
    """
    if target_rate_hz <= 0:
        raise InvalidRate(f"target rate must be positive, got {target_rate_hz}")
    if target_rate_hz == source_rate:
        return None
    g = math.gcd(source_rate, target_rate_hz)
    up = target_rate_hz // g
    down = source_rate // g
    if up * _kernels.RESAMPLER_TAPS > SIZE_LIMIT:
        raise InvalidSpec(
            f"cannot resample {source_rate} Hz to {target_rate_hz} Hz: the polyphase table would hold "
            f"{up * _kernels.RESAMPLER_TAPS} coefficients, over the limit of {SIZE_LIMIT}"
        )

    def convert(samples, n):
        n_out = -(-n * up // down)
        if n_out > max(SIZE_LIMIT, _UPSAMPLING_LIMIT * n):
            raise InvalidSpec(
                f"cannot resample {n} samples from {source_rate} Hz to {target_rate_hz} Hz: the {n_out} samples "
                f"out are over the limit of {SIZE_LIMIT} and over {_UPSAMPLING_LIMIT} times the input"
            )
        phase_taps = _design_polyphase(up, source_rate, target_rate_hz)
        return _kernels.polyphase_filter(samples, phase_taps, up, down, n_out, n)

    return convert


def sample_count(name: str, seconds: float, sample_rate_hz: int) -> int:
    """round(seconds * rate); InvalidSpec names the setting unless that product is at most SIZE_LIMIT in magnitude."""
    count = seconds * sample_rate_hz
    if not abs(count) <= SIZE_LIMIT:  # also NaN, either infinity, and a finite length that overflows here
        raise InvalidSpec(f"{name} of {seconds} s at {sample_rate_hz} Hz must come to at most {SIZE_LIMIT} samples")
    return int(round(count))


def _design_polyphase(up: int, source_rate: int, target_rate_hz: int) -> np.ndarray:
    """Prototype lowpass split into `up` branches of RESAMPLER_TAPS taps.

    Built _BLOCK_FRAMES coefficients at a time, with np.kaiser's formula,
    so that the temporaries stay small beside the table.
    """
    taps = _kernels.RESAMPLER_TAPS
    n = taps * up
    centre = (n - 1) / 2.0
    cutoff = min(1.0, target_rate_hz / source_rate)  # x input Nyquist
    h = np.empty(n)
    for k0 in range(0, n, _BLOCK_FRAMES):
        k = np.arange(k0, min(n, k0 + _BLOCK_FRAMES), dtype=np.float64)
        kaiser = np.i0(_KAISER_BETA * np.sqrt(1 - ((k - centre) / centre) ** 2.0)) / np.i0(_KAISER_BETA)
        h[k0 : k0 + k.shape[0]] = cutoff * np.sinc(cutoff * ((k - centre) / up)) * kaiser  # t in input samples
    h /= h.sum()
    return h.reshape(taps, up).T * up  # row p holds h[p::up]


def frame_samples(samples: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Rows of `win` samples starting every `hop` samples, as a read-only view.

    There are ceil(len / hop) rows and the tail is zero padded, so every
    sample lands in at least one row when hop <= win; a longer hop skips
    the samples between rows.
    """
    n = samples.shape[0]
    n_frames = -(-n // hop)
    xpad = np.zeros((n_frames - 1) * hop + win)
    xpad[:n] = samples[: xpad.size]
    return _kernels._windows(xpad, win, hop)


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
