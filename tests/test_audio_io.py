"""WAV container round-trips, resampling oracles, truncation, normalization."""

import math
import os
import resource
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from vadkit import (
    AudioBuffer,
    _kernels,
    audio_io,
    peak_normalize,
    read_wav,
    resample,
    spectrogram,
    write_wav,
)
from vadkit.cli import main
from vadkit.errors import (
    EmptySignal,
    InvalidRate,
    InvalidSpec,
    IoFailure,
    MalformedWav,
    OutOfRange,
    UnsupportedFormat,
    VadKitError,
)


def test_buffer_validates_rate():
    with pytest.raises(InvalidRate):
        AudioBuffer(np.zeros(4), 0)
    with pytest.raises(InvalidRate):
        AudioBuffer(np.zeros(4), -8000)


def test_buffer_duration():
    buf = AudioBuffer(np.zeros(8000), 16000)
    assert buf.duration_s == 0.5
    assert len(buf) == 8000


def test_pcm16_round_trip_quantization(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.99, 0.99, 5000)
    buf = AudioBuffer(x, 16000)
    path = tmp_path / "a.wav"
    write_wav(buf, path, format="pcm16")
    back, meta = read_wav(path)
    assert back.sample_rate_hz == 16000
    assert meta.bits_per_sample == 16
    assert meta.channel_count == 1
    assert meta.frame_count == 5000
    assert np.max(np.abs(back.samples - x)) <= 2.0**-15


def test_pcm16_quarter_round_trips_exactly(tmp_path):
    buf = AudioBuffer(np.full(100, 0.25), 8000)
    path = tmp_path / "q.wav"
    write_wav(buf, path, format="pcm16")
    back, _ = read_wav(path)
    assert np.max(np.abs(back.samples - 0.25)) <= 2.0**-15


def test_float32_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    x = np.asarray(rng.standard_normal(3000), dtype=np.float32).astype(float)
    path = tmp_path / "f.wav"
    write_wav(AudioBuffer(x, 22050), path, format="float32")
    back, meta = read_wav(path)
    assert meta.bits_per_sample == 32
    assert np.array_equal(back.samples, x)


def test_empty_buffer_round_trip(tmp_path):
    path = tmp_path / "e.wav"
    write_wav(AudioBuffer(np.zeros(0), 16000), path, format="pcm16")
    back, meta = read_wav(path)
    assert len(back) == 0
    assert meta.frame_count == 0


def test_zeros_file(tmp_path):
    path = tmp_path / "z.wav"
    write_wav(AudioBuffer(np.zeros(16000), 16000), path, format="pcm16")
    back, _ = read_wav(path)
    assert len(back) == 16000
    assert np.all(back.samples == 0.0)


def test_pcm16_rejects_out_of_range(tmp_path):
    with pytest.raises(OutOfRange):
        write_wav(AudioBuffer(np.array([0.0, 1.5]), 16000), tmp_path / "o.wav", format="pcm16")


def test_write_rejects_non_finite(tmp_path):
    buf = AudioBuffer(np.array([0.0, np.nan, 0.1]), 16000)
    with pytest.raises(OutOfRange):
        write_wav(buf, tmp_path / "n.wav", format="pcm16")
    with pytest.raises(OutOfRange):
        write_wav(buf, tmp_path / "n.wav", format="float32")


def test_float32_rejects_samples_beyond_its_range(tmp_path):
    for big in (1e39, -1e308):
        with pytest.raises(OutOfRange, match="float32"):
            write_wav(AudioBuffer(np.array([0.0, big]), 16000), tmp_path / "o.wav", format="float32")
    assert not (tmp_path / "o.wav").exists()
    top = float(np.finfo(np.float32).max)  # the largest float32 still round-trips
    write_wav(AudioBuffer(np.array([-top, top]), 16000), tmp_path / "top.wav", format="float32")
    back, _ = read_wav(tmp_path / "top.wav")
    assert back.samples.tolist() == [-top, top]


def _stereo_wav_bytes(left, right, rate=16000):
    frames = b"".join(
        struct.pack("<hh", int(l * 32768), int(r * 32768)) for l, r in zip(left, right)
    )
    hdr = b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, rate, rate * 4, 4, 16)
    hdr += b"data" + struct.pack("<I", len(frames))
    return hdr + frames


def test_stereo_downmix_mean(tmp_path):
    path = tmp_path / "st.wav"
    path.write_bytes(_stereo_wav_bytes([0.5] * 50, [-0.5] * 50))
    back, meta = read_wav(path)
    assert meta.channel_count == 2
    assert meta.frame_count == 50
    assert np.max(np.abs(back.samples)) == 0.0


def test_reader_skips_extra_chunks(tmp_path):
    # LIST chunk with odd payload (pad byte) between fmt and data
    data = struct.pack("<3h", 1000, -1000, 0)
    payload = b"xyz"
    raw = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
    raw += b"LIST" + struct.pack("<I", len(payload)) + payload + b"\x00"
    raw += b"data" + struct.pack("<I", len(data)) + data
    blob = b"RIFF" + struct.pack("<I", 4 + len(raw)) + b"WAVE" + raw
    path = tmp_path / "lst.wav"
    path.write_bytes(blob)
    back, meta = read_wav(path)
    assert meta.frame_count == 3
    assert back.samples[0] == pytest.approx(1000 / 32768)


def test_reader_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(MalformedWav):
        read_wav(path)


def test_reader_rejects_unsupported_codec(tmp_path):
    raw = b"fmt " + struct.pack("<IHHIIHH", 16, 7, 1, 8000, 8000, 1, 8)  # mu-law
    raw += b"data" + struct.pack("<I", 0)
    blob = b"RIFF" + struct.pack("<I", 4 + len(raw)) + b"WAVE" + raw
    path = tmp_path / "mu.wav"
    path.write_bytes(blob)
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_reader_rejects_truncated_data(tmp_path):
    raw = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
    raw += b"data" + struct.pack("<I", 100) + b"\x00" * 10  # promises 100, holds 10
    blob = b"RIFF" + struct.pack("<I", 4 + len(raw)) + b"WAVE" + raw
    path = tmp_path / "tr.wav"
    path.write_bytes(blob)
    with pytest.raises(MalformedWav):
        read_wav(path)


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_wav(tmp_path / "absent.wav")


# KSDATAFORMAT_SUBTYPE_PCM and _IEEE_FLOAT: the format code, then this tail.
_GUID_TAIL = bytes.fromhex("0000 0000 1000 8000 00aa 0038 9b71")


def _fmt(code, channels, bits, rate=16000, subformat=None):
    """A fmt chunk body; with subformat, a WAVE_FORMAT_EXTENSIBLE one carrying that code's GUID."""
    width = channels * bits // 8
    body = struct.pack("<HHIIHH", code, channels, rate, rate * width, width, bits)
    if subformat is not None:  # cbSize, valid bits, channel mask, subformat GUID
        body += struct.pack("<HHIH", 22, bits, 0, subformat) + _GUID_TAIL
    return body


def _wav(fmt_body, data, extra=b""):
    """RIFF/WAVE bytes: a fmt chunk, the chunks in extra, then the data chunk."""
    body = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + extra
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _pcm_bytes(frames, bits):
    """Samples in [-1, 1) rounded to signed little-endian PCM of the given width."""
    q = np.round(frames * 2.0 ** (bits - 1)).astype("<i8")
    return q.view(np.uint8).reshape(-1, 8)[:, : bits // 8].tobytes()


@pytest.mark.parametrize(
    "fmt_body, data, error, message",
    [  # format code 1 is PCM
        (_fmt(1, 0, 16), b"", MalformedWav, "channel count 0"),
        (_fmt(1, 1, 16, rate=0), b"\x00\x00", MalformedWav, "sample rate 0"),
        (_fmt(1, 1, 8), b"\x80" * 4, UnsupportedFormat, "PCM with 8 bits"),
        (_fmt(1, 2, 16), b"\x00" * 6, MalformedWav, "not a multiple of frame size 4"),
    ],
    ids=["no-channels", "rate-0", "pcm8", "partial-frame"],
)
def test_reader_refuses_bad_fmt_fields(tmp_path, fmt_body, data, error, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(_wav(fmt_body, data))
    with pytest.raises(error, match=message):
        read_wav(path)


@pytest.mark.parametrize("channels", range(1, 11))
def test_downmix_is_bit_identical_to_numpy_mean(tmp_path, channels):
    """Blocks and in-order sums give what one mean over every frame gives,
    including frames of -0.0, which average to +0.0. Mono is not averaged."""
    rng = np.random.default_rng(channels)
    n = audio_io._BLOCK_FRAMES + 3  # one full block and a short one
    ints = rng.integers(-32768, 32768, (n, channels)).astype("<i2")
    floats = (rng.standard_normal((n, channels)) * rng.uniform(0, 4, (n, 1))).astype("<f4")
    floats[:4] = -0.0
    floats[4:8, 0] = -0.0
    floats[8:12] = 0.0
    (tmp_path / "i.wav").write_bytes(_wav(_fmt(1, channels, 16), ints.tobytes()))
    (tmp_path / "f.wav").write_bytes(_wav(_fmt(3, channels, 32), floats.tobytes()))
    for name, frames, full_scale in (("i.wav", ints, 32768.0), ("f.wav", floats, 1.0)):
        want = frames.astype(np.float64)
        if channels > 1:
            want = want.mean(axis=1)
        got, _ = read_wav(tmp_path / name)
        assert got.samples.tobytes() == (want.reshape(-1) / full_scale).tobytes()


@pytest.mark.parametrize("bits", (16, 24, 32))
@pytest.mark.parametrize("channels", (2, 3, 8, 10, 64))
def test_pcm_downmix_is_exact_at_full_scale(tmp_path, bits, channels):
    """The integer column sums are exact at every width: frames at the most
    negative and most positive codes average as one float mean does."""
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    ints = np.random.default_rng(bits * channels).integers(lo, hi + 1, (300, channels))
    ints[:100], ints[100:200] = lo, hi
    ints[200:210] = np.where(np.arange(channels) % 2, hi, lo)
    data = ints.astype("<i8").view(np.uint8).reshape(-1, 8)[:, : bits // 8].tobytes()
    (tmp_path / "x.wav").write_bytes(_wav(_fmt(1, channels, bits), data))
    got, _ = read_wav(tmp_path / "x.wav")
    assert got.samples.tobytes() == (ints.astype(np.float64).mean(axis=1) / 2.0 ** (bits - 1)).tobytes()


def test_pcm16_downmix_of_the_most_channels_a_header_holds(tmp_path):
    """65,535 channels at -32768 sum to -2,147,450,880, which int32 still holds."""
    channels = 65535
    ints = np.array([[-32768] * channels, [32767] * channels, [-32768, 32767] * (channels // 2) + [0]])
    fmt_body = struct.pack("<HHIIHH", 1, channels, 16000, 0, 0, 16)  # byte rate and block align are not read
    (tmp_path / "x.wav").write_bytes(_wav(fmt_body, ints.astype("<i2").tobytes()))
    got, _ = read_wav(tmp_path / "x.wav")
    assert got.samples.tolist() == (ints.astype(np.float64).mean(axis=1) / 32768.0).tolist()
    assert got.samples[0] == -1.0


@pytest.mark.parametrize("channels", (1, 2, 3))
def test_wider_pcm_and_extensible_decode_like_their_twins(tmp_path, channels):
    rng = np.random.default_rng(channels)
    frames = rng.uniform(-0.99, 0.99, (audio_io._BLOCK_FRAMES + 100, channels))
    mean = frames.mean(axis=1)

    def read(name, fmt_body, data):
        (tmp_path / name).write_bytes(_wav(fmt_body, data))
        buf, meta = read_wav(tmp_path / name)
        assert (meta.channel_count, meta.frame_count) == (channels, len(frames))
        return buf.samples

    pcm16 = read("16.wav", _fmt(1, channels, 16), _pcm_bytes(frames, 16))
    for bits in (24, 32):
        data = _pcm_bytes(frames, bits)
        pcm = read(f"{bits}.wav", _fmt(1, channels, bits), data)
        assert np.max(np.abs(pcm - mean)) <= 2.0**-bits + 1e-15  # half a step of its own width
        assert np.max(np.abs(pcm - pcm16)) <= 2.0**-15  # one PCM16 step
        ext = read(f"ext{bits}.wav", _fmt(0xFFFE, channels, bits, subformat=1), data)
        assert ext.tobytes() == pcm.tobytes()
    assert read("ext16.wav", _fmt(0xFFFE, channels, 16, subformat=1), _pcm_bytes(frames, 16)).tobytes() == (
        pcm16.tobytes()
    )
    f32 = frames.astype("<f4").tobytes()
    flt = read("f.wav", _fmt(3, channels, 32), f32)
    assert read("extf.wav", _fmt(0xFFFE, channels, 32, subformat=3), f32).tobytes() == flt.tobytes()


def test_unknown_extensible_subformat_exits_2(tmp_path, monkeypatch):
    data = np.zeros(8, "<i2").tobytes()
    alaw = _fmt(0xFFFE, 1, 16, subformat=6)
    other_guid = _fmt(0xFFFE, 1, 16, subformat=1)[:-1] + b"\x00"
    for name, fmt_body in (("alaw.wav", alaw), ("other.wav", other_guid)):
        (tmp_path / name).write_bytes(_wav(fmt_body, data))
        with pytest.raises(UnsupportedFormat, match="subformat"):
            read_wav(tmp_path / name)
    (tmp_path / "short.wav").write_bytes(_wav(_fmt(0xFFFE, 1, 16) + b"\x00\x00", data))
    with pytest.raises(MalformedWav, match="EXTENSIBLE"):
        read_wav(tmp_path / "short.wav")
    monkeypatch.chdir(tmp_path)
    assert main(["detect", "alaw.wav"]) == 2


@pytest.mark.parametrize("channels", (2, 9))
def test_opposite_infinities_in_a_frame_exit_2_without_a_warning(tmp_path, monkeypatch, capsys, channels):
    """+inf and -inf in one float frame average to NaN: refused as non-finite,
    with no numpy RuntimeWarning from the downmix on either of its paths."""
    frames = np.zeros((100, channels), "<f4")
    frames[10, :2] = np.inf, -np.inf
    (tmp_path / "inf.wav").write_bytes(_wav(_fmt(3, channels, 32), frames.tobytes()))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["detect", "inf.wav"]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "non-finite samples" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("channels, bits", ((1, 16), (2, 24)))
def test_streaming_placeholder_sizes_read_to_the_end(tmp_path, channels, bits):
    """A data size of 0xFFFFFFFF, or 0 under a RIFF size of 0 or 0xFFFFFFFF,
    reads like the file with the true sizes; a partial last frame is dropped."""
    frames = np.random.default_rng(bits).uniform(-0.9, 0.9, (3000, channels))
    blob = _wav(_fmt(1, channels, bits), _pcm_bytes(frames, bits), extra=b"LIST" + struct.pack("<I", 4) + b"INFO")
    (tmp_path / "true.wav").write_bytes(blob)
    want, want_meta = read_wav(tmp_path / "true.wav")
    data_size_at = len(blob) - frames.size * bits // 8 - 4
    for riff_size, data_size in ((None, 0xFFFFFFFF), (0, 0xFFFFFFFF), (0, 0), (0xFFFFFFFF, 0)):
        patched = bytearray(blob + b"\x01")  # a partial frame at the end
        if riff_size is not None:
            patched[4:8] = struct.pack("<I", riff_size)
        patched[data_size_at : data_size_at + 4] = struct.pack("<I", data_size)
        path = tmp_path / f"stream_{riff_size}_{data_size}.wav"
        path.write_bytes(bytes(patched))
        got, meta = read_wav(path)
        assert meta == want_meta
        assert got.samples.tobytes() == want.samples.tobytes()


def test_empty_data_chunk_before_another_chunk_reads_as_empty(tmp_path):
    """A data size of 0 with a true RIFF size is an empty clip, not a placeholder."""
    fmt_body = _fmt(1, 1, 16)
    body = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body + b"data" + struct.pack("<I", 0)
    body += b"LIST" + struct.pack("<I", 8) + b"INFOabcd"
    (tmp_path / "e.wav").write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    buf, meta = read_wav(tmp_path / "e.wav")
    assert meta.frame_count == 0
    assert len(buf) == 0


def test_file_that_shrinks_while_read_is_malformed(tmp_path, monkeypatch):
    blob = _wav(_fmt(1, 2, 16), np.zeros(2 * audio_io._BLOCK_FRAMES, "<i2").tobytes())
    path = tmp_path / "s.wav"
    path.write_bytes(blob[:-1000])
    # The size read before the data was: the whole file.
    monkeypatch.setattr(audio_io.os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
    with pytest.raises(MalformedWav, match="ended"):
        read_wav(path)


def test_read_error_in_data_is_io_failure(tmp_path, monkeypatch):
    path = tmp_path / "e.wav"
    write_wav(AudioBuffer(np.zeros(100), 16000), path)

    def fail(*args, **kwargs):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(audio_io.np, "fromfile", fail)
    with pytest.raises(IoFailure, match="cannot read"):
        read_wav(path)


def _chunk_headers(blob):
    """Offsets of every chunk header, the RIFF header first."""
    offsets = [0]
    pos = 12
    while pos + 8 <= len(blob):
        offsets.append(pos)
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        pos += 8 + size + (size & 1)
    return offsets


_FUZZ_BASES = {
    "pcm16-stereo": _wav(_fmt(1, 2, 16), np.arange(-200, 200, dtype="<i2").tobytes()),
    "float32-mono-list": _wav(
        _fmt(3, 1, 32) + b"\x00\x00",
        np.linspace(-1, 1, 50, dtype="<f4").tobytes(),
        extra=b"LIST" + struct.pack("<I", 5) + b"INFOx\x00",
    ),
}
_CHUNK_IDS = st.sampled_from([b"RIFF", b"WAVE", b"fmt ", b"data", b"LIST", b"fact", b"\x00" * 4])
_SIZES = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2, 15, 16, 17, 18, 40, 2**31, 2**32 - 1]))
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("byte"), st.integers(0, 79), st.integers(0, 255)),
        st.tuples(st.just("id"), st.integers(0, 9), _CHUNK_IDS),
        st.tuples(st.just("size"), st.integers(0, 9), _SIZES),
        st.tuples(st.just("size-step"), st.integers(0, 9), st.integers(-9, 9)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(sorted(_FUZZ_BASES)), mutations=_MUTATIONS, cut=st.none() | st.integers(0, 300))
def test_mutated_headers_decode_or_raise_vadkit_error(base, mutations, cut):
    blob = bytearray(_FUZZ_BASES[base])
    headers = _chunk_headers(blob)
    for kind, where, value in mutations:
        if kind == "byte":
            blob[where % len(blob)] = value
            continue
        at = headers[where % len(headers)]
        if kind == "id":
            blob[at : at + 4] = value
        else:
            (size,) = struct.unpack_from("<I", blob, at + 4)
            size = value if kind == "size" else (size + value) % 2**32
            blob[at + 4 : at + 8] = struct.pack("<I", size)
    if cut is not None:
        del blob[cut:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.wav"
        path.write_bytes(blob)
        try:
            buf, meta = read_wav(path)
        except VadKitError as exc:
            event(type(exc).__name__)
            return
    event("decoded")
    assert len(buf) == meta.frame_count
    assert np.all(np.isfinite(buf.samples))


def test_read_wav_holds_one_mono_array(tmp_path):
    """Peak traced memory: the float64 result plus one block's temporaries,
    not the file's bytes or a float64 copy of every channel."""
    n = 441000  # 10 s of stereo 44.1 kHz
    data = np.random.default_rng(8).integers(-32768, 32768, 2 * n).astype("<i2").tobytes()
    path = tmp_path / "long.wav"
    path.write_bytes(_wav(_fmt(1, 2, 16, rate=44100), data))
    tracemalloc.start()
    try:
        buf, _ = read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buf) == n
    block = audio_io._BLOCK_FRAMES * 2 * 8  # one block of both channels, as float64
    assert peak < 8 * n + block, peak


def test_resample_holds_no_copy_of_its_input():
    """Peak traced memory on 10 s of 44.1 kHz: the output plus a constant (the
    filter design, the group matrices and the few windows that cross an end),
    less than one chunk's windows or a copy of the input would take."""
    x = np.random.default_rng(9).standard_normal(10 * 44100)
    constant = 1 << 20
    assert constant < min(x.nbytes, _kernels._CHUNK_ROWS * 441 * 8)  # 44100 -> 16000 Hz moves 441 samples a row
    buffer = AudioBuffer(x, 44100)
    tracemalloc.start()
    try:
        out = resample(buffer, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.samples.nbytes + constant, peak


_RATE_PAIRS = ((44100, 16000), (48000, 16000), (22050, 16000), (8000, 16000))
_BLOCKED_FORMATS = ("pcm16", "pcm24", "pcm32", "float32", "extensible-pcm24", "streaming-pcm16")


def _format_bytes(kind, frames, rate):
    """A WAV of frames (n x channels, within [-1, 1)) in one of _BLOCKED_FORMATS."""
    channels = frames.shape[1]
    if kind == "float32":
        return _wav(_fmt(3, channels, 32, rate), frames.astype("<f4").tobytes())
    bits = int(kind[-2:])
    subformat = 1 if kind.startswith("extensible") else None
    blob = _wav(_fmt(0xFFFE if subformat else 1, channels, bits, rate, subformat), _pcm_bytes(frames, bits))
    if kind.startswith("streaming"):  # the data size a recorder leaves when it cannot seek back
        at = len(blob) - frames.size * bits // 8 - 4
        blob = blob[:at] + struct.pack("<I", 0xFFFFFFFF) + blob[at + 4 :]
    return blob


@pytest.mark.parametrize("kind", _BLOCKED_FORMATS)
@pytest.mark.parametrize("source, target", _RATE_PAIRS)
def test_blocked_read_equals_resample_of_the_read(tmp_path, source, target, kind):
    """read_wav(path, rate) feeds the decoder's blocks straight to the polyphase
    filter; it must equal resample(read_wav(path)[0], rate) bit for bit at
    lengths around the tap count, the decoder block and one product's span
    of input, for 1, 2, 3 and 10 channels."""
    down = source // math.gcd(source, target)
    block, span, taps = audio_io._BLOCK_FRAMES, _kernels._CHUNK_ROWS * down, _kernels.RESAMPLER_TAPS
    shift = _BLOCKED_FORMATS.index(kind)
    cases = [(n, (1, 2, 3, 10)[(i + shift) % 4]) for i, n in enumerate((0, 1, taps - 1, block - 1, block, block + 1))]
    cases += [(span - 1, 2), (span + 1, 1)]
    rng = np.random.default_rng([source, shift])
    for n, channels in cases:
        path = tmp_path / f"{n}_{channels}.wav"
        path.write_bytes(_format_bytes(kind, rng.uniform(-0.99, 0.99, (n, channels)), source))
        blocked, meta = read_wav(path, target)
        whole, whole_meta = read_wav(path)
        assert meta == whole_meta
        assert blocked.sample_rate_hz == target
        assert blocked.samples.tobytes() == resample(whole, target).samples.tobytes(), (n, channels)
        path.unlink()


@pytest.mark.parametrize("fault", ("truncated", "non-finite"))
def test_blocked_read_fault_in_a_later_block_exits_2(tmp_path, monkeypatch, capsys, fault):
    """A file that ends early or holds a non-finite float after the first
    product's span is refused, with no output, while resampling."""
    frames = np.zeros((3 * _kernels._CHUNK_ROWS * 441, 2))
    if fault == "non-finite":
        frames[-5, 1] = np.inf
    blob = _format_bytes("float32", frames, 44100)
    (tmp_path / "in.wav").write_bytes(blob[:-1000] if fault == "truncated" else blob)
    if fault == "truncated":  # the size read before the data was: the whole file
        monkeypatch.setattr(audio_io.os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
    monkeypatch.chdir(tmp_path)
    assert main(["detect", "in.wav", "--out", "out.json"]) == 2
    assert ("ended" if fault == "truncated" else "non-finite samples") in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("seconds", (10, 30))
def test_blocked_read_holds_one_product_span_of_input(tmp_path, seconds):
    """Peak traced memory of reading 44.1 kHz stereo at 16 kHz: the output,
    one product's span of input (1024 rows of 441 samples), one block of
    both channels as float64 and a constant, the same at both lengths."""
    n = seconds * 44100
    data = np.random.default_rng(seconds).integers(-32768, 32768, 2 * n).astype("<i2").tobytes()
    path = tmp_path / "long.wav"
    path.write_bytes(_wav(_fmt(1, 2, 16, rate=44100), data))
    del data
    tracemalloc.start()
    try:
        buf, _ = read_wav(path, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buf) == -(-n * 160 // 441)
    bound = buf.samples.nbytes + _kernels._CHUNK_ROWS * 441 * 8 + audio_io._BLOCK_FRAMES * 2 * 8 + (1 << 20)
    assert peak < bound, (peak, bound)


# Rate pairs at which the windows leave samples unread: 64 of every 200, and of every 96.
_GAP_PAIRS = ((40000, 200), (96000, 1000))


@pytest.mark.parametrize("source, target", _GAP_PAIRS)
def test_blocked_read_through_gaps_equals_resample_of_the_read(tmp_path, source, target):
    """The filter reads and drops the samples that no window needs, between
    the windows of two products and after the last window; the result is
    still resample(read_wav(path)[0], rate) bit for bit."""
    down = source // math.gcd(source, target)
    span = _kernels._CHUNK_ROWS * down
    rng = np.random.default_rng(down)
    cases = ((1, 1), (down - 1, 2), (span + 5, 3), (2 * span + down // 2, 10), (3 * span + 7, 1))
    for kind in ("pcm16", "float32", "pcm24"):
        for n, channels in cases:
            path = tmp_path / f"{kind}_{n}_{channels}.wav"
            path.write_bytes(_format_bytes(kind, rng.uniform(-0.99, 0.99, (n, channels)), source))
            assert read_wav(path, target)[0].samples.tobytes() == (
                resample(read_wav(path)[0], target).samples.tobytes()
            ), (kind, n, channels)
            path.unlink()


@pytest.mark.parametrize("where", ("gap", "tail"))
@pytest.mark.parametrize("source, target", _GAP_PAIRS)
def test_non_finite_sample_that_no_window_reads_is_refused(tmp_path, source, target, where):
    """A float32 inf between the windows of two products, or after the last
    window, still raises MalformedWav while resampling."""
    down = source // math.gcd(source, target)  # up is 1: row j's window starts at first + j * down
    taps = _kernels.RESAMPLER_TAPS
    first = taps // 2 - (taps - 1)
    n = 3 * _kernels._CHUNK_ROWS * down
    rows = -(-n // down)
    if where == "gap":  # after the window of the last row of one product, before the next product's
        at = first + _kernels._CHUNK_ROWS * down + taps + 3
        assert (at - first) % down >= taps  # between two windows
    else:
        at = n - 5
        assert at >= first + (rows - 1) * down + taps  # after the last window
    frames = np.zeros((n, 2))
    frames[at, 1] = np.inf
    path = tmp_path / "inf.wav"
    path.write_bytes(_format_bytes("float32", frames, source))
    with pytest.raises(MalformedWav, match="non-finite samples"):
        read_wav(path, target)


@pytest.mark.parametrize("source, target", ((44100, 16000), (48000, 16000), (22050, 16000), (8000, 16000),
                                            (176400, 16000), (16000, 44100)))
def test_band_limit_leaves_common_groups_alone(source, target):
    down = source // math.gcd(source, target)
    assert (_kernels._GROUP_COLUMNS - 1) * down <= _kernels._BAND_LIMIT


def test_resample_from_a_megahertz_rate_holds_bounded_bands():
    """1,000,003 -> 16,000 Hz: groups of 64 columns would hold 250 matrices of
    about 2 MB each; narrowed groups keep the peak under 64 MB."""
    x = np.random.default_rng(11).standard_normal(1000)
    tracemalloc.start()
    try:
        out = resample(AudioBuffer(x, 1000003), 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == -(-1000 * 16000 // 1000003)
    assert peak < 64 << 20, peak


def test_read_from_a_megahertz_rate_holds_a_bounded_window(tmp_path):
    """read_wav of 3 s of 1,000,003 Hz mono PCM16 at 16 kHz. Products of 1024
    rows spanned about 2 M input samples each here, and the read peaked at
    46.0 MB of traced memory. Products of at most _CHUNK_SPAN input samples,
    with at most _BANDS_HELD group matrices held, peak at 17.0 MB: the
    polyphase table (8.2 MB), the list of 24,000 products (6.2 MB), and the window."""
    rate = 1_000_003
    assert _kernels._CHUNK_SPAN // (rate // math.gcd(rate, 16000)) == 0  # one row per product
    samples = np.random.default_rng(12).integers(-3000, 3000, 3 * rate).astype("<i2")
    path = tmp_path / "mhz.wav"
    path.write_bytes(_wav(_fmt(1, 1, 16, rate), samples.tobytes()))
    tracemalloc.start()
    try:
        buf, _ = read_wav(path, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buf) == 48000
    assert peak < 24e6, peak


@pytest.mark.parametrize("source, target", ((44100, 16000), (48000, 16000), (22050, 16000), (11025, 16000),
                                            (8000, 16000), (96000, 1000), (176400, 16000), (8000, 44100)))
def test_common_rate_pairs_keep_1024_rows_per_product(source, target):
    down = source // math.gcd(source, target)
    assert min(_kernels._CHUNK_ROWS, _kernels._CHUNK_SPAN // down) == 1024


def test_detect_on_a_gigahertz_header_does_not_exhaust_memory(tmp_path):
    """A 1000-frame PCM16 file whose header says 4,294,967,291 Hz: detect ends
    in exit 0 or 2, within a 3 GB address space, never in an internal error."""
    fmt = struct.pack("<HHIIHH", 1, 1, 4294967291, 0, 2, 16)
    (tmp_path / "ghz.wav").write_bytes(_wav(fmt, np.zeros(1000, "<i2").tobytes()))
    src = str(Path(audio_io.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "vadkit.cli", "detect", "ghz.wav", "--out", "ghz.json"],
        cwd=tmp_path, env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode in (0, 2), done.stderr


def test_an_upsampled_output_over_the_limit_is_refused_before_it_is_made(tmp_path):
    """16 kHz to 3 GHz makes 187,500 samples of each input sample: 0.25 s would need 6 GB."""
    with pytest.raises(InvalidSpec, match="over 64 times the input"):
        resample(AudioBuffer(np.zeros(4000), 16000), 3_000_000_000)
    write_wav(AudioBuffer(np.zeros(4000), 16000), tmp_path / "short.wav")
    with pytest.raises(InvalidSpec, match="over 64 times the input"):
        read_wav(tmp_path / "short.wav", 3_000_000_000)


def test_resample_identity():
    buf = AudioBuffer(np.arange(100, dtype=float) / 100, 16000)
    out = resample(buf, 16000)
    assert out.sample_rate_hz == 16000
    assert np.array_equal(out.samples, buf.samples)


@pytest.mark.parametrize("source, target", [(44100, 16000), (16000, 44100), (8000, 16000)])
def test_resample_empty_in_empty_out_at_the_target_rate(source, target):
    out = resample(AudioBuffer(np.zeros(0), source), target)
    assert out.sample_rate_hz == target
    assert out.samples.shape == (0,)


def test_resample_rejects_bad_rate():
    buf = AudioBuffer(np.zeros(10), 16000)
    with pytest.raises(InvalidRate):
        resample(buf, 0)
    with pytest.raises(InvalidRate):
        resample(buf, -44100)


def test_resample_length_and_duration():
    buf = AudioBuffer(np.zeros(44100), 44100)
    out = resample(buf, 16000)
    assert out.sample_rate_hz == 16000
    assert len(out) == 16000  # ceil(44100 * 160/441)
    assert abs(out.duration_s - buf.duration_s) <= 1.0 / 16000
    # Lengths that do not divide exactly round up.
    assert len(resample(AudioBuffer(np.zeros(1000), 44100), 16000)) == 363
    assert len(resample(AudioBuffer(np.zeros(7), 3), 2)) == 5


def test_resample_dc_preserved():
    buf = AudioBuffer(np.full(44100, 0.5), 44100)
    out = resample(buf, 16000)
    interior = out.samples[100:-100]
    assert np.max(np.abs(interior - 0.5)) < 1e-3


def _tone_peak_bin(buffer, fft_size=1024):
    m = spectrogram(buffer, fft_size=fft_size, hop_samples=fft_size // 2)
    rows = m.magnitudes_db[1:-2]  # frames fully inside the signal
    return set(int(r.argmax()) for r in rows)


def test_resample_tone_bin_preserved_down():
    fs = 48000
    t = np.arange(fs) / fs
    buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000.0 * t), fs)
    out = resample(buf, 16000)
    # 1 kHz at 16 kHz with fft 1024 lands exactly on bin 64
    assert _tone_peak_bin(out) == {64}


def test_resample_tone_bin_preserved_round_trip():
    fs = 16000
    t = np.arange(fs) / fs
    buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 1000.0 * t), fs)
    out = resample(resample(buf, 48000), 16000)
    assert _tone_peak_bin(out) == {64}


def test_peak_normalize_scales():
    buf = AudioBuffer(np.array([0.1, -0.5, 0.25]), 16000)
    out = peak_normalize(buf, 1.0)
    assert np.allclose(out.samples, [0.2, -1.0, 0.5])


def test_peak_normalize_hits_target():
    rng = np.random.default_rng(3)
    buf = AudioBuffer(rng.standard_normal(1000), 16000)
    out = peak_normalize(buf, 0.9)
    assert abs(np.max(np.abs(out.samples)) - 0.9) < 1e-12


def test_peak_normalize_zero_guard():
    buf = AudioBuffer(np.zeros(100), 16000)
    out = peak_normalize(buf, 0.9)
    assert np.all(out.samples == 0.0)


def test_peak_normalize_empty_rejected():
    with pytest.raises(EmptySignal):
        peak_normalize(AudioBuffer(np.zeros(0), 16000), 0.9)


def test_bad_arguments_raise_invalid_spec(tmp_path):
    buf = AudioBuffer(np.zeros(100), 16000)
    with pytest.raises(InvalidSpec):
        AudioBuffer(np.zeros((2, 50)), 16000)
    with pytest.raises(InvalidSpec):
        write_wav(buf, tmp_path / "a.wav", format="pcm24")
    with pytest.raises(InvalidSpec):
        peak_normalize(buf, 1.5)
    assert not (tmp_path / "a.wav").exists()


def test_unwritable_path_is_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="cannot write"):
        write_wav(AudioBuffer(np.zeros(100), 16000), tmp_path / "missing" / "a.wav")
