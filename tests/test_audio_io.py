"""WAV container round-trips, resampling oracles, truncation, normalization."""

import struct

import numpy as np
import pytest

from vadkit import AudioBuffer, peak_normalize, read_wav, resample, spectrogram, truncate_to, write_wav
from vadkit.errors import (
    EmptySignal,
    InvalidRate,
    InvalidSpec,
    IoFailure,
    MalformedWav,
    OutOfRange,
    UnsupportedFormat,
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


def test_resample_identity():
    buf = AudioBuffer(np.arange(100, dtype=float) / 100, 16000)
    out = resample(buf, 16000)
    assert out.sample_rate_hz == 16000
    assert np.array_equal(out.samples, buf.samples)


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


def test_truncate_prefix():
    buf = AudioBuffer(np.arange(32000, dtype=float), 16000)
    out = truncate_to(buf, 1.0)
    assert len(out) == 16000
    assert np.array_equal(out.samples, np.arange(16000, dtype=float))


def test_truncate_zero_pads():
    buf = AudioBuffer(np.ones(8000), 16000)
    out = truncate_to(buf, 1.0)
    assert len(out) == 16000
    assert np.all(out.samples[:8000] == 1.0)
    assert np.all(out.samples[8000:] == 0.0)


def test_truncate_own_duration_is_identity():
    # exercises durations with inexact binary representation
    for n in (4640, 4960, 16000, 12345):
        buf = AudioBuffer(np.random.default_rng(n).standard_normal(n), 16000)
        out = truncate_to(buf, buf.duration_s)
        assert np.array_equal(out.samples, buf.samples)


def test_truncate_idempotent():
    buf = AudioBuffer(np.arange(10000, dtype=float), 16000)
    once = truncate_to(buf, 0.29)
    twice = truncate_to(once, 0.29)
    assert np.array_equal(once.samples, twice.samples)


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
        truncate_to(buf, 0.0)
    with pytest.raises(InvalidSpec):
        peak_normalize(buf, 1.5)
    assert not (tmp_path / "a.wav").exists()


def test_unwritable_path_is_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="cannot write"):
        write_wav(AudioBuffer(np.zeros(100), 16000), tmp_path / "missing" / "a.wav")
