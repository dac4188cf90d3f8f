"""STFT magnitudes, bin localization, floor behavior, and export formats."""

import math

import numpy as np
import pytest

from vadkit import AudioBuffer, spectrogram
from vadkit.errors import EmptySignal, InvalidFft
from vadkit.spectrogram import DB_FLOOR, hann_window, to_json_dict, write_long_csv, write_pgm


def _tone(freq_hz, fs=16000, seconds=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return AudioBuffer(0.5 * np.sin(2 * np.pi * freq_hz * t), fs)


def test_tone_bin_localization():
    m = spectrogram(_tone(1000.0), fft_size=1024, hop_samples=512)
    # 1000 Hz / (16000/1024) = bin 64 exactly
    full = m.magnitudes_db[1:-2]
    assert all(int(row.argmax()) == 64 for row in full)


def test_off_grid_tone_lands_within_one_bin():
    m = spectrogram(_tone(1007.0), fft_size=1024, hop_samples=512)
    full = m.magnitudes_db[1:-2]
    target = 1007.0 / (16000 / 1024)
    for row in full:
        assert abs(int(row.argmax()) - target) <= 1.0


def test_frame_count_and_padding():
    fs = 16000
    for n in (100, 512, 513, 1024, 5000):
        m = spectrogram(AudioBuffer(np.ones(n), fs), fft_size=1024, hop_samples=512)
        assert m.frame_count == math.ceil(n / 512)
        assert m.bin_count == 513


def test_hop_longer_than_fft_skips_samples_between_frames():
    x = np.random.default_rng(0).standard_normal(100)
    m = spectrogram(AudioBuffer(x, 16000), fft_size=16, hop_samples=40)
    assert m.frame_count == 3
    frames = [x[0:16], x[40:56], x[80:96]]
    floor = 10.0 ** (DB_FLOOR / 20.0)
    expected = [20.0 * np.log10(np.maximum(np.abs(np.fft.rfft(f * hann_window(16))), floor)) for f in frames]
    np.testing.assert_array_equal(m.magnitudes_db, expected)


def test_silence_sits_at_floor():
    m = spectrogram(AudioBuffer(np.zeros(2048), 16000))
    assert np.all(m.magnitudes_db == DB_FLOOR)


def test_impulse_frame_is_flat():
    # a single impulse scales every bin by the window sample at its position
    x = np.zeros(1024)
    x[512] = 1.0
    m = spectrogram(AudioBuffer(x, 16000), fft_size=1024, hop_samples=1024)
    row = m.magnitudes_db[0]
    expected = 20.0 * math.log10(hann_window(1024)[512])
    assert np.max(np.abs(row - expected)) < 1e-9


def test_axis_helpers():
    m = spectrogram(_tone(500.0), fft_size=1024, hop_samples=512)
    times = m.times_s()
    freqs = m.freqs_hz()
    assert times[0] == 0.0
    assert times[1] == pytest.approx(512 / 16000)
    assert freqs[1] == pytest.approx(16000 / 1024)
    assert freqs[-1] == pytest.approx(8000.0)


def test_validation():
    buf = AudioBuffer(np.ones(100), 16000)
    with pytest.raises(InvalidFft):
        spectrogram(buf, fft_size=1000)
    with pytest.raises(InvalidFft):
        spectrogram(buf, fft_size=0)
    with pytest.raises(InvalidFft):
        spectrogram(buf, fft_size=1024, hop_samples=0)
    with pytest.raises(InvalidFft, match="over the limit"):
        spectrogram(buf, fft_size=2**25)
    with pytest.raises(EmptySignal):
        spectrogram(AudioBuffer(np.zeros(0), 16000))


def test_json_dict_shape():
    m = spectrogram(_tone(1000.0, seconds=0.2))
    d = to_json_dict(m)
    assert d["fft_size"] == 1024
    assert d["hop_samples"] == 512
    assert d["sample_rate_hz"] == 16000
    assert len(d["magnitudes_db"]) == d["frame_count"]
    assert len(d["magnitudes_db"][0]) == d["bin_count"]


def test_long_csv(tmp_path):
    m = spectrogram(_tone(1000.0, seconds=0.1))
    write_long_csv(m, tmp_path / "long.csv")
    lines = (tmp_path / "long.csv").read_text().strip().splitlines()
    assert lines[0] == "time_s,freq_hz,magnitude_db"
    assert len(lines) == 1 + m.frame_count * m.bin_count


def test_pgm_output(tmp_path):
    m = spectrogram(_tone(1000.0, seconds=0.3))
    path = tmp_path / "s.pgm"
    write_pgm(m, path)
    blob = path.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(v) for v in dims.split())
    assert (w, h) == (m.frame_count, m.bin_count)
    maxval, pixels = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(pixels) == w * h
