"""STFT magnitudes, bin localization, floor behavior, and export formats."""

import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vadkit
from vadkit import AudioBuffer, spectrogram, write_wav
from vadkit.errors import EmptySignal, InvalidFft
from vadkit.spectrogram import DB_FLOOR, check_fft, hann_window, to_json_dict, write_long_csv, write_pgm


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


def test_a_frame_matrix_over_the_size_limit_is_refused_before_it_is_made():
    """The frames of n samples may hold 2**24 samples, or 64 times n when that is more."""
    with pytest.raises(InvalidFft, match="over 64 times the input"):
        check_fft(1024, 1, 960_000)  # 60 s at 16 kHz, hop 1: 7.9 GB of frames
    with pytest.raises(InvalidFft, match="over 64 times the input"):
        spectrogram(AudioBuffer(np.zeros(64_000), 16000), fft_size=2**24, hop_samples=512)
    check_fft(1024, 512, 10**9)  # the defaults, at any length, frame about 2 n samples
    check_fft(1024, 1, 4000)  # 0.25 s at 16 kHz, hop 1: 4,096,000 samples, under 2**24
    check_fft(2**24, 1, 1)


def _cli_in_a_bounded_child(args, cwd):
    """vadkit's CLI on args in a child process held to a 3 GB address space."""
    env = {**os.environ, "PYTHONPATH": str(Path(vadkit.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    return subprocess.run(
        [sys.executable, "-m", "vadkit.cli", *args],
        cwd=cwd, env=env, preexec_fn=limit, capture_output=True, text=True, timeout=120,
    )


def test_spectrogram_at_hop_1_on_a_minute_exits_2_and_writes_nothing(tmp_path):
    write_wav(AudioBuffer(np.zeros(60 * 16000), 16000), tmp_path / "long.wav")
    done = _cli_in_a_bounded_child(
        ["spectrogram", "long.wav", "--spectrogram-hop", "1", "--out", "long.json"], tmp_path
    )
    assert done.returncode == 2, done.stderr
    assert sorted(os.listdir(tmp_path)) == ["long.wav"]


def test_repro_figures_with_a_huge_frame_matrix_exits_2_and_writes_nothing(tmp_path):
    done = _cli_in_a_bounded_child(
        ["repro-figures", "--out-dir", "figs", "--fft-size", "16777216", "--spectrogram-hop", "1"], tmp_path
    )
    assert done.returncode == 2, done.stderr
    assert not (tmp_path / "figs").exists()
