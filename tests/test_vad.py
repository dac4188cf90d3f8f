"""Framing, energies, noise floor, thresholding, interval merging."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vadkit import (
    AudioBuffer,
    FilterSpec,
    VadConfig,
    design_butterworth_bandpass,
    detect,
    detect_prefiltered,
    estimate_noise_floor_db,
    frame_energy_db,
    frame_signal,
    merge_intervals,
)
from vadkit.errors import EmptySignal, InvalidSpec, NoFrames
from vadkit.vad import FRAME_DTYPE, frames_to_csv, result_to_dict

from naive_reference import naive_energy_db, naive_frames, naive_noise_floor_db, naive_quantile


def test_config_defaults():
    config = VadConfig()
    assert config.window_length_s == 0.31
    assert config.snr_threshold_db == 90.0
    assert config.hop_s == 0.31  # hop defaults to the window
    assert config.noise_percentile == 0.10
    assert config.energy_floor == 1e-10


def test_config_validation():
    with pytest.raises(InvalidSpec):
        VadConfig(window_length_s=0.0)
    with pytest.raises(InvalidSpec):
        VadConfig(hop_length_s=0.5)  # hop > window
    with pytest.raises(InvalidSpec):
        VadConfig(hop_length_s=-0.1)
    with pytest.raises(InvalidSpec):
        VadConfig(noise_percentile=0.0)
    with pytest.raises(InvalidSpec):
        VadConfig(noise_percentile=1.0)
    with pytest.raises(InvalidSpec):
        VadConfig(energy_floor=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidSpec):
            VadConfig(window_length_s=bad)
        with pytest.raises(InvalidSpec):
            VadConfig(hop_length_s=bad)
        with pytest.raises(InvalidSpec):
            VadConfig(snr_threshold_db=bad)
        with pytest.raises(InvalidSpec, match="energy_floor"):
            VadConfig(energy_floor=bad)
    # Finite, but the sample count overflows a float.
    with pytest.raises(InvalidSpec, match="window_length_s"):
        VadConfig(window_length_s=1e305).window_samples(16000)
    with pytest.raises(InvalidSpec, match="hop_length_s"):
        VadConfig(window_length_s=1e305, hop_length_s=1e305).hop_samples(16000)


def test_sample_counts_are_capped_at_2_pow_24():
    # 1024 s at 16384 Hz is exactly 2**24 samples.
    assert VadConfig(window_length_s=1024.0).window_samples(16384) == 2**24
    with pytest.raises(InvalidSpec, match="window_length_s of 1024.001 s"):
        VadConfig(window_length_s=1024.001).window_samples(16384)
    with pytest.raises(InvalidSpec, match="hop_length_s of 1024.001 s"):
        VadConfig(window_length_s=2000.0, hop_length_s=1024.001).hop_samples(16384)


def test_frame_count_is_ceil():
    fs = 16000
    config = VadConfig()
    hop = config.hop_samples(fs)
    for n in (1, hop - 1, hop, hop + 1, 4 * hop, 4 * hop + 7):
        frames = frame_signal(AudioBuffer(np.ones(n), fs), config)
        assert frames.shape[0] == math.ceil(n / hop)
        assert frames.shape[1] == config.window_samples(fs)


def test_final_frame_zero_padded():
    fs = 16000
    config = VadConfig()
    hop = config.hop_samples(fs)
    n = hop + 100
    frames = frame_signal(AudioBuffer(np.ones(n), fs), config)
    assert frames.shape[0] == 2
    assert np.all(frames[1][:100] == 1.0)
    assert np.all(frames[1][100:] == 0.0)


def test_overlapping_frames():
    fs = 16000
    config = VadConfig(window_length_s=0.02, hop_length_s=0.01)
    x = np.arange(16000, dtype=float)
    frames = frame_signal(AudioBuffer(x, fs), config)
    assert frames.shape == (100, 320)
    assert frames[1][0] == 160.0  # second frame starts one hop in


def test_frame_signal_rejects_empty():
    with pytest.raises(EmptySignal):
        frame_signal(AudioBuffer(np.zeros(0), 16000), VadConfig())


def test_frame_energy_values():
    assert frame_energy_db(np.zeros(100)) == pytest.approx(-100.0)  # floor clamp
    assert frame_energy_db(np.ones(100)) == pytest.approx(0.0)
    assert frame_energy_db(np.full(100, 0.1)) == pytest.approx(-20.0)
    # sine of amplitude 1: mean square 0.5
    t = np.arange(1600) / 16000
    tone = np.sin(2 * np.pi * 1000.0 * t)
    assert frame_energy_db(tone) == pytest.approx(10 * math.log10(0.5), abs=1e-3)
    with pytest.raises(EmptySignal):
        frame_energy_db(np.zeros(0))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 600),
    rate=st.integers(1000, 48000),
    win=st.integers(1, 200),
    hop_share=st.one_of(st.none(), st.floats(0.0, 1.0)),
    scale=st.sampled_from([0.0, 1e-6, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=600, rate=16000, win=160, hop_share=0.5, scale=1.0, seed=0)  # overlapping
@example(n=600, rate=16000, win=160, hop_share=None, scale=1.0, seed=1)  # non-overlapping
@example(n=30, rate=16000, win=200, hop_share=None, scale=1.0, seed=2)  # one window longer than the signal
def test_frame_energies_match_the_loop_reference_bit_for_bit(n, rate, win, hop_share, scale, seed):
    hop = None if hop_share is None else max(1, round(hop_share * win))
    config = VadConfig(window_length_s=win / rate, hop_length_s=None if hop is None else hop / rate)
    samples = scale * np.random.default_rng(seed).standard_normal(n)
    result = detect_prefiltered(AudioBuffer(samples, rate), config)
    energies, floor_db = result.frames.energy_db, result.noise_power_db
    frames = naive_frames(samples, rate, config.window_length_s, config.hop_s)
    expected = [naive_energy_db(frame, config.energy_floor) for frame in frames]
    assert energies.tolist() == expected
    assert floor_db == naive_noise_floor_db(expected, config.noise_percentile, config.energy_floor)


def test_noise_floor_nearest_rank():
    config = VadConfig(noise_percentile=0.10)
    energies = np.array([-80.0, -50.0, -20.0, -70.0, -60.0, -40.0, -30.0, -10.0, -90.0, -5.0])
    # rank = ceil(0.1 * 10) = 1 -> smallest value
    assert estimate_noise_floor_db(energies, config) == -90.0
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 50):
        vals = rng.uniform(-95.0, 0.0, n)
        for q in (0.05, 0.10, 0.5, 0.93):
            got = estimate_noise_floor_db(vals, dataclasses.replace(config, noise_percentile=q))
            assert got == naive_quantile(list(vals), q)


def test_noise_floor_clamped_at_energy_floor():
    config = VadConfig()
    # all energies below the -100 dB floor equivalent never drag it lower
    assert estimate_noise_floor_db(np.array([-300.0, -250.0]), config) == -100.0


def test_noise_floor_rejects_empty():
    with pytest.raises(NoFrames):
        estimate_noise_floor_db(np.array([]), VadConfig())


def _frames(flags, hop_s=0.31):
    return np.rec.fromrecords(
        [(i, i * hop_s, 0.0, 0.0, speech) for i, speech in enumerate(flags)], dtype=FRAME_DTYPE
    )


def test_merge_intervals_runs():
    config = VadConfig()
    frames = _frames([False, True, True, False, True, False])
    intervals = merge_intervals(frames, config)
    assert intervals == (
        (pytest.approx(0.31), pytest.approx(0.93)),
        (pytest.approx(1.24), pytest.approx(1.55)),
    )


def test_merge_intervals_trailing_run():
    config = VadConfig()
    frames = _frames([False, True, True])
    intervals = merge_intervals(frames, config)
    assert len(intervals) == 1
    assert intervals[0][1] == pytest.approx(2 * 0.31 + 0.31)


def test_merge_intervals_empty():
    config = VadConfig()
    frames = _frames([False] * 5)
    assert merge_intervals(frames, config) == ()


def test_single_frame_interval_length_is_window():
    config = VadConfig()
    frames = _frames([True])
    ((start, end),) = merge_intervals(frames, config)
    assert start == 0.0
    assert end == pytest.approx(0.31)


def _burst_clip(fs=16000, seconds=4.0, burst=(1.24, 2.48), noise_rms=0.01, seed=5):
    """Band-centered tone burst over a quiet noise bed."""
    rng = np.random.default_rng(seed)
    n = int(seconds * fs)
    t = np.arange(n) / fs
    x = noise_rms * rng.standard_normal(n)
    a, b = int(burst[0] * fs), int(burst[1] * fs)
    x[a:b] += 0.5 * np.sin(2 * np.pi * 700.0 * t[a:b])
    return AudioBuffer(x, fs)


@pytest.fixture(scope="module")
def burst_setup():
    cascade = design_butterworth_bandpass(FilterSpec())
    config = VadConfig(snr_threshold_db=12.0)
    return cascade, config


def test_detect_finds_burst(burst_setup):
    cascade, config = burst_setup
    result = detect(_burst_clip(), cascade, config)
    assert len(result.intervals) == 1
    start, end = result.intervals[0]
    assert start == pytest.approx(1.24, abs=0.31)
    assert end == pytest.approx(2.48, abs=0.31)


def test_detect_scale_invariance(burst_setup):
    cascade, config = burst_setup
    base = _burst_clip()
    scaled = AudioBuffer(base.samples * 3.7, base.sample_rate_hz)
    r1 = detect(base, cascade, config)
    r2 = detect(scaled, cascade, config)
    assert [f.is_speech for f in r1.frames] == [f.is_speech for f in r2.frames]
    # energies shift together, SNR stays put
    for f1, f2 in zip(r1.frames, r2.frames):
        assert f1.snr_db == pytest.approx(f2.snr_db, abs=1e-9)


def test_detect_threshold_monotonicity(burst_setup):
    cascade, _ = burst_setup
    buf = _burst_clip()
    counts = []
    for threshold in (3.0, 6.0, 12.0, 20.0, 40.0, 90.0):
        config = VadConfig(snr_threshold_db=threshold)
        result = detect(buf, cascade, config)
        counts.append(sum(f.is_speech for f in result.frames))
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0  # nothing clears 90 dB over this floor


def test_detect_all_silence(burst_setup):
    cascade, config = burst_setup
    result = detect(AudioBuffer(np.zeros(16000), 16000), cascade, config)
    assert result.intervals == ()
    assert result.noise_power_db == -100.0
    assert all(not f.is_speech for f in result.frames)


def test_detect_rejects_empty(burst_setup):
    cascade, config = burst_setup
    with pytest.raises(EmptySignal):
        detect(AudioBuffer(np.zeros(0), 16000), cascade, config)


def test_interval_frame_consistency(burst_setup):
    """With hop == window, a frame is speech iff its start falls inside a
    merged interval, and interval bounds are frame starts/ends."""
    cascade, config = burst_setup
    result = detect(_burst_clip(), cascade, config)
    window = config.window_length_s
    for f in result.frames:
        inside = any(s - 1e-9 <= f.start_s < e - 1e-9 for s, e in result.intervals)
        assert inside == f.is_speech
    starts = {f.start_s for f in result.frames}
    for s, e in result.intervals:
        assert s in starts
        assert any(abs((f.start_s + window) - e) < 1e-9 for f in result.frames)


def test_detect_prefiltered_determinism(burst_setup):
    _, config = burst_setup
    buf = _burst_clip()
    r1 = detect_prefiltered(buf, config)
    r2 = detect_prefiltered(buf, config)
    assert np.array_equal(r1.frames, r2.frames)
    assert r1.intervals == r2.intervals
    assert r1.noise_power_db == r2.noise_power_db
    assert r1.config == r2.config


def test_result_dict_shape(burst_setup):
    cascade, config = burst_setup
    result = detect(_burst_clip(), cascade, config)
    d = result_to_dict(result)
    assert set(d) == {"config", "noise_power_db", "intervals", "frames"}
    assert d["config"]["window_length_s"] == 0.31
    assert d["config"]["snr_threshold_db"] == 12.0
    assert all(set(iv) == {"start_s", "end_s"} for iv in d["intervals"])
    assert all(
        set(f) == {"index", "start_s", "energy_db", "snr_db", "is_speech"} for f in d["frames"]
    )
    assert len(d["frames"]) == len(result.frames)


def test_frames_csv(burst_setup, tmp_path):
    cascade, config = burst_setup
    result = detect(_burst_clip(), cascade, config)
    frames_to_csv(result, tmp_path / "frames.csv")
    lines = (tmp_path / "frames.csv").read_text().strip().splitlines()
    assert lines[0] == "index,start_s,energy_db,snr_db,is_speech"
    assert len(lines) == len(result.frames) + 1
