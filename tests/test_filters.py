"""Bandpass design numbers, response oracle agreement, and cascade behavior."""

import math
import pickle

import numpy as np
import pytest

from vadkit import (
    AudioBuffer,
    FilterSpec,
    _kernels,
    apply_cascade,
    design_butterworth_bandpass,
    frequency_response,
    response_sweep,
)
from vadkit.errors import InvalidSpec, RateMismatch
from vadkit.filters import cascade_to_dict

EDGE_DB = 20.0 * math.log10(1.0 / math.sqrt(2.0))  # -3.0103


@pytest.fixture(scope="module")
def default_cascade():
    return design_butterworth_bandpass(FilterSpec())


def test_default_design_shape(default_cascade):
    assert len(default_cascade.sections) == 2
    for s in default_cascade.sections:
        assert s.b1 == 0.0
        assert s.b0 == -s.b2


def test_edges_at_minus_3_db(default_cascade):
    for f in (300.0, 1500.0):
        assert frequency_response(default_cascade, f) == pytest.approx(EDGE_DB, abs=1e-6)


def test_stopband_attenuation(default_cascade):
    assert frequency_response(default_cascade, 50.0) <= -20.0
    assert frequency_response(default_cascade, 6000.0) <= -20.0


def test_passband_flat_near_center(default_cascade):
    # geometric center of the warped band sits near 677 Hz
    grid = np.linspace(600.0, 760.0, 33)
    peak = response_sweep(default_cascade, grid).max()
    assert abs(peak) < 0.01  # maximally flat top at 0 dB


def test_poles_inside_unit_circle(default_cascade):
    for s in default_cascade.sections:
        for mag in s.pole_magnitudes():
            assert mag < 1.0


def test_structural_zeros(default_cascade):
    assert frequency_response(default_cascade, 0.0) <= -300.0
    assert frequency_response(default_cascade, 8000.0) <= -300.0


def test_order_six_design():
    cascade = design_butterworth_bandpass(FilterSpec(order=6))
    assert len(cascade.sections) == 3
    for s in cascade.sections:
        for mag in s.pole_magnitudes():
            assert mag < 1.0
    for f in (300.0, 1500.0):
        assert frequency_response(cascade, f) == pytest.approx(EDGE_DB, abs=1e-6)
    # steeper skirts than order 4
    four = design_butterworth_bandpass(FilterSpec())
    assert frequency_response(cascade, 50.0) < frequency_response(four, 50.0)


def test_order_two_design():
    cascade = design_butterworth_bandpass(FilterSpec(order=2))
    assert len(cascade.sections) == 1
    for f in (300.0, 1500.0):
        assert frequency_response(cascade, f) == pytest.approx(EDGE_DB, abs=1e-6)


def test_monotone_skirts(default_cascade):
    lows = response_sweep(default_cascade, np.linspace(10.0, 290.0, 29))
    assert np.all(np.diff(lows) > 0)  # rising toward the passband
    highs = response_sweep(default_cascade, np.linspace(1600.0, 7900.0, 64))
    assert np.all(np.diff(highs) < 0)  # falling past the passband


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        FilterSpec(order=3)
    with pytest.raises(InvalidSpec):
        FilterSpec(order=0)
    with pytest.raises(InvalidSpec):
        FilterSpec(low_cutoff_hz=1500.0, high_cutoff_hz=300.0)
    with pytest.raises(InvalidSpec):
        FilterSpec(low_cutoff_hz=0.0)
    with pytest.raises(InvalidSpec):
        FilterSpec(high_cutoff_hz=8000.0)  # at Nyquist
    with pytest.raises(InvalidSpec):
        FilterSpec(sample_rate_hz=0)


def _tone(freq_hz, fs=16000, seconds=1.0, amplitude=0.5):
    t = np.arange(int(seconds * fs)) / fs
    return AudioBuffer(amplitude * np.sin(2.0 * np.pi * freq_hz * t), fs)


def _steady_gain_db(cascade, freq_hz, fs=16000):
    """Measured tone gain after the transient has died out.

    The measurement span holds an integer number of cycles so the RMS of
    the sine is exact.
    """
    buf = _tone(freq_hz, fs)
    out = apply_cascade(cascade, buf)
    a, b = int(0.25 * fs), int(0.75 * fs)
    rms_out = np.sqrt(np.mean(np.square(out.samples[a:b])))
    rms_in = np.sqrt(np.mean(np.square(buf.samples[a:b])))
    return 20.0 * math.log10(rms_out / rms_in)


def test_apply_matches_response_oracle(default_cascade):
    # frequencies are even so a 0.5 s span holds whole cycles
    for f in (60.0, 300.0, 678.0, 1000.0, 1500.0, 3000.0, 6000.0):
        measured = _steady_gain_db(default_cascade, f)
        predicted = frequency_response(default_cascade, f)
        assert abs(measured - predicted) < 0.2, f"{f} Hz: {measured} vs {predicted}"


def test_apply_linearity(default_cascade):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(4000)
    y = rng.standard_normal(4000)
    fs = 16000
    lhs = apply_cascade(default_cascade, AudioBuffer(2.5 * x - 1.25 * y, fs)).samples
    rhs = (
        2.5 * apply_cascade(default_cascade, AudioBuffer(x, fs)).samples
        - 1.25 * apply_cascade(default_cascade, AudioBuffer(y, fs)).samples
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_apply_time_invariance(default_cascade):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3000)
    shift = 250
    fs = 16000
    shifted_in = np.concatenate([np.zeros(shift), x])
    y_shifted = apply_cascade(default_cascade, AudioBuffer(shifted_in, fs)).samples
    y = apply_cascade(default_cascade, AudioBuffer(x, fs)).samples
    assert np.max(np.abs(y_shifted[shift:] - y)) < 1e-9
    assert np.max(np.abs(y_shifted[:shift])) < 1e-12  # causal: zeros in, zeros out


def test_apply_rejects_rate_mismatch(default_cascade):
    with pytest.raises(RateMismatch):
        apply_cascade(default_cascade, AudioBuffer(np.zeros(100), 8000))


def test_cascade_dict_round_trip_fields(default_cascade):
    d = cascade_to_dict(default_cascade)
    assert d["spec"]["order"] == 4
    assert d["spec"]["low_cutoff_hz"] == 300.0
    assert d["spec"]["high_cutoff_hz"] == 1500.0
    assert len(d["sections"]) == 2
    assert set(d["sections"][0]) == {"b0", "b1", "b2", "a1", "a2"}


def test_cascade_builds_its_plan_once_and_pickles_without_it(monkeypatch):
    """One plan per cascade: reused bit for bit, left out of pickles (each
    unpickled copy builds its own) and out of the artifact dict."""
    calls = []
    build = _kernels.sos_plan

    def counted(b, a):
        calls.append(1)
        return build(b, a)

    monkeypatch.setattr(_kernels, "sos_plan", counted)
    cascade = design_butterworth_bandpass(FilterSpec())
    unused = pickle.dumps(cascade)
    buffer = AudioBuffer(np.random.default_rng(4).standard_normal(5000), 16000)
    first = apply_cascade(cascade, buffer).samples.tobytes()
    assert apply_cascade(cascade, buffer).samples.tobytes() == first
    assert len(calls) == 1
    assert pickle.dumps(cascade) == unused
    assert set(cascade_to_dict(cascade)) == {"spec", "sections"}
    copy = pickle.loads(unused)
    assert copy == cascade
    assert apply_cascade(copy, buffer).samples.tobytes() == first
    assert len(calls) == 2


def test_against_scipy_reference():
    scipy_signal = pytest.importorskip("scipy.signal")
    cascade = design_butterworth_bandpass(FilterSpec())
    sos = scipy_signal.butter(2, [300.0, 1500.0], btype="bandpass", fs=16000.0, output="sos")

    freqs = np.linspace(10.0, 7990.0, 200)
    _, h = scipy_signal.sosfreqz(sos, worN=freqs, fs=16000.0)
    theirs = 20.0 * np.log10(np.abs(h))
    ours = response_sweep(cascade, freqs)
    assert np.max(np.abs(ours - theirs)) < 1e-8

    impulse = np.zeros(2000)
    impulse[0] = 1.0
    mine = apply_cascade(cascade, AudioBuffer(impulse, 16000)).samples
    ref = scipy_signal.sosfilt(sos, impulse)
    assert np.max(np.abs(mine - ref)) < 1e-10
