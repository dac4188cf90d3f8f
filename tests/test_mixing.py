"""SNR-targeted and fixed-gain mixing."""

import math

import numpy as np
import pytest

from vadkit import AudioBuffer, MixSpec, mix
from vadkit.errors import InvalidSpec, LengthMismatch, RateMismatch, SilentComponent
from vadkit.mixing import ambient_gain_for_snr


def _buffers():
    # speech mean square 0.5, ambient mean square 0.125
    speech = AudioBuffer(np.full(1000, np.sqrt(0.5)), 16000)
    ambient_vals = np.full(1000, np.sqrt(0.125))
    ambient_vals[::2] *= -1.0
    ambient = AudioBuffer(ambient_vals, 16000)
    return speech, ambient


def test_gain_oracle_frozen_values():
    # g = sqrt(P_s / (P_a * 10^(SNR/10))) = sqrt(0.5 / (0.125 * 10)) = sqrt(0.4)
    speech, ambient = _buffers()
    g = ambient_gain_for_snr(speech.samples, ambient.samples, 10.0)
    assert g == pytest.approx(np.sqrt(0.4), abs=1e-12)


def test_mix_hits_target_snr():
    rng = np.random.default_rng(21)
    speech = AudioBuffer(0.4 * rng.standard_normal(8000), 16000)
    ambient = AudioBuffer(0.2 * rng.standard_normal(8000), 16000)
    for target in (-5.0, 0.0, 10.0, 20.0):
        mixed = mix(speech, ambient, MixSpec(target_snr_db=target))
        noise_part = mixed.samples - speech.samples
        achieved = 10.0 * np.log10(
            np.mean(np.square(speech.samples)) / np.mean(np.square(noise_part))
        )
        assert abs(achieved - target) < 0.01


def test_zero_gain_is_identity():
    speech, ambient = _buffers()
    mixed = mix(speech, ambient, MixSpec(ambient_gain=0.0))
    assert np.array_equal(mixed.samples, speech.samples)


def test_fixed_gain():
    speech, ambient = _buffers()
    mixed = mix(speech, ambient, MixSpec(ambient_gain=2.0))
    assert np.allclose(mixed.samples, speech.samples + 2.0 * ambient.samples)


def test_normalize_peak_applies():
    speech, ambient = _buffers()
    mixed = mix(speech, ambient, MixSpec(ambient_gain=1.0, normalize_peak=0.9))
    assert np.max(np.abs(mixed.samples)) == pytest.approx(0.9, abs=1e-12)


def test_spec_mode_exclusivity():
    with pytest.raises(InvalidSpec):
        MixSpec()
    with pytest.raises(InvalidSpec):
        MixSpec(target_snr_db=10.0, ambient_gain=1.0)
    with pytest.raises(InvalidSpec):
        MixSpec(ambient_gain=-0.5)
    with pytest.raises(InvalidSpec):
        MixSpec(target_snr_db=10.0, normalize_peak=1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_values(bad):
    with pytest.raises(InvalidSpec, match="target_snr_db"):
        MixSpec(target_snr_db=bad)
    with pytest.raises(InvalidSpec, match="ambient_gain"):
        MixSpec(ambient_gain=bad)


def test_silent_components_rejected():
    speech, ambient = _buffers()
    silent = AudioBuffer(np.zeros(1000), 16000)
    with pytest.raises(SilentComponent):
        mix(silent, ambient, MixSpec(target_snr_db=10.0))
    with pytest.raises(SilentComponent):
        mix(speech, silent, MixSpec(target_snr_db=10.0))
    # fixed gain has no SNR to satisfy, silence is fine there
    mixed = mix(speech, silent, MixSpec(ambient_gain=1.0))
    assert np.array_equal(mixed.samples, speech.samples)


def test_rate_and_length_checks():
    speech, ambient = _buffers()
    with pytest.raises(RateMismatch):
        mix(speech, AudioBuffer(ambient.samples, 8000), MixSpec(ambient_gain=1.0))
    with pytest.raises(LengthMismatch):
        mix(speech, AudioBuffer(ambient.samples[:500], 16000), MixSpec(ambient_gain=1.0))
