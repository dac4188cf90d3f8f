"""Mix a speech clip with an ambient bed at a requested SNR or fixed gain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer, peak_normalize
from .errors import InvalidSpec, LengthMismatch, RateMismatch, SilentComponent


@dataclass(frozen=True)
class MixSpec:
    """Exactly one of target_snr_db / ambient_gain selects the mixing mode."""

    target_snr_db: float | None = None
    ambient_gain: float | None = None
    normalize_peak: float | None = None

    def __post_init__(self):
        if (self.target_snr_db is None) == (self.ambient_gain is None):
            raise InvalidSpec("set exactly one of target_snr_db and ambient_gain")
        # 3000 dB is a power ratio of 1e300, near the end of the float range.
        if self.target_snr_db is not None and not abs(self.target_snr_db) <= 3000:
            raise InvalidSpec(f"target_snr_db must lie within -3000 to 3000 dB, got {self.target_snr_db}")
        if self.ambient_gain is not None and not math.isfinite(self.ambient_gain):
            raise InvalidSpec(f"ambient_gain must be finite, got {self.ambient_gain}")
        if self.ambient_gain is not None and self.ambient_gain < 0:
            raise InvalidSpec(f"ambient gain must be >= 0, got {self.ambient_gain}")
        if self.normalize_peak is not None and not 0 < self.normalize_peak <= 1:
            raise InvalidSpec(f"normalize peak must lie in (0, 1], got {self.normalize_peak}")


def ambient_gain_for_snr(speech: np.ndarray, ambient: np.ndarray, snr_db: float) -> float:
    """Gain g so that mean-square(speech) / mean-square(g * ambient) hits snr_db.

    Powers are taken over the full clips, silent stretches included.
    """
    p_speech = float(np.mean(np.square(speech)))
    p_ambient = float(np.mean(np.square(ambient)))
    if p_speech == 0.0:
        raise SilentComponent("speech clip is silent, SNR is undefined")
    if p_ambient == 0.0:
        raise SilentComponent("ambient clip is silent, SNR is undefined")
    try:
        gain = math.sqrt(p_speech / (p_ambient * 10.0 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10 ** (snr / 10) overflows or underflows to 0
        gain = math.nan
    if not math.isfinite(gain):
        raise InvalidSpec(f"target_snr_db of {snr_db} dB is out of range for these clips")
    return gain


def mix(speech: AudioBuffer, ambient: AudioBuffer, spec: MixSpec) -> AudioBuffer:
    if speech.sample_rate_hz != ambient.sample_rate_hz:
        raise RateMismatch(
            f"speech at {speech.sample_rate_hz} Hz, ambient at {ambient.sample_rate_hz} Hz"
        )
    if len(speech) != len(ambient):
        raise LengthMismatch(
            f"speech has {len(speech)} samples, ambient has {len(ambient)}"
        )
    if spec.target_snr_db is not None:
        gain = ambient_gain_for_snr(speech.samples, ambient.samples, spec.target_snr_db)
    else:
        gain = spec.ambient_gain
    out = AudioBuffer(speech.samples + gain * ambient.samples, speech.sample_rate_hz)
    if spec.normalize_peak is not None:
        out = peak_normalize(out, spec.normalize_peak)
    return out
