"""Butterworth bandpass design and application as a biquad cascade.

The design path is the classic chain: analog lowpass prototype, frequency
prewarping, lowpass-to-bandpass transform, bilinear transform, and pairing
of poles into second-order sections. Zeros land structurally at z = +1 and
z = -1, one pair per section.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .artifacts import field_dict
from .audio_io import AudioBuffer
from .errors import InvalidSpec, RateMismatch

_DB_FLOOR = -400.0  # finite stand-in for -inf at structural zeros
_STABILITY_MARGIN = 1e-9


@dataclass(frozen=True)
class FilterSpec:
    """Bandpass request: overall order plus passband edges at -3 dB."""

    order: int = 4
    low_cutoff_hz: float = 300.0
    high_cutoff_hz: float = 1500.0
    sample_rate_hz: int = 16000

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise InvalidSpec(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.order < 2 or self.order % 2 != 0:
            raise InvalidSpec(f"order must be an even integer >= 2, got {self.order}")
        if not 0 < self.low_cutoff_hz < self.high_cutoff_hz:
            raise InvalidSpec(
                f"cutoffs must satisfy 0 < low < high, got {self.low_cutoff_hz}/{self.high_cutoff_hz}"
            )
        if self.high_cutoff_hz >= self.sample_rate_hz / 2:
            raise InvalidSpec(
                f"high cutoff {self.high_cutoff_hz} Hz must stay below Nyquist "
                f"({self.sample_rate_hz / 2} Hz)"
            )


@dataclass(frozen=True)
class BiquadSection:
    """One second-order stage, denominator normalized to a0 = 1."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def pole_magnitudes(self) -> tuple[float, float]:
        roots = np.roots([1.0, self.a1, self.a2])
        return (abs(roots[0]), abs(roots[1]))


@dataclass(frozen=True)
class BiquadCascade:
    spec: FilterSpec
    sections: tuple[BiquadSection, ...]

    def coefficient_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        b = np.array([[s.b0, s.b1, s.b2] for s in self.sections])
        a = np.array([[s.a1, s.a2] for s in self.sections])
        return b, a

    @functools.cached_property
    def plan(self) -> tuple:
        """The block filter's matrices (`_kernels.sos_plan`), built on first use and kept with this cascade."""
        return _kernels.sos_plan(*self.coefficient_arrays())

    def __getstate__(self):
        # A pickled cascade (one per task under --jobs) leaves its plan out;
        # the receiving process builds its own on first use.
        return {name: value for name, value in self.__dict__.items() if name != "plan"}


def design_butterworth_bandpass(spec: FilterSpec) -> BiquadCascade:
    """Design the digital Butterworth bandpass for `spec`.

    `spec.order` is the overall bandpass order, so the cascade has
    order/2 sections. Passband edges sit at -3 dB by construction.
    """
    n_proto = spec.order // 2
    fs = float(spec.sample_rate_hz)

    # Prewarp the band edges so the bilinear transform lands them exactly.
    w1 = 2.0 * fs * math.tan(math.pi * spec.low_cutoff_hz / fs)
    w2 = 2.0 * fs * math.tan(math.pi * spec.high_cutoff_hz / fs)
    w0_sq = w1 * w2
    bw = w2 - w1
    c = 2.0 * fs

    # The gain's numerator, checked before any array of order/2 elements exists.
    try:
        gain_scale = bw**n_proto * c**n_proto
    except OverflowError:
        gain_scale = math.inf
    if not math.isfinite(gain_scale):
        raise InvalidSpec(f"order {spec.order} is too high for a finite design at {spec.sample_rate_hz} Hz")

    # Analog lowpass prototype poles on the unit circle, left half plane.
    k = np.arange(n_proto)
    proto = np.exp(1j * math.pi * (2.0 * k + n_proto + 1.0) / (2.0 * n_proto))

    # Lowpass-to-bandpass: each prototype pole spawns two bandpass poles
    # and one analog zero at s = 0.
    half = proto * (bw / 2.0)
    disc = np.sqrt(half * half - w0_sq)
    analog_poles = np.concatenate([half + disc, half - disc])

    # Bilinear transform of poles; analog zeros at 0 map to z = +1 and the
    # degree deficit adds the matching zeros at z = -1.
    digital_poles = (c + analog_poles) / (c - analog_poles)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite gain is refused below
        gain = float((gain_scale / np.prod(c - analog_poles)).real)

    worst = float(np.max(np.abs(digital_poles)))
    if worst >= 1.0 - _STABILITY_MARGIN:
        raise InvalidSpec(f"design is marginal: pole magnitude {worst:.12f}")

    pairs = _conjugate_pairs(digital_poles)
    pairs.sort(key=lambda pq: max(abs(pq[0]), abs(pq[1])), reverse=True)

    section_gain = gain ** (1.0 / len(pairs))
    sections = []
    for p, q in pairs:
        a1 = float(-(p + q).real)
        a2 = float((p * q).real)
        sections.append(
            BiquadSection(b0=section_gain, b1=0.0, b2=-section_gain, a1=a1, a2=a2)
        )
    cascade = BiquadCascade(sections=tuple(sections), spec=spec)
    if not all(np.isfinite(coefficients).all() for coefficients in cascade.coefficient_arrays()):
        raise InvalidSpec(f"order {spec.order} gives non-finite coefficients at {spec.sample_rate_hz} Hz")
    return cascade


def _conjugate_pairs(poles: np.ndarray) -> list[tuple[complex, complex]]:
    """Split a conjugate-closed pole set into per-section pairs."""
    pairs = [(p, p.conjugate()) for p in poles if p.imag > 1e-12]
    reals = sorted((p.real for p in poles if abs(p.imag) <= 1e-12), key=abs, reverse=True)
    pairs.extend(zip(reals[0::2], reals[1::2]))
    return pairs


def frequency_response(cascade: BiquadCascade, freq_hz: float) -> float:
    """Magnitude response in dB by direct complex evaluation of each section.

    Structural zeros return a finite sentinel (<= -300 dB) instead of -inf.
    """
    z_inv = np.exp(-2j * math.pi * freq_hz / cascade.spec.sample_rate_hz)
    mag = 1.0
    for s in cascade.sections:
        num = s.b0 + s.b1 * z_inv + s.b2 * z_inv * z_inv
        den = 1.0 + s.a1 * z_inv + s.a2 * z_inv * z_inv
        mag *= abs(num) / abs(den)
    if mag <= 10.0 ** (_DB_FLOOR / 20.0):
        return _DB_FLOOR
    return max(20.0 * math.log10(mag), _DB_FLOOR)


def response_sweep(cascade: BiquadCascade, freqs_hz) -> np.ndarray:
    """frequency_response evaluated over an array of frequencies."""
    return np.array([frequency_response(cascade, f) for f in np.asarray(freqs_hz, dtype=float)])


def _check_rate(cascade: BiquadCascade, buffer: AudioBuffer) -> None:
    if buffer.sample_rate_hz != cascade.spec.sample_rate_hz:
        raise RateMismatch(
            f"buffer at {buffer.sample_rate_hz} Hz, cascade designed for "
            f"{cascade.spec.sample_rate_hz} Hz"
        )


def filter_passes(cascade: BiquadCascade, buffer: AudioBuffer, buffers: _kernels.PassBuffers):
    """The cascade run causally (zero initial state) over a buffer, pass by pass as `_kernels.sos_passes` yields it.

    Each pass is a view of buffers.rows, valid until the next pass is taken.
    """
    _check_rate(cascade, buffer)
    return _kernels.sos_passes(cascade.plan, buffer.samples, buffers)


def apply_cascade(cascade: BiquadCascade, buffer: AudioBuffer) -> AudioBuffer:
    """Run the cascade causally (zero initial state) over a buffer: the passes of `filter_passes` in one array."""
    passes = filter_passes(cascade, buffer, _kernels.PassBuffers())
    out = np.empty(len(buffer))
    for p0, y in zip(range(0, len(buffer), _kernels.PASS), passes):
        out[p0 : p0 + y.shape[0]] = y
    return AudioBuffer(out, buffer.sample_rate_hz)


def cascade_to_dict(cascade: BiquadCascade) -> dict:
    return field_dict(cascade, spec=field_dict(cascade.spec), sections=[field_dict(s) for s in cascade.sections])
