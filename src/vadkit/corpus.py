"""Seeded synthetic corpus: silence, ambient beds, gated tonal speech
surrogates, and speech/ambient mixtures at fixed SNRs.

Clip inventory for the default 4 s at 16 kHz:
  - silence
  - white and pink ambient beds (RMS 0.1)
  - two harmonic speech surrogates with on/off gates; gate edges sit on
    0.31 s multiples so default frames are never half-covered
  - each surrogate mixed with one ambient bed at 20, 10, 5, and 0 dB SNR

Every clip gets a `<stem>.labels.json` sidecar and the set is indexed by
`manifest.json`. Same seed, same bytes.
"""

from __future__ import annotations

import os

import numpy as np

from .artifacts import make_output_dir, write_json
from .audio_io import AudioBuffer, sample_count, write_wav
from .errors import InvalidRate, InvalidSpec
from .evaluate import LabeledClip, save_manifest
from .mixing import MixSpec, mix

_AMBIENT_RMS = 0.1
_GATE_RAMP_S = 0.02  # keeps gate edges from exciting filter ring-down
_GAP_NOISE_AMPLITUDE = 1e-4

# Gate schedules in seconds; all edges are multiples of the 0.31 s default
# window so frame-level truth is unambiguous at the default hop.
_GATES_A = ((0.62, 1.55), (2.17, 3.10))
_GATES_B = ((0.31, 1.24), (1.86, 2.79))
_MIX_SNRS_DB = (20.0, 10.0, 5.0, 0.0)
_MIX_BEDS = (("a", "white"), ("b", "pink"))  # each surrogate's tag and the ambient bed it is mixed with


def _white_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x * (_AMBIENT_RMS / np.sqrt(np.mean(np.square(x))))


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """1/f-shaped noise via spectral shaping of a white draw."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    scale = np.zeros_like(freqs)
    scale[1:] = 1.0 / np.sqrt(freqs[1:])
    x = np.fft.irfft(spec * scale, n)
    return x * (_AMBIENT_RMS / np.sqrt(np.mean(np.square(x))))


def _gate_envelope(n: int, sample_rate_hz: int, gates) -> np.ndarray:
    env = np.zeros(n)
    ramp = max(1, int(round(_GATE_RAMP_S * sample_rate_hz)))
    rise = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    for start_s, end_s in gates:
        a = int(round(start_s * sample_rate_hz))
        b = min(int(round(end_s * sample_rate_hz)), n)
        if b - a < 2 * ramp:
            raise InvalidSpec(f"gate ({start_s}, {end_s}) too short for its edge ramps")
        env[a:b] = 1.0
        env[a : a + ramp] = rise
        env[b - ramp : b] = rise[::-1]
    return env


def _speech_surrogate(
    rng: np.random.Generator, n: int, sample_rate_hz: int, f0_hz: float, gates
) -> np.ndarray:
    """Harmonic tone stack confined to 300-1500 Hz, gated on and off."""
    t = np.arange(n) / sample_rate_hz
    tone = np.zeros(n)
    for k in range(1, int(1500.0 // f0_hz) + 1):
        f = k * f0_hz
        if f < 300.0 or f > 1500.0:
            continue
        phase = rng.uniform(0.0, 2.0 * np.pi)
        tone += (1.0 / k) * np.sin(2.0 * np.pi * f * t + phase)
    tone *= 0.8 / np.max(np.abs(tone))
    x = tone * _gate_envelope(n, sample_rate_hz, gates)
    # faint bed under the gaps so the clip has a sane noise floor
    x += _GAP_NOISE_AMPLITUDE * rng.standard_normal(n)
    return x


def labels_sidecar_path(wav_path: str) -> str:
    """Where a clip's speech labels live: `<stem>.labels.json` beside it."""
    return os.path.splitext(wav_path)[0] + ".labels.json"


def _mix_name(tag: str, bed_name: str, snr: float) -> str:
    return f"mix_{tag}_{bed_name}_snr{int(snr):02d}.wav"


def corpus_files(out_dir: str) -> list[str]:
    """Every path `generate_corpus` writes under out_dir: the clips, their labels and the manifest."""
    names = ["silence.wav", "ambient_white.wav", "ambient_pink.wav", "speech_a.wav", "speech_b.wav"]
    names += [_mix_name(tag, bed_name, snr) for tag, bed_name in _MIX_BEDS for snr in _MIX_SNRS_DB]
    clips = [os.path.join(out_dir, name) for name in names]
    return [*clips, *map(labels_sidecar_path, clips), os.path.join(out_dir, "manifest.json")]


def _write_clip(out_dir: str, name: str, samples, sample_rate_hz, intervals, note) -> LabeledClip:
    path = os.path.join(out_dir, name)
    write_wav(AudioBuffer(samples, sample_rate_hz), path, format="pcm16")
    clip = LabeledClip(audio_path=path, speech_intervals=tuple(intervals), source_note=note)
    write_json(clip.to_dict(name), labels_sidecar_path(path))
    return clip


def corpus_clip_samples(seed: int, sample_rate_hz: int = 16000, clip_duration_s: float = 4.0) -> int:
    """Samples per corpus clip; InvalidSpec for a setting `generate_corpus` cannot use."""
    if seed < 0:  # numpy's seeding raises a plain ValueError
        raise InvalidSpec(f"seed must be non-negative, got {seed}")
    if sample_rate_hz <= 0:
        raise InvalidRate(f"sample rate must be positive, got {sample_rate_hz}")
    n = sample_count("clip_duration_s", clip_duration_s, sample_rate_hz)
    if clip_duration_s < max(g[-1][1] for g in (_GATES_A, _GATES_B)):
        raise InvalidSpec(f"clip duration {clip_duration_s} s too short for the gate schedule")
    return n


def generate_corpus(
    seed: int,
    out_dir: str,
    sample_rate_hz: int = 16000,
    clip_duration_s: float = 4.0,
) -> list[LabeledClip]:
    """Write the corpus under out_dir and return its clips in manifest order."""
    n = corpus_clip_samples(seed, sample_rate_hz, clip_duration_s)
    rng = np.random.default_rng(seed)
    fs = sample_rate_hz

    white = _white_noise(rng, n)
    pink = _pink_noise(rng, n)
    speech_a = _speech_surrogate(rng, n, fs, f0_hz=170.0, gates=_GATES_A)
    speech_b = _speech_surrogate(rng, n, fs, f0_hz=145.0, gates=_GATES_B)
    make_output_dir(out_dir)  # after the gates, which a low rate leaves too short for their ramps

    clips = [
        _write_clip(out_dir, "silence.wav", np.zeros(n), fs, (), "pure silence"),
        _write_clip(out_dir, "ambient_white.wav", white, fs, (), "white ambient bed"),
        _write_clip(out_dir, "ambient_pink.wav", pink, fs, (), "pink ambient bed"),
        _write_clip(out_dir, "speech_a.wav", speech_a, fs, _GATES_A, "harmonic surrogate, f0 170 Hz"),
        _write_clip(out_dir, "speech_b.wav", speech_b, fs, _GATES_B, "harmonic surrogate, f0 145 Hz"),
    ]

    pairs = ((speech_a, _GATES_A, white), (speech_b, _GATES_B, pink))
    for (tag, bed_name), (speech, gates, bed) in zip(_MIX_BEDS, pairs):
        speech_buf = AudioBuffer(speech, fs)
        bed_buf = AudioBuffer(bed, fs)
        for snr in _MIX_SNRS_DB:
            mixed = mix(speech_buf, bed_buf, MixSpec(target_snr_db=snr, normalize_peak=0.9))
            name = _mix_name(tag, bed_name, snr)
            clips.append(
                _write_clip(
                    out_dir,
                    name,
                    mixed.samples,
                    fs,
                    gates,
                    f"surrogate {tag} over {bed_name} ambient at {snr:g} dB SNR",
                )
            )

    save_manifest(clips, os.path.join(out_dir, "manifest.json"))
    return clips
