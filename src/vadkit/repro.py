"""Regenerate the figure-style artifacts from a seed.

The chain is: build the seeded corpus, mix one speech surrogate with the
white ambient bed at the requested SNR, run detection, and emit
  - the mixed waveform plus the per-frame decision track (fig3_*)
  - spectrograms of the speech, ambient, mixed, and detected signals (fig4_*)
as plain data files. Same seed and flags, same bytes.
"""

from __future__ import annotations

import os

import numpy as np

from .artifacts import make_output_dir, write_json, write_json_rows, write_table
from .audio_io import AudioBuffer, read_wav
from .config import CliConfig
from .corpus import corpus_clip_samples, corpus_files, generate_corpus
from .filters import apply_cascade, design_butterworth_bandpass
from .mixing import MixSpec, mix
from .spectrogram import check_fft, spectrogram, to_json_dict, write_pgm
from .vad import detect_prefiltered, frames_to_csv, result_to_dict


def _interval_mask(n: int, sample_rate_hz: int, intervals) -> np.ndarray:
    mask = np.zeros(n)
    for start_s, end_s in intervals:
        a = max(0, int(round(start_s * sample_rate_hz)))
        b = min(n, int(round(end_s * sample_rate_hz)))
        mask[a:b] = 1.0
    return mask


# The library default threshold targets clips whose noise floor is
# near silence; the figure mixture needs a tuned value instead.
BASE_CONFIG = CliConfig(threshold_db=12.0)
_PANELS = ("speech", "ambient", "mixed", "detected")  # the fig4 spectrograms


def output_files(out_dir: str) -> list[str]:
    """Every path `run` writes under out_dir, the corpus included."""
    names = ["fig3_waveform.csv", "fig3_decisions.csv", "fig3_detection.json", "summary.json"]
    names += [f"fig4_{panel}.{ext}" for panel in _PANELS for ext in ("json", "pgm")]
    return corpus_files(os.path.join(out_dir, "corpus")) + [os.path.join(out_dir, name) for name in names]


def run(out_dir: str, seed: int = 0, snr_db: float = 10.0, config: CliConfig = BASE_CONFIG) -> list[str]:
    """Write every artifact under out_dir; returns their relative names."""
    # Validate every setting before the first file is written.
    mix_spec = MixSpec(target_snr_db=snr_db, normalize_peak=0.9)
    vad_config = config.vad_config()
    vad_config.window_samples(config.sample_rate_hz)
    vad_config.hop_samples(config.sample_rate_hz)
    cascade = design_butterworth_bandpass(config.filter_spec())
    check_fft(config.fft_size, config.spectrogram_hop, corpus_clip_samples(seed, config.sample_rate_hz))
    make_output_dir(out_dir)
    written: list[str] = []

    corpus_dir = os.path.join(out_dir, "corpus")
    clips = generate_corpus(seed, corpus_dir, sample_rate_hz=config.sample_rate_hz)
    by_name = {os.path.basename(c.audio_path): c for c in clips}
    speech_clip = by_name["speech_a.wav"]
    speech, _ = read_wav(speech_clip.audio_path)
    ambient, _ = read_wav(by_name["ambient_white.wav"].audio_path)

    mixed = mix(speech, ambient, mix_spec)
    filtered = apply_cascade(cascade, mixed)
    result = detect_prefiltered(filtered, vad_config)

    def _out(name: str) -> str:
        written.append(name)
        return os.path.join(out_dir, name)

    times = np.arange(len(mixed)) / mixed.sample_rate_hz
    write_table(_out("fig3_waveform.csv"), {"time_s": times, "amplitude": mixed.samples}, "\n")
    frames_to_csv(result, _out("fig3_decisions.csv"))

    detection = result_to_dict(result)
    detection["effective_config"] = config.to_dict()
    detection["snr_db"] = snr_db
    detection["threshold_db"] = config.threshold_db
    write_json(detection, _out("fig3_detection.json"))

    detected = AudioBuffer(
        filtered.samples
        * _interval_mask(len(filtered), filtered.sample_rate_hz, result.intervals),
        filtered.sample_rate_hz,
    )
    for name, buffer in zip(_PANELS, (speech, ambient, mixed, detected)):
        matrix = spectrogram(
            buffer, fft_size=config.fft_size, hop_samples=config.spectrogram_hop
        )
        write_json_rows(to_json_dict(matrix), _out(f"fig4_{name}.json"))
        write_pgm(matrix, _out(f"fig4_{name}.pgm"))

    summary = {
        "seed": seed,
        "snr_db": snr_db,
        "threshold_db": config.threshold_db,
        "effective_config": config.to_dict(),
        "speech_intervals_truth": [list(iv) for iv in speech_clip.speech_intervals],
        "intervals_detected": [list(iv) for iv in result.intervals],
        "files": list(written),
    }
    write_json(summary, _out("summary.json"))
    return written
