"""Offline voice activity detection toolkit.

Pipeline: WAV in, optional resample, Butterworth bandpass (300-1500 Hz by
default), frame energies against a noise-floor quantile, SNR thresholding,
merged speech intervals out. Ships with a mixer, spectrograms, a synthetic
corpus generator, and an evaluation/sweep harness.
"""

__version__ = "0.1.0"

from .audio_io import (
    AudioBuffer,
    WavMetadata,
    peak_normalize,
    read_wav,
    resample,
    write_wav,
)
from .config import CliConfig, load_config
from .corpus import generate_corpus
from .errors import VadKitError
from .evaluate import (
    EvalReport,
    GridPoint,
    LabeledClip,
    SweepResult,
    evaluate_clips,
    load_manifest,
    save_manifest,
    score,
    sweep,
)
from .filters import (
    BiquadCascade,
    BiquadSection,
    FilterSpec,
    apply_cascade,
    design_butterworth_bandpass,
    frequency_response,
    response_sweep,
)
from .mixing import MixSpec, mix
from .spectrogram import SpectrogramMatrix, spectrogram
from .vad import (
    VadConfig,
    VadResult,
    detect,
    detect_prefiltered,
    estimate_noise_floor_db,
    frame_energies,
    frame_energy_db,
    frame_signal,
    merge_intervals,
)

__all__ = [
    "AudioBuffer",
    "BiquadCascade",
    "BiquadSection",
    "CliConfig",
    "EvalReport",
    "FilterSpec",
    "GridPoint",
    "LabeledClip",
    "MixSpec",
    "SpectrogramMatrix",
    "SweepResult",
    "VadConfig",
    "VadKitError",
    "VadResult",
    "WavMetadata",
    "apply_cascade",
    "design_butterworth_bandpass",
    "detect",
    "detect_prefiltered",
    "estimate_noise_floor_db",
    "evaluate_clips",
    "frame_energies",
    "frame_energy_db",
    "frame_signal",
    "frequency_response",
    "generate_corpus",
    "load_config",
    "load_manifest",
    "merge_intervals",
    "mix",
    "peak_normalize",
    "read_wav",
    "resample",
    "response_sweep",
    "save_manifest",
    "score",
    "spectrogram",
    "sweep",
    "write_wav",
]
