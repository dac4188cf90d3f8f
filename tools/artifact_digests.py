"""Print a SHA-256 digest of every artifact a fixed set of vadkit commands writes.

Runs each command through `vadkit.cli.main` inside a fresh temporary
directory, with relative paths so that no artifact records where it ran.
Prints one `sha256  relpath` line per file written, including one
`stdout/NN-name.txt` file per command that holds its exit code and stdout.
A 44.1 kHz corpus and a seeded stereo PCM16 file, written here with the
stdlib `wave` module, take detect through the resampler and the downmix;
a sweep over that corpus takes the per-clip engine through the resampler.
Seeded 3-channel float32 and 10-channel PCM16 files, written with numpy and
`struct`, take it through the reader's other two downmix paths (columns
added in order below 8 channels, numpy's mean from 8 up). A seeded 25 s
stereo PCM24 file at 44.1 kHz takes detect's blocked read through 17
decoder blocks, the last one partial, and four full resampler products of
512 rows and a partial one per column group. A seeded 20 s stereo PCM16
file at 48 kHz, the commonest recording rate, takes detect through a rate
pair whose windows overlap: each row holds 16 whole periods, and each of
its 40 products copies its windows. A seeded 10 s stereo float32
file at 96 kHz, detected at 1 kHz, takes the resampler through a rate pair
whose windows read 64 of every 96 samples: the reader passes over the
samples between two products and after the last window.
Two checkouts write the same bytes when their outputs are identical:

    PYTHONPATH=src python3 tools/artifact_digests.py > change.txt
    PYTHONPATH=../parent/src python3 tools/artifact_digests.py > parent.txt
    diff parent.txt change.txt

With --keep DIR the commands run in DIR, a new directory, which keeps the
files; `tools/compare_artifacts.py` then says how two such trees differ:

    PYTHONPATH=../parent/src python3 tools/artifact_digests.py --keep /tmp/parent
    PYTHONPATH=src python3 tools/artifact_digests.py --keep /tmp/change
    python3 tools/compare_artifacts.py /tmp/parent /tmp/change
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import struct
import sys
import tempfile
import wave

import numpy as np

from vadkit.cli import main

_CLIP = "corpus/mix_a_white_snr10.wav"
_MANIFEST = "corpus/manifest.json"
_STEREO = "stereo44.wav"
_FLOAT3 = "float3ch.wav"
_PCM10 = "pcm10ch.wav"
_PCM24 = "pcm24stereo.wav"
_GAP96 = "float96k.wav"
_STEREO48 = "stereo48.wav"

COMMANDS = [
    ("gen-corpus", ["gen-corpus", "--out-dir", "corpus", "--seed", "0"]),
    ("detect-t90", ["detect", _CLIP, "--out", "detect_t90.json", "--frames-csv", "detect_t90.csv",
                    "--threshold", "90"]),
    ("detect-t12", ["detect", _CLIP, "--out", "detect_t12.json", "--frames-csv", "detect_t12.csv",
                    "--threshold", "12"]),
    ("detect-w20-h10", ["detect", _CLIP, "--out", "detect_w20.json", "--frames-csv", "detect_w20.csv",
                        "--threshold", "12", "--window", "0.02", "--hop", "0.01"]),
    ("sweep", ["sweep", "--manifest", _MANIFEST, "--windows", "0.155,0.31",
               "--thresholds", "6,12,20", "--out", "sweep.json", "--csv", "sweep.csv"]),
    ("eval", ["eval", "--manifest", _MANIFEST, "--threshold", "12", "--out", "eval.json"]),
    ("eval-jobs2-w20-h10", ["eval", "--manifest", _MANIFEST, "--jobs", "2", "--window", "0.02", "--hop", "0.01",
                            "--threshold", "9", "--out", "eval_jobs2.json"]),
    ("sweep-jobs2-bench-grid", ["sweep", "--manifest", _MANIFEST, "--jobs", "2",
                                "--windows", "0.02,0.05,0.155,0.31,0.62",
                                "--thresholds", ",".join(str(t) for t in range(3, 31)),
                                "--out", "sweep_jobs2.json", "--csv", "sweep_jobs2.csv"]),
    ("filter-dump", ["filter-dump", "--out", "filter.json"]),
    ("spectrogram-json", ["spectrogram", "corpus/speech_a.wav", "--format", "json", "--out", "spec.json"]),
    ("spectrogram-csv", ["spectrogram", "corpus/speech_a.wav", "--format", "csv", "--out", "spec.csv"]),
    ("spectrogram-pgm", ["spectrogram", "corpus/speech_a.wav", "--format", "pgm", "--out", "spec.pgm"]),
    ("mix", ["mix", "corpus/speech_a.wav", "corpus/ambient_white.wav", "--snr", "10",
             "--normalize-peak", "0.9", "--out", "mix.wav"]),
    ("repro-figures-seed0", ["repro-figures", "--out-dir", "figs0", "--seed", "0"]),
    ("repro-figures-seed3", ["repro-figures", "--out-dir", "figs3", "--seed", "3"]),
    ("gen-corpus-44k", ["gen-corpus", "--out-dir", "corpus44", "--seed", "0", "--sample-rate", "44100"]),
    ("detect-44k-mix", ["detect", "corpus44/mix_a_white_snr10.wav", "--out", "detect_44k.json",
                        "--frames-csv", "detect_44k.csv", "--threshold", "12"]),
    ("detect-stereo-44k", ["detect", _STEREO, "--out", "detect_stereo.json", "--frames-csv", "detect_stereo.csv",
                           "--threshold", "12"]),
    ("detect-float32-3ch", ["detect", _FLOAT3, "--out", "detect_float3.json", "--frames-csv", "detect_float3.csv",
                            "--threshold", "12"]),
    ("detect-pcm16-10ch", ["detect", _PCM10, "--out", "detect_pcm10.json", "--frames-csv", "detect_pcm10.csv",
                           "--threshold", "12"]),
    ("sweep-44k", ["sweep", "--manifest", "corpus44/manifest.json", "--windows", "0.155,0.31",
                   "--thresholds", "6,12,20", "--out", "sweep_44k.json", "--csv", "sweep_44k.csv"]),
    # A window longer than every 4 s clip: each clip is one zero-padded frame.
    ("detect-w5", ["detect", _CLIP, "--out", "detect_w5.json", "--frames-csv", "detect_w5.csv",
                   "--window", "5", "--threshold", "0"]),
    ("eval-w5", ["eval", "--manifest", _MANIFEST, "--window", "5", "--threshold", "0", "--out", "eval_w5.json"]),
    ("detect-pcm24-stereo-25s", ["detect", _PCM24, "--out", "detect_pcm24.json", "--frames-csv", "detect_pcm24.csv",
                                 "--threshold", "12"]),
    ("detect-96k-at-1k", ["detect", _GAP96, "--out", "detect_gap.json", "--frames-csv", "detect_gap.csv",
                          "--sample-rate", "1000", "--low", "100", "--high", "400", "--threshold", "12"]),
    # A geometry other than the default, under the frame-matrix limit.
    ("spectrogram-json-fft256-hop64", ["spectrogram", "corpus/speech_a.wav", "--format", "json",
                                       "--fft-size", "256", "--spectrogram-hop", "64", "--out", "spec256.json"]),
    ("spectrogram-pgm-fft256-hop64", ["spectrogram", "corpus/speech_a.wav", "--format", "pgm",
                                      "--fft-size", "256", "--spectrogram-hop", "64", "--out", "spec256.pgm"]),
    # A narrow band at 48 kHz: the filter JSON holds b0 = 6.544681809240889e-05, which orjson spells otherwise.
    ("filter-dump-narrow-48k", ["filter-dump", "--low", "100", "--high", "101", "--sample-rate", "48000",
                                "--out", "filter_narrow.json"]),
    # 25,000 frames of five columns of three dtypes (int64, three float64, int8): the frames CSV
    # crosses blocks of the table writer.
    ("detect-pcm24-w20-h1", ["detect", _PCM24, "--out", "detect_pcm24_h1.json", "--frames-csv", "detect_pcm24_h1.csv",
                             "--window", "0.02", "--hop", "0.001", "--threshold", "12"]),
    # Unsorted thresholds with a duplicate and 0.0, which the floor frame's SNR equals; each grid
    # window is framed at the --hop below it, as eval frames it.
    ("sweep-unsorted-thresholds", ["sweep", "--manifest", _MANIFEST, "--windows", "0.05,0.02",
                                   "--thresholds", "12,0,6,12", "--hop", "0.01",
                                   "--out", "sweep_unsorted.json", "--csv", "sweep_unsorted.csv"]),
    # Three workers over 13 clips, with a hop below the window and a threshold of 0 dB.
    ("eval-jobs3-w50-h20", ["eval", "--manifest", _MANIFEST, "--jobs", "3", "--window", "0.05", "--hop", "0.02",
                            "--threshold", "0", "--out", "eval_jobs3.json"]),
    ("detect-stereo-48k", ["detect", _STEREO48, "--out", "detect_stereo48.json",
                           "--frames-csv", "detect_stereo48.csv", "--threshold", "12"]),
    # A base config whose noise percentile and hop differ from the defaults: every grid point's
    # config carries them, and its hop_length_s is the hop, not the grid window.
    ("sweep-p20-h10", ["sweep", "--manifest", _MANIFEST, "--windows", "0.02,0.05,0.31", "--thresholds", "3,9,15",
                       "--noise-percentile", "0.2", "--hop", "0.01",
                       "--out", "sweep_p20.json", "--csv", "sweep_p20.csv"]),
    # Poles of radius 0.99995: A^(16 ROW) is about 0.66, so the state carried from one group of rows to
    # the next moves the output, which no design above does.
    ("detect-order12-1000-1001Hz", ["detect", _CLIP, "--out", "detect_narrow.json",
                                    "--frames-csv", "detect_narrow.csv",
                                    "--order", "12", "--low", "1000", "--high", "1001", "--threshold", "12"]),
]


def write_stereo_pcm16(path: str, seconds: float = 2.0, rate: int = 44100) -> None:
    """Seeded stereo PCM16: a gated 440 Hz tone over noise on the left, noise alone on the right."""
    rng = np.random.default_rng(7)
    t = np.arange(int(seconds * rate)) / rate
    left = 0.3 * np.sin(2 * np.pi * 440.0 * t) * (t % 1.0 < 0.5) + 0.01 * rng.standard_normal(t.size)
    right = 0.02 * rng.standard_normal(t.size)
    frames = np.round(np.stack([left, right], axis=1) * 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(frames.tobytes())


def write_multichannel(path: str, channels: int, sample_format: str, seed: int,
                       seconds: float = 3.0, rate: int = 22050) -> None:
    """Seeded multichannel WAV in "float32", "pcm16" or "pcm24": a gated 300 Hz
    tone in channel 0, independent noise in every channel."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * rate)) / rate
    x = 0.02 * rng.standard_normal((t.size, channels))
    x[:, 0] += 0.4 * np.sin(2 * np.pi * 300.0 * t) * (t % 1.0 < 0.5)
    if sample_format == "float32":
        code, width, data = 3, 4, x.astype("<f4").tobytes()
    elif sample_format == "pcm16":
        code, width, data = 1, 2, np.round(x * 32767).astype("<i2").tobytes()
    else:  # pcm24: the low three bytes of each little-endian int32
        code, width = 1, 3
        data = np.round(x * 8388607).astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    fmt = struct.pack("<HHIIHH", code, channels, rate, rate * channels * width, channels * width, 8 * width)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def run_commands(root: str) -> None:
    os.makedirs(os.path.join(root, "stdout"))
    write_stereo_pcm16(os.path.join(root, _STEREO))
    write_stereo_pcm16(os.path.join(root, _STEREO48), seconds=20.0, rate=48000)
    write_multichannel(os.path.join(root, _FLOAT3), 3, "float32", seed=3)
    write_multichannel(os.path.join(root, _PCM10), 10, "pcm16", seed=10)
    write_multichannel(os.path.join(root, _PCM24), 2, "pcm24", seed=24, seconds=25.0, rate=44100)
    write_multichannel(os.path.join(root, _GAP96), 2, "float32", seed=96, seconds=10.0, rate=96000)
    for i, (name, argv) in enumerate(COMMANDS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        with open(os.path.join(root, "stdout", f"{i:02d}-{name}.txt"), "w") as fh:
            fh.write(f"exit {code}\n{out.getvalue()}")


def digests(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            yield digest, os.path.relpath(path, root)


def print_digests(root: str) -> None:
    start = os.getcwd()
    os.chdir(root)
    try:
        run_commands(root)
    finally:
        os.chdir(start)
    for digest, rel in digests(root):
        print(f"{digest}  {rel}")


def main_digests(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", help="run in DIR, a new directory, and keep the files there")
    args = parser.parse_args(argv)
    if args.keep is None:
        with tempfile.TemporaryDirectory() as root:
            print_digests(root)
    elif os.path.exists(args.keep):
        parser.error(f"--keep {args.keep}: already exists")
    else:
        os.makedirs(args.keep)
        print_digests(os.path.abspath(args.keep))
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
