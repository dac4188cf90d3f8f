"""Command-line front end.

One executable, one flat JSON config, subcommands mirroring the pipeline:
detect, mix, spectrogram, filter-dump, eval, sweep, gen-corpus, and
repro-figures. Exit codes: 0 success, 2 bad input, 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import __version__, repro
from .artifacts import read_json, write_json, write_table
from .audio_io import AudioBuffer, read_wav, write_wav
from .config import CliConfig, load_config, value_type
from .corpus import corpus_files, generate_corpus, labels_sidecar_path
from .errors import LengthMismatch, VadKitError
from .evaluate import (
    LabeledClip,
    evaluate_clips,
    load_manifest,
    point_to_dict,
    report_to_dict,
    sweep,
    sweep_to_csv,
)
from .filters import cascade_to_dict, design_butterworth_bandpass, response_sweep
from .mixing import MixSpec, ambient_gain_for_snr, mix
from .spectrogram import spectrogram, to_json_dict, write_long_csv, write_pgm
from .vad import detect, frames_to_csv, result_to_dict

import numpy as np


# The settings each subcommand reads, and so the config flags it takes. --config is on every one.
_FILTER_SETTINGS = ("sample_rate_hz", "filter_order", "low_cutoff_hz", "high_cutoff_hz")
_SWEEP_SETTINGS = (*_FILTER_SETTINGS, "hop_s", "noise_percentile")  # --windows/--thresholds set the rest
_DETECT_SETTINGS = (*_SWEEP_SETTINGS, "window_s", "threshold_db")
_SPECTROGRAM_SETTINGS = ("sample_rate_hz", "fft_size", "spectrogram_hop")


def _add_config_flags(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="PATH", help="flat JSON config file")
    for field in dataclasses.fields(CliConfig):
        meta = field.metadata
        if field.name in names:
            group.add_argument(
                meta["flag"], dest=field.name, type=value_type(field), metavar=meta["metavar"], help=meta["help"]
            )


def _effective_config(args, base: CliConfig = CliConfig()) -> CliConfig:
    config = load_config(args.config, base) if args.config else base
    flags = {field.name: getattr(args, field.name, None) for field in dataclasses.fields(CliConfig)}
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


_INPUT_ARGS = ("input", "speech", "ambient", "manifest", "config", "speech_labels")


def _refuse_overwrites(args, *outputs, inputs=()) -> None:
    """Raise before anything is written if an output is an input or another output.

    The inputs are the files named by _INPUT_ARGS plus `inputs`, those a
    command reads without naming them (a manifest's clips, a labels
    sidecar). Two paths are one file when their real paths match or, for
    files that exist, their (st_dev, st_ino) do, as for hard links.
    """
    named = (getattr(args, name, None) for name in _INPUT_ARGS)
    seen = {key: f"input {path}" for path in filter(None, [*named, *inputs]) for key in _file_keys(path)}
    for path in filter(None, outputs):
        keys = _file_keys(path)
        for key in keys:
            if key in seen:
                raise VadKitError(f"output {path} is the same file as the {seen[key]}")
        seen.update((key, f"output {path}") for key in keys)


def _file_keys(path: str) -> list:
    """The real path, and the device and inode when the file exists."""
    try:
        st = os.stat(path)
    except OSError:
        return [os.path.realpath(path)]
    return [os.path.realpath(path), (st.st_dev, st.st_ino)]


def cmd_detect(args) -> int:
    out = args.out or os.path.splitext(args.input)[0] + ".vad.json"
    _refuse_overwrites(args, out, args.frames_csv)
    config = _effective_config(args)
    cascade = design_butterworth_bandpass(config.filter_spec())
    result = detect(read_wav(args.input, config.sample_rate_hz)[0], cascade, config.vad_config())

    payload = result_to_dict(result)
    payload["effective_config"] = config.to_dict()
    payload["input_path"] = args.input
    write_json(payload, out)
    if args.frames_csv:
        frames_to_csv(result, args.frames_csv)

    print(f"noise floor: {result.noise_power_db:.2f} dB")
    print(f"speech intervals ({len(result.intervals)}):")
    for start, end in result.intervals:
        print(f"  {start:.3f} - {end:.3f} s")
    print(f"wrote {out}")
    return 0


def _speech_labels_for(path: str, override: str | None, duration_s: float):
    labels = override or labels_sidecar_path(path)
    if not override and not os.path.exists(labels):
        return [(0.0, duration_s)]
    raw = read_json(labels, "speech labels")
    try:  # the manifest's interval rules; an error names the labels file
        return LabeledClip(labels, tuple(raw["speech_intervals"])).speech_intervals
    except (KeyError, TypeError, ValueError) as exc:
        raise VadKitError(f"speech labels {labels} are malformed: {exc!r}") from exc


def cmd_mix(args) -> int:
    sidecar_path = os.path.splitext(args.out)[0] + ".mix.json"
    _refuse_overwrites(args, args.out, sidecar_path, inputs=[args.speech_labels or labels_sidecar_path(args.speech)])
    config = _effective_config(args)
    speech, _ = read_wav(args.speech)
    labels = _speech_labels_for(args.speech, args.speech_labels, speech.duration_s)
    ambient, _ = read_wav(args.ambient, speech.sample_rate_hz)
    if len(ambient) < len(speech):
        raise LengthMismatch(
            f"ambient clip ({len(ambient)} samples) is shorter than speech ({len(speech)})"
        )
    ambient = AudioBuffer(ambient.samples[: len(speech)], ambient.sample_rate_hz)

    spec = MixSpec(
        target_snr_db=args.snr,
        ambient_gain=args.gain,
        normalize_peak=args.normalize_peak,
    )
    if spec.target_snr_db is not None:  # mix at the solved gain, which the sidecar records
        gain = ambient_gain_for_snr(speech.samples, ambient.samples, spec.target_snr_db)
        spec = MixSpec(ambient_gain=gain, normalize_peak=spec.normalize_peak)
    mixed = mix(speech, ambient, spec)
    write_wav(mixed, args.out, format=args.format)

    sidecar = {
        "speech_source": args.speech,
        "ambient_source": args.ambient,
        "target_snr_db": args.snr,
        "ambient_gain": spec.ambient_gain,
        "speech_intervals": [list(iv) for iv in labels],
        "effective_config": config.to_dict(),
    }
    write_json(sidecar, sidecar_path)
    print(f"wrote {args.out} ({mixed.duration_s:.3f} s, ambient gain {spec.ambient_gain:.6f})")
    return 0


def cmd_spectrogram(args) -> int:
    out = args.out or os.path.splitext(args.input)[0] + ".spec." + args.format
    _refuse_overwrites(args, out)
    config = _effective_config(args)
    buffer, _ = read_wav(args.input, config.sample_rate_hz)
    matrix = spectrogram(buffer, fft_size=config.fft_size, hop_samples=config.spectrogram_hop)
    if args.format == "json":
        payload = to_json_dict(matrix)
        payload["effective_config"] = config.to_dict()
        write_json(payload, out)
    elif args.format == "csv":
        write_long_csv(matrix, out)
    else:
        write_pgm(matrix, out)
    print(f"wrote {out} ({matrix.frame_count} frames x {matrix.bin_count} bins)")
    return 0


def cmd_filter_dump(args) -> int:
    csv_path = args.response_csv or os.path.splitext(args.out)[0] + ".response.csv"
    _refuse_overwrites(args, args.out, csv_path)
    config = _effective_config(args)
    cascade = design_butterworth_bandpass(config.filter_spec())
    payload = cascade_to_dict(cascade)
    payload["effective_config"] = config.to_dict()
    write_json(payload, args.out)

    nyquist = config.sample_rate_hz / 2.0
    freqs = np.linspace(0.0, nyquist, 801)
    freqs = np.unique(np.concatenate([freqs, [config.low_cutoff_hz, config.high_cutoff_hz]]))
    mags = response_sweep(cascade, freqs)
    write_table(csv_path, {"freq_hz": freqs, "magnitude_db": mags}, "\n")
    print(f"wrote {args.out} ({len(cascade.sections)} sections) and {csv_path}")
    return 0


def cmd_eval(args) -> int:
    clips = load_manifest(args.manifest)
    _refuse_overwrites(args, args.out, inputs=[clip.audio_path for clip in clips])
    config = _effective_config(args)
    base = os.path.dirname(os.path.abspath(args.manifest))
    cascade = design_butterworth_bandpass(config.filter_spec())
    aggregate, per_clip = evaluate_clips(clips, cascade, config.vad_config(), jobs=args.jobs)
    payload = {
        "report": report_to_dict(aggregate),
        "per_clip": [
            {"audio_path": os.path.relpath(clip.audio_path, base), "report": report_to_dict(rep)}
            for clip, rep in per_clip
        ],
        "effective_config": config.to_dict(),
    }
    write_json(payload, args.out)
    print(
        f"clips: {len(clips)}  tp={aggregate.tp} fp={aggregate.fp} "
        f"tn={aggregate.tn} fn={aggregate.fn}  f1={aggregate.f1:.4f}"
    )
    print(f"wrote {args.out}")
    return 0


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise VadKitError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise VadKitError(f"{flag} expects at least one value")
    return values


def cmd_sweep(args) -> int:
    clips = load_manifest(args.manifest)
    _refuse_overwrites(args, args.out, args.csv, inputs=[clip.audio_path for clip in clips])
    config = _effective_config(args)
    cascade = design_butterworth_bandpass(config.filter_spec())
    result = sweep(
        clips,
        _parse_float_list(args.windows, "--windows"),
        _parse_float_list(args.thresholds, "--thresholds"),
        cascade,
        base_config=config.vad_config(),
        jobs=args.jobs,
    )
    payload = {
        "grid": [point_to_dict(p) for p in result.grid],
        "best": point_to_dict(result.best),
        "effective_config": config.to_dict(),
    }
    write_json(payload, args.out)
    if args.csv:
        sweep_to_csv(result, args.csv)
    best = result.best
    print(
        f"best: window={best.window_s:g} s threshold={best.threshold_db:g} dB "
        f"f1={best.report.f1:.4f}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_gen_corpus(args) -> int:
    _refuse_overwrites(args, *corpus_files(args.out_dir))
    config = _effective_config(args)
    clips = generate_corpus(
        args.seed,
        args.out_dir,
        sample_rate_hz=config.sample_rate_hz,
        clip_duration_s=args.duration,
    )
    print(f"wrote {len(clips)} clips under {args.out_dir}")
    print(f"manifest: {os.path.join(args.out_dir, 'manifest.json')}")
    return 0


def cmd_repro_figures(args) -> int:
    _refuse_overwrites(args, *repro.output_files(args.out_dir))
    config = _effective_config(args, repro.BASE_CONFIG)
    files = repro.run(args.out_dir, seed=args.seed, snr_db=args.snr, config=config)
    for name in files:
        print(f"wrote {os.path.join(args.out_dir, name)}")
    return 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser. It takes no abbreviations, as sweep's --window and --threshold would read as
    --windows and --thresholds, and it refuses the arguments it does not take itself, so that the message
    shows the subcommand's usage line rather than the top-level one."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vadkit",
        description="Offline voice activity detection: bandpass, frame energies, "
        "SNR thresholding, plus mixing, spectrograms, and evaluation tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    p = sub.add_parser("detect", help="run the detector on a WAV file")
    p.add_argument("input", help="input WAV path")
    p.add_argument("--out", metavar="PATH", help="result JSON path (default: <input>.vad.json)")
    p.add_argument("--frames-csv", metavar="PATH", help="also write the frame table as CSV")
    _add_config_flags(p, _DETECT_SETTINGS)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("mix", help="mix speech with an ambient bed")
    p.add_argument("speech", help="speech WAV path")
    p.add_argument("ambient", help="ambient WAV path")
    p.add_argument("--out", metavar="PATH", required=True, help="output WAV path")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--snr", type=float, metavar="DB", help="target SNR in dB")
    mode.add_argument("--gain", type=float, metavar="G", help="fixed ambient gain")
    p.add_argument("--normalize-peak", type=float, metavar="P", help="rescale output peak to P")
    p.add_argument("--format", choices=["pcm16", "float32"], default="float32", help="output sample format")
    p.add_argument("--speech-labels", metavar="PATH", help="labels JSON for the speech clip")
    _add_config_flags(p, ())
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("spectrogram", help="write a spectrogram of a WAV file")
    p.add_argument("input", help="input WAV path")
    p.add_argument("--out", metavar="PATH", help="output path (default derives from input)")
    p.add_argument("--format", choices=["json", "csv", "pgm"], default="json", help="output format")
    _add_config_flags(p, _SPECTROGRAM_SETTINGS)
    p.set_defaults(func=cmd_spectrogram)

    p = sub.add_parser("filter-dump", help="write the bandpass design and its response sweep")
    p.add_argument("--out", metavar="PATH", default="filter.json", help="cascade JSON path")
    p.add_argument("--response-csv", metavar="PATH", help="response CSV path (default: <out>.response.csv)")
    _add_config_flags(p, _FILTER_SETTINGS)
    p.set_defaults(func=cmd_filter_dump)

    p = sub.add_parser("eval", help="score the detector against a labeled manifest")
    p.add_argument("--manifest", metavar="PATH", required=True, help="manifest JSON path")
    p.add_argument("--out", metavar="PATH", default="eval_report.json", help="report JSON path")
    p.add_argument("--jobs", type=int, default=1, metavar="N", help="parallel worker count")
    _add_config_flags(p, _DETECT_SETTINGS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid-search window length and threshold")
    p.add_argument("--manifest", metavar="PATH", required=True, help="manifest JSON path")
    p.add_argument("--windows", metavar="S,S,...", required=True, help="window lengths in seconds")
    p.add_argument("--thresholds", metavar="DB,DB,...", required=True, help="thresholds in dB")
    p.add_argument("--out", metavar="PATH", default="sweep.json", help="grid JSON path")
    p.add_argument("--csv", metavar="PATH", help="grid CSV path")
    p.add_argument("--jobs", type=int, default=1, metavar="N", help="parallel worker count")
    _add_config_flags(p, _SWEEP_SETTINGS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen-corpus", help="generate the seeded synthetic corpus")
    p.add_argument("--out-dir", metavar="DIR", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, metavar="N", help="corpus seed")
    p.add_argument("--duration", type=float, default=4.0, metavar="S", help="clip duration in seconds")
    _add_config_flags(p, ("sample_rate_hz",))
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser(
        "repro-figures",
        help="regenerate the waveform/decision-track and spectrogram figure data",
        description="Chains gen-corpus, mix, detect, and spectrogram into the "
        "figure data set. Detection uses --threshold, else threshold_db from "
        f"--config, else a tuned {repro.BASE_CONFIG.threshold_db:g} dB suited "
        "to the generated mixtures.",
    )
    p.add_argument("--out-dir", metavar="DIR", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, metavar="N", help="corpus seed")
    p.add_argument("--snr", type=float, default=10.0, metavar="DB", help="mixture SNR for the figures")
    _add_config_flags(p, _DETECT_SETTINGS + _SPECTROGRAM_SETTINGS)
    p.set_defaults(func=cmd_repro_figures)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process.

    Parsing leaves no state in it, and building it takes about 1.25 ms, 4-6%
    of a detect or sweep op run in one process.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except VadKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal bug, distinct exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
