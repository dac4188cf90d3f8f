"""The settings schema: config-file values, echo of every setting, the repro
threshold precedence, the config flags each subcommand takes, the man page,
and a property test over config files."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from vadkit import AudioBuffer, CliConfig, LabeledClip, load_config, save_manifest, write_wav
from vadkit.cli import build_parser, main
from vadkit.errors import BadConfig

FIELDS = dataclasses.fields(CliConfig)
FLAGGED = [f for f in FIELDS if f.metadata["flag"]]

# A valid value other than the default for every field, and another for every flag.
FILE_VALUES = {
    "sample_rate_hz": 22050, "filter_order": 6, "low_cutoff_hz": 250.0, "high_cutoff_hz": 2000.0,
    "window_s": 0.2, "threshold_db": 15.0, "hop_s": 0.1, "noise_percentile": 0.2,
    "energy_floor": 1e-12, "fft_size": 512, "spectrogram_hop": 256,
}
FLAG_VALUES = {
    "sample_rate_hz": 32000, "filter_order": 8, "low_cutoff_hz": 200.0, "high_cutoff_hz": 3000.0,
    "window_s": 0.25, "threshold_db": 9.0, "hop_s": 0.05, "noise_percentile": 0.3,
    "fft_size": 2048, "spectrogram_hop": 128,
}


def _main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def test_every_setting_reaches_effective_config(tmp_path):
    assert set(FILE_VALUES) == {f.name for f in FIELDS}
    assert set(FLAG_VALUES) == {f.name for f in FLAGGED}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FILE_VALUES))
    assert _main(["filter-dump", "--out", tmp_path / "file.json", "--config", cfg])[0] == 0
    echoed = _read_json(tmp_path / "file.json")["effective_config"]
    assert echoed == FILE_VALUES
    assert {k: type(v) for k, v in echoed.items()} == {k: type(v) for k, v in FILE_VALUES.items()}

    # repro-figures chains every stage, so it alone takes every flag.
    flags = [arg for f in FLAGGED for arg in (f.metadata["flag"], FLAG_VALUES[f.name])]
    assert _main(["repro-figures", "--out-dir", tmp_path / "figs", "--config", cfg, *flags])[0] == 0
    assert _read_json(tmp_path / "figs" / "summary.json")["effective_config"] == {**FILE_VALUES, **FLAG_VALUES}


def test_config_values_take_the_field_type(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"sample_rate_hz": 22050.0, "threshold_db": 12, "hop_s": null}')
    config = load_config(cfg)
    assert type(config.sample_rate_hz) is int and config.sample_rate_hz == 22050
    assert type(config.threshold_db) is float and config.threshold_db == 12.0
    assert config.hop_s is None


@pytest.mark.parametrize(
    "key, text",
    [
        ("sample_rate_hz", "1e400"),
        ("sample_rate_hz", "-1" + "0" * 400),
        ("sample_rate_hz", "16000.7"),
        ("sample_rate_hz", "true"),
        ("sample_rate_hz", '"16000"'),
        ("threshold_db", "NaN"),
        ("threshold_db", "-Infinity"),
        ("threshold_db", "null"),
        ("energy_floor", "[1e-10]"),
    ],
)
def test_config_rejects_bad_values_by_key(tmp_path, key, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(f'{{"{key}": {text}}}')
    with pytest.raises(BadConfig, match=key):
        load_config(cfg)


@pytest.mark.parametrize(
    "data", [b'{"fft_size": ' + b"9" * 5000 + b"}", b"\xff\xfe{"], ids=["int-over-4300-digits", "not-utf8"]
)
def test_unparseable_config_is_bad_config(tmp_path, data):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(data)
    with pytest.raises(BadConfig, match="not valid JSON"):
        load_config(cfg)


@pytest.mark.parametrize(
    "flags, file_threshold, expected",
    [([], None, 12.0), ([], 30, 30.0), (["--threshold", "30"], None, 30.0), (["--threshold", "20"], 30, 20.0)],
    ids=["base", "file", "flag", "flag-beats-file"],
)
def test_repro_figures_threshold_precedence(tmp_path, flags, file_threshold, expected):
    argv = ["repro-figures", "--out-dir", tmp_path / "figs", *flags]
    if file_threshold is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({"threshold_db": file_threshold}))
        argv += ["--config", tmp_path / "cfg.json"]
    assert _main(argv)[0] == 0
    detection = _read_json(tmp_path / "figs" / "fig3_detection.json")
    summary = _read_json(tmp_path / "figs" / "summary.json")
    assert detection["config"]["snr_threshold_db"] == expected  # the threshold that detected
    for echoed in (detection, detection["effective_config"], summary, summary["effective_config"]):
        assert echoed["threshold_db"] == expected


# The config flags each subcommand takes: those of the settings it reads.
FILTER_FLAGS = ("--sample-rate", "--order", "--low", "--high")
DETECT_FLAGS = (*FILTER_FLAGS, "--window", "--threshold", "--hop", "--noise-percentile")
TAKES = {
    "detect": DETECT_FLAGS,
    "eval": DETECT_FLAGS,
    "sweep": (*FILTER_FLAGS, "--hop", "--noise-percentile"),  # --windows and --thresholds set the rest
    "spectrogram": ("--sample-rate", "--fft-size", "--spectrogram-hop"),
    "filter-dump": FILTER_FLAGS,
    "gen-corpus": ("--sample-rate",),
    "mix": (),
    "repro-figures": tuple(f.metadata["flag"] for f in FLAGGED),
}
FIELD_OF = {f.metadata["flag"]: f.name for f in FLAGGED}


def _subparsers() -> dict:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_takes_the_flags_of_the_settings_it_reads():
    parsers = _subparsers()
    assert set(parsers) == set(TAKES)
    for name, parser in parsers.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert "--config" in flags, name
        assert flags & set(FIELD_OF) == set(TAKES[name]), name
        shown = set(re.findall(r"--[a-z-]+", parser.format_help()))
        assert shown & set(FIELD_OF) == set(TAKES[name]), name
    assert sum(map(len, TAKES.values())) == 40


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory):
    """A 3 s clip whose 1 kHz tone rises 40 dB over a hum at 100 Hz and a tone at 4 kHz, both out
    of band, so that each filter setting moves the noise floor and every frame's SNR; a bed to mix
    in; and a manifest that labels the clip's second half speech."""
    root = tmp_path_factory.mktemp("flag-inputs")
    t = np.arange(48000) / 16000
    floor = 0.1 * np.sin(2 * np.pi * 100 * t) + 0.1 * np.sin(2 * np.pi * 4000 * t)
    noise = 0.01 * np.random.default_rng(5).standard_normal(t.size)
    speech = 0.005 * 100 ** (t / 3) * np.sin(2 * np.pi * 1000 * t)
    write_wav(AudioBuffer(floor + noise + speech, 16000), root / "clip.wav")
    write_wav(AudioBuffer(noise, 16000), root / "bed.wav")
    save_manifest([LabeledClip(str(root / "clip.wav"), ((1.5, 3.0),))], root / "m.json")
    return root


def _base_argv(command: str, inputs) -> list:
    """A command line of each subcommand, its outputs relative to the working directory."""
    return {
        "detect": ["detect", inputs / "clip.wav", "--out", "d.json", "--frames-csv", "d.csv"],
        "eval": ["eval", "--manifest", inputs / "m.json", "--window", "0.06", "--threshold", "10"],
        "sweep": ["sweep", "--manifest", inputs / "m.json", "--windows", "0.05,0.1", "--thresholds", "5,10,15,20"],
        "spectrogram": ["spectrogram", inputs / "clip.wav", "--out", "s.json"],
        "filter-dump": ["filter-dump"],
        "gen-corpus": ["gen-corpus", "--out-dir", "c", "--duration", "3.2"],
        "mix": ["mix", inputs / "clip.wav", inputs / "bed.wav", "--out", "m.wav", "--snr", "10"],
        "repro-figures": ["repro-figures", "--out-dir", "figs"],
    }[command]


def _written(directory, argv) -> tuple[int, dict]:
    """The exit code of argv run in the new directory, argparse's refusals included, and the bytes
    of every file it wrote there; a JSON file's without its effective_config."""
    directory.mkdir()
    here = os.getcwd()
    os.chdir(directory)
    try:
        code, _ = _main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(here)
    written = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            if isinstance(payload, dict):
                payload.pop("effective_config", None)
            data = json.dumps(payload)  # NaN compares equal as text
        written[str(path.relative_to(directory))] = data
    return code, written


@pytest.mark.parametrize("command", sorted(c for c in TAKES if len(TAKES[c]) < len(FIELD_OF)))
def test_a_config_flag_the_subcommand_does_not_read_exits_2_and_writes_nothing(tmp_path, flag_inputs, command):
    base = _base_argv(command, flag_inputs)
    for flag in (f for f in FIELD_OF if f not in TAKES[command]):
        assert _written(tmp_path / flag, [*base, flag, FLAG_VALUES[FIELD_OF[flag]]]) == (2, {}), flag


@pytest.mark.parametrize("command", sorted(c for c in TAKES if TAKES[c]))
def test_every_config_flag_the_subcommand_takes_changes_what_it_writes(tmp_path, flag_inputs, command):
    base = _base_argv(command, flag_inputs)
    code, before = _written(tmp_path / "base", base)
    assert code == 0 and before
    for flag in TAKES[command]:
        code, after = _written(tmp_path / flag, [*base, flag, FLAG_VALUES[FIELD_OF[flag]]])
        assert code == 0, flag
        assert after.keys() == before.keys() and after != before, flag


def test_man_page_names_every_setting():
    text = (Path(__file__).parents[1] / "docs" / "vadkit.1.md").read_text()
    for field in FIELDS:
        assert f"`{field.name}`" in text, field.name
    # Every flag of every subcommand, the settings' flags among them.
    parsers = _subparsers()
    for name, parser in parsers.items():
        for action in parser._actions:
            for flag in action.option_strings:
                if flag.startswith("--"):
                    assert f"**{flag}**" in text, (name, flag)
    # Each OPTIONS entry of --config and of the settings' flags lists the subcommands that take them.
    options = text.split("## OPTIONS")[1].split("\n## ")[0]
    listed = {}
    for entry in options.split("\n\n**")[1:]:
        names = re.search(r"Subcommands: ([^.]*)\.", entry)
        for flag in re.findall(r"(--[a-z-]+)\*\*", entry.split("\n")[0]):
            listed[flag] = set(re.findall(r"[a-z-]+", names[1])) if names else None
    for flag in ("--config", *FIELD_OF):
        assert listed[flag] == {name for name, parser in parsers.items() if flag in parser._option_string_actions}, flag


class Raw(str):
    """JSON text written into the config file as it is."""


def _to_json(value) -> str:
    if isinstance(value, Raw):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_to_json(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)


_JUNK = st.sampled_from([
    None, True, False, "12", "x", [], {}, math.inf, -math.inf, math.nan,
    Raw("1e400"), Raw("-1e400"), Raw("1" + "0" * 400),
])
# Numbers are drawn near the valid range of each key, so that about half the
# cases pass. They stay near the audio range: a 0.05 s clip, windows up to
# 0.05 s and rates up to 48 kHz bound the frame matrix at a few MB. A valid
# but far larger rate, order or window makes the resampler, the filter
# design or the framer allocate in proportion (ROADMAP item 4).
_NUMBERS = {
    "sample_rate_hz": st.sampled_from([8000, 16000, 22050, 48000, 16000.0, 16000.5, 0, 3]),
    "filter_order": st.sampled_from([2, 4, 6, 8, 4.0, 3, 0, -2, 4.5]),
    "low_cutoff_hz": st.floats(-100.0, 1400.0),
    "high_cutoff_hz": st.floats(1000.0, 4500.0),
    "window_s": st.floats(-0.01, 0.05),
    "hop_s": st.floats(-0.01, 0.05),
    "threshold_db": st.floats(allow_nan=False, allow_infinity=False),
    "noise_percentile": st.floats(-0.1, 1.1),
    "energy_floor": st.floats(-1e-10, 1.0),
    "fft_size": st.integers(),
    "spectrogram_hop": st.integers(),
    "no_such_key": st.integers(),
}
_ENTRY = st.sampled_from(sorted(_NUMBERS)).flatmap(
    lambda k: st.tuples(st.just(k), st.one_of(_NUMBERS[k], _NUMBERS[k], _NUMBERS[k], _JUNK))
)
_CONFIG = st.lists(_ENTRY, max_size=4).map(dict)
_CONFIGS = st.one_of(_CONFIG, _CONFIG, _CONFIG, _JUNK)


@pytest.fixture(scope="module")
def short_clip(tmp_path_factory):
    path = tmp_path_factory.mktemp("clip") / "clip.wav"
    rng = np.random.default_rng(0)
    write_wav(AudioBuffer(0.1 * rng.standard_normal(800), 16000), path)
    return path


@settings(max_examples=200, deadline=None)
@given(raw=_CONFIGS)
def test_any_config_file_exits_0_or_2(short_clip, raw):
    with tempfile.TemporaryDirectory(dir=short_clip.parent) as tmp:
        cfg, out, csv = (os.path.join(tmp, name) for name in ("cfg.json", "out.json", "out.csv"))
        Path(cfg).write_text(_to_json(raw))
        code, err = _main(["detect", short_clip, "--config", cfg, "--out", out, "--frames-csv", csv])
        assert code in (0, 2), err
        event(f"exit {code}")
        if code == 2:
            assert err.startswith("error: ")
            assert os.listdir(tmp) == ["cfg.json"]
            return
        echoed = _read_json(out)["effective_config"]
        for key, value in raw.items():
            assert echoed[key] == (echoed["window_s"] if value is None else value)
