"""Random flag values on the commands that take numbers: every run exits 0 or 2, and a run that
exits 2 writes nothing: no new file or directory, and no changed file."""

import argparse
import contextlib
import dataclasses
import io
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from vadkit import AudioBuffer, CliConfig, LabeledClip, save_manifest, write_wav
from vadkit.cli import build_parser, main
from vadkit.config import value_type

# Extreme and degenerate values, each spelled as a user would type it.
FLOAT_VALUES = ["0", "1", "-1", "0.5", "4", "1e-9", "1e12", "1e308", "-1e308", "nan", "inf", "-inf", "3e9"]
# int flags also get float spellings, which argparse refuses with exit 2.
INT_VALUES = ["0", "1", "-1", "2", "4", "3000000000", "1000000000000", "1e12", "nan", "3e9"]

CONFIG_FLAGS = {
    f.metadata["flag"]: INT_VALUES if value_type(f) is int else FLOAT_VALUES
    for f in dataclasses.fields(CliConfig)
    if f.metadata["flag"]
}
SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _flags(command: str) -> dict:
    """The config flags that the subcommand's parser takes, each with its values."""
    taken = SUBPARSERS[command]._option_string_actions
    return {flag: values for flag, values in CONFIG_FLAGS.items() if flag in taken}


MIX_FLAGS = {"--normalize-peak": FLOAT_VALUES} | _flags("mix")
# Each command's fixed arguments (a last flag then takes a value), and the flags drawn for it.
COMMANDS = {
    "detect": (["detect", "in.wav"], _flags("detect")),
    "spectrogram-json": (["spectrogram", "in.wav"], _flags("spectrogram")),
    "spectrogram-csv": (["spectrogram", "in.wav", "--format", "csv"], _flags("spectrogram")),
    "filter-dump": (["filter-dump"], _flags("filter-dump")),
    "mix-snr": (["mix", "in.wav", "bed.wav", "--out", "m.wav", "--snr"], MIX_FLAGS),
    "mix-gain": (["mix", "in.wav", "bed.wav", "--out", "m.wav", "--gain"], MIX_FLAGS),
    "gen-corpus": (["gen-corpus", "--out-dir", "c"], {"--duration": FLOAT_VALUES, "--seed": INT_VALUES} | _flags("gen-corpus")),
}
# eval and sweep read a manifest of two clips, so that no --jobs value starts more than two workers.
SCORING_COMMANDS = {
    "eval": (["eval", "--manifest", "m.json"], {"--jobs": INT_VALUES} | _flags("eval")),
    "sweep": (["sweep", "--manifest", "m.json", "--csv", "grid.csv", "--windows", "--thresholds"],
              {"--jobs": INT_VALUES} | _flags("sweep")),
}


def _lists(usual: list[str]):
    """One to three values, comma-separated, each one of usual or one of FLOAT_VALUES as often."""
    return st.lists(st.sampled_from(usual) | st.sampled_from(FLOAT_VALUES), min_size=1, max_size=3).map(",".join)


# The values of the fixed flags that take a list.
LIST_FLAGS = {"--windows": _lists(["0.02", "0.05", "0.31"]), "--thresholds": _lists(["0", "6", "12"])}


@st.composite
def _command_lines(draw, commands) -> list[str]:
    """A command with up to three of its flags, each with one of its values.

    A fixed flag that no value follows takes a drawn one: a list for
    LIST_FLAGS, else one of FLOAT_VALUES.
    """
    fixed, flags = commands[draw(st.sampled_from(sorted(commands)))]
    argv = []
    for arg, following in zip(fixed, [*fixed[1:], "--"]):
        if arg.startswith("--") and following.startswith("--"):
            arg += "=" + draw(LIST_FLAGS.get(arg, st.sampled_from(FLOAT_VALUES)))
        argv.append(arg)
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(flags[flag]))}")  # "=" keeps -1 from reading as a flag
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 0.25 s speech-like clip, a longer noise bed at 16 kHz, and a manifest that labels both."""
    root = tmp_path_factory.mktemp("fuzz-inputs")
    rng = np.random.default_rng(3)
    t = np.arange(4000) / 16000
    speech = 0.5 * np.sin(2 * np.pi * 440 * t) * (t > 0.1) + 0.01 * rng.standard_normal(4000)
    write_wav(AudioBuffer(speech, 16000), root / "in.wav")
    write_wav(AudioBuffer(0.1 * rng.standard_normal(8000), 16000), root / "bed.wav")
    clips = [LabeledClip(str(root / "in.wav"), ((0.1, 0.25),)), LabeledClip(str(root / "bed.wav"), ())]
    save_manifest(clips, root / "m.json")
    return root


def _snapshot(root) -> dict:
    """Every directory and file under root by relative path, with each file's bytes."""
    found = {}
    for d, dirs, names in os.walk(root):
        found.update((os.path.relpath(os.path.join(d, name), root), None) for name in dirs)
        for name in names:
            with open(os.path.join(d, name), "rb") as fh:
                found[os.path.relpath(fh.name, root)] = fh.read()
    return found


def _run_in(directory, argv) -> int:
    """main(argv) run in directory; argparse's refusals count as their exit code."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        os.chdir(here)


def _exits_0_or_2_and_2_writes_nothing(inputs, argv) -> None:
    with tempfile.TemporaryDirectory(dir=inputs.parent) as work:
        for name in ("in.wav", "bed.wav", "m.json"):
            shutil.copy(inputs / name, work)
        before = _snapshot(work)
        code = _run_in(work, argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2), argv
        if code == 2:
            assert _snapshot(work) == before, argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=_command_lines(COMMANDS))
def test_any_flag_values_exit_0_or_2_and_exit_2_writes_nothing(inputs, argv):
    _exits_0_or_2_and_2_writes_nothing(inputs, argv)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=_command_lines(SCORING_COMMANDS))
def test_eval_and_sweep_flag_values_exit_0_or_2_and_exit_2_writes_nothing(inputs, argv):
    _exits_0_or_2_and_2_writes_nothing(inputs, argv)
