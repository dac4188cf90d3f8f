"""CLI behavior: exit codes, artifact schemas, config precedence, determinism."""

import dataclasses
import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vadkit import AudioBuffer, LabeledClip, read_wav, score, write_wav
from vadkit.cli import main
from vadkit.config import CliConfig
from vadkit.evaluate import EvalReport, GridPoint, SweepResult, point_to_dict, report_to_dict, sweep_to_csv
from vadkit.filters import BiquadCascade, BiquadSection, FilterSpec, cascade_to_dict, design_butterworth_bandpass
from vadkit.vad import FRAME_DTYPE, VadConfig, VadResult, config_to_dict


@pytest.fixture()
def chdir_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(argv):
    return main([str(a) for a in argv])


def test_missing_input_exits_2(capsys, chdir_tmp):
    code = _run(["detect", "absent.wav"])
    assert code == 2
    err = capsys.readouterr().err
    assert "absent.wav" in err


def test_bad_config_exits_2(capsys, chdir_tmp):
    (chdir_tmp / "cfg.json").write_text('{"no_such_key": 1}')
    write_wav(AudioBuffer(np.zeros(16000), 16000), chdir_tmp / "z.wav")
    code = _run(["detect", "z.wav", "--config", "cfg.json"])
    assert code == 2
    assert "no_such_key" in capsys.readouterr().err


def test_detect_silence(capsys, chdir_tmp):
    write_wav(AudioBuffer(np.zeros(32000), 16000), chdir_tmp / "z.wav")
    code = _run(["detect", "z.wav", "--out", "out.json"])
    assert code == 0
    with open(chdir_tmp / "out.json") as fh:
        d = json.load(fh)
    assert d["intervals"] == []
    assert d["effective_config"]["threshold_db"] == 90.0
    out = capsys.readouterr().out
    assert "speech intervals (0)" in out


def test_gen_corpus_deterministic(chdir_tmp):
    assert _run(["gen-corpus", "--out-dir", "c1", "--seed", "9"]) == 0
    assert _run(["gen-corpus", "--out-dir", "c2", "--seed", "9"]) == 0
    names = sorted(os.listdir(chdir_tmp / "c1"))
    assert names == sorted(os.listdir(chdir_tmp / "c2"))
    for name in names:
        assert filecmp.cmp(chdir_tmp / "c1" / name, chdir_tmp / "c2" / name, shallow=False), name


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clicorpus")
    assert main(["gen-corpus", "--out-dir", str(root / "corpus"), "--seed", "0"]) == 0
    return root / "corpus"


def test_detect_covers_labeled_speech(cli_corpus, tmp_path, capsys):
    """Tuned threshold on the 20 dB mixture recovers at least 90% of the
    labeled speech frames."""
    wav = cli_corpus / "mix_a_white_snr20.wav"
    out = tmp_path / "d.json"
    assert _run(["detect", wav, "--threshold", "12", "--out", out]) == 0
    with open(out) as fh:
        d = json.load(fh)
    config = VadConfig(
        window_length_s=d["config"]["window_length_s"],
        snr_threshold_db=d["config"]["snr_threshold_db"],
    )
    frames = np.rec.fromrecords(
        [(f["index"], f["start_s"], f["energy_db"], f["snr_db"], f["is_speech"]) for f in d["frames"]],
        dtype=FRAME_DTYPE,
    )
    result = VadResult(
        frames=frames,
        intervals=tuple((iv["start_s"], iv["end_s"]) for iv in d["intervals"]),
        noise_power_db=d["noise_power_db"],
        config=config,
    )
    with open(cli_corpus / "mix_a_white_snr20.labels.json") as fh:
        labels = json.load(fh)
    clip = LabeledClip(str(wav), tuple(tuple(iv) for iv in labels["speech_intervals"]))
    report = score(result, clip)
    assert report.recall >= 0.9


def test_filter_dump_artifacts(chdir_tmp):
    assert _run(["filter-dump", "--out", "f.json"]) == 0
    with open(chdir_tmp / "f.json") as fh:
        d = json.load(fh)
    assert len(d["sections"]) == 2
    assert d["effective_config"]["filter_order"] == 4
    rows = (chdir_tmp / "f.response.csv").read_text().strip().splitlines()
    assert rows[0] == "freq_hz,magnitude_db"
    by_freq = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert abs(by_freq[300.0] + 3.0103) < 0.1
    assert abs(by_freq[1500.0] + 3.0103) < 0.1


def test_eval_counts_sum(cli_corpus, tmp_path):
    out = tmp_path / "rep.json"
    assert _run(["eval", "--manifest", cli_corpus / "manifest.json", "--out", out,
                 "--threshold", "9", "--window", "0.155"]) == 0
    with open(out) as fh:
        d = json.load(fh)
    agg = d["report"]
    total = agg["tp"] + agg["fp"] + agg["tn"] + agg["fn"]
    per_clip_total = sum(
        e["report"]["tp"] + e["report"]["fp"] + e["report"]["tn"] + e["report"]["fn"]
        for e in d["per_clip"]
    )
    assert total == per_clip_total
    assert len(d["per_clip"]) == 13
    assert d["effective_config"]["threshold_db"] == 9.0


def test_eval_jobs_identical_output(cli_corpus, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["eval", "--manifest", cli_corpus / "manifest.json", "--threshold", "9"]
    assert _run(base + ["--out", a]) == 0
    assert _run(base + ["--out", b, "--jobs", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_artifacts(cli_corpus, tmp_path):
    out = tmp_path / "sw.json"
    csv_path = tmp_path / "sw.csv"
    assert _run([
        "sweep", "--manifest", cli_corpus / "manifest.json",
        "--windows", "0.31,0.155", "--thresholds", "6,12",
        "--out", out, "--csv", csv_path,
    ]) == 0
    with open(out) as fh:
        d = json.load(fh)
    assert len(d["grid"]) == 4
    assert {(g["window_s"], g["threshold_db"]) for g in d["grid"]} == {
        (0.31, 6.0), (0.31, 12.0), (0.155, 6.0), (0.155, 12.0)
    }
    assert d["best"]["report"]["f1"] == max(g["report"]["f1"] for g in d["grid"])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("window_s,threshold_db,tp,")
    assert len(lines) == 5


def test_sweep_bad_thresholds_exit_2(cli_corpus, tmp_path, capsys):
    code = _run([
        "sweep", "--manifest", cli_corpus / "manifest.json",
        "--windows", "0.31", "--thresholds", "abc",
        "--out", tmp_path / "x.json",
    ])
    assert code == 2


_SWEEP = ["sweep", "--windows", "0.31", "--thresholds", "12", "--manifest"]
_MIX = ["mix", "z.wav", "z.wav", "--gain", "0.5", "--out", "m.wav", "--speech-labels", "bad.json"]
_DETECT_CONFIG = ["detect", "z.wav", "--config", "bad.json"]


@pytest.mark.parametrize(
    "argv, bad_file, field",
    [
        (["eval", "--manifest", "absent.json"], None, None),
        (["eval", "--manifest", "bad.json"], "{not json", None),
        (["eval", "--manifest", "bad.json"], '[{"speech_intervals": []}]', None),
        (["eval", "--manifest", "bad.json"], '[{"audio_path": "z.wav", "speech_intervals": [[0.5]]}]', None),
        (["eval", "--manifest", "bad.json"], "[]", None),
        (_SWEEP + ["bad.json"], '[{"speech_intervals": []}]', None),
        (_MIX, "{not json", None),
        (_MIX, '{"intervals": []}', None),
        (["detect", "z.wav", "--window", "inf"], None, "window_length_s"),
        (["detect", "z.wav", "--threshold", "nan"], None, "snr_threshold_db"),
        (["detect", "z.wav", "--window", "1e305"], None, "window_length_s"),
        (["mix", "z.wav", "z.wav", "--snr", "nan", "--out", "m.wav"], None, "target_snr_db"),
        (["mix", "z.wav", "z.wav", "--gain", "inf", "--out", "m.wav"], None, "ambient_gain"),
        (["repro-figures", "--out-dir", "figs", "--snr", "nan"], None, "target_snr_db"),
        (["gen-corpus", "--out-dir", "corpus", "--duration", "nan"], None, "clip_duration_s"),
        (["gen-corpus", "--out-dir", "corpus", "--duration", "inf"], None, "clip_duration_s"),
        (["mix", "z.wav", "z.wav", "--gain", "1e308", "--out", "m.wav"], None, "float32"),
        (["mix", "z.wav", "z.wav", "--snr", "1e308", "--out", "m.wav"], None, "target_snr_db"),
        (["mix", "z.wav", "z.wav", "--snr=-1e308", "--out", "m.wav"], None, "target_snr_db"),
        (_DETECT_CONFIG, '{"sample_rate_hz": 1e400}', "sample_rate_hz"),
        (_DETECT_CONFIG, '{"sample_rate_hz": 1' + "0" * 400 + "}", "sample_rate_hz"),
        (_DETECT_CONFIG, '{"sample_rate_hz": 16000.7}', "sample_rate_hz"),
        (_DETECT_CONFIG, '{"energy_floor": NaN}', "energy_floor"),
        (_DETECT_CONFIG, '{"energy_floor": Infinity}', "energy_floor"),
        (_MIX, '{"speech_intervals": [[2.0, 1.0]]}', "bad.json"),
        (_MIX, '{"speech_intervals": [[0.5, "x"]]}', "bad.json"),
        (_MIX, '{"speech_intervals": [[-1.0, 0.5]]}', "bad.json"),
        (_MIX, '{"speech_intervals": [[NaN, 0.5]]}', "bad.json"),
        (_MIX, '{"speech_intervals": [[0.5, 1e400]]}', "bad.json"),
        (["eval", "--manifest", "bad.json"], '[{"audio_path": "z.wav", "speech_intervals": [[NaN, 0.5]]}]', "nan"),
        (_SWEEP + ["bad.json"], '[{"audio_path": "z.wav", "speech_intervals": [[0.0, 9.0]]}]',
         "z.wav, window 0.31 s: interval (0.0, 9.0) runs past the clip end"),
        (["detect", "z.wav", "--order", "68"], None, "order 68"),
        (["filter-dump", "--sample-rate", "44100", "--order", "64"], None, "order 64"),
        (["filter-dump", "--order", "200"], None, "order 200"),
        # Refused from two scalar powers, before any array of order/2 elements.
        (["filter-dump", "--order", "100000000"], None, "order 100000000"),
        (["eval", "--manifest", "bad.json"], '[{"audio_path": "z.wav", "speech_intervals": [[false, true]]}]',
         "(False, True)"),
        (["eval", "--manifest", "bad.json"], '[{"audio_path": "z.wav", "speech_intervals": [["0.5", "1.5"]]}]',
         "('0.5', '1.5')"),
        (_MIX, '{"speech_intervals": [[false, true]]}', "bad.json: expected a number"),
        (_MIX, '{"speech_intervals": [["0.5", "1.5"]]}', "bad.json: expected a number"),
        # Refused from the rate pair, before the 2**31-phase table is allocated.
        (["detect", "z.wav", "--sample-rate", "2147483647"], None, "16000 Hz to 2147483647 Hz"),
        # Just over the 2**24-sample limit, refused before the array is allocated.
        (["detect", "z.wav", "--window", "1048.6"], None, "window_length_s of 1048.6 s"),
        (["spectrogram", "z.wav", "--fft-size", "33554432"], None, "fft size 33554432"),
        (["gen-corpus", "--out-dir", "corpus", "--duration", "1048.6"], None, "clip_duration_s of 1048.6 s"),
        (["gen-corpus", "--out-dir", "corpus", "--seed", "-1"], None, "seed"),
        # repro-figures checks every setting before its first file.
        (["repro-figures", "--out-dir", "figs", "--fft-size", "1000"], None, "fft size"),
        (["repro-figures", "--out-dir", "figs", "--fft-size", "33554432"], None, "fft size 33554432"),
        (["repro-figures", "--out-dir", "figs", "--spectrogram-hop", "0"], None, "spectrogram hop"),
        (["repro-figures", "--out-dir", "figs", "--window", "1048.6"], None, "window_length_s"),
        (["repro-figures", "--out-dir", "figs", "--order", "3"], None, "order"),
        (["repro-figures", "--out-dir", "figs", "--seed", "-1"], None, "seed"),
        (["repro-figures", "--out-dir", "figs", "--sample-rate", "10000000"], None, "clip_duration_s of 4.0 s"),
        # The SNR is refused before the corpus is written, not when its gain overflows.
        (["repro-figures", "--out-dir", "figs", "--snr", "1e308"], None, "target_snr_db"),
        (["repro-figures", "--out-dir", "figs", "--snr=-1e308"], None, "target_snr_db"),
        (["repro-figures", "--out-dir", "figs", "--snr", "4000"], None, "target_snr_db"),
        (["sweep", "--windows", ",", "--thresholds", "12", "--manifest", "bad.json"],
         '[{"audio_path": "z.wav", "speech_intervals": []}]', "--windows expects at least one value"),
    ],
    ids=[
        "eval-missing-manifest",
        "eval-invalid-json",
        "eval-no-audio-path",
        "eval-one-element-interval",
        "eval-empty-manifest",
        "sweep-no-audio-path",
        "mix-labels-invalid-json",
        "mix-labels-no-intervals",
        "detect-window-inf",
        "detect-threshold-nan",
        "detect-window-overflows",
        "mix-snr-nan",
        "mix-gain-inf",
        "repro-snr-nan",
        "gen-corpus-duration-nan",
        "gen-corpus-duration-inf",
        "mix-gain-overflows-float32",
        "mix-snr-overflows",
        "mix-snr-underflows",
        "config-rate-1e400",
        "config-rate-400-digits",
        "config-rate-not-integral",
        "config-energy-floor-nan",
        "config-energy-floor-inf",
        "mix-labels-reversed-interval",
        "mix-labels-text-bound",
        "mix-labels-negative-start",
        "mix-labels-nan-start",
        "mix-labels-infinite-end",
        "eval-nan-interval",
        "sweep-labels-past-clip-end",
        "detect-order-68-non-finite",
        "filter-dump-order-64-at-44k-non-finite",
        "filter-dump-order-200-overflows",
        "filter-dump-order-1e8-overflows",
        "eval-boolean-interval",
        "eval-string-interval",
        "mix-labels-boolean-interval",
        "mix-labels-string-interval",
        "detect-resample-table-too-large",
        "detect-window-over-size-limit",
        "spectrogram-fft-over-size-limit",
        "gen-corpus-duration-over-size-limit",
        "gen-corpus-negative-seed",
        "repro-fft-not-power-of-two",
        "repro-fft-over-size-limit",
        "repro-spectrogram-hop-zero",
        "repro-window-over-size-limit",
        "repro-odd-order",
        "repro-negative-seed",
        "repro-clip-over-size-limit",
        "repro-snr-overflows",
        "repro-snr-underflows",
        "repro-snr-over-3000-db",
        "sweep-no-windows",
    ],
)
def test_bad_input_exits_2(argv, bad_file, field, capsys, chdir_tmp):
    # Not silent, so that mixing it reaches the gain and the WAV writer.
    write_wav(AudioBuffer(0.1 * np.sin(0.05 * np.arange(16000)), 16000), chdir_tmp / "z.wav")
    if bad_file is not None:
        (chdir_tmp / "bad.json").write_text(bad_file)
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field is None or field in err  # a non-finite setting is named in the message
    assert sorted(os.listdir(chdir_tmp)) == sorted(["z.wav"] + ["bad.json"] * (bad_file is not None))


_MANIFEST = ["--manifest", "m.json"]


@pytest.mark.parametrize(
    "argv, path",
    [
        (["detect", "z.wav", "--out", "missing/d.json"], "missing/d.json"),
        (["detect", "z.wav", "--out", "d.json", "--frames-csv", "missing/f.csv"], "missing/f.csv"),
        (["spectrogram", "z.wav", "--format", "pgm", "--out", "missing/s.pgm"], "missing/s.pgm"),
        (["filter-dump", "--out", "missing/f.json"], "missing/f.json"),
        (["sweep", *_MANIFEST, "--windows", "0.31", "--thresholds", "12", "--out", "missing/s.json"],
         "missing/s.json"),
        (["eval", *_MANIFEST, "--out", "missing/e.json"], "missing/e.json"),
        (["repro-figures", "--out-dir", "m.json"], "m.json"),
        (["gen-corpus", "--out-dir", "m.json/corpus"], "m.json/corpus"),
    ],
    ids=[
        "detect-out", "detect-frames-csv", "spectrogram-pgm", "filter-dump",
        "sweep", "eval", "repro-out-dir-is-file", "gen-corpus-under-file",
    ],
)
def test_unwritable_output_exits_2(argv, path, capsys, chdir_tmp):
    write_wav(AudioBuffer(0.1 * np.sin(0.05 * np.arange(16000)), 16000), chdir_tmp / "z.wav")
    (chdir_tmp / "m.json").write_text('[{"audio_path": "z.wav", "speech_intervals": []}]')
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {path}: " in err.splitlines()[0]


_SWEEP_M = ["sweep", "--manifest", "m.json", "--windows", "0.31", "--thresholds", "12"]
_MIX_Z = ["mix", "z.wav", "z.wav", "--gain", "0.5"]


@pytest.mark.parametrize(
    "argv, path",
    [
        (["detect", "z.wav", "--out", "z.wav"], "z.wav"),
        (["detect", "z.wav", "--config", "cfg.json", "--out", "cfg.json"], "cfg.json"),
        (["detect", "z.wav", "--out", "d.json", "--frames-csv", "./d.json"], "./d.json"),
        (["detect", "z.wav", "--frames-csv", "z.vad.json"], "z.vad.json"),
        (["spectrogram", "z.wav", "--out", "z.wav"], "z.wav"),
        (["filter-dump", "--out", "f.json", "--response-csv", "f.json"], "f.json"),
        (["filter-dump", "--config", "f.response.csv", "--out", "f.json"], "f.response.csv"),
        (_MIX_Z + ["--out", "z.wav"], "z.wav"),
        (_MIX_Z + ["--speech-labels", "l.mix.json", "--out", "l.wav"], "l.mix.json"),
        (["eval", "--manifest", "m.json", "--out", "m.json"], "m.json"),
        (_SWEEP_M + ["--out", "m.json"], "m.json"),
        (_SWEEP_M + ["--out", "s.json", "--csv", "s.json"], "s.json"),
        # Hard links, a manifest's clips and the speech file's labels sidecar count too.
        (["detect", "z.wav", "--out", "h.json"], "h.json"),
        (["detect", "z.wav", "--out", "d.json", "--frames-csv", "d2.csv"], "d2.csv"),
        (["eval", "--manifest", "m.json", "--out", "z.wav"], "z.wav"),
        (["eval", "--manifest", "m.json", "--out", "h.json"], "h.json"),
        (_SWEEP_M + ["--out", "z.wav"], "z.wav"),
        (_SWEEP_M + ["--out", "s.json", "--csv", "h.json"], "h.json"),
        (_MIX_Z + ["--out", "z.labels.json"], "z.labels.json"),
        # A command that writes a directory of files refuses a config among them.
        (["repro-figures", "--out-dir", "d", "--config", "d/summary.json"], "d/summary.json"),
        (["gen-corpus", "--out-dir", "d", "--config", "d/manifest.json"], "d/manifest.json"),
    ],
    ids=[
        "detect-out-is-input", "detect-out-is-config", "detect-frames-csv-is-out",
        "detect-frames-csv-is-default-out", "spectrogram-out-is-input", "filter-dump-csv-is-out",
        "filter-dump-default-csv-is-config", "mix-out-is-input", "mix-sidecar-is-labels",
        "eval-out-is-manifest", "sweep-out-is-manifest", "sweep-csv-is-out",
        "detect-out-hard-links-input", "detect-frames-csv-hard-links-out", "eval-out-is-clip",
        "eval-out-hard-links-clip", "sweep-out-is-clip", "sweep-csv-hard-links-clip", "mix-out-is-labels-sidecar",
        "repro-figures-out-dir-holds-config", "gen-corpus-out-dir-holds-config",
    ],
)
def test_output_naming_an_input_or_output_exits_2(argv, path, capsys, chdir_tmp):
    write_wav(AudioBuffer(0.1 * np.sin(0.05 * np.arange(16000)), 16000), chdir_tmp / "z.wav")
    os.link(chdir_tmp / "z.wav", chdir_tmp / "h.json")
    (chdir_tmp / "d.json").write_text("{}")
    os.link(chdir_tmp / "d.json", chdir_tmp / "d2.csv")
    (chdir_tmp / "z.labels.json").write_text('{"speech_intervals": [[0.1, 0.5]]}')
    (chdir_tmp / "cfg.json").write_text('{"threshold_db": 12}')
    (chdir_tmp / "f.response.csv").write_text('{"filter_order": 4}')
    (chdir_tmp / "l.mix.json").write_text('{"speech_intervals": [[0.1, 0.5]]}')
    (chdir_tmp / "m.json").write_text('[{"audio_path": "z.wav", "speech_intervals": []}]')
    (chdir_tmp / "d").mkdir()
    for name in ("summary.json", "manifest.json"):
        (chdir_tmp / "d" / name).write_text('{"threshold_db": 12}')
    before = {p: p.read_bytes() for p in chdir_tmp.rglob("*") if p.is_file()}
    assert _run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: output {path} is the same file as the ")
    assert {p: p.read_bytes() for p in chdir_tmp.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "argv", [["eval"], ["sweep", "--windows", "0.31,0.62", "--thresholds", "12"]], ids=["eval", "sweep"]
)
def test_empty_clip_is_named(argv, capsys, chdir_tmp):
    write_wav(AudioBuffer(0.1 * np.sin(0.05 * np.arange(16000)), 16000), chdir_tmp / "z.wav")
    write_wav(AudioBuffer(np.zeros(0), 16000), chdir_tmp / "e.wav")
    (chdir_tmp / "m.json").write_text(
        '[{"audio_path": "z.wav", "speech_intervals": []}, {"audio_path": "e.wav", "speech_intervals": []}]'
    )
    assert _run(argv + ["--manifest", "m.json", "--out", "o.json"]) == 2
    assert "e.wav, window 0.31 s: cannot frame an empty signal" in capsys.readouterr().err
    assert not (chdir_tmp / "o.json").exists()


def _field_names(cls) -> list:
    return [field.name for field in dataclasses.fields(cls)]


def test_artifact_dicts_follow_the_dataclass_fields(tmp_path):
    config = VadConfig(window_length_s=0.2)
    report = EvalReport.from_counts(1, 2, 3, 4, config)
    point = GridPoint(0.2, 12.0, report)
    cascade = design_butterworth_bandpass(FilterSpec())
    assert list(config_to_dict(config).items()) == list({**vars(config), "hop_length_s": 0.2}.items())
    assert list(report_to_dict(report)) == _field_names(EvalReport)
    point_dict = point_to_dict(point)
    assert list(point_dict) == _field_names(GridPoint)
    assert point_dict["report"] == report_to_dict(report)
    d = cascade_to_dict(cascade)
    assert list(d) == _field_names(BiquadCascade)
    assert list(d["spec"]) == _field_names(FilterSpec)
    assert [list(s) for s in d["sections"]] == [_field_names(BiquadSection)] * 2
    clip = LabeledClip("a/b.wav", ((0.5, 1.5),), "note")
    assert list(clip.to_dict("b.wav").items()) == [
        ("audio_path", "b.wav"), ("speech_intervals", ((0.5, 1.5),)), ("source_note", "note")
    ]
    assert list(CliConfig().to_dict()) == _field_names(CliConfig)
    assert CliConfig().to_dict()["hop_s"] == CliConfig.window_s
    sweep_to_csv(SweepResult((point,), point), tmp_path / "s.csv")
    header = (tmp_path / "s.csv").read_text().splitlines()[0]
    assert header.split(",") == _field_names(GridPoint)[:-1] + _field_names(EvalReport)[:-1]


def test_mix_solves_the_gain_once(cli_corpus, tmp_path, monkeypatch):
    from vadkit import cli, mixing

    calls = []
    solve = mixing.ambient_gain_for_snr

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cli, "ambient_gain_for_snr", counted)
    monkeypatch.setattr(mixing, "ambient_gain_for_snr", counted)
    assert _run([
        "mix", cli_corpus / "speech_a.wav", cli_corpus / "ambient_white.wav",
        "--snr", "10", "--out", tmp_path / "m.wav",
    ]) == 0
    assert len(calls) == 1


def test_sweep_builds_the_filter_plan_once(cli_corpus, tmp_path, monkeypatch):
    """All 13 clips of the corpus go through one cascade, so one plan."""
    from vadkit import _kernels

    calls = []
    build = _kernels.sos_plan

    def counted(b, a):
        calls.append(1)
        return build(b, a)

    monkeypatch.setattr(_kernels, "sos_plan", counted)
    manifest = cli_corpus / "manifest.json"
    assert len(json.loads(manifest.read_text())) == 13
    assert _run([
        "sweep", "--manifest", manifest, "--windows", "0.155,0.31", "--thresholds", "6,12",
        "--jobs", "1", "--out", tmp_path / "s.json",
    ]) == 0
    assert len(calls) == 1


def test_eval_and_sweep_reject_jobs_below_one(cli_corpus, tmp_path, capsys):
    manifest = cli_corpus / "manifest.json"
    assert _run(["eval", "--manifest", manifest, "--out", tmp_path / "e.json", "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert _run([
        "sweep", "--manifest", manifest, "--windows", "0.31", "--thresholds", "12",
        "--out", tmp_path / "s.json", "--jobs", "-3",
    ]) == 2
    assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "s.json").exists()


def test_mix_sidecar_and_output(cli_corpus, tmp_path):
    out = tmp_path / "m.wav"
    assert _run([
        "mix", cli_corpus / "speech_a.wav", cli_corpus / "ambient_white.wav",
        "--snr", "10", "--out", out, "--normalize-peak", "0.9",
    ]) == 0
    mixed, _ = read_wav(out)
    assert len(mixed) == 64000
    assert np.max(np.abs(mixed.samples)) <= 0.9 + 1e-6
    with open(tmp_path / "m.mix.json") as fh:
        side = json.load(fh)
    assert side["target_snr_db"] == 10.0
    assert side["speech_intervals"] == [[0.62, 1.55], [2.17, 3.1]]
    assert side["speech_source"].endswith("speech_a.wav")
    assert side["ambient_source"].endswith("ambient_white.wav")


def test_mix_gain_mode(cli_corpus, tmp_path):
    out = tmp_path / "g.wav"
    assert _run([
        "mix", cli_corpus / "speech_a.wav", cli_corpus / "ambient_white.wav",
        "--gain", "0", "--out", out, "--format", "float32",
    ]) == 0
    mixed, _ = read_wav(out)
    speech, _ = read_wav(cli_corpus / "speech_a.wav")
    assert np.max(np.abs(mixed.samples - speech.samples)) < 2e-7  # float32 storage


def test_spectrogram_formats(cli_corpus, tmp_path):
    json_out = tmp_path / "s.json"
    assert _run(["spectrogram", cli_corpus / "speech_a.wav", "--out", json_out]) == 0
    with open(json_out) as fh:
        d = json.load(fh)
    assert d["fft_size"] == 1024
    assert d["frame_count"] == 125
    pgm_out = tmp_path / "s.pgm"
    assert _run(["spectrogram", cli_corpus / "speech_a.wav", "--out", pgm_out, "--format", "pgm"]) == 0
    assert pgm_out.read_bytes().startswith(b"P5\n125 513\n255\n")


def test_spectrogram_csv_has_a_row_per_frame_and_bin(chdir_tmp):
    write_wav(AudioBuffer(0.1 * np.sin(0.05 * np.arange(16000)), 16000), chdir_tmp / "z.wav")
    assert _run(["spectrogram", "z.wav", "--format", "csv"]) == 0
    lines = (chdir_tmp / "z.spec.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"time_s,freq_hz,magnitude_db"
    assert lines[-1] == b""
    assert len(lines) - 2 == 32 * 513  # 1 s at 16 kHz: 32 frames of 513 bins


def test_mix_with_a_shorter_ambient_exits_2(capsys, chdir_tmp):
    write_wav(AudioBuffer(0.1 * np.sin(0.05 * np.arange(16000)), 16000), chdir_tmp / "z.wav")
    write_wav(AudioBuffer(0.1 * np.sin(0.07 * np.arange(8000)), 16000), chdir_tmp / "short.wav")
    assert _run(["mix", "z.wav", "short.wav", "--snr", "10", "--out", "m.wav"]) == 2
    assert "shorter than speech" in capsys.readouterr().err
    assert sorted(os.listdir(chdir_tmp)) == ["short.wav", "z.wav"]


def test_config_file_and_flag_precedence(cli_corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threshold_db": 30.0, "window_s": 0.62}))
    out = tmp_path / "o.json"
    assert _run([
        "detect", cli_corpus / "speech_a.wav", "--config", cfg,
        "--threshold", "12", "--out", out,
    ]) == 0
    with open(out) as fh:
        d = json.load(fh)
    # flag beats config file; config file beats default
    assert d["effective_config"]["threshold_db"] == 12.0
    assert d["effective_config"]["window_s"] == 0.62
    assert d["config"]["window_length_s"] == 0.62


def test_repro_figures_deterministic_and_complete(tmp_path):
    a = tmp_path / "r1"
    b = tmp_path / "r2"
    assert _run(["repro-figures", "--out-dir", a, "--seed", "3"]) == 0
    assert _run(["repro-figures", "--out-dir", b, "--seed", "3"]) == 0
    names = sorted(os.listdir(a))
    assert sorted(os.listdir(b)) == names
    for name in names:
        pa, pb = a / name, b / name
        if pa.is_dir():
            continue
        assert pa.read_bytes() == pb.read_bytes(), name
    for required in (
        "fig3_waveform.csv", "fig3_decisions.csv", "fig3_detection.json",
        "fig4_speech.json", "fig4_ambient.json", "fig4_mixed.json", "fig4_detected.json",
        "fig4_speech.pgm", "fig4_ambient.pgm", "fig4_mixed.pgm", "fig4_detected.pgm",
        "summary.json",
    ):
        assert required in names


def test_planned_outputs_are_the_files_written(tmp_path):
    """The lists the overwrite check reads name exactly what each command writes."""
    from vadkit import repro
    from vadkit.corpus import corpus_files

    for command, planned in (("gen-corpus", corpus_files), ("repro-figures", repro.output_files)):
        out_dir = tmp_path / command
        assert _run([command, "--out-dir", out_dir]) == 0
        assert sorted(str(p) for p in out_dir.rglob("*") if p.is_file()) == sorted(planned(str(out_dir)))


def test_console_script_help():
    out = subprocess.run(
        [sys.executable, "-m", "vadkit.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    for sub in ("detect", "mix", "spectrogram", "filter-dump", "eval", "sweep",
                "gen-corpus", "repro-figures"):
        assert sub in out.stdout


def test_version_flag():
    out = subprocess.run(
        [sys.executable, "-m", "vadkit.cli", "--version"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "0.1.0" in out.stdout


def _fresh_process(argv, cwd):
    """`python -m vadkit.cli argv` in a new process, in cwd, with help text laid out for 80 columns."""
    import vadkit

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(vadkit.__file__)), "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-m", "vadkit.cli", *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True)


def _files(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_one_parser_per_process_writes_what_fresh_processes_write(cli_corpus, tmp_path, capsys, monkeypatch):
    """main parses every call with one parser, built once; commands run one after
    another in a process write the bytes and print the text of fresh processes."""
    from vadkit import cli

    assert cli._parser() is cli._parser()
    speech, manifest = cli_corpus / "speech_a.wav", cli_corpus / "manifest.json"
    commands = [
        ["detect", speech, "--out", "d1.json", "--frames-csv", "d1.csv"],
        ["sweep", "--manifest", manifest, "--windows", "0.155,0.31", "--thresholds", "6,12", "--out", "s1.json"],
        ["repro-figures", "--out-dir", "r1", "--seed", "2"],
        ["detect", speech, "--out", "d2.json", "--threshold", "9", "--window", "0.155"],
        ["sweep", "--manifest", manifest, "--windows", "0.31", "--thresholds", "3", "--csv", "s2.csv"],
        ["repro-figures", "--out-dir", "r2", "--snr", "5"],
        ["detect", speech, "--out", "d3.json"],
    ]
    here, fresh = tmp_path / "one", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    for argv in commands:
        assert main([str(a) for a in argv]) == 0
        done = _fresh_process(argv, fresh)
        assert done.returncode == 0, done.stderr
        assert capsys.readouterr().out == done.stdout, argv
    assert _files(here) == _files(fresh)


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["detect", "--help"], ["sweep", "--help"],
                                  ["repro-figures", "--help"], ["mix", "--help"]])
def test_help_and_version_text_is_unchanged_by_earlier_calls(argv, cli_corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    printed = []
    for before in ([], ["detect", cli_corpus / "speech_a.wav", "--out", "d.json"]):
        if before:
            assert main([str(a) for a in before]) == 0
            capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        printed.append(capsys.readouterr().out)
    done = _fresh_process(argv, tmp_path)
    assert done.returncode == 0
    assert printed == [done.stdout, done.stdout]


@pytest.mark.parametrize("argv, refused", [
    (["mix", "a.wav", "b.wav", "--out", "m.wav", "--snr", "1", "--order", "12"], "--order 12"),
    (["sweep", "--manifest", "m.json", "--windows", "0.31", "--thresholds", "6", "--window", "0.05"], "--window 0.05"),
    (["gen-corpus", "--out-dir", "c", "--fft-size", "3"], "--fft-size 3"),
    (["detect", "in.wav", "--out", "d.json", "--no-such-flag"], "--no-such-flag"),
])
def test_refused_flag_prints_the_subcommand_usage(argv, refused, capsys, chdir_tmp):
    """A flag that a subcommand does not take exits 2 with that subcommand's usage line, not the top-level
    one, and writes nothing."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: vadkit {argv[0]} ")
    assert f"vadkit {argv[0]}: error: unrecognized arguments: {refused}" in err
    assert not list(chdir_tmp.iterdir())
