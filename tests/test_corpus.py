"""Corpus generation: determinism, inventory, labels, and signal sanity."""

import filecmp
import json
import math
import os

import numpy as np
import pytest

from vadkit import generate_corpus, load_manifest, read_wav
from vadkit.errors import InvalidRate, InvalidSpec


def _tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(123, str(a))
    generate_corpus(123, str(b))
    ta, tb = _tree_bytes(a), _tree_bytes(b)
    assert ta.keys() == tb.keys()
    assert all(ta[k] == tb[k] for k in ta)


def test_different_seed_differs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(1, str(a))
    generate_corpus(2, str(b))
    assert not filecmp.cmp(a / "ambient_white.wav", b / "ambient_white.wav", shallow=False)


def test_inventory(corpus_dir):
    path, clips = corpus_dir
    names = sorted(os.path.basename(c.audio_path) for c in clips)
    assert len(clips) == 13
    assert "silence.wav" in names
    assert "ambient_white.wav" in names
    assert "ambient_pink.wav" in names
    assert "speech_a.wav" in names
    assert "speech_b.wav" in names
    mixture_count = sum(1 for n in names if n.startswith("mix_"))
    assert mixture_count == 8
    for snr in ("00", "05", "10", "20"):
        assert any(f"snr{snr}" in n for n in names)


def test_silence_clip_properties(corpus_dir):
    path, clips = corpus_dir
    silence = next(c for c in clips if c.audio_path.endswith("silence.wav"))
    assert silence.speech_intervals == ()
    buf, _ = read_wav(silence.audio_path)
    assert np.all(buf.samples == 0.0)


def test_speech_labels_match_gate_schedule(corpus_dir):
    path, clips = corpus_dir
    a = next(c for c in clips if c.audio_path.endswith("speech_a.wav"))
    assert a.speech_intervals == ((0.62, 1.55), (2.17, 3.10))
    b = next(c for c in clips if c.audio_path.endswith("speech_b.wav"))
    assert b.speech_intervals == ((0.31, 1.24), (1.86, 2.79))


def test_every_clip_has_label_sidecar(corpus_dir):
    path, clips = corpus_dir
    for clip in clips:
        sidecar = os.path.splitext(clip.audio_path)[0] + ".labels.json"
        assert os.path.exists(sidecar)
        with open(sidecar) as fh:
            d = json.load(fh)
        assert [tuple(iv) for iv in d["speech_intervals"]] == list(clip.speech_intervals)
        assert d["audio_path"] == os.path.basename(clip.audio_path)


def test_manifest_matches_returned_clips(corpus_dir):
    path, clips = corpus_dir
    loaded = load_manifest(path / "manifest.json")
    assert len(loaded) == len(clips)
    for got, made in zip(loaded, clips):
        assert os.path.basename(got.audio_path) == os.path.basename(made.audio_path)
        assert got.speech_intervals == made.speech_intervals


def test_clips_share_format(corpus_dir):
    path, clips = corpus_dir
    for clip in clips:
        buf, meta = read_wav(clip.audio_path)
        assert buf.sample_rate_hz == 16000
        assert len(buf) == 64000
        assert meta.bits_per_sample == 16
        assert np.max(np.abs(buf.samples)) <= 1.0


def test_mixtures_carry_speech_labels(corpus_dir):
    path, clips = corpus_dir
    for clip in clips:
        if os.path.basename(clip.audio_path).startswith("mix_a"):
            assert clip.speech_intervals == ((0.62, 1.55), (2.17, 3.10))
        if os.path.basename(clip.audio_path).startswith("mix_b"):
            assert clip.speech_intervals == ((0.31, 1.24), (1.86, 2.79))


def test_surrogate_energy_is_gated(corpus_dir):
    path, clips = corpus_dir
    a = next(c for c in clips if c.audio_path.endswith("speech_a.wav"))
    buf, _ = read_wav(a.audio_path)
    fs = buf.sample_rate_hz
    inside = buf.samples[int(0.8 * fs) : int(1.2 * fs)]
    outside = buf.samples[0 : int(0.5 * fs)]
    gap_db = 10 * np.log10(np.mean(np.square(inside)) / np.mean(np.square(outside)))
    assert gap_db > 40.0  # gates are loud, gaps nearly silent


def test_too_short_duration_rejected(tmp_path):
    with pytest.raises(InvalidSpec):
        generate_corpus(0, str(tmp_path / "x"), clip_duration_s=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_duration_rejected(tmp_path, bad):
    with pytest.raises(InvalidSpec, match="clip_duration_s"):
        generate_corpus(0, str(tmp_path / "x"), clip_duration_s=bad)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("rate, error", [(0, InvalidRate), (-16000, InvalidRate), (2, InvalidSpec)])
def test_a_rate_the_corpus_cannot_use_is_refused_before_its_directory_is_made(tmp_path, rate, error):
    """A rate of 2 Hz leaves the gates too short for their edge ramps."""
    with pytest.raises(error):
        generate_corpus(0, str(tmp_path / "x"), sample_rate_hz=rate)
    assert not (tmp_path / "x").exists()
