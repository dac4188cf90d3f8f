"""Scoring rules, report arithmetic, manifests, and the sweep harness."""

import collections
import dataclasses
import itertools
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vadkit import (
    EvalReport,
    FilterSpec,
    LabeledClip,
    VadConfig,
    VadResult,
    apply_cascade,
    design_butterworth_bandpass,
    evaluate_clips,
    load_manifest,
    read_wav,
    save_manifest,
    score,
    sweep,
)
from vadkit.errors import InvalidSpec, LabelOutOfRange, SweepFailure, VadKitError
from vadkit._kernels import PASS, PassBuffers
from vadkit.audio_io import AudioBuffer, write_wav
from vadkit.evaluate import _chunk_counts, sweep_to_csv
from vadkit.vad import FRAME_DTYPE, detect_prefiltered, merge_intervals


def _result_from_flags(flags, window_s=0.31):
    config = VadConfig(window_length_s=window_s)
    frames = np.rec.fromrecords(
        [(i, i * window_s, 0.0, 0.0, bool(s)) for i, s in enumerate(flags)], dtype=FRAME_DTYPE
    )
    return VadResult(
        frames=frames,
        intervals=merge_intervals(frames, config),
        noise_power_db=-100.0,
        config=config,
    )


def _clip_for(intervals):
    return LabeledClip(audio_path="unused.wav", speech_intervals=tuple(intervals))


def test_hand_counted_example():
    # 10 frames, truth covers frames 3-6, prediction covers 4-7
    w = 0.31
    truth = _clip_for([(3 * w, 7 * w)])
    predicted = _result_from_flags([i in (4, 5, 6, 7) for i in range(10)])
    report = score(predicted, truth)
    assert (report.tp, report.fn, report.fp, report.tn) == (3, 1, 1, 5)
    assert report.accuracy == pytest.approx(0.8)


def test_perfect_detector():
    w = 0.31
    truth = _clip_for([(2 * w, 5 * w)])
    predicted = _result_from_flags([i in (2, 3, 4) for i in range(8)])
    report = score(predicted, truth)
    assert report.fp == 0 and report.fn == 0
    assert report.accuracy == 1.0
    assert report.f1 == 1.0


def test_all_speech_prediction_quarter_truth():
    w = 0.31
    truth = _clip_for([(0.0, 2 * w)])  # 2 of 8 frames = 25%
    predicted = _result_from_flags([True] * 8)
    report = score(predicted, truth)
    assert report.recall == 1.0
    assert report.accuracy == 0.25


def test_half_overlap_rule_boundary():
    # power-of-two window keeps the boundary arithmetic exact: an interval
    # covering exactly half of frame 1 counts it as speech (>= 50%)
    w = 0.5
    truth = _clip_for([(1.5 * w, 3 * w)])
    predicted = _result_from_flags([False, True, True, False], window_s=w)
    report = score(predicted, truth)
    assert report.tp == 2
    assert report.fp == 0
    assert report.fn == 0


def test_zero_denominator_conventions():
    report = EvalReport.from_counts(0, 0, 10, 0, VadConfig())
    assert report.precision == 0.0
    assert report.recall == 0.0
    assert report.f1 == 0.0
    assert report.accuracy == 1.0
    empty = EvalReport.from_counts(0, 0, 0, 0, VadConfig())
    assert empty.accuracy == 0.0


def test_label_validation():
    with pytest.raises(LabelOutOfRange):
        LabeledClip("a.wav", ((1.0, 0.5),))
    with pytest.raises(LabelOutOfRange):
        LabeledClip("a.wav", ((-0.1, 0.5),))
    with pytest.raises(LabelOutOfRange):
        LabeledClip("a.wav", ((0.0, 1.0), (0.5, 2.0)))  # overlap


@pytest.mark.parametrize(
    "bound, reason",
    [
        (False, "expected a number"),
        (True, "expected a number"),
        ("0.5", "expected a number"),
        (None, "expected a number"),
        (float("nan"), "must be finite"),
        (float("inf"), "must be finite"),
        (10**400, "too large"),
    ],
    ids=["false", "true", "string", "null", "nan", "inf", "int-beyond-float"],
)
def test_label_bounds_follow_the_json_number_rule(bound, reason):
    with pytest.raises(LabelOutOfRange, match=f"bad interval .* in a.wav: {reason}"):
        LabeledClip("a.wav", ((0.0, bound),))


def test_label_past_clip_end():
    truth = _clip_for([(0.0, 100.0)])
    predicted = _result_from_flags([True] * 4)
    with pytest.raises(LabelOutOfRange):
        score(predicted, truth)


def test_manifest_round_trip(tmp_path):
    clips = [
        LabeledClip(str(tmp_path / "x.wav"), ((0.5, 1.5),), "one"),
        LabeledClip(str(tmp_path / "y.wav"), (), "two"),
    ]
    path = tmp_path / "manifest.json"
    save_manifest(clips, path)
    stored = json.loads(path.read_text())
    assert stored[0]["audio_path"] == "x.wav"  # relative to the manifest
    back = load_manifest(path)
    assert [c.audio_path for c in back] == [c.audio_path for c in clips]
    assert back[0].speech_intervals == ((0.5, 1.5),)
    assert back[1].source_note == "two"


def _sweep_fixture(corpus_dir):
    path, clips = corpus_dir
    cascade = design_butterworth_bandpass(FilterSpec())
    return clips, cascade


def test_sweep_single_point_is_best(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    result = sweep(clips[:3], [0.31], [12.0], cascade)
    assert len(result.grid) == 1
    assert result.best == result.grid[0]
    assert result.best.window_s == 0.31
    assert result.best.threshold_db == 12.0


def test_sweep_huge_threshold_detects_nothing(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    result = sweep(clips[:4], [0.31], [500.0], cascade)
    report = result.grid[0].report
    assert report.tp == 0
    assert report.fp == 0


def test_sweep_grid_covers_cartesian_product(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    windows = [0.155, 0.31]
    thresholds = [6.0, 12.0, 500.0]
    result = sweep(clips[:4], windows, thresholds, cascade)
    assert [(g.window_s, g.threshold_db) for g in result.grid] == [
        (w, t) for w in windows for t in thresholds
    ]


def test_sweep_threshold_monotonicity(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    thresholds = [3.0, 6.0, 12.0, 20.0, 40.0]
    result = sweep(clips, [0.31], thresholds, cascade)
    fps = [g.report.fp for g in result.grid]
    fns = [g.report.fn for g in result.grid]
    assert fps == sorted(fps, reverse=True)
    assert fns == sorted(fns)


def test_sweep_silence_clip_never_fires(corpus_dir):
    path, clips = corpus_dir
    cascade = design_butterworth_bandpass(FilterSpec())
    silence = [c for c in clips if c.audio_path.endswith("silence.wav")]
    result = sweep(silence, [0.155, 0.31, 0.62], [6.0, 12.0, 90.0], cascade)
    for point in result.grid:
        assert point.report.fp == 0


def test_sweep_tie_break_prefers_lower_threshold_then_shorter_window(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    # silence only: every grid point scores f1 = 0, ties all the way down
    silence = [c for c in clips if c.audio_path.endswith("silence.wav")]
    result = sweep(silence, [0.62, 0.31], [12.0, 6.0], cascade)
    assert result.best.threshold_db == 6.0
    assert result.best.window_s == 0.31


def test_sweep_parallel_matches_serial(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    windows = [0.155, 0.31]
    thresholds = [6.0, 12.0]
    serial = sweep(clips[:5], windows, thresholds, cascade, jobs=1)
    parallel = sweep(clips[:5], windows, thresholds, cascade, jobs=3)
    assert serial == parallel


def test_sweep_matches_per_threshold_evaluation(corpus_dir):
    """The one-detector-pass-per-window sweep scores each grid point exactly
    as a separate evaluation under that point's config does."""
    clips, cascade = _sweep_fixture(corpus_dir)
    windows = [0.02, 0.155, 0.31]
    thresholds = [3.0, 12.0, 500.0]
    result = sweep(clips[:5], windows, thresholds, cascade)
    for point in result.grid:
        config = VadConfig(window_length_s=point.window_s, snr_threshold_db=point.threshold_db)
        aggregate, _ = evaluate_clips(clips[:5], cascade, config)
        assert point.report == aggregate, (point.window_s, point.threshold_db)


def test_sweep_frames_each_window_at_the_base_hop(corpus_dir):
    """With a hop below every grid window, each grid point scores as an evaluation at its config does."""
    clips, cascade = _sweep_fixture(corpus_dir)
    base = VadConfig(hop_length_s=0.01)
    result = sweep(clips[:5], [0.05, 0.02], [12.0, 0.0, 6.0], cascade, base_config=base)
    for point in result.grid:
        config = VadConfig(window_length_s=point.window_s, snr_threshold_db=point.threshold_db, hop_length_s=0.01)
        assert point.report.config == config
        aggregate, _ = evaluate_clips(clips[:5], cascade, config)
        assert point.report == aggregate, (point.window_s, point.threshold_db)


def test_sweep_refuses_a_hop_over_a_grid_window_before_reading_a_clip(tmp_path):
    cascade = design_butterworth_bandpass(FilterSpec())
    missing = LabeledClip(audio_path=str(tmp_path / "missing.wav"), speech_intervals=())
    with pytest.raises(SweepFailure, match=r"grid point \(window=0.02, threshold=12.0\): hop must satisfy"):
        sweep([missing], [0.31, 0.02], [12.0], cascade, base_config=VadConfig(hop_length_s=0.05))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("windows, thresholds", [
    ([0.31, 0.02], [12.0, _NAN]),  # a bad threshold fails in the first row
    ([-1.0, 0.31], [_INF, 12.0]),  # a bad first window and a bad threshold: the first point names the window
    ([0.31, 0.02, 0.0, _NAN], [6.0, 12.0]),  # a window under the hop, then worse ones
    ([0.31, 0.62], [6.0, -_INF, _NAN]),
    ([0.31, _INF], [12.0, 12.0, 6.0]),
])
def test_sweep_raises_at_the_first_failing_grid_point(tmp_path, windows, thresholds):
    """The failure names the first grid point, in grid order, that VadConfig refuses, with its own error,
    before any clip is read."""
    base = VadConfig(hop_length_s=0.05)
    expected = None
    for window, threshold in itertools.product(windows, thresholds):
        try:
            dataclasses.replace(base, window_length_s=window, snr_threshold_db=threshold)
        except VadKitError as exc:
            expected = f"grid point (window={window}, threshold={threshold}): {exc}"
            break
    missing = LabeledClip(audio_path=str(tmp_path / "missing.wav"), speech_intervals=())
    with pytest.raises(SweepFailure) as raised:
        sweep([missing], windows, thresholds, design_butterworth_bandpass(FilterSpec()), base_config=base)
    assert str(raised.value) == expected


def test_sweep_grid_configs_equal_checked_configs(corpus_dir):
    """Each grid point's config equals the checked config of its window and threshold, field for field."""
    clips, cascade = _sweep_fixture(corpus_dir)
    base = VadConfig(hop_length_s=0.01, noise_percentile=0.2)
    result = sweep(clips[:2], [0.31, 0.02], [6.0, 12.0, 3.0], cascade, base_config=base)
    for point in result.grid:
        config = dataclasses.replace(base, window_length_s=point.window_s, snr_threshold_db=point.threshold_db)
        assert point.report.config == config
        assert vars(point.report.config) == vars(config)
        assert list(vars(point.report.config)) == [field.name for field in dataclasses.fields(VadConfig)]


def test_sweep_checks_every_grid_point_before_reading_a_clip(tmp_path, monkeypatch):
    """A point in neither the first row nor the first column that VadConfig refuses fails the sweep,
    named, before any clip is read."""
    check = VadConfig.__post_init__

    def refusing(config):
        check(config)
        if (config.window_length_s, config.snr_threshold_db) == (0.62, 12.0):
            raise InvalidSpec("refused here")

    monkeypatch.setattr(VadConfig, "__post_init__", refusing)
    missing = LabeledClip(audio_path=str(tmp_path / "missing.wav"), speech_intervals=())
    with pytest.raises(SweepFailure) as raised:
        sweep([missing], [0.31, 0.62], [6.0, 12.0], design_butterworth_bandpass(FilterSpec()))
    assert str(raised.value) == "grid point (window=0.62, threshold=12.0): refused here"


def test_evaluate_clips_refuses_no_clips():
    with pytest.raises(VadKitError, match="evaluation needs at least one clip"):
        evaluate_clips([], design_butterworth_bandpass(FilterSpec()), VadConfig())


def test_sweep_rejects_empty_grid(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    with pytest.raises(SweepFailure):
        sweep(clips, [], [12.0], cascade)
    with pytest.raises(SweepFailure):
        sweep([], [0.31], [12.0], cascade)


def test_sweep_annotates_failing_point(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    with pytest.raises(SweepFailure, match=r"window=-1"):
        sweep(clips[:1], [-1.0], [12.0], cascade)


def test_evaluate_clips_parallel_matches_serial(corpus_dir):
    path, clips = corpus_dir
    cascade = design_butterworth_bandpass(FilterSpec())
    config = VadConfig(snr_threshold_db=9.0)
    agg1, per1 = evaluate_clips(clips, cascade, config, jobs=1)
    agg2, per2 = evaluate_clips(clips, cascade, config, jobs=4)
    assert agg1 == agg2
    assert per1 == per2
    total_frames = sum(r.tp + r.fp + r.tn + r.fn for _, r in per1)
    assert agg1.tp + agg1.fp + agg1.tn + agg1.fn == total_frames


def test_evaluate_clips_aggregate_is_order_invariant_sum(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    config = VadConfig(snr_threshold_db=9.0)
    aggregate, per_clip = evaluate_clips(clips[3:6], cascade, config)
    fields = ("tp", "fp", "tn", "fn")
    assert [getattr(aggregate, f) for f in fields] == [sum(getattr(r, f) for _, r in per_clip) for f in fields]
    assert aggregate.tp and aggregate.fp and aggregate.tn
    for order in itertools.permutations(clips[3:6]):
        assert evaluate_clips(order, cascade, config)[0] == aggregate


@pytest.fixture(scope="module")
def filtered_clips(corpus_dir):
    clips, cascade = _sweep_fixture(corpus_dir)
    rate = cascade.spec.sample_rate_hz
    return cascade, [(clip, apply_cascade(cascade, read_wav(clip.audio_path, rate)[0])) for clip in clips]


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(0, 12),
    windows=st.lists(st.floats(0.005, 5.0), min_size=1, max_size=3),
    hop_fraction=st.none() | st.floats(0.05, 1.0),
    thresholds=st.lists(st.just(0.0) | st.floats(-20.0, 120.0), min_size=1, max_size=6),
)
def test_energy_column_scoring_matches_full_detection(filtered_clips, index, windows, hop_fraction, thresholds):
    """`_chunk_counts` scores each threshold as `score(detect_prefiltered(...))` does for that threshold."""
    cascade, pairs = filtered_clips
    clip, filtered = pairs[index]
    configs = [VadConfig(window_length_s=w, hop_length_s=None if hop_fraction is None else w * hop_fraction)
               for w in windows]
    (counts,) = _chunk_counts([clip], cascade, configs, thresholds)
    for config, config_counts in zip(configs, counts):
        for threshold, column in zip(thresholds, config_counts.T.tolist()):
            report = score(detect_prefiltered(filtered, dataclasses.replace(config, snr_threshold_db=threshold)), clip)
            assert column == [report.tp, report.fp, report.tn, report.fn], (config, threshold)


def test_each_clip_is_filtered_once_and_detected_once_per_window(corpus_dir, monkeypatch):
    from vadkit import evaluate

    clips, cascade = _sweep_fixture(corpus_dir)
    calls = collections.Counter()
    # One filter pass and one squared pass per clip; one energy column per (clip, window).
    for name in ("filter_passes", "feed_squares", "WindowEnergies"):

        def counted(*args, _name=name, _original=getattr(evaluate, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(evaluate, name, counted)
    sweep(clips[:3], [0.155, 0.31], [6.0, 12.0, 20.0], cascade)
    assert calls == {"filter_passes": 3, "feed_squares": 3, "WindowEnergies": 6}
    calls.clear()
    evaluate_clips(clips[:3], cascade, VadConfig())
    assert calls == {"filter_passes": 3, "feed_squares": 3, "WindowEnergies": 3}


def test_clips_of_one_task_share_one_set_of_pass_buffers(corpus_dir, monkeypatch):
    from vadkit import evaluate

    clips, cascade = _sweep_fixture(corpus_dir)
    configs = [VadConfig(window_length_s=w) for w in (0.155, 0.62)]
    made, seen = [], []

    def counted_buffers():
        made.append(PassBuffers())
        return made[-1]

    monkeypatch.setattr(evaluate, "PassBuffers", counted_buffers)

    def recorded(cascade, buffer, buffers, _original=evaluate.filter_passes):
        seen.append((buffers, buffers.rows, buffers.products, buffers.squares))
        return _original(cascade, buffer, buffers)

    monkeypatch.setattr(evaluate, "filter_passes", recorded)
    counts = evaluate._counts_per_clip(clips[:4], cascade, configs, [6.0, 12.0], jobs=1)
    assert len(made) == 1 and len(seen) == 4
    assert all(all(a is b for a, b in zip(entry, seen[0])) for entry in seen)
    for clip, clip_counts in zip(clips[:4], counts):  # as fresh buffers give them
        assert (clip_counts == _chunk_counts([clip], cascade, configs, [6.0, 12.0])[0]).all()


@pytest.fixture(scope="module")
def uneven_clips(corpus_dir, tmp_path_factory):
    """Five corpus clips cut to different lengths, one of them shorter than the longest window."""
    clips, cascade = _sweep_fixture(corpus_dir)
    root = tmp_path_factory.mktemp("uneven")
    cut = []
    for clip, seconds in zip(clips[3:8], (4.0, 0.3, 2.71, 1.0, 3.333)):
        buffer = read_wav(clip.audio_path)[0]
        path = str(root / f"cut_{seconds}.wav")
        write_wav(AudioBuffer(buffer.samples[: round(seconds * buffer.sample_rate_hz)], buffer.sample_rate_hz), path)
        intervals = tuple((s, min(e, seconds)) for s, e in clip.speech_intervals if s < seconds)
        cut.append(LabeledClip(audio_path=path, speech_intervals=intervals))
    return cut, cascade


@pytest.mark.parametrize("bound", [1, 1000, PASS])
def test_chunk_counts_equal_each_clip_scored_alone(uneven_clips, monkeypatch, bound):
    """Clips scored in groups of at most bound frames give each clip's own counts, whatever the grouping."""
    from vadkit import evaluate

    clips, cascade = uneven_clips
    configs = [VadConfig(window_length_s=0.02, hop_length_s=0.005), VadConfig(window_length_s=0.5, hop_length_s=0.3),
               VadConfig(window_length_s=0.155, noise_percentile=0.5)]
    thresholds = [12.0, 0.0, 6.0, 12.0, -3.0, 0.0, 30.0]  # unsorted, duplicated, and 0.0: the floor frame's SNR
    alone = [_chunk_counts([clip], cascade, configs, thresholds)[0] for clip in clips]
    groups = []
    monkeypatch.setattr(evaluate, "PASS", bound)
    monkeypatch.setattr(evaluate, "_group_counts", lambda group, *a, _f=evaluate._group_counts: groups.append(
        len(group)) or _f(group, *a))
    together = _chunk_counts(clips, cascade, configs, thresholds)
    assert groups == {1: [1] * 5, 1000: [2, 2, 1], PASS: [5]}[bound]
    assert len(together) == len(clips)
    for one, other in zip(alone, together):
        assert one.shape == (3, 4, 7) and (one == other).all()
        assert (one[:, :, 1] == one[:, :, 5]).all() and (one[:, :, 0] == one[:, :, 3]).all()
        assert (one[:, 0, 1] + one[:, 1, 1]).min() >= 1  # 0.0 dB flags at least the floor frame
    if bound == 1:  # and each clip alone scores as full detection does
        for clip, counts in zip(clips, alone):
            filtered = apply_cascade(cascade, read_wav(clip.audio_path)[0])
            for config, config_counts in zip(configs, counts):
                for threshold, column in zip(thresholds, config_counts.T.tolist()):
                    report = score(detect_prefiltered(filtered, dataclasses.replace(config, snr_threshold_db=threshold)),
                                   clip)
                    assert column == [report.tp, report.fp, report.tn, report.fn], (clip, config, threshold)


def test_scoring_many_clips_holds_about_one_group_of_frames(corpus_dir):
    """40 clips at a 2 ms window (2,000 frames each) peak as the 32 clips of one PASS-frame group do."""
    import tracemalloc

    clips, cascade = _sweep_fixture(corpus_dir)
    configs = [VadConfig(window_length_s=0.002)]
    per_clip = -(-round(4.0 * 16000) // 32)
    assert PASS // per_clip == 32 < 40

    def peak(count):
        _chunk_counts([clips[5]], cascade, configs, [6.0])  # caches and imports first
        tracemalloc.start()
        try:
            _chunk_counts([clips[5]] * count, cascade, configs, [0.0, 6.0, 12.0])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) < 1.05 * peak(32)


def test_sweep_csv_format(corpus_dir, tmp_path):
    clips, cascade = _sweep_fixture(corpus_dir)
    result = sweep(clips[:2], [0.31], [6.0, 12.0], cascade)
    sweep_to_csv(result, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "window_s,threshold_db,tp,fp,tn,fn,accuracy,precision,recall,f1"
    assert len(lines) == 3


def test_pool_starts_no_more_workers_than_clips(corpus_dir, monkeypatch):
    sizes = []

    class SerialPool:  # records the pool size and maps in this process, so that no worker starts
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    clips, cascade = _sweep_fixture(corpus_dir)
    config = VadConfig(snr_threshold_db=9.0)
    assert evaluate_clips(clips[:3], cascade, config, jobs=100000) == evaluate_clips(clips[:3], cascade, config)
    sweep(clips[:2], [0.31], [6.0], cascade, jobs=5)
    evaluate_clips(clips[:3], cascade, config, jobs=2)
    assert sizes == [3, 2, 2]


def test_importing_the_cli_loads_no_process_pool():
    """The pool's module and multiprocessing load only when a second worker runs."""
    code = "import sys, vadkit.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
