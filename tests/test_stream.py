"""The block path against its one-block case: the filter's passes and the frame
energies taken pass by pass are bit-identical to those of the whole signal, and
one set of pass buffers serves clip after clip."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vadkit import AudioBuffer, FilterSpec, VadConfig, _kernels, design_butterworth_bandpass
from vadkit.filters import apply_cascade, filter_passes
from vadkit.vad import WindowEnergies, detect, detect_prefiltered, feed_squares

ROW, PASS = _kernels.ROW, _kernels.PASS


def _whole_array_filter(plan, x):
    """The cascade run in place over one array of rows of the whole signal, _CASCADE_ROWS rows at a time."""
    n = x.shape[0]
    rows = np.zeros((-(-n // ROW), ROW))
    rows.reshape(-1)[:n] = x
    buffers = _kernels.PassBuffers()
    carried = [(0.0,) * 4] * len(plan)
    for r0 in range(0, rows.shape[0], _kernels._CASCADE_ROWS):
        group = rows[r0 : r0 + _kernels._CASCADE_ROWS]
        for i, pair in enumerate(plan):
            carried[i] = _kernels._pair_rows(pair, group, buffers, carried[i])
    return rows.reshape(-1)[:n]


@pytest.mark.parametrize("n", [1, ROW - 1, PASS - 1, PASS, PASS + 1, 2 * PASS + 777])
def test_filter_passes_equal_the_whole_signal_filtered_in_place(n):
    """Each pass goes through the fixed pass buffer, which a longer clip has just filled, without a bit changing."""
    cascade = design_butterworth_bandpass(FilterSpec(order=6))
    rng = np.random.default_rng(n)
    buffers = _kernels.PassBuffers()
    for _ in filter_passes(cascade, AudioBuffer(rng.standard_normal(3 * PASS + 5), 16000), buffers):
        pass
    x = rng.standard_normal(n)
    passes = [p.copy() for p in filter_passes(cascade, AudioBuffer(x, 16000), buffers)]
    assert [p.shape[0] for p in passes] == [min(PASS, n - p0) for p0 in range(0, n, PASS)]
    whole = _whole_array_filter(cascade.plan, x)
    assert np.concatenate(passes).tobytes() == whole.tobytes()
    assert apply_cascade(cascade, AudioBuffer(x, 16000)).samples.tobytes() == whole.tobytes()


def _whole_clip_energies(samples, config):
    """The energies and floor of one window at 16 kHz, taken from one squares array of the whole clip, zero
    padded to the last frame's end: the one-block case."""
    window = WindowEnergies(config, 16000, samples.shape[0])
    squares = np.zeros(window.reach)
    np.square(samples, out=squares[: samples.shape[0]])
    window.take(squares, 0, window.reach)
    return window.energies()


def _passes(samples, sizes):
    """samples in consecutive passes of the given sizes (cycled), each written over the same array."""
    reused = np.empty(max(sizes))
    start = k = 0
    while start < samples.shape[0]:
        m = min(sizes[k % len(sizes)], samples.shape[0] - start)
        reused[:m] = samples[start : start + m]
        yield reused[:m]
        reused[:m] = np.nan  # a window that kept a view of the pass would read this
        start, k = start + m, k + 1


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 2500),
    windows=st.lists(st.tuples(st.integers(1, 700), st.none() | st.floats(0.0, 1.0)), min_size=1, max_size=3),
    sizes=st.lists(st.just(1) | st.integers(1, 900), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2500, windows=[(320, None), (700, 0.3), (7, 1.0)], sizes=[1, 333, 64], seed=0)  # several windows
@example(n=1000, windows=[(640, 0.5)], sizes=[1], seed=1)  # one-sample passes, a window longer than each
@example(n=999, windows=[(100, 0.3)], sizes=[250], seed=2)  # a length not aligned to the hop
def test_energies_from_any_passes_equal_the_one_block_case(n, windows, sizes, seed):
    rate = 16000
    configs = [
        VadConfig(window_length_s=win / rate, hop_length_s=None if share is None else max(1, round(share * win)) / rate)
        for win, share in windows
    ]
    samples = np.random.default_rng(seed).standard_normal(n)
    stages = [WindowEnergies(config, rate, n) for config in configs]
    feed_squares(_passes(samples, sizes), stages, _kernels.PassBuffers().squares)
    for config, stage in zip(configs, stages):
        energies, floor_db = stage.energies()
        want, want_floor = _whole_clip_energies(samples, config)
        assert energies.tobytes() == want.tobytes()
        assert floor_db == want_floor


def test_detect_streams_a_window_longer_than_a_pass():
    """detect (pass by pass) and detect_prefiltered of the filtered signal (one block) give the same frames."""
    cascade = design_butterworth_bandpass(FilterSpec())
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3 * PASS + 1234)
    x[PASS : 2 * PASS] *= 30.0  # louder than the floor for a while
    buffer = AudioBuffer(x, 16000)
    for win, hop in ((PASS + 4000, 30001), (4960, 4960), (4960, 1000)):
        config = VadConfig(window_length_s=win / 16000, hop_length_s=hop / 16000, snr_threshold_db=3.0)
        streamed = detect(buffer, cascade, config)
        whole = detect_prefiltered(apply_cascade(cascade, buffer), config)
        assert streamed.frames.tobytes() == whole.frames.tobytes()
        assert (streamed.intervals, streamed.noise_power_db) == (whole.intervals, whole.noise_power_db)


def test_a_second_clip_reuses_the_same_buffers():
    """Filter passes and squares of a second clip go through the arrays of the first; its energies are unchanged."""
    cascade = design_butterworth_bandpass(FilterSpec())
    config = VadConfig(window_length_s=0.02, hop_length_s=0.01)
    rng = np.random.default_rng(3)
    buffers = _kernels.PassBuffers()
    arrays = []
    for n in (PASS + 5000, PASS + 3000):
        clip = AudioBuffer(rng.standard_normal(n), 16000)
        window = WindowEnergies(config, 16000, n)
        feed_squares(filter_passes(cascade, clip, buffers), [window], buffers.squares)
        arrays.append((buffers.rows, buffers.products, buffers.squares))
        energies, floor_db = window.energies()
        want, want_floor = _whole_clip_energies(apply_cascade(cascade, clip).samples, config)
        assert (energies.tobytes(), floor_db) == (want.tobytes(), want_floor)
    assert all(a is b for a, b in zip(*arrays))


@pytest.mark.parametrize("window_s, limit", [(0.31, 4e6), (5.0, 6e6), (0.02, 1.6e6), (5.0, 2.2e6)])
def test_frame_energies_of_a_minute_hold_no_whole_clip_array(window_s, limit):
    """detect_prefiltered of 60 s at 16 kHz peaked at 9.4 MB of traced memory with its squares in one
    array; in passes of PASS samples it holds one squares array of PASS + 2 * window samples (the
    filter's 2.2 MB of pass buffers would go unused): 1.8 MB at a 5 s window, where a second array of
    2 * PASS samples (1 MB) took it to 2.85 MB."""
    config = VadConfig(window_length_s=window_s)
    samples = np.random.default_rng(60).standard_normal(60 * 16000)
    buffer = AudioBuffer(samples, 16000)
    tracemalloc.start()
    try:
        result = detect_prefiltered(buffer, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit, peak
    want, want_floor = _whole_clip_energies(samples, config)
    assert (result.frames.energy_db.tobytes(), result.noise_power_db) == (want.tobytes(), want_floor)


def test_a_window_over_half_a_pass_leaves_the_buffers_as_they_were():
    """The squares of a window longer than PASS / 2 go into an array of their own; the buffers keep their arrays."""
    cascade = design_butterworth_bandpass(FilterSpec())
    buffers = _kernels.PassBuffers()
    before = [(a, a.shape) for a in (buffers.rows, buffers.products, buffers.squares)]
    clip = AudioBuffer(np.random.default_rng(8).standard_normal(3 * PASS + 77), 16000)
    config = VadConfig(window_length_s=2 * PASS / 16000, hop_length_s=30001 / 16000)
    window = WindowEnergies(config, 16000, len(clip))
    feed_squares(filter_passes(cascade, clip, buffers), [window], buffers.squares)
    after = [(a, a.shape) for a in (buffers.rows, buffers.products, buffers.squares)]
    assert all(a is b and sa == sb for (a, sa), (b, sb) in zip(before, after))
    energies, floor_db = window.energies()
    want, want_floor = _whole_clip_energies(apply_cascade(cascade, clip).samples, config)
    assert (energies.tobytes(), floor_db) == (want.tobytes(), want_floor)
