"""The block kernels against their loop oracles, and their determinism."""

import math

import numpy as np
import pytest

from naive_reference import naive_polyphase, naive_sos
from vadkit import FilterSpec, _kernels, design_butterworth_bandpass

# Both kernels sum in a different order than their loops, so they agree to
# rounding, not bit for bit: the filter sums each sub-block's products in
# BLAS and carries a fused pair's state over whole rows, where the loop
# steps one section one sample at a time. The filter's error is relative
# to the largest output sample.
RELATIVE_BOUND = 1e-12

SOS_DESIGNS = (
    (2, 300.0, 1500.0, 16000),
    (4, 300.0, 1500.0, 16000),
    (8, 300.0, 1500.0, 16000),
    (12, 300.0, 3400.0, 16000),
    (8, 300.0, 320.0, 48000),  # narrow band, poles near the unit circle
    (12, 1000.0, 1001.0, 16000),  # pole radius 0.99995
    (6, 300.0, 1500.0, 16000),  # one fused pair and a lone section
)
ROW, SUB, PASS = _kernels.ROW, _kernels.SUB, _kernels.PASS
# Past 40000 the lengths straddle a row, end inside a sub-block after three
# rows, and carry the state from one pass of the cascade's rows to the next.
SOS_LENGTHS = (
    0, 1, 127, 128, 129, 40000,
    ROW - 1, ROW, ROW + 1, 3 * ROW + SUB + 5, _kernels._CASCADE_ROWS * ROW + 7,
)


def _coefficients(order, low, high, rate):
    return design_butterworth_bandpass(FilterSpec(order, low, high, rate)).coefficient_arrays()


def _filtered(plan, x):
    """The passes of `sos_passes` over x, each copied before the next overwrites it, in one array."""
    return np.concatenate([np.empty(0), *(y.copy() for y in _kernels.sos_passes(plan, x, _kernels.PassBuffers()))])


# The loop oracle reads its input with this many zeros on each side.
ORACLE_PAD = 64


def _padded(x):
    pad = np.zeros(ORACLE_PAD)
    return np.concatenate([pad, x, pad])


@pytest.mark.parametrize("design", SOS_DESIGNS, ids=lambda d: "order{}-{:g}-{:g}Hz-at-{}".format(*d))
def test_sos_matches_loop_oracle(design):
    b, a = _coefficients(*design)
    rng = np.random.default_rng(design[0])
    for n in SOS_LENGTHS:
        x = rng.standard_normal(n)
        loop = naive_sos(b, a, x)
        fast = _filtered(_kernels.sos_plan(b, a), x)
        assert fast.shape == (n,)
        if n:
            err = np.max(np.abs(loop - fast)) / np.max(np.abs(loop))
            assert err < RELATIVE_BOUND, (n, err)


# Low bands at high rates, whose poles sit close to z = 1, where the state
# basis is poorly conditioned and powers of A amplify rounding. Against the
# loop in np.longdouble the block scan reads 2.4e-12 and 5.4e-12 on them;
# the row loop and sub-block scan it replaced read 1.2e-11 and 2.0e-11.
LOW_BAND_DESIGNS = ((12, 30.0, 60.0, 44100), (8, 20.0, 40.0, 48000))
LOW_BAND_BOUND = 8e-12


@pytest.mark.parametrize("design", LOW_BAND_DESIGNS, ids=lambda d: "order{}-{:g}-{:g}Hz-at-{}".format(*d))
def test_low_bands_match_extended_loop(design):
    b, a = _coefficients(*design)
    plan = _kernels.sos_plan(b, a)
    rng = np.random.default_rng(design[0])
    for n in SOS_LENGTHS[1:]:
        x = rng.standard_normal(n)
        loop = naive_sos(b, a, x, np.longdouble)
        err = float(np.max(np.abs(loop - _filtered(plan, x))) / np.max(np.abs(loop)))
        assert err < LOW_BAND_BOUND, (n, err)


# np.matmul calls per fused pair and pass: row drives, group scan, group carry,
# sub-block drives, first-drive lift, sub-block scan and output. `_pair_rows`
# spells each of its products np.matmul, so that this test sees them all.
PRODUCTS_PER_PAIR = 7


@pytest.mark.parametrize("order", [4, 6, 12])
def test_a_pass_runs_a_fixed_number_of_products_per_pair(monkeypatch, order):
    """The same products for a pass of _CASCADE_ROWS rows as for one row, and
    no other product: none runs per row or per sub-block."""
    plan = _kernels.sos_plan(*_coefficients(order, 300.0, 3400.0, 16000))
    rng = np.random.default_rng(order)
    matmul, calls = np.matmul, []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    for n, passes in ((PASS, 1), (ROW, 1), (2 * PASS + 1, 3)):
        x = rng.standard_normal(n)
        calls.clear()
        monkeypatch.setattr(np, "matmul", counted)
        _filtered(plan, x)
        monkeypatch.undo()
        assert len(calls) == PRODUCTS_PER_PAIR * len(plan) * passes, (n, calls)


def test_polyphase_matches_loop_oracle():
    rng = np.random.default_rng(32)
    # Pairs with down < 64 taps run whole rows. (147, 160) and (160, 147): up is
    # not a multiple of the group width. (101, 80): groups of 16 columns whose
    # windows fit in down samples. (44100, 96001): 96,001 -> 44,100 Hz, groups
    # of 16 columns whose windows span 97 samples.
    pairs = (
        (2, 3), (3, 2), (160, 441), (441, 160), (1, 4), (1, 6), (2, 1), (2, 2001),
        (147, 160), (160, 147), (101, 80), (44100, 96001),
    )
    for up, down in pairs:
        # Inputs shorter than the tap count read zero padding on both sides.
        for n in (1, 2, 63, int(rng.integers(500, 3000))):
            x = rng.standard_normal(n)
            taps = rng.standard_normal((up, _kernels.RESAMPLER_TAPS))
            n_out = -(-n * up // down)
            loop = naive_polyphase(_padded(x), taps, up, down, n_out, ORACLE_PAD)
            fast = _kernels.polyphase_filter(x, taps, up, down, n_out)
            assert fast.shape == (n_out,)
            scale = max(1.0, float(np.max(np.abs(fast))))
            assert np.max(np.abs(loop - fast)) / scale < RELATIVE_BOUND, (up, down, n)


def test_polyphase_chunks_match_loop_oracle():
    """Rows past _CHUNK_ROWS, over more than two products per group between
    the rows that cross either end. (5, 120) runs groups of 3 and 2 columns
    over two in-place chunks of windows. (1, 3), (2, 1) and (1, 6) hold 16,
    8 and 11 whole periods a row, and copy their overlapping windows.
    (160, 441) runs ten groups of 16 columns in place."""
    for up, down, chunks in ((5, 120, 2), (1, 3, 1), (2, 1, 1), (1, 6, 1), (160, 441, 1)):
        periods, _, chunk = _kernels._layout(up, down, _kernels.RESAMPLER_TAPS)
        n = (chunks * chunk + 7) * periods * down
        rng = np.random.default_rng([33, up, down])
        x = rng.standard_normal(n)
        taps = rng.standard_normal((up, _kernels.RESAMPLER_TAPS))
        n_out = -(-n * up // down)
        loop = naive_polyphase(_padded(x), taps, up, down, n_out, ORACLE_PAD)
        fast = _kernels.polyphase_filter(x, taps, up, down, n_out)
        assert np.max(np.abs(loop - fast)) / max(1.0, float(np.max(np.abs(fast)))) < RELATIVE_BOUND, (up, down)


# Rates that recordings commonly come at, each resampled to the detector's 16 kHz.
COMMON_RATES = (8000, 11025, 22050, 32000, 44100, 48000, 96000)


@pytest.mark.parametrize("rate", COMMON_RATES)
def test_common_pairs_run_every_product_in_blas(monkeypatch, rate):
    """Each product's left operand has unit column stride and a row stride of
    at least its width, so that numpy hands it to BLAS rather than to its own
    loop, and each group matrix is built once per call, over an input of
    more than two products per group."""
    up, down = 16000 // math.gcd(rate, 16000), rate // math.gcd(rate, 16000)
    periods, _, chunk = _kernels._layout(up, down, _kernels.RESAMPLER_TAPS)
    n = (2 * chunk + 7) * periods * down
    rng = np.random.default_rng(rate)
    x = rng.standard_normal(n)
    taps = rng.standard_normal((up, _kernels.RESAMPLER_TAPS))
    matmul, lefts, matrices = np.matmul, [], []

    def recording(left, right, **kwargs):
        lefts.append((left.shape, left.strides))
        matrices.append(right)  # held, so that no two matrices share an id
        return matmul(left, right, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    _kernels.polyphase_filter(x, taps, up, down, -(-n * up // down))
    monkeypatch.undo()
    assert len(lefts) > 2 * len({id(m) for m in matrices})
    for (rows, width), (row_stride, column_stride) in lefts:
        assert column_stride == 8 and row_stride >= 8 * width, (rows, width, row_stride)
    assert len({id(m) for m in matrices}) == len({m.tobytes() for m in matrices})


def test_kernels_are_deterministic():
    """Bit-identical output on repeated calls, with a reused filter plan, and
    on an offset slice of a larger array, so same-version artifacts stay
    byte-identical."""
    rng = np.random.default_rng(7)
    big = rng.standard_normal(50000)
    x = big[3:45003]  # starts 24 bytes into the buffer
    for order in (4, 6):  # one fused pair; a pair and a lone section
        b, a = _coefficients(order, 300.0, 1500.0, 16000)
        first = _filtered(_kernels.sos_plan(b, a), x.copy()).tobytes()
        plan = _kernels.sos_plan(b, a)
        for _ in range(3):
            assert _filtered(plan, x).tobytes() == first
            assert _filtered(plan, x.copy()).tobytes() == first
            assert _filtered(_kernels.sos_plan(b, a), x).tobytes() == first

    taps = rng.standard_normal((160, _kernels.RESAMPLER_TAPS))
    n_out = -(-x.size * 160 // 441)
    shifted = np.concatenate([np.zeros(5), x])[5:]  # same values, other alignment
    first = _kernels.polyphase_filter(x, taps, 160, 441, n_out).tobytes()
    for _ in range(3):
        assert _kernels.polyphase_filter(x, taps, 160, 441, n_out).tobytes() == first
        assert _kernels.polyphase_filter(shifted, taps, 160, 441, n_out).tobytes() == first
