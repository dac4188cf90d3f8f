"""Hot inner loops: the biquad-cascade filter and the polyphase resampler.

Both run as dense matrix products over blocks of samples, so the time goes
into BLAS instead of the interpreter. Each kernel is split into a plan,
built once per setting, and a pass over the signal that only touches data.

The cascade uses the block form of the IIR recurrence (Burrus, "Block
implementation of digital filters", IEEE Trans. Circuit Theory, 1971). Each
section is the transposed-direct-form-II state space

    s[n+1] = A s[n] + B x[n],   y[n] = s1[n] + b0 x[n],
    A = [[-a1, 1], [-a2, 0]],   B = [b1 - a1 b0, b2 - a2 b0].

The signal is cut into rows of BLOCK samples. A row's output is its
zero-state response (one product with the BLOCK x BLOCK lower-triangular
Toeplitz matrix of the impulse response) plus the response to the state the
row starts in. A short loop over rows carries the 2-vector state from row to
row: s <- A^BLOCK s + G x_row. `sos_plan` builds each section's Toeplitz
matrix, G, A^BLOCK and observer rows once; `sos_filter` runs the products
and the carry loop with them.

The resampler is a banded matrix product (Crochiere & Rabiner, Multirate
Digital Signal Processing, 1983). Outputs j*up ... j*up+up-1 form row j.
They all read one window of input that starts `down` samples after the
window of row j-1. Row j of the output is that window times a matrix that
holds each phase's taps at that phase's offset in the window. The columns
of a row are split into groups narrow enough that each group's window is no
wider than `down`: the windows of successive rows then do not overlap, and
BLAS reads them in place from the input instead of from a gathered copy.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

RESAMPLER_TAPS = 64  # filter taps per polyphase branch
BACKEND = "numpy"  # recorded in perfbench's run metadata

BLOCK = 128  # samples per row of the block filter
# Output columns per resampler product, at most. Widths of 32 to 80 took the
# same time on 60 s of 44.1 -> 16 kHz; wider groups multiply more zeros.
_GROUP_COLUMNS = 64
_CHUNK_ROWS = 1024  # windows per resampler product, bounding any copy it makes


def sos_plan(b, a) -> tuple:
    """The block filter's matrices for each section of a cascade.

    b holds (b0, b1, b2) and a holds (a1, a2) per section. Each entry is
    (Toeplitz matrix transposed, drive taps, A^BLOCK as (p, q, r, t),
    observer rows), as `sos_filter` uses them.
    """
    return tuple(_section_plan(bs, as_) for bs, as_ in zip(b, a))


def _section_plan(b, a) -> tuple:
    b0, b1, b2 = (float(v) for v in b)
    a1, a2 = (float(v) for v in a)
    step = np.array([[-a1, 1.0], [-a2, 0.0]])
    # powers[i] = A^i for i = 0 .. BLOCK.
    powers = np.empty((BLOCK + 1, 2, 2))
    powers[0] = np.eye(2)
    for i in range(BLOCK):
        powers[i + 1] = step @ powers[i]
    gain = powers[:BLOCK] @ np.array([b1 - a1 * b0, b2 - a2 * b0])  # A^i B
    impulse = np.concatenate(([b0], gain[:-1, 0]))  # h[0] = b0, h[i] = (A^(i-1) B)[0]
    lag = np.arange(BLOCK)[:, None] - np.arange(BLOCK)[None, :]
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    # Row i of the observer is C A^i = (A^i)[0].
    return toeplitz.T, gain[::-1], tuple(powers[BLOCK].reshape(-1).tolist()), powers[:BLOCK, 0, :].T


def sos_filter(plan, x):
    """Biquad cascade over x with zero initial state, in block form; plan comes from `sos_plan`."""
    n = x.shape[0]
    rows = -(-n // BLOCK)
    cur = np.zeros((rows, BLOCK))
    cur.reshape(-1)[:n] = x
    spare = np.empty_like(cur)
    for section in plan:
        _section_blocks(section, cur, spare)
        cur, spare = spare, cur
    return cur.reshape(-1)[:n]


def _section_blocks(section, x, y):
    """One biquad section from the rows of x into y, state carried across rows.

    x is overwritten once it has been read, so a cascade runs in two
    row buffers.
    """
    toeplitz_t, drive_taps, (p, q, r, t), observer = section
    np.matmul(x, toeplitz_t, out=y)  # zero-state response of every row
    drive = (x @ drive_taps).tolist()  # state each row adds: sum_j A^(BLOCK-1-j) B x[j]
    start = []  # state at the start of each row; a list, as storing rows into an array costs more per row
    s1 = s2 = 0.0
    for u, v in drive:
        start.append((s1, s2))
        s1, s2 = p * s1 + q * s2 + u, r * s1 + t * s2 + v
    y += np.matmul(np.array(start).reshape(-1, 2), observer, out=x)


def polyphase_filter(x, phase_taps, up, down, n_out):
    """y[n] = sum_k h[p,k] * x[m - k] with p/m derived from n*down; x reads as zero outside its ends.

    The +TAPS/2 bias keeps the output aligned with the input timeline.
    Output n = j*up + c reads the taps samples of x that start at
    first + j*down + c*down // up. Each group of columns has its own window
    and matrix, and writes its products straight into the output. Only the
    few rows whose window crosses an end of x read a zero-extended copy.
    When down < taps no window fits in down samples; a group is then the
    whole row, and each product copies its windows.
    """
    taps = phase_taps.shape[1]
    first = taps // 2 - (taps - 1)  # the first windows start before x
    rows = -(-n_out // up)
    y = np.empty((rows, up))
    fits = (down - taps) * up // down + 1  # the most columns whose window spans at most down samples
    group = min(up, _GROUP_COLUMNS, fits) if fits > 0 else up
    k = np.arange(taps)[:, None]
    for c0 in range(0, up, group):
        cols = np.arange(c0, min(up, c0 + group), dtype=np.int64)
        lead = cols * down // up  # where each column's taps sit in the row's window
        width = int(lead[-1] - lead[0]) + taps
        band = np.zeros((width, cols.size))
        band[lead - lead[0] + (taps - 1) - k, np.arange(cols.size)] = phase_taps[cols * down % up].T
        offset = first + int(lead[0])
        lo = min(rows, max(0, -(offset // down)))  # rows before lo start left of x
        hi = max(lo, min(rows, (x.shape[0] - width - offset) // down + 1))  # rows from hi end right of it
        bounds = [0, lo, *range(lo + _CHUNK_ROWS, hi, _CHUNK_ROWS), hi, rows]
        for j0, j1 in zip(bounds, bounds[1:]):
            if j1 > j0:
                seg = _zero_extended(x, offset + j0 * down, (j1 - j0 - 1) * down + width)
                np.matmul(sliding_window_view(seg, width)[::down], band, out=y[j0:j1, c0 : c0 + cols.size])
    return y.reshape(-1)[:n_out]


def _zero_extended(x, start, length):
    """x[start : start + length] with zeros where it reaches past either end of x.

    A view inside x; only a span that crosses an end is copied.
    """
    if start >= 0 and start + length <= x.shape[0]:
        return x[start : start + length]
    before = min(max(-start, 0), length)
    inner = x[max(start, 0) : max(start + length, 0)]
    return np.concatenate([np.zeros(before), inner, np.zeros(length - before - inner.shape[0])])
