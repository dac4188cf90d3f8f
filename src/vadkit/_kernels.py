"""Hot inner loops: the biquad-cascade filter and the polyphase resampler.

Both run as dense matrix products over blocks of samples, so the time goes
into BLAS instead of the interpreter. Each kernel is split into a plan,
built once per setting, and a pass over the signal that only touches data.

The cascade uses the block form of the IIR recurrence (Burrus, "Block
implementation of digital filters", IEEE Trans. Circuit Theory, 1971). Each
section is the transposed-direct-form-II state space

    s[n+1] = A s[n] + B x[n],   y[n] = s1[n] + b0 x[n],
    A = [[-a1, 1], [-a2, 0]],   B = [b1 - a1 b0, b2 - a2 b0].

Sections are taken in pairs, and each pair runs as one 4-state system (an
odd last section is paired with a pass-through). A pass of PASS samples
runs each pair at three levels, with eight products and no Python loop,
whatever ROW and SUB are:

- Rows of ROW samples. One product with the taps A^(ROW-1-j) B gives the
  state each row adds from zero, its drive.
- Groups of _GROUP_ROWS rows, a blocked prefix scan (Blelloch, "Prefix sums
  and their applications", 1990). One product with a block-triangular plan
  matrix, of the powers of A^ROW, turns a group's drives into the state
  after each of its rows from zero. One product with a block-triangular
  matrix of the powers of A^(16 ROW) turns the pass's start state and each
  group's end state into every group's start state, and one more adds
  each group's start state, stepped by A^((i+1) ROW), to its rows. That
  gives every row's start state.
- Sub-blocks of SUB samples. One product gives each sub-block's drive, and
  one (A^SUB times each row's start state) is added to the drive of the
  row's first sub-block. A block-triangular matrix of the powers of A^SUB
  then turns the drives into every sub-block's start state. The output is
  one product: each sub-block's start state and samples side by side, times
  the observer rows C A^i over the lower-triangular Toeplitz matrix of the
  pair's impulse response.

Each of these choices keeps the rounding down. Errors here are relative to
the largest output, against a sample loop in np.longdouble, on the lengths
of the kernel tests:

- The row drive is its own product. Summing the sub-block drives through
  the powers of A^SUB instead amplifies their rounding where the state
  basis is poorly conditioned: 1.1e-11 instead of 2.4e-12 on the order-12
  30-60 Hz band at 44.1 kHz.
- The row level adds the carried state after the group product. Folding it
  into each group's first drive read 9.5e-12 instead of 4.8e-12 on the
  order-8 20-40 Hz band at 48 kHz.
- The sub-block level does fold the row's start state into the first
  drive, so that each start state is one sum: 5.0e-16 instead of 6.2e-16
  on the order-2 300-1500 Hz band at 16 kHz.
- The start state comes before the samples in the output product: 4.6e-16
  instead of 5.0e-16 on the same band.
- Every plan matrix is rounded to double once from one table of the
  pair's powers A^0 .. A^ROW, made by products in np.longdouble.

The error is then 1.5e-13 on the order-8 300-320 Hz band at 48 kHz,
5.5e-12 and 5.7e-12 on the order-8 and order-4 20-40 Hz bands at 48 kHz and
4.6e-16 on the order-2 band. Every command builds its own plan: about
0.4 ms for the default order-4 design and 1.2 ms for the order-12 one
(median of 800 calls on a 2-vCPU x86-64 host), most of it in the table's
longdouble products.
`sos_plan` builds each pair's matrices once; `sos_passes` runs them, one
pass of PASS samples at a time through the fixed arrays of a `PassBuffers`.

The resampler is a banded matrix product (Crochiere & Rabiner, Multirate
Digital Signal Processing, 1983). Outputs j*up ... j*up+up-1 form row j.
They all read one window of input that starts `down` samples after the
window of row j-1. Row j of the output is that window times a matrix that
holds each phase's taps at that phase's offset in the window. The columns
of a row are split into groups of at most 16, and a product runs at most
512 rows of one group: products of that size run as BLAS kernels without
packing, about twice as fast as 64 columns by 1024 rows. When up is below
the group width (48 -> 16 kHz has up = 1), a row holds several whole
periods instead: up * periods outputs from a window that steps
down * periods samples, with the phase table repeated periods times, so
that every common pair runs products of the same shape. A group's window
that is no wider than its step is read in place from the input; where the
windows overlap, each product copies them into one contiguous array first,
as BLAS cannot read overlapping rows and numpy's own loop is several times
slower.
"""

import functools

import numpy as np
from numpy.lib.stride_tricks import as_strided

RESAMPLER_TAPS = 64  # filter taps per polyphase branch
BACKEND = "numpy"  # recorded in perfbench's run metadata

SUB = 32  # samples per sub-block: one Toeplitz product covers one sub-block
ROW = 512  # samples per carried row; must be a multiple of SUB
_STATES = 4  # states of a fused pair of sections
# Rows per pass of the cascade. Its sub-block products (576 KB) then stay in
# cache; on 60 s at 16 kHz the filter took 10% less time than in one pass,
# and 6% less than in passes of 64 rows.
_CASCADE_ROWS = 128
PASS = _CASCADE_ROWS * ROW  # samples per filter pass
_SUBS = ROW // SUB  # sub-blocks per row
_GROUP_ROWS = 16  # rows per group of the row-state scan; _CASCADE_ROWS is a multiple of it
# Output columns per resampler product, at most, and fewer where a group's
# matrix would be mostly zeros: a group takes at most 1 + taps * up // down
# columns, so its matrix holds at most twice the taps' rows. Where up is
# below this, a row holds whole periods up to it (see the module docstring).
_GROUP_COLUMNS = 16
_CHUNK_ROWS = 512  # windows per resampler product, at most
# Input samples a product's rows step over, at most: rows per product are
# max(1, _CHUNK_SPAN // down), capped at _CHUNK_ROWS, so that each product,
# and the fill window, holds a bounded span however large down is. Every
# pair up to down = 882 keeps its 512 rows.
_CHUNK_SPAN = 1024 * 441
# Samples a fill input's window holds beyond the longest span, so that it moves
# what it keeps to its start about once per this many samples read, not once per product.
_WINDOW_SLACK = 1 << 16
# Samples a fill call reads at least, where the store and the input leave room,
# so that products whose windows end a few samples apart share one call: 60 s of
# 44.1 kHz stereo read at 16 kHz takes 25 calls, not 122. A whole decoder block
# (audio_io._BLOCK_FRAMES) takes as many, but its temporaries, held with the
# whole output, raised detect's peak RSS by 0.4 MB.
_READ_AHEAD = 1 << 14
# Bytes of group matrices a call holds. A call whose matrices fit holds all
# of them (11.025 -> 16 kHz: 40 groups, 380 KB); one whose matrices do not
# (up in the thousands) builds each product's matrix afresh, as its products
# visit the groups in turn and a partial cache would miss every time.
_BANDS_BYTES = 1 << 22
# A section that passes its input through with no state, paired with an odd last section.
_PASS_THROUGH = ((1.0, 0.0, 0.0), (0.0, 0.0))


def sos_plan(b, a) -> tuple:
    """The block filter's matrices for each fused pair of sections of a cascade.

    b holds (b0, b1, b2) and a holds (a1, a2) per section. An odd last
    section is paired with a pass-through section. Each entry is (row drive
    taps, group plan, carry plan, group carry plan, sub-block drive taps,
    (A^SUB)^T, sub-block plan, output matrix): the right operands of the
    eight products, no Python loop, that `_pair_rows` runs per pass.
    """
    sections = list(zip(b, a))
    if len(sections) % 2:
        sections.append(_PASS_THROUGH)
    return tuple(_pair_plan(first, second) for first, second in zip(sections[::2], sections[1::2]))


def _pair_plan(first, second) -> tuple:
    """The plan of two (b, a) sections in series, the first feeding the second, as one 4-state system.

    A = [[A1, 0], [B2 C1, A2]], B = [B1; b0_1 B2], C = [b0_2 C1, C1] and
    D = b0_1 b0_2, with C1 = [1, 0], in np.longdouble (a 64-bit mantissa on
    x86-64, plain double elsewhere). Every plan matrix comes from the powers
    A^0 .. A^ROW and is rounded to double once.
    """
    b_1, a_1, b_2, a_2 = (np.array(v, dtype=np.longdouble) for v in (*first, *second))
    drive_1, drive_2 = b_1[1:] - a_1 * b_1[0], b_2[1:] - a_2 * b_2[0]  # B1, B2
    a = np.zeros((_STATES, _STATES), dtype=np.longdouble)
    a[:2, 0], a[2:, 0], a[2:, 2] = -a_1, drive_2, -a_2  # Ai = [[-a1, 1], [-a2, 0]]; B2 C1 is column 0
    a[0, 1] = a[2, 3] = 1
    b = np.concatenate([drive_1, b_1[0] * drive_2])
    c = np.array([b_2[0], 0, 1, 0], dtype=np.longdouble)
    powers = _powers(a, ROW + 1)  # A^k
    taps = powers[:ROW] @ b  # taps[k] = A^k B
    observer = (c @ powers[:SUB]).T.astype(float, order="C")  # column i is C A^i
    impulse = np.concatenate([[b_1[0] * b_2[0]], taps[: SUB - 1] @ c]).astype(float)  # D, then C A^(k-1) B
    lag = np.arange(SUB)[:, None] - np.arange(SUB)[None, :]
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    row_powers = _powers(powers[ROW], _GROUP_ROWS + 1)  # A^(i ROW)
    sub_t = powers[:ROW:SUB].transpose(0, 2, 1).astype(float)  # (A^(k SUB))^T
    row_t = row_powers.transpose(0, 2, 1).astype(float)
    group_t = _powers(row_powers[_GROUP_ROWS], _CASCADE_ROWS // _GROUP_ROWS).transpose(0, 2, 1).astype(float)
    return (
        np.ascontiguousarray(taps[::-1], dtype=float),
        _scan_matrix(row_t[:_GROUP_ROWS], 0),
        row_t[1:].transpose(1, 0, 2).reshape(_STATES, -1),  # block i is (A^((i + 1) ROW))^T
        _scan_matrix(group_t, 0),  # block (m, k) is (A^(16 ROW))^(k - m), transposed
        np.ascontiguousarray(taps[SUB - 1 :: -1], dtype=float),
        sub_t[1].copy(),
        _scan_matrix(sub_t, 1),
        np.concatenate([observer, toeplitz.T]),
    )


def _powers(step, count):
    """step^0 .. step^(count - 1) of a 4 x 4 np.longdouble matrix, doubling the powers held with each product."""
    powers = np.empty((count, _STATES, _STATES), dtype=np.longdouble)
    powers[0] = np.eye(_STATES)
    powers[1] = step
    held = 2
    while held < count:
        more = min(held, count - held)
        powers[held : held + more] = powers[:more] @ (powers[held - 1] @ step)
        held += more
    return powers


def _scan_matrix(powers_t, shift):
    """The block matrix whose block (m, k) is powers_t[k - m - shift], zero where k - m - shift < 0.

    A row of states, state m in columns 4m .. 4m + 3, times this matrix
    gives in block k the sum over m of state m stepped k - m - shift times.
    """
    n = powers_t.shape[0]
    blocks = np.concatenate([np.zeros((1, _STATES, _STATES)), powers_t])  # block 0 is zero, block j + 1 is power j
    lag = np.arange(n) - np.arange(n)[:, None] - shift  # lag[m, k] = k - m - shift
    return blocks[np.maximum(lag + 1, 0)].transpose(0, 2, 1, 3).reshape(n * _STATES, n * _STATES)


class PassBuffers:
    """The fixed arrays of the block path, made once by a caller and reused for every clip.

    rows is the pass buffer of `sos_passes`; passes hold at most PASS
    samples. products holds each sub-block's start state and samples side
    by side, the left operand of the output product; drives, carry and
    states hold the row-level products of `_pair_rows`.
    squares holds the squared samples of `vad.feed_squares`: 2 * PASS
    samples, a pass plus the carry and padding of windows up to PASS / 2
    samples. No method changes them.

    All of them start as views of one 2.2 MB allocation. A sweep or a
    detect makes its buffers per command; as separate arrays, their release
    at its end let glibc trim the heap top and fault it back in on the next
    command (about 540 faults per `sweep-corpus` op on some seeds). One
    block is mapped on its own the first time, and when glibc unmaps it, it
    raises its trim threshold to twice the block's size, so the blocks of
    later commands come from the heap and stay there.
    """

    def __init__(self):
        subs = _CASCADE_ROWS * _SUBS
        shapes = {
            "rows": (_CASCADE_ROWS, ROW),
            "products": (subs, SUB + _STATES),
            "drives": (_CASCADE_ROWS, _STATES),
            "carry": (_CASCADE_ROWS // _GROUP_ROWS, _GROUP_ROWS * _STATES),
            "states": (_CASCADE_ROWS + 1, _STATES),
            "squares": (2 * PASS,),
        }
        block = np.empty(sum(np.prod(shape) for shape in shapes.values()))
        start = 0
        for name, shape in shapes.items():
            size = int(np.prod(shape))
            setattr(self, name, block[start : start + size].reshape(shape))
            start += size


def sos_passes(plan, x, buffers: PassBuffers):
    """Biquad cascade over x with zero initial state, in block form; plan comes from `sos_plan`.

    Yields the output one pass of PASS samples at a time (the last pass is
    shorter), as a view of buffers.rows that the next pass overwrites. Each
    pass copies its samples into rows of ROW samples, zero padded after x,
    and runs every pair over them in turn, so the sub-block products stay in
    cache; each pair's state carries from one pass to the next.
    """
    n = x.shape[0]
    flat = buffers.rows.reshape(-1)
    carried = [(0.0,) * _STATES] * len(plan)
    for p0 in range(0, n, PASS):
        m = min(PASS, n - p0)
        rows = -(-m // ROW)
        flat[:m] = x[p0 : p0 + m]
        flat[m : rows * ROW] = 0.0  # the filter is causal, so these reach no output; zeros keep the pass finite
        group = buffers.rows[:rows]
        for i, pair in enumerate(plan):
            carried[i] = _pair_rows(pair, group, buffers, carried[i])
        yield flat[:m]


def _pair_rows(pair, x, buffers, state):
    """One fused pair from the rows of x back into x, from the 4-state `state`; returns the state after them.

    Eight products, no Python loop (see the module docstring), through the
    arrays of buffers and x itself.
    """
    row_taps, group_plan, carry_plan, group_scan, sub_taps, sub_step_t, sub_plan, output = pair
    rows = x.shape[0]
    groups = -(-rows // _GROUP_ROWS)
    # Rows: each row's drive, the state after each row of a group from zero, each group's start state,
    # and then each row's start state.
    drives = buffers.drives[: groups * _GROUP_ROWS]
    np.matmul(x, row_taps, out=drives[:rows])  # state each row adds: sum_j A^(ROW-1-j) B x[j]
    drives[rows:] = 0.0
    states = buffers.states[: groups * _GROUP_ROWS + 1]  # states[r]: the state at the start of row r
    states[0] = state
    after = states[1:].reshape(groups, -1)
    np.matmul(drives.reshape(groups, -1), group_plan, out=after)
    ends = states[: groups * _GROUP_ROWS : _GROUP_ROWS].reshape(-1)  # the pass's start state, then each group's end
    starts = np.matmul(ends, group_scan[: ends.size, : ends.size])  # the state at the start of each group
    lift = buffers.carry[:groups]
    np.matmul(starts.reshape(groups, _STATES), carry_plan, out=lift)
    after += lift
    # Sub-blocks: the samples go into the output product's operand, and x, which the output product
    # overwrites, holds each sub-block's drive and then every sub-block's start state in the same way.
    subs = x.reshape(-1, SUB)
    products = buffers.products[: subs.shape[0]]
    products[:, _STATES:] = subs
    size = rows * _SUBS * _STATES
    sub_drives = x.reshape(-1)[:size].reshape(rows, -1)
    np.matmul(products[:, _STATES:], sub_taps, out=sub_drives.reshape(-1, _STATES))
    lift = drives[:rows]  # the drives are spent
    np.matmul(states[:rows], sub_step_t, out=lift)
    sub_drives[:, :_STATES] += lift
    sub_states = x.reshape(-1)[size : 2 * size].reshape(rows, -1)
    np.matmul(sub_drives, sub_plan, out=sub_states)
    sub_states[:, :_STATES] = states[:rows]
    # Output: each sub-block's start state and samples side by side, times the observer and Toeplitz rows.
    products[:, :_STATES] = sub_states.reshape(-1, _STATES)
    np.matmul(products, output, out=subs)
    return tuple(states[rows].tolist())


def polyphase_filter(x, phase_taps, up, down, n_out, n_in=None):
    """y[n] = sum_k h[p,k] * x[m - k] with p/m derived from n*down; x reads as zero outside its ends.

    x is the input as one array, or as a function fill(dest) that writes
    the next dest.shape[0] of its n_in samples into dest. fill is asked for
    every sample once and in order, those that no window reads included,
    so a reader that checks what it writes checks the whole input.

    The +TAPS/2 bias keeps the output aligned with the input timeline.
    Output n = j*up + c reads the taps samples of x that start at
    first + j*down + c*down // up. Rows and groups are as `_layout` gives
    them. Each group of columns has its own window and matrix, and writes
    its products straight into the output. Only the few rows whose window
    crosses an end of x read a zero-extended copy.

    Every group's products run in order of the input they end at, so the
    input they read is held once: a fill input goes into one store as long
    as the longest span of x that a product reads, plus _WINDOW_SLACK, and
    an array is read in place.
    """
    n = x.shape[0] if n_in is None else n_in
    taps = phase_taps.shape[1]
    periods, group, chunk = _layout(up, down, taps)
    if periods > 1:
        phase_taps = np.repeat(phase_taps, periods, axis=0)
        up, down = up * periods, down * periods
    first = taps // 2 - (taps - 1)  # the first windows start before x
    rows = -(-n_out // up)
    y = np.empty((rows, up))
    k = np.arange(taps)[:, None]

    def band(c0):
        """The matrix of the group of columns from c0."""
        cols = np.arange(c0, min(up, c0 + group), dtype=np.int64)
        lead = cols * down // up  # where each column's taps sit in the row's window
        matrix = np.zeros((int(lead[-1] - lead[0]) + taps, cols.size))
        matrix[lead - lead[0] + (taps - 1) - k, np.arange(cols.size)] = phase_taps[cols * down % up].T
        return matrix

    products = []  # (input end, input start, first column, rows, columns)
    held = 0  # bytes of every group matrix
    for c0 in range(0, up, group):
        c1 = min(up, c0 + group)
        width = (c1 - 1) * down // up - c0 * down // up + taps
        held += width * (c1 - c0) * 8
        offset = first + c0 * down // up
        lo = min(rows, max(0, -(offset // down)))  # rows before lo start left of x
        hi = max(lo, min(rows, (n - width - offset) // down + 1))  # rows from hi end right of it
        bounds = [0, lo, *range(lo + chunk, hi, chunk), hi, rows]
        for j0, j1 in zip(bounds, bounds[1:]):
            if j1 > j0:
                start = offset + j0 * down
                end = start + (j1 - j0 - 1) * down + width
                products.append((end, start, c0, slice(j0, j1), slice(c0, c1)))
    products.sort(key=lambda product: product[0])
    band = functools.lru_cache(maxsize=None if held <= _BANDS_BYTES else 0)(band)
    window = _InputWindow(x, n, max((min(end, n) - max(start, 0) for end, start, *_ in products), default=0))
    for end, start, c0, j, c in products:
        matrix = band(c0)
        windows = _windows(window.span(start, end), matrix.shape[0], down)
        if matrix.shape[0] > down:  # overlapping rows, which BLAS cannot read in place
            windows = windows.copy()
        np.matmul(windows, matrix, out=y[j, c])
    window.drain()
    return y.reshape(-1)[:n_out]


def _layout(up, down, taps):
    """(periods, group, chunk) of the resampler: whole periods per row, output columns per group, rows per product.

    A group takes at most _GROUP_COLUMNS columns, and at most
    1 + taps * up // down, so that its matrix holds at most 2 * taps rows,
    at least half of them taps, however large down is. A row holds as many
    whole periods as fit in that width, and one period when up alone fills it.
    """
    widest = min(_GROUP_COLUMNS, 1 + taps * up // down)
    periods = max(1, widest // up)
    group = min(up * periods, widest)
    chunk = min(_CHUNK_ROWS, max(1, _CHUNK_SPAN // (down * periods)))
    return periods, group, chunk


def _windows(seg, width, step):
    """The rows seg[i * step : i * step + width], as `sliding_window_view(seg, width)[::step]` gives them.

    A view built by as_strided directly, which costs a fifth as much per call.
    """
    stride = seg.strides[0]
    rows = (seg.shape[0] - width) // step + 1
    return as_strided(seg, (rows, width), (step * stride, stride), writeable=False)


class _InputWindow:
    """The samples x[base:top] of an input, read in order.

    An array input is its own window. A fill input is read into one store
    of `longest` samples, the most of x that any span holds, plus
    _WINDOW_SLACK, and at most n. Spans come in order of their end, so no
    later span reads a sample before top - longest: when a read would
    overrun the store, the samples from there on are kept, and those before
    them are read past. A read takes at least _READ_AHEAD samples where the
    store and n leave room.
    """

    def __init__(self, x, n, longest):
        self.n, self.longest = n, longest
        if isinstance(x, np.ndarray):
            self.store, self.fill, self.top = x, None, n
        else:
            self.store, self.fill, self.top = np.empty(min(longest + _WINDOW_SLACK, n)), x, 0
        self.base = 0

    def span(self, start, end):
        """x[start:end], zero outside [0, n).

        A view of the window when the span lies inside x; a span that
        crosses an end is copied.
        """
        top = min(end, self.n)
        if top > self.top:
            self._read_to(top)
        inner = self.store[max(start, 0) - self.base : max(top, 0) - self.base]
        if start >= 0 and end <= self.n:
            return inner
        before = min(max(-start, 0), end - start)
        return np.concatenate([np.zeros(before), inner, np.zeros(end - start - before - inner.shape[0])])

    def _read_to(self, top):
        """Read up to top, and on to _READ_AHEAD samples past what is held where the store and n allow,
        first moving the samples from top - longest on to the start if the store is full."""
        store = self.store
        if top - self.base > store.shape[0]:
            keep = top - self.longest
            held = max(self.top - keep, 0)
            store[:held] = store[keep - self.base : self.top - self.base]  # a forward copy within one array
            self._discard(keep - self.top)  # reads nothing when samples are held
            self.base, self.top = keep, keep + held
        end = max(top, min(self.top + _READ_AHEAD, self.base + store.shape[0], self.n))
        self.fill(store[self.top - self.base : end - self.base])
        self.top = end

    def _discard(self, count):
        """Read count samples that no span reads, a store at a time."""
        size = self.store.shape[0]
        for done in range(0, count, max(size, 1)):  # the store is empty only when x is
            self.fill(self.store[: min(size, count - done)])

    def drain(self):
        """Read the samples after the last span's, so that the reader checks them too."""
        self._discard(self.n - self.top)
