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
runs each pair at three levels, with seven products and one Python loop of
at most _CASCADE_ROWS / _GROUP_ROWS = 8 steps, whatever ROW and SUB are:

- Rows of ROW samples. One product with the taps A^(ROW-1-j) B gives the
  state each row adds from zero, its drive.
- Groups of _GROUP_ROWS rows, a blocked prefix scan (Blelloch, "Prefix sums
  and their applications", 1990). One product with a block-triangular plan
  matrix, of the powers of A^ROW, turns a group's drives into the state
  after each of its rows from zero. The loop carries the state from group
  to group, s <- A^(16 ROW) s + the group's end state, and one product
  adds each group's start state, stepped by A^((i+1) ROW), to its rows.
  That gives every row's start state.
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
- Every plan matrix is rounded to double once from np.longdouble. A^k up to
  A^ROW comes from one scalar recurrence per section, and the powers of
  A^SUB and of A^ROW from products.

The error is then 1.7e-13 on the order-8 300-320 Hz band at 48 kHz,
5.5e-12 on the order-4 and order-8 20-40 Hz bands at 48 kHz and 4.6e-16 on
the order-2 band. The plan's convolutions cost ROW^2 (0.8 ms for one pair
at 512, 2.5 ms at 1024), and every command builds its own plan.
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
    taps, group plan, carry plan, A^(16 ROW) as 16 floats, sub-block drive
    taps, (A^SUB)^T, sub-block plan, output matrix), as `_pair_rows` uses
    them.
    """
    sections = [_section_sequences(bs, as_) for bs, as_ in zip(b, a)]
    if len(sections) % 2:
        sections.append(_section_sequences(*_PASS_THROUGH))
    return tuple(_pair_plan(first, second) for first, second in zip(sections[::2], sections[1::2]))


def _section_sequences(b, a) -> tuple:
    """(h, u, powers) of one section: impulse response, u[k] = A^k B and A^k, for k = 0 .. ROW, in np.longdouble.

    For A = [[-a1, 1], [-a2, 0]], A^k = [[f[k+1], f[k]], [-a2 f[k], -a2 f[k-1]]]
    with f[0] = 0, f[1] = 1 and f[k+1] = -a1 f[k] - a2 f[k-1], so one scalar
    recurrence gives every power. It runs in np.longdouble (64-bit mantissa
    on x86-64, plain double elsewhere), and each plan matrix is rounded to
    double once.
    """
    b0, b1, b2 = (np.longdouble(v) for v in b)
    a1, a2 = (np.longdouble(v) for v in a)
    f = [np.longdouble(0.0), np.longdouble(1.0)]
    for _ in range(ROW):
        f.append(-a1 * f[-1] - a2 * f[-2])
    powers = np.empty((ROW + 1, 2, 2), dtype=np.longdouble)
    powers[:, 0, 0] = f[1:]
    powers[:, 0, 1] = f[:-1]
    powers[0, 1] = (0.0, 1.0)
    powers[1:, 1] = -a2 * powers[:-1, 0]
    u = powers @ np.array([b1 - a1 * b0, b2 - a2 * b0])
    h = np.concatenate(([b0], u[:-1, 0]))  # h[0] = b0, h[k] = (A^(k-1) B)[0]
    return h, u, powers


def _pair_plan(first, second) -> tuple:
    """One 4-state system for two sections in series, the first feeding the second.

    With states (s1, s2) the system is A = [[A1, 0], [B2 C1, A2]],
    B = [B1; b0_1 B2] and C = [b0_2 C1, C2], where C = [1, 0]. Its powers
    are block lower triangular, A^k = [[A1^k, 0], [X_k, A2^k]], with
    X_k = sum_j A2^(k-1-j) B2 C1 A1^j. Every term the plan needs is a
    convolution of the two sections' sequences: the impulse response is
    h1 * h2, the lower half of A^k B is h1 * u2 and the upper half of
    C A^k is h2 * C1 A1^k. A^SUB comes from the sequences, and its
    powers and those of A^ROW = (A^SUB)^(ROW/SUB) from products, all in
    np.longdouble.
    """
    h1, u1, p1 = first
    h2, u2, p2 = second
    v1 = p1[:, 0]  # C1 A1^k
    h1d, u2d = h1[:ROW].astype(float), u2[:ROW].astype(float)  # ROW-long convolutions run in double, for speed
    taps = np.empty((ROW, _STATES))  # taps[k] = A^k B
    taps[:, :2] = u1[:ROW]
    for i in range(2):
        taps[:, 2 + i] = np.convolve(h1d, u2d[:, i])[:ROW]
    impulse = np.convolve(h1[:SUB], h2[:SUB])[:SUB].astype(float)
    lag = np.arange(SUB)[:, None] - np.arange(SUB)[None, :]
    toeplitz = np.where(lag >= 0, impulse[np.maximum(lag, 0)], 0.0)
    observer = np.empty((_STATES, SUB))  # column i is C A^i
    for i in range(2):
        observer[i] = np.convolve(h2[:SUB], v1[:SUB, i])[:SUB]
    observer[2:] = p2[:SUB, 0].T
    sub_step = np.zeros((_STATES, _STATES), dtype=np.longdouble)  # A^SUB
    sub_step[:2, :2] = p1[SUB]
    sub_step[2:, :2] = u2[SUB - 1 :: -1].T @ v1[:SUB]  # X_SUB
    sub_step[2:, 2:] = p2[SUB]
    sub_powers = _powers(sub_step, _SUBS + 1)  # A^(k SUB), up to A^ROW
    row_powers = _powers(sub_powers[_SUBS], _GROUP_ROWS + 1)  # A^(i ROW)
    sub_t = sub_powers[:_SUBS].transpose(0, 2, 1).astype(float)
    row_t = row_powers.transpose(0, 2, 1).astype(float)
    return (
        np.ascontiguousarray(taps[::-1]),
        _scan_matrix(row_t[:_GROUP_ROWS], 0),
        row_t[1:].transpose(1, 0, 2).reshape(_STATES, -1),  # block i is (A^((i + 1) ROW))^T
        tuple(row_powers[_GROUP_ROWS].astype(float).reshape(-1).tolist()),
        np.ascontiguousarray(taps[SUB - 1 :: -1]),
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
    blocks = np.concatenate([np.zeros((1, _STATES, _STATES)), powers_t[: n - shift]])
    return blocks.reshape(-1)[_scan_index(n, shift)]


@functools.cache
def _scan_index(n, shift):
    """Where `_scan_matrix` reads each entry in its flattened blocks: block 0 is zero, block j + 1 is power j."""
    m, a, k, b = np.ix_(*(np.arange(size) for size in (n, _STATES, n, _STATES)))
    lag = k - m - shift
    index = (np.where(lag >= 0, lag + 1, 0) * _STATES + a) * _STATES + b
    return index.reshape(n * _STATES, n * _STATES)


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

    Seven products and one loop over the groups of _GROUP_ROWS rows (see
    the module docstring), through the arrays of buffers and x itself.
    """
    row_taps, group_plan, carry_plan, group_step, sub_taps, sub_step_t, sub_plan, output = pair
    p11, p12, _, _, p21, p22, _, _, x11, x12, q11, q12, x21, x22, q21, q22 = group_step  # A^(16 ROW), row by row
    rows = x.shape[0]
    groups = -(-rows // _GROUP_ROWS)
    # Rows: each row's drive, the state after each row of a group from zero, the carry from group to group,
    # and then each row's start state.
    drives = buffers.drives[: groups * _GROUP_ROWS]
    np.matmul(x, row_taps, out=drives[:rows])  # state each row adds: sum_j A^(ROW-1-j) B x[j]
    drives[rows:] = 0.0
    states = buffers.states[: groups * _GROUP_ROWS + 1]  # states[r]: the state at the start of row r
    states[0] = state
    after = states[1:].reshape(groups, -1)
    np.matmul(drives.reshape(groups, -1), group_plan, out=after)
    carried = []  # the state at the start of each group
    s1, s2, s3, s4 = state
    for u1, u2, u3, u4 in after[:, -_STATES:].tolist():
        carried.append((s1, s2, s3, s4))
        s1, s2, s3, s4 = (
            p11 * s1 + p12 * s2 + u1,
            p21 * s1 + p22 * s2 + u2,
            x11 * s1 + x12 * s2 + q11 * s3 + q12 * s4 + u3,
            x21 * s1 + x22 * s2 + q21 * s3 + q22 * s4 + u4,
        )
    lift = buffers.carry[:groups]
    np.matmul(np.array(carried), carry_plan, out=lift)
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
