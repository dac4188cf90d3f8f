"""Hot inner loops: the biquad-cascade filter and the polyphase resampler.

The cascade is a per-sample serial recurrence run as a plain loop; the
resampler is a vectorized gather, one matrix product per polyphase branch.
"""

import numpy as np

RESAMPLER_PAD = 64  # zero samples added on each side of the resampler input
RESAMPLER_TAPS = 64  # filter taps per polyphase branch
BACKEND = "numpy"  # recorded in perfbench's run metadata


def sos_filter(b, a, x):
    """Transposed direct form II, one pass per section, zero initial state."""
    y = x.copy()
    for s in range(b.shape[0]):
        b0 = b[s, 0]
        b1 = b[s, 1]
        b2 = b[s, 2]
        a1 = a[s, 0]
        a2 = a[s, 1]
        s1 = 0.0
        s2 = 0.0
        for i in range(y.shape[0]):
            xn = y[i]
            yn = b0 * xn + s1
            s1 = b1 * xn - a1 * yn + s2
            s2 = b2 * xn - a2 * yn
            y[i] = yn
    return y


def polyphase_filter(xpad, phase_taps, up, down, n_out):
    """y[n] = sum_k h[p,k] * xpad[PAD + m - k] with p/m derived from n*down.

    The +TAPS/2 bias keeps the output aligned with the input timeline.
    Outputs that share a phase are gathered and reduced together.
    """
    taps = phase_taps.shape[1]
    half = taps // 2
    u = np.arange(n_out, dtype=np.int64) * down
    phases = u % up
    bases = RESAMPLER_PAD + u // up + half
    offsets = np.arange(taps, dtype=np.int64)
    y = np.empty(n_out, dtype=np.float64)
    for p in np.unique(phases):
        sel = np.nonzero(phases == p)[0]
        idx = bases[sel][:, None] - offsets[None, :]
        y[sel] = xpad[idx] @ phase_taps[p]
    return y
