"""The vectorized polyphase kernel against its loop oracle."""

import numpy as np

from naive_reference import naive_polyphase
from vadkit import _kernels


def test_polyphase_matches_loop_oracle():
    rng = np.random.default_rng(32)
    pad = _kernels.RESAMPLER_PAD
    for up, down in ((2, 3), (3, 2), (160, 441), (441, 160), (1, 4)):
        n = int(rng.integers(500, 3000))
        x = rng.standard_normal(n)
        xpad = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
        taps = rng.standard_normal((up, _kernels.RESAMPLER_TAPS))
        n_out = -(-n * up) // down
        loop = naive_polyphase(xpad, taps, up, down, n_out, pad)
        fast = _kernels.polyphase_filter(xpad, taps, up, down, n_out)
        scale = max(1.0, float(np.max(np.abs(fast))))
        assert np.max(np.abs(loop - fast)) / scale < 1e-12
