"""Brute-force re-implementations of framing, energy, quantile, interval
merging, and scoring, written as plain index-by-index loops.

These exist to cross-check the vectorized production code: same framing
boundaries, same rank selection, same overlap rule, built independently
from the stated definitions. The mean-of-squares reduction reuses numpy on
a loop-built list so energies compare bit-for-bit instead of differing by
summation-order dust.
"""

from __future__ import annotations

import math

import numpy as np


def naive_frames(samples, sample_rate_hz, window_s, hop_s):
    """Frames as python lists: ceil(len/hop) frames, zero-padded tail."""
    samples = list(samples)
    win = max(1, int(round(window_s * sample_rate_hz)))
    hop = max(1, int(round(hop_s * sample_rate_hz)))
    n_frames = math.ceil(len(samples) / hop)
    frames = []
    for i in range(n_frames):
        frame = []
        for j in range(win):
            k = i * hop + j
            frame.append(samples[k] if k < len(samples) else 0.0)
        frames.append(frame)
    return frames


def naive_energy_db(frame, energy_floor):
    squares = [v * v for v in frame]
    power = float(np.mean(np.array(squares)))
    return 10.0 * math.log10(max(power, energy_floor))


def naive_quantile(values, q):
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank - 1, 0)]


def naive_noise_floor_db(energies_db, q, energy_floor):
    return max(naive_quantile(energies_db, q), 10.0 * math.log10(energy_floor))


def naive_decisions(samples, sample_rate_hz, window_s, hop_s, threshold_db, q, energy_floor):
    """(index, start_s, energy_db, snr_db, is_speech) per frame."""
    frames = naive_frames(samples, sample_rate_hz, window_s, hop_s)
    energies = [naive_energy_db(f, energy_floor) for f in frames]
    floor = naive_noise_floor_db(energies, q, energy_floor)
    out = []
    for i, energy in enumerate(energies):
        snr = energy - floor
        out.append((i, i * hop_s, energy, snr, snr >= threshold_db))
    return out, floor


def naive_intervals(decisions, window_s):
    spans = []
    run_start = None
    run_last = None
    for _, start_s, _, _, speech in decisions:
        if speech:
            if run_start is None:
                run_start = start_s
            run_last = start_s
        elif run_start is not None:
            spans.append((run_start, run_last + window_s))
            run_start = None
    if run_start is not None:
        spans.append((run_start, run_last + window_s))
    return spans


def naive_truth_flag(start_s, window_s, intervals):
    covered = 0.0
    for lo, hi in intervals:
        left = max(start_s, lo)
        right = min(start_s + window_s, hi)
        if right > left:
            covered += right - left
    return covered >= 0.5 * window_s


def naive_counts(decisions, window_s, truth_intervals):
    tp = fp = tn = fn = 0
    for _, start_s, _, _, predicted in decisions:
        truth = naive_truth_flag(start_s, window_s, truth_intervals)
        if predicted and truth:
            tp += 1
        elif predicted and not truth:
            fp += 1
        elif not predicted and truth:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def naive_polyphase(xpad, phase_taps, up, down, n_out, pad):
    """Polyphase resampler as one loop per output sample.

    y[n] = sum_k h[p,k] * xpad[pad + m - k] with p = n*down mod up and
    m = n*down // up + taps/2; ``pad`` is the zero padding on each side of
    ``xpad``.
    """
    y = np.empty(n_out, dtype=np.float64)
    taps = phase_taps.shape[1]
    half = taps // 2
    for n in range(n_out):
        u = n * down
        p = u % up
        base = pad + u // up + half
        acc = 0.0
        for k in range(taps):
            acc += phase_taps[p, k] * xpad[base - k]
        y[n] = acc
    return y


def naive_sos(b, a, x, dtype=np.float64):
    """Biquad cascade as one loop per sample: transposed direct form II,
    one pass per section, zero initial state, every sum in dtype
    (np.longdouble has a 64-bit mantissa on x86-64)."""
    y = np.array(x, dtype=dtype)
    for s in range(b.shape[0]):
        b0, b1, b2 = b[s]
        a1, a2 = a[s]
        s1 = 0.0
        s2 = 0.0
        for i in range(y.shape[0]):
            xn = y[i]
            yn = b0 * xn + s1
            s1 = b1 * xn - a1 * yn + s2
            s2 = b2 * xn - a2 * yn
            y[i] = yn
    return y
