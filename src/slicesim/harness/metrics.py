"""Run metrics: resource efficiency, mask correlation, learning-curve smoothing."""

from __future__ import annotations

import numpy as np

from ..netsim import NetState, Topology


def resource_efficiency(net: NetState, allocation: np.ndarray,
                        topology: Topology) -> np.ndarray:
    """Each cell's average served throughput per allocated bandwidth
    (bit/s/Hz), as a (K,) array.

    Per slice: served traffic (per-user throughput times users) divided by
    the slice's allocated bandwidth; slices with zero allocation contribute
    zero. A cell's value is the mean over its slices.
    """
    served = net.throughput * net.users
    share = allocation[:, 1:]
    terms = np.zeros_like(served, dtype=float)
    np.divide(served, share * topology.bandwidth_hz, out=terms, where=share > 0)
    # the mean over slices, as np.mean computes it
    return np.add.reduce(terms, 1) / terms.shape[1]


def mask_correlation(actions, mask_values) -> float:
    """Pearson correlation between an allocation trace and its traffic mask.

    Returns NaN (missing) when either trace is constant, where the
    coefficient is undefined.
    """
    a = np.asarray(actions, dtype=float)
    m = np.asarray(mask_values, dtype=float)
    if a.shape != m.shape or a.ndim != 1:
        raise ValueError("traces must be 1-D and equally long")
    if a.size < 2:
        raise ValueError("need at least two points")
    if np.ptp(a) == 0.0 or np.ptp(m) == 0.0:
        return float("nan")
    am = a - a.mean()
    mm = m - m.mean()
    return float((am * mm).sum() / np.sqrt((am ** 2).sum() * (mm ** 2).sum()))


def smooth(series, window: int = 100) -> np.ndarray:
    """Trailing moving average; the first window-1 points average what exists."""
    s = np.asarray(series, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    if s.size == 0:
        return s.copy()
    c = np.concatenate([[0.0], np.cumsum(s)])
    idx = np.arange(1, s.size + 1)
    lo = np.maximum(idx - window, 0)
    return (c[idx] - c[lo]) / (idx - lo)


def steps_to_fraction_of_final(series, fraction: float = 0.9, window: int = 100) -> int:
    """First index where the smoothed series reaches ``fraction`` of its
    final smoothed value. Returns 0 for flat-or-better-from-the-start series."""
    sm = smooth(series, window)
    if sm.size == 0:
        raise ValueError("empty series")
    target = fraction * sm[-1]
    if sm[-1] < 0:  # degenerate: a negative plateau is "reached" immediately
        return 0
    hits = np.nonzero(sm >= target)[0]
    return int(hits[0]) if hits.size else int(sm.size - 1)
