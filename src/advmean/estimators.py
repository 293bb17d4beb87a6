"""Mean estimators: median of group means and the plain sample mean.

Samples are any 1-d sequence of floats (a list or an ``np.ndarray``); they
are read as float64 and never modified.

The group count is ``ceil(4.5 * log(1/delta))`` (never below 1).  Samples are
split in input order into contiguous groups of near-equal size, the first
``n mod k`` groups taking one extra sample, and the median of the group means
is returned, with an even group count yielding the midpoint of the two
central means.

Group sums use ``math.fsum`` (one correctly-rounded sum), so the output is
deterministic, independent of evaluation order, and unchanged by permuting
samples within a group.  Permutations across group boundaries can change the
result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InsufficientSamplesError

GROUP_COUNT_COEFF = 4.5


def group_count(delta: float) -> int:
    if not 0.0 < delta < 1.0:
        raise DomainError(f"failure probability must lie in (0, 1), got {delta!r}")
    return max(1, math.ceil(GROUP_COUNT_COEFF * math.log(1.0 / delta)))


def _values(samples) -> np.ndarray:
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim != 1 or values.size < 1:
        raise DomainError("a sample batch must be 1-d with at least one value")
    return values


def median_of_means(samples, delta: float) -> float:
    """Median of the group means; raises
    :class:`~advmean.errors.InsufficientSamplesError` when there are fewer
    samples than groups."""
    values = _values(samples)
    n = values.size
    k = group_count(delta)
    if n < k:
        raise InsufficientSamplesError(k, n)
    base, extra = divmod(n, k)
    data = values.tolist()
    means = []
    start = 0
    for g in range(k):
        size = base + (1 if g < extra else 0)
        means.append(math.fsum(data[start : start + size]) / size)
        start += size
    if any(map(math.isnan, means)):
        return math.nan
    # The middle mean, or the midpoint (a + b) / 2 of the two central ones:
    # bitwise what np.median computes.
    means.sort()
    mid = k // 2
    return means[mid] if k % 2 else (means[mid - 1] + means[mid]) / 2


def sample_mean(samples) -> float:
    """Arithmetic mean, summed like a single estimator group so the two
    estimators agree exactly when the group count is 1."""
    values = _values(samples)
    return math.fsum(values.tolist()) / values.size
