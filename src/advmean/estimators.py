"""Mean estimators: median of group means and the plain sample mean.

Samples are any 1-d sequence of floats (a list or an ``np.ndarray``); they
are read as float64 and never modified.

Both estimators follow one group rule.  Samples are split in input order
into contiguous groups of near-equal size, the first ``n mod k`` of the ``k``
groups taking one extra sample, and each group mean is its correctly-rounded
sum (the value ``fsum`` gives) over its size: up to two rounds of error-free
extraction (Rump, Ogita & Oishi 2008) split off parts with exact group totals,
and ``fsum`` adds the rest when some is left.  The median of means takes
``k = ceil(4.5 * log(1/delta))`` groups (never below 1) and returns the middle
mean, or the midpoint of the two central means for even ``k``; the sample
mean is the one-group case.  Fewer samples than groups (``_groups``) or a
group sum past float64 range is a :class:`~advmean.errors.DomainError`; a
group holding both infinities, like one holding a NaN, has the mean NaN.
Output is deterministic and unchanged by permuting samples within a group;
permutations across group boundaries can change it.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .distribution import check_delta
from .errors import DomainError

GROUP_COUNT_COEFF = 4.5


def group_count(delta: float) -> int:
    check_delta(delta)
    return max(1, math.ceil(GROUP_COUNT_COEFF * math.log(1.0 / delta)))


def _groups(n: int, delta: float | None) -> int:
    """``group_count(delta)`` groups for ``n`` samples, or one when ``delta`` is
    ``None``; :class:`DomainError` when some group would be empty."""
    k = 1 if delta is None else group_count(delta)
    if n < k:
        raise DomainError(f"need at least {k} samples for {k} groups, got {n}")
    return k


def _group_means(samples, delta: float | None) -> list[float]:
    """The group means of ``samples`` under the group rule, in group order.
    Checks the samples, then ``delta``, then that no group is empty; a group
    sum past float64 range is a :class:`DomainError`."""
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim != 1 or values.size < 1:
        raise DomainError("a sample batch must be 1-d with at least one value")
    k = _groups(values.size, delta)
    base, extra = divmod(values.size, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    starts = list(accumulate(sizes[:-1], initial=0))
    # With sigma = 2^(e+m), max|x| < 2^e and 2^m >= largest group + 2, a round's
    # q = (x + sigma) - sigma, x - q and group sums of q (below sigma) are exact.
    m = (sizes[0] + 1).bit_length()
    parts = []
    top = float(np.abs(values).max())  # a round needs top < 2^(1023 - m)
    sigma = math.ldexp(1.0, math.frexp(top)[1] + m) if top < 2.0 ** (1023 - m) else 0.0
    while len(parts) < 2 and sigma >= 2.0**-1021:  # sigma / 2 stays normal
        q = (values + sigma) - sigma
        values = values - q
        parts.append(np.add.reduceat(q, starts))
        if not values.any():  # one addition rounds an exact float pair
            return [s / size for s, size in zip(sum(parts).tolist(), sizes)]
        sigma = math.ldexp(sigma, m - 53)
    rest, parts = values.tolist(), [p.tolist() for p in parts]
    try:
        return [_fsum([p[g] for p in parts] + rest[start : start + size]) / size
                for g, (start, size) in enumerate(zip(starts, sizes))]
    except OverflowError:
        raise DomainError("a group sum overflows float64; rescale the samples") from None


def _fsum(terms: list[float]) -> float:
    """``fsum``, but NaN for a group holding both infinities."""
    try:
        return math.fsum(terms)
    except ValueError:  # -inf + inf
        return math.nan


def median_of_means(samples, delta: float) -> float:
    """Median of the group means; :class:`~advmean.errors.DomainError` when
    there are fewer samples than groups or a group sum overflows."""
    means = _group_means(samples, delta)
    if any(map(math.isnan, means)):
        return math.nan
    # The middle mean, or the midpoint (a + b) / 2 of the two central ones:
    # bitwise what np.median computes.
    means.sort()
    mid = len(means) // 2
    return means[mid] if len(means) % 2 else (means[mid - 1] + means[mid]) / 2


def sample_mean(samples) -> float:
    """Arithmetic mean: the mean of the group rule's single group."""
    return _group_means(samples, None)[0]
