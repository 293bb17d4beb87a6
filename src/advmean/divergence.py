"""Squared Hellinger distance, Bhattacharyya coefficient, and the
sample-complexity indistinguishability predicate.

Positions are matched exactly: two measures share support only where their
atom positions are equal under ``==``.  Distributions meant to share support
must therefore be built on a common grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import AtomicDistribution, align
from .errors import DomainError


@dataclass(frozen=True)
class HellingerReport:
    """Outcome of the n-sample indistinguishability test.

    ``indistinguishable`` holds when ``log(1 - h_sq) >= rhs`` with
    ``rhs = log(4 * delta) / (2 * n)``.  ``log_one_minus`` is ``-inf`` when
    the squared distance reaches 1.
    """

    h_sq: float
    log_one_minus: float
    rhs: float
    indistinguishable: bool


def hellinger_sq(p: AtomicDistribution, q: AtomicDistribution) -> float:
    """``0.5 * sum((sqrt(p_i) - sqrt(q_i))^2)`` over the union support."""
    _, wp, wq = align(p, q)
    # Python's ``**`` (libm pow) rather than numpy's square, which rounds
    # differently on some inputs; reports are pinned bitwise.
    diffs = (np.sqrt(wp) - np.sqrt(wq)).tolist()
    return 0.5 * math.fsum([d ** 2 for d in diffs])


def bhattacharyya(p: AtomicDistribution, q: AtomicDistribution) -> float:
    """``sum(sqrt(p_i * q_i))`` over the shared positions; equals
    ``1 - hellinger_sq``."""
    _, wp, wq = align(p, q)
    shared = (wp > 0.0) & (wq > 0.0)
    return math.fsum(np.sqrt(wp[shared] * wq[shared]).tolist())


def hellinger_report(h_sq: float, n: float, delta: float) -> HellingerReport:
    """The n-sample indistinguishability test on a given squared distance.

    Unlike :func:`indistinguishable` it accepts ``delta >= 1/4``, so
    exploratory out-of-regime runs still get a report."""
    one_minus = 1.0 - h_sq
    log_one_minus = math.log(one_minus) if one_minus > 0.0 else float("-inf")
    rhs = math.log(4.0 * delta) / (2.0 * n)
    return HellingerReport(
        h_sq=h_sq,
        log_one_minus=log_one_minus,
        rhs=rhs,
        indistinguishable=log_one_minus >= rhs,
    )


def indistinguishable(
    p: AtomicDistribution, q: AtomicDistribution, n: int, delta: float
) -> HellingerReport:
    """Decide whether no n-sample test can separate ``p`` from ``q`` with
    failure probability ``delta``.

    Requires ``delta < 1/4`` so the right-hand side ``log(4*delta)/(2n)`` is
    negative and the predicate is meaningful.
    """
    if not 0.0 < delta < 0.25:
        raise DomainError(
            f"predicate needs delta in (0, 1/4), got {delta!r}"
        )
    if not n >= 1:
        raise DomainError(f"sample count must be >= 1, got {n!r}")
    return hellinger_report(hellinger_sq(p, q), n, delta)
