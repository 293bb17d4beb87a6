"""Squared Hellinger distance between two atomic distributions.

Positions are matched exactly: two measures share support only where their
atom positions are equal under ``==``.  Distributions meant to share support
must therefore be built on a common grid.
"""

from __future__ import annotations

import numpy as np

from .distribution import AtomicDistribution, _fsums, align


def hellinger_sq(p: AtomicDistribution, q: AtomicDistribution) -> float:
    """``0.5 * sum((sqrt(p_i) - sqrt(q_i))^2)`` over the union support: each
    square is one correctly rounded multiply, and their sum is ``fsum``'s."""
    _, wp, wq = align(p, q)
    diffs = np.sqrt(wp) - np.sqrt(wq)
    return 0.5 * _fsums(diffs * diffs)[0]
