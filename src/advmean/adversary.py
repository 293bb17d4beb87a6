"""Construction of the indistinguishable adversarial partner.

Given a distribution ``p`` and a sample budget ``(n, delta)``, this module
builds a second distribution ``q`` whose mean is separated from ``p``'s by a
constant fraction of the instance error bound ``epsilon(p, n, delta)`` while
remaining statistically indistinguishable from ``p`` on ``n`` samples and
keeping every per-atom density ratio ``dq/dp`` at most 2.

Two cases, split on which term of the error bound dominates:

- Large mean gap (``|mu_p - mu_star| > sigma_star * sqrt(4.5 L / n)`` with
  ``L = log(1/delta)``): ``q`` mixes ``p`` with its trimmed core at weight
  3/4, pulling the mean a quarter of the way toward the core's.
- Small mean gap (otherwise): ``q`` reweights ``p``'s atoms by the skew
  factor ``1 + clamp(±a (x - mu_p), -1, 1)``.  The slope ``a`` is chosen by
  bisection so the first-moment shift of the skewed masses equals
  ``sigma_star * sqrt(L / n) / 8``.  The two signs give masses summing to 2;
  the heavier (the plus sign on a tie) is kept and rescaled to unit mass by
  ``b = 1 / mass in [1/2, 1]``.

Quantitative guarantees are only asserted inside the small-parameter
regime ``delta <= REGIME_DELTA_MAX`` and ``log(1/delta)/n <= REGIME_RATIO_MAX``.
The library never enforces it: :func:`regime_flags` reports each bound, every
result carries those flags, and only the CLI refuses a run outside the regime.

The outcome is recorded once, as the ``meta`` dict that reports carry: its
keys are ``case`` (``"large_mean_shift"`` or ``"small_mean_shift"``),
``lambda``, ``a``, ``sign`` (``"plus"`` or ``"minus"``), ``b``,
``saturated``, ``regime`` and ``diagnostics``.

:func:`density_ratio` measures a built pair's sup ``dq/dp`` as one float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import (
    AtomicDistribution,
    CoreStats,
    align,
    check_budget,
    core_stats,
    mean,
    mixture,
)
from .divergence import hellinger_sq
from .errors import DegenerateError

REGIME_DELTA_MAX = 0.1
REGIME_RATIO_MAX = 0.01

# Bisection control for the skew slope.
MEAN_SHIFT_TARGET_COEFF = 1.0 / 8.0
BISECT_MAX_ITER = 200
BISECT_RTOL = 1e-10


def regime_flags(n: float, delta: float) -> dict:
    """``{"delta_ok", "ratio_ok"}``: whether ``(n, delta)`` meets each bound
    of the asserted regime."""
    check_budget(n, delta)
    return {
        "delta_ok": delta <= REGIME_DELTA_MAX,
        "ratio_ok": math.log(1.0 / delta) / n <= REGIME_RATIO_MAX,
    }


@dataclass(frozen=True)
class AdversaryResult:
    """The partner ``q``, its construction record ``meta``, and ``p``'s core
    statistics ``stats`` (kept for the verifiers, never serialized).

    ``meta`` holds ``case``; the mixing weight ``lambda`` (large gap); the
    skew slope ``a``, ``sign`` and rescale ``b`` (small gap), each ``None`` on
    the other branch; ``saturated``, set when the skew solve stopped at the
    bracket's upper end short of its target (possible only outside the
    regime); the ``regime`` flags; and ``diagnostics`` (:func:`pair_diagnostics`).
    """

    q: AtomicDistribution
    meta: dict
    stats: CoreStats = field(repr=False, compare=False)

    def meta_dict(self) -> dict:
        """A copy of ``meta``, nested dicts included, for the caller to extend."""
        return {k: dict(v) if isinstance(v, dict) else v for k, v in self.meta.items()}


def _clamped_shift(dev: np.ndarray, ws: np.ndarray, a: float) -> float:
    """First-moment shift ``sum_i w_i d_i clamp(a d_i, -1, 1)`` of the skew
    weight on deviations ``d_i = x_i - mu``.

    Nondecreasing and continuous in ``a``, strictly increasing while any atom
    is unclamped; 0 in the limit ``a -> 0``.
    """
    clamped = np.clip(a * dev, -1.0, 1.0)
    return math.fsum((ws * dev * clamped).tolist())


def _bisect_skew(
    dev: np.ndarray, ws: np.ndarray, second: float, target: float, a_hi: float
) -> tuple[float, bool]:
    """Solve ``_clamped_shift(dev, ws, a) == target`` for ``a in (0, a_hi]``
    by bisection; ``second = E[d^2]`` is the variance.

    The shift is bounded above by ``a * E[d^2]``, so ``target / E[d^2]`` is a
    valid lower bracket; when no atom is clamped the bound is an equality and
    the solve finishes immediately.  Returns ``(a_hi, True)`` if even the
    upper endpoint falls short, which cannot happen in-regime.
    """
    tol = BISECT_RTOL * target

    if _clamped_shift(dev, ws, a_hi) < target - tol:
        return a_hi, True

    lo = min(max(target / second, 5e-324), a_hi)
    value = _clamped_shift(dev, ws, lo)
    if abs(value - target) <= tol:
        return lo, False
    hi = a_hi
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        value = _clamped_shift(dev, ws, mid)
        if abs(value - target) <= tol:
            return mid, False
        if value < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), False


def density_ratio(q: AtomicDistribution, p: AtomicDistribution) -> float:
    """The sup of the per-atom mass ratio ``q(x)/p(x)`` over ``p``'s atoms;
    ``inf`` when ``q`` carries mass where ``p`` has none."""
    _, wp, wq = align(p, q)
    if not (wp > 0.0).all():
        return math.inf
    return float((wq / wp).max())


def pair_diagnostics(
    p: AtomicDistribution, q: AtomicDistribution, stats: CoreStats
) -> dict:
    """Measured values of the pair ``(p, q)``; ``stats`` are ``p``'s."""
    mu_q = mean(q)
    return {
        "epsilon_p": stats.eps,
        "mu_p": stats.mu,
        "mu_q": mu_q,
        "mean_shift": abs(mu_q - stats.mu),
        "sup_ratio": density_ratio(q, p),
        "hellinger_sq": hellinger_sq(p, q),
    }


def _require_partner(p: AtomicDistribution, stats: CoreStats) -> None:
    """Raise :class:`DegenerateError` when ``p`` admits no partner at the
    budget behind ``stats``: a single atom, or a trimmed core that is a point
    mass sitting exactly at the mean.  Either way the error bound is zero."""
    if p.num_atoms == 1:
        raise DegenerateError("a point mass has no distinct indistinguishable partner")
    if stats.gap <= stats.threshold and stats.sigma_star <= 0.0:
        raise DegenerateError(
            "trimmed core is a point mass at the mean; no skew target"
        )


def construct_q(p: AtomicDistribution, n: float, delta: float) -> AdversaryResult:
    """Build the adversarial partner of ``p`` for the budget ``(n, delta)``;
    a ``p`` that admits none raises :class:`DegenerateError`."""
    flags = regime_flags(n, delta)
    stats = core_stats(p, n, delta)
    _require_partner(p, stats)

    lam = a = sign = b = None
    saturated = False
    if stats.gap > stats.threshold:
        case, lam = "large_mean_shift", 0.75
        q = mixture(p, stats.core, lam)
    else:
        case = "small_mean_shift"
        root = math.sqrt(math.log(1.0 / delta) / n)
        target = MEAN_SHIFT_TARGET_COEFF * stats.sigma_star * root
        # Positions stay p's own, bitwise, as the support-sensitive ratio and
        # Hellinger checks require; only the masses are reweighted.
        dev = p.xs - stats.mu
        a, saturated = _bisect_skew(
            dev, p.ws, stats.var, target, root / stats.sigma_star
        )
        clamp = np.clip(a * dev, -1.0, 1.0)
        plus, minus = p.ws * (1.0 + clamp), p.ws * (1.0 - clamp)
        mass_plus, mass_minus = math.fsum(plus.tolist()), math.fsum(minus.tolist())
        if mass_plus >= mass_minus:
            sign, ws, mass = "plus", plus, mass_plus
        else:
            sign, ws, mass = "minus", minus, mass_minus
        keep = ws > 0.0
        q, b = AtomicDistribution(p.xs[keep], ws[keep] / mass), 1.0 / mass

    meta = {
        "case": case,
        "lambda": lam,
        "a": a,
        "sign": sign,
        "b": b,
        "saturated": saturated,
        "regime": flags,
        "diagnostics": pair_diagnostics(p, q, stats),
    }
    return AdversaryResult(q, meta, stats)
