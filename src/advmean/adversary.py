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
  factor ``1 + clamp(±a (x - mu_p), -1, 1)``.  The slope ``a`` makes the
  first-moment shift of the skewed masses equal ``sigma_star * sqrt(L / n) /
  8``; that shift is linear in ``a`` between the breaks ``1/|x - mu_p|``, so
  ``a`` is solved in closed form on its segment.  The two signs give masses
  summing to 2; the heavier (the plus sign on a tie) is kept and rescaled to
  unit mass by ``b = 1 / mass in [1/2, 1]``.

Quantitative guarantees are only asserted inside the small-parameter
regime ``delta <= REGIME_DELTA_MAX`` and ``log(1/delta)/n <= REGIME_RATIO_MAX``.
The library never enforces it: :func:`regime_flags` reports each bound, every
result carries those flags, and only the CLI refuses a run outside the regime.

The outcome is recorded once, as the ``meta`` dict that reports carry: its
keys are ``case`` (``"large_mean_shift"`` or ``"small_mean_shift"``),
``lambda``, ``a``, ``sign`` (``"plus"`` or ``"minus"``), ``b``,
``saturated``, ``regime`` and ``diagnostics``.

``_partner_stats`` is the one check that ``p`` admits a partner, shared with
the pair verifier; :func:`density_ratio` measures a pair's sup ``dq/dp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import (
    AtomicDistribution,
    CoreStats,
    _fsums,
    _log_inv,
    align,
    check_budget,
    core_stats,
    mixture,
)
from .divergence import hellinger_sq
from .errors import DegenerateError

REGIME_DELTA_MAX = 0.1
REGIME_RATIO_MAX = 0.01

# The skew's first-moment shift is this multiple of sigma_star * sqrt(L / n).
MEAN_SHIFT_TARGET_COEFF = 1.0 / 8.0


def regime_flags(n: float, delta: float) -> dict:
    """``{"delta_ok", "ratio_ok"}``: whether ``(n, delta)`` meets each bound
    of the asserted regime."""
    check_budget(n, delta)
    return {
        "delta_ok": delta <= REGIME_DELTA_MAX,
        "ratio_ok": _log_inv(delta) / n <= REGIME_RATIO_MAX,
    }


@dataclass(frozen=True)
class AdversaryResult:
    """The partner ``q`` and its construction record ``meta``.

    ``meta`` holds ``case``; the mixing weight ``lambda`` (large gap); the
    skew slope ``a``, ``sign`` and rescale ``b`` (small gap), each ``None`` on
    the other branch; ``saturated``, set when the slope that meets the skew's
    target exceeds ``a_hi = sqrt(L / n) / sigma_star`` (or none does), and
    ``a_hi`` is used in its place (possible only outside the regime); the
    ``regime`` flags; and ``diagnostics`` (:func:`pair_diagnostics`).
    """

    q: AtomicDistribution
    meta: dict

    def meta_dict(self) -> dict:
        """A copy of ``meta``, nested dicts included, for the caller to extend."""
        return {k: dict(v) if isinstance(v, dict) else v for k, v in self.meta.items()}


def _skew_slope(dev: np.ndarray, ws: np.ndarray, second: float, target: float) -> float:
    """The least slope ``a`` whose skew shift ``sum_i w_i |d_i| min(a |d_i|, 1)``
    reaches ``target``, on deviations ``d_i`` with ``second = sum_i w_i d_i^2``;
    ``inf`` when even the shift with every atom clamped, ``sum_i w_i |d_i|``,
    falls short.

    The shift is concave, and linear between the breaks ``1/|d_i|``.  When
    ``target / second`` clamps no atom it is the slope.  Otherwise, with the
    ``k`` atoms of least ``|d|`` left unclamped,
    ``a = (target - sum_clamped w |d|) / sum_unclamped w d^2``, both sums
    exactly rounded: within 6 roundings of the exact slopes for ``target``
    scaled by ``1 -+ (3 m + 13) 2^-53``, ``m`` the atoms off the mean.
    """
    a = target / second
    size = np.abs(dev)
    if a * size.max() <= 1.0:
        return a
    order = np.argsort(size)
    size = size[order]
    clamped = ws[order] * size  # an atom's shift once clamped
    free = clamped * size  # its shift per unit slope while unclamped
    keep = free > 0.0  # drops the atoms at the mean and any whose w d^2 underflows
    size, clamped, free = size[keep], clamped[keep], free[keep]
    # The shift at the break 1/size[j], with the atoms before j unclamped and
    # those after it clamped (atom j adds the same either way).
    tail = np.cumsum(clamped[::-1])[::-1]
    at_break = np.append(tail[1:], 0.0) + np.cumsum(free) / size
    # These sums err by under (m + 3) / 2 ulps.  Counting against a target
    # lowered by twice that keeps k at or above the exact count: the line of a
    # segment below the slope meets the target past that segment, while the
    # line of one above can fall short of it by far more than the rounding.
    k = int(np.count_nonzero(at_break >= target * (1.0 - (size.size + 4) * 2.0**-52)))
    if k == 0:
        return math.inf
    return (target - _fsums(clamped[k:])[0]) / _fsums(free[:k])[0]


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
    return {
        "epsilon_p": stats.eps,
        "mu_p": p.mean,
        "mu_q": q.mean,
        "mean_shift": abs(q.mean - p.mean),
        "sup_ratio": density_ratio(q, p),
        "hellinger_sq": hellinger_sq(p, q),
    }


def _partner_stats(p: AtomicDistribution, n: float, delta: float) -> CoreStats:
    """``p``'s :func:`core_stats` at ``(n, delta)``, or :class:`DegenerateError`
    when ``p`` admits no partner there: a single atom, or a trimmed core at
    the mean whose variance is zero, because it is a point mass or because its
    float64 variance underflows.  Either way the error bound is zero."""
    stats = core_stats(p, n, delta)
    if p.num_atoms == 1:
        raise DegenerateError("a point mass has no distinct indistinguishable partner")
    if stats.gap <= stats.threshold and stats.sigma_star <= 0.0:
        if stats.core.num_atoms > 1:
            raise DegenerateError(
                f"trimmed core variance underflows float64 to 0 across "
                f"{stats.core.num_atoms} atoms; rescale the positions"
            )
        raise DegenerateError("trimmed core is a point mass at the mean; no skew target")
    return stats


def construct_q(p: AtomicDistribution, n: float, delta: float) -> AdversaryResult:
    """Build the adversarial partner of ``p`` for the budget ``(n, delta)``;
    a ``p`` that admits none raises :class:`DegenerateError`."""
    flags = regime_flags(n, delta)
    stats = _partner_stats(p, n, delta)

    lam = a = sign = b = None
    saturated = False
    if stats.gap > stats.threshold:
        case, lam = "large_mean_shift", 0.75
        q = mixture(p, stats.core, lam)
    else:
        case = "small_mean_shift"
        root = math.sqrt(_log_inv(delta) / n)
        target = MEAN_SHIFT_TARGET_COEFF * stats.sigma_star * root
        # Positions stay p's own, bitwise, as the support-sensitive ratio and
        # Hellinger checks require; only the masses are reweighted.
        dev = p.xs - p.mean
        slope, a_hi = _skew_slope(dev, p.ws, p.variance, target), root / stats.sigma_star
        a, saturated = min(slope, a_hi), slope > a_hi
        clamp = np.clip(a * dev, -1.0, 1.0)
        plus, minus = p.ws * (1.0 + clamp), p.ws * (1.0 - clamp)
        mass_plus, mass_minus = _fsums(plus)[0], _fsums(minus)[0]
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
    return AdversaryResult(q, meta)
