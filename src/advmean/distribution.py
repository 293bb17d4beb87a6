"""Finite atomic distributions on the real line.

Everything downstream works with probability measures supported on finitely
many points, so every integral is a finite sum and every density ratio is a
per-atom mass ratio.  This module provides the value type
(:class:`AtomicDistribution`, with its inverse-CDF sampling table), moments,
the radial trimming operation, the trimmed-core statistics and error bound,
support alignment, mixing, and the JSON file format used by the CLI.

Numerical conventions
---------------------
- Sums of atom contributions (means, variances, kept mass) use ``math.fsum``,
  which rounds the exact sum once.  A symmetric distribution therefore has
  mean exactly ``0.0`` and trims symmetrically.
- Positions equal under ``==`` are merged at construction; no fuzzy matching
  is ever applied.
- Mass bookkeeping tolerance is 1e-12 absolute; the file loader accepts a
  1e-9 drift and renormalizes.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

MASS_TOL = 1e-12
LOAD_MASS_TOL = 1e-9

# The trimmed mass is TRIM_COEFF * log(1/delta) / n and the deviation term of
# the error bound is sigma * sqrt(ERROR_COEFF * log(1/delta) / n).
TRIM_COEFF = 0.45
ERROR_COEFF = 4.5


def _prepare_atoms(xs, ws) -> tuple[np.ndarray, np.ndarray, float]:
    """Sort positions, merge equal ones (masses add), validate positivity.

    Returns ``(xs, ws, total)`` with ``total`` the exactly rounded mass sum;
    masses whose sum has no float64 value raise :class:`DomainError`."""
    xs = np.asarray(xs, dtype=np.float64)
    ws = np.asarray(ws, dtype=np.float64)
    if xs.ndim != 1 or ws.ndim != 1 or xs.shape != ws.shape:
        raise DomainError("positions and masses must be 1-d arrays of equal length")
    if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ws)):
        raise DomainError("positions and masses must be finite")
    if np.any(ws <= 0.0):
        raise DomainError("masses must be strictly positive")
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ws = ws[order]
    if xs.size > 1:
        keep = np.empty(xs.size, dtype=bool)
        keep[0] = True
        np.not_equal(xs[1:], xs[:-1], out=keep[1:])
        if not keep.all():
            idx = np.cumsum(keep) - 1
            merged = np.zeros(int(idx[-1]) + 1)
            np.add.at(merged, idx, ws)
            xs = xs[keep]
            ws = merged
    xs.flags.writeable = False
    ws.flags.writeable = False
    try:
        total = math.fsum(ws.tolist())
    except OverflowError:
        raise DomainError(
            f"masses sum past float64 range (largest mass {float(ws.max())!r})"
        ) from None
    return xs, ws, total


@dataclass(frozen=True, eq=False)
class AtomicDistribution:
    """A probability measure on finitely many points.

    ``xs`` are strictly increasing positions, ``ws`` the matching masses;
    masses are strictly positive and sum to 1 within 1e-12.
    """

    xs: np.ndarray
    ws: np.ndarray

    def __init__(self, xs, ws):
        xs, ws, total = _prepare_atoms(xs, ws)
        if xs.size == 0:
            raise DomainError("a distribution needs at least one atom")
        if abs(total - 1.0) > MASS_TOL:
            raise DomainError(f"masses sum to {total!r}, expected 1 within {MASS_TOL}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ws", ws)

    @functools.cached_property
    def _guide_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(cum, start, crowded)`` for :meth:`_inverse_cdf`, built once.
        ``cum[-1]`` is exactly 1.0, so no uniform falls past the last atom.
        Of ``G = start.size`` equal buckets (a power of two, about two per
        atom, at most 2^16), bucket ``b`` starts at atom ``start[b]`` and is
        crowded when it holds two or more ``cum`` values (``None``: none is)."""
        cum = np.cumsum(self.ws)
        cum[-1] = 1.0
        buckets = 1 << min(16, (2 * cum.size - 1).bit_length())
        edges = np.arange(buckets + 1) / buckets
        start = np.searchsorted(cum, edges[:-1], side="right")
        crowded = np.searchsorted(cum, edges[1:], side="left") - start > 1
        cum.flags.writeable = start.flags.writeable = crowded.flags.writeable = False
        return cum, start, crowded if crowded.any() else None

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """The atoms of uniforms ``u`` in [0, 1): ``searchsorted(cum, u,
        side="right")``, index for index.  ``u * G`` is exact, and outside
        crowded buckets one comparison picks ``start[b]`` or the next atom."""
        cum, start, crowded = self._guide_table
        bucket = (u * start.size).astype(np.intp)
        idx = start[bucket]
        idx += cum[idx] <= u
        if crowded is not None:
            hard = np.flatnonzero(crowded[bucket])
            if hard.size:
                idx[hard] = np.searchsorted(cum, u[hard], side="right")
        return idx

    @property
    def num_atoms(self) -> int:
        return int(self.xs.size)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(x), float(w)) for x, w in zip(self.xs, self.ws)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicDistribution):
            return NotImplemented
        return np.array_equal(self.xs, other.xs) and np.array_equal(self.ws, other.ws)

    def __repr__(self) -> str:
        return f"AtomicDistribution({self.atoms!r})"


@dataclass(frozen=True)
class TrimResult:
    """Outcome of radial trimming.

    ``kept_fractions`` is aligned with the source atoms: 1 strictly inside
    the radius, 0 strictly outside, and a common fraction in [0, 1] on the
    (at most two) boundary atoms so the kept mass is exactly ``1 - t``.
    """

    trimmed: AtomicDistribution
    radius: float
    kept_fractions: np.ndarray
    trimmed_mass: float


def mean(d: AtomicDistribution) -> float:
    """First moment, exactly rounded."""
    return math.fsum((d.ws * d.xs).tolist())


def variance(d: AtomicDistribution) -> float:
    """Centered second moment via two passes (mean first, then deviations)."""
    mu = mean(d)
    dev = d.xs - mu
    return math.fsum((d.ws * dev * dev).tolist())


def std(d: AtomicDistribution) -> float:
    return math.sqrt(max(variance(d), 0.0))


def trim(d: AtomicDistribution, t: float) -> TrimResult:
    """Condition ``d`` on the smallest symmetric interval around its mean
    holding at least ``1 - t`` mass.

    The radius is the smallest atom distance whose cumulative mass reaches
    ``1 - t``; atoms at exactly that distance are kept with one common
    fraction chosen so the kept mass equals ``1 - t``, and the result is
    renormalized to unit mass.  ``t == 0`` returns the input unchanged.
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"trim fraction must lie in [0, 1), got {t!r}")
    mu = mean(d)
    dist = np.abs(d.xs - mu)
    if t == 0.0:
        return TrimResult(
            trimmed=d,
            radius=float(dist.max()),
            kept_fractions=np.ones(d.num_atoms),
            trimmed_mass=0.0,
        )
    target = 1.0 - t
    order = np.argsort(dist, kind="stable")
    cum = np.cumsum(d.ws[order])
    k = int(np.searchsorted(cum, target, side="left"))
    k = min(k, d.num_atoms - 1)  # guard against cum[-1] rounding below 1
    radius = float(dist[order[k]])

    inside = dist < radius
    boundary = dist == radius
    mass_inside = math.fsum(d.ws[inside].tolist())
    mass_boundary = math.fsum(d.ws[boundary].tolist())
    frac = (target - mass_inside) / mass_boundary
    frac = min(max(frac, 0.0), 1.0)

    kept_fractions = np.where(inside, 1.0, np.where(boundary, frac, 0.0))
    kept = d.ws * kept_fractions
    mask = kept > 0.0
    trimmed = AtomicDistribution(d.xs[mask], kept[mask] / target)
    return TrimResult(trimmed, radius, kept_fractions, float(t))


def check_budget(n: float, delta: float) -> None:
    """Reject a sample budget outside ``0 < n <= float64 max``,
    ``0 < delta < 1``; a larger integer ``n`` has no float64 value."""
    if not 0 < n <= sys.float_info.max:
        raise DomainError(
            f"sample count must be positive and at most {sys.float_info.max!r}, "
            f"got {n!r}"
        )
    if not 0.0 < delta < 1.0:
        raise DomainError(f"failure probability must lie in (0, 1), got {delta!r}")


def standard_trim(d: AtomicDistribution, n: float, delta: float) -> TrimResult:
    """Trim the standard mass ``TRIM_COEFF * log(1/delta) / n`` for the given
    sample budget.

    ``n`` may be any positive real; fractional values arise when the error
    bound is evaluated at a scaled-down sample count.
    """
    check_budget(n, delta)
    t = TRIM_COEFF * math.log(1.0 / delta) / n
    if t >= 1.0:
        raise DomainError(
            f"trimmed mass {t!r} >= 1 (n={n!r}, delta={delta!r} is too aggressive)"
        )
    return trim(d, t)


@dataclass(frozen=True)
class CoreStats:
    """The error-bound quantities of ``d`` at the budget ``(n, delta)``.

    ``mu`` and ``var`` are ``d``'s moments, ``sigma_star`` the standard
    deviation of its trimmed ``core``, and ``gap = |mu - mu_star|`` with
    ``mu_star`` the core's mean.  ``rate`` is
    ``sqrt(ERROR_COEFF * log(1/delta) / n)``, ``threshold = sigma_star * rate``
    is the deviation term whose comparison with ``gap`` picks the
    construction branch, and ``eps = gap + threshold`` is the error bound.
    """

    core: AtomicDistribution
    mu: float
    var: float
    sigma_star: float
    gap: float
    rate: float
    threshold: float
    eps: float


def core_stats(d: AtomicDistribution, n: float, delta: float) -> CoreStats:
    """Trim ``d`` once and derive every quantity of the error bound from it.

    Raises :class:`DomainError` when ``d``'s mean or variance overflows
    float64, since no bound computed from them would be meaningful.
    """
    mu = mean(d)
    with np.errstate(over="ignore"):
        var = variance(d)
    if not (math.isfinite(mu) and math.isfinite(var)):
        raise DomainError(
            f"moments overflow float64 (mean {mu!r}, variance {var!r}); "
            "rescale the positions"
        )
    core = standard_trim(d, n, delta).trimmed
    sigma_star = std(core)
    gap = abs(mu - mean(core))
    rate = math.sqrt(ERROR_COEFF * math.log(1.0 / delta) / n)
    threshold = sigma_star * rate
    return CoreStats(core, mu, var, sigma_star, gap, rate, threshold, gap + threshold)


def epsilon(d: AtomicDistribution, n: float, delta: float) -> float:
    """Instance error bound: mean gap to the trimmed core plus its scaled
    deviation term, ``|mu - mu*| + sigma* * sqrt(ERROR_COEFF * log(1/delta) / n)``.
    """
    return core_stats(d, n, delta).eps


def align(
    p: AtomicDistribution, q: AtomicDistribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both measures' masses on the sorted union of their supports.

    Returns ``(xs, wp, wq)``; a measure with no atom at ``xs[i]`` has mass 0
    there.  Positions match only when equal under ``==``.
    """
    xs = np.union1d(p.xs, q.xs)
    wp = np.zeros(xs.size)
    wq = np.zeros(xs.size)
    wp[np.searchsorted(xs, p.xs)] = p.ws
    wq[np.searchsorted(xs, q.xs)] = q.ws
    return xs, wp, wq


def mixture(
    d1: AtomicDistribution, d2: AtomicDistribution, lam: float
) -> AtomicDistribution:
    """Convex combination ``lam * d1 + (1 - lam) * d2`` on the union support.

    Endpoints short-circuit to the inputs, and shared positions interpolate
    as ``w2 + lam * (w1 - w2)`` so mixing a distribution with itself returns
    it bitwise.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"mixture weight must lie in [0, 1], got {lam!r}")
    if lam == 0.0:
        return d2
    if lam == 1.0:
        return d1
    xs, w1, w2 = align(d1, d2)
    return AtomicDistribution(xs, w2 + lam * (w1 - w2))


# ---------------------------------------------------------------------------
# File format: {"atoms": [{"x": number, "w": number}, ...]}.  Atoms need not
# be sorted on disk; the loader sorts, merges exact duplicates, accepts a
# 1e-9 drift in the mass sum, and renormalizes.
# ---------------------------------------------------------------------------


def _unconvertible(entries) -> tuple[str, object]:
    """The first atom field, as ``(key, value)``, that ``float`` rejects, in
    the order :func:`distribution_from_dict` converts them."""
    for key in ("x", "w"):
        for entry in entries:
            try:
                float(entry[key])
            except (ValueError, OverflowError):
                return key, entry[key]


def distribution_from_dict(payload: dict) -> AtomicDistribution:
    try:
        entries = payload["atoms"]
        xs = [float(entry["x"]) for entry in entries]
        ws = [float(entry["w"]) for entry in entries]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed distribution payload: {exc}") from exc
    except (ValueError, OverflowError):
        # searched for only after a failure, so the conversion loop stays lean
        key, value = _unconvertible(entries)
        raise DomainError(
            f"atom field {key!r} has no float64 value: {reprlib.repr(value)}"
        ) from None
    if not xs:
        raise DomainError("distribution file holds no atoms")
    xs_arr, ws_arr, total = _prepare_atoms(xs, ws)
    if abs(total - 1.0) > LOAD_MASS_TOL:
        raise DomainError(
            f"masses sum to {total!r}, more than {LOAD_MASS_TOL} away from 1"
        )
    return AtomicDistribution(xs_arr, ws_arr / total)


def distribution_to_dict(d: AtomicDistribution) -> dict:
    return {"atoms": [{"x": x, "w": w} for x, w in zip(d.xs.tolist(), d.ws.tolist())]}


def load_distribution(path) -> AtomicDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return distribution_from_dict(payload)
