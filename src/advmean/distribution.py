"""Finite atomic distributions on the real line.

Everything downstream works with probability measures supported on finitely
many points, so every integral is a finite sum and every density ratio is a
per-atom mass ratio.  This module provides the value type
(:class:`AtomicDistribution`, with its ``mean`` and ``variance`` and its
inverse-CDF sampling table, each computed once), the radial trimming
operation, the trimmed-core statistics and error bound, support alignment,
mixing, and the JSON file format used by the CLI.

Numerical conventions
---------------------
- Every sum over atoms (masses, moments, the skew's shift and totals,
  Hellinger distance) and every group sum of the estimators is ``fsum``'s
  value (``_fsums``), which rounds the exact sum once.  A symmetric
  distribution therefore has mean exactly ``0.0`` and trims symmetrically.
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
from itertools import accumulate

import numpy as np

from .errors import DomainError

MASS_TOL = 1e-12
LOAD_MASS_TOL = 1e-9

# The trimmed mass is TRIM_COEFF * log(1/delta) / n and the deviation term of
# the error bound is sigma * sqrt(ERROR_COEFF * log(1/delta) / n).
TRIM_COEFF = 0.45
ERROR_COEFF = 4.5

# Below this many terms one fsum over a list costs less than extraction rounds.
EXTRACT_MIN_TERMS = 512


def _fsums(values: np.ndarray, sizes=None, finish=math.fsum) -> list[float]:
    """``finish`` over each run of ``sizes`` terms of the float64 array
    ``values`` (one run by default): ``math.fsum``'s value bit for bit, and its
    exceptions, calling ``finish`` only where needed.

    Error-free extraction (Rump, Ogita & Oishi 2008): with sigma = 2^(e+m),
    max|x| < 2^e and 2^m >= largest group + 2, a round's q = (x + sigma) -
    sigma, x - q and group sums of q (below sigma) are exact.  Rounds run,
    sigma scaled by 2^(m-53), until no residual is left; ``finish`` rounds
    more than two round totals, or any residual left at the subnormal end.
    Below EXTRACT_MIN_TERMS terms, with a non-finite term, or when sigma would
    pass 2^1023 (the sum may overflow) or fall below 2^-1021, ``finish`` gets
    the groups whole."""
    if sizes is None:
        if values.size < EXTRACT_MIN_TERMS:
            return [finish(values.tolist())]
        sizes = [values.size]
    starts = np.array([0, *accumulate(sizes[:-1])])
    m = (max(sizes) + 1).bit_length()
    q = np.abs(values)  # then each round's extracted terms, in place
    top = float(q.max()) if values.size >= EXTRACT_MIN_TERMS else math.inf
    sigma = math.ldexp(1.0, math.frexp(top)[1] + m) if top < 2.0 ** (1023 - m) else 0.0
    parts, values = [], values.copy()  # the residual, in place
    while sigma >= 2.0**-1021:  # sigma / 2 stays normal
        np.add(values, sigma, out=q)
        q -= sigma
        values -= q
        parts.append(np.add.reduceat(q, starts))
        if not values.any():
            if len(parts) <= 2:  # one addition rounds an exact float pair
                return sum(parts).tolist()
            return [finish(total) for total in np.column_stack(parts).tolist()]
        sigma = math.ldexp(sigma, m - 53)
    groups = [values[a : a + size] for a, size in zip(starts, sizes)]
    if not parts:
        return [finish(group.tolist()) for group in groups]
    totals = np.column_stack(parts).tolist()
    return [finish(total + group[group != 0].tolist())
            for total, group in zip(totals, groups)]


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
    xs, ws = xs[order], ws[order]
    keep = np.ones(xs.size, dtype=bool)
    keep[1:] = xs[1:] != xs[:-1]
    if not keep.all():  # bincount adds each position's masses in input order
        xs, ws = xs[keep], np.bincount(keep.cumsum() - 1, weights=ws)
    xs.flags.writeable = False
    ws.flags.writeable = False
    try:
        total = _fsums(ws)[0]
    except OverflowError:
        raise DomainError(
            f"masses sum past float64 range (largest mass {float(ws.max())!r})"
        ) from None
    return xs, ws, total


def _quiet_fsum(terms) -> float:
    """``fsum`` of the array ``terms()``; float64 overflow, in ``terms()`` or
    in the sum, gives ``inf`` without a warning."""
    with np.errstate(over="ignore"):
        try:
            return _fsums(terms())[0]
        except OverflowError:
            return math.inf


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
    def mean(self) -> float:
        """First moment, exactly rounded; :class:`DomainError` on overflow."""
        mu = _quiet_fsum(lambda: self.ws * self.xs)
        if math.isinf(mu):
            raise DomainError("mean overflows float64; rescale the positions")
        return mu

    @functools.cached_property
    def variance(self) -> float:
        """Centered second moment via two passes (:attr:`mean` first, then
        deviations); ``inf`` when it overflows float64."""
        return _quiet_fsum(lambda: self.ws * (dev := self.xs - self.mean) * dev)

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
    dist = np.abs(d.xs - d.mean)
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
    mass_inside = _fsums(d.ws[inside])[0]
    mass_boundary = _fsums(d.ws[boundary])[0]
    frac = (target - mass_inside) / mass_boundary
    frac = min(max(frac, 0.0), 1.0)

    kept_fractions = np.where(inside, 1.0, np.where(boundary, frac, 0.0))
    kept = d.ws * kept_fractions
    mask = kept > 0.0
    trimmed = AtomicDistribution(d.xs[mask], kept[mask] / target)
    return TrimResult(trimmed, radius, kept_fractions, float(t))


def check_delta(delta: float) -> None:
    """Reject a failure probability outside ``0 < delta < 1``."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"failure probability must lie in (0, 1), got {delta!r}")


def check_budget(n: float, delta: float) -> None:
    """Reject a sample budget outside ``0 < n <= float64 max``, then a
    ``delta`` outside ``(0, 1)``; a larger integer ``n`` has no float64 value."""
    if not 0 < n <= sys.float_info.max:
        raise DomainError(
            f"sample count must be positive and at most {sys.float_info.max!r}, "
            f"got {n!r}"
        )
    check_delta(delta)


def _log_inv(delta: float) -> float:
    """``log(1/delta)``, or ``-log(delta)`` where ``1/delta`` overflows."""
    return math.log(1.0 / delta) if 1.0 / delta < math.inf else -math.log(delta)


def standard_trim(d: AtomicDistribution, n: float, delta: float) -> TrimResult:
    """Trim the standard mass ``TRIM_COEFF * log(1/delta) / n`` for the given
    sample budget.

    ``n`` may be any positive real; fractional values arise when the error
    bound is evaluated at a scaled-down sample count.
    """
    check_budget(n, delta)
    t = TRIM_COEFF * _log_inv(delta) / n
    if t >= 1.0:
        raise DomainError(
            f"trimmed mass {t!r} >= 1 (n={n!r}, delta={delta!r} is too aggressive)"
        )
    return trim(d, t)


@dataclass(frozen=True)
class CoreStats:
    """The error-bound quantities of ``d`` at the budget ``(n, delta)``; ``d``
    itself carries its ``mean`` and ``variance``.

    ``sigma_star`` is the standard deviation of ``d``'s trimmed ``core``, and
    ``gap = |mu - mu_star|`` with ``mu_star`` the core's mean.  ``rate`` is
    ``sqrt(ERROR_COEFF * log(1/delta) / n)``, ``threshold = sigma_star * rate``
    is the deviation term whose comparison with ``gap`` picks the
    construction branch, and ``eps = gap + threshold`` is the error bound.
    """

    core: AtomicDistribution
    sigma_star: float
    gap: float
    rate: float
    threshold: float
    eps: float


def core_stats(d: AtomicDistribution, n: float, delta: float) -> CoreStats:
    """Trim ``d`` once and derive the error bound from the moments of ``d``
    and its core; :class:`DomainError` when ``d``'s mean or variance
    overflows float64, since no bound computed from them would be meaningful."""
    if not math.isfinite(d.variance):
        raise DomainError(
            f"moments overflow float64 (mean {d.mean!r}, variance {d.variance!r}); "
            "rescale the positions"
        )
    core = standard_trim(d, n, delta).trimmed
    sigma_star = math.sqrt(core.variance)
    gap = abs(d.mean - core.mean)
    rate = math.sqrt(ERROR_COEFF * _log_inv(delta) / n)
    threshold = sigma_star * rate
    return CoreStats(core, sigma_star, gap, rate, threshold, gap + threshold)


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


def _malformed(entries: list) -> str:
    """What is wrong with an ``atoms`` list that failed to convert, in the
    order :func:`distribution_from_dict` converts it: every ``x``, every ``w``."""
    for key in ("x", "w"):
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or key not in entry:
                return (f"atom {i}: expected an object with {key!r}, "
                        f"got {reprlib.repr(entry)}")
            try:
                _numbers([entry[key]])
            except (TypeError, OverflowError):
                value = reprlib.repr(entry[key])
                return f"atom {i} field {key!r} has no float64 value: {value}"


def _numbers(values: list) -> list[float]:
    """``values`` as floats when each is a JSON number (an ``int`` or a
    ``float``, never a ``bool`` or a string); :class:`TypeError` otherwise."""
    kinds = set(map(type, values))
    if not kinds <= {int, float}:
        raise TypeError("not a JSON number")
    return values if kinds == {float} else list(map(float, values))


def distribution_from_dict(payload: dict) -> AtomicDistribution:
    entries = payload.get("atoms") if isinstance(payload, dict) else None
    if not isinstance(entries, list):
        raise DomainError(f'expected an object with an "atoms" list, got '
                          f'{reprlib.repr(payload)}')
    if not entries:
        raise DomainError("distribution file holds no atoms")
    try:
        xs = _numbers([entry["x"] for entry in entries])
        ws = _numbers([entry["w"] for entry in entries])
    except (KeyError, TypeError, OverflowError):
        # diagnosed only after a failure, so the conversion loop stays lean
        raise DomainError(_malformed(entries)) from None
    xs_arr, ws_arr, total = _prepare_atoms(xs, ws)
    if abs(total - 1.0) > LOAD_MASS_TOL:
        raise DomainError(
            f"masses sum to {total!r}, more than {LOAD_MASS_TOL} away from 1"
        )
    ws_arr = ws_arr / total
    ws_arr.flags.writeable = False
    d = object.__new__(AtomicDistribution)
    vars(d).update(xs=xs_arr, ws=ws_arr)
    return d


def distribution_json(d: AtomicDistribution, meta: dict | None = None) -> str:
    """``d``, and ``meta`` when given, as a distribution file: exactly
    ``json.dumps({"atoms": [{"x": x, "w": w}, ...], "meta": meta}, indent=2,
    sort_keys=True) + "\\n"``.  With ``indent``, ``json`` walks every atom in
    pure Python, so the atoms are written one f-string each; they are finite,
    so ``repr`` is the float form ``json`` writes."""
    atoms = ",\n".join(
        f'    {{\n      "w": {w!r},\n      "x": {x!r}\n    }}'
        for x, w in zip(d.xs.tolist(), d.ws.tolist())
    )
    text = f'{{\n  "atoms": [\n{atoms}\n  ]'
    if meta is not None:
        meta_text = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
        text += f',\n  "meta": {meta_text}'
    return text + "\n}\n"


def load_distribution(path) -> AtomicDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return distribution_from_dict(payload)
