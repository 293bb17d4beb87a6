"""The benchmark corpus: six distributions spanning both construction cases
and both tail regimes (finite and effectively infinite parent variance).

Builders are closed-form and deterministic; ``advmean gen`` writes any
member as a JSON file.  Symmetric members are built from mirrored offsets so
their means are exactly zero.
"""

from __future__ import annotations

import math

from .distribution import AtomicDistribution
from .errors import DomainError


def _symmetric_gaussian_grid(half_points: int, span: float) -> tuple[list, list]:
    """Mirrored pdf-weighted grid with ``2 * half_points + 1`` atoms."""
    step = span / half_points
    offsets = [step * i for i in range(1, half_points + 1)]
    xs = [-o for o in reversed(offsets)] + [0.0] + offsets
    half_ws = [math.exp(-0.5 * o * o) for o in offsets]
    ws = list(reversed(half_ws)) + [1.0] + half_ws
    return xs, ws


def two_point_symmetric() -> AtomicDistribution:
    """Unit-variance fair coin on {-1, +1}."""
    return AtomicDistribution([-1.0, 1.0], [0.5, 0.5])


def two_point_asymmetric() -> AtomicDistribution:
    """A 0.1% outlier at 1000; triggers the large-mean-gap branch at
    moderate sample budgets."""
    return AtomicDistribution([0.0, 1000.0], [0.999, 0.001])


def gaussian_grid() -> AtomicDistribution:
    """201-atom pdf-weighted grid of the standard normal on [-5, 5]."""
    xs, ws = _symmetric_gaussian_grid(100, 5.0)
    total = math.fsum(ws)
    return AtomicDistribution(xs, [w / total for w in ws])


def _discretized_pareto(alpha: float, n_atoms: int) -> AtomicDistribution:
    """Equal-mass binning of the Pareto law with scale 1 and the given tail
    index; each atom sits at its bin's conditional mean, so the overall mean
    ``alpha / (alpha - 1)`` is preserved."""
    coeff = alpha / (alpha - 1.0)
    xs = []
    for i in range(n_atoms):
        u_lo = i / n_atoms
        u_hi = (i + 1) / n_atoms
        # bin edges in x-space: (1 - u) ** (-1/alpha)
        lo_pow = (1.0 - u_lo) ** (1.0 - 1.0 / alpha)  # x_lo ** (1 - alpha)
        hi_pow = 0.0 if u_hi >= 1.0 else (1.0 - u_hi) ** (1.0 - 1.0 / alpha)
        xs.append(n_atoms * coeff * (lo_pow - hi_pow))
    return AtomicDistribution(xs, [1.0 / n_atoms] * n_atoms)


def pareto_15() -> AtomicDistribution:
    """200-atom discretized Pareto, tail index 1.5 (finite mean, parent
    variance infinite)."""
    return _discretized_pareto(1.5, 200)


def pareto_25() -> AtomicDistribution:
    """200-atom discretized Pareto, tail index 2.5 (finite parent variance)."""
    return _discretized_pareto(2.5, 200)


def contaminated_gaussian() -> AtomicDistribution:
    """49-atom standard-normal grid on [-4, 4] holding 99% of the mass, plus
    a 1% contaminant at 50."""
    xs, ws = _symmetric_gaussian_grid(24, 4.0)
    total = math.fsum(ws)
    atoms_x = xs + [50.0]
    atoms_w = [0.99 * w / total for w in ws] + [0.01]
    return AtomicDistribution(atoms_x, atoms_w)


BUILDERS = {
    "two_point_symmetric": two_point_symmetric,
    "two_point_asymmetric": two_point_asymmetric,
    "gaussian_grid": gaussian_grid,
    "pareto_15": pareto_15,
    "pareto_25": pareto_25,
    "contaminated_gaussian": contaminated_gaussian,
}


def names() -> list[str]:
    return list(BUILDERS)


def build(name: str) -> AtomicDistribution:
    try:
        return BUILDERS[name]()
    except KeyError:
        raise DomainError(
            f"unknown corpus member {name!r}; choose from {sorted(BUILDERS)}"
        ) from None


def all_members() -> dict[str, AtomicDistribution]:
    return {name: build(name) for name in BUILDERS}
