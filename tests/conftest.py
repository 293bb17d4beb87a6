"""Shared strategies and fixtures.

Most generated distributions use grid positions (quarter-integers) and
rational masses so that near-tie pathologies of adversarial floats stay out
of the property tests; the invariants under test are about measure
arithmetic, not about resolving sub-ulp distance ties.  Only
``adversarial_distributions``, for the float error bounds checked against
the exact oracles, draws arbitrary finite floats.
"""

import math
import random
import sys

import hypothesis.strategies as st
import pytest

from advmean import AtomicDistribution


@st.composite
def atomic_distributions(draw, min_atoms=1, max_atoms=10, span=50):
    n = draw(st.integers(min_value=min_atoms, max_value=max_atoms))
    grid = st.integers(min_value=-4 * span, max_value=4 * span)
    positions = draw(
        st.lists(grid, min_size=n, max_size=n, unique=True).map(sorted)
    )
    masses = draw(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=n, max_size=n)
    )
    total = sum(masses)
    return AtomicDistribution(
        [0.25 * x for x in positions], [m / total for m in masses]
    )


@st.composite
def symmetric_distributions(draw, max_half_atoms=5, span=50):
    k = draw(st.integers(min_value=1, max_value=max_half_atoms))
    offsets = draw(
        st.lists(
            st.integers(min_value=1, max_value=4 * span),
            min_size=k,
            max_size=k,
            unique=True,
        ).map(sorted)
    )
    masses = draw(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=k, max_size=k)
    )
    center_mass = draw(st.integers(min_value=0, max_value=1000))
    total = 2 * sum(masses) + center_mass
    xs = [-0.25 * o for o in reversed(offsets)]
    ws = [m / total for m in reversed(masses)]
    if center_mass:
        xs.append(0.0)
        ws.append(center_mass / total)
    xs.extend(0.25 * o for o in offsets)
    ws.extend(m / total for m in masses)
    return AtomicDistribution(xs, ws)


@st.composite
def segment_distributions(draw):
    """A core from ``symmetric_distributions`` (an atom at the mean and tied
    ``|d|`` among them) or ``atomic_distributions``, plus far outliers of tiny
    mass (a pair at the core's mean -+ R, or one atom on either side), all
    scaled by 2^k.  At n = 1000, delta = 0.05 trimming removes the outliers,
    while the skew target, about 0.0068 sigma, needs a slope that clamps them:
    R is 400 to 20000 sigma and each outlier's mass at most a fifth of
    0.0068 / (R / sigma), so most examples take the skew solve's segment path."""
    core = draw(symmetric_distributions() | atomic_distributions(min_atoms=2))
    reach = draw(st.floats(400.0, 20_000.0))
    mass = draw(st.floats(1e-3, 0.2)) * 0.0068 / reach
    sides = draw(st.sampled_from([(-1.0, 1.0), (1.0,), (-1.0,)]))
    spread = reach * math.sqrt(core.variance)
    xs = core.xs.tolist() + [core.mean + side * spread for side in sides]
    ws = (core.ws * (1.0 - len(sides) * mass)).tolist() + [mass] * len(sides)
    scale = 2.0 ** draw(st.integers(-400, 400))
    return AtomicDistribution([x * scale for x in xs], ws)


FLOAT_MAX = sys.float_info.max
EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
               math.nextafter(FLOAT_MAX, 0.0), FLOAT_MAX]


@st.composite
def adversarial_distributions(draw, max_atoms=8):
    """Finite positions at adversarial scales, in one of three modes: any
    finite float or edge value (subnormals and +-1.8e308 among them); one
    binary exponent in [-1074, 1024] shared by every atom, so that instances
    near overflow or underflow keep a finite variance often enough to check
    it; or every atom on one of the two largest floats, where the mean
    overflows once the masses sum past 1.  Masses are drawn from [1e-300, 1]
    and scaled to unit sum."""
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    mode = draw(st.sampled_from(["any", "shared_exponent", "top"]))
    if mode == "any":
        edge = st.sampled_from(EDGE_FLOATS + [-x for x in EDGE_FLOATS])
        position = st.one_of(st.floats(allow_nan=False, allow_infinity=False), edge)
    elif mode == "shared_exponent":
        e = draw(st.integers(min_value=-1074, max_value=1024))
        mantissa = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
        position = mantissa.map(lambda m: math.ldexp(m, e))
    else:
        position = st.sampled_from(EDGE_FLOATS[-2:])
    xs = draw(st.lists(position, min_size=n, max_size=n))
    masses = draw(
        st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=n, max_size=n)
    )
    total = math.fsum(masses)
    return AtomicDistribution(xs, [m / total for m in masses])


def jittered_gaussian_grid(
    atoms: int, seed: int = 0, mass: float = 1.0
) -> tuple[list[float], list[float]]:
    """Positions on a jittered grid over [-6, 6] and N(0, 1) masses summing to
    ``mass``; the tails put many atoms of tiny mass into one guide bucket."""
    rng = random.Random(seed)
    step = 12.0 / (atoms - 1)
    xs = [-6.0 + step * (i + rng.uniform(-0.25, 0.25)) for i in range(atoms)]
    ws = [math.exp(-0.5 * x * x) for x in xs]
    total = math.fsum(ws)
    return xs, [mass * w / total for w in ws]


def wide_member(seed: int = 0, atoms: int = 10_001) -> dict:
    """A jittered N(0, 1) grid on [-6, 6] holding 99.9% of the mass, plus an
    outlier at 1000 holding 0.1%, as a ``{"atoms": [...]}`` payload."""
    xs, ws = jittered_gaussian_grid(atoms, seed, mass=0.999)
    atoms_list = [{"x": x, "w": w} for x, w in zip(xs, ws)]
    return {"atoms": atoms_list + [{"x": 1000.0, "w": 0.001}]}


@pytest.fixture
def two_point():
    return AtomicDistribution([-1.0, 1.0], [0.5, 0.5])


@pytest.fixture
def asym_two_point():
    return AtomicDistribution([0.0, 1000.0], [0.999, 0.001])


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(modules, name)`` records the arguments of every call of
    the function ``name``, as each of ``modules`` binds it, and returns the
    list of them."""

    def install(modules, name) -> list:
        calls = []
        real = getattr(modules[0], name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
        return calls

    return install
