import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from advmean import AtomicDistribution, construct_q, density_ratio, hellinger_sq
from advmean.harness import verify_pair

from conftest import atomic_distributions
from oracles import bhattacharyya, skew_masses


def merged_masses(p, q):
    """Reference support alignment: a two-pointer merge of the sorted
    supports, yielding (p-mass, q-mass) per union position."""
    i = j = 0
    while i < p.xs.size and j < q.xs.size:
        if p.xs[i] == q.xs[j]:
            yield float(p.ws[i]), float(q.ws[j])
            i, j = i + 1, j + 1
        elif p.xs[i] < q.xs[j]:
            yield float(p.ws[i]), 0.0
            i += 1
        else:
            yield 0.0, float(q.ws[j])
            j += 1
    yield from ((float(w), 0.0) for w in p.ws[i:])
    yield from ((0.0, float(w)) for w in q.ws[j:])


@given(atomic_distributions(), atomic_distributions())
@settings(max_examples=200)
def test_aligned_paths_match_merge_reference(p, q):
    pairs = list(merged_masses(p, q))
    diffs = [math.sqrt(a) - math.sqrt(b) for a, b in pairs]
    h_ref = 0.5 * math.fsum(d * d for d in diffs)
    bc_ref = math.fsum(math.sqrt(a * b) for a, b in pairs if a and b)
    assert hellinger_sq(p, q) == h_ref
    assert bhattacharyya(p, q) == bc_ref
    if all(a for a, _ in pairs):
        assert density_ratio(q, p) == max(b / a for a, b in pairs)
    else:
        assert density_ratio(q, p) == math.inf


class TestHellinger:
    def test_identical(self, two_point):
        assert hellinger_sq(two_point, two_point) == 0.0

    def test_squares_correctly_rounded(self):
        # glibc's pow rounds the first difference's square away from the exact one.
        p = AtomicDistribution([0.0, 1.0], [0.2009640299899489, 0.7990359700100511])
        q = AtomicDistribution([0.0, 1.0], [0.0848112958859929, 0.9151887041140071])
        diffs = [math.sqrt(a) - math.sqrt(b) for a, b in zip(p.ws.tolist(), q.ws.tolist())]
        exact = 0.5 * math.fsum(float(Fraction(d) ** 2) for d in diffs)
        assert exact == 0.014304753569994878
        assert hellinger_sq(p, q) == exact

    def test_disjoint_point_masses(self):
        p = AtomicDistribution([0.0], [1.0])
        q = AtomicDistribution([1.0], [1.0])
        assert hellinger_sq(p, q) == 1.0

    def test_closed_form(self):
        p = AtomicDistribution([0.0, 1.0], [0.5, 0.5])
        q = AtomicDistribution([0.0], [1.0])
        # 0.5 * ((sqrt(0.5) - 1)^2 + 0.5) = 1 - sqrt(1/2)
        assert hellinger_sq(p, q) == pytest.approx(1.0 - math.sqrt(0.5), rel=1e-15)

    @given(atomic_distributions(), atomic_distributions())
    @settings(max_examples=200)
    def test_symmetry_and_range(self, p, q):
        h = hellinger_sq(p, q)
        assert h == hellinger_sq(q, p)
        assert 0.0 <= h <= 1.0 + 1e-15

    @given(atomic_distributions(), atomic_distributions())
    @settings(max_examples=200)
    def test_bhattacharyya_complement(self, p, q):
        assert bhattacharyya(p, q) + hellinger_sq(p, q) == pytest.approx(
            1.0, abs=1e-12
        )


class TestBhattacharyya:
    def test_identical(self, two_point):
        assert bhattacharyya(two_point, two_point) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint(self):
        p = AtomicDistribution([0.0], [1.0])
        q = AtomicDistribution([1.0], [1.0])
        assert bhattacharyya(p, q) == 0.0

    def test_closed_form(self):
        p = AtomicDistribution([0.0, 1.0], [0.5, 0.5])
        q = AtomicDistribution([0.0], [1.0])
        assert bhattacharyya(p, q) == pytest.approx(math.sqrt(0.5), rel=1e-15)


class TestIndistinguishable:
    """The ``hellinger_closeness`` condition ``log(1 - H^2) >= log(4 delta)
    / (2n)`` of an explicit pair."""

    @staticmethod
    def closeness(p, q, n, delta):
        by_name = {c["name"]: c for c in verify_pair(p, q, n, delta)["conditions"]}
        return by_name["hellinger_closeness"]

    def test_identical_distributions(self, two_point):
        cond = self.closeness(two_point, two_point, 1000, 0.05)
        assert cond["measured"] == 0.0
        assert cond["bound"] < 0.0
        assert cond["pass"]

    def test_case1_worked_example(self, asym_two_point):
        q = AtomicDistribution([0.0, 1000.0], [0.99925, 0.00075])
        cond = self.closeness(asym_two_point, q, 1000, 0.05)
        closed_form = 0.5 * (
            (math.sqrt(0.999) - math.sqrt(0.99925)) ** 2
            + (math.sqrt(0.001) - math.sqrt(0.00075)) ** 2
        )
        assert cond["measured"] == pytest.approx(math.log1p(-closed_form), rel=1e-9)
        assert cond["bound"] == pytest.approx(math.log(0.2) / 2000, rel=1e-8)
        assert cond["pass"]

    def test_perfectly_distinguishable(self):
        # p has two atoms: a point-mass p gets the degenerate report instead
        p = AtomicDistribution([0.0, 1.0], [0.5, 0.5])
        q = AtomicDistribution([2.0, 3.0], [0.5, 0.5])
        cond = self.closeness(p, q, 1000, 0.05)
        assert cond["measured"] == float("-inf")
        assert not cond["pass"]


def extended_hellinger_sq(wp, wm):
    """``0.5 * sum((sqrt(p_i) - sqrt(m_i))^2)`` for masses on a common
    support; ``m`` may have any total mass, so the value may exceed 1."""
    diffs = np.sqrt(np.asarray(wp)) - np.sqrt(np.asarray(wm))
    return 0.5 * math.fsum((diffs * diffs).tolist())


class TestScaledMeasureMonotonicity:
    """Shrinking a super-unit measure toward unit mass can only reduce its
    distance to a fixed distribution."""

    @given(atomic_distributions(min_atoms=2), st.integers(min_value=1, max_value=9))
    @settings(max_examples=150)
    def test_downscaling_reduces_distance(self, p, tenths):
        a = 0.5  # strong skew so the measures genuinely leave unit mass
        plus, minus = (np.array(side) for side in skew_masses(p, a))
        heavy = plus if math.fsum(plus) >= math.fsum(minus) else minus
        total = math.fsum(heavy)
        if total <= 1.0:
            return  # perfectly balanced; nothing to scale
        b = 1.0 / total
        partial = b + (1.0 - b) * tenths / 10.0  # a factor between b and 1
        distance = extended_hellinger_sq(p.ws, heavy)
        assert distance >= extended_hellinger_sq(p.ws, heavy * partial) - 1e-12
        assert distance >= extended_hellinger_sq(p.ws, heavy * b) - 1e-12

    def test_case2_construction_linearization(self, two_point):
        res = construct_q(two_point, 1000, 0.05)
        a = res.meta["a"]
        bound = 0.5 * math.fsum(
            min(1.0, (a * x) ** 2) * w for x, w in two_point.atoms
        )
        assert res.meta["diagnostics"]["hellinger_sq"] <= bound + 1e-12
