import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from advmean import (
    AtomicDistribution,
    DegenerateError,
    construct_q,
    density_ratio,
    standard_trim,
)
from advmean import adversary, corpus
from advmean.adversary import _skew_slope

from conftest import atomic_distributions, segment_distributions, symmetric_distributions
from oracles import (
    affine,
    mean_shift,
    skew_line_root,
    skew_masses,
    skew_partner,
    skew_shift_exact,
    skew_slope_exact,
)

N, DELTA = 1000, 0.05
LOG_TERM = math.log(20.0)
ULP = 2.0**-53  # the unit roundoff


def shift_tolerance(d):
    """Relative bound on ``mean_shift(d, a) - target`` at the solved slope.

    Every term of the shift is nonnegative, so nothing cancels.  The slope is
    within 6 roundings of the exact slope for a target within ``3 m + 13``
    roundings (``_skew_slope``); the shift, concave through 0, moves by at
    most the slope's relative error; its terms and their sum add 4."""
    return (3 * d.num_atoms + 23) * ULP


def skew_target(d):
    """The skew's target at ``(N, DELTA)``, as :func:`construct_q` computes it."""
    core = standard_trim(d, N, DELTA).trimmed
    sigma_star = math.sqrt(core.variance)
    return adversary.MEAN_SHIFT_TARGET_COEFF * sigma_star * math.sqrt(LOG_TERM / N)


def slope_within_rounding(dev, ws, target, slope):
    """Whether ``slope`` is within 6 roundings of the exact slopes for
    ``target`` scaled by ``1 -+ (3 m + 13) 2^-53``, ``m`` the atoms off the
    mean: the bound :func:`_skew_slope` derives."""
    kappa = (3 * int(np.count_nonzero(dev)) + 13) * Fraction(ULP)
    lo = skew_slope_exact(dev, ws, Fraction(target) * (1 - kappa))
    hi = skew_slope_exact(dev, ws, Fraction(target) * (1 + kappa))
    if math.isinf(slope):
        return hi is None
    six = 6 * Fraction(ULP)
    return lo is not None and lo * (1 - six) <= slope and (hi is None or slope <= hi * (1 + six))


class TestMeanShift:
    def test_vanishes_at_small_slope(self, two_point):
        assert mean_shift(two_point, 1e-300) <= 1e-299

    def test_linear_regime(self, two_point):
        # 1/a = 2 > 1, so no atom is clamped and the shift is a * E[x^2]
        assert mean_shift(two_point, 0.5) == pytest.approx(0.5, rel=1e-15)

    def test_saturated_regime(self, two_point):
        assert mean_shift(two_point, 3.0) == pytest.approx(1.0, rel=1e-15)

    @given(atomic_distributions(min_atoms=2))
    @settings(max_examples=150)
    def test_nondecreasing_in_slope(self, d):
        grid = np.geomspace(1e-6, 10.0, 25)
        values = [mean_shift(d, float(a)) for a in grid]
        assert all(lo <= hi + 1e-15 for lo, hi in zip(values, values[1:]))


class TestSolveSkew:
    """The skew slope solved inside :func:`construct_q`."""

    def test_two_point_closed_form(self, two_point):
        a = construct_q(two_point, N, DELTA).meta["a"]
        assert a == pytest.approx((1 / 8) * math.sqrt(LOG_TERM / N), abs=1e-10)

    def test_larger_budget_closed_form(self, two_point):
        a = construct_q(two_point, 10**4, DELTA).meta["a"]
        assert a == pytest.approx((1 / 8) * math.sqrt(LOG_TERM / 10**4), abs=1e-10)

    def test_residual_identity(self, two_point):
        a = construct_q(two_point, N, DELTA).meta["a"]
        target = skew_target(two_point)
        assert mean_shift(two_point, a) == pytest.approx(target, rel=shift_tolerance(two_point))

    def test_rejects_dominant_mean_gap(self, asym_two_point):
        res = construct_q(asym_two_point, N, DELTA)
        assert res.meta["case"] == "large_mean_shift"
        assert res.meta["a"] is None

    def test_degenerate_core(self):
        d = AtomicDistribution([-1.0, 0.0, 1.0], [0.0005, 0.999, 0.0005])
        with pytest.raises(DegenerateError):
            construct_q(d, N, DELTA)

    def test_saturated_bracket(self, monkeypatch):
        # At n = L / ratio each p's trimmed core is {-1, 1}, so sigma_star = 1,
        # the cap a_hi is sqrt(ratio) and the target coeff * sqrt(ratio).
        dyadic = AtomicDistribution([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0],
                                    [1 / 16, 1 / 8, 5 / 16, 5 / 16, 1 / 8, 1 / 16])
        outliers = AtomicDistribution([-64.0, -1.0, 1.0, 64.0],
                                      [1 / 2048, 1023 / 2048, 1023 / 2048, 1 / 2048])
        cases = [
            # The shift reaches only sum w |d| = 1, short of 2: the cap 0.5.
            (AtomicDistribution([-1.0, 1.0], [0.5, 0.5]), 0.25, 4.0, math.inf, 0.5, True),
            # Every atom clamped (k = 0) shifts 1.625, short of 2.
            (dyadic, 1.0, 2.0, math.inf, 1.0, True),
            # 1.3125 is the shift at the break a = 1/2, past which +-2 clamp.
            (dyadic, 1.0, 1.3125, 0.5, 0.5, False),
            # On (1/64, 1] the shift 1/16 + a 1023/1024 is 0.75 past the cap.
            (outliers, 0.25, 1.5, 704 / 1023, 0.5, True),
        ]
        for p, ratio, coeff, slope, a, saturated in cases:
            monkeypatch.setattr(adversary, "MEAN_SHIFT_TARGET_COEFF", coeff)
            target = coeff * math.sqrt(ratio)
            assert _skew_slope(p.xs - p.mean, p.ws, p.variance, target) == slope
            meta = construct_q(p, LOG_TERM / ratio, DELTA).meta
            assert (meta["a"], meta["saturated"]) == (a, saturated)

    @given(atomic_distributions(min_atoms=2))
    @settings(max_examples=100)
    def test_residual_on_random_inputs(self, d):
        core = standard_trim(d, N, DELTA).trimmed
        sigma_star = math.sqrt(core.variance)
        gap = abs(d.mean - core.mean)
        assume(sigma_star > 0.0)
        assume(gap <= sigma_star * math.sqrt(4.5 * LOG_TERM / N))
        a = construct_q(d, N, DELTA).meta["a"]
        assert 0.0 < a <= math.sqrt(LOG_TERM / N) / sigma_star * (1 + 1e-12)
        target = (1 / 8) * sigma_star * math.sqrt(LOG_TERM / N)
        assert mean_shift(d, a) == pytest.approx(target, rel=shift_tolerance(d))

    @given(segment_distributions(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_slope_within_rounding_of_exact(self, d, data):
        """The solved slope against the exact one, at the construction's
        target and at targets on a break (tied and zero ``|d|`` among them)."""
        dev = d.xs - d.mean
        target = skew_target(d)
        slope = _skew_slope(dev, d.ws, d.variance, target)
        meta = construct_q(d, N, DELTA).meta
        assume(meta["case"] == "small_mean_shift")
        assert (meta["a"], meta["saturated"]) == (slope, False)
        assert slope_within_rounding(dev, d.ws, target, slope)
        assert mean_shift(d, slope) == pytest.approx(target, rel=shift_tolerance(d))
        size = data.draw(st.sampled_from(np.abs(dev[dev != 0.0]).tolist()))
        at_break = float(skew_shift_exact(dev, d.ws, 1 / Fraction(size)))
        target = math.nextafter(at_break, data.draw(st.sampled_from([0.0, at_break, math.inf])))
        slope = _skew_slope(dev, d.ws, d.variance, target)
        assert slope_within_rounding(dev, d.ws, target, slope)

    def test_target_at_break_beside_atom_near_mean(self):
        # The target is the float shift at the break a = 2/3, past which the
        # atom at -1.5 clamps and only the atom 2^-28 from the mean is not, so
        # the shift is all but flat there.  A count of breaks that rounded to
        # one too few solved that flat line and returned a slope of 0.
        dev = np.array([2.0**-28, 3.75, 1.75, -1.5])
        ws = np.array([2, 12, 6, 13]) / 33
        target = float.fromhex("0x1.22e8ba2e8ba2fp+1")
        slope = _skew_slope(dev, ws, math.fsum((ws * dev * dev).tolist()), target)
        assert slope_within_rounding(dev, ws, target, slope)

    def test_segment_distributions_take_segment_path(self):
        taken = []

        @given(segment_distributions())
        @settings(max_examples=200, database=None, deadline=None)
        def record(d):  # target / variance clamps the farthest atom
            far = np.abs(d.xs - d.mean).max()
            taken.append(skew_target(d) / d.variance * far > 1.0)

        record()
        assert sum(taken) >= 0.9 * len(taken)

    @pytest.mark.parametrize("step", [1, -1])
    def test_rejects_neighbouring_segment(self, step):
        """The exact slope check fails a solver whose only fault is to solve
        the line with ``step`` more atoms unclamped than the exact slope has."""

        def neighbour_fails(d):
            dev, target = d.xs - d.mean, skew_target(d)
            exact = skew_slope_exact(dev, d.ws, target)
            k = sum(1 for x in dev.tolist() if x and exact * abs(Fraction(x)) <= 1) + step
            if not 0 < k <= np.count_nonzero(dev):
                return False
            slope = float(skew_line_root(dev, d.ws, target, k))
            return not slope_within_rounding(dev, d.ws, target, slope)

        find(segment_distributions(), neighbour_fails,
             settings=settings(max_examples=300, database=None))


class TestConstructCase1:
    def test_worked_example(self, asym_two_point):
        res = construct_q(asym_two_point, N, DELTA)
        meta, diag = res.meta, res.meta["diagnostics"]
        assert meta["case"] == "large_mean_shift"
        assert meta["lambda"] == 0.75
        assert meta["a"] is None and meta["b"] is None and meta["sign"] is None
        assert res.q.atoms[0] == (0.0, pytest.approx(0.99925, abs=1e-15))
        assert res.q.atoms[1] == (1000.0, pytest.approx(0.00075, rel=1e-13))
        assert diag["mean_shift"] == pytest.approx(0.25, abs=1e-12)
        assert diag["epsilon_p"] == pytest.approx(1.0, abs=1e-12)
        assert diag["sup_ratio"] <= 1.001
        assert diag["mean_shift"] >= diag["epsilon_p"] / 32

    def test_interpolation_identity(self, asym_two_point):
        res = construct_q(asym_two_point, N, DELTA)
        core = standard_trim(asym_two_point, N, DELTA).trimmed
        gap = abs(core.mean - asym_two_point.mean)
        shift = res.meta["diagnostics"]["mean_shift"]
        assert shift == pytest.approx(gap / 4, rel=1e-10)


class TestConstructCase2:
    def test_worked_example(self, two_point):
        res = construct_q(two_point, N, DELTA)
        assert res.meta["case"] == "small_mean_shift"
        assert res.meta["sign"] == "plus"
        assert res.meta["b"] == 1.0
        a = res.meta["a"]
        assert a == pytest.approx((1 / 8) * math.sqrt(LOG_TERM / N), abs=1e-10)
        assert res.q.ws.tolist() == pytest.approx(
            [0.5 * (1 - a), 0.5 * (1 + a)], abs=1e-15
        )
        diag = res.meta["diagnostics"]
        assert diag["mean_shift"] == pytest.approx(a, abs=1e-12)
        assert diag["mean_shift"] >= diag["epsilon_p"] / 32

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateError):
            construct_q(AtomicDistribution([1.0], [1.0]), N, DELTA)
        with pytest.raises(DegenerateError):
            construct_q(
                AtomicDistribution([-1.0, 0.0, 1.0], [0.0005, 0.999, 0.0005]),
                N,
                DELTA,
            )


class TestMetaDict:
    @pytest.mark.parametrize("fixture", ["two_point", "asym_two_point"])
    def test_copy_leaves_meta_unchanged(self, fixture, request):
        res = construct_q(request.getfixturevalue(fixture), N, DELTA)
        before = copy.deepcopy(res.meta)
        meta = res.meta_dict()
        assert meta == before
        meta["extra"] = 1.0
        meta["case"] = None
        meta["regime"]["delta_ok"] = None
        meta["diagnostics"]["mean_shift"] = None
        assert res.meta == before


class TestInvariance:
    @pytest.mark.parametrize("s", [0.5, -2.0, 3.0])
    @pytest.mark.parametrize("c", [-7.5, 0.0, 3.25])
    def test_case1_shift_scale(self, asym_two_point, s, c):
        base = construct_q(asym_two_point, N, DELTA)
        moved = construct_q(affine(asym_two_point, s, c), N, DELTA)
        assert moved.meta["case"] == base.meta["case"]
        expected = affine(base.q, s, c)
        assert np.array_equal(moved.q.xs, expected.xs)
        assert moved.q.ws == pytest.approx(expected.ws, rel=1e-10)

    @pytest.mark.parametrize("s", [0.5, 3.0])
    @pytest.mark.parametrize("c", [-7.5, 3.25])
    def test_case2_shift_scale(self, two_point, s, c):
        base = construct_q(two_point, N, DELTA)
        moved = construct_q(affine(two_point, s, c), N, DELTA)
        assert moved.meta["case"] == base.meta["case"]
        expected = affine(base.q, s, c)
        assert np.array_equal(moved.q.xs, expected.xs)
        assert moved.q.ws == pytest.approx(expected.ws, rel=1e-10)

    def test_case2_reflection_swaps_sign(self):
        # the remote atom is clamped at the solved slope, so the two skew
        # measures have strictly different masses and the selection tracks
        # reflection (a tie would legitimately stay on the plus branch)
        p = AtomicDistribution([-1e6, 0.0, 1.0], [1e-9, 0.5, 0.499999999])
        base = construct_q(p, N, DELTA)
        mirrored = construct_q(affine(p, -1.0, 0.0), N, DELTA)
        assert mirrored.meta["case"] == base.meta["case"]
        assert {base.meta["sign"], mirrored.meta["sign"]} == {"plus", "minus"}
        expected = affine(base.q, -1.0, 0.0)
        assert np.array_equal(mirrored.q.xs, expected.xs)
        assert mirrored.q.ws == pytest.approx(expected.ws, rel=1e-10)


class TestDensityRatio:
    def test_identity(self, two_point):
        assert density_ratio(two_point, two_point) == 1.0

    def test_case1_example(self, asym_two_point):
        res = construct_q(asym_two_point, N, DELTA)
        ratio = density_ratio(res.q, asym_two_point)
        assert ratio == pytest.approx(0.99925 / 0.999, rel=1e-14)

    def test_disjoint_supports(self):
        p = AtomicDistribution([1.0], [1.0])
        q = AtomicDistribution([0.0], [1.0])
        assert density_ratio(q, p) == float("inf")


def _case2_results(d):
    try:
        res = construct_q(d, N, DELTA)
    except DegenerateError:
        assume(False)
    return res


class TestStructuralProperties:
    @given(atomic_distributions(min_atoms=2) | segment_distributions())
    @settings(max_examples=200)
    def test_construction_contracts(self, d):
        res = _case2_results(d)
        meta, diag = res.meta, res.meta["diagnostics"]
        assert not meta["saturated"]
        assert all(meta["regime"].values())
        assert diag["sup_ratio"] <= 2.0 + 1e-12
        var_p = d.variance
        assert res.q.variance <= 2.0 * var_p + 1e-9 * (1.0 + var_p)
        eps_p = diag["epsilon_p"]
        assert diag["mean_shift"] <= eps_p + 1e-9
        core = standard_trim(d, N, DELTA).trimmed
        gap = abs(d.mean - core.mean)
        rate = math.sqrt(core.variance) * math.sqrt(LOG_TERM / N)
        if meta["case"] == "large_mean_shift":
            assert diag["mean_shift"] == pytest.approx(gap / 4, rel=1e-10)
            assert diag["mean_shift"] >= eps_p / 8 - 1e-12
        else:
            assert meta["b"] is not None and 0.5 - 1e-12 <= meta["b"] <= 1.0 + 1e-12
            assert rate / 16 - 1e-9 * rate <= diag["mean_shift"]
            assert diag["mean_shift"] <= rate / 8 + 1e-9 * rate

    @given(atomic_distributions(min_atoms=2))
    @settings(max_examples=150)
    def test_skew_masses_sum_to_two(self, d):
        res = _case2_results(d)
        assume(res.meta["case"] == "small_mean_shift")
        masses = [math.fsum(side) for side in skew_masses(d, res.meta["a"])]
        assert sum(masses) == pytest.approx(2.0, abs=1e-12)
        assert res.meta["b"] == 1.0 / max(masses)

    @given(symmetric_distributions())
    @settings(max_examples=100)
    def test_symmetric_inputs_take_skew_branch(self, d):
        res = _case2_results(d)
        assert res.meta["case"] == "small_mean_shift"
        assert res.meta["sign"] == "plus"  # balanced masses tie toward the plus skew
        assert res.meta["b"] == pytest.approx(1.0, abs=1e-12)

    @given(atomic_distributions(min_atoms=2))
    @settings(max_examples=150)
    def test_hellinger_inequality_in_regime(self, d):
        res = _case2_results(d)
        lhs = math.log1p(-res.meta["diagnostics"]["hellinger_sq"])
        assert lhs >= math.log(4 * DELTA) / (2 * N) - 1e-12


def assert_matches_per_atom_formula(d, res):
    q, b, sign = skew_partner(d, res.meta["a"])
    assert np.array_equal(res.q.xs, q.xs)
    assert np.array_equal(res.q.ws, q.ws)
    assert res.meta["b"] == b
    assert res.meta["sign"] == sign


class TestSkewStepMatchesPerAtomFormula:
    """The array skew step in :func:`construct_q` reproduces the per-atom
    formula bit for bit at the solved slope."""

    @pytest.mark.parametrize("name", corpus.names())
    def test_corpus_grid(self, name):
        d = corpus.build(name)
        grid = itertools.product([10**3, 10**4, 10**5], [0.05, 0.01, 0.001])
        skew_cells = 0
        for n, delta in grid:
            res = construct_q(d, n, delta)
            if res.meta["case"] == "small_mean_shift":
                assert_matches_per_atom_formula(d, res)
                skew_cells += 1
        assert skew_cells > 0  # every member takes the skew branch somewhere

    @given(atomic_distributions(min_atoms=2) | segment_distributions())
    @settings(max_examples=200)
    def test_random_inputs(self, d):
        res = _case2_results(d)
        assume(res.meta["case"] == "small_mean_shift")
        assert_matches_per_atom_formula(d, res)
