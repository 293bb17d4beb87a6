import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, find, given, settings
import hypothesis.strategies as st

from advmean import (
    AtomicDistribution,
    DomainError,
    construct_q,
    corpus,
    epsilon,
    mixture,
    standard_trim,
    trim,
    verify_neighborhood,
)
from advmean import distribution
from advmean.distribution import (
    EXTRACT_MIN_TERMS,
    _fsums,
    _log_inv,
    _prepare_atoms,
    core_stats,
    distribution_from_dict,
    distribution_json,
    load_distribution,
)

from conftest import (
    adversarial_distributions,
    atomic_distributions,
    symmetric_distributions,
    wide_member,
)
from oracles import affine, distribution_json_reference, exact_mean, exact_variance

U = Fraction(1, 2**53)  # float64 unit roundoff
TINY = Fraction(1, 2**1074)  # smallest subnormal, the spacing below 2^-1022
NORMAL_MIN = Fraction(1, 2**1022)
FLOAT_MAX = Fraction(sys.float_info.max)
GAMMA_5 = 5 * U / (1 - 5 * U)


def mean_error_bound(d) -> tuple[Fraction, Fraction]:
    """``(A, D)``: ``A = sum |w_i x_i|`` and the bound
    ``D = 2^-52 A + k 2^-1074`` on ``|d.mean - exact_mean(d)|``, with ``k``
    the products below the normal range (see ``test_mean_within_exact_bound``)."""
    products = [Fraction(w) * Fraction(x) for x, w in zip(d.xs.tolist(), d.ws.tolist())]
    total = sum(abs(z) for z in products)
    k = sum(abs(z) < NORMAL_MIN for z in products)
    return total, 2 * U * total + k * TINY


class TestConstruction:
    def test_sorts_and_merges_duplicates(self):
        d = AtomicDistribution([1.0, -1.0, 1.0], [0.25, 0.5, 0.25])
        assert d.atoms == [(-1.0, 0.5), (1.0, 0.5)]
        # A position's masses add in input order: 2^-54 + 2^-54 is exact, then
        # + 0.5 lands on the next float; 0.5 first would absorb each 2^-54.
        tiny = 2.0**-54
        d = AtomicDistribution([0.0, 0.0, 0.0, 1.0], [tiny, tiny, 0.5, 0.5 - 2 * tiny])
        assert d.ws[0] == 0.5000000000000001
        d = AtomicDistribution([0.0, 0.0, 0.0, 1.0], [0.5, tiny, tiny, 0.5 - 2 * tiny])
        assert d.ws[0] == 0.5
        # 0.0 == -0.0: the merged atom keeps the first one's sign.
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            d = AtomicDistribution([first, second, 1.0], [0.25, 0.25, 0.5])
            assert d.num_atoms == 2
            assert math.copysign(1.0, d.xs[0]) == math.copysign(1.0, first)

    def test_rejects_bad_mass_sum(self):
        with pytest.raises(DomainError):
            AtomicDistribution([0.0, 1.0], [0.5, 0.6])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            AtomicDistribution([0.0, 1.0], [1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            AtomicDistribution([], [])

    def test_rejects_overflowing_mass_sum(self):
        with pytest.raises(DomainError, match=r"largest mass 1e\+308"):
            AtomicDistribution([0.0, 1.0], [1e308, 1e308])

    def test_immutable_arrays(self, two_point):
        with pytest.raises(ValueError):
            two_point.ws[0] = 0.9

    @pytest.mark.parametrize(
        "xs, ws", [([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[0.5, 0.5]])],
        ids=["unequal-lengths", "2-d"],
    )
    def test_rejects_mismatched_arrays(self, xs, ws):
        message = "^positions and masses must be 1-d arrays of equal length$"
        with pytest.raises(DomainError, match=message):
            AtomicDistribution(xs, ws)

    @pytest.mark.parametrize(
        "xs, ws", [([math.inf], [1.0]), ([0.0, math.nan], [0.5, 0.5]), ([0.0], [math.inf])],
        ids=["inf-x", "nan-x", "inf-w"],
    )
    def test_rejects_non_finite(self, xs, ws):
        with pytest.raises(DomainError, match="^positions and masses must be finite$"):
            AtomicDistribution(xs, ws)

    def test_eq_and_repr(self, two_point):
        assert two_point.__eq__(two_point.atoms) is NotImplemented
        assert two_point != two_point.atoms
        assert two_point == AtomicDistribution([1.0, -1.0], [0.5, 0.5])
        assert repr(two_point) == "AtomicDistribution([(-1.0, 0.5), (1.0, 0.5)])"


class TestMoments:
    def test_mean_point_mass(self):
        assert AtomicDistribution([0.0], [1.0]).mean == 0.0

    def test_mean_symmetric(self, two_point):
        assert two_point.mean == 0.0

    def test_mean_weighted(self):
        d = AtomicDistribution([0.0, 10.0], [0.9, 0.1])
        assert d.mean == pytest.approx(1.0, abs=1e-15)

    def test_variance_degenerate(self):
        assert AtomicDistribution([3.5], [1.0]).variance == 0.0

    def test_variance_unit_two_point(self, two_point):
        assert two_point.variance == pytest.approx(1.0, abs=1e-15)

    def test_variance_weighted(self):
        # 0.9 * 1 + 0.1 * 81 around the mean 1
        d = AtomicDistribution([0.0, 10.0], [0.9, 0.1])
        assert d.variance == pytest.approx(9.0, rel=1e-14)

    @given(atomic_distributions(), st.integers(min_value=-40, max_value=40))
    def test_variance_translation_invariant(self, d, c_scaled):
        c = 0.25 * c_scaled
        assert affine(d, 1.0, c).variance == pytest.approx(
            d.variance, rel=1e-10, abs=1e-12
        )

    @given(adversarial_distributions())
    @settings(max_examples=300)
    def test_mean_within_exact_bound(self, d):
        """``d.mean`` is the ``fsum`` of the float products ``fl(w_i x_i)``.
        With ``u = 2^-53`` and ``v = u / (1 + u)``, rounding to nearest misses
        a value ``z`` in the normal range by at most ``v |z|`` and one below it
        by at most ``2^-1075``.  So the products' exact sum ``S`` lies within
        ``v A + k 2^-1075`` of ``E = exact_mean(d)`` and ``|S| <= (1 + v) A +
        k 2^-1075``, where ``A = sum |w_i x_i|`` and ``k`` products lie below
        the normal range.  ``d.mean`` is ``S`` rounded to nearest once, exact
        below the normal range, where ``S``, a sum of floats, is a float.  In
        total
        ``|d.mean - E| <= v (2 + v) A + k 2^-1075 (1 + v) <= 2^-52 A + k 2^-1074``.

        ``fsum`` overflows only when one of its partial sums does, and on at
        most eight atoms each partial is at most ``(1 + u)^9 A``; so a mean
        refused for overflow has ``A > FLOAT_MAX / 2``."""
        total, bound = mean_error_bound(d)
        try:
            mu = d.mean
        except DomainError:
            assert total > FLOAT_MAX / 2
            return
        assert mu == float(sum(Fraction(z) for z in (d.ws * d.xs).tolist()))
        assert abs(Fraction(mu) - exact_mean(d)) <= bound

    @given(adversarial_distributions())
    @settings(max_examples=300)
    def test_variance_within_exact_bound(self, d):
        """``d.variance`` is the ``fsum`` of ``t_i = fl(fl(w_i dev_i) dev_i)``
        with ``dev_i = fl(x_i - mu)`` around the float ``mu = d.mean``.

        Against ``S = sum w_i (x_i - mu)^2``, each term carries four roundings
        of relative size at most ``v`` (``dev_i`` twice, exact when below the
        normal range, and the two products), and ``fsum`` one more, so the
        relative error is at most ``(1 + v)^5 - 1 <= GAMMA_5 = 5u / (1 - 5u)``.
        A product below the normal range adds at most ``2^-1075 |dev_i|``
        (``fl(w_i dev_i)``) or ``2^-1075`` (``t_i``), each grown by at most
        ``(1 + u)^2`` through the later roundings: together ``tail``.

        Write ``mu = E + delta`` with ``|delta| <= D`` (the mean bound) and
        ``W = sum w_i`` exactly.  Since ``sum w_i (x_i - E) = E (1 - W)``,
        ``S - V = delta^2 W - 2 delta E (1 - W)`` for ``V = exact_variance(d)``,
        so ``|S - V| <= M = D^2 W + 2 D |E| |1 - W|``, and in total
        ``|d.variance - V| <= GAMMA_5 (V + M) + M + tail``.

        ``d.variance`` is ``inf`` only after an overflow in some ``dev_i``
        (then ``w_i (x_i - mu)^2 > 1e-301 FLOAT_MAX^2``, the masses being at
        least ``1e-300 / 8``), in a product or in the sum; each puts ``S``
        above ``FLOAT_MAX / 2``."""
        _, bound = mean_error_bound(d)
        try:
            mu = d.mean
        except DomainError:
            with pytest.raises(DomainError):
                d.variance
            return
        atoms = list(zip(d.xs.tolist(), d.ws.tolist()))
        if math.isinf(d.variance):
            shifted = sum(Fraction(w) * (Fraction(x) - Fraction(mu)) ** 2 for x, w in atoms)
            assert shifted > FLOAT_MAX / 2
            return
        exact, mean = exact_variance(d), exact_mean(d)
        mass = sum(Fraction(w) for _, w in atoms)
        shift = bound**2 * mass + 2 * bound * abs(mean) * abs(1 - mass)
        dev = d.xs - mu
        products = d.ws * dev
        low_product = np.abs(products) <= 2.0**-1022
        low_term = np.abs(products * dev) <= 2.0**-1022
        tail = (1 + U) ** 2 * TINY / 2 * (
            sum(Fraction(x) for x in np.abs(dev[low_product]).tolist())
            + int(low_term.sum())
        )
        error = abs(Fraction(d.variance) - exact)
        assert error <= GAMMA_5 * (exact + shift) + shift + tail

    @pytest.mark.parametrize("moment", ["mean", "variance"])
    @pytest.mark.parametrize("name", corpus.names())
    def test_computed_once(self, name, moment, monkeypatch):
        """``verify_neighborhood``, then ``core_stats`` again on the same
        ``p``, computes each distinct distribution's moment at most once."""
        prop = AtomicDistribution.__dict__[moment]
        seen = []

        def counting(d, compute=prop.func):
            seen.append(d)  # keeps d alive, so ids stay distinct
            return compute(d)

        monkeypatch.setattr(prop, "func", counting)
        member = corpus.build(name)
        p = AtomicDistribution(member.xs, member.ws)  # nothing cached yet
        verify_neighborhood(p, 1000, 0.05)
        core_stats(p, 1000, 0.05)
        assert any(d is p for d in seen)
        assert len({id(d) for d in seen}) == len(seen)


class TestTrim:
    def test_symmetric_boundary_split(self, two_point):
        res = trim(two_point, 0.1)
        assert res.radius == 1.0
        assert res.trimmed == two_point  # proportional split renormalizes back
        assert res.kept_fractions == pytest.approx([0.9, 0.9], abs=1e-15)
        assert res.trimmed_mass == 0.1

    def test_zero_is_identity(self, asym_two_point):
        res = trim(asym_two_point, 0.0)
        assert res.trimmed == asym_two_point
        assert np.all(res.kept_fractions == 1.0)
        assert res.trimmed_mass == 0.0

    def test_far_atom_fully_trimmed(self, asym_two_point):
        res = trim(asym_two_point, 0.00135)
        assert res.radius == 1.0  # mean is 1, near atom at distance 1
        assert res.trimmed.atoms == [(0.0, 1.0)]
        assert res.kept_fractions[0] == pytest.approx(0.99865 / 0.999, rel=1e-14)
        assert res.kept_fractions[1] == 0.0

    def test_domain(self, two_point):
        with pytest.raises(DomainError):
            trim(two_point, 1.0)
        with pytest.raises(DomainError):
            trim(two_point, -0.01)

    @given(atomic_distributions(min_atoms=2), st.floats(min_value=0.001, max_value=0.9))
    @settings(max_examples=200)
    def test_kept_mass_and_support(self, d, t):
        res = trim(d, t)
        mu = d.mean
        # every kept atom lies within the radius
        assert np.all(np.abs(res.trimmed.xs - mu) <= res.radius)
        kept = math.fsum((d.ws * res.kept_fractions).tolist())
        assert kept == pytest.approx(1.0 - t, abs=1e-12)
        # fraction pattern: 1 strictly inside, 0 strictly outside
        dist = np.abs(d.xs - mu)
        assert np.all(res.kept_fractions[dist < res.radius] == 1.0)
        assert np.all(res.kept_fractions[dist > res.radius] == 0.0)


class TestStandardTrim:
    def test_two_point(self, two_point):
        res = standard_trim(two_point, 1000, 0.05)
        assert res.trimmed_mass == pytest.approx(
            0.45 * math.log(20.0) / 1000, rel=1e-15
        )
        assert res.trimmed.mean == 0.0
        assert math.sqrt(res.trimmed.variance) == 1.0

    def test_point_mass(self):
        d = AtomicDistribution([2.0], [1.0])
        assert standard_trim(d, 50, 0.1).trimmed == d

    def test_asymmetric_collapses(self, asym_two_point):
        res = standard_trim(asym_two_point, 1000, 0.05)
        assert res.trimmed.atoms == [(0.0, 1.0)]
        assert res.radius == 1.0

    def test_too_aggressive(self, two_point):
        with pytest.raises(DomainError):
            standard_trim(two_point, 1, 1e-6)

    @given(st.floats(min_value=2.0**-1022, max_value=1.0, exclude_max=True))
    @example(0.05)
    @example(0.01)
    @example(0.001)
    @example(0.3)
    def test_log_inv_bitwise_on_normal_delta(self, delta):
        assert _log_inv(delta) == math.log(1.0 / delta)

    def test_log_inv_subnormal_delta(self, two_point):
        # 1/delta overflows to inf below about 5.6e-309; log(1/delta) does not.
        assert _log_inv(5e-324) == -math.log(5e-324)
        res = standard_trim(two_point, 1000, 5e-324)
        assert res.trimmed_mass == pytest.approx(0.45 * 1074 * math.log(2.0) / 1000)

    @given(symmetric_distributions())
    @settings(max_examples=150)
    def test_symmetry_preserved(self, d):
        res = standard_trim(d, 1000, 0.05)
        assert abs(d.mean - res.trimmed.mean) <= 1e-12
        xs, ws = res.trimmed.xs, res.trimmed.ws
        assert np.array_equal(xs, -xs[::-1])
        assert np.array_equal(ws, ws[::-1])


class TestEpsilon:
    def test_two_point_closed_form(self, two_point):
        expected = math.sqrt(4.5 * math.log(20.0) / 1000)
        assert epsilon(two_point, 1000, 0.05) == pytest.approx(expected, rel=1e-15)

    def test_point_mass_is_zero(self):
        assert epsilon(AtomicDistribution([7.0], [1.0]), 1000, 0.05) == 0.0

    def test_asymmetric_is_mean_gap(self, asym_two_point):
        assert epsilon(asym_two_point, 1000, 0.05) == pytest.approx(1.0, abs=1e-12)

    @given(
        atomic_distributions(min_atoms=2),
        st.sampled_from([-2.0, -0.5, 0.5, 2.25, 3.0]),
        st.sampled_from([-7.5, 0.0, 3.25]),
    )
    @settings(max_examples=150)
    def test_shift_scale_equivariance(self, d, s, c):
        base = epsilon(d, 1000, 0.05)
        moved = epsilon(affine(d, s, c), 1000, 0.05)
        assert moved == pytest.approx(abs(s) * base, rel=1e-10, abs=1e-12)


class TestMixture:
    def test_endpoints(self, two_point, asym_two_point):
        assert mixture(two_point, asym_two_point, 1.0) is two_point
        assert mixture(two_point, asym_two_point, 0.0) is asym_two_point

    def test_worked_example(self, asym_two_point):
        core = AtomicDistribution([0.0], [1.0])
        q = mixture(asym_two_point, core, 0.75)
        assert q.atoms[0] == (0.0, pytest.approx(0.99925, abs=1e-15))
        assert q.atoms[1] == (1000.0, pytest.approx(0.00075, abs=1e-18))

    def test_domain(self, two_point):
        with pytest.raises(DomainError):
            mixture(two_point, two_point, 1.5)

    @given(atomic_distributions(), st.floats(min_value=0.0, max_value=1.0))
    def test_self_mixture_identity(self, d, lam):
        assert mixture(d, d, lam) == d

    @given(
        atomic_distributions(),
        atomic_distributions(),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_matches_dict_reference(self, d1, d2, lam):
        w1 = dict(zip(d1.xs.tolist(), d1.ws.tolist()))
        w2 = dict(zip(d2.xs.tolist(), d2.ws.tolist()))
        xs = sorted(set(w1) | set(w2))
        ws = [w2.get(x, 0.0) + lam * (w1.get(x, 0.0) - w2.get(x, 0.0)) for x in xs]
        assert mixture(d1, d2, lam) == AtomicDistribution(xs, ws)


class TestAffine:
    """The test-local affine map behind the equivariance tests."""

    def test_shift_point(self):
        assert affine(AtomicDistribution([0.0], [1.0]), 1.0, 5.0).atoms == [(5.0, 1.0)]

    def test_negative_scale_resorts(self, two_point):
        d = affine(two_point, -2.0, 0.0)
        assert d.atoms == [(-2.0, 0.5), (2.0, 0.5)]

    @given(atomic_distributions())
    def test_group_action_roundtrip(self, d):
        # powers of two and integers keep the arithmetic exact
        assert affine(affine(d, 4.0, 12.0), 0.25, -3.0) == d


class TestFileFormat:
    def test_round_trip(self, tmp_path, asym_two_point):
        path = tmp_path / "d.json"
        path.write_text(distribution_json(asym_two_point))
        assert load_distribution(path) == asym_two_point

    def test_loader_sorts_and_renormalizes(self, tmp_path):
        path = tmp_path / "d.json"
        drift = 1e-10
        payload = {
            "atoms": [
                {"x": 1.0, "w": 0.5 + drift},
                {"x": -1.0, "w": 0.25},
                {"x": -1.0, "w": 0.25},
            ]
        }
        path.write_text(json.dumps(payload))
        d = load_distribution(path)
        assert d.num_atoms == 2
        assert math.fsum(d.ws.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_loader_prepares_once(self, count_calls):
        # Duplicate positions, inexact merges and a 1e-10 drift: one
        # preparation gives the bytes of preparing, rescaling and then
        # constructing (preparing again).
        atoms = []
        for i, atom in enumerate(wide_member()["atoms"]):
            x, w = atom["x"], atom["w"]
            atoms += [atom] if i % 7 else [{"x": x, "w": w / 3}, {"x": x, "w": w * 2 / 3}]
        atoms[-1]["w"] += 1e-10
        xs, ws, total = _prepare_atoms([a["x"] for a in atoms], [a["w"] for a in atoms])
        expected = AtomicDistribution(xs, ws / total)
        calls = count_calls([distribution], "_prepare_atoms")
        d = distribution_from_dict({"atoms": atoms})
        assert len(calls) == 1
        assert abs(total - 1.0) > 5e-11 and d.num_atoms == 10_002 < len(atoms)
        assert d.xs.tobytes() == expected.xs.tobytes()
        assert d.ws.tobytes() == expected.ws.tobytes()
        assert not d.xs.flags.writeable and not d.ws.flags.writeable

    def test_loader_rejects_large_drift(self):
        with pytest.raises(DomainError):
            distribution_from_dict({"atoms": [{"x": 0.0, "w": 0.9}]})

    def test_loader_rejects_missing_keys(self):
        with pytest.raises(DomainError):
            distribution_from_dict({"atoms": [{"x": 0.0}]})

    def test_dict_round_trip(self, two_point):
        assert distribution_from_dict(json.loads(distribution_json(two_point))) == two_point


# Floats whose repr is an edge of json's float form: signed zero, the
# smallest subnormal, the largest finite value, and the switch to exponent form.
EDGE_FLOATS = [
    -0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1e22,
]
EDGE_MASSES = [5e-324, 1e-310, 2.225073858507201e-308, 1e-16, 1e-5, 0.0001, 0.25]
# The partner records of both construction branches at n=1000, delta=0.05.
METAS = [None] + [
    construct_q(corpus.build(name), 1000, 0.05).meta
    for name in ("two_point_symmetric", "two_point_asymmetric")
]


@st.composite
def edge_distributions(draw):
    """Up to 20 atoms at arbitrary finite or edge positions; all but one mass
    arbitrary in (0, 0.04] or an edge mass, the last taking up the rest."""
    position = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    xs = draw(st.lists(position, min_size=1, max_size=20, unique_by=lambda x: x))
    mass = st.floats(min_value=5e-324, max_value=0.04) | st.sampled_from(EDGE_MASSES[:-1])
    ws = draw(st.lists(mass, min_size=len(xs) - 1, max_size=len(xs) - 1))
    return AtomicDistribution(xs, ws + [1.0 - math.fsum(ws)])


class TestWriter:
    """``distribution_json`` writes exactly the stdlib encoder's bytes."""

    @given(edge_distributions(), st.sampled_from(METAS))
    @settings(max_examples=200, deadline=None)
    def test_matches_json_dumps(self, d, meta):
        assert distribution_json(d, meta) == distribution_json_reference(d, meta)

    @pytest.mark.parametrize("meta", METAS)
    def test_edges(self, meta):
        singles = [AtomicDistribution([x], [1.0]) for x in EDGE_FLOATS]
        rest = 1.0 - math.fsum(EDGE_MASSES)
        masses = AtomicDistribution(range(len(EDGE_MASSES) + 1), [*EDGE_MASSES, rest])
        for d in [*singles, masses]:
            assert distribution_json(d, meta) == distribution_json_reference(d, meta)

    @pytest.mark.parametrize("name", [*corpus.names(), "wide"])
    def test_members(self, name):
        if name == "wide":
            p = distribution_from_dict(wide_member())
            assert p.num_atoms == 10_002
        else:
            p = corpus.build(name)
        q = construct_q(p, 1000, 0.05)
        assert distribution_json(p) == distribution_json_reference(p)
        assert distribution_json(q.q, q.meta) == distribution_json_reference(q.q, q.meta)


@st.composite
def sum_terms(draw):
    """A float64 array on either side of EXTRACT_MIN_TERMS: terms at binary
    exponents over a span of up to the whole float range (subnormals and
    values near 2^1023 among them), all positive, half of them cancelling
    the other half, or with a few infinities, NaNs or largest floats mixed in."""
    n = draw(st.sampled_from([511, 512, 513, 1400, 10_001]) | st.integers(0, 1100))
    lo = draw(st.sampled_from([-1074, -1040]) | st.integers(-1074, 1023))
    hi = draw(st.integers(lo, min(lo + draw(st.sampled_from([0, 60, 200, 2100])), 1023)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, n) * 2.0 ** rng.integers(lo, hi + 1, n)
    shape = draw(st.sampled_from(["signed", "positive", "cancelling"]))
    if shape == "positive":
        values = np.abs(values)
    elif shape == "cancelling":
        values[n // 2 : 2 * (n // 2)] = -rng.permutation(values[: n // 2])
    specials = [math.inf, -math.inf, math.nan, sys.float_info.max, -sys.float_info.max]
    for special in draw(st.lists(st.sampled_from(specials), max_size=3 if n else 0)):
        values[rng.integers(n)] = special
    return values


def _sum_outcome(fsum, values):
    """``fsum(values)``'s ``hex`` (sign of zero and NaN included), or its error."""
    try:
        return fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _fsum_list(values):
    return math.fsum(values.tolist())


def _two_rounds_unfinished(values):
    """A broken ``_fsums(values)[0]``: two extraction rounds and no finish."""
    m = (values.size + 1).bit_length()
    top = float(np.abs(values).max()) if values.size >= EXTRACT_MIN_TERMS else math.inf
    if not top < 2.0 ** (1023 - m):
        return _fsum_list(values)
    sigma, total = math.ldexp(1.0, math.frexp(top)[1] + m), 0.0
    for _ in range(2):
        q = (values + sigma) - sigma
        values = values - q
        total += float(q.sum())
        sigma = math.ldexp(sigma, m - 53)
    return total


class TestExactSums:
    """``_fsums`` is ``math.fsum`` bit for bit, exceptions included."""

    @given(sum_terms())
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum(self, values):
        assert _sum_outcome(lambda v: _fsums(v)[0], values) == _sum_outcome(_fsum_list, values)

    def test_property_rejects_two_unfinished_rounds(self):
        find(
            sum_terms(),
            lambda v: _sum_outcome(_two_rounds_unfinished, v) != _sum_outcome(_fsum_list, v),
            settings=settings(max_examples=300, database=None),
        )
