import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from advmean import (
    DomainError,
    corpus,
    group_count,
    median_of_means,
    sample,
    sample_mean,
    trial_stream,
)
from advmean.estimators import _group_means
from oracles import group_means_reference

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


class TestGroupCount:
    def test_reference_value(self):
        # 4.5 * log(20) = 13.48..., rounded up
        assert group_count(0.05) == 14

    def test_never_below_one(self):
        assert group_count(0.999) == 1

    def test_monotone_in_confidence(self):
        assert group_count(0.001) > group_count(0.01) > group_count(0.05)


class TestMedianOfMeans:
    def test_constant_data(self):
        assert median_of_means([3.25] * 40, 0.05) == 3.25

    def test_singleton_groups_midpoint(self):
        # 14 groups of one sample each; median is the midpoint of the 7th
        # and 8th order statistics
        values = list(range(1, 15))
        assert median_of_means(values, 0.05) == 7.5

    def test_remainder_goes_to_leading_groups(self):
        # 16 samples in 14 groups: the first two groups hold two samples
        values = [10.0, 20.0] + [1.0] * 14
        # group means: 15, 1, 1, ..., (leading pair averaged together)
        assert median_of_means(values, 0.05) == 1.0

    def test_insufficient_samples(self):
        with pytest.raises(DomainError, match=r"^need at least 14 samples for 14 groups, got 2$"):
            median_of_means([1.0, 2.0], 0.05)

    @pytest.mark.parametrize(
        "estimate",
        [lambda: median_of_means([1e308] * 28, 0.05),
         lambda: sample_mean([1e308, 1e308, -1e308])],
        ids=["median_of_means", "sample_mean"],
    )
    def test_group_sum_overflow(self, estimate):
        with pytest.raises(DomainError, match=r"^a group sum overflows float64; rescale"):
            estimate()

    def test_accepts_ndarray(self):
        assert median_of_means(np.arange(1.0, 15.0), 0.05) == 7.5

    @pytest.mark.parametrize("samples", [[], np.ones((2, 14))], ids=["empty", "2-d"])
    def test_rejects_empty_or_not_1d(self, samples):
        with pytest.raises(DomainError):
            median_of_means(samples, 0.05)

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=14, max_size=14)
    )
    def test_equivariance_exact_on_integer_data(self, ints):
        # singleton groups, power-of-two scale, integer shift: every group
        # mean and the even-count midpoint stay exact
        values = [float(v) for v in ints]
        base = median_of_means(values, 0.05)
        moved = median_of_means([4.0 * v + 3.0 for v in values], 0.05)
        assert moved == 4.0 * base + 3.0

    @given(
        st.lists(finite_floats, min_size=14, max_size=60),
        st.sampled_from([-2.5, 0.75, 3.0]),
        st.sampled_from([-11.0, 0.5]),
    )
    @settings(max_examples=150)
    def test_equivariance_generic(self, values, s, c):
        base = median_of_means(values, 0.05)
        moved = median_of_means([s * v + c for v in values], 0.05)
        assert moved == pytest.approx(s * base + c, rel=1e-12, abs=1e-9)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_single_group_equals_sample_mean(self, values):
        assert median_of_means(values, 0.95) == sample_mean(values)

    @given(st.lists(finite_floats, min_size=14, max_size=100))
    def test_output_within_sample_range(self, values):
        est = median_of_means(values, 0.05)
        assert min(values) <= est <= max(values)

    @given(
        st.lists(finite_floats, min_size=28, max_size=28),
        st.randoms(use_true_random=False),
    )
    def test_within_group_permutation_invariance(self, values, rng):
        # groups of two; swapping inside a group leaves the exact sums alone
        base = median_of_means(values, 0.05)
        permuted = list(values)
        for g in range(14):
            if rng.random() < 0.5:
                permuted[2 * g], permuted[2 * g + 1] = (
                    permuted[2 * g + 1],
                    permuted[2 * g],
                )
        assert median_of_means(permuted, 0.05) == base

    @pytest.mark.parametrize("delta, k", [(0.9, 1), (0.1, 11), (0.05, 14)])
    @given(values=st.lists(
        st.floats(allow_nan=False, min_value=-1e300, max_value=1e300),
        min_size=14, max_size=60,
    ))
    def test_median_step_matches_np_median(self, delta, k, values):
        # k = 1, odd k and even k; signed zeros compare equal, and their
        # order within a sort is not numpy's.
        assert group_count(delta) == k
        means = group_means_reference(values, delta)
        assert median_of_means(values, delta) == float(np.median(means))

    def test_nan_group_gives_nan(self):
        # as np.median does; a sort would place the NaN mean arbitrarily
        assert math.isnan(median_of_means([1.0] * 13 + [math.nan], 0.05))

    def test_group_with_both_infinities_gives_nan(self):
        # fsum refuses -inf + inf; the group's mean is NaN, as for a NaN sample
        assert math.isnan(median_of_means([math.inf, -math.inf] * 7, 0.95))


def _outcome(group_means, samples, delta):
    """Every group mean's ``repr``, or the refusal message."""
    try:
        return [repr(mean) for mean in group_means(samples, delta)]
    except DomainError as exc:
        return f"DomainError: {exc}"


def _batch(kind: str, n: int, delta, seed: int) -> np.ndarray:
    """``n`` seeded samples of one kind: a corpus member's draws, or floats
    that stress exact group sums."""
    rng = np.random.default_rng(seed)
    if kind in corpus.names():
        return sample(corpus.build(kind), n, trial_stream(seed, 0))
    if kind == "mixed_exponents":  # every binary exponent, subnormals included
        return rng.uniform(-1.0, 1.0, n) * 2.0 ** rng.integers(-1074, 1024, n)
    if kind in ("shared_exponent", "one_signed"):  # group totals near 2^m max|x|
        signs = rng.choice([-1.0, 1.0], 1 if kind == "one_signed" else n)
        return np.ldexp(signs * rng.uniform(0.5, 1.0, n), int(rng.integers(-1074, 1024)))
    if kind == "subnormal":
        return rng.integers(-2**40, 2**40, n) * 5e-324
    if kind == "signed_zeros":  # groups of -0.0 only, or zeros beside tiny values
        return rng.choice([-0.0, 0.0, 5e-324, -1.0], n, p=[0.7, 0.1, 0.1, 0.1])
    if kind == "extraction_limit":  # max|x| at or just below 2^(1023 - m)
        largest = -(-n // (1 if delta is None else group_count(delta)))
        limit = 2.0 ** (1023 - (largest + 1).bit_length())
        top = rng.choice([limit, np.nextafter(limit, 0.0)])
        return rng.choice([top, -top, 1.0, 0.0], n)
    assert kind == "overflow"
    return rng.choice([1e308, -1e308, 1.0], n)


BATCH_KINDS = ["mixed_exponents", "shared_exponent", "one_signed", "subnormal",
               "signed_zeros", "extraction_limit", "overflow", *corpus.names()]


class TestExactGroupSums:
    # Extraction must give fsum's group means bit for bit, and its refusals.
    @given(
        kind=st.sampled_from(BATCH_KINDS),
        n=st.sampled_from([14, 15, 1400, 1401]) | st.integers(1, 40),
        delta=st.sampled_from([0.05, 0.01, 0.5, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="one_signed", n=1400, delta=0.05, seed=1)
    @example(kind="pareto_15", n=1401, delta=0.01, seed=0)
    @example(kind="signed_zeros", n=15, delta=None, seed=3)
    @settings(max_examples=400, deadline=None)
    def test_matches_fsum_loop(self, kind, n, delta, seed):
        batch = _batch(kind, n, delta, seed)
        assert _outcome(_group_means, batch, delta) == _outcome(
            group_means_reference, batch, delta
        )

    @pytest.mark.parametrize(
        "samples",
        [[1e308] * 28, [1e308, 1e308, -1e308] * 5, [-0.0] * 28, [0.0, -0.0] * 14,
         [math.inf, -math.inf] * 14, [math.inf, -math.inf, 1.0] * 10],
        ids=["overflow", "overflow-cancels", "negative-zeros", "signed-zeros",
             "both-infinities", "some-groups-both-infinities"],
    )
    def test_edge_batches(self, samples):
        for delta in (0.05, None):
            assert _outcome(_group_means, samples, delta) == _outcome(
                group_means_reference, samples, delta
            )


class TestSampleMean:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            sample_mean([])

    def test_singleton(self):
        assert sample_mean([42.0]) == 42.0

    def test_symmetric(self):
        assert sample_mean([-1.0, 1.0]) == 0.0

    def test_both_infinities_give_nan(self):
        assert math.isnan(sample_mean([math.inf, -math.inf]))

    def test_arithmetic(self):
        assert sample_mean([1.0, 2.0, 3.0, 4.0]) == 2.5
