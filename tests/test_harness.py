import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from advmean import (
    AtomicDistribution,
    DomainError,
    TrialConfig,
    asymptotic_scan,
    bench_mom,
    construct_q,
    group_count,
    hellinger_sq,
    lr_test_error,
    median_of_means,
    sample,
    trial_stream,
    trim,
    verify_neighborhood,
    verify_theorem,
)
from advmean import corpus
from advmean import adversary, distribution, harness

from conftest import jittered_gaussian_grid
from oracles import (
    brute_force_trim,
    exact_lr_error,
    lr_wrong_reversed,
    mom_miss_bracket,
    trial_stream_reference,
)


def random_small_instance(rng):
    n_atoms = int(rng.integers(1, 11))
    positions = rng.choice(np.arange(-200, 201), size=n_atoms, replace=False)
    masses = rng.random(n_atoms) + 0.01
    return AtomicDistribution(np.sort(positions) * 0.25, masses / masses.sum())


class TestSample:
    def test_point_mass(self):
        d = AtomicDistribution([2.5], [1.0])
        draws = sample(d, 100, trial_stream(0, 0))
        assert isinstance(draws, np.ndarray) and draws.shape == (100,)
        assert np.all(draws == 2.5)

    def test_deterministic_streams(self, two_point):
        a = sample(two_point, 1000, trial_stream(7, 3))
        b = sample(two_point, 1000, trial_stream(7, 3))
        assert np.array_equal(a, b)
        c = sample(two_point, 1000, trial_stream(7, 4))
        assert not np.array_equal(a, c)

    def test_empirical_mean_under_fixed_seed(self, two_point):
        draws = sample(two_point, 10**5, trial_stream(0, 0))
        assert abs(float(draws.mean())) <= 4 / math.sqrt(10**5)

    def test_respects_masses(self):
        d = AtomicDistribution([0.0, 1.0], [0.9, 0.1])
        draws = sample(d, 20000, trial_stream(0, 1))
        assert float(draws.mean()) == pytest.approx(0.1, abs=0.01)


def _state(stream: np.random.Generator) -> dict:
    """The bit generator's state with its arrays as lists, for ``==``."""
    state = stream.bit_generator.state
    return {
        key: {k: v.tolist() for k, v in value.items()} if isinstance(value, dict)
        else value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in state.items()
    }


class TestTrialStream:
    """Block-computed keys give the stream ``SeedSequence([seed, t])`` keys."""

    @given(
        seed=st.integers(1, 7).flatmap(
            lambda words: st.integers(2 ** (32 * words - 32) if words > 1 else 0,
                                      2 ** (32 * words) - 1)
        ),
        t=st.sampled_from([0, 1023, 1024, 2**32 - 1, 2**32, sys.maxsize])
        | st.integers(0, 2**64),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_seed_sequence(self, seed, t):
        stream, reference = trial_stream(seed, t), trial_stream_reference(seed, t)
        assert _state(stream) == _state(reference)
        assert stream.random(3).tolist() == reference.random(3).tolist()

    def test_every_trial_of_two_blocks(self):
        for t in range(2048):
            assert _state(trial_stream(11, t)) == _state(trial_stream_reference(11, t))

    @pytest.mark.parametrize(
        "seed, trial, message",
        [(-1, 0, "seed must be a nonnegative integer, got -1"),
         (0.5, 0, "seed must be a nonnegative integer, got 0.5"),
         (-(2**40), 3, "seed must be a nonnegative integer, got -1099511627776"),
         (0, -1, "trial must be a nonnegative integer, got -1"),
         (0, 2.0, "trial must be a nonnegative integer, got 2.0"),
         (0, "3", "trial must be a nonnegative integer, got '3'")],
        ids=["negative-seed", "float-seed", "negative-wide-seed", "negative-trial",
             "float-trial", "str-trial"],
    )
    def test_refuses_bad_seed_or_trial(self, seed, trial, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            trial_stream(seed, trial)

    def test_key_answers_only_philox(self):
        key = trial_stream(0, 0).bit_generator.seed_seq
        assert key.generate_state(2, np.uint64).tolist() == (
            np.random.SeedSequence([0, 0]).generate_state(2, np.uint64).tolist()
        )
        with pytest.raises(TypeError):
            key.generate_state(4, np.uint32)

    def test_numpy_integers(self):
        assert _state(trial_stream(np.uint64(7), np.int64(1030))) == _state(
            trial_stream_reference(7, 1030)
        )


def _edge_uniforms(table) -> np.ndarray:
    """0, the largest double below 1, every ``cum`` value and its two
    neighbours, and every bucket edge ``b / G`` and its predecessor."""
    cum, start, _ = table
    edges = np.arange(start.size) / start.size
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)],
        cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
        edges, np.nextafter(edges, -1.0),
    ])
    return u[(u >= 0.0) & (u < 1.0)]


def _assert_guide_exact(d: AtomicDistribution, draws: int = 20_000):
    table = d._guide_table
    u = np.concatenate([_edge_uniforms(table), trial_stream(0, d.num_atoms).random(draws)])
    assert np.array_equal(d._inverse_cdf(u), np.searchsorted(table[0], u, side="right"))


class TestGuideDraw:
    """The guide-table draw is ``searchsorted(cum, u, side="right")``, index
    for index."""

    @pytest.mark.parametrize("name", corpus.names())
    def test_corpus(self, name):
        _assert_guide_exact(corpus.build(name))

    @pytest.mark.parametrize("atoms", [10_001, 70_001])
    def test_wide_gaussian_grid(self, atoms):
        # 70,001 atoms would want 2^18 buckets and get the 2^16 cap.
        d = AtomicDistribution(*jittered_gaussian_grid(atoms))
        _, start, crowded = d._guide_table
        assert start.size == min(1 << 16, 1 << (2 * atoms - 1).bit_length())
        assert crowded is not None and crowded.sum() >= 2
        _assert_guide_exact(d, draws=100_000)

    @given(st.lists(st.floats(min_value=1e-300, max_value=1.0), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_tiny_masses(self, raw):
        total = math.fsum(raw)
        d = AtomicDistribution(np.arange(len(raw), dtype=float), [w / total for w in raw])
        _assert_guide_exact(d, draws=500)

    def test_table_is_built_once(self, two_point):
        assert two_point._guide_table is two_point._guide_table


class TestBruteForceTrimOracle:
    def test_identity_at_zero(self, two_point):
        res = brute_force_trim(two_point, 0.0)
        assert res.trimmed == two_point
        assert np.all(res.kept_fractions == 1.0)

    def test_matches_worked_examples(self, two_point, asym_two_point):
        for d, t in [(two_point, 0.1), (asym_two_point, 0.00135), (asym_two_point, 0.0)]:
            fast = trim(d, t)
            slow = brute_force_trim(d, t)
            assert fast.radius == pytest.approx(slow.radius, abs=1e-12)
            assert fast.trimmed.atoms == pytest.approx(slow.trimmed.atoms)

    def test_refuses_large_instances(self):
        xs = np.arange(65, dtype=float)
        d = AtomicDistribution(xs, np.full(65, 1 / 65))
        with pytest.raises(DomainError):
            brute_force_trim(d, 0.1)

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            d = random_small_instance(rng)
            t = float(rng.random() * 0.1)
            fast = trim(d, t)
            slow = brute_force_trim(d, t)
            assert abs(fast.radius - slow.radius) <= 1e-12
            fast_kept = d.ws * fast.kept_fractions
            slow_kept = d.ws * slow.kept_fractions
            assert np.max(np.abs(fast_kept - slow_kept)) <= 1e-12


class TestVerifyTheorem:
    def test_case1_worked_example(self, asym_two_point):
        rep = verify_theorem(asym_two_point, 1000, 0.05)
        assert rep["pass"] and not rep["degenerate"]
        by_name = {c["name"]: c for c in rep["conditions"]}
        assert by_name["mean_separation"]["measured"] == pytest.approx(0.25, abs=1e-12)
        assert by_name["mean_separation"]["bound"] == pytest.approx(
            1 / 32, abs=1e-8
        )
        assert by_name["density_ratio"]["measured"] <= 1.001
        assert rep["meta"]["case"] == "large_mean_shift"

    def test_case2_worked_example(self, two_point):
        rep = verify_theorem(two_point, 1000, 0.05)
        assert rep["pass"]
        by_name = {c["name"]: c for c in rep["conditions"]}
        expected_shift = (1 / 8) * math.sqrt(math.log(20.0) / 1000)
        assert by_name["mean_separation"]["measured"] == pytest.approx(
            expected_shift, abs=1e-12
        )
        eps = math.sqrt(4.5 * math.log(20.0) / 1000)
        assert by_name["mean_separation"]["bound"] == pytest.approx(
            eps / 32, abs=1e-8
        )

    def test_degenerate_flagged(self):
        rep = verify_theorem(AtomicDistribution([0.0], [1.0]), 1000, 0.05)
        assert rep["degenerate"]
        assert rep["conditions"] == []

    @pytest.mark.parametrize(
        "verifier", [verify_theorem, verify_neighborhood], ids=["theorem", "neighborhood"]
    )
    def test_out_of_regime_reported(self, verifier, two_point):
        # The library reports the regime and never refuses; only the CLI does.
        rep = verifier(two_point, 1000, 0.2)
        assert rep["regime"] == {"delta_ok": False, "ratio_ok": True}
        assert rep["meta"]["regime"] == rep["regime"]

    def test_report_schema(self, two_point):
        payload = verify_theorem(two_point, 1000, 0.05)
        assert set(payload) == {"claim", "conditions", "pass", "degenerate", "regime", "meta"}
        for cond in payload["conditions"]:
            assert set(cond) == {"name", "measured", "bound", "direction", "pass"}
            assert cond["direction"] in ("ge", "le")
            recomputed = (
                cond["measured"] >= cond["bound"]
                if cond["direction"] == "ge"
                else cond["measured"] <= cond["bound"]
            )
            assert recomputed == cond["pass"]
        assert set(payload["regime"]) == {"delta_ok", "ratio_ok"}


class TestConditionRows:
    """``_report`` widens each row's bound by its slack, then compares."""

    @pytest.mark.parametrize(
        "direction, bound, slack",
        [("ge", 0.1, harness.MEAN_SHIFT_TOL), ("le", 2.0, harness.RATIO_TOL)],
    )
    def test_boundary(self, direction, bound, slack):
        widened, beyond = (
            (bound - slack, -math.inf) if direction == "ge" else (bound + slack, math.inf)
        )
        rows = [
            ("at", widened, bound, slack, direction),
            ("past", math.nextafter(widened, beyond), bound, slack, direction),
        ]
        rep = harness._report("claim", {}, rows, {})
        at, past = rep["conditions"]
        assert at["bound"] == past["bound"] == widened
        assert at["pass"] and not past["pass"]
        assert not rep["pass"] and not rep["degenerate"]

    @pytest.mark.parametrize("name", corpus.names())
    def test_estimator_separation_repeats_mean_separation(self, name):
        # The same test twice: 2 * (eps / 64) == eps / 32 exactly in binary.
        p = corpus.build(name)
        for n, delta in itertools.product([10**3, 10**4, 10**5], [0.05, 0.01, 0.001]):
            by_name = {c["name"]: c for c in verify_theorem(p, n, delta)["conditions"]}
            est, sep = by_name["estimator_separation"], by_name["mean_separation"]
            assert (est["measured"], est["bound"]) == (sep["measured"], sep["bound"])


class TestVerifyNeighborhood:
    def test_case2_worked_example(self, two_point):
        rep = verify_neighborhood(two_point, 1000, 0.05)
        assert rep["pass"]
        by_name = {c["name"]: c for c in rep["conditions"]}
        expected_shift = (1 / 8) * math.sqrt(math.log(20.0) / 1000)
        eps = math.sqrt(4.5 * math.log(20.0) / 1000)
        assert by_name["mean_shift_within"]["measured"] == pytest.approx(
            expected_shift, abs=1e-12
        )
        assert by_name["mean_shift_within"]["bound"] == pytest.approx(eps, abs=1e-8)
        assert by_name["density_ratio"]["measured"] <= 1.0 + expected_shift + 1e-12

    def test_case1_error_transfer(self, asym_two_point):
        rep = verify_neighborhood(asym_two_point, 1000, 0.05)
        assert rep["pass"]
        by_name = {c["name"]: c for c in rep["conditions"]}
        assert by_name["error_transfer"]["bound"] == pytest.approx(100.0, abs=1e-6)
        # golden: at a third of the budget the partner's trimmed core
        # collapses to a point mass, so its bound is exactly its mean, 0.75
        assert by_name["error_transfer"]["measured"] == pytest.approx(0.75, abs=1e-12)
        assert rep["meta"]["composite_bound_p"] == pytest.approx(1.0, abs=1e-12)
        assert rep["meta"]["composite_bound_q"] == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("name", ["two_point_symmetric", "two_point_asymmetric"])
def test_each_core_is_trimmed_once(name, count_calls):
    d = corpus.build(name)
    calls = count_calls([distribution], "trim")
    counts = []
    for fn in (construct_q, verify_theorem, verify_neighborhood):
        calls.clear()
        fn(d, 1000, 0.05)
        counts.append(len(calls))
    # construct_q trims p at n; verify_neighborhood also trims q at n / 3 and
    # n, and p at n / 3, for the error transfer and composite bounds.
    assert counts == [1, 1, 4]


@pytest.mark.parametrize("verifier", [verify_theorem, verify_neighborhood])
def test_regime_flags_once_per_report(verifier, two_point, count_calls):
    # The report carries the flags the construction recorded.
    calls = count_calls([adversary, harness], "regime_flags")
    rep = verifier(two_point, 1000, 0.05)
    assert len(calls) == 1
    assert rep["regime"] == {"delta_ok": True, "ratio_ok": True}


def test_one_limb_table_per_lr_test(two_point, count_calls):
    calls = count_calls([harness], "_limbs")
    q = construct_q(two_point, 1000, 0.05).q
    lr_test_error(two_point, q, TrialConfig(n=100, delta=0.05, trials=4, seed=0))
    assert len(calls) == 1


@pytest.mark.parametrize("bench", ["bench_mom", "lr_test_error"])
def test_one_stream_per_trial(bench, two_point, count_calls):
    # The randomness contract: trial t draws only from the stream of
    # (cfg.seed, t), made once per trial.
    calls = count_calls([harness], "trial_stream")
    cfg = TrialConfig(n=140, delta=0.05, trials=6, seed=7)
    if bench == "bench_mom":
        bench_mom(two_point, cfg)
    else:
        lr_test_error(two_point, construct_q(two_point, 1000, 0.05).q, cfg)
    assert sorted(calls) == [(7, t) for t in range(6)]


@pytest.mark.parametrize("n", [1.5, 0.5, 1400.0])
def test_trial_config_refuses_non_integer_n(n):
    # A float n used to fail later, with a TypeError inside a trial.
    message = f"^sample count must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(DomainError, match=message):
        TrialConfig(n=n, delta=0.05, trials=4)


@pytest.mark.parametrize(
    "field, value, message",
    [("trials", 2.5, "trials must be a nonnegative integer, got 2.5"),
     ("trials", 0, "trials must lie in [1, {}], got 0"),
     ("seed", 0.5, "seed must be a nonnegative integer, got 0.5"),
     ("seed", -3, "seed must be a nonnegative integer, got -3")],
    ids=["float-trials", "zero-trials", "float-seed", "negative-seed"],
)
def test_trial_config_refuses_bad_trials_and_seed(field, value, message):
    # A float trials or seed used to fail later, with a TypeError.
    cfg = {"n": 100, "delta": 0.05, "trials": 4, "seed": 0, field: value}
    with pytest.raises(DomainError, match=f"^{re.escape(message.format(sys.maxsize))}$"):
        TrialConfig(**cfg)


class TestBenchMom:
    @pytest.mark.parametrize(
        "x, n",
        [(5.0, 100), (0.1, 42), (-11.029162254829288, 1400)],
        ids=["exact", "one-tenth", "rounds-below"],
    )
    def test_point_mass_never_fails(self, x, n):
        # The estimate may miss x by an ulp; that rounding is not a failure.
        d = AtomicDistribution([x], [1.0])
        cfg = TrialConfig(n=n, delta=0.05, trials=200, seed=0)
        rep = bench_mom(d, cfg)
        assert rep["failure_rate"] == 0.0
        assert rep["pass"]

    def test_two_point_smoke(self, two_point):
        cfg = TrialConfig(n=280, delta=0.05, trials=1000, seed=0)
        rep = bench_mom(two_point, cfg)
        assert rep["failure_rate"] <= rep["delta"] + rep["ci_halfwidth"]

    def test_insufficient_samples(self, two_point):
        with pytest.raises(DomainError, match=r"^need at least 14 samples for 14 groups, got 5$"):
            bench_mom(two_point, TrialConfig(n=5, delta=0.05, trials=10, seed=0))


class TestLrTestError:
    def test_identical_distributions_coin_flip(self, two_point):
        cfg = TrialConfig(n=50, delta=0.05, trials=2000, seed=0)
        rep = lr_test_error(two_point, two_point, cfg)
        assert rep["empirical_error"] == pytest.approx(0.5, abs=0.05)

    def test_disjoint_supports_perfect_test(self):
        p = AtomicDistribution([0.0], [1.0])
        q = AtomicDistribution([1.0], [1.0])
        cfg = TrialConfig(n=1, delta=0.05, trials=500, seed=0)
        rep = lr_test_error(p, q, cfg)
        assert rep["empirical_error"] == 0.0

    def test_constructed_pair_hard_to_distinguish(self, two_point):
        q = construct_q(two_point, 1000, 0.05).q
        cfg = TrialConfig(n=1000, delta=0.05, trials=2000, seed=0)
        rep = lr_test_error(two_point, q, cfg)
        assert rep["empirical_error"] >= rep["delta_floor"]

    def test_partially_overlapping_supports(self):
        # Atom 0.0 is p's alone and 3.0 is q's alone, so some trials of each
        # half sum finite log ratios with one infinite one and others stay
        # finite; the rates must match the reference, trial for trial.
        p = AtomicDistribution([0.0, 1.0, 2.0], [0.01, 0.495, 0.495])
        q = AtomicDistribution([1.0, 2.0, 3.0], [0.5, 0.49, 0.01])
        cfg = TrialConfig(n=20, delta=0.05, trials=400, seed=0)
        half = cfg.trials // 2
        halves = ((p, 0.0, range(half)), (q, 3.0, range(half, cfg.trials)))
        for source, lone, trials in halves:
            hits = sum((sample(source, cfg.n, trial_stream(0, t)) == lone).any() for t in trials)
            assert 0 < hits < half
        rep = lr_test_error(p, q, cfg)
        wrong = lr_wrong_reversed(p, q, cfg)
        assert (rep["type_i"], rep["type_ii"]) == (
            sum(wrong[:half]) / half,
            sum(wrong[half:]) / half,
        )

    def test_ties_take_the_coin(self):
        # Shared atoms of equal mass log-ratio to 0 and the others to
        # +-log 2, so a trial ties whenever it draws -1 and 1 equally often.
        p = AtomicDistribution([-1.0, 0.0, 1.0], [0.5, 0.25, 0.25])
        q = AtomicDistribution([-1.0, 0.0, 1.0], [0.25, 0.25, 0.5])
        cfg = TrialConfig(n=4, delta=0.05, trials=400, seed=0)
        half = cfg.trials // 2
        ties = sum(
            math.fsum(np.sign(sample(p, cfg.n, trial_stream(0, t))).tolist()) == 0.0
            for t in range(half)
        )
        assert 0 < ties < half
        rep = lr_test_error(p, q, cfg)
        wrong = lr_wrong_reversed(p, q, cfg)
        assert (rep["type_i"], rep["type_ii"]) == (
            sum(wrong[:half]) / half,
            sum(wrong[half:]) / half,
        )

    def test_memory_bounded_in_n(self):
        # Draws come in fixed chunks: ten times the draws per trial leave
        # the peak where it was, far below the 8 MB of 10^6 floats.
        p = corpus.build("pareto_15")
        q = construct_q(p, 1000, 0.05).q

        def peak(n):
            lr_test_error(p, q, TrialConfig(n=n, delta=0.05, trials=2, seed=0))
            tracemalloc.start()
            try:
                lr_test_error(p, q, TrialConfig(n=n, delta=0.05, trials=2, seed=0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10**5), peak(10**6)
        assert large <= small + 64 * 1024
        assert large < 8 * 10**6 // 2

    @pytest.mark.parametrize("name", corpus.names())
    def test_matches_per_trial_reference(self, name):
        # 37 trials per half: neither half is a whole number of blocks.
        p = corpus.build(name)
        q = construct_q(p, 1000, 0.05).q
        cfg = TrialConfig(n=1000, delta=0.05, trials=74, seed=3)
        rep = lr_test_error(p, q, cfg)
        wrong = lr_wrong_reversed(p, q, cfg)
        assert (rep["type_i"], rep["type_ii"]) == (sum(wrong[:37]) / 37, sum(wrong[37:]) / 37)

    def test_odd_trials_rejected(self, two_point):
        with pytest.raises(DomainError):
            lr_test_error(
                two_point, two_point, TrialConfig(n=10, delta=0.05, trials=11, seed=0)
            )


class TestExactLrError:
    """On two atoms the LR statistic depends only on a binomial count, so the
    test's error has an exact value to hold the Monte Carlo to."""

    @pytest.mark.parametrize("name", ["two_point_symmetric", "two_point_asymmetric"])
    def test_monte_carlo_and_le_cam(self, name):
        p = corpus.build(name)
        q = construct_q(p, 1000, 0.05).q
        exact = float(exact_lr_error(p, q, 1000))
        rep = lr_test_error(p, q, TrialConfig(n=1000, delta=0.05, trials=2000, seed=0))
        assert abs(rep["empirical_error"] - exact) <= rep["ci_halfwidth"]
        # Le Cam: the error is at least (1 - TV(p^n, q^n)) / 2, and
        # TV^2 <= 1 - BC^(2n) with BC = 1 - hellinger_sq.
        bc = 1.0 - hellinger_sq(p, q)
        assert exact >= 0.5 * (1.0 - math.sqrt(1.0 - bc ** (2 * 1000)))

    def test_identical_pair_is_a_coin(self, two_point):
        # every statistic is 0, so every trial is a tie
        assert exact_lr_error(two_point, two_point, 7) == Fraction(1, 2)


class TestExactMomMiss:
    """On two atoms each group mean depends only on a binomial count, so the
    median of means misses with a probability bracketed exactly."""

    @pytest.mark.parametrize(
        "name, bracket",
        [("two_point_symmetric", (5.448555245213503e-19, 3.5354664016897337e-16)),
         ("two_point_asymmetric", (1.1946187468633985e-05, 1.3275494984107023e-04))],
    )
    def test_criterion_4_config(self, name, bracket):
        p = corpus.build(name)
        rep = bench_mom(p, TrialConfig(n=1400, delta=0.05, trials=2000, seed=0))
        limit = rep["bound"] + harness.MOM_ROUNDING_TOL * float(np.abs(p.xs).max())
        lower, upper = mom_miss_bracket(p, 1400, 0.05, limit)
        assert (float(lower), float(upper)) == pytest.approx(bracket, rel=1e-12)
        assert upper <= 0.05
        halfwidth = rep["ci_halfwidth"]
        assert lower - halfwidth <= rep["failure_rate"] <= upper + halfwidth

    @pytest.mark.parametrize("n, delta", [(14, 0.5), (13, 0.6)], ids=["even-k", "odd-k"])
    def test_brackets_every_draw_sequence(self, n, delta):
        # Weigh every sequence of n draws exactly and run the estimator on it;
        # 4 groups at delta=0.5 and 3 at delta=0.6.
        p = AtomicDistribution([0.0, 1.0], [0.6, 0.4])
        limit = 0.2
        grid = 1 << 53
        a = math.ceil(Fraction(p.ws[0]) * grid)
        missed = 0
        for seq in itertools.product([0.0, 1.0], repeat=n):
            if abs(median_of_means(list(seq), delta) - p.mean) > limit:
                j = seq.count(0.0)
                missed += a**j * (grid - a) ** (n - j)
        exact = Fraction(missed, grid**n)
        lower, upper = mom_miss_bracket(p, n, delta, limit)
        assert 0 < lower <= exact <= upper < 1
        assert lower < upper if group_count(delta) % 2 == 0 else lower == upper

    def test_sampled_rate_matches_odd_k(self):
        # With 3 groups the bracket is the exact miss probability of a trial.
        p = AtomicDistribution([0.0, 1.0], [0.6, 0.4])
        n, delta, limit, trials = 40, 0.6, 0.15, 2000
        rate = sum(
            abs(median_of_means(sample(p, n, trial_stream(0, t)), delta) - p.mean) > limit
            for t in range(trials)
        ) / trials
        lower, upper = mom_miss_bracket(p, n, delta, limit)
        assert lower == upper
        exact = float(upper)
        assert abs(rate - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / trials)


def _decision(lam):
    """What a trial does with its statistic: ``(tie, decide_q)``."""
    return lam == 0, lam > 0


log_terms = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.1, 0.2, -0.3, 5e-324]),
)


class TestCountedLrStatistic:
    """The count-based statistic decides every trial as ``fsum`` of the
    drawn log ratios does."""

    @staticmethod
    def _counted(table, idx):
        counts = np.bincount(idx, minlength=len(table))
        return harness._fold((counts @ harness._limbs(np.array(table))).tolist())

    @given(st.lists(log_terms, min_size=1, max_size=12), st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_fsum_decision(self, table, data):
        idx = data.draw(
            st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=30)
        )
        terms = [table[i] for i in idx]
        try:
            expected = math.fsum(terms)
        except ValueError:  # both +inf and -inf drawn
            with pytest.raises(ValueError):
                self._counted(table, idx)
            return
        got = self._counted(table, idx)
        assert _decision(got) == _decision(expected)
        if math.isfinite(expected):
            exact = sum(map(Fraction, terms))
            assert (got > 0, got < 0) == (exact > 0, exact < 0)
        else:
            assert got == expected

    def test_exact_cancellation_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = float(rng.normal() * 10.0 ** rng.integers(-17, 3))
            table = [a, -a, 0.0, a / 3.0]
            idx = rng.integers(0, len(table), size=int(rng.integers(1, 7)))
            assert _decision(self._counted(table, idx)) == _decision(
                math.fsum(np.array(table)[idx].tolist())
            )

    @given(st.lists(log_terms, min_size=1, max_size=12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_finite_rows_ignore_infinite_ones(self, table, data):
        # lr_test_error splits one union table by source.  Each source keeps
        # every finite row and some infinite ones, and its rows are those of
        # its own table: infinities set neither the grid nor the width.
        keep = [math.isfinite(t) or data.draw(st.booleans()) for t in table]
        assume(any(keep))
        own = harness._limbs(np.array([t for t, k in zip(table, keep) if k]))
        assert np.array_equal(harness._limbs(np.array(table))[np.array(keep)], own)

    def test_chunked_draws_match_one_draw(self):
        # Past one row's chunk share, each row decides as fsum over one draw
        # of n and leaves its stream where that draw does, for the tie coin.
        d = corpus.build("gaussian_grid")
        table = np.linspace(-3.0, 3.0, d.num_atoms) ** 3
        rows = 5
        n = harness._CHUNK // rows + 12_345
        blocked = [trial_stream(5, t) for t in range(rows)]
        whole = [trial_stream(5, t) for t in range(rows)]
        wrong = harness._lr_errs(
            d, harness._limbs(table), n, False, np.empty(harness._CHUNK), blocked
        )
        for got, b, w in zip(wrong, blocked, whole):
            expected = math.fsum(table[d._inverse_cdf(w.random(n))].tolist())
            assert expected != 0.0  # no coin drawn
            assert got == _decision(expected)[1]
            assert b.random() == w.random()


class TestAsymptoticScan:
    def test_two_point_constant(self, two_point):
        rows = asymptotic_scan(two_point, 0.05, [1000, 5000, 10**4, 10**5])
        for row in rows:
            assert row["normalized"] == pytest.approx(math.sqrt(4.5), abs=1e-12)

    def test_point_mass_zero(self):
        rows = asymptotic_scan(AtomicDistribution([1.0], [1.0]), 0.05, [1000, 10**4])
        assert all(row["normalized"] == 0.0 for row in rows)

    def test_asymmetric_decreases_once_tail_survives(self, asym_two_point):
        import advmean

        rows = asymptotic_scan(asym_two_point, 0.05, [1000, 10**4, 10**5, 10**6])
        # once the far atom is only partially trimmed (t < 0.001, so n above
        # ~1348 here) the normalized error decreases toward the
        # finite-variance limit sqrt(4.5) * sigma_p
        limit = math.sqrt(4.5) * math.sqrt(asym_two_point.variance)
        tail = [row["normalized"] for row in rows[1:]]
        assert tail[0] > tail[1] > tail[2] > limit
        assert tail[2] == pytest.approx(limit, rel=0.02)
        golden = [
            18.270418733442703,
            70.15597396647178,
            69.05648865093443,
            67.78146210510617,
        ]
        assert [row["normalized"] for row in rows] == pytest.approx(
            golden, rel=1e-12
        )


class TestCorpus:
    def test_membership(self):
        members = corpus.all_members()
        assert len(members) == 6
        assert members["two_point_symmetric"].mean == 0.0
        assert members["gaussian_grid"].num_atoms == 201
        assert members["pareto_15"].num_atoms == 200
        assert members["pareto_25"].num_atoms == 200
        assert members["contaminated_gaussian"].num_atoms == 50

    def test_pareto_means_closed_form(self):
        assert corpus.build("pareto_15").mean == pytest.approx(3.0, rel=1e-12)
        assert corpus.build("pareto_25").mean == pytest.approx(5 / 3, rel=1e-12)

    def test_contaminated_gaussian_mass_split(self):
        d = corpus.build("contaminated_gaussian")
        assert d.atoms[-1] == (50.0, pytest.approx(0.01, abs=1e-15))
