"""Acceptance suite.

Each criterion prints one pass/fail line; the whole suite is the exit gate.
Grid: the six corpus members, n in {1e3, 1e4, 1e5}, delta in
{0.05, 0.01, 0.001}, restricted to log(1/delta)/n <= 0.01.
"""

import functools
import itertools
import math

import numpy as np

from advmean import (
    AtomicDistribution,
    TrialConfig,
    asymptotic_scan,
    bench_mom,
    construct_q,
    hellinger_sq,
    lr_test_error,
    median_of_means,
    sample,
    standard_trim,
    trim,
    verify_neighborhood,
    verify_theorem,
)
from advmean import corpus

from oracles import (
    bhattacharyya,
    brute_force_trim,
    lr_wrong_reversed,
    skew_masses,
    trial_stream_reference,
)

N_GRID = [10**3, 10**4, 10**5]
DELTA_GRID = [0.05, 0.01, 0.001]
MEMBERS = corpus.all_members()


def grid():
    for n, delta in itertools.product(N_GRID, DELTA_GRID):
        if math.log(1.0 / delta) / n <= 0.01:
            yield n, delta


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} [{name}] failed{suffix}"


def test_criterion_1_pair_guarantees_on_grid():
    failures = []
    cells = 0
    for (name, d), (n, delta) in itertools.product(MEMBERS.items(), grid()):
        cells += 1
        rep = verify_theorem(d, n, delta)
        if rep["degenerate"] or not rep["pass"]:
            failures.append((name, n, delta))
    report(
        1,
        "pair guarantees on corpus grid",
        not failures,
        f"{cells} cells, failures: {failures}",
    )


def test_criterion_2_worked_example_exactness():
    case1 = construct_q(MEMBERS["two_point_asymmetric"], 1000, 0.05).meta
    shift_ok = abs(case1["diagnostics"]["mean_shift"] - 0.25) <= 1e-12
    ratio_ok = case1["diagnostics"]["sup_ratio"] <= 1.001

    case2 = construct_q(MEMBERS["two_point_symmetric"], 1000, 0.05).meta
    a_expected = (1 / 8) * math.sqrt(math.log(20.0) / 1000)
    a_ok = abs(case2["a"] - a_expected) <= 1e-10
    mu_ok = abs(case2["diagnostics"]["mean_shift"] - case2["a"]) <= 1e-12

    report(
        2,
        "worked-example exactness",
        shift_ok and ratio_ok and a_ok and mu_ok,
        f"shift={case1['diagnostics']['mean_shift']!r}, a={case2['a']!r}",
    )


def test_criterion_3_neighborhood_on_grid():
    failures = []
    cells = 0
    for (name, d), (n, delta) in itertools.product(MEMBERS.items(), grid()):
        cells += 1
        rep = verify_neighborhood(d, n, delta)
        if rep["degenerate"] or not rep["pass"]:
            failures.append((name, n, delta))
    report(
        3,
        "neighborhood membership on corpus grid",
        not failures,
        f"{cells} cells, failures: {failures}",
    )


BENCH_CFG = TrialConfig(n=1400, delta=0.05, trials=20000, seed=0)
LR_CFG = TrialConfig(n=1000, delta=0.05, trials=20000, seed=0)


@functools.cache
def _bench_reports():
    return {
        name: bench_mom(MEMBERS[name], BENCH_CFG)
        for name in ("two_point_symmetric", "pareto_15")
    }


def test_criterion_4_median_of_means_failure_rate():
    reports = _bench_reports()
    limit = BENCH_CFG.delta + 3 * math.sqrt(0.05 * 0.95 / 20000)
    ok = all(rep["failure_rate"] <= limit for rep in reports.values())
    rates = {name: rep["failure_rate"] for name, rep in reports.items()}
    report(4, "median-of-means failure rate", ok, f"rates={rates}, limit={limit:.4f}")


@functools.cache
def _lr_pairs():
    return {
        name: (d, construct_q(d, LR_CFG.n, LR_CFG.delta).q)
        for name, d in MEMBERS.items()
    }


@functools.cache
def _lr_reports():
    return {name: lr_test_error(p, q, LR_CFG) for name, (p, q) in _lr_pairs().items()}


def test_criterion_5_lr_test_floor():
    floor = LR_CFG.delta - 3 * math.sqrt(0.25 / 20000)
    reports = _lr_reports()
    ok = all(rep["empirical_error"] >= floor for rep in reports.values())
    errors = {name: round(rep["empirical_error"], 4) for name, rep in reports.items()}
    report(5, "likelihood-ratio error floor", ok, f"errors={errors}, floor={floor:.4f}")


def test_criterion_6_asymptotic_constant():
    target = 2.1213203435596424  # sqrt(4.5)
    rows = asymptotic_scan(
        MEMBERS["two_point_symmetric"], 0.05, [10**3, 2000, 5000, 10**4, 10**5]
    )
    worst = max(abs(row["normalized"] - target) for row in rows)
    report(6, "asymptotic constant sqrt(4.5)", worst <= 1e-12, f"worst dev={worst:.2e}")


def test_criterion_7_trim_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    worst_radius = 0.0
    worst_mass = 0.0
    for _ in range(1000):
        n_atoms = int(rng.integers(1, 11))
        positions = rng.choice(np.arange(-200, 201), size=n_atoms, replace=False)
        masses = rng.random(n_atoms) + 0.01
        d = AtomicDistribution(np.sort(positions) * 0.25, masses / masses.sum())
        t = float(rng.random() * 0.1)
        fast = trim(d, t)
        slow = brute_force_trim(d, t)
        worst_radius = max(worst_radius, abs(fast.radius - slow.radius))
        worst_mass = max(
            worst_mass,
            float(np.max(np.abs(d.ws * fast.kept_fractions - d.ws * slow.kept_fractions))),
        )
    ok = worst_radius <= 1e-12 and worst_mass <= 1e-12
    report(
        7,
        "trimming oracle equivalence",
        ok,
        f"worst radius dev={worst_radius:.2e}, worst mass dev={worst_mass:.2e}",
    )


def test_criterion_8_structural_identities():
    problems = []
    for (name, d), (n, delta) in itertools.product(MEMBERS.items(), grid()):
        meta = construct_q(d, n, delta).meta
        if meta["case"] == "small_mean_shift":
            masses = [math.fsum(side) for side in skew_masses(d, meta["a"])]
            if abs(sum(masses) - 2.0) > 1e-12:
                problems.append(("mass-sum", name, n, delta))
            if meta["b"] != 1.0 / max(masses):
                problems.append(("b-mass", name, n, delta))
            if not 0.5 - 1e-12 <= meta["b"] <= 1.0 + 1e-12:
                problems.append(("b-range", name, n, delta))
        else:
            core = standard_trim(d, n, delta).trimmed
            gap = abs(
                math.fsum((d.ws * d.xs).tolist())
                - math.fsum((core.ws * core.xs).tolist())
            )
            shift = meta["diagnostics"]["mean_shift"]
            if abs(shift - gap / 4) > 1e-10 * max(gap, 1e-300):
                problems.append(("interpolation", name, n, delta))

    rng = np.random.default_rng(4242)
    for _ in range(1000):
        size_p = int(rng.integers(1, 8))
        size_q = int(rng.integers(1, 8))
        shared = np.arange(-10, 11)
        xs_p = np.sort(rng.choice(shared, size=size_p, replace=False)).astype(float)
        xs_q = np.sort(rng.choice(shared, size=size_q, replace=False)).astype(float)
        wp = rng.random(size_p) + 0.01
        wq = rng.random(size_q) + 0.01
        p = AtomicDistribution(xs_p, wp / wp.sum())
        q = AtomicDistribution(xs_q, wq / wq.sum())
        h = hellinger_sq(p, q)
        if h != hellinger_sq(q, p):
            problems.append(("symmetry", size_p, size_q))
        if not 0.0 <= h <= 1.0 + 1e-15:
            problems.append(("range", h))
        if abs(bhattacharyya(p, q) + h - 1.0) > 1e-12:
            problems.append(("complement", h))
    report(8, "structural identities", not problems, f"problems={problems[:4]}")


def _mom_fails_reversed(p, cfg, mu_p, bound):
    """Each trial's miss, recomputed on its own stream, last trial first."""
    fails = []
    for t in reversed(range(cfg.trials)):
        est = median_of_means(sample(p, cfg.n, trial_stream_reference(cfg.seed, t)), cfg.delta)
        fails.append(abs(est - mu_p) > bound)
    return fails


def test_criterion_9_trial_outcomes_depend_only_on_seed_and_index():
    # Every trial of the criterion-4 and criterion-5 reports is recomputed on
    # its own, last trial first; the rates must match the reports exactly.
    mismatches = []
    for name, rep in _bench_reports().items():
        fails = _mom_fails_reversed(MEMBERS[name], BENCH_CFG, rep["mu_p"], rep["bound"])
        if sum(fails) / BENCH_CFG.trials != rep["failure_rate"]:
            mismatches.append(("bench_mom", name))
    half = LR_CFG.trials // 2
    for name, rep in _lr_reports().items():
        wrong = lr_wrong_reversed(*_lr_pairs()[name], LR_CFG)
        rates = (sum(wrong[:half]) / half, sum(wrong[half:]) / half)
        if rates != (rep["type_i"], rep["type_ii"]):
            mismatches.append(("lr_test_error", name))
    report(
        9,
        "trial outcomes depend only on (seed, trial)",
        not mismatches,
        f"mismatches={mismatches}",
    )
