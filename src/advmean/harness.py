"""Experiment harness: seeded sampling, claim verifiers, and Monte-Carlo
benchmarks.

The verifiers report the regime flags of ``(n, delta)`` and never refuse a
budget outside the asserted regime; only the CLI does.

Randomness contract
-------------------
Every trial draws from its own counter-based stream, a Philox generator
keyed by ``SeedSequence([seed, trial_index])``.  A trial's outcome therefore
depends only on ``(seed, trial_index)``: trials share no state, the order
they run in does not matter, and identical configs reproduce
bitwise-identical reports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .adversary import _require_partner, construct_q, pair_diagnostics, regime_flags
from .distribution import (
    AtomicDistribution,
    CoreStats,
    align,
    check_budget,
    core_stats,
    epsilon,
    variance,
)
from .errors import DegenerateError, DomainError, InsufficientSamplesError
from .estimators import group_count, median_of_means

# Assertion slacks, folded into the reported bounds.
MEAN_SHIFT_TOL = 1e-9
HELLINGER_TOL = 1e-12
RATIO_TOL = 1e-12
VARIANCE_TOL = 1e-9
ERROR_TRANSFER_TOL = 1e-9
SHIFT_UPPER_TOL = 1e-9

# Rounding allowed to a median-of-means estimate, relative to p's largest |x|
# and kept out of bench_mom's reported bound: the worst miss measured on
# constant samples was 1 ulp (2.1e-16 of |x|, 20,000 random (x, n, delta)).
MOM_ROUNDING_TOL = 1e-14

ERROR_TRANSFER_FACTOR = 100.0
SAMPLE_SHRINK = 3.0  # error transfer is checked at n / SAMPLE_SHRINK


@dataclass(frozen=True)
class TrialConfig:
    """Seeded Monte-Carlo configuration."""

    n: int
    delta: float
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n!r}")
        check_budget(self.n, self.delta)
        if not 1 <= self.trials <= sys.maxsize:
            raise DomainError(
                f"trials must lie in [1, {sys.maxsize}], got {self.trials!r}"
            )
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Independent counter-based stream for one trial."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, trial])))


def _cdf(d: AtomicDistribution) -> np.ndarray:
    """Cumulative masses with the last interval closed at exactly 1.0, so
    cumulative rounding can never leave a uniform draw past the last atom."""
    cum = np.cumsum(d.ws)
    cum[-1] = 1.0
    return cum


def _draw(cum: np.ndarray, count: int, stream: np.random.Generator) -> np.ndarray:
    """Inverse-CDF atom indices: a uniform in [0, 1) selects the atom whose
    cumulative-mass interval contains it."""
    return np.searchsorted(cum, stream.random(count), side="right")


def sample(d: AtomicDistribution, count: int, stream: np.random.Generator) -> np.ndarray:
    """``count`` inverse-CDF draws from ``d`` as a 1-d float array."""
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count!r}")
    return d.xs[_draw(_cdf(d), count, stream)]


# ---------------------------------------------------------------------------
# Claim verifiers
# ---------------------------------------------------------------------------
#
# A verifier returns its report as the plain dict the CLI serializes:
# ``claim``, ``conditions``, ``pass``, ``degenerate``, ``regime`` and
# ``meta``.  Each condition is ``{name, measured, bound, direction, pass}``
# with ``direction`` "ge" or "le".


def _condition(name: str, measured: float, bound: float, direction: str) -> dict:
    passed = measured >= bound if direction == "ge" else measured <= bound
    return {
        "name": name,
        "measured": measured,
        "bound": bound,
        "direction": direction,
        "pass": passed,
    }


def _report(claim: str, regime: dict, conditions: tuple, meta: dict) -> dict:
    """``pass`` is the conjunction of the condition checks.  A report whose
    ``meta`` gives a ``reason`` is degenerate: it has no conditions, so
    ``pass`` holds vacuously, and callers refuse it by its flag."""
    return {
        "claim": claim,
        "conditions": list(conditions),
        "pass": all(c["pass"] for c in conditions),
        "degenerate": "reason" in meta,
        "regime": regime,
        "meta": meta,
    }


def _closeness_conditions(diag: dict, n: int, delta: float) -> tuple[dict, dict]:
    """The ``hellinger_closeness`` condition ``log(1 - h_sq) >= log(4 delta)
    / (2n)``, its left side ``-inf`` once ``h_sq`` reaches 1, and the
    ``density_ratio`` condition ``sup dq/dp <= 2``."""
    one_minus = 1.0 - diag["hellinger_sq"]
    log_one_minus = math.log(one_minus) if one_minus > 0.0 else -math.inf
    rhs = math.log(4.0 * delta) / (2.0 * n)
    return (
        _condition("hellinger_closeness", log_one_minus, rhs - HELLINGER_TOL, "ge"),
        _condition("density_ratio", diag["sup_ratio"], 2.0 + RATIO_TOL, "le"),
    )


def _pair_conditions(
    q: AtomicDistribution, n: int, delta: float, stats: CoreStats, diag: dict
) -> tuple[dict, ...]:
    eps_p = stats.eps
    closeness, ratio = _closeness_conditions(diag, n, delta)
    return (
        _condition(
            "mean_separation",
            diag["mean_shift"],
            eps_p / 32.0 - MEAN_SHIFT_TOL,
            "ge",
        ),
        closeness,
        ratio,
        _condition(
            "variance_doubling",
            variance(q),
            2.0 * stats.var + VARIANCE_TOL * (1.0 + stats.var),
            "le",
        ),
        _condition(
            "estimator_separation",
            diag["mean_shift"],
            2.0 * (eps_p / 64.0) - MEAN_SHIFT_TOL,
            "ge",
        ),
    )


def verify_pair(
    p: AtomicDistribution, q: AtomicDistribution, n: int, delta: float
) -> dict:
    """The separation/indistinguishability report for an explicit pair; a
    ``p`` that :func:`construct_q` would refuse gets the degenerate report."""
    flags = regime_flags(n, delta)
    stats = core_stats(p, n, delta)
    try:
        _require_partner(p, stats)
    except DegenerateError as exc:
        meta = {"mode": "pair", "reason": str(exc)}
        return _report("indistinguishable_pair", flags, (), meta)
    conditions = _pair_conditions(q, n, delta, stats, pair_diagnostics(p, q, stats))
    return _report("indistinguishable_pair", flags, conditions, {"mode": "pair"})


def verify_theorem(p: AtomicDistribution, n: int, delta: float) -> dict:
    """Construct the partner of ``p`` and check the separation, Hellinger,
    density-ratio, and variance guarantees at their stated tolerances."""
    try:
        res = construct_q(p, n, delta)
    except DegenerateError as exc:
        meta = {"reason": str(exc)}
        return _report("indistinguishable_pair", regime_flags(n, delta), (), meta)
    conditions = _pair_conditions(res.q, n, delta, res.stats, res.meta["diagnostics"])
    return _report(
        "indistinguishable_pair", res.meta["regime"], conditions, res.meta_dict()
    )


def verify_neighborhood(p: AtomicDistribution, n: int, delta: float) -> dict:
    """Check that the constructed partner lies in the neighborhood of ``p``:
    bounded error transfer at a third of the sample budget, Hellinger
    closeness, mean shift within the error bound, and density ratio at most 2.
    The composite bound ``min(eps(n/3), eps(n))`` is recorded for both
    endpoints."""
    try:
        res = construct_q(p, n, delta)
    except DegenerateError as exc:
        meta = {"reason": str(exc)}
        return _report("neighborhood_membership", regime_flags(n, delta), (), meta)
    eps_p, diag = res.stats.eps, res.meta["diagnostics"]
    eps_q_shrunk = epsilon(res.q, n / SAMPLE_SHRINK, delta)
    closeness, ratio = _closeness_conditions(diag, n, delta)
    conditions = (
        _condition(
            "error_transfer",
            eps_q_shrunk,
            ERROR_TRANSFER_FACTOR * eps_p + ERROR_TRANSFER_TOL,
            "le",
        ),
        closeness,
        _condition(
            "mean_shift_within",
            diag["mean_shift"],
            eps_p + SHIFT_UPPER_TOL,
            "le",
        ),
        ratio,
    )
    meta = res.meta_dict()
    meta["composite_bound_p"] = min(epsilon(p, n / SAMPLE_SHRINK, delta), eps_p)
    meta["composite_bound_q"] = min(eps_q_shrunk, epsilon(res.q, n, delta))
    return _report("neighborhood_membership", res.meta["regime"], conditions, meta)


# ---------------------------------------------------------------------------
# Monte-Carlo benchmarks
# ---------------------------------------------------------------------------


def bench_mom(p: AtomicDistribution, cfg: TrialConfig) -> dict:
    """Measure how often the median-of-means misses its error budget
    ``|mu - mu*| + 3 sigma* sqrt(4.5 log(1/delta) / n)`` by more than its
    rounding (``MOM_ROUNDING_TOL``); passes when the failure rate stays
    within ``delta`` plus a 3-sigma binomial half-width."""
    k = group_count(cfg.delta)
    if cfg.n < k:
        raise InsufficientSamplesError(k, cfg.n)
    stats = core_stats(p, cfg.n, cfg.delta)
    mu_p = stats.mu
    bound = stats.gap + 3.0 * stats.sigma_star * stats.rate
    limit = bound + MOM_ROUNDING_TOL * float(np.abs(p.xs).max())

    def one_trial(t: int) -> bool:
        stream = trial_stream(cfg.seed, t)
        est = median_of_means(sample(p, cfg.n, stream), cfg.delta)
        return abs(est - mu_p) > limit

    failure_rate = sum(map(one_trial, range(cfg.trials))) / cfg.trials
    ci_halfwidth = 3.0 * math.sqrt(cfg.delta * (1.0 - cfg.delta) / cfg.trials)
    return {
        "kind": "bench_mom",
        "n": cfg.n,
        "delta": cfg.delta,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "mu_p": mu_p,
        "bound": bound,
        "failure_rate": failure_rate,
        "ci_halfwidth": ci_halfwidth,
        "pass": failure_rate <= cfg.delta + ci_halfwidth,
    }


def _log_ratio_tables(
    p: AtomicDistribution, q: AtomicDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom log-likelihood ratios log(q/p), aligned with each source's
    atoms.  Missing mass yields -inf (drawn only under p) or +inf (only
    under q)."""
    _, wp, wq = align(p, q)
    # math.log, not np.log: they differ in the last bit on some inputs.
    table = np.array(
        [
            -math.inf if mq == 0.0 else math.inf if mp == 0.0 else math.log(mq / mp)
            for mp, mq in zip(wp.tolist(), wq.tolist())
        ]
    )
    return table[wp > 0.0], table[wq > 0.0]


def lr_test_error(
    p: AtomicDistribution,
    q: AtomicDistribution,
    cfg: TrialConfig,
) -> dict:
    """Equal-prior error of the likelihood-ratio test between ``p`` and ``q``.

    The first half of the trials draws from ``p``, the second from ``q``;
    each trial decides ``q`` when the summed log ratio is positive, breaking
    exact ties with an unbiased coin from the trial's stream.  Passes when
    the empirical error is at least ``delta`` minus a 3-sigma half-width, the
    direction guaranteed for indistinguishable pairs.
    """
    if cfg.trials % 2 != 0:
        raise DomainError("trial count must be even (half per source)")
    table_p, table_q = _log_ratio_tables(p, q)
    half = cfg.trials // 2
    cum_p, cum_q = _cdf(p), _cdf(q)

    def one_trial(t: int) -> bool:
        from_p = t < half
        cum, table = (cum_p, table_p) if from_p else (cum_q, table_q)
        stream = trial_stream(cfg.seed, t)
        # fsum is -inf or +inf once any term is; table_p holds no +inf and
        # table_q no -inf, so one trial never sums both.
        lam = math.fsum(table[_draw(cum, cfg.n, stream)].tolist())
        if lam == 0.0:
            decide_q = stream.random() < 0.5
        else:
            decide_q = lam > 0.0
        return decide_q if from_p else not decide_q

    type_i = sum(map(one_trial, range(half))) / half
    type_ii = sum(map(one_trial, range(half, cfg.trials))) / half
    empirical_error = 0.5 * (type_i + type_ii)
    ci_halfwidth = 3.0 * math.sqrt(0.25 / cfg.trials)
    return {
        "kind": "lr_test_error",
        "n": cfg.n,
        "delta": cfg.delta,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "type_i": type_i,
        "type_ii": type_ii,
        "empirical_error": empirical_error,
        "ci_halfwidth": ci_halfwidth,
        "delta_floor": cfg.delta - ci_halfwidth,
        "pass": empirical_error >= cfg.delta - ci_halfwidth,
    }


def asymptotic_scan(
    p: AtomicDistribution, delta: float, n_list: list[int]
) -> list[dict]:
    """Tabulate the error bound and its normalized form
    ``epsilon * sqrt(n / log(1/delta))`` across sample counts."""
    rows = []
    for n in n_list:
        eps = epsilon(p, n, delta)  # validates (n, delta) before the log below
        rows.append(
            {
                "n": n,
                "delta": delta,
                "epsilon": eps,
                "normalized": eps * math.sqrt(n / math.log(1.0 / delta)),
            }
        )
    return rows
