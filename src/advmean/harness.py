"""Experiment harness: seeded sampling, claim verifiers, and Monte-Carlo
benchmarks.

Verification reports
--------------------
A verifier returns its report as the plain dict the CLI serializes:
``claim``, ``conditions``, ``pass``, ``degenerate``, ``regime`` and ``meta``.
Each checked guarantee is a row ``(name, measured, bound, slack,
direction)``: ``bound`` is the paper's, ``slack`` one of the ``*_TOL``
assertion tolerances, and ``direction`` "ge" or "le".  Only ``_report``
applies the slack.  It reports the widened bound, ``bound - slack`` for "ge"
and ``bound + slack`` for "le", and ``pass`` compares ``measured`` to it.
The verifiers report the regime flags of ``(n, delta)`` and never refuse a
budget outside the asserted regime; only the CLI does.

Randomness contract
-------------------
Every trial draws from its own counter-based stream, a Philox generator
keyed by ``SeedSequence([seed, trial_index])``.  A trial's outcome therefore
depends only on ``(seed, trial_index)``: trials share no state, the order
they run in does not matter, and identical configs reproduce
bitwise-identical reports.  One loop, ``_trial_rate``, keeps this contract:
it alone calls :func:`trial_stream`, and each benchmark passes it only a
trial's outcome on a stream (``bench_mom`` a missed budget, ``lr_test_error``
a wrong decision, run once over each source's half of the trials).

A draw maps uniforms to atoms by ``AtomicDistribution._inverse_cdf``, an
exact guide-table form of ``searchsorted(cum, u, side="right")``.  The LR
test counts its draws per atom, in chunks of ``_CHUNK``, and sums the counts
against exact integer limbs of the log ratios (``_limbs``), so each trial
gets the sign and zero test of ``fsum`` in memory that does not grow with n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

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

# Assertion slacks: the slack column of the verifiers' condition rows.
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


def sample(d: AtomicDistribution, count: int, stream: np.random.Generator) -> np.ndarray:
    """``count`` inverse-CDF draws from ``d`` as a 1-d float array."""
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count!r}")
    return d.xs[d._inverse_cdf(stream.random(count))]


# ---------------------------------------------------------------------------
# Claim verifiers
# ---------------------------------------------------------------------------


def _report(claim: str, regime: dict, rows, meta: dict) -> dict:
    """The report of condition rows; the one place a slack widens a bound.
    A report whose ``meta`` gives a ``reason`` is degenerate: it has no
    conditions, so ``pass`` holds vacuously, and callers refuse it by its flag."""
    conditions = []
    for name, measured, bound, slack, direction in rows:
        bound = bound - slack if direction == "ge" else bound + slack
        passed = measured >= bound if direction == "ge" else measured <= bound
        conditions.append(
            {"name": name, "measured": measured, "bound": bound,
             "direction": direction, "pass": passed}
        )
    return {
        "claim": claim,
        "conditions": conditions,
        "pass": all(c["pass"] for c in conditions),
        "degenerate": "reason" in meta,
        "regime": regime,
        "meta": meta,
    }


def _closeness_rows(diag: dict, n: int, delta: float) -> list[tuple]:
    """``hellinger_closeness``, ``log(1 - h_sq) >= log(4 delta) / (2n)`` with
    its left side ``-inf`` once ``h_sq`` reaches 1, and ``density_ratio``,
    ``sup dq/dp <= 2``."""
    one_minus = 1.0 - diag["hellinger_sq"]
    log_one_minus = math.log(one_minus) if one_minus > 0.0 else -math.inf
    return [
        ("hellinger_closeness", log_one_minus, math.log(4.0 * delta) / (2.0 * n),
         HELLINGER_TOL, "ge"),
        ("density_ratio", diag["sup_ratio"], 2.0, RATIO_TOL, "le"),
    ]


def _pair_rows(
    q: AtomicDistribution, n: int, delta: float, stats: CoreStats, diag: dict
) -> list[tuple]:
    eps_p, var_p, shift = stats.eps, stats.var, diag["mean_shift"]
    return [
        ("mean_separation", shift, eps_p / 32.0, MEAN_SHIFT_TOL, "ge"),
        *_closeness_rows(diag, n, delta),
        ("variance_doubling", variance(q), 2.0 * var_p,
         VARIANCE_TOL * (1.0 + var_p), "le"),
        ("estimator_separation", shift, 2.0 * (eps_p / 64.0), MEAN_SHIFT_TOL, "ge"),
    ]


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
    rows = _pair_rows(q, n, delta, stats, pair_diagnostics(p, q, stats))
    return _report("indistinguishable_pair", flags, rows, {"mode": "pair"})


def _verify_partner(claim: str, p: AtomicDistribution, n: int, delta: float, rows):
    """Construct the partner of ``p`` and report ``rows(res, meta)``, where
    ``meta`` is the report's copy of the construction record; a ``p`` with
    no partner gets the degenerate report."""
    flags = regime_flags(n, delta)
    try:
        res = construct_q(p, n, delta)
    except DegenerateError as exc:
        return _report(claim, flags, (), {"reason": str(exc)})
    meta = res.meta_dict()
    return _report(claim, flags, rows(res, meta), meta)


def verify_theorem(p: AtomicDistribution, n: int, delta: float) -> dict:
    """Construct the partner of ``p`` and check the separation, Hellinger,
    density-ratio, and variance guarantees at their stated tolerances."""
    return _verify_partner(
        "indistinguishable_pair", p, n, delta,
        lambda res, meta: _pair_rows(res.q, n, delta, res.stats, meta["diagnostics"]),
    )


def verify_neighborhood(p: AtomicDistribution, n: int, delta: float) -> dict:
    """Check that the constructed partner lies in the neighborhood of ``p``:
    bounded error transfer at a third of the sample budget, Hellinger
    closeness, mean shift within the error bound, and density ratio at most 2.
    The composite bound ``min(eps(n/3), eps(n))`` is recorded for both
    endpoints."""

    def rows(res, meta):
        eps_p, diag = res.stats.eps, meta["diagnostics"]
        eps_q_shrunk = epsilon(res.q, n / SAMPLE_SHRINK, delta)
        meta["composite_bound_p"] = min(epsilon(p, n / SAMPLE_SHRINK, delta), eps_p)
        meta["composite_bound_q"] = min(eps_q_shrunk, epsilon(res.q, n, delta))
        closeness, ratio = _closeness_rows(diag, n, delta)
        return [
            ("error_transfer", eps_q_shrunk, ERROR_TRANSFER_FACTOR * eps_p,
             ERROR_TRANSFER_TOL, "le"),
            closeness,
            ("mean_shift_within", diag["mean_shift"], eps_p, SHIFT_UPPER_TOL, "le"),
            ratio,
        ]

    return _verify_partner("neighborhood_membership", p, n, delta, rows)


# ---------------------------------------------------------------------------
# Monte-Carlo benchmarks
# ---------------------------------------------------------------------------


def _trial_rate(cfg: TrialConfig, trials: range, outcome) -> float:
    """The one trial loop: the share of ``trials`` whose ``outcome`` holds on
    the stream of ``(cfg.seed, t)``, the only stream trial ``t`` draws from."""
    return sum(outcome(trial_stream(cfg.seed, t)) for t in trials) / len(trials)


def _trial_header(kind: str, cfg: TrialConfig) -> dict:
    return {"kind": kind, "n": cfg.n, "delta": cfg.delta, "trials": cfg.trials,
            "seed": cfg.seed}


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

    def missed(stream: np.random.Generator) -> bool:
        return abs(median_of_means(sample(p, cfg.n, stream), cfg.delta) - mu_p) > limit

    failure_rate = _trial_rate(cfg, range(cfg.trials), missed)
    ci_halfwidth = 3.0 * math.sqrt(cfg.delta * (1.0 - cfg.delta) / cfg.trials)
    return {
        **_trial_header("bench_mom", cfg),
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


_LIMB_BITS = 30
_CHUNK = 1 << 16  # uniforms per draw; a limb sum stays below 2^46


def _limbs(table: np.ndarray) -> np.ndarray:
    """Integer columns whose count-weighted sums give ``fsum(table[idx])``
    exactly from the per-atom counts of ``idx``: indicators of ``+inf`` and
    ``-inf``, then each finite entry on the finest binary grid among them,
    in signed 30-bit limbs."""
    values = table.tolist()
    ratios = [t.as_integer_ratio() if math.isfinite(t) else (0, 1) for t in values]
    grid = max(den for _, den in ratios)
    ints = [num * (grid // den) for num, den in ratios]
    width = max(1, -(-max(abs(v).bit_length() for v in ints) // _LIMB_BITS))
    mask = (1 << _LIMB_BITS) - 1
    rows = [
        [t == math.inf, t == -math.inf]
        + [(abs(v) >> (_LIMB_BITS * k) & mask) * (-1 if v < 0 else 1) for k in range(width)]
        for t, v in zip(values, ints)
    ]
    return np.array(rows, dtype=np.int64)


def _fold(sums: list[int]) -> float | int:
    """The statistic from the column totals of :func:`_limbs`: ``fsum``'s
    value if an infinite term was drawn, else the exact sum in grid units,
    which has the sign and the zero test of ``fsum``'s rounding of it."""
    plus, minus, *limbs = sums
    if plus or minus:
        return math.fsum([math.inf] * (plus > 0) + [-math.inf] * (minus > 0))
    return sum(v << (_LIMB_BITS * k) for k, v in enumerate(limbs))


def _lr_statistic(
    d: AtomicDistribution, limbs: np.ndarray, n: int, stream: np.random.Generator
) -> float | int:
    """``n`` draws from ``d`` in chunks, summed as per-atom counts; the
    chunked draws consume ``stream`` exactly as one draw of ``n`` would."""
    sums = [0] * limbs.shape[1]
    for done in range(0, n, _CHUNK):
        counts = np.bincount(
            d._inverse_cdf(stream.random(min(_CHUNK, n - done))), minlength=d.num_atoms
        )
        sums = [a + b for a, b in zip(sums, (counts @ limbs).tolist())]
    return _fold(sums)


def _lr_errs(
    d: AtomicDistribution, limbs: np.ndarray, n: int, from_q: bool,
    stream: np.random.Generator,
) -> bool:
    """Whether one trial of :func:`lr_test_error` on ``n`` draws from ``d``
    decides wrongly; ``d`` is ``q`` when ``from_q``."""
    lam = _lr_statistic(d, limbs, n, stream)
    decide_q = stream.random() < 0.5 if lam == 0 else lam > 0
    return decide_q != from_q


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
    limbs_p, limbs_q = map(_limbs, _log_ratio_tables(p, q))
    half = cfg.trials // 2
    type_i = _trial_rate(cfg, range(half), partial(_lr_errs, p, limbs_p, cfg.n, False))
    type_ii = _trial_rate(
        cfg, range(half, cfg.trials), partial(_lr_errs, q, limbs_q, cfg.n, True)
    )
    empirical_error = 0.5 * (type_i + type_ii)
    ci_halfwidth = 3.0 * math.sqrt(0.25 / cfg.trials)
    return {
        **_trial_header("lr_test_error", cfg),
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
