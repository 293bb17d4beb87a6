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
bitwise-identical reports.  ``_stream_keys`` computes the keys of 1024
trials at once by ``SeedSequence``'s own uint32 hash, column-wise, so each
key, and so each stream, is bit for bit ``SeedSequence``'s.  One loop,
``_trial_rate``, keeps this contract: it alone calls :func:`trial_stream`,
and hands a benchmark's outcome the streams of up to ``_BLOCK`` consecutive
trials (``bench_mom`` flags missed budgets, ``lr_test_error`` wrong
decisions, run once over each source's half of the trials).

A draw maps uniforms to atoms by ``AtomicDistribution._inverse_cdf``, an
exact guide-table form of ``searchsorted(cum, u, side="right")``.  The LR
test draws each trial into one row of a buffer, counts all rows' draws per
atom at once, in chunks of at most ``_CHUNK``, and sums the counts against
exact integer limbs of the log ratios (``_limbs``), so each trial gets the
sign and zero test of ``fsum`` in memory that does not grow with n.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .adversary import _partner_stats, construct_q, pair_diagnostics, regime_flags
from .distribution import (
    AtomicDistribution,
    align,
    check_budget,
    core_stats,
    epsilon,
)
from .errors import DegenerateError, DomainError
from .estimators import _groups, median_of_means

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
        if not isinstance(self.n, (int, np.integer)):
            raise DomainError(f"sample count must be an integer, got {self.n!r}")
        check_budget(self.n, self.delta)
        if not 1 <= _check_index("trials", self.trials) <= sys.maxsize:
            raise DomainError(f"trials must lie in [1, {sys.maxsize}], got {self.trials!r}")
        _check_index("seed", self.seed)


def _check_index(name: str, value) -> int:
    """``value`` as an int; :class:`DomainError` unless a nonnegative integer."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


_KEY_BLOCK = 1024  # trials keyed at once; 2^32 is a multiple, so t's word count is fixed


class _PhiloxKey:
    """A precomputed Philox key, handed over as ``generate_state(2, np.uint64)``.
    ``_stream_keys`` registers the class as an ``ISeedSequence`` on first use:
    importing ``numpy.random`` with this module would cost every CLI call 6 MB."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise TypeError("a precomputed key answers only generate_state(2, np.uint64)")
        return self.key


@lru_cache(maxsize=4)
def _stream_keys(seed: int, block: int) -> np.ndarray:
    """Row ``j`` is ``SeedSequence([seed, t]).generate_state(2, np.uint64)``
    for ``t = block * _KEY_BLOCK + j``: its ``mix_entropy`` into a pool of
    four words, then ``generate_state``, one uint32 column per trial."""
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_PhiloxKey)
    words = [[v >> s & 0xFFFFFFFF for s in range(0, max(v.bit_length(), 1), 32)]
             for v in (seed, block * _KEY_BLOCK)]  # SeedSequence's uint32 words, low first
    entropy = [np.full(_KEY_BLOCK, w, dtype=np.uint32) for w in words[0] + words[1]]
    entropy[len(words[0])] += np.arange(_KEY_BLOCK, dtype=np.uint32)  # no carry: aligned

    def hasher(const, mult):  # xor the running constant in, advance it, multiply, fold
        def step(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & 0xFFFFFFFF
            value = value * np.uint32(const)
            return value ^ value >> np.uint32(16)
        return step

    def mix_in(dst, word):  # pool[dst] = mix(pool[dst], hashmix(word))
        r = pool[dst] * np.uint32(0xCA01F9DD) - hashmix(word) * np.uint32(0x4973F715)
        pool[dst] = r ^ r >> np.uint32(16)

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (entropy + [np.zeros_like(entropy[0])] * 4)[:4]]  # zero-padded
    for src, dst in itertools.permutations(range(4), 2):
        mix_in(dst, pool[src])
    for word, dst in itertools.product(entropy[4:], range(4)):
        mix_in(dst, word)
    out = hasher(0x8B51F9DD, 0x58F38DED)  # generate_state: words pair up little-endian
    keys = np.stack([out(w) for w in pool], axis=1).astype("<u4").view("<u8").astype(np.uint64)
    keys.flags.writeable = False
    return keys


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Independent counter-based stream for one trial, keyed as ``SeedSequence([seed, trial])``."""
    seed, trial = _check_index("seed", seed), _check_index("trial", trial)
    block, row = divmod(trial, _KEY_BLOCK)
    return np.random.Generator(np.random.Philox(_PhiloxKey(_stream_keys(seed, block)[row])))


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
    p: AtomicDistribution, q: AtomicDistribution, n: int, delta: float, diag: dict
) -> list[tuple]:
    eps_p, var_p, shift = diag["epsilon_p"], p.variance, diag["mean_shift"]
    return [
        ("mean_separation", shift, eps_p / 32.0, MEAN_SHIFT_TOL, "ge"),
        *_closeness_rows(diag, n, delta),
        ("variance_doubling", q.variance, 2.0 * var_p,
         VARIANCE_TOL * (1.0 + var_p), "le"),
        ("estimator_separation", shift, 2.0 * (eps_p / 64.0), MEAN_SHIFT_TOL, "ge"),
    ]


def verify_pair(
    p: AtomicDistribution, q: AtomicDistribution, n: int, delta: float
) -> dict:
    """The separation/indistinguishability report for an explicit pair; a
    ``p`` that :func:`construct_q` would refuse gets the degenerate report."""
    flags = regime_flags(n, delta)
    try:
        stats = _partner_stats(p, n, delta)
    except DegenerateError as exc:
        meta = {"mode": "pair", "reason": str(exc)}
        return _report("indistinguishable_pair", flags, (), meta)
    rows = _pair_rows(p, q, n, delta, pair_diagnostics(p, q, stats))
    return _report("indistinguishable_pair", flags, rows, {"mode": "pair"})


def _verify_partner(claim: str, p: AtomicDistribution, n: int, delta: float, rows):
    """Construct the partner of ``p`` and report ``rows(res, meta)`` under the
    regime flags the construction recorded, where ``meta`` is the report's
    copy of the construction record; a ``p`` with no partner gets the
    degenerate report."""
    try:
        res = construct_q(p, n, delta)
    except DegenerateError as exc:
        return _report(claim, regime_flags(n, delta), (), {"reason": str(exc)})
    meta = res.meta_dict()
    return _report(claim, meta["regime"], rows(res, meta), meta)


def verify_theorem(p: AtomicDistribution, n: int, delta: float) -> dict:
    """Construct the partner of ``p`` and check the separation, Hellinger,
    density-ratio, and variance guarantees at their stated tolerances."""
    return _verify_partner(
        "indistinguishable_pair", p, n, delta,
        lambda res, meta: _pair_rows(p, res.q, n, delta, meta["diagnostics"]),
    )


def verify_neighborhood(p: AtomicDistribution, n: int, delta: float) -> dict:
    """Check that the constructed partner lies in the neighborhood of ``p``:
    bounded error transfer at a third of the sample budget, Hellinger
    closeness, mean shift within the error bound, and density ratio at most 2.
    The composite bound ``min(eps(n/3), eps(n))`` is recorded for both
    endpoints."""

    def rows(res, meta):
        diag = meta["diagnostics"]
        eps_p = diag["epsilon_p"]
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


_BLOCK = 16  # trials per outcome call; the LR counts cost least per trial at 8 to 16 rows


def _trial_rate(cfg: TrialConfig, trials: range, outcome) -> float:
    """The one trial loop: the share of ``trials`` whose outcome holds, where
    trial ``t`` draws only from the stream of ``(cfg.seed, t)``.  ``outcome``
    maps the streams of up to ``_BLOCK`` consecutive trials to their flags."""
    blocks = (trials[lo : lo + _BLOCK] for lo in range(0, len(trials), _BLOCK))
    return sum(sum(outcome([trial_stream(cfg.seed, t) for t in b])) for b in blocks) / len(trials)


def _trial_header(kind: str, cfg: TrialConfig) -> dict:
    return {"kind": kind, "n": cfg.n, "delta": cfg.delta, "trials": cfg.trials,
            "seed": cfg.seed}


def bench_mom(p: AtomicDistribution, cfg: TrialConfig) -> dict:
    """Measure how often the median-of-means misses its error budget
    ``|mu - mu*| + 3 sigma* sqrt(4.5 log(1/delta) / n)`` by more than its
    rounding (``MOM_ROUNDING_TOL``); passes when the failure rate stays
    within ``delta`` plus a 3-sigma binomial half-width."""
    _groups(cfg.n, cfg.delta)  # name the group count before core_stats' refusals
    stats = core_stats(p, cfg.n, cfg.delta)
    mu_p = p.mean
    bound = stats.gap + 3.0 * stats.sigma_star * stats.rate
    limit = bound + MOM_ROUNDING_TOL * float(np.abs(p.xs).max())

    def missed(streams: list[np.random.Generator]) -> list[bool]:
        return [abs(median_of_means(sample(p, cfg.n, s), cfg.delta) - mu_p) > limit
                for s in streams]

    failure_rate = _trial_rate(cfg, range(cfg.trials), missed)
    ci_halfwidth = 3.0 * math.sqrt(cfg.delta * (1.0 - cfg.delta) / cfg.trials)
    return {**_trial_header("bench_mom", cfg), "mu_p": mu_p, "bound": bound,
            "failure_rate": failure_rate, "ci_halfwidth": ci_halfwidth,
            "pass": failure_rate <= cfg.delta + ci_halfwidth}


_LIMB_BITS = 30
_CHUNK = 1 << 16  # uniforms per chunk over all rows; a limb sum stays below 2^46


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


def _lr_errs(
    d: AtomicDistribution, limbs: np.ndarray, n: int, from_q: bool, buf: np.ndarray,
    streams: list[np.random.Generator],
) -> list[bool]:
    """Whether each trial of :func:`lr_test_error` on ``n`` draws from ``d``,
    one trial per stream, decides wrongly; ``d`` is ``q`` when ``from_q``.
    Row ``r`` of each chunk in ``buf`` holds stream ``r``'s next draws, so
    each stream is consumed exactly as by one draw of ``n``, then its coin."""
    rows, atoms = len(streams), d.num_atoms
    share = min(n, _CHUNK // rows)
    for done in range(0, n, share):
        size = min(share, n - done)
        for r, stream in enumerate(streams):
            stream.random(size, out=buf[r * size : (r + 1) * size])
        idx = d._inverse_cdf(buf[: rows * size]).reshape(rows, size)
        idx += np.arange(0, rows * atoms, atoms)[:, None]
        counts = np.bincount(idx.ravel(), minlength=rows * atoms).reshape(rows, atoms)
        del idx  # freed before the next chunk's draws, so the peak does not grow with n
        part = (counts @ limbs).tolist()
        sums = part if done == 0 else [[a + b for a, b in zip(*ab)] for ab in zip(sums, part)]
    return [(stream.random() < 0.5 if lam == 0 else lam > 0) != from_q
            for lam, stream in zip(map(_fold, sums), streams)]


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
    # One limb table of log(q/p) on the union of the supports, split by source:
    # missing mass is -inf (drawn only under p) or +inf (only under q).
    # math.log, not np.log: they differ in the last bit on some inputs.
    _, wp, wq = align(p, q)
    limbs = _limbs(np.array([
        -math.inf if mq == 0.0 else math.inf if mp == 0.0 else math.log(mq / mp)
        for mp, mq in zip(wp.tolist(), wq.tolist())
    ]))
    limbs_p, limbs_q = limbs[wp > 0.0], limbs[wq > 0.0]
    half = cfg.trials // 2
    buf = np.empty(min(_CHUNK, _BLOCK * cfg.n))  # one draw buffer for every chunk
    type_i = _trial_rate(cfg, range(half), partial(_lr_errs, p, limbs_p, cfg.n, False, buf))
    type_ii = _trial_rate(
        cfg, range(half, cfg.trials), partial(_lr_errs, q, limbs_q, cfg.n, True, buf)
    )
    empirical_error = 0.5 * (type_i + type_ii)
    ci_halfwidth = 3.0 * math.sqrt(0.25 / cfg.trials)
    return {**_trial_header("lr_test_error", cfg), "type_i": type_i, "type_ii": type_ii,
            "empirical_error": empirical_error, "ci_halfwidth": ci_halfwidth,
            "delta_floor": cfg.delta - ci_halfwidth,
            "pass": empirical_error >= cfg.delta - ci_halfwidth}


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
