"""Reference implementations used only as test oracles."""

import json
import math
from fractions import Fraction

import numpy as np

from advmean import (
    AtomicDistribution,
    DomainError,
    TrimResult,
    group_count,
    sample,
)
from advmean.distribution import align
from advmean.estimators import _groups


def affine(d: AtomicDistribution, s: float, c: float) -> AtomicDistribution:
    """``d`` with every position mapped to ``x * s + c`` (re-sorted for
    negative ``s``)."""
    return AtomicDistribution(d.xs * s + c, d.ws)


def exact_mean(d: AtomicDistribution) -> Fraction:
    """``sum w_i x_i`` over ``d``'s float atoms, in exact rationals."""
    return sum(Fraction(w) * Fraction(x) for x, w in zip(d.xs.tolist(), d.ws.tolist()))


def exact_variance(d: AtomicDistribution) -> Fraction:
    """``sum w_i (x_i - E)^2`` around the exact mean ``E``, in exact
    rationals; like the float path, it takes the masses as they are and does
    not divide by their sum."""
    mu = exact_mean(d)
    return sum(
        Fraction(w) * (Fraction(x) - mu) ** 2 for x, w in zip(d.xs.tolist(), d.ws.tolist())
    )


def group_means_reference(samples, delta) -> list[float]:
    """The group means under the group rule, one ``fsum`` per group over the
    samples as Python floats (NaN where a group holds both infinities), with
    ``estimators._group_means``' checks and refusals; that function must
    match it bit for bit."""
    values = np.asarray(samples, dtype=np.float64)
    if values.ndim != 1 or values.size < 1:
        raise DomainError("a sample batch must be 1-d with at least one value")
    n = values.size
    k = _groups(n, delta)
    base, extra = divmod(n, k)
    data = values.tolist()
    means = []
    start = 0
    try:
        for g in range(k):
            size = base + (1 if g < extra else 0)
            group = data[start : start + size]
            both = math.inf in group and -math.inf in group
            means.append(math.nan if both else math.fsum(group) / size)
            start += size
    except OverflowError:
        raise DomainError("a group sum overflows float64; rescale the samples") from None
    return means


def distribution_json_reference(d: AtomicDistribution, meta=None) -> str:
    """A distribution file as the stdlib encoder writes it: one dict per
    atom, ``meta`` beside ``atoms`` when given."""
    payload = {"atoms": [{"x": x, "w": w} for x, w in zip(d.xs.tolist(), d.ws.tolist())]}
    if meta is not None:
        payload["meta"] = meta
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def bhattacharyya(p: AtomicDistribution, q: AtomicDistribution) -> float:
    """``sum(sqrt(p_i * q_i))`` over the shared positions; equals
    ``1 - hellinger_sq``."""
    _, wp, wq = align(p, q)
    shared = (wp > 0.0) & (wq > 0.0)
    return math.fsum(np.sqrt(wp[shared] * wq[shared]).tolist())


def skew_masses(p: AtomicDistribution, a: float) -> tuple[list, list]:
    """The plus and minus skewed masses on ``p``'s atoms, one atom at a time:
    ``w * (1 + min(1, max(-1, ±a (x - mu))))`` around ``p``'s mean."""
    mu = p.mean
    atoms = list(zip(p.xs.tolist(), p.ws.tolist()))

    def side(slope):
        return [w * (1.0 + min(1.0, max(-1.0, slope * (x - mu)))) for x, w in atoms]

    return side(a), side(-a)


def skew_partner(p: AtomicDistribution, a: float):
    """The small-gap partner at slope ``a`` by the per-atom formula: the
    heavier of the two skewed measures by ``fsum`` total (plus on a tie),
    zero-mass atoms dropped, rescaled to unit mass.  Returns ``(q, b, sign)``
    with ``sign`` ``"plus"`` or ``"minus"``."""
    plus, minus = skew_masses(p, a)
    total_plus, total_minus = math.fsum(plus), math.fsum(minus)
    if total_plus >= total_minus:
        sign, ws, total = "plus", plus, total_plus
    else:
        sign, ws, total = "minus", minus, total_minus
    kept = [(x, w / total) for x, w in zip(p.xs.tolist(), ws) if w > 0.0]
    q = AtomicDistribution([x for x, _ in kept], [w for _, w in kept])
    return q, 1.0 / total, sign


def brute_force_trim(d: AtomicDistribution, t: float) -> TrimResult:
    """Reference trimming by exhaustive radius scan; small instances only.

    Enumerates every distinct atom distance from the mean, takes the first
    whose kept mass reaches ``1 - t`` by linear scan, and applies the same
    common-fraction boundary rule as the production path.
    """
    if d.num_atoms > 64:
        raise DomainError("oracle accepts at most 64 atoms")
    if not 0.0 <= t < 1.0:
        raise DomainError(f"trim fraction must lie in [0, 1), got {t!r}")
    atoms = d.atoms
    mu = math.fsum(w * x for x, w in atoms)
    dists = [abs(x - mu) for x, _ in atoms]
    if t == 0.0:
        return TrimResult(d, max(dists), np.ones(len(atoms)), 0.0)
    target = 1.0 - t
    radius = None
    for cand in sorted(set(dists)):
        kept = math.fsum(w for (x, w), dd in zip(atoms, dists) if dd <= cand)
        if kept >= target:
            radius = cand
            break
    if radius is None:
        radius = max(dists)
    inside_mass = math.fsum(w for (x, w), dd in zip(atoms, dists) if dd < radius)
    boundary_mass = math.fsum(w for (x, w), dd in zip(atoms, dists) if dd == radius)
    frac = min(max((target - inside_mass) / boundary_mass, 0.0), 1.0)
    fractions = [1.0 if dd < radius else frac if dd == radius else 0.0 for dd in dists]
    kept_atoms = [
        (x, w * f / target) for (x, w), f in zip(atoms, fractions) if w * f > 0.0
    ]
    trimmed = AtomicDistribution([x for x, _ in kept_atoms], [w for _, w in kept_atoms])
    return TrimResult(trimmed, radius, np.array(fractions), float(t))


def log_ratio(wp, wq):
    if wq == 0.0:
        return -math.inf
    if wp == 0.0:
        return math.inf
    return math.log(wq / wp)


def exact_lr_error(p: AtomicDistribution, q: AtomicDistribution, n: int) -> Fraction:
    """The exact equal-prior error of ``lr_test_error`` with ``n`` draws per
    trial, for ``p`` and ``q`` on the same two atoms.

    A trial that draws the first atom ``k`` times has the statistic
    ``k t0 + (n - k) t1`` over the float log-ratio table ``(t0, t1)``; its
    sign is decided in ``Fraction``s, as the count-based statistic decides
    it, and a tie counts 1/2.  Each source draws its first atom with the
    sampler's probability: the share of ``random()``'s 2^-53 grid below
    ``cum[0]``."""
    if not (p.num_atoms == q.num_atoms == 2 and np.array_equal(p.xs, q.xs)):
        raise DomainError("oracle takes two distributions on the same two atoms")
    t0, t1 = (Fraction(log_ratio(wp, wq)) for wp, wq in zip(p.ws.tolist(), q.ws.tolist()))
    grid = 1 << 53

    def wrong(d, sign):  # 2 grid^n P(d's trial errs); it errs on statistics of `sign`
        a = math.ceil(Fraction(d.ws[0]) * grid)
        b = grid - a
        total, term = 0, b**n  # term = comb(n, k) a^k b^(n - k)
        for k in range(n + 1):
            lam = k * t0 + (n - k) * t1
            total += term * (2 if (lam > 0) - (lam < 0) == sign else lam == 0)
            if k < n:
                term = term * (n - k) * a // ((k + 1) * b)
        return total

    return Fraction(wrong(p, 1) + wrong(q, -1), 4 * grid**n)


def mom_miss_bracket(
    p: AtomicDistribution, n: int, delta: float, limit: float
) -> tuple[Fraction, Fraction]:
    """Exact bounds ``(lower, upper)`` on the probability that the median of
    means of ``n`` draws from a two-atom ``p`` misses ``p.mean`` by more than
    ``limit``, as ``bench_mom`` tests a miss.

    The ``k = group_count(delta)`` groups are split by the documented rule:
    the first ``n mod k`` hold ``n // k + 1`` draws, the rest ``n // k``.  A
    group of ``s`` draws holding the first atom ``j`` times has the mean
    ``fsum`` of its values over ``s``, as the estimator computes it, and
    misses high or low as that mean does.  Groups are independent, and each
    draw takes the first atom with the sampler's probability, the share of
    ``random()``'s 2^-53 grid below ``cum[0]``.  The median lies between the
    sorted means ``m[(k - 1) // 2]`` and ``m[k // 2]`` (one mean for odd
    ``k``), so it misses high only if at least ``(k + 1) // 2`` groups do,
    and it does if at least ``k // 2 + 1`` do; likewise low.  For odd ``k``
    the two ends are equal."""
    if p.num_atoms != 2:
        raise DomainError("oracle takes a distribution on two atoms")
    (x0, x1), mu = p.xs.tolist(), p.mean
    k = group_count(delta)
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    grid = 1 << 53
    a = math.ceil(Fraction(p.ws[0]) * grid)
    b = grid - a

    def side_law(sign):  # grid^n P(exactly m groups miss on `sign`'s side)
        law = [1]
        for s in sizes:
            hit, term = 0, b**s  # term = comb(s, j) a^j b^(s - j)
            for j in range(s + 1):
                dev = math.fsum([x0] * j + [x1] * (s - j)) / s - mu
                hit += term * (sign * dev > limit)
                if j < s:
                    term = term * (s - j) * a // ((j + 1) * b)
            law = [u * (grid**s - hit) + v * hit for u, v in zip(law + [0], [0] + law)]
        return law

    laws = [side_law(1), side_law(-1)]
    lower = Fraction(sum(sum(law[k // 2 + 1 :]) for law in laws), grid**n)
    upper = Fraction(sum(sum(law[(k + 1) // 2 :]) for law in laws), grid**n)
    return lower, upper


def trial_stream_reference(seed: int, t: int) -> np.random.Generator:
    """The stream of trial ``t`` built as the randomness contract states it:
    Philox keyed by ``SeedSequence([seed, t])``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, t])))


def lr_wrong_reversed(p, q, cfg):
    """Reference LR test, recomputed last trial first: the first half of the
    trials draws from p, the rest from q, and each draw contributes the log
    ratio of the two masses at its position."""
    mass_p = dict(zip(p.xs.tolist(), p.ws.tolist()))
    mass_q = dict(zip(q.xs.tolist(), q.ws.tolist()))
    table_p, table_q = (
        np.array([log_ratio(mass_p.get(x, 0.0), mass_q.get(x, 0.0)) for x in d.xs.tolist()])
        for d in (p, q)
    )
    wrong = []
    for t in reversed(range(cfg.trials)):
        from_p = t < cfg.trials // 2
        source, table = (p, table_p) if from_p else (q, table_q)
        stream = trial_stream_reference(cfg.seed, t)
        draws = sample(source, cfg.n, stream)
        terms = table[np.searchsorted(source.xs, draws)]
        if np.all(np.isfinite(terms)):
            lam = math.fsum(terms.tolist())
        else:
            lam = float(np.sum(terms))
        decide_q = stream.random() < 0.5 if lam == 0.0 else lam > 0.0
        wrong.append(decide_q if from_p else not decide_q)
    return wrong[::-1]
