"""Median-of-means failure rates, and the rare-outlier regime.

First runs the seeded failure-rate benchmark at the estimator's theoretical
budget.  Then contrasts estimate spreads with the plain sample mean on the
asymmetric two-point member with n below the inverse outlier mass: most
batches contain zero or one draw of the far atom, so the sample mean swings
with the outlier count while median-of-means concentrates at the trimmed
core's mean, paying only the deterministic gap the error bound charges for.

Run:  python demos/03_median_of_means_benchmark.py
"""

import numpy as np

from advmean import (
    TrialConfig,
    bench_mom,
    median_of_means,
    sample,
    sample_mean,
    trial_stream,
)
from advmean import corpus


def main():
    cfg = TrialConfig(n=1400, delta=0.05, trials=4000, seed=0)
    print(f"failure-rate benchmark: n = {cfg.n}, delta = {cfg.delta}, "
          f"{cfg.trials} trials\n")
    for name in ("two_point_symmetric", "pareto_15", "contaminated_gaussian"):
        rep = bench_mom(corpus.build(name), cfg)
        print(f"{name}: failure rate {rep['failure_rate']:.4f} vs budget "
              f"{rep['delta'] + rep['ci_halfwidth']:.4f} "
              f"(error bound {rep['bound']:.4g}) -> "
              f"{'ok' if rep['pass'] else 'FAIL'}")

    d = corpus.build("two_point_asymmetric")
    mu = d.mean
    n = 300  # outlier mass 0.001 -> most 300-sample batches see at most one
    print(f"\nestimate spread on two_point_asymmetric, n = {n} "
          f"(true mean {mu:.6g}), 2000 trials:")
    mom_err, mean_err = [], []
    for t in range(2000):
        batch = sample(d, n, trial_stream(1, t))
        mom_err.append(abs(median_of_means(batch, cfg.delta) - mu))
        mean_err.append(abs(sample_mean(batch) - mu))
    for label, errs in (("median-of-means", mom_err), ("sample mean", mean_err)):
        errs = np.array(errs)
        print(f"  {label:>16}: median |err| = {np.median(errs):.4f}, "
              f"99th pct = {np.quantile(errs, 0.99):.4f}, "
              f"worst = {errs.max():.4f}")
    print("\nmedian-of-means sits at the trimmed-core mean (a deterministic")
    print("gap of 1.0 here, exactly the first term of the error bound) while")
    print("the sample mean jumps by ~3.3 for every outlier draw it catches.")


if __name__ == "__main__":
    main()
