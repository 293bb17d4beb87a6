"""Radial trimming and the instance error bound.

Walks through what trimming does to a heavy-tailed distribution and how the
resulting error bound interpolates between "the tail moves the mean" and
"the core has spread": tabulates the bound across sample budgets and shows
the normalized value settling at sqrt(4.5) * sigma for light tails.

Run:  python demos/01_trimming_and_error_bound.py
"""

import math

from advmean import asymptotic_scan, epsilon, standard_trim
from advmean import corpus


def describe(name, d, n, delta):
    res = standard_trim(d, n, delta)
    core = res.trimmed
    print(f"\n{name}: {d.num_atoms} atoms, mean {d.mean:.6g}, "
          f"std {math.sqrt(d.variance):.6g}")
    print(f"  trimmed mass t = {res.trimmed_mass:.3e}, radius r = {res.radius:.6g}")
    print(f"  core mean {core.mean:.6g}, core std {math.sqrt(core.variance):.6g}")
    print(f"  error bound eps = {epsilon(d, n, delta):.6g}")


def main():
    n, delta = 1000, 0.05
    print(f"sample budget n = {n}, failure probability delta = {delta}")

    for name in ("two_point_symmetric", "two_point_asymmetric", "pareto_15"):
        describe(name, corpus.build(name), n, delta)

    print("\nnormalized error bound eps * sqrt(n / log(1/delta)) across n:")
    print(f"{'n':>8}  {'symmetric':>12}  {'asymmetric':>12}  {'pareto_15':>12}")
    members = {k: corpus.build(k) for k in
               ("two_point_symmetric", "two_point_asymmetric", "pareto_15")}
    n_list = [10**3, 10**4, 10**5, 10**6]
    columns = {k: asymptotic_scan(d, delta, n_list) for k, d in members.items()}
    for i, n_val in enumerate(n_list):
        row = [columns[k][i]["normalized"] for k in members]
        print(f"{n_val:>8}  " + "  ".join(f"{v:12.6f}" for v in row))

    sym = members["two_point_symmetric"]
    print(f"\nsymmetric two-point limit: sqrt(4.5) * sigma = "
          f"{math.sqrt(4.5) * math.sqrt(sym.variance):.10f}")
    print("(the symmetric column sits at that limit for every n)")


if __name__ == "__main__":
    main()
