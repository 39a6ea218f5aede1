#!/usr/bin/env python3
"""Tabulate kernel dimensions of the cubic operator against the
binomial difference and the irreducible dimension sums.

Usage: kernel_table.py [MAX_DEGREE]   (default 5)
"""

import argparse
from math import comb

from e6poly.decomp import phi_dim


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("max_degree", metavar="MAX_DEGREE", nargs="?", type=int,
                        default=5, help="highest degree (default 5)")
    max_degree = parser.parse_args().max_degree
    if max_degree < 0:
        parser.error("MAX_DEGREE must be nonnegative")
    header = f"{'m':>2}  {'dim A_m':>10}  {'rank D':>8}  {'dim Phi_m':>10}  {'binomial':>10}  {'weyl sum':>10}"
    print(header)
    print("-" * len(header))
    for m in range(max_degree + 1):
        s = phi_dim(m)
        predicted = comb(m + 26, 26) - (comb(m + 23, 26) if m >= 3 else 0)
        print(
            f"{m:>2}  {s.dim_Am:>10}  {s.rank_D:>8}  {s.dim_phi:>10}  "
            f"{predicted:>10}  {s.weyl_sum:>10}"
        )
        parts = " + ".join(f"dim({m1},{m2})={d}" for m1, m2, d in s.weyl_terms)
        print(f"    {parts}")


if __name__ == "__main__":
    main()
