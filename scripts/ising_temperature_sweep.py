#!/usr/bin/env python3
"""Sweep the inverse temperature of the circle spin sampler.

For each beta the script builds the absorbing dual, reports the absorption
moments and the largest subdominant eigenvalue, read from the dual's level
blocks, and checks the separation distance against the coupon-collector step
count.  At beta = 0 the absorption time is the convolution of geometrics with
rates 1 - i/N; the sweep shows how quickly interaction destroys that picture.
"""
import argparse
import csv
import sys

import numpy as np

import ssdual as sd


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--N", type=int, default=4, help="number of circle vertices")
    parser.add_argument(
        "--betas", type=float, nargs="+", default=[0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
    )
    parser.add_argument("--c", type=float, default=1.0, help="coupon-collector slack")
    parser.add_argument("-o", "--output", help="write per-beta summary CSV here")
    args = parser.parse_args()

    steps, bound = sd.coupon_collector_bound(args.N, args.c)
    geo = sd.geometric_sum_law([1 - i / args.N for i in range(args.N)], steps)
    print(f"N={args.N}, coupon step n={steps}, bound e^-c={bound:.4f}")
    print(f"non-interacting reference: ET*={geo.mean:.4f}, VarT*={geo.variance:.4f}")
    print(f"{'beta':>6} {'ET*':>10} {'VarT*':>10} {'SLEM':>8} {'s_n':>8} {'<=bound':>8}")

    rows = []
    for beta in args.betas:
        chain = sd.ising_circle(args.N, beta)
        dual = sd.build_dual(chain)
        law = sd.absorption_survival(dual, steps)
        slem = float(sd.spectrum_from_triangular(dual).expanded()[1])
        sep = sd.separation_curve(chain, steps)
        holds = sep.values[steps] <= bound
        print(
            f"{beta:6.2f} {law.mean:10.4f} {law.variance:10.4f} {slem:8.4f} "
            f"{sep.values[steps]:8.4f} {str(holds):>8}"
        )
        rows.append([beta, law.mean, law.variance, slem, float(sep.values[steps]), holds])

    if args.output:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["beta", "mean", "variance", "slem", "separation_at_n", "bound_holds"])
            writer.writerows(rows)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
