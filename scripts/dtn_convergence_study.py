#!/usr/bin/env python3
"""Convergence study of the boundary-flux recovery of the fractional Laplacian.

For each exponent, extend random boundary data into the weighted half-space on
a sequence of geometrically graded grids and record how fast the discrete
weighted normal derivative approaches the spectral fractional Laplacian.
Emits a plot-ready CSV (theta, m, y1, max_err) and prints the fitted orders.
"""

import argparse
import csv

import numpy as np

from fraclap import (
    build_grid,
    decompose,
    default_ymax,
    dtn_apply,
    fixture,
    frac_apply,
    poisson_extend,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8, help="path fixture size")
    ap.add_argument("--thetas", type=float, nargs="+", default=[0.25, 0.5, 0.75])
    ap.add_argument("--ms", type=int, nargs="+", default=[8, 10, 12, 14, 16])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--out", default="dtn_convergence.csv")
    args = ap.parse_args()

    space = fixture("path", n=args.n)
    dec = decompose(space)
    f = np.random.default_rng(args.seed).standard_normal(space.n)
    ymax = default_ymax(dec)

    rows = [("theta", "m", "y1", "max_err")]
    for theta in args.thetas:
        target = frac_apply(dec, theta, f)
        y1s, errs = [], []
        for m in args.ms:
            grid = build_grid(theta, ymax, m)
            err = float(np.max(np.abs(dtn_apply(poisson_extend(dec, f, grid)) - target)))
            y1s.append(grid.ys[1])
            errs.append(err)
            rows.append((theta, m, grid.ys[1], err))
        slope = np.polyfit(np.log(y1s), np.log(errs), 1)[0]
        print(f"theta={theta}: observed order {slope:.2f} in y_1, finest err {errs[-1]:.3e}")

    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
