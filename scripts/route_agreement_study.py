#!/usr/bin/env python3
"""Cross-validation of the two Dirichlet solver routes.

Solves the same nonlocal Dirichlet problem by direct energy minimization
(`solve_spectral`: the pinned solve of the Euler-Lagrange system through the
eigenpairs, factoring only the smaller of the domain and its complement) and
by defect correction on the weighted product-grid extension problem, then
reports the sup-norm gap between the traces under product-grid refinement.
Emits a plot-ready CSV (theta, level, h_max, gap, gap_over_osc).
"""

import argparse
import csv

import numpy as np

from fraclap import (
    DirichletProblem,
    build_grid,
    decompose,
    default_ymax,
    solve_extension,
    solve_spectral,
    space_from_spec,
    stiffness_matrix,
)
from fraclap.space import interior_mask


def refined_grid(theta, ymax, level, m0=16):
    ratio = 0.5 ** (1.0 / 2**level)
    depth_rate = max(1.0, 1.0 / (2.0 * theta))
    y1_target = ymax * 0.5 ** (m0 - 1) * 0.5 ** (level * depth_rate)
    m = int(np.ceil(1 + np.log(ymax / y1_target) / np.log(1.0 / ratio)))
    return build_grid(theta, ymax, m, ratio=ratio)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=4, help="square grid fixture side")
    ap.add_argument("--thetas", type=float, nargs="+", default=[0.25, 0.5, 0.75])
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="route_agreement.csv")
    args = ap.parse_args()

    spec = {"fixture": {"kind": "grid2d", "params": {"nx": args.nx}}}
    space = space_from_spec(spec)
    dec = decompose(space)
    omega = interior_mask(space, spec)
    f = np.random.default_rng(args.seed).standard_normal(space.n)
    ymax = default_ymax(dec)

    rows = [("theta", "level", "h_max", "gap", "gap_over_osc")]
    for theta in args.thetas:
        problem = DirichletProblem(stiffness_matrix(dec, theta), omega, f)
        spectral = solve_spectral(problem)
        for level in range(args.levels):
            grid = refined_grid(theta, ymax, level)
            ext = solve_extension(problem, grid)
            gap = float(np.max(np.abs(spectral.u - ext.u)))
            h = float(np.max(np.diff(grid.ys)))
            rows.append((theta, level, h, gap, gap / problem.data_oscillation))
            print(f"theta={theta} level={level}: h={h:.3f} gap={gap:.3e}")

    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
