"""Peak-allocation guards: the dense kernels must stay within O(n^2) memory.

The bound is 32 n^2 doubles at n=300 (about 23 MB), so a single n^3
temporary (216 MB of doubles, or 27 MB even as booleans) breaks it.  The
geometric checks run over every centre at once, where the easy mistake is a
(centre, point, radius) tensor: with 6 to 12 radii at n=300 it stays under
32 n^2 doubles, so they are held to 4 n^2 (they take about 1.2 n^2).  The
validation of graph and Euclidean metrics, the ball-mass table, the hop
table, the mode preconditioner, the fractional stiffness, the comparability
family, the heat series and the walk bound have their own, tighter bounds.
"""

import tracemalloc

import numpy as np

from fraclap import (
    DirichletProblem,
    Space,
    besov_energy,
    build_grid,
    build_space,
    codim_ball_check,
    comparability_report,
    decompose,
    default_ymax,
    doubling_stats,
    fixture,
    heat_kernel_log_bound,
    heat_kernel_series,
    holder_estimate,
    poisson_extend,
    solve_spectral,
    stiffness_matrix,
    trace_averaging_diagnostic,
)
from fraclap.cli import _KINDS, _exp_heat_properties
from fraclap.dirichlet import _ModePreconditioner, _ProductGridOperator
from fraclap.spectral import _hop_counts

N = 300
BOUND_BYTES = 32 * N * N * 8
GEOMETRIC_BOUND_BYTES = 4 * N * N * 8


def peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def grid300():
    return fixture("grid2d", nx=15, ny=20)


def test_besov_energy_peak_allocation():
    # a fresh space, so the ball-mass table is built inside the traced call
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    f = np.random.default_rng(0).standard_normal(N)
    assert peak_bytes(besov_energy, sp, 0.5, f) <= BOUND_BYTES


def test_ball_masses_peak_allocation():
    # the table takes four n^2 work arrays at its peak; the tie-run rule must
    # not add to the per-row lookup it replaced, which took the same four
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    fresh = Space(sp.dist, sp.mu, sp.cond)
    assert peak_bytes(lambda: fresh.ball_masses) <= 4.5 * N * N * 8


def test_heat_kernel_series_peak_allocation():
    # Q, the term, the running sum and one product: about 4.1 n^2 doubles;
    # each finished kernel keeps one more n^2 (about 6.1 for three times)
    assert peak_bytes(heat_kernel_series, grid300(), 1.0) <= 4.5 * N * N * 8
    assert peak_bytes(heat_kernel_series, grid300(), [0.1, 1.0, 4.0]) <= 7.5 * N * N * 8


def test_heat_properties_peak_allocation():
    # one spectral kernel per t, the walk bound's work arrays and its 2-byte
    # hop table: about 3.38 n^2 doubles, where composing two half-time
    # kernels per t took 4.38 and one series call per t took 7.05
    sp = fixture("random_geometric", n=400, radius=0.15, seed=3)
    ctx = {"space": sp, "dec": decompose(sp)}
    params = {**_KINDS["heat_properties"].defaults, "ts": [0.1, 1.0, 4.0]}
    assert peak_bytes(_exp_heat_properties, ctx, params) <= 3.5 * 400 * 400 * 8


def test_heat_kernel_log_bound_peak_allocation():
    # q_min is a masked minimum over each row of cond, so the peak is the
    # edge mask and the hop pass: about 8.5 n^2 bytes on the dumbbell, where
    # the edge index arrays and their |E|-length float temporaries took 15.65
    sp = fixture("dumbbell", clique=190, bridge=20)
    assert peak_bytes(heat_kernel_log_bound, sp) <= 9 * 400 * 400


def test_hop_counts_peak_allocation():
    # the breadth-first sweep keeps its sources as bits, so the peak is the
    # 2-byte hop table and one unpacked bit plane: about 3.7 n^2 bytes at
    # n=400, where scipy's shortest-path pass took 10 (an n^2 float64 table
    # and its cast).  Both cliques of the dumbbell hold most of its edges:
    # its neighbour lists take about 7.5 n^2 bytes, where one gather of every
    # edge's frontier words per level would take |E| n/8 (about 25 n^2)
    sp = fixture("random_geometric", n=400, radius=0.15, seed=3)
    assert peak_bytes(_hop_counts, sp.cond > 0) <= 4 * 400 * 400
    sp = fixture("dumbbell", clique=190, bridge=20)
    assert peak_bytes(_hop_counts, sp.cond > 0) <= 8 * 400 * 400


def test_stiffness_matrix_peak_allocation():
    # the Gram product of M Phi Lambda^(theta/2): its scaled root and K, about
    # 2.06 n^2 doubles at n=400 (numpy's 64 KiB broadcast buffer is 0.05 of
    # that), where the general product and its symmetrization took 3.05
    dec = decompose(fixture("grid2d", nx=20))
    assert peak_bytes(stiffness_matrix, dec, 0.5) <= 2.1 * 400 * 400 * 8


def test_decompose_peak_allocation():
    # the eigensolver's inputs are freed before validation: about 3 n^2
    # doubles, where keeping them alive takes about 7
    assert peak_bytes(decompose, grid300()) <= 5 * N * N * 8


def test_metric_certificate_peak_allocation():
    # grid2d's metric is certified by Dijkstra over its edges: about 2.3 n^2
    # doubles for all of build_space (the path metric and its gap to dist),
    # where the Floyd-Warshall route takes 3.1, so a silent fallback fails too
    sp = grid300()
    assert peak_bytes(build_space, sp.dist, sp.mu, sp.cond) <= 3 * N * N * 8


def test_euclidean_certificate_peak_allocation():
    # random_geometric's metric is certified by its planar embedding: about
    # 2.2 n^2 doubles for all of build_space (the embedded distances and
    # their gap to dist), where the Floyd-Warshall route takes 3.1
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    assert peak_bytes(build_space, sp.dist, sp.mu, sp.cond) <= 3 * N * N * 8
    # the fixture sums one coordinate at a time: about 4.2 n^2, where the
    # (n, n, 2) difference tensor took 7.1
    build = peak_bytes(lambda: fixture("random_geometric", n=N, radius=0.15, seed=0))
    assert build <= 5 * N * N * 8


def test_mode_preconditioner_peak_allocation():
    # the Omega rows of M Phi are built before the full M Phi and freed once
    # scaled by sqrt(sigma) for the Gram product: about 1.95 n^2 doubles,
    # where keeping them beside the sigma-scaled copy took 2.4, and holding
    # M Phi, its row copy, the scaled copy and their product at once took 3.4
    sp = grid300()
    dec = decompose(sp)
    omega = (sp.cond > 0).sum(axis=1) == 4
    op = _ProductGridOperator(sp, build_grid(0.25, default_ymax(dec), 32), omega)
    assert peak_bytes(_ModePreconditioner, op, dec) <= 2.1 * N * N * 8


def test_comparability_report_peak_allocation():
    # with the ball-mass table built, the family's energies take the Besov
    # stiffness matrix and its one work array: about 2.1 n^2 doubles, where
    # the per-member double sums took 4.1
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    dec = decompose(sp)
    family = np.random.default_rng(0).standard_normal((10, N))
    sp.ball_masses
    assert peak_bytes(comparability_report, dec, 0.5, family) <= 3 * N * N * 8


def test_geometric_checks_peak_allocation():
    sp = grid300()
    dec = decompose(sp)
    omega = (sp.cond > 0).sum(axis=1) == 4
    f = np.random.default_rng(0).standard_normal(N)
    prob = DirichletProblem(stiffness_matrix(dec, 0.25), omega=omega, f=f)
    sol = solve_spectral(prob)
    u = poisson_extend(dec, 0.25, f, build_grid(0.25, default_ymax(dec), 32))
    grid = build_grid(0.25, 4.0, 64)
    assert peak_bytes(doubling_stats, sp) <= GEOMETRIC_BOUND_BYTES
    assert peak_bytes(holder_estimate, sol, prob) <= GEOMETRIC_BOUND_BYTES
    assert peak_bytes(codim_ball_check, sp, grid, np.arange(N), 4.0) <= GEOMETRIC_BOUND_BYTES
    assert peak_bytes(trace_averaging_diagnostic, u, sp) <= GEOMETRIC_BOUND_BYTES
