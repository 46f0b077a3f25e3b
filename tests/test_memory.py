"""Peak-allocation guards: the dense kernels must stay within O(n^2) memory.

The bound is 32 n^2 doubles at n=300 (about 23 MB), so a single n^3
temporary (216 MB of doubles, or 27 MB even as booleans) breaks it.  The
geometric checks run over every centre at once, where the easy mistake is a
(centre, point, radius) tensor: with 6 to 12 radii at n=300 it stays under
32 n^2 doubles, so they are held to 4 n^2 (they take about 1.2 n^2).  The
memory a built space retains, each fixture's build, the component count,
the validation of graph and Euclidean metrics, the ball-mass table, the hop
table, the mode preconditioner, the extension solve, the batched spectral
solve, the fractional stiffness, the comparability family, the heat series,
the subordination check and the walk bound have their own, tighter bounds.
"""

import tracemalloc

import numpy as np
import pytest

# the extension's profiles and constants import scipy.special on first use,
# and the fallback metric checks scipy.sparse.csgraph, which loads
# scipy.sparse.linalg; they are loaded here, once, so no traced call
# measures those imports
import scipy.sparse.csgraph  # noqa: F401
import scipy.special  # noqa: F401
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
    fixture,
    heat_kernel_log_bound,
    heat_kernel_series,
    holder_estimate,
    solve_extension,
    solve_spectral,
    solve_spectral_batch,
    stiffness_matrix,
    subordination_check,
)
from fraclap.cli import _KINDS, _exp_heat_properties
from fraclap.dirichlet import _ModePreconditioner, _ProductGridOperator
from fraclap.space import _component_count, _hop_counts, _neighbour_counts

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


def retained_bytes(fn, *args):
    """Memory still allocated once fn(*args) returns, its result alive."""
    tracemalloc.start()
    try:
        result = fn(*args)
        current = tracemalloc.get_traced_memory()[0]
        del result
        return current
    finally:
        tracemalloc.stop()


def grid300():
    return fixture("grid2d", nx=15, ny=20)


def grid_interior(sp):
    """grid2d's interior: the lattice rim peeled off."""
    return _neighbour_counts(sp) == 4


def test_space_retains_one_dense_array():
    # a space holds dist, mu and the CSR conductances: about 1.03 n^2
    # doubles (1.07 on the process's first build, which fills some of
    # scipy's caches), where a second, dense copy of the conductances took 2.03
    assert retained_bytes(grid300) <= 1.1 * N * N * 8


def test_fixture_hands_its_arrays_over_uncopied():
    # grid2d at n=300 peaks at about 2.03 n^2 doubles (2.06 on the process's
    # first build): its dist, and the certificate's hop table and row
    # blocks.  A dense n x n cond beside dist took 3.07, and comparing the
    # whole hop metric with dist 4.21; copying its dist in build_space, as a
    # writeable input would be, adds one n^2 more.  The margin is 0.2 n^2.
    assert peak_bytes(grid300) <= 2.25 * N * N * 8


@pytest.mark.parametrize(
    "kind, params, bound",
    [
        # dist, then the certificate's 2-byte hop table and row blocks: about
        # 2.02 n^2 doubles (2.05 first), where the np.eye pair of a dense
        # cond and an integer dist with its cast took 3.03
        ("path", {"n": N}, 2.25),
        # dist, the cliques' 38920 CSR entries (0.65 n^2) and the metric
        # check over them: about 2.50 n^2, where a screen from point 0 with
        # |E|-long sums took 3.09, and a dense cond, the n x n masks of the
        # metric, and the CSR sum of the symmetry check 5.13
        ("dumbbell", {"clique": 140, "bridge": 20}, 2.75),
    ],
)
def test_fixture_build_peak_allocation(kind, params, bound):
    assert peak_bytes(lambda: fixture(kind, **params)) <= bound * N * N * 8


def test_besov_energy_peak_allocation():
    # a fresh space, so the ball-mass table is built inside the traced call
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    f = np.random.default_rng(0).standard_normal(N)
    assert peak_bytes(besov_energy, sp, 0.5, f) <= BOUND_BYTES


def test_ball_masses_peak_allocation():
    # the table and one row block's sort order, sorted distances, masses and
    # tie mask: about 2.07 n^2 doubles at n=300 (a block of 64 rows is 0.21
    # n^2), where sorting every row at once took 4.0
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    fresh = Space(sp.dist, sp.mu, sp.graph)
    assert peak_bytes(lambda: fresh.ball_masses) <= 2.5 * N * N * 8


def test_heat_kernel_series_peak_allocation():
    # Q, the term, the running sum and one product: about 4.1 n^2 doubles
    assert peak_bytes(heat_kernel_series, grid300(), 1.0) <= 4.5 * N * N * 8


def test_heat_properties_peak_allocation():
    # one spectral kernel per t, freed before the next, the walk bound's
    # log table, its mask and its 2-byte hop table, and one row block of
    # K_t / max K_t: about 2.54 n^2 doubles, where the whole K_t / max K_t
    # took 3.38, composing two half-time kernels per t 4.38 and one series
    # call per t 7.05
    sp = fixture("random_geometric", n=400, radius=0.15, seed=3)
    ctx = {"space": sp, "dec": decompose(sp)}
    params = {**_KINDS["heat_properties"].defaults, "ts": [0.1, 1.0, 4.0]}
    assert peak_bytes(_exp_heat_properties, ctx, params) <= 2.75 * 400 * 400 * 8


def test_subordination_check_peak_allocation():
    # the family rule hands the integrand one panel's 12 nodes per call, so
    # the peak is a few 12 x n arrays and the open panels' values: about
    # 0.15 n^2 doubles at n=400, where one call on a first pass's 144 nodes
    # takes 0.78 (quad_vec's one node per call took 0.11)
    dec = decompose(fixture("random_geometric", n=400, radius=0.15, seed=3))
    for t in (0.1, 1.0):
        assert peak_bytes(subordination_check, dec, t) <= 0.5 * 400 * 400 * 8


def test_heat_kernel_log_bound_peak_allocation():
    # q_min is a minimum over each row of the CSR copy, so the peak is the
    # hop pass: about 5.2 n^2 bytes on the dumbbell, where a dense edge mask
    # took 8.5 and the edge index arrays with their |E|-length float
    # temporaries took 15.65
    sp = fixture("dumbbell", clique=190, bridge=20)
    assert peak_bytes(heat_kernel_log_bound, sp) <= 9 * 400 * 400


def test_hop_counts_peak_allocation():
    # the breadth-first sweep keeps its sources as bits, so the peak is the
    # 2-byte hop table and one unpacked bit plane: about 3.7 n^2 bytes at
    # n=400, where scipy's shortest-path pass took 10 (an n^2 float64 table
    # and its cast).  Both cliques of the dumbbell hold most of its edges:
    # its neighbour lists, read from the CSR structure, take about 5.1 n^2
    # bytes, where a dense edge mask and its transpose took 7.5 and one
    # gather of every edge's frontier words per level would take |E| n/8
    # (about 25 n^2)
    sp = fixture("random_geometric", n=400, radius=0.15, seed=3)
    assert peak_bytes(_hop_counts, sp.graph) <= 4 * 400 * 400
    sp = fixture("dumbbell", clique=190, bridge=20)
    assert peak_bytes(_hop_counts, sp.graph) <= 8 * 400 * 400


def test_component_count_peak_allocation():
    # int32 labels, and one round's 4-byte gather of the neighbours' labels
    # as its one |E|-long array: about 0.29 n^2 doubles (5.2 bytes per
    # stored entry) on the dumbbell, whose cliques hold 71862 entries, where
    # scipy's connected_components took 0.68, and an |E|-long intp array of
    # row or column indices takes 0.45 on its own
    sp = fixture("dumbbell", clique=190, bridge=20)
    assert peak_bytes(_component_count, sp.graph) <= 0.4 * 400 * 400 * 8


def test_stiffness_matrix_peak_allocation():
    # a form builds K only when its `stiffness` is read: the Gram product of
    # M Phi Lambda^(theta/2), its scaled root and K, about 2.06 n^2 doubles at
    # n=400 (numpy's 64 KiB broadcast buffer is 0.05 of that), where the
    # general product and its symmetrization took 3.05
    dec = decompose(fixture("grid2d", nx=20))
    assert peak_bytes(lambda: stiffness_matrix(dec, 0.5).stiffness) <= 2.1 * 400 * 400 * 8


def test_decompose_peak_allocation():
    # the eigensolver's inputs are freed before validation: about 3 n^2
    # doubles, where keeping them alive takes about 7.  Blind spot: numpy's
    # eigh copies its input into LAPACK work buffers it allocates itself,
    # outside tracemalloc (scipy's eigh, used before, worked in numpy arrays
    # that were traced), so the eigensolve's own n^2 buffers do not count
    # here; a fresh process's resident peak at grid2d n=1600 shows them
    # (CHANGES.md)
    assert peak_bytes(decompose, grid300()) <= 5 * N * N * 8


def test_metric_certificate_peak_allocation():
    # grid2d's metric is certified by its 2-byte hop table, compared with
    # dist one row block at a time: about 1.05 n^2 doubles for all of
    # build_space, where the whole path metric and its gap to dist took
    # 2.19, Dijkstra over its edges 2.3, and the Floyd-Warshall route takes
    # 3.1, so a silent fallback fails too
    sp = grid300()
    assert peak_bytes(build_space, sp.dist, sp.mu, sp.graph.toarray()) <= 1.5 * N * N * 8


def test_euclidean_certificate_peak_allocation():
    # random_geometric's metric is certified by its planar embedding, its
    # distances made and compared with dist one row block at a time: about
    # 0.79 n^2 doubles for all of build_space (0.80 on the process's first
    # build), where each block made beside the previous block's two arrays
    # took 0.82, the whole embedded matrix and its gap to dist 2.24, and the
    # Floyd-Warshall route takes 3.1
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    assert peak_bytes(build_space, sp.dist, sp.mu, sp.graph.toarray()) <= 1 * N * N * 8
    # the fixture's dist, made and scanned for edges one row block at a
    # time, and that check: about 1.80 n^2, where an n^2 edge mask took
    # 1.83, a dense n x n cond beside dist 2.77, three n^2 boolean masks and
    # the whole embedded matrix 4.26, and the (n, n, 2) difference tensor 7.1
    build = peak_bytes(lambda: fixture("random_geometric", n=N, radius=0.15, seed=0))
    assert build <= 2 * N * N * 8


def test_mode_preconditioner_peak_allocation():
    # the pinned Schur step factors the capacitance matrix of the 66-point
    # complement, from its rows of Phi scaled in place: about 0.65 n^2
    # doubles, where factoring the 234-point Omega block of S took 1.90,
    # keeping a full M Phi and copying S into Fortran order took 1.94, and
    # holding M Phi, its row copy, the scaled copy and their product at once
    # took 3.4
    sp = grid300()
    dec = decompose(sp)
    omega = grid_interior(sp)
    op = _ProductGridOperator(sp, build_grid(0.25, default_ymax(dec), 32), omega)
    assert peak_bytes(_ModePreconditioner, op, dec) <= 0.75 * N * N * 8


def test_extension_solve_peak_allocation():
    # the modal inverse keeps about 0.50 n^2 (its vertical blocks and the
    # capacitance factor), defect correction holds x, b and r of n m +
    # |Omega| entries (0.11 n^2 each), and an operator application takes
    # about 0.74 n^2 of n x m temporaries: about 1.58 n^2 doubles at m=32,
    # where the conjugate gradient's search direction, its image and the
    # residual recheck took 1.91, factoring the Omega block of S 2.24, and a
    # dense copy of the graph stiffness and a stored M Phi 4.24
    sp = grid300()
    dec = decompose(sp)
    omega = grid_interior(sp)
    f = np.random.default_rng(0).standard_normal(N)
    prob = DirichletProblem(stiffness_matrix(dec, 0.25), omega=omega, f=f)
    grid = build_grid(0.25, default_ymax(dec), 32)
    assert peak_bytes(solve_extension, prob, grid) <= 1.7 * N * N * 8


def test_spectral_batch_peak_allocation():
    # the capacitance matrix of the 66-point complement (its scaled rows of
    # Phi and their Gram product) and the n x 20 solutions and modal
    # coefficients: about 0.63 n^2 doubles, where factoring the 234-point
    # K_OO block in place took 1.04 and copying it into Fortran order 1.29
    sp = grid300()
    form = stiffness_matrix(decompose(sp), 0.25)
    omega = grid_interior(sp)
    rng = np.random.default_rng(0)
    probs = [DirichletProblem(form, omega=omega, f=rng.standard_normal(N)) for _ in range(20)]
    assert peak_bytes(solve_spectral_batch, probs) <= 0.7 * N * N * 8


def test_comparability_report_peak_allocation():
    # the first call builds the ball-mass table: about 3.07 n^2 doubles (the
    # table, one row block of its work arrays, then the Besov stiffness
    # matrix), where the whole-matrix table took 4.0 and B = A + A^T beside
    # A 5.0
    sp = fixture("random_geometric", n=N, radius=0.15, seed=0)
    dec = decompose(sp)
    family = np.random.default_rng(0).standard_normal((10, N))
    assert peak_bytes(comparability_report, dec, 0.5, family) <= 3.5 * N * N * 8
    # with the table built, the family's energies take the Besov stiffness
    # matrix, written over its one work array, and one mirrored pair of row
    # blocks: about 1.19 n^2, where a second array for A + A^T took 2.09 and
    # the per-member double sums 4.1
    assert peak_bytes(comparability_report, dec, 0.5, family) <= 1.5 * N * N * 8


def test_geometric_checks_peak_allocation():
    sp = grid300()
    dec = decompose(sp)
    omega = grid_interior(sp)
    f = np.random.default_rng(0).standard_normal(N)
    prob = DirichletProblem(stiffness_matrix(dec, 0.25), omega=omega, f=f)
    sol = solve_spectral(prob)
    grid = build_grid(0.25, 4.0, 64)
    assert peak_bytes(holder_estimate, sol, prob) <= GEOMETRIC_BOUND_BYTES
    assert peak_bytes(codim_ball_check, sp, grid, np.arange(N), 4.0) <= GEOMETRIC_BOUND_BYTES
