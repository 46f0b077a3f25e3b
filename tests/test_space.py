from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array, csr_array, csr_matrix
from scipy.sparse.csgraph import connected_components, floyd_warshall, shortest_path
from scipy.spatial.distance import cdist

from fraclap import (
    ball_mask,
    ball_measure,
    build_space,
    check_space_spec,
    decompose,
    fixture,
    space_from_spec,
)
from fraclap.errors import (
    DisconnectedGraph,
    InvalidParams,
    MetricViolation,
    NonpositiveMeasure,
)
from fraclap.space import (
    _METRIC_TOL,
    _FIXTURES,
    _ROW_BLOCK,
    _check_metric,
    _component_count,
    _edge_lengths,
    _euclidean_rows,
    _neighbour_counts,
    _row_blocks,
    _is_edge_path_metric,
    _is_euclidean_metric,
    _is_hop_metric,
    _min_off_diagonal,
    interior_mask,
)


def test_k2_is_valid():
    sp = build_space([[0, 1], [1, 0]], [1, 1], [[0, 1], [1, 0]])
    assert sp.n == 2
    assert sp.total_mass == 2.0


def test_triangle_violation_reports_witness():
    # d(0,2) = 5 > d(0,1) + d(1,2) = 2
    dist = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    cond = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    with pytest.raises(MetricViolation, match="triangle"):
        build_space(dist, [1, 1, 1], cond)


def _several_hop_slack():
    # every triple is within the triangle tolerance, but the three-hop path
    # 0-1-2-3 undercuts d(0,3) by more than the tolerance allows
    e1, e3 = 2e-12, 5e-12
    dist = np.array(
        [
            [0.0, 1.0, 2.0 + e1, 3.0 + e3],
            [1.0, 0.0, 1.0, 2.0 + e1],
            [2.0 + e1, 1.0, 0.0, 1.0],
            [3.0 + e3, 2.0 + e1, 1.0, 0.0],
        ]
    )
    return dist, np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)


def test_slack_accumulated_over_several_hops_accepted():
    dist, cond = _several_hop_slack()
    fw = floyd_warshall(dist)
    assert np.any(dist - fw > 1e-12 * (1.0 + fw))
    sp = build_space(dist, np.ones(4), cond)
    assert sp.dist[0, 3] == 3.0 + 5e-12


def test_nonpositive_measure_rejected():
    with pytest.raises(NonpositiveMeasure):
        build_space([[0, 1], [1, 0]], [1, 0], [[0, 1], [1, 0]])


def test_all_zero_conductance_disconnected():
    dist = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(DisconnectedGraph):
        build_space(dist, [1, 1, 1], np.zeros((3, 3)))


def test_asymmetric_distance_rejected():
    with pytest.raises(MetricViolation, match="symmetric"):
        build_space([[0, 1], [2, 0]], [1, 1], [[0, 1], [1, 0]])


def test_nonzero_diagonal_rejected():
    with pytest.raises(MetricViolation, match="diagonal"):
        build_space([[1, 1], [1, 0]], [1, 1], [[0, 1], [1, 0]])


def test_conductance_checks_and_their_order():
    dist, mu = [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [1, 1, 1]
    path = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    one_way = path.copy()
    one_way[0, 2] = 1e-13  # symmetric within 1e-12
    assert build_space(dist, mu, one_way).graph.nnz == 5
    for bad in (1e-11, -1e-13):
        cond = path.copy()
        cond[0, 2] = bad
        with pytest.raises(InvalidParams, match="symmetric and nonnegative"):
            build_space(dist, mu, cond)
    with pytest.raises(InvalidParams, match="zero diagonal"):
        build_space(dist, mu, path + np.eye(3))
    # the metric is checked first, and connectivity last
    with pytest.raises(MetricViolation):
        build_space([[0, 1, 5], [1, 0, 1], [5, 1, 0]], mu, -path)
    negative_edge_and_isolated_point = np.zeros((3, 3))
    negative_edge_and_isolated_point[0, 1] = negative_edge_and_isolated_point[1, 0] = -1.0
    with pytest.raises(InvalidParams):
        build_space(dist, mu, negative_edge_and_isolated_point)


def test_zero_offdiagonal_distance_rejected():
    dist = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    cond = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(MetricViolation, match="nonpositive"):
        build_space(dist, [1, 1, 1], cond)


def test_min_off_diagonal_reads_every_off_diagonal_entry():
    # the least entry in each off-diagonal position in turn, below a
    # diagonal that must not be read, in C and in Fortran order
    for n in (2, 3, 5):
        for i, k in zip(*np.nonzero(~np.eye(n, dtype=bool))):
            dist = np.full((n, n), 2.0)
            np.fill_diagonal(dist, -1.0)
            dist[i, k] = 1.0
            assert _min_off_diagonal(dist) == _min_off_diagonal(np.asfortranarray(dist)) == 1.0


# -- shortest-path certificate of the triangle inequality


def _weighted_grid_metric(nx=4, ny=5):
    # edge lengths in [0.5, 2) on an nx x ny grid; the metric is their
    # Floyd-Warshall closure, so it is a path metric up to rounding
    cond = fixture("grid2d", nx=nx, ny=ny).graph.toarray()
    lengths = np.triu(cond * np.random.default_rng(3).uniform(0.5, 2.0, cond.shape), 1)
    return floyd_warshall(lengths + lengths.T), cond


def _fixture_metric(kind, **params):
    sp = fixture(kind, **params)
    return np.array(sp.dist), sp.graph.toarray()


def _scaled_metric(scale, kind, **params):
    dist, cond = _fixture_metric(kind, **params)
    return scale * dist, cond


def _points_3d():
    return np.random.default_rng(5).random((10, 3))


def _points_3d_metric():
    # points of the unit cube joined in a chain, so no path metric of its edges
    points = _points_3d()
    dist = cdist(points, points)
    return dist, np.eye(10, k=1) + np.eye(10, k=-1)


_CERTIFICATE_BASES = {
    "path": lambda: _fixture_metric("path", n=7),
    "grid2d": lambda: _fixture_metric("grid2d", nx=3, ny=4),
    "dumbbell": lambda: _fixture_metric("dumbbell", clique=4, bridge=2),
    "random_geometric": lambda: _fixture_metric("random_geometric", n=12, radius=0.5, seed=3),
    "random_geometric_1e-6": lambda: _scaled_metric(
        1e-6, "random_geometric", n=12, radius=0.5, seed=4
    ),
    "random_geometric_1e3": lambda: _scaled_metric(
        1e3, "random_geometric", n=12, radius=0.5, seed=5
    ),
    # one edge length l, inexact in binary or far from 1: the hop route
    "grid2d_0.1": lambda: _scaled_metric(0.1, "grid2d", nx=3, ny=4),
    "dumbbell_1e3": lambda: _scaled_metric(1e3, "dumbbell", clique=4, bridge=2),
    "path_1e-6": lambda: _scaled_metric(1e-6, "path", n=7),
    "euclidean_3d": _points_3d_metric,
    "weighted_grid": _weighted_grid_metric,
    "several_hop_slack": _several_hop_slack,
}


def _graph(cond):
    """The CSR copy of `cond` and its connectivity, as `build_space` hands
    them to the metric checks."""
    graph = csr_array(np.asarray(cond, dtype=float))
    return graph, connected_components(graph, directed=False)[0] == 1


def _edge_path_certified(dist, cond):
    """The edge-path certificate `_check_metric` tries on `cond`'s edges:
    the hop route when they have one length, else Dijkstra."""
    graph, connected = _graph(cond)
    if not connected:
        return False
    lengths = _edge_lengths(dist, graph)
    if lengths.size and np.all(lengths == lengths[0]):
        return _is_hop_metric(dist, graph, lengths[0])
    return _is_edge_path_metric(dist, graph, lengths)


def _metric_verdict(dist, cond):
    """None if `_check_metric` accepts, else its MetricViolation message."""
    try:
        _check_metric(dist, *_graph(cond))
    except MetricViolation as exc:
        return str(exc)
    return None


@given(
    base=st.sampled_from(sorted(_CERTIFICATE_BASES)),
    perturb=st.booleans(),
    factor=st.floats(0.5, 5.0),
    sign=st.sampled_from([-1.0, 1.0]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_certificate_and_floyd_warshall_agree(base, perturb, factor, sign, data):
    dist, cond = _CERTIFICATE_BASES[base]()
    n = len(dist)
    if perturb:
        # one pair moved by 0.5 to 5 times the triangle tolerance
        i = data.draw(st.integers(0, n - 1))
        k = data.draw(st.integers(0, n - 1).filter(lambda k: k != i))
        dist[i, k] = dist[k, i] = dist[i, k] + sign * factor * _METRIC_TOL * (1.0 + dist[i, k])
    with_certificate = _metric_verdict(dist, cond)
    with (
        mock.patch("fraclap.space._is_hop_metric", return_value=False),
        mock.patch("fraclap.space._is_edge_path_metric", return_value=False),
        mock.patch("fraclap.space._is_euclidean_metric", return_value=False),
    ):
        assert _metric_verdict(dist, cond) == with_certificate
    if _edge_path_certified(dist, cond) or _is_euclidean_metric(dist):
        assert with_certificate is None


def test_certificate_decides_graph_metrics_only():
    for base in ("path", "grid2d", "dumbbell", "weighted_grid"):
        assert _edge_path_certified(*_CERTIFICATE_BASES[base]())
    for base in ("random_geometric", "euclidean_3d", "several_hop_slack"):
        assert not _edge_path_certified(*_CERTIFICATE_BASES[base]())
    # a distance from point 0 moved by a tenth of the tolerance stays certified
    for sign in (-1.0, 1.0):
        dist, cond = _CERTIFICATE_BASES["grid2d"]()
        dist[0, -1] = dist[-1, 0] = dist[0, -1] + sign * 0.1 * _METRIC_TOL * (1.0 + dist[0, -1])
        assert _edge_path_certified(dist, cond)


def test_euclidean_certificate_decides_embedded_points_only():
    # the path metric is the line's, so it embeds in R^1
    for base in ("path", "random_geometric", "random_geometric_1e-6",
                 "random_geometric_1e3", "euclidean_3d"):
        assert _is_euclidean_metric(_CERTIFICATE_BASES[base]()[0])
    for base in ("grid2d", "dumbbell", "weighted_grid", "several_hop_slack"):
        assert not _is_euclidean_metric(_CERTIFICATE_BASES[base]()[0])
    # one pair of the plane moved by 1e-9 relative is no longer embedded
    dist, _ = _CERTIFICATE_BASES["random_geometric"]()
    dist[2, 7] = dist[7, 2] = dist[2, 7] * (1.0 + 1e-9)
    assert not _is_euclidean_metric(dist)
    # four points of R^3 in general position need all three coordinates
    with mock.patch("fraclap.space._EMBEDDING_RANK", 2):
        assert not _is_euclidean_metric(_CERTIFICATE_BASES["euclidean_3d"]()[0])


def test_random_geometric_certified_at_rank_two():
    # the benchmark fixture (n=400, radius 0.15) embeds in the plane: the
    # third pivot allowed is not spent on rounding noise
    for seed in range(20):
        dist = fixture("random_geometric", n=400, radius=0.15, seed=seed).dist
        # the certificate measures its embedding through the module's name
        with mock.patch("fraclap.space._euclidean_rows", wraps=_euclidean_rows) as embed:
            assert _is_euclidean_metric(dist)
        assert {call.args[0].shape[1] for call in embed.call_args_list} == {2}


def test_euclidean_rows_equal_cdist_on_random_geometric_points():
    # the random_geometric fixture's points at n=400, seeds 0-199: every row
    # block equals cdist's bit for bit, so the fixture's dist, its edges and
    # everything downstream are those cdist gave
    for seed in range(200):
        points = np.random.default_rng(seed).random((400, 2))
        for rows in _row_blocks(400):
            assert np.array_equal(_euclidean_rows(points, rows), cdist(points[rows], points)), seed


def test_random_geometric_dist_is_cdist_of_its_points():
    for seed in range(0, 200, 20):
        points = np.random.default_rng(seed).random((400, 2))
        dist = fixture("random_geometric", n=400, radius=0.15, seed=seed).dist
        assert np.array_equal(dist, cdist(points, points)), seed


def test_euclidean_rows_equal_cdist_in_three_dimensions():
    points = _points_3d()
    assert np.array_equal(_euclidean_rows(points, slice(0, 10)), cdist(points, points))
    # the certificate's own embedding of those points: three coordinates,
    # read from a strided view.  The certificate scales the blocks it gets
    # in place, so copies are kept
    calls = []

    def recording(points, rows):
        block = _euclidean_rows(points, rows)
        calls.append((points, rows, block.copy()))
        return block

    with mock.patch("fraclap.space._euclidean_rows", side_effect=recording):
        assert _is_euclidean_metric(_points_3d_metric()[0])
    assert {points.shape[1] for points, _, _ in calls} == {3}
    for points, rows, got in calls:
        assert np.array_equal(got, cdist(points[rows], points))


@pytest.mark.parametrize("place", ["first", "last"])
@pytest.mark.parametrize("route", ["hops", "dijkstra", "euclidean"])
def test_certificates_reject_a_pair_moved_in_the_first_or_last_row_block(route, place):
    # the certificates compare one row block at a time: a pair moved far
    # outside the tolerance is found in the first block and in the last
    if route == "euclidean":
        dist = np.array(fixture("random_geometric", n=150, radius=0.2, seed=1).dist)
        certified = _is_euclidean_metric
    else:
        dist, cond = _fixture_metric("grid2d", nx=12) if route == "hops" else (
            _weighted_grid_metric(12, 12)
        )
        certified = lambda d: _edge_path_certified(d, cond)  # noqa: E731
    n = len(dist)
    assert n > 2 * _ROW_BLOCK and certified(dist)
    # two hops apart on the grids, so no edge's length changes
    i, k = (1, 3) if place == "first" else (n - 3, n - 1)
    dist[i, k] = dist[k, i] = dist[i, k] * (1.0 + 1e-9)
    assert not certified(dist)


def _one_way(base):
    """A base whose edge (1, 2) is stored one way, with conductance 1e-13."""
    dist, cond = _CERTIFICATE_BASES[base]()
    cond = np.array(cond)
    cond[1, 2], cond[2, 1] = 1e-13, 0.0
    return dist, cond


def _shortest_path_verdict(dist, cond):
    """The edge-path certificate by its definition: `dist` within
    _METRIC_TOL/4 of the undirected shortest paths over its own lengths on
    the edges of `cond`, every point reachable."""
    paths = shortest_path(np.where(np.asarray(cond) != 0, dist, 0.0), directed=False)
    gap = np.abs(dist - paths)
    return bool(np.all(np.isfinite(paths)) and np.all(gap <= _METRIC_TOL / 4 * (1.0 + paths)))


@pytest.mark.parametrize(
    "case",
    sorted(_CERTIFICATE_BASES) + ["one_way_path", "one_way_weighted_grid", "one_point"],
)
def test_edge_path_certificate_matches_shortest_paths(case):
    # the hop route (one edge length) and Dijkstra (weighted edges) against
    # scipy's shortest paths, as given and with one pair moved inside and
    # outside the certificate's tolerance
    if case == "one_point":
        dist, cond = np.zeros((1, 1)), np.zeros((1, 1))
    elif case.startswith("one_way_"):
        dist, cond = _one_way(case.removeprefix("one_way_"))
    else:
        dist, cond = _CERTIFICATE_BASES[case]()
    assert _edge_path_certified(dist, cond) == _shortest_path_verdict(dist, cond)
    for factor in ((-0.1, 0.1, 2.0) if len(dist) > 1 else ()):
        moved = dist.copy()
        moved[0, -1] = moved[-1, 0] = dist[0, -1] + factor * _METRIC_TOL * (1.0 + dist[0, -1])
        assert _edge_path_certified(moved, cond) == _shortest_path_verdict(moved, cond)
    if case.startswith("one_way_") or case == "one_point":
        assert _edge_path_certified(dist, cond)


def test_certificate_rejects_unreachable_points():
    # point 2 has no edge: a violating metric is reported as such, before
    # the graph is found disconnected
    dist = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    cond = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    with pytest.raises(MetricViolation, match="witness triple 0,1,2"):
        build_space(dist, [1, 1, 1], cond)
    with pytest.raises(DisconnectedGraph):
        build_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [1, 1, 1], cond)


def test_floyd_warshall_only_where_the_certificate_cannot_decide(monkeypatch):
    calls = []

    def counting(name, solve):
        def counted(graph, *args, **kwargs):
            calls.append((name, graph.shape[0]))
            return solve(graph, *args, **kwargs)

        return counted

    # the certificates import both on first use, from the scipy module
    monkeypatch.setattr("scipy.sparse.csgraph.floyd_warshall", counting("fw", floyd_warshall))
    monkeypatch.setattr("scipy.sparse.csgraph.shortest_path", counting("dijkstra", shortest_path))
    # one edge length: the hop table decides, with no shortest-path solve
    fixture("path", n=50)
    fixture("grid2d", nx=12, ny=9)
    fixture("dumbbell", clique=40)  # dense: 39 edges per point
    assert calls == []
    # weighted edges: one Dijkstra pass
    dist, cond = _weighted_grid_metric()
    build_space(dist, np.ones(len(dist)), cond)
    assert calls == [("dijkstra", 20)]
    calls.clear()
    # Euclidean, weighted edges: the embedding certifies it before any
    # shortest-path solve
    fixture("random_geometric", n=40, radius=0.4, seed=0)
    assert calls == []
    # neither a path metric of its edges nor points of R^r
    dist, cond = _several_hop_slack()
    build_space(dist, np.ones(4), cond)
    assert [call for call in calls if call[0] == "fw"] == [("fw", 4)]


# -- ball measure


def test_ball_measure_k2(k2):
    assert ball_measure(k2, 0, 0.5) == 1.0
    assert ball_measure(k2, 0, 1.0) == 2.0


def test_ball_measure_p3_enumeration(p3):
    # independent enumeration of points within distance 1 of the middle
    expected = sum(p3.mu[z] for z in range(3) if p3.dist[1, z] <= 1.0)
    assert expected == 3.0
    assert ball_measure(p3, 1, 1.0) == expected


def test_ball_at_diameter_is_total_mass(path8, grid44, dumbbell55):
    for sp in (path8, grid44, dumbbell55):
        for x in range(sp.n):
            assert ball_measure(sp, x, sp.diameter) == sp.total_mass


@given(seed=st.integers(0, 50), x=st.integers(0, 19))
@settings(max_examples=25, deadline=None)
def test_ball_measure_monotone_in_radius(seed, x):
    sp = fixture("random_geometric", n=20, radius=0.6, seed=seed)
    radii = np.linspace(0, sp.diameter, 12)
    masses = [ball_measure(sp, x, r) for r in radii]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_ball_masses_match_direct_enumeration(
    path8, grid44, dumbbell55, grid12, weighted_grid12
):
    # tie-heavy fixtures: many points share each distance, and all of them
    # belong to the closed ball.  The 12x12 grids span several row blocks,
    # one of them with unequal masses (multiples of 1/4, so sums are exact)
    assert grid12.n > 2 * _ROW_BLOCK
    for sp in (path8, grid44, dumbbell55, grid12, weighted_grid12):
        direct = np.array(
            [[sp.mu[sp.dist[z] <= sp.dist[z, w]].sum() for w in range(sp.n)]
             for z in range(sp.n)]
        )
        assert np.array_equal(sp.ball_masses, direct)
        assert sp.ball_masses is sp.ball_masses
        assert not sp.ball_masses.flags.writeable


def test_ball_masses_nonuniform_measure():
    dist = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    cond = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    sp = build_space(dist, [0.5, 2.0, 0.25], cond)
    assert np.array_equal(
        sp.ball_masses, [[0.5, 2.5, 2.75], [2.75, 2.0, 2.75], [2.75, 2.25, 0.25]]
    )


def test_ball_measure_all_centres_matches_loop(path8, grid44, dumbbell55, weighted_grid34):
    # the per-centre mask sum that the array code replaced, at tie radii too
    for sp in (path8, grid44, dumbbell55, weighted_grid34):
        centres = np.arange(sp.n)
        for r in (0.0, 0.5, 1.0, 1.5, 2.0, sp.diameter):
            loop = np.array([sp.mu[sp.dist[x] <= r].sum() for x in range(sp.n)])
            assert np.array_equal(ball_measure(sp, centres, r), loop)
            assert [ball_measure(sp, int(x), r) for x in centres] == loop.tolist()
            assert ball_mask(sp, centres, r).shape == (sp.n, sp.n)
    # generic masses: the same sums up to their order
    sp = fixture("random_geometric", n=40, radius=0.4, seed=3)
    mu = np.random.default_rng(3).uniform(0.1, 3.0, 40)
    sp = build_space(sp.dist, mu, sp.graph.toarray())
    for r in (0.1, 0.3, 0.7):
        loop = np.array([sp.mu[sp.dist[x] <= r].sum() for x in range(sp.n)])
        np.testing.assert_allclose(ball_measure(sp, np.arange(sp.n), r), loop, rtol=1e-14)


def test_negative_radius_rejected(k2):
    with pytest.raises(InvalidParams):
        ball_measure(k2, 0, -0.1)


# -- fixtures


def test_path_fixture_metric(p3):
    assert p3.dist[0, 2] == 2.0
    cond = p3.graph.toarray()
    assert cond[0, 1] == 1.0 and cond[0, 2] == 0.0


def test_grid_fixture_shape(grid44):
    assert grid44.n == 16
    degrees = (grid44.graph.toarray() > 0).sum(axis=1)
    assert degrees.max() <= 4
    # Manhattan metric between opposite corners
    assert grid44.dist[0, 15] == 6.0


def test_dumbbell_fixture(dumbbell55):
    assert dumbbell55.n == 10
    degrees = (dumbbell55.graph.toarray() > 0).sum(axis=1)
    # bridge endpoints have clique degree + 1
    assert sorted(degrees)[-2:] == [5, 5]
    assert dumbbell55.dist[0, 9] == 3.0


@pytest.mark.parametrize(
    "kind, params",
    [
        ("path", {"n": 6}),
        ("grid2d", {"nx": 2}),
        ("grid2d", {"nx": 3, "ny": 7}),
        ("grid2d", {"nx": 20}),
        ("dumbbell", {"clique": 2}),
        ("dumbbell", {"clique": 3}),
        ("dumbbell", {"clique": 4, "bridge": 1}),
        ("dumbbell", {"clique": 5, "bridge": 5}),
        ("dumbbell", {"clique": 10, "bridge": 3}),
    ],
)
def test_fixture_metric_is_hop_metric_of_its_graph(kind, params):
    # the closed-form metrics against unit-length shortest paths of `cond`
    sp = fixture(kind, **params)
    assert np.array_equal(sp.dist, shortest_path(sp.graph.toarray() > 0, unweighted=True))


def test_fixture_conductances_match_loops():
    # the scalar loops the grid2d and dumbbell builders replaced
    for nx, ny in ((2, 2), (4, 4), (3, 7), (20, 20)):
        cond = np.zeros((nx * ny, nx * ny))
        for i in range(nx):
            for j in range(ny):
                if i + 1 < nx:
                    cond[i * ny + j, (i + 1) * ny + j] = cond[(i + 1) * ny + j, i * ny + j] = 1
                if j + 1 < ny:
                    cond[i * ny + j, i * ny + j + 1] = cond[i * ny + j + 1, i * ny + j] = 1
        assert np.array_equal(fixture("grid2d", nx=nx, ny=ny).graph.toarray(), cond)
    for clique, bridge in ((2, 0), (5, 5), (4, 1)):
        n = 2 * clique + bridge
        cond = np.zeros((n, n))
        for block in (range(clique), range(clique + bridge, n)):
            for i in block:
                for j in block:
                    if i != j:
                        cond[i, j] = 1.0
        chain = [clique - 1, *range(clique, clique + bridge), clique + bridge]
        for u, v in zip(chain[:-1], chain[1:]):
            cond[u, v] = cond[v, u] = 1.0
        built = fixture("dumbbell", clique=clique, bridge=bridge)
        assert np.array_equal(built.graph.toarray(), cond)


def _dense_conductances(kind, params, dist):
    """The n x n conductances of fixture `kind`, built densely as the fixtures
    once did: an np.eye pair for a path, the lattice edges scattered into
    zeros, two clique blocks and the chain, and dist <= radius with the
    diagonal cleared."""
    n = len(dist)
    if kind == "path":
        return np.eye(n, k=1) + np.eye(n, k=-1)
    cond = np.zeros((n, n))
    if kind == "grid2d":
        points = np.arange(n).reshape(params["nx"], params.get("ny") or params["nx"])
        for a, b in ((points[:, :-1], points[:, 1:]), (points[:-1], points[1:])):
            cond[a, b] = cond[b, a] = 1.0
    elif kind == "dumbbell":
        clique, bridge = params["clique"], params.get("bridge", 0)
        cond[:clique, :clique] = cond[-clique:, -clique:] = 1.0 - np.eye(clique)
        chain = np.arange(clique - 1, clique + bridge + 1)
        cond[chain[:-1], chain[1:]] = cond[chain[1:], chain[:-1]] = 1.0
    else:
        cond = (dist <= params["radius"]).astype(float)
        np.fill_diagonal(cond, 0.0)
    return cond


_FIXTURE_CASES = [
    ("path", {"n": 2}),
    ("path", {"n": 9}),
    ("grid2d", {"nx": 2}),
    ("grid2d", {"nx": 3, "ny": 7}),
    ("grid2d", {"nx": 20}),
    ("dumbbell", {"clique": 2}),
    ("dumbbell", {"clique": 5, "bridge": 5}),
    ("dumbbell", {"clique": 140, "bridge": 20}),
    ("random_geometric", {"n": 50, "radius": 0.3, "seed": 7}),
    ("random_geometric", {"n": 400, "radius": 0.15, "seed": 3}),
]


@pytest.mark.parametrize("kind, params", _FIXTURE_CASES)
def test_fixture_graph_is_csr_of_its_dense_conductances(kind, params):
    # the CSR arrays the fixture builds from its edge lists are those of the
    # dense conductances' CSR conversion, index types included
    sp = fixture(kind, **params)
    dense = csr_array(_dense_conductances(kind, params, sp.dist))
    assert sp.graph.has_canonical_format
    for built, converted in (
        (sp.graph.indptr, dense.indptr),
        (sp.graph.indices, dense.indices),
        (sp.graph.data, dense.data),
    ):
        assert built.dtype == converted.dtype
        assert np.array_equal(built, converted)


@pytest.mark.parametrize(
    "kind, params",
    [("grid2d", {"nx": 20}), ("random_geometric", {"n": 400, "radius": 0.15, "seed": 3})],
)
def test_fixture_spectrum_is_that_of_its_dense_conductances(kind, params):
    # the benchmark's two spaces: the eigenpairs of a fixture are bit for bit
    # those of the same space built from its dense conductances
    sp = fixture(kind, **params)
    dec = decompose(sp)
    dense = decompose(build_space(sp.dist, sp.mu, _dense_conductances(kind, params, sp.dist)))
    assert np.array_equal(dec.lambdas, dense.lambdas)
    assert np.array_equal(dec.phis, dense.phis)
    assert dec.ortho_defect == dense.ortho_defect


def test_random_geometric_metric_matches_difference_tensor():
    # the (n, n, 2) difference tensor the fixture summed before: the same
    # two-term sum, so the same bits
    for seed in (0, 7):
        pts = np.random.default_rng(seed).random((50, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(-1))
        assert np.array_equal(fixture("random_geometric", n=50, radius=0.3, seed=seed).dist, dist)


def test_random_geometric_deterministic():
    a = fixture("random_geometric", n=20, radius=0.4, seed=7)
    b = fixture("random_geometric", n=20, radius=0.4, seed=7)
    assert np.array_equal(a.dist, b.dist)
    assert np.array_equal(a.graph.toarray(), b.graph.toarray())
    assert np.array_equal(a.mu, b.mu)


def test_fixture_param_validation():
    with pytest.raises(InvalidParams):
        fixture("path", n=1)
    with pytest.raises(InvalidParams):
        fixture("no_such_kind", n=4)
    with pytest.raises(InvalidParams):
        fixture("dumbbell", clique=1)


@pytest.mark.parametrize(
    "spec",
    [
        {"fixture": {"kind": "path", "params": {"m": 8}}},
        {"fixture": {"kind": "grid2d", "params": {}}},
        {"fixture": {"kind": "path", "params": [8]}},
        {"fixture": "path"},
        {"fixture": {"kind": "ring", "params": {"n": 8}}},
        {"mu": [1, 1], "cond": [[0, 1], [1, 0]]},
    ],
)
def test_space_from_spec_rejects_malformed(spec):
    with pytest.raises(InvalidParams):
        space_from_spec(spec)


def test_fixture_rejects_unknown_param():
    with pytest.raises(InvalidParams, match="m"):
        fixture("path", m=8)


def test_space_immutable(p3):
    graph = p3.graph
    for arr in (p3.dist, p3.mu, graph.data, graph.indices, graph.indptr, p3.degrees):
        with pytest.raises(ValueError):
            arr[0] = 5
    assert p3.degrees is p3.degrees


def test_build_space_copies_writeable_input():
    # the caller's arrays stay writeable, and editing them later does not
    # change the space
    dist = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    mu = np.ones(4)
    cond = np.eye(4, k=1) + np.eye(4, k=-1)
    sp = build_space(dist, mu, cond)
    assert all(arr.flags.writeable for arr in (dist, mu, cond))
    assert not np.shares_memory(sp.dist, dist) and not np.shares_memory(sp.mu, mu)
    dist[0, 3] = dist[3, 0] = 9.0
    mu[0] = 7.0
    cond[0, 1] = cond[1, 0] = 5.0
    assert sp.dist[0, 3] == 3.0 and sp.mu[0] == 1.0 and sp.graph[0, 1] == 1.0
    assert not sp.dist.flags.writeable and not sp.mu.flags.writeable


def test_build_space_holds_read_only_input(grid44):
    # read-only float64 arrays and a read-only canonical CSR graph, as the
    # fixtures hand over, are not copied
    sp = build_space(grid44.dist, grid44.mu, grid44.graph.toarray())
    assert sp.dist is grid44.dist and sp.mu is grid44.mu
    assert build_space(grid44.dist, grid44.mu, grid44.graph).graph is grid44.graph


def _path4():
    dist = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
    return dist, np.ones(4), csr_array(np.eye(4, k=1) + np.eye(4, k=-1))


def test_build_space_canonicalizes_sparse_conductances():
    # row 0 splits its edge into two duplicates around an explicit zero, and
    # rows 1 and 2 list their neighbours in falling order; in CSR, COO and
    # matrix form, each is held as the canonical CSR array of the path
    dist, mu, path = _path4()
    indices = np.array([1, 3, 1, 2, 0, 3, 1, 2])
    data = np.array([0.25, 0.0, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0])
    unsorted = csr_array((data, indices, np.array([0, 3, 5, 7, 8])), shape=(4, 4))
    assert not unsorted.has_canonical_format
    for cond in (unsorted, coo_array(unsorted), csr_matrix(unsorted)):
        graph = build_space(dist, mu, cond).graph
        assert isinstance(graph, csr_array) and graph.has_canonical_format
        assert np.array_equal(graph.indptr, path.indptr)
        assert np.array_equal(graph.indices, path.indices)
        assert np.array_equal(graph.data, path.data)
        assert not any(arr.flags.writeable for arr in (graph.data, graph.indices, graph.indptr))


def test_build_space_copies_a_writeable_sparse_graph():
    dist, mu, path = _path4()
    sp = build_space(dist, mu, path)
    assert sp.graph is not path and not np.shares_memory(sp.graph.data, path.data)
    path.data[:] = 5.0
    assert np.all(sp.graph.data == 1.0)


def test_build_space_checks_sparse_conductances():
    dist, mu, path = _path4()
    bad = path.copy()
    bad.data[0] = np.nan
    with pytest.raises(InvalidParams, match="cond contains non-finite"):
        build_space(dist, mu, bad)
    with pytest.raises(InvalidParams, match="shape mismatch"):
        build_space(dist, mu, csr_array((3, 3)))
    one_way = path.tolil()
    one_way[0, 1] = 2.0
    with pytest.raises(InvalidParams, match="symmetric"):
        build_space(dist, mu, one_way)
    with pytest.raises(DisconnectedGraph):
        build_space(dist, mu, csr_array((4, 4)))


def _csgraph_count(graph):
    return connected_components(graph, directed=False)[0]


def _edge_graph(n, rows, cols):
    """Canonical CSR graph of unit entries at (rows[k], cols[k]), each stored
    one way only unless the lists hold both ways."""
    graph = csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    graph.sum_duplicates()
    return graph


@given(n=st.integers(1, 40), both_ways=st.booleans(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_component_count_matches_csgraph(n, both_ways, data):
    # edges may be stored one way, may be loops, and may leave points isolated
    point = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=2 * n))
    rows, cols = (list(ends) for ends in zip(*pairs)) if pairs else ([], [])
    if both_ways:
        rows, cols = rows + cols, cols + rows
    graph = _edge_graph(n, rows, cols)
    assert _component_count(graph) == _csgraph_count(graph)


def test_component_count_on_random_sparse_graphs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 300))
        m = int(rng.integers(0, 2 * n))
        rows, cols = rng.integers(0, n, size=(2, m))
        graph = _edge_graph(n, rows, cols)
        assert _component_count(graph) == _csgraph_count(graph)
        symmetric = graph + graph.T
        assert _component_count(symmetric) == _csgraph_count(symmetric)


@pytest.mark.parametrize(
    "n, rows, cols, count",
    [
        (1, [], [], 1),
        (1, [0], [0], 1),  # a loop
        (5, [], [], 5),  # isolated points only
        (6, [0, 1, 2], [1, 2, 3], 3),  # a one-way path, two isolated points
        (6, [5, 4, 3, 2, 1], [4, 3, 2, 1, 0], 1),  # one way, towards smaller labels
        (6, [5, 5, 5, 5, 5], [0, 1, 2, 3, 4], 1),  # a one-way star from its largest point
        (6, [0, 0, 0, 0, 0], [5, 4, 3, 2, 1], 1),  # and from its smallest
        # 300 one-way pairs (2k, 2k + 1) and 100 isolated points
        (700, np.arange(0, 600, 2), np.arange(1, 600, 2), 400),
        # the same pairs, each stored from its larger point
        (700, np.arange(1, 600, 2)[::-1], np.arange(0, 600, 2)[::-1], 400),
    ],
)
def test_component_count_cases(n, rows, cols, count):
    graph = _edge_graph(n, np.asarray(rows, int), np.asarray(cols, int))
    assert _csgraph_count(graph) == count
    assert _component_count(graph) == count


def test_component_count_on_a_random_geometric_graph_of_many_components():
    # the points of a random geometric space, joined at a radius that leaves
    # many components
    sp = fixture("random_geometric", n=300, radius=0.15, seed=1)
    rows, cols = np.nonzero(sp.dist <= 0.03)
    graph = _edge_graph(sp.n, rows, cols)
    assert _csgraph_count(graph) > 100
    assert _component_count(graph) == _csgraph_count(graph)


def test_disconnected_graph_reported_after_metric_and_conductance_checks():
    # two triangles and a single point: three components
    dist = np.full((7, 7), 2.0)
    np.fill_diagonal(dist, 0.0)
    cond = np.zeros((7, 7))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        dist[a, b] = dist[b, a] = 1.0
        cond[a, b] = cond[b, a] = 1.0
    mu = np.ones(7)
    assert _csgraph_count(csr_array(cond)) == 3
    with pytest.raises(DisconnectedGraph, match=r"^conductance graph has 3 components$"):
        build_space(dist, mu, cond)
    # an edge stored one way, symmetric within the tolerance, joins the
    # triangles: two components
    one_way = cond.copy()
    one_way[2, 3] = 1e-13
    with pytest.raises(DisconnectedGraph, match=r"^conductance graph has 2 components$"):
        build_space(dist, mu, one_way)
    # a metric violation, an asymmetric conductance or a loop is reported first
    bad = dist.copy()
    bad[0, 6] = bad[6, 0] = 5.0
    with pytest.raises(MetricViolation, match="witness triple"):
        build_space(bad, mu, cond)
    asymmetric = cond.copy()
    asymmetric[0, 1] = 2.0
    with pytest.raises(InvalidParams, match="symmetric"):
        build_space(dist, mu, asymmetric)
    loop = cond.copy()
    loop[6, 6] = 1.0
    with pytest.raises(InvalidParams, match="zero diagonal"):
        build_space(dist, mu, loop)


@pytest.mark.parametrize(
    "kind, params, interior",
    [
        ("path", {"n": 6}, [False, True, True, True, True, False]),
        ("path", {"n": 2}, [True, False]),  # no interior: the first half
        ("grid2d", {"nx": 4, "ny": 3}, [False] * 3 + [False, True, False] * 2 + [False] * 3),
        ("grid2d", {"nx": 2, "ny": 3}, [True] * 3 + [False] * 3),  # no degree-4 point
        ("dumbbell", {"clique": 4, "bridge": 1}, [True] * 3 + [False] * 6),
        ("dumbbell", {"clique": 3}, [True] * 2 + [False] * 4),
    ],
)
def test_interior_mask_of_each_fixture_kind(kind, params, interior):
    spec = {"fixture": {"kind": kind, "params": params}}
    assert interior_mask(space_from_spec(spec), spec).tolist() == interior


def test_degrees_count_positive_conductances(weighted_grid34):
    # one small space of every fixture kind, and an inline weighted one
    params = {
        "path": {"n": 7},
        "grid2d": {"nx": 4, "ny": 3},
        "dumbbell": {"clique": 4, "bridge": 2},
        "random_geometric": {"n": 40, "radius": 0.3, "seed": 5},
    }
    assert set(params) == set(_FIXTURES)
    spaces = [fixture(kind, **kw) for kind, kw in params.items()] + [weighted_grid34]
    for space in spaces:
        assert np.array_equal(_neighbour_counts(space), (space.graph.toarray() > 0).sum(axis=1))


def test_interior_mask_of_inline_space_is_max_degree_core(grid44):
    cond = grid44.graph.toarray()
    spec = {"dist": grid44.dist.tolist(), "mu": grid44.mu.tolist(), "cond": cond.tolist()}
    mask = interior_mask(grid44, spec)
    degrees = (cond > 0).sum(axis=1)
    assert np.array_equal(mask, degrees == 4) and mask.sum() == 4


@pytest.mark.parametrize(
    "kind, params",
    [
        ("path", {"n": 4.5}),
        ("path", {"n": True}),
        ("path", {"n": 1}),
        ("grid2d", {"nx": "3"}),
        ("grid2d", {"nx": 3, "ny": 1}),
        ("dumbbell", {"clique": 3, "bridge": 1.5}),
        ("dumbbell", {"clique": 3, "bridge": -1}),
        ("random_geometric", {"n": 10, "radius": "x", "seed": 1}),
        ("random_geometric", {"n": 10, "radius": float("inf"), "seed": 1}),
        ("random_geometric", {"n": 10, "radius": 0.0, "seed": 1}),
        ("random_geometric", {"n": 10, "radius": 0.5, "seed": -2}),
        ("random_geometric", {"n": 10, "radius": 0.5, "seed": 1.5}),
    ],
)
def test_fixture_param_out_of_range_rejected(kind, params):
    spec = {"fixture": {"kind": kind, "params": params}}
    for check in (check_space_spec, space_from_spec):
        with pytest.raises(InvalidParams, match="must be"):
            check(spec)


def test_fixture_accepts_numpy_integers_and_null_ny():
    assert fixture("grid2d", nx=np.int64(3), ny=None).n == 9
    params = {"n": np.int32(12), "radius": np.float64(0.6), "seed": np.int64(3)}
    assert fixture("random_geometric", **params).n == 12
