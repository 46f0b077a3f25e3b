"""Finite metric measure spaces with a graph Dirichlet-form structure.

A space is a point set carrying three compatible pieces of data: a metric
(dense distance matrix), a strictly positive vertex measure, and symmetric
nonnegative edge conductances whose graph must be connected.  The metric and
the conductance graph are independent inputs; the canonical fixtures set the
metric to the shortest-path metric of the conductance graph, but general
compatible pairs are accepted.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DisconnectedGraph,
    InvalidParams,
    MetricViolation,
    NonpositiveMeasure,
)

__all__ = [
    "Space",
    "build_space",
    "ball_mask",
    "ball_measure",
    "fixture",
    "check_space_spec",
    "space_from_spec",
    "interior_mask",
]

_METRIC_TOL = 1e-12
# the Euclidean certificate embeds in at most this many dimensions, and stops
# pivoting once the residual Gram diagonal is below this fraction of max d(0,.)^2
_EMBEDDING_RANK = 3
_EMBEDDING_STOP = 1e-13
# n x n work is done this many rows at a time, so a layer's transient
# arrays take O(_ROW_BLOCK n) memory beside the n x n arrays it returns
_ROW_BLOCK = 64


def _row_blocks(n: int):
    """Slices of at most _ROW_BLOCK consecutive rows, covering range(n)."""
    return (slice(start, min(start + _ROW_BLOCK, n)) for start in range(0, n, _ROW_BLOCK))


def _min_off_diagonal(dist: np.ndarray) -> float:
    """Least entry of the n x n `dist` off its diagonal, read through a view:
    cut into rows of n + 1, the entries after the first are those between
    consecutive diagonal entries.  Order K ravels a C- or F-ordered array
    uncopied (the off-diagonal entries of the transpose are the same)."""
    n = len(dist)
    return float(np.ravel(dist, order="K")[1:].reshape(n - 1, n + 1)[:, :-1].min())


@dataclass(frozen=True, eq=False)
class Graph:
    """Conductances of n points in compressed sparse row (CSR) form: row x
    stores c(x, indices[k]) = data[k] for indptr[x] <= k < indptr[x + 1].
    `_csr_graph` makes the canonical records (each row's columns
    ascending, no duplicate, no zero), with read-only int32 index and
    float64 data arrays; `build_space` checks any other record and copies
    it into one.  Only numpy arrays: scipy's sparse arrays wrap them where
    a scipy routine needs one."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def toarray(self) -> np.ndarray:
        """The conductances as a new dense n x n array."""
        dense = np.zeros(self.shape)
        for rows, entries, local in _entry_blocks(self):
            dense[rows][local, self.indices[entries]] = self.data[entries]
        return dense

    def dot(self, f: np.ndarray) -> np.ndarray:
        """C f for a float vector f, or for every column of an n x k float
        array f, as a new array.  Each row adds its stored entries' products
        in stored order, starting from 0, as scipy's CSR product does
        (csr_matvec and csr_matvecs), so the two agree bit for bit.

        The rows are taken in falling order of degree (`_degree_order`),
        where those with a k-th entry are a prefix: slot k is one gather of
        f, one product and one add over that prefix (the row-slot, or
        ELLPACK, layout), and the rows go back to point order at the end.
        O(|E| k) work in numpy calls per slot; unit conductances, as the
        fixtures have, skip the product (1 x = x exactly)."""
        if len(f) != self.n:  # `take` below clips its indices unchecked
            raise DimensionMismatch(f"expected {self.n} rows, got shape {f.shape}")
        rank, slots = self._slots
        acc = np.zeros((self.n,) + f.shape[1:])
        part = np.empty_like(acc)
        for cols, vals in slots:
            head = part[: len(cols)]
            np.take(f, cols, axis=0, out=head, mode="clip")
            if vals is not None:
                columns = head.T  # a view, so the product scales head's rows
                columns *= vals
            acc[: len(cols)] += head
        return np.take(acc, rank, axis=0, out=part)

    @cached_property
    def asymmetry(self) -> float:
        """max |c(x, y) - c(y, x)| over the stored entries, reading a missing
        mirror (y, x) as 0: 0 exactly when the graph equals its transpose.
        Found once per record: the mirrors are read through the transpose
        permutation (`_transpose_positions`) one block of rows
        (`_entry_blocks`) at a time, with no float copy of the data; with a
        one-way edge, c - c^T is summed over both structures
        (`_with_mirrors`)."""
        mirrors = _transpose_positions(self)
        if mirrors is None:
            gaps = _with_mirrors(self, self.data, -self.data).data
            return float(np.max(np.abs(gaps), initial=0.0))
        worst = 0.0
        for _, entries, _ in _entry_blocks(self):
            gap = self.data[mirrors[entries]]
            gap -= self.data[entries]
            worst = max(worst, float(np.max(np.abs(gap, out=gap), initial=0.0)))
        return worst

    @cached_property
    def _slots(self):
        """The rank of each row in degree order, and per slot k the columns
        (intp, as `take` wants them) and conductances of the k-th entries of
        the rows that have one, in that order; None for unit conductances."""
        order, rank = _degree_order(self.indptr)
        unit = bool(np.all(self.data == 1.0))
        slots = [
            (self.indices[pos].astype(np.intp), None if unit else self.data[pos])
            for pos in _slot_positions(self.indptr, order)
        ]
        return rank, slots


def _key_type(n: int):
    """The integer type of the entry keys x n + y of n points (`_csr_graph`):
    32 bits whenever they fit, as they do for any n whose n^2 doubles fit in
    memory."""
    return np.int32 if (n + 1) * n < 2**31 else np.int64


def _csr_graph(n: int, keys: np.ndarray, vals: np.ndarray) -> Graph:
    """The canonical, read-only record of the n x n conductances that put
    vals[k] at row x, column y for keys[k] = x n + y: entries sorted by row,
    then column, duplicates summed in their given order, zeros dropped.  The
    one canonicalization, for every form `build_space` takes and for the
    fixtures' edge lists; keys already ascending (a dense input's, read row
    by row, or a fixture's sorted in place) are not sorted again.  The
    arrays are the caller's to hand over: the record may hold and freeze
    them."""
    keys = np.asarray(keys, dtype=_key_type(n))
    vals = np.asarray(vals, dtype=float)
    if not np.all(keys[1:] > keys[:-1]):
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        del order
        first = np.ones(len(keys), bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        vals, keys = np.add.reduceat(vals, starts), keys[starts]
    keep = vals != 0
    if not keep.all():
        keys, vals = keys[keep], vals[keep]
    del keep
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=keys.dtype) * n).astype(np.int32)
    indices = (keys % n).astype(np.int32, copy=False)
    for arr in (indptr, indices, vals):
        arr.setflags(write=False)
    return Graph(indptr, indices, vals)


def _entry_blocks(graph: Graph):
    """Blocks of consecutive rows that store at most _ROW_BLOCK n / 4
    entries between them (a longer row is a block of its own), so the
    per-entry work arrays of a block take O(_ROW_BLOCK n), a quarter of a
    block of full rows, and a sparse graph is one or a few blocks.  Per
    block: its rows, the slice of their stored entries, and each entry's
    row counted from the block's first."""
    indptr, n = graph.indptr, graph.n
    budget = _ROW_BLOCK * n // 4
    start = 0
    while start < n:
        stop = int(np.searchsorted(indptr, indptr[start] + budget, side="right")) - 1
        stop = max(stop, start + 1)
        counts = np.diff(indptr[start : stop + 1])
        local = np.repeat(np.arange(stop - start, dtype=np.int32), counts)
        yield slice(start, stop), slice(indptr[start], indptr[stop]), local
        start = stop


def _degree_order(indptr: np.ndarray):
    """The rows in falling order of their count of stored entries (stable),
    and each row's place in that order."""
    order = np.argsort(-np.diff(indptr), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return order, rank


def _slot_positions(indptr: np.ndarray, order: np.ndarray):
    """Per slot k, the positions of the k-th stored entries of the rows that
    have one, in the degree order `order` (`_degree_order`), where they are
    a prefix."""
    counts = np.diff(indptr)[order]
    starts = indptr[:-1][order]
    for k in range(int(counts[0]) if len(counts) else 0):
        yield starts[: np.count_nonzero(counts > k)] + k


@dataclass(frozen=True)
class Space:
    """Validated finite metric measure space; immutable after construction.
    `graph` holds the conductances as a canonical `Graph` record with one
    stored entry per edge (a one-way edge one way).  Its first product
    caches the row-slot layout on it (`Graph._slots`): an intp column index
    per stored entry and, unless every conductance is 1, a float copy of
    them, so 8 or 16 bytes per entry beside the record's own 12."""

    dist: np.ndarray
    mu: np.ndarray
    graph: Graph

    @property
    def n(self) -> int:
        return len(self.mu)

    @property
    def total_mass(self) -> float:
        return float(self.mu.sum())

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def min_positive_distance(self) -> float:
        return _min_off_diagonal(self.dist)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Read-only weighted degrees sum_y c(., y), the stiffness diagonal,
        each a reduction of its row's stored entries (scipy's row sum)."""
        indptr = self.graph.indptr
        linked = np.flatnonzero(indptr[:-1] != indptr[1:])
        degrees = np.zeros(self.n)
        degrees[linked] = np.add.reduceat(self.graph.data, indptr[linked])
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def ball_masses(self) -> np.ndarray:
        """Read-only table with [z, w] = mu(B(z, d(z, w))) for the closed ball.

        Built once per space in O(n^2 log n) time: each row of `dist` is
        sorted and `mu` is summed cumulatively in that order.  Points tied at
        distance d(z, w) count as inside the ball, so every sorted position
        reads the cumulative mass at the last position of its run of equal
        distances.  The rows are done one block (`_row_blocks`) at a time,
        straight into the table, so the work arrays take O(_ROW_BLOCK n)
        memory beside the table's n^2 doubles.
        """
        table = np.empty((self.n, self.n))
        for rows in _row_blocks(self.n):
            order = np.argsort(self.dist[rows], axis=1)
            sorted_dist = np.take_along_axis(self.dist[rows], order, axis=1)
            mass = np.cumsum(self.mu[order], axis=1)
            # inside a run of ties only the last position keeps its mass; a
            # reversed running minimum then hands that mass to the whole run
            mass[:, :-1][sorted_dist[:, :-1] == sorted_dist[:, 1:]] = np.inf
            del sorted_dist
            np.minimum.accumulate(mass[:, ::-1], axis=1, out=mass[:, ::-1])
            np.put_along_axis(table[rows], order, mass, axis=1)
        table.setflags(write=False)
        return table


def build_space(dist, mu, cond) -> Space:
    """Validate raw matrices and return an immutable Space.

    Raises MetricViolation (with the witness triple), NonpositiveMeasure, or
    DisconnectedGraph when the corresponding invariant fails, and
    InvalidParams for inputs that are not arrays of numbers of matching shapes.

    `dist` and `mu` are held read-only: a writeable one is copied, so later
    edits of the caller's array do not reach the space, and a read-only
    float64 one (as the fixtures hand over) is held uncopied.  `cond` is a
    dense array (as inline specs give), a scipy sparse array or matrix (read
    through its own `tocoo()`), or a `Graph` record; each becomes the
    canonical `Graph` of `Space.graph` (`_as_graph`), and every conductance
    check reads that graph's stored entries.  A canonical record with
    read-only arrays (as the fixtures hand over) is held as it is; any
    other is checked and copied, so later edits of its arrays do not reach
    the space.
    """
    try:
        dist, mu = (_read_only_input(arr) for arr in (dist, mu))
        if isinstance(cond, Graph):  # its data may not be numbers
            cond = _as_graph(cond)
        elif not hasattr(cond, "tocoo"):
            cond = np.asarray(cond, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, strings, objects
        raise InvalidParams(f"dist, mu and cond must be arrays of numbers: {exc}") from None

    if mu.ndim != 1 or dist.shape != (len(mu), len(mu)) or cond.shape != dist.shape:
        raise InvalidParams(f"shape mismatch: dist {dist.shape}, cond {cond.shape}, mu {mu.shape}")
    graph = cond if isinstance(cond, Graph) else _as_graph(cond)
    del cond  # a dense array made from nested lists is freed here
    for name, arr in (("dist", dist), ("mu", mu), ("cond", graph.data)):
        if not np.all(np.isfinite(arr)):
            raise InvalidParams(f"{name} contains non-finite entries")

    if np.any(mu <= 0):
        raise NonpositiveMeasure(f"mu must be strictly positive, got min {mu.min()}")

    # the metric certificate's hop route needs a connected graph, so the
    # components are counted first; a disconnected graph is still reported
    # after the metric and conductance checks
    ncomp = _component_count(graph)
    _check_metric(dist, graph, ncomp == 1)

    if np.any(graph.data < 0) or graph.asymmetry > _METRIC_TOL:
        raise InvalidParams("cond must be symmetric and nonnegative")
    for rows, entries, local in _entry_blocks(graph):
        if np.any(graph.indices[entries] == local + rows.start):
            raise InvalidParams("cond must have zero diagonal")
    if ncomp != 1:
        raise DisconnectedGraph(f"conductance graph has {ncomp} components")

    for arr in (dist, mu):
        arr.setflags(write=False)
    return Space(dist=dist, mu=mu, graph=graph)


def _read_only_input(arr) -> np.ndarray:
    """`arr` itself if it is a read-only float64 array, else a float copy
    that no other reference can change."""
    if isinstance(arr, np.ndarray) and arr.dtype == np.float64 and not arr.flags.writeable:
        return arr
    return np.array(arr, dtype=float)


def _as_graph(cond) -> Graph:
    """The canonical `Graph` of the n x n conductances `cond`: a `Graph`
    itself if it is canonical with read-only arrays, as `_csr_graph` makes
    them, else made from a copy of the entries of a `Graph`
    (`_record_keys`), of a scipy sparse array or matrix, read through its
    own `tocoo()` (so fraclap imports no scipy module for it), or of a
    dense float array, read one row block at a time into keys and values
    allocated once."""
    n = cond.shape[0]
    if isinstance(cond, Graph):
        keys = _record_keys(cond)
        arrays = [np.asarray(arr) for arr in (cond.indptr, cond.indices, cond.data)]
        if (
            [arr.dtype for arr in arrays] == [np.int32, np.int32, np.float64]
            and not any(arr.flags.writeable for arr in arrays)
            and np.all(keys[1:] > keys[:-1])
            and np.all(arrays[2] != 0)
        ):
            return cond
        return _csr_graph(n, keys, np.array(cond.data, dtype=float))
    if hasattr(cond, "tocoo"):
        coo = cond.tocoo()
        keys = np.multiply(coo.row, n, dtype=_key_type(n))
        keys += coo.col
        # the COO data may be cond's own array, which the record would freeze
        return _csr_graph(n, keys, np.array(coo.data, dtype=float))
    keys = np.empty(np.count_nonzero(cond), _key_type(n))
    vals = np.empty(len(keys))
    done = 0
    for block in _row_blocks(n):
        flat = np.flatnonzero(cond[block])
        stop = done + len(flat)
        vals[done:stop] = np.ravel(cond[block])[flat]
        np.add(flat, block.start * n, out=keys[done:stop])
        done = stop
    return _csr_graph(n, keys, vals)


def _record_keys(graph: Graph) -> np.ndarray:
    """The keys x n + y (`_csr_graph`) of the entries a `Graph` stores, in
    its order; InvalidParams unless its `indptr` rises from 0 to the count
    of its `indices` and `data`, and every index is a column in [0, n)."""
    n = graph.n
    indptr, indices = np.asarray(graph.indptr), np.asarray(graph.indices)
    counts = np.diff(indptr)
    if not (
        indptr.ndim == indices.ndim == 1
        and n >= 0
        and np.issubdtype(indptr.dtype, np.integer)
        and np.issubdtype(indices.dtype, np.integer)
        and indptr[0] == 0
        and indptr[-1] == len(indices) == len(graph.data)
        and np.all(counts >= 0)
        and np.all((indices >= 0) & (indices < n))
    ):
        raise InvalidParams(
            "a Graph's indptr must rise from 0 to its entry count, and its indices lie in [0, n)"
        )
    keys = np.repeat(np.arange(n, dtype=_key_type(n)) * n, counts)
    keys += indices.astype(keys.dtype, copy=False)
    return keys


def _transpose_positions(graph: Graph):
    """The transpose permutation of the stored entries, or None when the
    transpose stores other entries than the graph (a one-way edge).

    A counting sort by column places each entry (x, y) in the transpose's
    canonical order: after the entries of the columns before y, and after
    those of column y in the rows above x.  The rows above are counted one
    block of rows (`_entry_blocks`) at a time: those in earlier blocks by a
    running count per column, those in the block by a stable sort of its
    columns (a radix sort on 16-bit columns), so beside the int32 positions
    the work takes O(_ROW_BLOCK n).  When every column stores as many
    entries as its row and each position holds row y's entry of column x,
    the transpose stores the same entries, and the position of (x, y) in
    its order is that of the mirror (y, x) in the graph's."""
    n, indptr, indices = graph.n, graph.indptr, graph.indices
    if not np.array_equal(np.bincount(indices, minlength=n), np.diff(indptr)):
        return None
    positions = np.empty(graph.nnz, np.int32)
    before = indptr[:-1].astype(np.intp)  # column y's place, past its earlier blocks
    sort_type = np.uint16 if n <= 2**16 else indices.dtype
    for rows, entries, local in _entry_blocks(graph):
        cols = indices[entries]
        order = np.argsort(cols.astype(sort_type), kind="stable")
        by_col = cols[order]
        # the first sorted place of each column's run, so place - first is
        # the count of the block's entries of that column above
        first = np.zeros(len(order), np.intp)
        changes = np.flatnonzero(by_col[1:] != by_col[:-1]) + 1
        first[changes] = changes
        np.maximum.accumulate(first, out=first)
        here = np.empty(len(order), np.intp)
        here[order] = before[by_col] + np.arange(len(order)) - first
        if np.any(indices[here] != local + rows.start):
            return None
        positions[entries] = here
        before += np.bincount(cols, minlength=n)
    return positions


def _with_mirrors(graph: Graph, vals: np.ndarray, mirror_vals: np.ndarray) -> Graph:
    """The `Graph` of the stored entries (x, y), valued `vals`, and of their
    mirrors (y, x), valued `mirror_vals`, summed where both are stored: the
    union of the graph and its transpose, for a graph with a one-way edge."""
    n = graph.n
    rows = np.repeat(np.arange(n, dtype=_key_type(n)), np.diff(graph.indptr))
    cols = graph.indices.astype(rows.dtype)
    keys = np.concatenate((rows * n + cols, cols * n + rows))
    return _csr_graph(n, keys, np.concatenate((vals, mirror_vals)))


def _check_metric(dist, graph, connected):
    """Raise MetricViolation, with a witness triple for the triangle
    inequality, unless `dist` is a metric within _METRIC_TOL.  `graph` (the
    conductances, as in `Space.graph`) and `connected` (whether its
    undirected graph is connected) only feed the edge-path certificates: the
    verdict and the witness do not depend on them."""
    n = dist.shape[0]
    if np.any(np.diag(dist) != 0):
        raise MetricViolation("nonzero diagonal in distance matrix")
    # exact symmetry needs one comparison pass; the tolerance test, with its
    # two n x n temporaries, only runs when that fails
    if not np.array_equal(dist, dist.T) and np.any(np.abs(dist - dist.T) > _METRIC_TOL):
        raise MetricViolation("distance matrix not symmetric")
    if n > 1 and _min_off_diagonal(dist) <= 0:
        raise MetricViolation("distinct points at nonpositive distance")
    # The certificates, cheapest first: the hop table when every edge has one
    # length, an embedding in R^r, then Dijkstra over weighted edges.  Each
    # is sound, so the first that accepts decides.
    unit = _unit_edge_length(dist, graph) if connected else None
    if unit is not None and _is_hop_metric(dist, graph, unit):
        return
    if _is_euclidean_metric(dist):
        return
    # with one edge length the edge-path metric is the hop metric just tried
    if connected and unit is None and _is_edge_path_metric(dist, graph):
        return
    # Otherwise the dense triangle check.  Floyd-Warshall's shortest paths
    # are never longer than any two-hop detour d(i,j) + d(j,k) (rounding is
    # monotone), so a pass here rules out every violating triple.  A failure
    # may come from small slacks accumulated over several hops, which are
    # accepted: the per-pivot scan below decides and names the witness triple.
    # imported on first use: scipy.sparse.csgraph, with the scipy.sparse.linalg
    # it loads, costs every import of the package about 3.1 MiB, and only
    # this screen and the edge-path certificate need it
    from scipy.sparse.csgraph import floyd_warshall

    fw = floyd_warshall(dist)
    if np.all(dist - fw <= _METRIC_TOL * (1.0 + fw)):
        return
    for j in range(n):
        slack = dist[:, None, j] + dist[j, None, :]  # d(i,j) + d(j,k), shape (n, n)
        bad = dist - slack > _METRIC_TOL * (1.0 + slack)
        if np.any(bad):
            i, k = np.argwhere(bad)[0]
            raise MetricViolation(
                f"triangle inequality fails: d({i},{k})={dist[i, k]} > "
                f"d({i},{j})+d({j},{k})={slack[i, k]} (witness triple {i},{j},{k})"
            )


def _edge_lengths(dist, graph):
    """`dist` on the stored entries of `graph`, one block of rows
    (`_entry_blocks`) at a time, in their order."""
    for rows, entries, local in _entry_blocks(graph):
        yield dist[rows][local, graph.indices[entries]]


def _unit_edge_length(dist, graph):
    """The one length `dist` gives every stored entry of `graph`, or None
    when the lengths differ or there is no entry.  One block of rows of
    `dist` is read at a time, so no |E|-long array is made."""
    unit = None
    for lengths in _edge_lengths(dist, graph):
        if lengths.size:
            unit = lengths[0] if unit is None else unit
            if np.any(lengths != unit):
                return None
    return unit


def _is_hop_metric(dist, graph, unit) -> bool:
    """Certificate for the triangle inequality: True when `dist` equals,
    within _METRIC_TOL/4, `unit` times the hop metric of the connected
    `graph` (`_hop_counts`), the shortest-path metric of its edges when
    every edge has length `unit`.  O(diam |E| n/64) word operations."""
    hops = _hop_counts(graph)
    return _within_certificate_tol(dist, lambda block: unit * hops[block])


def _is_edge_path_metric(dist, graph) -> bool:
    """Certificate for the triangle inequality: True when `dist` equals,
    within _METRIC_TOL/4, the shortest-path metric D of the connected
    `graph` with edge lengths `dist` on its edges (`_edge_lengths`), each
    edge walked both ways.  n sparse Dijkstra searches, O(n |E| log n), run
    from one row block of sources at a time, so D is never held whole."""
    # imported on first use, as in `_check_metric`; the CSR array wraps the
    # graph's index arrays
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import shortest_path

    n = dist.shape[0]
    lengths = np.concatenate(list(_edge_lengths(dist, graph)))
    weighted = csr_array((lengths, graph.indices, graph.indptr), shape=(n, n))
    return _within_certificate_tol(
        dist,
        lambda block: shortest_path(
            weighted, method="D", directed=False, indices=np.arange(n)[block]
        ),
    )


def _euclidean_rows(points: np.ndarray, rows: slice) -> np.ndarray:
    """Euclidean distances from the points `points[rows]` to every point of
    `points`, one coordinate per column, as a new len(rows) x n block.  Each
    pair's squared coordinate differences are summed in coordinate order, the
    order scipy's pairwise-distance kernel sums them in, so the blocks equal
    its distances bit for bit and those of one point set are exactly
    symmetric.  Differences keep close pairs accurate: |x|^2 + |y|^2 - 2 x.y
    would lose sqrt(eps) on them.  The first coordinate's squares go straight
    into the block, so the work takes one more block at most."""
    block = points[rows]
    # one contiguous row per coordinate: each difference block starts as a
    # plain broadcast copy of it (the differences' sign leaves their squares)
    coords = points.T.copy()
    out = np.empty((len(block), len(points)))
    out[...] = coords[0]
    out -= block[:, :1]
    np.square(out, out=out)
    term = np.empty_like(out)
    for k in range(1, len(coords)):
        term[...] = coords[k]
        term -= block[:, k : k + 1]
        np.square(term, out=term)
        out += term
    return np.sqrt(out, out=out)


def _within_certificate_tol(dist, metric_rows) -> bool:
    """True when |dist - D| <= _METRIC_TOL/4 (1 + D) with D finite, where
    `metric_rows(block)` returns a new float array of the rows of D in the
    slice `block`.  One row block (`_row_blocks`) is compared at a time, and
    the first block that fails decides.

    When D satisfies the triangle inequality (up to rounding), True certifies
    `dist`: chaining |dist - D| <= t (1 + D) through D(i,k) <= D(i,j) +
    D(j,k) bounds every d(i,k) - d(i,j) - d(j,k) by 3t (1 + slack) plus
    rounding, inside the triangle tolerance 4t (1 + slack); so True implies
    the Floyd-Warshall screen or the per-pivot scan accepts.  False decides
    nothing: the caller falls back to those checks.
    """
    for block in _row_blocks(dist.shape[0]):
        metric = metric_rows(block)
        gap = dist[block] - metric
        np.abs(gap, out=gap)
        metric += 1.0
        metric *= _METRIC_TOL / 4
        if not (np.all(gap <= metric) and np.all(np.isfinite(metric))):
            return False
        # the next block's rows are made without this block's beside them
        del gap, metric
    return True


def _component_count(graph) -> int:
    """Number of connected components of the graph whose edges are the
    stored entries of the n x n sparse CSR `graph` and of its transpose.

    Min-label hooking with pointer jumping (Shiloach and Vishkin, J.
    Algorithms 3, 1982).  Each point's parent is a point of its component,
    never larger than itself, and the roots (parent[x] = x) are the
    components found so far, each a tree of parents.  A round reads, for
    every point u, the least and the greatest root among the points its row
    of `graph` stores.  A root greater than one its tree meets across an
    entry (u, v) is hooked onto the smaller: r(u) onto a least r(v) below it,
    and a greatest r(v) above r(u) onto r(u).  So an entry counts both ways
    with no transposed copy.  Pointer jumping then makes every tree a star.
    The rounds end when every entry joins two points of one tree.  Each
    hook lowers a label, so they do end; grids, paths and the dumbbell hook
    in one round, random geometric graphs in three or four.

    Labels are int32 (a space holds n^2 doubles, so n fits), so a round's
    one |E|-long array is the 4-byte gather of the neighbours' roots, and
    the rest are n long.
    """
    indptr, indices = graph.indptr, graph.indices
    n = len(indptr) - 1
    linked = np.flatnonzero(indptr[:-1] != indptr[1:])  # points with a stored entry
    starts = indptr[linked]
    parent = np.arange(n, dtype=np.int32)
    while True:
        seen = parent[indices]  # stars: each neighbour's parent is its root
        low = np.minimum.reduceat(seen, starts)
        high = np.maximum.reduceat(seen, starts)
        del seen
        roots = parent[linked]
        down, up = low < roots, high > roots
        if not (down.any() or up.any()):
            return int(np.count_nonzero(parent == np.arange(n)))
        # a root hooked from several entries takes the least root offered
        np.minimum.at(
            parent,
            np.concatenate((roots[down], high[up])),
            np.concatenate((low[down], roots[up])),
        )
        grand = parent[parent]
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand[grand]


def _hop_counts(graph) -> np.ndarray:
    """Hop distances of the connected graph whose edges are the stored
    entries of the `Graph` `graph` or of its transpose, as an n x n
    table of the least unsigned type that holds n - 1.

    One breadth-first sweep runs from every source at once (multi-source BFS,
    Then et al., PVLDB 8(4), 2014).  Each point holds the set of sources that
    have reached it as ceil(n/64) 64-bit words.  A level gathers the
    neighbours' frontier words and ORs them into each row, one neighbour slot
    at a time, then keeps the sources not yet seen.  A pair's hop count is
    the level that first reaches it, so bit plane b of the table holds the
    pairs first reached on the runs of levels whose bit b is set.  Each run
    adds the unseen set before it XOR the unseen set at its end, so a plane
    costs one XOR at each level where its bit changes, and the planes are
    unpacked into the table once, at the end.

    The neighbour lists are read from the CSR structure, with no pass over
    n^2 entries.  The cost is O(diam |E| n/64) word operations plus one numpy
    call per neighbour slot and level.  On grids and random geometric graphs
    that is 5 to 12 times faster than n Dijkstra searches.  A long path
    (diam = n - 1) is the worst case: at n = 1600 the searches are 4 to 5
    times faster, and the sweep takes about half of one dense eigensolve
    (one thread each).
    """
    n = graph.n
    if n == 1:
        return np.zeros((1, 1), np.uint8)
    # an edge can be one way, as conductances are symmetric only to 1e-12, so
    # the reverse of each entry joins in unless the graph is its transpose
    if graph.asymmetry != 0:
        ones = np.ones(graph.nnz)
        union = _with_mirrors(graph, ones, ones)
        starts, cols = union.indptr, union.indices
        del ones, union
    else:
        starts, cols = graph.indptr, graph.indices
    # rows are held in falling order of degree (`_degree_order`), so the
    # rows with a k-th neighbour are a prefix and slot k is one gather and
    # one OR; every point has a neighbour on a connected space, so slot 0
    # writes every row
    order, rank = _degree_order(starts)
    src = np.arange(n)
    slots = [rank[cols[pos]] for pos in _slot_positions(starts, order)]
    del cols
    frontier = np.zeros((n, -(-n // 64)), "<u8")
    frontier[rank, src // 64] = np.left_shift(np.uint64(1), (src % 64).astype(np.uint64))
    unseen = ~frontier
    unseen[:, -1] &= np.uint64(2**64 - 1) >> np.uint64(-n % 64)  # no padding bits
    nxt, planes = np.empty_like(frontier), []
    for level in range(1, n):  # at most n - 1 hops
        np.take(frontier, slots[0], axis=0, out=nxt)
        for slot in slots[1:]:
            nxt[: len(slot)] |= frontier[slot]
        nxt &= unseen
        # the pairs first reached at levels a..c are unseen(a - 1) ^ unseen(c)
        for bit in range(((level - 1) ^ level).bit_length()):
            if bit == len(planes):
                planes.append(np.zeros_like(nxt))
            planes[bit] ^= unseen
        unseen ^= nxt
        if not unseen.any():
            break
        frontier, nxt = nxt, frontier
    del slots, frontier, nxt, unseen
    table = np.zeros((n, n), np.min_scalar_type(n))
    while planes:
        table <<= 1
        # [rank] puts the rows back in point order
        table |= np.unpackbits(
            planes.pop()[rank].view(np.uint8), axis=1, count=n, bitorder="little"
        )
    return table


def _is_euclidean_metric(dist) -> bool:
    """Certificate for the triangle inequality in O(n^2): True when `dist`
    equals, within _METRIC_TOL/4, the distance matrix D of explicit points in
    R^r, r <= _EMBEDDING_RANK (Schoenberg).  The points come from `dist`
    alone, as in landmark MDS: a pivoted Cholesky of the Gram matrix relative
    to point 0, G_ij = (d(0,i)^2 + d(0,j)^2 - d(i,j)^2) / 2, built one pivot
    column at a time, and D is the points' distance matrix, made one row
    block at a time (`_euclidean_rows`).  D satisfies the triangle
    inequality up to rounding, so `_within_certificate_tol` applies.
    """
    n = dist.shape[0]
    if n == 0:
        return False
    d0_sq = dist[0] ** 2
    # a pivot on rounding noise would cost three orders of magnitude of
    # accuracy in the coordinates, so stop once the residual is at that level
    stop = _EMBEDDING_STOP * d0_sq.max()
    residual = d0_sq.copy()
    coords = np.zeros((n, _EMBEDDING_RANK))
    rank = 0
    while rank < _EMBEDDING_RANK:
        p = int(np.argmax(residual))
        if residual[p] <= stop:
            break
        gram = 0.5 * (d0_sq + d0_sq[p] - dist[p] ** 2)
        gram -= coords[:, :rank] @ coords[p, :rank]
        coords[:, rank] = gram / np.sqrt(residual[p])
        residual -= coords[:, rank] ** 2
        rank += 1
    # rank 0 is the one-point space, whose point is the zero column
    points = coords[:, : max(rank, 1)]
    return _within_certificate_tol(dist, lambda block: _euclidean_rows(points, block))


def ball_mask(space: Space, x, r: float) -> np.ndarray:
    """Membership of the closed balls B(x, r) = {z : d(x, z) <= r}, points at
    distance exactly r inside: shape x.shape + (n,) for a centre or an array
    of centres.  The one place the closed-ball rule is written."""
    if r < 0:
        raise InvalidParams(f"radius must be nonnegative, got {r}")
    return space.dist[x] <= r


def ball_measure(space: Space, x, r: float):
    """Mass of the closed ball B(x, r), by a direct sum over its members;
    broadcasts over an array of centres (a scalar centre gives a float)."""
    mass = np.where(ball_mask(space, x, r), space.mu, 0.0).sum(axis=-1)
    return float(mass) if mass.ndim == 0 else mass


def fixture(kind: str, **params) -> Space:
    """Deterministic canonical spaces: path, grid2d, dumbbell, random_geometric."""
    args = _fixture_args(kind, params)
    return _FIXTURES[kind].build(**args)


# every fixture param is an integer at least this large, except `radius` (a
# finite positive number) and a `ny` left at None (a square grid)
_INT_PARAM_MIN = {"n": 2, "nx": 2, "ny": 2, "clique": 2, "bridge": 0, "seed": 0}


def _fixture_args(kind, params) -> dict:
    """The builder arguments of fixture `kind` for `params`, defaults filled
    in; InvalidParams unless `kind` names a fixture and `params` is a dict
    that binds to its builder's signature with every value in range."""
    if not isinstance(kind, str) or kind not in _FIXTURES:
        raise InvalidParams(f"unknown fixture kind {kind!r}; valid: {sorted(_FIXTURES)}")
    if not isinstance(params, dict):
        raise InvalidParams(f"fixture params must be an object, got {params!r}")
    signature = inspect.signature(_FIXTURES[kind].build)
    try:
        bound = signature.bind(**params)
    except TypeError as exc:
        raise InvalidParams(f"fixture {kind!r}: {exc}") from None
    bound.apply_defaults()
    for name, value in bound.arguments.items():
        if value is None and signature.parameters[name].default is None:
            continue
        if name == "radius":
            ok, want = isinstance(value, Real) and 0 < value < np.inf, "a finite positive number"
        else:
            low = _INT_PARAM_MIN[name]
            ok, want = isinstance(value, Integral) and value >= low, f"an integer >= {low}"
        if isinstance(value, bool) or not ok:
            raise InvalidParams(f"fixture {kind!r}: {name!r} must be {want}, got {value!r}")
    return bound.arguments


def _unit_graph(n: int, edges) -> Graph:
    """Unit conductances on `edges`, a list of pairs (a, b) of index arrays
    that put an edge between a[k] and b[k], each edge listed once: a `Graph`
    made from the edge list both ways, with no n x n array.  The values are
    all 1, so the keys alone are sorted, in place."""
    a, b = (np.concatenate([np.ravel(end) for end in ends]) for ends in zip(*edges))
    keys = np.concatenate((a, b), dtype=_key_type(n))
    keys *= n
    keys[: len(a)] += b
    keys[len(a) :] += a
    del a, b
    keys.sort()
    return _csr_graph(n, keys, np.ones(len(keys)))


def _unit_mass_space(dist: np.ndarray, graph: Graph) -> Space:
    """`build_space` on a fixture's own `dist` and frozen `graph`
    (`_unit_graph`) with unit masses.  `dist` and the masses are frozen
    first, so `build_space` holds every array rather than copying it."""
    mu = np.ones(len(dist))
    for arr in (dist, mu):
        arr.setflags(write=False)
    return build_space(dist, mu, graph)


def _fixture_path(n: int) -> Space:
    """A path on n points: the n x 1 lattice."""
    return _fixture_grid2d(n, 1)


def _fixture_grid2d(nx: int, ny: int | None = None) -> Space:
    ny = nx if ny is None else ny
    n = nx * ny
    # point (i, j) is i * ny + j; the hop metric |i - i'| + |j - j'| is one
    # broadcast sum of the two coordinate tables, so no n x n temporary is made
    di, dj = (np.abs(np.subtract.outer(k, k)) for k in map(np.arange, (float(nx), float(ny))))
    dist = (di[:, None, :, None] + dj[None, :, None, :]).reshape(n, n)
    del di, dj  # di has n^2 entries on a path (ny = 1)
    points = np.arange(n).reshape(nx, ny)
    graph = _unit_graph(n, [(points[:, :-1], points[:, 1:]), (points[:-1], points[1:])])
    return _unit_mass_space(dist, graph)


def _fixture_dumbbell(clique: int, bridge: int = 0) -> Space:
    """Two complete graphs on `clique` vertices joined by a path with
    `bridge` intermediate vertices (bridge=0 joins them by a single edge)."""
    n = 2 * clique + bridge
    i, j = np.triu_indices(clique, 1)
    chain = np.arange(clique - 1, clique + bridge + 1)
    far = clique + bridge  # the second clique's first vertex
    graph = _unit_graph(n, [(i, j), (i + far, j + far), (chain[:-1], chain[1:])])
    del i, j
    # hop metric: a vertex off the chain is one hop from the chain end p of
    # its clique, and two of them in the same clique are one hop apart; the
    # sums are formed in place, in one n x n array
    k = np.arange(n, dtype=float)
    p = np.clip(k, clique - 1, clique + bridge)
    off = p != k
    dist = np.subtract.outer(p, p)
    np.abs(dist, out=dist)
    dist += off[:, None]
    dist += off[None, :]
    dist[: clique - 1, : clique - 1] = dist[1 - clique :, 1 - clique :] = 1
    np.fill_diagonal(dist, 0.0)
    return _unit_mass_space(dist, graph)


def _fixture_random_geometric(n: int, radius: float, seed: int) -> Space:
    """Points in the unit square, edges within `radius`, Euclidean metric."""
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    dist = np.empty((n, n))
    edges = []
    for rows in _row_blocks(n):
        dist[rows] = _euclidean_rows(points, rows)
        # dist is exactly symmetric, so the pairs above the diagonal list
        # every edge once: each block is scanned from its diagonal on
        a, b = np.nonzero(dist[rows, rows.start :] <= radius)
        above = a < b
        edges.append((a[above] + rows.start, b[above] + rows.start))
    graph = _unit_graph(n, edges)
    del a, b, above, edges
    return _unit_mass_space(dist, graph)


def _neighbour_counts(space: Space) -> np.ndarray:
    """Neighbour counts: the stored entries per row of `Space.graph`, which
    holds the positive conductances (`build_space` rejects negative ones)."""
    return np.diff(space.graph.indptr)


def _max_degree_core(space: Space, **_) -> np.ndarray:
    """The points with the most neighbours: a path's interior points, and the
    interior rule of spaces without their own."""
    counts = _neighbour_counts(space)
    return counts == counts.max()


class _Fixture(NamedTuple):
    """A fixture kind: its builder, and its interior rule, which takes the
    space and the builder's arguments (defaults filled in)."""

    build: Callable[..., Space]
    interior: Callable[..., np.ndarray]  # interior_mask before its fallback


_FIXTURES = {
    "path": _Fixture(_fixture_path, _max_degree_core),
    "grid2d": _Fixture(
        _fixture_grid2d,
        lambda space, **_: _neighbour_counts(space) == 4,  # the lattice rim peeled off
    ),
    "dumbbell": _Fixture(
        _fixture_dumbbell,
        # the first clique's vertices off the bridge
        lambda space, clique, bridge: np.arange(space.n) < clique - 1,
    ),
    "random_geometric": _Fixture(_fixture_random_geometric, _max_degree_core),
}


def _check_keys(obj: dict, allowed, where: str, error: type) -> None:
    """`error` naming the keys of `obj` outside `allowed`, and those allowed."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise error(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")


def _parse_space_spec(spec):
    """(kind, builder arguments) for a fixture descriptor, (None, None) for
    inline matrices; InvalidParams for a malformed descriptor (see
    `check_space_spec`)."""
    if not isinstance(spec, dict):
        raise InvalidParams(f"space descriptor must be an object, got {spec!r}")
    if "fixture" in spec:
        _check_keys(spec, ("fixture",), "fixture space", InvalidParams)
        fx = spec["fixture"]
        if not isinstance(fx, dict):
            raise InvalidParams(f"fixture descriptor must be an object, got {fx!r}")
        _check_keys(fx, ("kind", "params"), "fixture descriptor", InvalidParams)
        return fx.get("kind"), _fixture_args(fx.get("kind"), fx.get("params", {}))
    if not {"dist", "mu", "cond"} <= set(spec):
        raise InvalidParams(
            "inline space needs fields 'dist', 'mu', 'cond' (or use a 'fixture' descriptor)"
        )
    _check_keys(spec, ("dist", "mu", "cond"), "inline space", InvalidParams)
    return None, None


def check_space_spec(spec) -> None:
    """Check a descriptor's form without building the space (`space_from_spec`
    checks the matrices); InvalidParams for a malformed one.  A descriptor is
    {"fixture": {"kind": ..., "params": {...}}} or {"dist": ..., "mu": ..., "cond": ...}."""
    _parse_space_spec(spec)


def space_from_spec(spec) -> Space:
    """Build the space a descriptor names (see `check_space_spec`)."""
    kind, args = _parse_space_spec(spec)
    if kind:
        return fixture(kind, **args)
    return build_space(spec["dist"], spec["mu"], spec["cond"])


def interior_mask(space: Space, spec: dict) -> np.ndarray:
    """Deterministic 'interior' domain of the space a descriptor names: each
    fixture kind's own rule (path endpoints, lattice rim, bridge-adjacent
    clique vertices peeled off), the max-degree core for inline matrices;
    the first half of the points when the rule gives no point or every
    point."""
    kind, args = _parse_space_spec(spec)
    if kind:
        mask = _FIXTURES[kind].interior(space, **args)
    else:
        mask = _max_degree_core(space)
    if not mask.any() or mask.all():
        mask = np.arange(space.n) < max(1, space.n // 2)
    return mask
