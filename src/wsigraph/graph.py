"""Undirected graphs over nuclei point sets and the measures patch features need.

Edges live in one vectorised store: `canonical_edges` turns (u, v, weight)
triples into arrays with u < v, sorted by (u, v): int32 ends and float64
weights, 16 bytes per edge.  The cell graph here uses it;
`upper_triangle_edges` makes the same arrays, with no sort, from the boolean
pair matrix of the slide graph in `image_graph`.  Components and spanning trees come from
`scipy.sparse.csgraph`, neighbourhoods from `scipy.spatial.cKDTree`.  Hop
measures come from a bit-parallel BFS over all sources at once
(`hop_statistics`), so no n x n distance matrix is ever built.  The
adjacency spectrum (`adjacency_eigenvalues`) of a large graph with a thin
band comes from LAPACK's two-stage band solver, without an n x n matrix
either; any other graph's comes from `np.linalg.eigvalsh` on its dense
adjacency.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

from .blas import band_eigenvalues
from .errors import ValidationError
from .points import PointSet

# `adjacency_eigenvalues` uses LAPACK's banded solver on graphs of at least
# BANDED_MIN_NODES nodes whose reverse Cuthill-McKee bandwidth is at most
# BANDED_MAX_WIDTH_RATIO * n, and the dense solver on all others.  The band
# reduction costs ~n^2 * bandwidth against ~n^3 for the dense solve; with the
# two-stage band solver (`blas.band_eigenvalues`) the two break even near a
# bandwidth of 0.16 n at n = 1000-2000 and 0.13 n at n = 3000 (table in
# CHANGES.md).  On radius graphs at the density of 1000 nuclei per 1024^2 px
# the band solve is the faster from 500-550 nodes up.  Smaller graphs keep
# the dense solve: it is as fast there, and the stored golden features (up
# to 504 nodes) pin its roundoff.
BANDED_MIN_NODES = 550
BANDED_MAX_WIDTH_RATIO = 0.13


def canonical_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, w) arrays with u < v, sorted by (u, v), from triples on n nodes.

    `edges` is a sequence of (u, v, weight) triples or an (m, 3) array.
    `u` and `v` are int32 and `w` is float64, so an edge costs 16 bytes;
    n above 2**31 - 1 is rejected.  Ends that are not node indices 0..n-1,
    self-loops, repeated pairs (in either orientation) and non-finite
    weights are rejected.
    """
    if n > np.iinfo(np.int32).max:
        raise ValueError(f"{n} nodes exceed the int32 node index range")
    e = np.asarray(edges, dtype=np.float64)
    if e.size == 0:
        e = e.reshape(0, 3)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError("edges must be (u, v, weight) triples")
    with np.errstate(invalid="ignore"):     # NaN, inf and huge ends fail the round trip
        a, b = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64)
    bad = (a != e[:, 0]) | (b != e[:, 1])
    if bad.any():
        i = bad.argmax()
        raise ValueError(
            f"edge ({e[i, 0]:g}, {e[i, 1]:g}) has an end that is not a node index")
    loop = a == b
    if loop.any():
        raise ValueError(f"self-loop at node {a[loop.argmax()]}")
    u, v = np.minimum(a, b), np.maximum(a, b)
    bad = (u < 0) | (v >= n)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"edge ({a[i]}, {b[i]}) out of range for {n} nodes")
    u, v = u.astype(np.int32), v.astype(np.int32)
    order = np.lexsort((v, u))
    u, v, w = u[order], v[order], e[order, 2]
    bad = ~np.isfinite(w)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"non-finite weight on edge ({u[i]}, {v[i]})")
    dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    if dup.any():
        i = dup.argmax()
        raise ValueError(f"duplicate edge ({u[i]}, {v[i]})")
    return u, v, w


def upper_triangle_edges(mask, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `canonical_edges` arrays of the pairs i < j where mask[i, j] holds.

    `mask` is an n x n boolean matrix, of which only the strict upper
    triangle is read, and the weight of edge (i, j) is weights[i, j].  That
    triangle read row by row is already sorted by (u, v), so no sort is
    made.  Non-finite weights on kept pairs are rejected.
    """
    keep = np.triu(mask, 1)
    nodes = np.arange(len(keep), dtype=np.int32)
    u = np.repeat(nodes, np.count_nonzero(keep, axis=1))
    v = np.broadcast_to(nodes, keep.shape)[keep]
    w = np.asarray(weights, dtype=np.float64)[keep]
    bad = ~np.isfinite(w)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"non-finite weight on edge ({u[i]}, {v[i]})")
    return u, v, w


class UndirectedGraph:
    """Simple undirected graph with nonnegative edge weights.

    Edges are held canonically as arrays `u`, `v` (int32) and `w` (float64),
    16 bytes per edge (see `canonical_edges`), next to `csr`, the symmetric
    binary adjacency.  Node indices refer to whatever object produced the
    graph (for cell graphs, the point order of the PointSet).
    """

    def __init__(self, node_count: int, edges=()):
        self.node_count = int(node_count)
        self.u, self.v, self.w = canonical_edges(self.node_count, edges)
        neg = self.w < 0
        if neg.any():
            i = neg.argmax()
            raise ValueError(f"negative weight on edge ({self.u[i]}, {self.v[i]})")
        n = self.node_count
        self.csr = csr_matrix((np.ones(2 * self.edge_count),
                               (np.r_[self.u, self.v], np.r_[self.v, self.u])), shape=(n, n))

    @property
    def edge_count(self) -> int:
        return len(self.u)

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr.indptr).astype(np.int64)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric binary 0/1 adjacency."""
        a = np.zeros((self.node_count, self.node_count))
        a[self.u, self.v] = a[self.v, self.u] = 1.0
        return a

    def total_weight(self) -> float:
        return float(self.w.sum())


def check_d_p(d_p) -> None:
    """Reject a cell-graph radius that is not a finite positive number.

    NaN connects no pair and infinity every pair, so both would featurize
    without an error into edgeless or complete cell graphs.
    """
    try:
        ok = math.isfinite(d_p) and d_p > 0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"d_p must be a finite positive number, got {d_p!r}")


def build_radius_graph(points: PointSet, d_p: float) -> UndirectedGraph:
    """Cell graph: connect every pair of points strictly closer than d_p.

    Edge weights store the Euclidean distance; node order matches point order.
    """
    check_d_p(d_p)
    c = points.coords
    pairs = cKDTree(c).query_pairs(d_p, output_type="ndarray")
    d = c[pairs[:, 0]] - c[pairs[:, 1]]
    w = np.sqrt((d * d).sum(axis=1))
    keep = w < d_p      # query_pairs also returns pairs at exactly d_p
    return UndirectedGraph(len(points), np.column_stack([pairs[keep], w[keep]]))


def connected_components(g: UndirectedGraph) -> np.ndarray:
    """Component label per node, labels 0..C-1 in order of first appearance."""
    _, labels = csgraph.connected_components(g.csr, directed=False)
    return labels.astype(np.int64)


def hop_statistics(g: UndirectedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node hop eccentricity, hop-distance sum and reach count.

    Returns int64 arrays (ecc, dist_sum, reached): over the nodes s in v's
    component, ecc[v] is the largest hop distance d(v, s), dist_sum[v] the
    sum of d(v, s), and reached[v] their number (v itself included).

    All breadth-first searches run at once (multi-source BFS after Then et
    al., "The More the Merrier", PVLDB 2014).  Isolated nodes reach only
    themselves, so the search runs over the k others, ranked by degree,
    highest first.  Row i of `front` is a bitset of the sources whose search
    reached node i at the last level, k x ceil(k/64) uint64 words in all.
    Each level ORs the rows of every node's neighbours one neighbour slot at
    a time: slot j is the j-th neighbour of each node of degree > j, and the
    ranking makes those nodes a prefix of the rows, so a slot costs one
    `take` into a buffer and one OR into contiguous rows.  Bits seen before
    are dropped.  Hop distance is symmetric, so a bit that row v gains at
    level L is a source at distance L from v.
    """
    deg = g.degrees()
    order = np.argsort(-deg, kind="stable")[:np.count_nonzero(deg)]
    k = len(order)
    rank = np.empty(g.node_count, dtype=np.int64)
    rank[order] = np.arange(k)
    # counts[j]: the nodes of degree > j, which come first in `order`
    counts = np.searchsorted(-deg[order], -np.arange(deg.max(initial=0)))
    starts, indices = g.csr.indptr[order], g.csr.indices
    front, nxt, buf = (np.zeros((k, (k + 63) // 64), dtype=np.uint64) for _ in range(3))
    node = np.arange(k)
    front[node, node >> 6] = np.left_shift(np.uint64(1), (node & 63).astype(np.uint64))
    unseen = ~front
    first = rank[indices[starts]]
    slots = [(rank[indices[starts[:c] + j]], buf[:c], nxt[:c])
             for j, c in enumerate(counts[1:], 1)]
    ecc_k, dist_k = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    reached_k = np.ones(k, dtype=np.int64)
    level = 0
    while True:
        level += 1
        # mode="clip" skips the buffered copy that the default bounds check makes
        front.take(first, axis=0, out=nxt, mode="clip")
        for idx, gathered, rows in slots:
            front.take(idx, axis=0, out=gathered, mode="clip")
            rows |= gathered
        np.bitwise_and(nxt, unseen, out=front)
        new = np.bitwise_count(front).sum(axis=1, dtype=np.int64)
        gained = new > 0
        if not gained.any():
            break
        unseen ^= front
        ecc_k[gained] = level
        dist_k += level * new
        reached_k += new
    ecc, dist_sum, reached = np.zeros((3, g.node_count), dtype=np.int64)
    reached[:] = 1
    ecc[order], dist_sum[order], reached[order] = ecc_k, dist_k, reached_k
    return ecc, dist_sum, reached


def clustering_coefficients(g: UndirectedGraph) -> np.ndarray:
    """Local clustering coefficient 2*t(v) / (deg(v)*(deg(v)-1)); deg < 2 gives 0.

    Row v of (A @ A) * A sums to 2*t(v): each neighbourhood edge is reached
    from both of its ends.
    """
    a = g.csr
    links = np.asarray((a @ a).multiply(a).sum(axis=1)).ravel()
    deg = g.degrees()
    out = np.zeros(g.node_count)
    ok = deg >= 2
    out[ok] = links[ok] / (deg[ok] * (deg[ok] - 1))
    return out


def minimum_spanning_tree(points: PointSet, triangulation=None) -> UndirectedGraph:
    """Euclidean MST of the point set, weights are Euclidean distances.

    Candidate edges come from the Delaunay triangulation when available (the
    Euclidean MST is a subset of Delaunay edges); degenerate inputs fall back
    to the complete graph.  A precomputed `triangulation` of the same points
    avoids re-tessellating.  Among tied trees the choice is scipy's; every
    minimum spanning tree has the same multiset of edge weights.
    """
    n = len(points)
    if n <= 1:
        return UndirectedGraph(n)
    coords = points.coords
    cand = None
    if n >= 3:
        if triangulation is None:
            from .tessellation import DegenerateGeometryError, delaunay_triangulation

            try:
                triangulation = delaunay_triangulation(points)
            except DegenerateGeometryError:
                triangulation = None
        if triangulation is not None:
            ii, jj = triangulation.edge_set().T
            # near-duplicate merges leave points uncovered
            if np.unique(np.r_[ii, jj]).size == n:
                w = np.hypot(*(coords[ii] - coords[jj]).T)
                cand = csr_matrix((w, (ii, jj)), shape=(n, n))
    if cand is None:
        cand = squareform(pdist(coords))
    tree = csgraph.minimum_spanning_tree(cand).tocoo()
    return UndirectedGraph(n, np.column_stack([tree.row, tree.col, tree.data]))


def adjacency_eigenvalues(g: UndirectedGraph) -> np.ndarray:
    """All eigenvalues of the binary adjacency of g, ascending.

    Large graphs with a thin band (see BANDED_MIN_NODES) are renumbered in
    reverse Cuthill-McKee order, and the lower band of the renumbered
    adjacency, written straight from the edge arrays, goes to
    `blas.band_eigenvalues`; no n x n matrix is built.  Every other graph
    goes to `np.linalg.eigvalsh` as a dense matrix.  The two solvers agree
    to ~1e-12 on cell graphs, not bitwise.
    """
    n = g.node_count
    if n >= BANDED_MIN_NODES:
        rank = np.empty(n, dtype=np.int64)
        rank[csgraph.reverse_cuthill_mckee(g.csr, symmetric_mode=True)] = np.arange(n)
        a, b = rank[g.u], rank[g.v]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        width = int((hi - lo).max(initial=0))
        if width <= BANDED_MAX_WIDTH_RATIO * n:
            band = np.zeros((width + 1, n), order="F")
            band[hi - lo, lo] = 1.0
            return band_eigenvalues(band)
    return np.linalg.eigvalsh(g.adjacency_matrix())
