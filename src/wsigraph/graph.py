"""Undirected graphs over nuclei point sets and the measures patch features need.

Edges live in one vectorised store: `canonical_edges` turns (u, v, weight)
triples into arrays with u < v, sorted by (u, v).  Both the cell graph here
and the slide graph in `image_graph` use it.  Components, hop distances and
spanning trees come from `scipy.sparse.csgraph`, neighbourhoods from
`scipy.spatial.cKDTree`.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

from .points import PointSet


def canonical_edges(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, w) arrays with u < v, sorted by (u, v), from triples on n nodes.

    `edges` is a sequence of (u, v, weight) triples or an (m, 3) array.
    Self-loops, nodes outside 0..n-1 and repeated pairs (in either
    orientation) are rejected.
    """
    e = np.asarray(edges, dtype=np.float64)
    if e.size == 0:
        e = e.reshape(0, 3)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError("edges must be (u, v, weight) triples")
    a, b = e[:, 0].astype(np.int64), e[:, 1].astype(np.int64)
    loop = a == b
    if loop.any():
        raise ValueError(f"self-loop at node {a[loop.argmax()]}")
    u, v = np.minimum(a, b), np.maximum(a, b)
    bad = (u < 0) | (v >= n)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"edge ({a[i]}, {b[i]}) out of range for {n} nodes")
    order = np.lexsort((v, u))
    u, v, w = u[order], v[order], e[order, 2]
    dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
    if dup.any():
        i = dup.argmax()
        raise ValueError(f"duplicate edge ({u[i]}, {v[i]})")
    return u, v, w


class UndirectedGraph:
    """Simple undirected graph with nonnegative edge weights.

    Edges are held canonically as arrays `u`, `v`, `w` (see
    `canonical_edges`), next to `csr`, the symmetric binary adjacency.  Node
    indices refer to whatever object produced the graph (for cell graphs,
    the point order of the PointSet).
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
    def edges(self) -> list:
        """The edges as (u, v, weight) tuples, sorted by (u, v)."""
        return list(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.u)

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr.indptr).astype(np.int64)

    def adjacency_matrix(self, weighted: bool = False) -> np.ndarray:
        """Dense symmetric adjacency; binary 0/1 unless weighted=True."""
        a = np.zeros((self.node_count, self.node_count))
        a[self.u, self.v] = a[self.v, self.u] = self.w if weighted else 1.0
        return a

    def total_weight(self) -> float:
        return float(self.w.sum())


def build_radius_graph(points: PointSet, d_p: float) -> UndirectedGraph:
    """Cell graph: connect every pair of points strictly closer than d_p.

    Edge weights store the Euclidean distance; node order matches point order.
    """
    if d_p <= 0:
        raise ValueError("d_p must be positive")
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


def hop_distance_matrix(g: UndirectedGraph) -> np.ndarray:
    """All-pairs unweighted hop distances (inf across components)."""
    return csgraph.shortest_path(g.csr, method="D", directed=False, unweighted=True)


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
            ii, jj = np.asarray(triangulation.edge_set(), dtype=np.int64).T
            # near-duplicate merges leave points uncovered
            if np.unique(np.r_[ii, jj]).size == n:
                w = np.hypot(*(coords[ii] - coords[jj]).T)
                cand = csr_matrix((w, (ii, jj)), shape=(n, n))
    if cand is None:
        cand = squareform(pdist(coords))
    tree = csgraph.minimum_spanning_tree(cand).tocoo()
    return UndirectedGraph(n, np.column_stack([tree.row, tree.col, tree.data]))


def symmetric_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    Rejects matrices whose asymmetry exceeds 1e-9 (scaled by the largest
    entry).  Backed by LAPACK's symmetric solver; the contract is the
    residual bound, not the algorithm.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.size == 0:
        return np.zeros(0)
    tol = 1e-9 * max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > tol:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.sort(np.linalg.eigvalsh((a + a.T) / 2.0))
