"""The 69-dimensional patch feature vector.

Layout (fixed concatenation order):
  0..17   cell-graph measures on the d_p radius graph
  18..29  Voronoi cell statistics (area, chord length, perimeter)
  30..37  Delaunay statistics (triangle side length, area)
  38..41  minimum-spanning-tree edge length statistics
  42..68  nuclei density / nearest-neighbor statistics

Every feature evaluates to 0 when its defining structure does not exist
(empty patch, too few points, collinear points); no entry is ever NaN/Inf.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .blas import one_blas_thread
from .graph import (
    UndirectedGraph,
    adjacency_eigenvalues,
    build_radius_graph,
    clustering_coefficients,
    hop_statistics,
    minimum_spanning_tree,
)
from .points import PointSet
from .tessellation import (
    DegenerateGeometryError,
    Triangulation,
    VoronoiCells,
    delaunay_triangulation,
    voronoi_cells,
)

DEFAULT_CELL_GRAPH_RADIUS = 64.0

# Dense patches hold ~3000 nuclei.  Above graph.BANDED_MIN_NODES, a cell
# graph with a thin band builds no n x n matrix: the spectrum comes from the
# band, and the hop BFS holds four n x n/64-word bitsets (50 MB at the cap).
# A wide band (packed nuclei or a large d_p) still takes the dense spectrum:
# an 8 n^2-byte adjacency (800 MB at the cap), LAPACK's working copy and
# O(n^3) time.  The cap bounds that case.
MAX_PATCH_NUCLEI = 10_000

KNN_KS = (3, 5, 7)
RADII = (10.0, 20.0, 30.0, 40.0, 50.0)

CELL_GRAPH_FEATURE_NAMES = [
    "cg_avg_degree",
    "cg_clustering_mean",
    "cg_giant_ratio",
    "cg_component_count",
    "cg_ecc_mean",
    "cg_diameter",
    "cg_radius",
    "cg_avg_path_length",
    "cg_central_count",
    "cg_central_pct",
    "cg_node_count",
    "cg_edge_count",
    "cg_adj_eig_max",
    "cg_adj_trace",
    "cg_adj_energy",
    "cg_eig_lower_slope",
    "cg_eig_upper_slope",
    "cg_lap_trace",
]

_STAT_SUFFIXES = ("mean", "sd", "minmax", "disorder")

VORONOI_FEATURE_NAMES = [
    f"vor_{what}_{s}" for what in ("area", "chord", "perim") for s in _STAT_SUFFIXES
]
DELAUNAY_FEATURE_NAMES = [
    f"del_{what}_{s}" for what in ("side", "area") for s in _STAT_SUFFIXES
]
MST_FEATURE_NAMES = [f"mst_edge_{s}" for s in _STAT_SUFFIXES]
DENSITY_FEATURE_NAMES = (
    ["nn_voronoi_area_total", "nn_nuclei_count", "nn_nuclei_density"]
    + [f"nn_k{k}_dist_{s}" for k in KNN_KS for s in ("mean", "sd", "disorder")]
    + [f"nn_r{int(r)}_count_{s}" for r in RADII for s in ("mean", "sd", "disorder")]
)

FEATURE_NAMES = (
    CELL_GRAPH_FEATURE_NAMES
    + VORONOI_FEATURE_NAMES
    + DELAUNAY_FEATURE_NAMES
    + MST_FEATURE_NAMES
    + DENSITY_FEATURE_NAMES
)
assert len(FEATURE_NAMES) == 69


def stat_summary(samples) -> np.ndarray:
    """(mean, population SD, min/max ratio, disorder) of a nonnegative sample.

    disorder = 1 - 1/(1 + sd/mean), the normalized dispersion common in
    quantitative histomorphometry; empty input gives all zeros, mean 0 gives
    disorder 0, max 0 gives ratio 0.
    """
    a = np.asarray(samples, dtype=np.float64).ravel()
    if a.size == 0:
        return np.zeros(4)
    mean = float(a.mean())
    sd = float(a.std())
    mx = float(a.max())
    ratio = float(a.min()) / mx if mx > 0 else 0.0
    disorder = 1.0 - 1.0 / (1.0 + sd / mean) if mean > 0 else 0.0
    return np.array([mean, sd, ratio, disorder])


def _ls_slope(values: np.ndarray) -> float:
    """Least-squares slope of (index, value); fewer than 2 values gives 0."""
    k = len(values)
    if k < 2:
        return 0.0
    x = np.arange(k, dtype=np.float64)
    xc = x - x.mean()
    return float((xc @ (values - values.mean())) / (xc @ xc))


def cell_graph_features(g: UndirectedGraph) -> np.ndarray:
    """The 18 cell-graph measures, in CELL_GRAPH_FEATURE_NAMES order.

    Disconnected graphs: eccentricities are per-component, diameter is the
    global max, radius the min over non-isolated nodes (0 when every node is
    isolated), and average path length runs over connected pairs only.
    Central points are the nodes whose eccentricity equals the radius.
    """
    n = g.node_count
    out = np.zeros(18)
    if n == 0:
        return out
    deg = g.degrees().astype(np.float64)
    # reached[v] is the size of v's component: a component of s nodes puts
    # s nodes at reach s
    ecc, dist_sum, reached = hop_statistics(g)
    nodes_by_size = np.bincount(reached)
    components = int((nodes_by_size[1:] // np.arange(1, len(nodes_by_size))).sum())
    diameter = float(ecc.max())
    non_isolated = deg > 0
    radius = float(ecc[non_isolated].min()) if non_isolated.any() else 0.0
    pairs = int(reached.sum()) - n     # ordered connected pairs u != v
    apl = int(dist_sum.sum()) / pairs if pairs else 0.0
    central = ecc == radius

    eig = adjacency_eigenvalues(g)
    k = int(np.ceil(n / 2))

    out[0] = deg.mean()
    out[1] = float(clustering_coefficients(g).mean())
    out[2] = reached.max() / n
    out[3] = components
    out[4] = ecc.mean()
    out[5] = diameter
    out[6] = radius
    out[7] = apl
    out[8] = central.sum()
    out[9] = 100.0 * central.sum() / n
    out[10] = n
    out[11] = g.edge_count
    out[12] = eig[-1]
    # out[13], the adjacency trace, stays 0: a simple graph has no self-loops
    out[14] = float(np.abs(eig).sum())
    out[15] = _ls_slope(eig[:k])
    out[16] = _ls_slope(eig[-k:])
    out[17] = float(deg.sum())
    return out


def voronoi_features(cells: VoronoiCells | None) -> np.ndarray:
    """12 Voronoi statistics: stat_summary of cell areas, chord lengths, perimeters.

    Chord lengths are all pairwise vertex distances of each cell, pooled
    over all cells before summarization.
    """
    if cells is None:
        return np.zeros(12)
    return np.concatenate([
        stat_summary(cells.areas()),
        stat_summary(cells.chord_lengths()),
        stat_summary(cells.perimeters()),
    ])


def delaunay_features(t: Triangulation | None) -> np.ndarray:
    """8 Delaunay statistics: stat_summary of side lengths and triangle areas.

    Sides are pooled per triangle (interior edges contribute once per
    adjacent triangle).
    """
    if t is None:
        return np.zeros(8)
    return np.concatenate([
        stat_summary(t.side_lengths()),
        stat_summary(t.triangle_areas()),
    ])


def mst_features(tree: UndirectedGraph) -> np.ndarray:
    """4 MST statistics: stat_summary of the tree edge lengths."""
    return stat_summary(tree.w)


def density_features(points: PointSet, cells: VoronoiCells | None) -> np.ndarray:
    """27 nuclei density statistics.

    Order: total clipped Voronoi area; nuclei count; count per patch area;
    then (mean, SD, disorder) of the distance to the k-th nearest neighbor
    for k in (3, 5, 7); then (mean, SD, disorder) of the number of neighbors
    within radius r for r in (10, 20, 30, 40, 50) pixels.  The k-NN block is
    zero whenever n <= k.  `cells` is the Voronoi diagram of `points`, None
    for an empty patch.
    """
    n = len(points)
    out = np.zeros(27)
    if n == 0:
        return out
    out[0] = cells.total_area()
    out[1] = n
    out[2] = n / points.area

    pos = 3
    if n >= 2:
        tree = cKDTree(points.coords)
        knn, _ = tree.query(points.coords, k=min(max(KNN_KS) + 1, n))  # column 0: self
        for k in KNN_KS:
            if n > k:
                out[pos:pos + 3] = stat_summary(knn[:, k])[[0, 1, 3]]
            pos += 3
        for r in RADII:
            # distances <= r, minus the point itself
            counts = tree.query_ball_point(points.coords, r, return_length=True) - 1
            out[pos:pos + 3] = stat_summary(counts.astype(np.float64))[[0, 1, 3]]
            pos += 3
    return out


@one_blas_thread()
def patch_feature_vector(points: PointSet, d_p: float = DEFAULT_CELL_GRAPH_RADIUS) -> np.ndarray:
    """The full 69-dimensional patch feature vector (see module docstring).

    Runs with one BLAS thread, since the thread count moves the eigenvalues
    in the last bits.
    """
    n = len(points)
    cg = cell_graph_features(build_radius_graph(points, d_p))
    cells = voronoi_cells(points) if n >= 1 else None
    vor = voronoi_features(cells)
    try:
        tri = delaunay_triangulation(points) if n >= 3 else None
    except DegenerateGeometryError:
        tri = None
    dl = delaunay_features(tri)
    mst = mst_features(minimum_spanning_tree(points, triangulation=tri))
    dens = density_features(points, cells=cells)
    vec = np.concatenate([cg, vor, dl, mst, dens])
    if vec.shape != (69,) or not np.all(np.isfinite(vec)):
        raise AssertionError("feature vector must be 69 finite values")
    return vec
