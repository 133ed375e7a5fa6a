"""Cell-graph and tessellation features over nuclei point patterns, a slide-level
similarity graph, and a graph-convolutional classifier, end to end."""

from .detection import GLoGBank, GrayImage, build_glog_bank, detect_nuclei
from .features import (
    FEATURE_NAMES,
    cell_graph_features,
    delaunay_features,
    density_features,
    mst_features,
    patch_feature_vector,
    stat_summary,
    voronoi_features,
)
from .graph import (
    UndirectedGraph,
    adjacency_eigenvalues,
    build_radius_graph,
    canonical_edges,
    clustering_coefficients,
    hop_statistics,
    minimum_spanning_tree,
)
from .image_graph import ImageGraph, build_image_graph
from .points import PointSet
from .tessellation import (
    DegenerateGeometryError,
    Triangulation,
    VoronoiCells,
    delaunay_triangulation,
    voronoi_cells,
)

__version__ = "0.1.0"

__all__ = [
    "FEATURE_NAMES",
    "DegenerateGeometryError",
    "GLoGBank",
    "GrayImage",
    "ImageGraph",
    "PointSet",
    "Triangulation",
    "UndirectedGraph",
    "VoronoiCells",
    "adjacency_eigenvalues",
    "build_glog_bank",
    "build_image_graph",
    "build_radius_graph",
    "canonical_edges",
    "cell_graph_features",
    "clustering_coefficients",
    "delaunay_features",
    "delaunay_triangulation",
    "density_features",
    "detect_nuclei",
    "hop_statistics",
    "minimum_spanning_tree",
    "mst_features",
    "patch_feature_vector",
    "stat_summary",
    "voronoi_cells",
    "voronoi_features",
]
