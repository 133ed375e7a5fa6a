"""Slide-level graph: patches as nodes, cosine-similarity-thresholded edges.

Edges use the same array store as the cell graph (`graph.canonical_edges`);
graphs travel between stages as JSON lines.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError, json_object, open_text
from .graph import canonical_edges, upper_triangle_edges

FORMAT_VERSION = 1

SAVE_EDGE_ROWS = 4096       # edges per json.dumps call in save_image_graphs
MIN_NORM = float(np.sqrt(np.finfo(np.float64).tiny))    # smallest row norm with a normal square


class ImageGraph:
    """Weighted graph over the patches of one slide.

    node_features is a (num_patches, d) matrix.  Edges are held once, as
    the arrays `u`, `v` (int32) and `w` (float64) of `graph.canonical_edges`
    (u < v, sorted), 16 bytes per edge.  `canonical`, when given in place
    of `edges`, is such a (u, v, w) triple for these nodes (as made by
    `graph.upper_triangle_edges`) and is kept as it is.  `w` is the cosine
    similarity that exceeded the build threshold, so unlike cell-graph
    weights it may be negative.  Isolated patches are kept as nodes without
    edges.
    """

    def __init__(self, node_features, edges=(), label: int = -1, slide_id: str = "",
                 canonical=None):
        f = np.asarray(node_features, dtype=np.float64)
        if f.shape[:1] == (0,):
            raise ValueError("graph has no nodes")
        if f.ndim != 2:
            raise ValueError("node_features must be a 2-D matrix")
        if f.shape[1] == 0:
            raise ValueError("node_features must have at least one column")
        if not np.isfinite(f).all():
            raise ValueError("node_features must be finite")
        self.node_features = f
        if canonical is None:
            canonical = canonical_edges(len(f), edges)
        self.u, self.v, self.w = canonical
        self.label = label
        self.slide_id = slide_id

    @property
    def edges(self) -> list:
        """The edges as (i, j, weight) tuples, sorted by (i, j)."""
        return list(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def num_nodes(self) -> int:
        return len(self.node_features)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric weighted adjacency (zero diagonal)."""
        a = np.zeros((self.num_nodes, self.num_nodes))
        a[self.u, self.v] = a[self.v, self.u] = self.w
        return a


def check_theta(theta) -> None:
    """Reject a similarity threshold outside [-1, 1), NaN included.

    A theta of 1 or more, like NaN, would leave every slide graph without edges.
    """
    if not -1.0 <= theta < 1.0:
        raise ValidationError(f"theta must lie in [-1, 1), got {theta!r}")


def build_image_graph(features, theta: float, slide_id: str = "",
                      label: int = -1) -> ImageGraph:
    """Connect patch pairs whose cosine similarity strictly exceeds theta.

    Similarity is computed on the raw (unstandardized) feature rows; edge
    weights store the similarity value.  An all-zero row has similarity 0
    to every row.  A row that is not finite, or whose squared norm leaves
    float64's normal range (so its unit vector would be wrong), raises
    ValidationError naming the slide and the row.
    """
    check_theta(theta)
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    bad = ~np.isfinite(f).all(axis=1)
    if bad.any():
        raise ValidationError(f"slide {slide_id} feature row {bad.argmax()} is not finite")
    with np.errstate(over="ignore"):        # an overflowing row is rejected just below
        norms = np.linalg.norm(f, axis=1)
    bad = ~(norms < np.inf) | ((norms < MIN_NORM) & f.any(axis=1))
    if bad.any():
        i = bad.argmax()
        raise ValidationError(f"slide {slide_id} feature row {i} has norm {norms[i]:g}, "
                              "whose square over- or underflows float64")
    safe = np.where(norms > 0, norms, 1.0)
    unit = f / safe[:, None]
    sim = unit @ unit.T
    return ImageGraph(node_features=f, label=label, slide_id=slide_id,
                      canonical=upper_triangle_edges(sim > theta, sim))


def save_image_graphs(graphs, path) -> None:
    """Write ImageGraphs as JSON-lines, one record per slide.

    A record is the `json.dumps` of its dict, `edges` last as [u, v, w]
    triples.  The edges are encoded SAVE_EDGE_ROWS at a time and written as
    they are, so no Python list of a whole graph's edges is built.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for g in graphs:
            head = json.dumps({
                "format_version": FORMAT_VERSION,
                "slide_id": g.slide_id,
                "label": int(g.label),
                "num_nodes": int(g.num_nodes),
                "feature_dim": int(g.node_features.shape[1]),
                "features": g.node_features.tolist(),
                "edges": [],
            })
            fh.write(head[:-2])                 # up to and including `"edges": [`
            for lo in range(0, len(g.w), SAVE_EDGE_ROWS):
                rows = slice(lo, lo + SAVE_EDGE_ROWS)
                block = json.dumps([list(e) for e in zip(g.u[rows].tolist(), g.v[rows].tolist(),
                                                         g.w[rows].tolist())])
                if lo:
                    fh.write(", ")
                fh.write(block[1:-1])
            fh.write("]}\n")


def _integer(rec: dict, key: str) -> int:
    value = rec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} {value!r} is not an integer")
    return value


def load_image_graphs(path) -> list[ImageGraph]:
    """Read a JSON-lines ImageGraph file written by save_image_graphs.

    Malformed records, records whose `num_nodes` and `feature_dim` differ
    from their features matrix, and a repeated `slide_id` raise
    ValidationError naming `path:line`; a file without records raises it
    naming `path`.
    """
    out = []
    first = {}      # slide_id -> the line of its record
    path = Path(path)
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json_object(line, f"{path}:{lineno}", FORMAT_VERSION)
            try:
                g = ImageGraph(
                    node_features=rec["features"],
                    edges=rec["edges"],
                    label=_integer(rec, "label"),
                    slide_id=str(rec["slide_id"]),
                )
                n, d = _integer(rec, "num_nodes"), _integer(rec, "feature_dim")
                if (n, d) != g.node_features.shape:
                    rows, cols = g.node_features.shape
                    raise ValueError(f"declares {n} nodes of {d} features, "
                                     f"but holds {rows} of {cols}")
                if g.slide_id in first:
                    raise ValueError(f"slide {g.slide_id} repeats line {first[g.slide_id]}")
                first[g.slide_id] = lineno
                out.append(g)
            except KeyError as e:
                raise ValidationError(f"{path}:{lineno}: missing key {e}") from e
            except (TypeError, ValueError, OverflowError) as e:
                raise ValidationError(f"{path}:{lineno}: {e}") from e
    if not out:
        raise ValidationError(f"{path}: no slide graphs")
    return out
