"""Nuclei point sets in patch pixel coordinates, and the records of a slide's
patches, each keyed by its (row, col) in the slide's `tile_image` grid."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import ValidationError


@dataclass
class PointSet:
    """Detected nuclei centroids within one patch.

    Coordinates are (x, y) pixels with 0 <= x < patch_width and
    0 <= y < patch_height.  Exact duplicate points are dropped on
    construction, keeping the first occurrence.
    """

    coords: np.ndarray
    patch_width: float
    patch_height: float

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=np.float64)
        if c.size == 0:
            c = c.reshape(0, 2)
        if c.ndim != 2 or c.shape[1] != 2:
            raise ValueError("coords must be an (n, 2) array of (x, y) pairs")
        if self.patch_width <= 0 or self.patch_height <= 0:
            raise ValueError("patch dimensions must be positive")
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        if len(c) and (
            c[:, 0].min() < 0
            or c[:, 0].max() >= self.patch_width
            or c[:, 1].min() < 0
            or c[:, 1].max() >= self.patch_height
        ):
            raise ValueError(
                "coordinates must satisfy 0 <= x < patch_width, 0 <= y < patch_height"
            )
        if len(c):
            _, first = np.unique(c, axis=0, return_index=True)
            if len(first) != len(c):
                c = c[np.sort(first)]
        self.coords = c

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def area(self) -> float:
        return float(self.patch_width) * float(self.patch_height)


@dataclass
class PatchRecord:
    row: int
    col: int
    points: PointSet | None = None
    features: np.ndarray | None = None


@dataclass
class SlideRecord:
    slide_id: str
    label: int
    patches: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)   # free-form; perfbench ships spans in it


def tile_image(width: int, height: int, patch_size: int, stride: int) -> list:
    """Full-patch origins (x, y) in row-major order."""
    if patch_size <= 0 or stride <= 0:
        raise ValidationError("patch_size and stride must be positive")
    if patch_size > min(width, height):
        raise ValidationError(
            f"patch_size {patch_size} exceeds image bounds {width}x{height}"
        )
    xs = range(0, width - patch_size + 1, stride)
    ys = range(0, height - patch_size + 1, stride)
    return [(x, y) for y in ys for x in xs]


def greedy_merge(xy: np.ndarray, radius: float) -> np.ndarray:
    """Indices of the points a greedy merge keeps, ascending.

    Walking the (n, 2) points in index order, a point is kept unless a kept
    point lies strictly closer than `radius`; a dropped point suppresses
    nothing.  Only the pairs within `radius` (one `cKDTree.query_pairs`) are
    visited, and only a point that heads such a pair takes a Python step.
    """
    pairs = cKDTree(xy).query_pairs(radius, output_type="ndarray")
    d = xy[pairs[:, 0]] - xy[pairs[:, 1]]
    pairs = pairs[(d * d).sum(axis=1) < radius * radius]
    pairs = pairs[np.argsort(pairs[:, 0])]      # (i, j) with i < j: i decides first
    heads, starts = np.unique(pairs[:, 0], return_index=True)
    ends = np.r_[starts[1:], len(pairs)]
    dropped = np.zeros(len(xy), dtype=bool)
    for i, a, b in zip(heads.tolist(), starts.tolist(), ends.tolist()):
        if not dropped[i]:
            dropped[pairs[a:b, 1]] = True
    return np.flatnonzero(~dropped)
