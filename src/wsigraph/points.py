"""Nuclei point sets in patch pixel coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
