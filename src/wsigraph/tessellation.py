"""Delaunay triangulation and rectangle-bounded Voronoi cells of nuclei points.

Both come from Qhull (Barber, Dobkin and Huhdanpaa, "The Quickhull algorithm
for convex hulls", ACM TOMS 1996) through scipy.spatial.Delaunay, one call per
tessellation.

Cocircular ties follow one fixed rule, a symbolic perturbation in the spirit
of Edelsbrunner and Muecke's "Simulation of Simplicity" (1990): every interior
edge whose normalized incircle excess lies within PREDICATE_EPS is flipped
until the diagonal of its quadrilateral avoids the lexicographically smallest
of the quadrilateral's four points.  That is the Delaunay triangulation after
lifting each point by an infinitesimal amount that shrinks with its
lexicographic rank, so the triangle set depends only on the point set, not
on input order or on Qhull's insertion history.

Voronoi cells are bounded by reflecting the generators across the four sides
of the patch rectangle: the bisector of a generator and its image is that
side, so a generator's cell among generators and images is exactly its cell
clipped to the rectangle.  Its vertices are the circumcentres of the Delaunay
triangles around it, in angular order.  A generator lying on a side coincides
with its own image, so its cell is instead clipped from the rectangle by the
bisectors of its Delaunay neighbours.

Before either is built, points are merged by `points.greedy_merge`: in index
order, a point strictly closer than MERGE_EPS to an earlier kept point is
dropped, the same rule detection uses to merge maxima.  Both structures keep
the array form Qhull's output arrives in: triangles and Delaunay edges are
int64 index arrays, and the cells are one array of CCW rings stored back to
back with a vertex count per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from .points import PointSet, greedy_merge

MERGE_EPS = 1e-6        # points closer than this are merged before tessellating
PREDICATE_EPS = 1e-9    # tie band on the normalized circumcircle determinant


class DegenerateGeometryError(ValueError):
    """Tessellation undefined: fewer than 3 distinct points, or all collinear."""


# ---------------------------------------------------------------------------
# shared predicates

def incircle_excess(a, b, c, p):
    """Normalized in-circumcircle determinant for CCW triangle (a, b, c).

    Positive when p lies strictly inside the circumcircle; magnitudes at or
    below PREDICATE_EPS are treated as cocircular ties by the callers.  All
    arguments may be (..., 2) arrays of points.
    """
    a, b, c, p = (np.asarray(v, dtype=np.float64) for v in (a, b, c, p))
    ad, bd, cd = a - p, b - p, c - p
    al = ad[..., 0] * ad[..., 0] + ad[..., 1] * ad[..., 1]
    bl = bd[..., 0] * bd[..., 0] + bd[..., 1] * bd[..., 1]
    cl = cd[..., 0] * cd[..., 0] + cd[..., 1] * cd[..., 1]
    det = (
        ad[..., 0] * (bd[..., 1] * cl - cd[..., 1] * bl)
        - ad[..., 1] * (bd[..., 0] * cl - cd[..., 0] * bl)
        + al * (bd[..., 0] * cd[..., 1] - cd[..., 0] * bd[..., 1])
    )
    ext = np.maximum(np.abs(np.concatenate([ad, bd, cd], axis=-1)).max(axis=-1), 1e-300)
    return det / ext**4


# ---------------------------------------------------------------------------
# Delaunay triangulation

@dataclass
class Triangulation:
    """Delaunay triangles as an (m, 3) int64 array of indices into `points`.

    Each row is sorted ascending and the rows are in lexicographic order.
    """

    triangles: np.ndarray
    points: PointSet

    def edge_set(self) -> np.ndarray:
        """Unique undirected edges as a (k, 2) int64 array, u < v, sorted by (u, v)."""
        t, n = self.triangles, len(self.points)
        key = np.unique(t[:, [0, 1, 0]] * n + t[:, [1, 2, 2]])
        return np.column_stack([key // n, key % n])

    def triangle_areas(self) -> np.ndarray:
        c = self.points.coords
        t = self.triangles
        a, b, d = c[t[:, 0]], c[t[:, 1]], c[t[:, 2]]
        return 0.5 * np.abs(
            (b[:, 0] - a[:, 0]) * (d[:, 1] - a[:, 1])
            - (b[:, 1] - a[:, 1]) * (d[:, 0] - a[:, 0])
        )

    def side_lengths(self) -> np.ndarray:
        """All three side lengths of every triangle (3 per triangle)."""
        c = self.points.coords
        t = self.triangles
        a, b, d = c[t[:, 0]], c[t[:, 1]], c[t[:, 2]]
        return np.concatenate([
            np.hypot(*(a - b).T),
            np.hypot(*(b - d).T),
            np.hypot(*(d - a).T),
        ])


def _cross(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Twice the signed areas of triangles (o, a, b); positive when CCW."""
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
        a[..., 1] - o[..., 1]) * (b[..., 0] - o[..., 0])


def _interior_edges(tris: np.ndarray):
    """Each edge shared by two triangles, as (t1, k1, t2, k2).

    Edge k of a triangle is the one opposite its vertex k.
    """
    u = tris[:, [1, 2, 0]].ravel()
    v = tris[:, [2, 0, 1]].ravel()
    key = np.minimum(u, v).astype(np.int64) * (tris.max() + 1) + np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    pair = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    first, second = order[pair], order[pair + 1]
    return first // 3, first % 3, second // 3, second % 3


def _canonical_ties(pts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Flip cocircular ties until each quad's diagonal avoids its smallest point.

    `pts` are lexicographically sorted, so the smallest point of a quad is its
    smallest index.  `tris` are CCW.  Each round flips a set of candidate
    edges that share no triangle; the rule is a symbolic perturbation of the
    lifted points, so the flips converge to one triangulation.
    """
    tris = tris.copy()
    for _ in range(2 * len(tris) + 1):
        t1, k1, t2, k2 = _interior_edges(tris)
        a = tris[t1, (k1 + 1) % 3]
        b = tris[t1, (k1 + 2) % 3]
        c = tris[t1, k1]
        d = tris[t2, k2]
        pa, pb, pc, pd = pts[a], pts[b], pts[c], pts[d]
        smallest = np.minimum(np.minimum(a, b), np.minimum(c, d))
        want = ((a == smallest) | (b == smallest)) & (
            np.abs(incircle_excess(pa, pb, pc, pd)) <= PREDICATE_EPS)
        # flip only across a strictly convex quadrilateral
        guard = 1e-12 * np.maximum(((pc - pd) ** 2).sum(-1), ((pa - pb) ** 2).sum(-1))
        want &= (_cross(pc, pd, pa) < -guard) & (_cross(pc, pd, pb) > guard)
        cand = np.flatnonzero(want)
        if not len(cand):
            return tris
        used = np.zeros(len(tris), dtype=bool)
        for e in cand.tolist():
            if used[t1[e]] or used[t2[e]]:
                continue
            used[t1[e]] = used[t2[e]] = True
            tris[t1[e]] = (a[e], d[e], c[e])
            tris[t2[e]] = (d[e], b[e], c[e])
    raise RuntimeError("cocircular tie flips did not converge")


def delaunay_triangulation(points: PointSet) -> Triangulation:
    """Delaunay triangulation of the point set.

    Points strictly closer than MERGE_EPS to an earlier kept point are
    merged away first.
    Raises DegenerateGeometryError when fewer than 3 distinct points remain
    or all points are collinear; callers substitute zeroed features.
    Cocircular ties are broken by the lexicographic rule of the module
    docstring, which makes the triangle set invariant under input permutation.
    """
    reps = greedy_merge(points.coords, MERGE_EPS)
    if len(reps) < 3:
        raise DegenerateGeometryError("need at least 3 distinct points")
    coords = points.coords[reps]
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    sorted_pts = coords[order]

    base = sorted_pts[-1] - sorted_pts[0]
    span = max(np.abs(sorted_pts - sorted_pts[0]).max(), 1e-12)
    cross = np.abs(
        base[0] * (sorted_pts[:, 1] - sorted_pts[0, 1])
        - base[1] * (sorted_pts[:, 0] - sorted_pts[0, 0])
    )
    if cross.max() <= 1e-9 * span * span:
        raise DegenerateGeometryError("points are collinear")

    raw = Delaunay(sorted_pts).simplices.astype(np.int64)
    cw = _cross(*(sorted_pts[raw[:, i]] for i in range(3))) < 0
    raw[cw] = raw[cw][:, [0, 2, 1]]
    raw = _canonical_ties(sorted_pts, raw)

    back = reps[order]
    t = np.sort(back[raw], axis=1)
    t = t[np.lexsort(t.T[::-1])]
    tri = Triangulation(triangles=t, points=points)
    if len(tri.triangles) and tri.triangle_areas().min() <= 0.0:
        raise RuntimeError("triangulation produced a degenerate triangle")
    return tri


# ---------------------------------------------------------------------------
# bounded Voronoi cells

@dataclass
class VoronoiCells:
    """Convex Voronoi cells clipped to the patch rectangle.

    One cell per merge representative (points within MERGE_EPS share the
    cell of their representative); `generator_index` is the original point
    index of each cell.  `vertices` holds the CCW (x, y) rings of all cells
    back to back, cell by cell, and `sizes` the vertex count of each ring.
    """

    vertices: np.ndarray
    sizes: np.ndarray
    generator_index: np.ndarray

    def __post_init__(self):
        # cell and ring successor of every vertex, and the start of every ring
        self._owner = np.repeat(np.arange(len(self.sizes)), self.sizes)
        self._next, self._starts = _ring_next(self.sizes)

    def areas(self) -> np.ndarray:
        verts, nxt = self.vertices, self._next
        cross = verts[:, 0] * verts[nxt, 1] - verts[:, 1] * verts[nxt, 0]
        return 0.5 * np.abs(np.bincount(self._owner, weights=cross, minlength=len(self.sizes)))

    def perimeters(self) -> np.ndarray:
        d = self.vertices[self._next] - self.vertices
        return np.bincount(self._owner, weights=np.hypot(d[:, 0], d[:, 1]),
                           minlength=len(self.sizes))

    def chord_lengths(self) -> np.ndarray:
        """All pairwise vertex distances within each cell, pooled.

        Computed per group of cells with the same vertex count.
        """
        sizes = self.sizes
        chords = []
        for k in np.unique(sizes[sizes >= 2]).tolist():
            ring = self.vertices[self._starts[sizes == k][:, None] + np.arange(k)]
            iu, ju = np.triu_indices(k, k=1)
            d = ring[:, iu] - ring[:, ju]
            chords.append(np.hypot(d[..., 0], d[..., 1]).ravel())
        return np.concatenate(chords) if chords else np.zeros(0)

    def total_area(self) -> float:
        return float(self.areas().sum())


def _ring_next(sizes: np.ndarray):
    """For rings stored back to back: each vertex's successor, and ring starts."""
    starts = np.cumsum(sizes) - sizes
    nxt = np.arange(1, int(sizes.sum()) + 1)
    full = sizes > 0
    nxt[(starts + sizes - 1)[full]] = starts[full]
    return nxt, starts


def _clip_halfplane(poly: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon to {x : normal.x <= offset}."""
    s = poly @ normal - offset
    tol = 1e-9 * max(1.0, abs(offset))
    inside = s <= tol
    if inside.all():
        return poly
    if not inside.any():
        return poly[:0]
    out = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        if inside[i]:
            out.append(poly[i])
        if inside[i] != inside[j]:
            t = s[i] / (s[i] - s[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    res = np.array(out)
    # drop consecutive near-duplicate vertices created by corner crossings
    if len(res) > 1:
        keep = np.ones(len(res), dtype=bool)
        for i in range(len(res)):
            j = (i + 1) % len(res)
            if keep[i] and np.abs(res[j] - res[i]).max() < 1e-9:
                keep[j if j != 0 else i] = False
        res = res[keep]
    return res


def _circumcentres(tri_pts: np.ndarray):
    """Circumcentres of (k, 3, 2) triangles, and which triangles are not flat."""
    a = tri_pts[:, 0]
    b = tri_pts[:, 1] - a
    c = tri_pts[:, 2] - a
    bl = (b * b).sum(-1)
    cl = (c * c).sum(-1)
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    ok = np.abs(d) > 1e-12 * np.sqrt(bl * cl)
    num = np.stack([c[:, 1] * bl - b[:, 1] * cl, b[:, 0] * cl - c[:, 0] * bl], axis=1)
    off = np.divide(num, d[:, None], out=np.zeros_like(num), where=ok[:, None])
    return a + off, ok


def _rectangle_cells(gen: np.ndarray, w: float, h: float):
    """Voronoi cells of distinct generators clipped to [0, w] x [0, h].

    Returns the CCW rings back to back in generator order, and their sizes.
    """
    m = len(gen)
    x, y = gen[:, 0], gen[:, 1]
    images = [(-x, y, 2 * x), (2 * w - x, y, 2 * (w - x)),
              (x, -y, 2 * y), (x, 2 * h - y, 2 * (h - y))]
    # an image closer than MERGE_EPS to its generator would merge with it
    kept = [gap >= MERGE_EPS for _, _, gap in images]
    on_side = ~np.logical_and.reduce(kept)
    pts = np.vstack([gen] + [np.column_stack([ix, iy])[k]
                             for (ix, iy, _), k in zip(images, kept)])
    dl = Delaunay(pts)
    simp = dl.simplices
    centres, ok = _circumcentres(pts[simp])

    vert = simp.ravel()
    tri = np.repeat(np.arange(len(simp)), 3)
    own = vert < m
    # flat triangles have no circumcentre; cells next to one are clipped instead
    clip = on_side.copy()
    clip[vert[own & ~ok[tri]]] = True
    sel = own & ~clip[np.minimum(vert, m - 1)]
    v, cc = vert[sel], centres[tri[sel]]
    rel = cc - gen[v]
    order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), v))
    v, cc = v[order], cc[order]
    # cocircular generators give one vertex several times in a row
    nxt, _ = _ring_next(np.bincount(v, minlength=m))
    keep = np.abs(cc[nxt] - cc).max(axis=1) >= 1e-9 * max(w, h)
    v, cc = v[keep], cc[keep]

    rect = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]])
    indptr, nbrs = dl.vertex_neighbor_vertices
    clipped = np.flatnonzero(clip)
    rings = []
    for i in clipped.tolist():
        poly = rect
        for j in nbrs[indptr[i]:indptr[i + 1]].tolist():
            normal = pts[j] - gen[i]
            poly = _clip_halfplane(poly, normal, normal @ (gen[i] + pts[j]) / 2.0)
        rings.append(poly)
    v = np.concatenate([v, np.repeat(clipped, [len(r) for r in rings])])
    cc = np.concatenate([cc] + rings)
    return cc[np.argsort(v, kind="stable")], np.bincount(v, minlength=m)


def voronoi_cells(points: PointSet) -> VoronoiCells:
    """Voronoi cells of all points, clipped to the patch rectangle.

    Cell of p is every location in the rectangle at least as close to p as to
    any other point.  Computed from one Delaunay triangulation of the
    generators and their reflections across the rectangle sides.
    """
    if len(points) < 1:
        raise ValueError("voronoi_cells needs at least one point")
    reps = greedy_merge(points.coords, MERGE_EPS)
    vertices, sizes = _rectangle_cells(
        points.coords[reps], float(points.patch_width), float(points.patch_height))
    return VoronoiCells(vertices=vertices, sizes=sizes, generator_index=reps)
