"""Independent brute-force oracles used to verify the library implementations.

Everything here is deliberately written from first principles with different
algorithms than the production code: Floyd-Warshall instead of BFS, cyclic
Jacobi instead of LAPACK, exhaustive Prufer-sequence enumeration instead of
Kruskal, direct determinant circumcircle tests, triple-loop triangle counts.
"""

from __future__ import annotations

import itertools

import numpy as np


def floyd_warshall_hops(adj: np.ndarray) -> np.ndarray:
    """All-pairs unweighted shortest paths from a boolean adjacency matrix."""
    n = len(adj)
    d = np.where(adj, 1.0, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def jacobi_eigenvalues(matrix, max_sweeps: int = 100) -> np.ndarray:
    """Classical cyclic Jacobi rotations; returns eigenvalues sorted ascending."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    scale = max(float(np.abs(a).max()), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(max(np.sum(a * a) - np.sum(np.diag(a) ** 2), 0.0))
        if off <= 1e-14 * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
    return np.sort(np.diag(a))


def triangle_counts(n: int, edge_set: set) -> np.ndarray:
    """Per-node triangle counts by exhaustive triple enumeration."""
    t = np.zeros(n, dtype=np.int64)
    for i, j, k in itertools.combinations(range(n), 3):
        if (i, j) in edge_set and (j, k) in edge_set and (i, k) in edge_set:
            t[i] += 1
            t[j] += 1
            t[k] += 1
    return t


def exhaustive_mst_weight(coords: np.ndarray) -> float:
    """Minimum spanning tree weight by enumerating all n^(n-2) labeled trees.

    Every labeled tree on n nodes corresponds to exactly one Prufer sequence;
    the decode runs vectorized across all sequences.  Feasible for n <= 8.
    """
    n = len(coords)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(-1))
    if n < 2:
        return 0.0
    if n == 2:
        return float(dist[0, 1])
    seqs = np.array(list(itertools.product(range(n), repeat=n - 2)), dtype=np.int64)
    r = len(seqs)
    rows = np.arange(r)
    deg = np.ones((r, n), dtype=np.int64)
    for k in range(n - 2):
        deg[rows, seqs[:, k]] += 1
    used = np.zeros((r, n), dtype=bool)
    weight = np.zeros(r)
    for k in range(n - 2):
        leaf = ((deg == 1) & ~used).argmax(axis=1)   # smallest-index leaf
        parent = seqs[:, k]
        weight += dist[leaf, parent]
        used[rows, leaf] = True
        deg[rows, leaf] -= 1
        deg[rows, parent] -= 1
    rem = (deg == 1) & ~used
    first = rem.argmax(axis=1)
    rem[rows, first] = False
    second = rem.argmax(axis=1)
    weight += dist[first, second]
    return float(weight.min())


def circumcircle_violations(coords: np.ndarray, triangles, eps: float = 1e-9) -> int:
    """Count (triangle, point) pairs where the point is strictly inside the
    triangle's circumcircle, using the normalized determinant test."""
    bad = 0
    pts = np.asarray(coords, dtype=np.float64)
    for (i, j, k) in triangles:
        a, b, c = pts[i], pts[j], pts[k]
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if orient < 0:
            b, c = c, b
        others = np.delete(np.arange(len(pts)), [i, j, k], axis=0)
        if len(others) == 0:
            continue
        p = pts[others]
        ad = a - p
        bd = b - p
        cd = c - p
        al = (ad * ad).sum(1)
        bl = (bd * bd).sum(1)
        cl = (cd * cd).sum(1)
        det = (
            ad[:, 0] * (bd[:, 1] * cl - cd[:, 1] * bl)
            - ad[:, 1] * (bd[:, 0] * cl - cd[:, 0] * bl)
            + al * (bd[:, 0] * cd[:, 1] - cd[:, 0] * bd[:, 1])
        )
        ext = np.maximum(
            np.abs(np.concatenate([ad, bd, cd], axis=1)).max(axis=1), 1e-300
        )
        bad += int((det / ext**4 > eps).sum())
    return bad


def cocircular_diagonal_violations(coords: np.ndarray, triangles, eps: float = 1e-9) -> int:
    """Count cocircular quads whose diagonal touches the quad's smallest point.

    A quad is two triangles sharing an edge, the edge being its diagonal.  It
    counts as cocircular when the normalized determinant test puts the far
    point within eps of the circumcircle of the other triangle.  "Smallest" is
    lexicographic in (x, y).
    """
    pts = np.asarray(coords, dtype=np.float64)
    owners: dict = {}
    for tri in triangles:
        for edge in itertools.combinations(sorted(tri), 2):
            owners.setdefault(edge, []).append(set(tri))
    bad = 0
    for (i, j), tris in owners.items():
        if len(tris) != 2:
            continue
        (k,) = tris[0] - {i, j}
        (l,) = tris[1] - {i, j}
        a, b, c, p = pts[i], pts[j], pts[k], pts[l]
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < 0:
            b, c = c, b
        ad, bd, cd = a - p, b - p, c - p
        det = np.linalg.det(np.array([
            [ad[0], ad[1], ad @ ad],
            [bd[0], bd[1], bd @ bd],
            [cd[0], cd[1], cd @ cd],
        ]))
        ext = max(np.abs(np.concatenate([ad, bd, cd])).max(), 1e-300)
        if abs(det) / ext**4 <= eps:
            smallest = min((tuple(pts[x]), x) for x in (i, j, k, l))[1]
            bad += smallest in (i, j)
    return bad


def convex_hull_area(coords: np.ndarray) -> float:
    """Monotone-chain hull area."""
    pts = np.asarray(coords, dtype=np.float64)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        return 0.0
    x, y = hull[:, 0], hull[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def greedy_match_count(detected: np.ndarray, truth: np.ndarray, radius: float) -> int:
    """One-to-one closest-first matching within `radius`."""
    if len(detected) == 0 or len(truth) == 0:
        return 0
    pairs = []
    for i, d in enumerate(detected):
        for j, t in enumerate(truth):
            dist = float(np.hypot(d[0] - t[0], d[1] - t[1]))
            if dist <= radius:
                pairs.append((dist, i, j))
    used_d: set = set()
    used_t: set = set()
    matches = 0
    for dist, i, j in sorted(pairs):
        if i in used_d or j in used_t:
            continue
        used_d.add(i)
        used_t.add(j)
        matches += 1
    return matches
