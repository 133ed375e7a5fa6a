from pathlib import Path

import numpy as np
import pytest

from wsigraph.features import patch_feature_vector
from wsigraph.points import PointSet
from wsigraph.tessellation import (
    DegenerateGeometryError,
    delaunay_triangulation,
    voronoi_cells,
)

from oracles import (
    circumcircle_violations,
    cocircular_diagonal_violations,
    convex_hull_area,
)

GOLDEN = Path(__file__).parent / "data" / "tessellation_golden.npz"


def pset(points, w=768, h=768):
    return PointSet(np.asarray(points, dtype=float), w, h)


def integer_grids(seed, count):
    """Random subsets of scaled, shifted integer grids: many cocircular ties."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        xs, ys = np.meshgrid(np.arange(rng.integers(2, 10)), np.arange(rng.integers(2, 10)))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        pts = pts[rng.random(len(pts)) < rng.uniform(0.5, 1.0)]
        if len(pts) >= 3 and np.linalg.matrix_rank(pts[1:] - pts[0]) == 2:
            yield (pts * rng.integers(1, 30) + rng.integers(0, 100, 2)).astype(float)


def border_sets(seed, count, w, h):
    """Integer generators, a third of them on the sides x=0 or y=0, one on (0, 0)."""
    rng = np.random.default_rng(seed)
    yield np.zeros((1, 2))
    for _ in range(count):
        n = int(rng.integers(2, 60))
        pts = rng.integers(0, [w, h], (n, 2))
        pts[: n // 6, 0] = 0
        pts[n // 6: n // 3, 1] = 0
        pts[-1] = 0
        yield pts.astype(float)


def test_golden_corpus_matches_the_sweep_and_flip_triangulation():
    """Triangles and features 18-41 of a fixed tie-free corpus.

    The stored results come from the earlier sweep-plus-Lawson-flip
    triangulation and per-generator half-plane clipping, on the 12 patches
    of synth_dataset(ExperimentConfig(seed=7, slides_per_class=1)).
    """
    g = np.load(GOLDEN)
    offsets = np.concatenate([[0], np.cumsum(g["counts"])])
    tri_offsets = np.concatenate([[0], np.cumsum(g["triangle_counts"])])
    size = float(g["patch_size"])
    for i in range(len(g["counts"])):
        ps = PointSet(g["coords"][offsets[i]:offsets[i + 1]], size, size)
        expected = g["triangles"][tri_offsets[i]:tri_offsets[i + 1]]
        assert delaunay_triangulation(ps).triangles == [tuple(t) for t in expected.tolist()]
        np.testing.assert_allclose(
            patch_feature_vector(ps)[18:42], g["features"][i], rtol=1e-8, atol=0
        )


class TestDelaunay:
    def test_three_points_one_triangle(self):
        tri = delaunay_triangulation(pset([(0, 0), (10, 0), (5, 8)]))
        assert tri.triangles == [(0, 1, 2)]

    def test_unit_square_two_triangles_share_diagonal(self):
        tri = delaunay_triangulation(pset([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert len(tri.triangles) == 2
        shared = set(tri.triangles[0]) & set(tri.triangles[1])
        # the shared edge must be one of the two diagonals
        assert shared in ({0, 2}, {1, 3})
        assert np.allclose(tri.triangle_areas(), [0.5, 0.5])

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            delaunay_triangulation(pset([(0, 0), (1, 1)]))
        with pytest.raises(DegenerateGeometryError):
            delaunay_triangulation(pset([(0, 0), (10, 10), (20, 20), (30, 30)]))

    def test_near_duplicates_merged(self):
        tri = delaunay_triangulation(
            pset([(10, 10), (10 + 2e-7, 10), (50, 10), (30, 40)])
        )
        used = {i for t in tri.triangles for i in t}
        assert 1 not in used          # merged into point 0
        assert len(tri.triangles) == 1

    def test_empty_circumcircle_on_random_sets(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = int(rng.integers(3, 51))
            pts = rng.uniform(0, 768, (n, 2))
            ps = pset(pts)
            tri = delaunay_triangulation(ps)
            assert circumcircle_violations(ps.coords, tri.triangles) == 0

    def test_hull_coverage(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            n = int(rng.integers(3, 60))
            pts = rng.uniform(0, 768, (n, 2))
            ps = pset(pts)
            tri = delaunay_triangulation(ps)
            hull = convex_hull_area(ps.coords)
            assert tri.triangle_areas().sum() == pytest.approx(hull, rel=1e-9)
            assert tri.triangle_areas().min() > 0

    def test_cocircular_grid(self):
        xs, ys = np.meshgrid(np.arange(5), np.arange(5))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1) * 10.0 + 5
        tri = delaunay_triangulation(pset(pts))
        assert circumcircle_violations(pts, tri.triangles) == 0
        assert tri.triangle_areas().sum() == pytest.approx(1600.0)
        assert cocircular_diagonal_violations(pts, tri.triangles) == 0
        for pts in integer_grids(107, 40):
            tri = delaunay_triangulation(pset(pts))
            assert circumcircle_violations(pts, tri.triangles) == 0
            assert cocircular_diagonal_violations(pts, tri.triangles) == 0
            assert tri.triangle_areas().sum() == pytest.approx(convex_hull_area(pts))

    @pytest.mark.parametrize("quad, diagonal", [
        ([(1633, 478), (1638, 513), (1659, 485), (1660, 502)], {(1638, 513), (1659, 485)}),
        ([(228, 625), (249, 632), (258, 645), (258, 665)], {(249, 632), (258, 665)}),
    ])
    def test_cocircular_quad_diagonal_avoids_smallest_point(self, quad, diagonal):
        quad = np.array(quad, dtype=float)
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            pts = quad[perm]
            tri = delaunay_triangulation(pset(pts, 1792, 1792))
            assert len(tri.triangles) == 2
            shared = set(tri.triangles[0]) & set(tri.triangles[1])
            assert {tuple(pts[i]) for i in shared} == diagonal

    def test_permutation_invariance(self):
        def check(pts, perm):
            t1 = delaunay_triangulation(pset(pts))
            t2 = delaunay_triangulation(pset(pts[perm]))
            s1 = {frozenset(map(tuple, pts[list(t)])) for t in t1.triangles}
            s2 = {frozenset(map(tuple, pts[perm][list(t)])) for t in t2.triangles}
            assert s1 == s2
            assert circumcircle_violations(pts, t1.triangles) == 0
            assert cocircular_diagonal_violations(pts, t1.triangles) == 0

        rng = np.random.default_rng(102)
        for _ in range(20):
            n = int(rng.integers(4, 40))
            pts = rng.uniform(0, 768, (n, 2))
            check(pts, rng.permutation(n))
        for pts in integer_grids(108, 30):
            check(pts, rng.permutation(len(pts)))

    def test_clustered_points(self):
        # tight clusters produce near-degenerate hull triangles
        for seed in range(20):
            rng = np.random.default_rng(seed)
            centers = rng.uniform(100, 600, (5, 2))
            pts = np.clip(
                np.vstack([c + rng.normal(0, 0.5, (10, 2)) for c in centers]),
                0, 767.9,
            )
            ps = pset(pts)
            tri = delaunay_triangulation(ps)
            assert circumcircle_violations(ps.coords, tri.triangles) == 0
            assert tri.triangle_areas().sum() == pytest.approx(
                convex_hull_area(ps.coords), rel=1e-9
            )


class TestVoronoi:
    def test_single_point_gets_whole_rectangle(self):
        vc = voronoi_cells(pset([(100, 200)], w=768, h=512))
        assert vc.total_area() == pytest.approx(768 * 512)
        assert len(vc.polygons) == 1

    def test_symmetric_pair_equal_areas(self):
        vc = voronoi_cells(pset([(200, 256), (568, 256)], w=768, h=512))
        areas = vc.areas()
        assert areas[0] == pytest.approx(areas[1])
        assert vc.total_area() == pytest.approx(768 * 512)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            voronoi_cells(pset([]))

    def test_areas_partition_rectangle(self):
        rng = np.random.default_rng(103)
        inputs = [rng.uniform(0, [768, 512], (int(rng.integers(1, 80)), 2)) for _ in range(30)]
        for pts in inputs + list(border_sets(109, 30, 768, 512)):
            vc = voronoi_cells(PointSet(pts, 768, 512))
            assert vc.total_area() == pytest.approx(768 * 512, rel=1e-6)
            assert vc.areas().min() > 0

    def test_cells_contain_their_generators(self):
        rng = np.random.default_rng(104)
        pts = rng.uniform(0, 768, (60, 2))
        vc = voronoi_cells(pset(pts))
        for ci, poly in enumerate(vc.polygons):
            g = pts[vc.generator_index[ci]]
            k = len(poly)
            nxt = poly[(np.arange(k) + 1) % k]
            cross = (nxt[:, 0] - poly[:, 0]) * (g[1] - poly[:, 1]) - (
                nxt[:, 1] - poly[:, 1]
            ) * (g[0] - poly[:, 0])
            assert np.all(cross >= -1e-7)    # inside the CCW polygon

    def test_nearest_generator_matches_containing_cell(self):
        # 10000 sampled pixels: whoever's cell contains the sample must be a
        # nearest generator (ties on bisectors allowed).  The second input has
        # generators on the sides x=0 and y=0 and on the corner (0, 0).
        rng = np.random.default_rng(105)
        uniform = rng.uniform(0, [768, 512], (50, 2))
        border = np.random.default_rng(111).integers(1, [768, 512], (50, 2)).astype(float)
        border[:8, 0] = 0
        border[8:16, 1] = 0
        border[16] = 0
        for pts in (uniform, np.unique(border, axis=0)):
            vc = voronoi_cells(PointSet(pts, 768, 512))
            q = rng.uniform(0, [768, 512], (10000, 2))
            d2 = ((q[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
            nearest = d2.min(axis=1)
            containing_best = np.full(len(q), np.inf)
            for ci, poly in enumerate(vc.polygons):
                k = len(poly)
                a = poly
                b = poly[(np.arange(k) + 1) % k]
                cross = (b[:, 0] - a[:, 0])[None, :] * (q[:, 1][:, None] - a[:, 1][None, :]) - (
                    b[:, 1] - a[:, 1]
                )[None, :] * (q[:, 0][:, None] - a[:, 0][None, :])
                inside = (cross >= -1e-6).all(axis=1)
                dd = ((q - pts[vc.generator_index[ci]]) ** 2).sum(-1)
                containing_best = np.where(
                    inside, np.minimum(containing_best, dd), containing_best
                )
            assert np.all(np.isfinite(containing_best))
            assert np.all(containing_best <= nearest + 1e-6)

    def test_duality_with_delaunay(self):
        # cells sharing a positive-length boundary correspond to Delaunay
        # edges; interior Delaunay edges produce shared boundaries
        rng = np.random.default_rng(106)
        pts = rng.uniform(50, 700, (40, 2))
        ps = pset(pts)
        vc = voronoi_cells(ps)
        de = set(delaunay_triangulation(ps).edge_set())

        def shared_len(i, j):
            mid = (pts[i] + pts[j]) / 2
            nvec = pts[j] - pts[i]
            nn = np.linalg.norm(nvec)
            on_i = vc.polygons[i][np.abs((vc.polygons[i] - mid) @ nvec) / nn < 1e-6]
            on_j = vc.polygons[j][np.abs((vc.polygons[j] - mid) @ nvec) / nn < 1e-6]
            if len(on_i) < 2 or len(on_j) < 2:
                return 0.0
            t = np.array([-nvec[1], nvec[0]]) / nn
            ti, tj = np.sort(on_i @ t), np.sort(on_j @ t)
            return min(ti[-1], tj[-1]) - max(ti[0], tj[0])

        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if shared_len(i, j) > 1e-6:
                    assert (i, j) in de

        def touches_border(P):
            return bool(
                np.any(
                    (np.abs(P[:, 0]) < 1e-9)
                    | (np.abs(P[:, 0] - 768) < 1e-9)
                    | (np.abs(P[:, 1]) < 1e-9)
                    | (np.abs(P[:, 1] - 768) < 1e-9)
                )
            )

        for i, j in de:
            if touches_border(vc.polygons[i]) or touches_border(vc.polygons[j]):
                continue
            assert shared_len(i, j) > 1e-6
