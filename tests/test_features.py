from pathlib import Path

import numpy as np
import pytest

from wsigraph.features import (
    FEATURE_NAMES,
    TRANSLATION_INVARIANT_INDICES,
    cell_graph_features,
    delaunay_features,
    density_features,
    mst_features,
    patch_feature_vector,
    stat_summary,
    voronoi_features,
)
from wsigraph.graph import UndirectedGraph, minimum_spanning_tree
from wsigraph.points import PointSet
from wsigraph.tessellation import delaunay_triangulation, voronoi_cells

from oracles import floyd_warshall_hops, jacobi_eigenvalues, triangle_counts


GOLDEN = Path(__file__).parent / "data" / "graph_features_golden.npz"


def pset(points, w=768, h=768):
    return PointSet(np.asarray(points, dtype=float), w, h)


def test_golden_corpus_matches_the_tuple_list_graph_layer():
    """Features 0-17 and 38-68 of a fixed corpus.

    The stored values come from the earlier graph layer (Python edge tuples,
    BFS/DFS loops, union-find Kruskal, dense distance matrices).  The corpus
    is the 12 patches of synth_dataset(ExperimentConfig(seed=7,
    slides_per_class=1)), a 3-4-5 integer set with pairs at exactly d_p = 64
    and at exactly each density radius, three random integer-pixel sets
    with many tied distances, a collinear set (complete-graph MST fallback)
    and sets of 1, 2 and 3 points.
    """
    g = np.load(GOLDEN)
    offsets = np.concatenate([[0], np.cumsum(g["counts"])])
    size = float(g["patch_size"])
    for i in range(len(g["counts"])):
        ps = PointSet(g["coords"][offsets[i]:offsets[i + 1]], size, size)
        np.testing.assert_allclose(
            patch_feature_vector(ps)[g["feature_indices"]], g["features"][i],
            rtol=1e-12, atol=0,
        )


class TestStatSummary:
    def test_constant_sample(self):
        assert stat_summary([2, 2, 2]).tolist() == [2, 0, 1, 0]

    def test_empty(self):
        assert stat_summary([]).tolist() == [0, 0, 0, 0]

    def test_two_values(self):
        mean, sd, min_max_ratio, disorder = stat_summary([1, 3])
        assert mean == pytest.approx(2)
        assert sd == pytest.approx(1)          # population SD
        assert min_max_ratio == pytest.approx(1 / 3)
        assert disorder == pytest.approx(1 / 3)

    def test_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            _, sd, min_max_ratio, disorder = stat_summary(rng.uniform(0, 100, rng.integers(1, 30)))
            assert 0 <= disorder < 1
            assert 0 <= min_max_ratio <= 1
            assert sd >= 0


class TestCellGraphFeatures:
    def test_two_node_graph_by_hand(self):
        g = UndirectedGraph(2, [(0, 1, 1.0)])
        f = cell_graph_features(g)
        # avg deg, clustering, giant ratio, #cc, ecc mean, diameter, radius,
        # apl, central count, central pct, n, |E|, lambda_max, trace, energy,
        # lower slope, upper slope, laplacian trace
        expected = [1, 0, 1, 1, 1, 1, 1, 1, 2, 100, 2, 1, 1, 0, 2, 0, 0, 2]
        assert np.allclose(f, expected, atol=1e-12)

    def test_empty_graph_all_zero(self):
        assert cell_graph_features(UndirectedGraph(0, [])).tolist() == [0.0] * 18

    def test_isolated_nodes_conventions(self):
        # radius comes from non-isolated nodes; isolated ones are not central
        g = UndirectedGraph(3, [(0, 1, 1.0)])
        f = cell_graph_features(g)
        assert f[5] == 1        # diameter
        assert f[6] == 1        # radius ignores the isolated node
        assert f[8] == 2        # central points
        assert f[3] == 2        # components

    def test_distance_and_spectral_features_match_oracles(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 41))
            edges = [
                (i, j, 1.0)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.15
            ]
            g = UndirectedGraph(n, edges)
            f = cell_graph_features(g)

            adj = g.adjacency_matrix().astype(bool)
            d = floyd_warshall_hops(adj)
            finite = np.isfinite(d)
            ecc = np.where(finite, d, 0.0).max(axis=1)
            deg = adj.sum(axis=1)
            diameter = ecc.max()
            radius = ecc[deg > 0].min() if (deg > 0).any() else 0.0
            off = finite & ~np.eye(n, dtype=bool)
            apl = d[off].mean() if off.any() else 0.0
            central = int((ecc == radius).sum())

            assert f[4] == ecc.mean()
            assert f[5] == diameter
            assert f[6] == radius
            assert f[7] == apl
            assert f[8] == central
            assert f[9] == 100.0 * central / n
            assert f[10] == n and f[11] == len(edges)

            es = set()
            for u, v, _ in edges:
                es.add((u, v))
                es.add((v, u))
            t = triangle_counts(n, es)
            cc = np.where(deg >= 2, 2 * t / np.maximum(deg * (deg - 1), 1), 0.0)
            assert f[1] == pytest.approx(cc.mean(), abs=0)

            eig = jacobi_eigenvalues(g.adjacency_matrix())
            assert f[12] == pytest.approx(eig[-1], abs=1e-8)
            assert f[14] == pytest.approx(np.abs(eig).sum(), abs=1e-8)
            assert f[13] == 0.0
            assert f[17] == deg.sum()


class TestTessellationFeatures:
    def test_voronoi_one_point(self):
        cells = voronoi_cells(pset([(300, 300)], w=700, h=500))
        f = voronoi_features(cells)
        assert f[0] == pytest.approx(700 * 500)       # area mean
        assert f[8] == pytest.approx(2 * (700 + 500))  # perimeter mean

    def test_voronoi_symmetric_square(self):
        pts = [(192, 192), (576, 192), (192, 576), (576, 576)]
        f = voronoi_features(voronoi_cells(pset(pts)))
        assert f[2] == pytest.approx(1.0)   # area min/max ratio
        assert f[3] == pytest.approx(0.0)   # area disorder

    def test_voronoi_none_is_zero(self):
        assert voronoi_features(None).tolist() == [0.0] * 12

    def test_delaunay_equilateral(self):
        s = 100.0
        pts = [(100, 100), (100 + s, 100), (100 + s / 2, 100 + s * np.sqrt(3) / 2)]
        f = delaunay_features(delaunay_triangulation(pset(pts)))
        assert f[0] == pytest.approx(s)     # side mean
        assert f[1] == pytest.approx(0, abs=1e-9)
        assert f[2] == pytest.approx(1)
        assert f[3] == pytest.approx(0, abs=1e-12)

    def test_delaunay_square_area_stats(self):
        f = delaunay_features(
            delaunay_triangulation(pset([(0, 0), (1, 0), (1, 1), (0, 1)]))
        )
        assert f[4] == pytest.approx(0.5)   # area mean
        assert f[7] == pytest.approx(0.0)   # area disorder

    def test_delaunay_none_is_zero(self):
        assert delaunay_features(None).tolist() == [0.0] * 8

    def test_mst_square_and_collinear(self):
        f = mst_features(minimum_spanning_tree(pset([(0, 0), (1, 0), (1, 1), (0, 1)])))
        assert f[0] == pytest.approx(1.0) and f[1] == pytest.approx(0.0)
        f2 = mst_features(minimum_spanning_tree(pset([(0, 0), (1, 0), (3, 0)])))
        assert f2[0] == pytest.approx(1.5)
        assert f2[2] == pytest.approx(0.5)
        assert mst_features(minimum_spanning_tree(pset([(5, 5)]))).tolist() == [0.0] * 4


class TestDensityFeatures:
    def test_single_point(self):
        f = density_features(pset([(100, 100)]))
        assert f[1] == 1
        assert f[0] == pytest.approx(768 * 768)
        assert np.all(f[3:] == 0)           # all k-NN and radius blocks empty

    def test_knn_against_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            pts = rng.uniform(0, 768, (n, 2))
            f = density_features(pset(pts))
            d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
            pos = 3
            for k in (3, 5, 7):
                if n > k:
                    kd = np.array([sorted(d[i])[k] for i in range(n)])
                    assert f[pos] == pytest.approx(kd.mean())
                    assert f[pos + 1] == pytest.approx(kd.std())
                else:
                    assert np.all(f[pos:pos + 3] == 0)
                pos += 3

    def test_radius_counts_small_grid_sd_zero(self):
        # a 7x7 unit grid has max diameter < 10, so every point counts all
        # others within r=10 and the SD is exactly 0
        xs, ys = np.meshgrid(np.arange(7), np.arange(7))
        pts = np.stack([xs.ravel(), ys.ravel()], 1) + 100.0
        f = density_features(pset(pts))
        names_base = 3 + 9
        assert f[names_base] == pytest.approx(48.0)    # r=10 mean count
        assert f[names_base + 1] == 0.0                # r=10 SD

    def test_radius_counts_full_grid_against_counting(self):
        xs, ys = np.meshgrid(np.arange(10), np.arange(10))
        pts = np.stack([xs.ravel(), ys.ravel()], 1) * 1.0 + 50
        f = density_features(pset(pts))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        pos = 3 + 9
        for r in (10, 20, 30, 40, 50):
            counts = (d <= r).sum(axis=1) - 1
            assert f[pos] == pytest.approx(counts.mean())
            assert f[pos + 1] == pytest.approx(counts.std())
            pos += 3


class TestPatchFeatureVector:
    def test_names_cover_layout(self):
        assert len(FEATURE_NAMES) == 69
        assert FEATURE_NAMES[0] == "cg_avg_degree"
        assert FEATURE_NAMES[18].startswith("vor_")
        assert FEATURE_NAMES[30].startswith("del_")
        assert FEATURE_NAMES[38].startswith("mst_")
        assert FEATURE_NAMES[42].startswith("nn_")

    def test_length_always_69(self):
        rng = np.random.default_rng(1)
        for n in (0, 1, 2, 3, 10):
            pts = rng.uniform(0, 768, (n, 2))
            assert patch_feature_vector(pset(pts)).shape == (69,)

    def test_empty_is_all_zero(self):
        assert patch_feature_vector(pset([])).tolist() == [0.0] * 69

    def test_degenerate_inputs_finite(self):
        cases = [
            [],
            [(5, 5)],
            [(5, 5), (700, 700)],
            [(1, 1), (100, 100), (200, 200), (470, 470)],   # collinear
            [(3, 3), (3 + 1e-8, 3), (50, 60)],              # near duplicates
        ]
        for pts in cases:
            v = patch_feature_vector(pset(pts))
            assert np.all(np.isfinite(v))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 768, (40, 2))
        v1 = patch_feature_vector(pset(pts))
        v2 = patch_feature_vector(pset(pts[rng.permutation(40)]))
        assert np.allclose(v1, v2, rtol=1e-9, atol=1e-9)

    def test_translation_invariant_indices(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(100, 500, (35, 2))
        v1 = patch_feature_vector(pset(pts))
        v2 = patch_feature_vector(pset(pts + np.array([137.0, 91.0])))
        idx = list(TRANSLATION_INVARIANT_INDICES)
        assert np.allclose(v1[idx], v2[idx], rtol=1e-9, atol=1e-9)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 768, (50, 2))
        v1 = patch_feature_vector(pset(pts))
        v2 = patch_feature_vector(pset(pts.copy()))
        assert np.array_equal(v1, v2)

    def test_bounded_entries(self):
        rng = np.random.default_rng(5)
        disorder_ratio_idx = [
            i for i, n in enumerate(FEATURE_NAMES)
            if n.endswith(("disorder", "minmax"))
        ]
        for _ in range(20):
            pts = rng.uniform(0, 768, (rng.integers(0, 60), 2))
            v = patch_feature_vector(pset(pts))
            assert np.all(v[disorder_ratio_idx] >= 0)
            assert np.all(v[disorder_ratio_idx] <= 1)
