import numpy as np
import pytest

from wsigraph.features import cell_graph_features
from wsigraph.graph import (
    UndirectedGraph,
    build_radius_graph,
    canonical_edges,
    clustering_coefficients,
    connected_components,
    hop_distance_matrix,
    minimum_spanning_tree,
    symmetric_eigenvalues,
)
from wsigraph.points import PointSet

from oracles import exhaustive_mst_weight, floyd_warshall_hops, jacobi_eigenvalues


def pset(points, w=768, h=768):
    return PointSet(np.asarray(points, dtype=float), w, h)


def random_graph(rng, n, p=0.2):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, 1.0))
    return UndirectedGraph(n, edges)


class TestPointSet:
    def test_dedup_keeps_first_occurrence(self):
        ps = pset([(5, 5), (1, 2), (5, 5), (3, 4)])
        assert len(ps) == 3
        assert ps.coords[0].tolist() == [5, 5]

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            pset([(768, 10)])
        with pytest.raises(ValueError):
            pset([(-1, 10)])

    def test_empty_ok(self):
        assert len(pset([])) == 0


class TestRadiusGraph:
    def test_pair_below_threshold(self):
        g = build_radius_graph(pset([(0, 0), (10, 0)]), 64)
        assert g.edges == [(0, 1, 10.0)]

    def test_strict_inequality_at_threshold(self):
        g = build_radius_graph(pset([(0, 0), (64, 0)]), 64)
        assert g.edges == []

    def test_three_four_five_triangle(self):
        g = build_radius_graph(pset([(0, 0), (30, 0), (30, 40)]), 64)
        assert g.edge_count == 3

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            build_radius_graph(pset([(0, 0)]), 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 768, (30, 2))
        perm = rng.permutation(30)
        g1 = build_radius_graph(pset(pts), 80)
        g2 = build_radius_graph(pset(pts[perm]), 80)
        inv = np.argsort(perm)
        remapped = sorted(
            (min(inv[u], inv[v]), max(inv[u], inv[v]), w) for u, v, w in g1.edges
        )
        assert remapped == g2.edges

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pts = rng.uniform(0, 768, (rng.integers(0, 40), 2))
            g = build_radius_graph(pset(pts), 100)
            assert g.degrees().sum() == 2 * g.edge_count


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            UndirectedGraph(3, [(1, 1, 1.0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            UndirectedGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            UndirectedGraph(2, [(0, 2, 1.0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative weight on edge \\(0, 1\\)"):
            UndirectedGraph(2, [(1, 0, -1.0)])


class TestCanonicalEdges:
    def test_orients_and_sorts(self):
        u, v, w = canonical_edges(4, [(3, 1, 0.5), (0, 2, 1.5), (1, 0, 2.5)])
        assert (u.tolist(), v.tolist(), w.tolist()) == (
            [0, 0, 1], [1, 2, 3], [2.5, 1.5, 0.5])

    def test_array_and_triples_agree(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 20, p=0.3)
        triples = g.edges[::-1]
        for a, b in zip(canonical_edges(20, triples), canonical_edges(20, np.array(triples))):
            assert np.array_equal(a, b)

    def test_empty(self):
        for edges in ([], np.zeros((0, 3))):
            u, v, w = canonical_edges(3, edges)
            assert len(u) == len(v) == len(w) == 0
            assert u.dtype == np.int64 and w.dtype == np.float64

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 1.0), (2, 2, 1.0)], "self-loop at node 2"),
        ([(0, 3, 1.0)], r"edge \(0, 3\) out of range for 3 nodes"),
        ([(-1, 1, 1.0)], r"edge \(-1, 1\) out of range for 3 nodes"),
        ([(0, 1, 1.0), (2, 1, 1.0), (1, 0, 2.0)], r"duplicate edge \(0, 1\)"),
        ([(0, 1)], "triples"),
    ])
    def test_rejections_name_the_edge(self, edges, message):
        with pytest.raises(ValueError, match=message):
            canonical_edges(3, edges)

    def test_negative_weights_pass_through(self):
        assert canonical_edges(2, [(0, 1, -0.5)])[2].tolist() == [-0.5]


class TestComponentsAndDistances:
    def test_single_edge_one_component(self):
        assert connected_components(UndirectedGraph(2, [(0, 1, 1)])).tolist() == [0, 0]

    def test_no_edges_all_singletons(self):
        assert connected_components(UndirectedGraph(3, [])).tolist() == [0, 1, 2]

    def test_five_nodes_three_components(self):
        g = UndirectedGraph(5, [(0, 1, 1), (2, 3, 1)])
        labels = connected_components(g)
        assert len(set(labels.tolist())) == 3

    def test_labels_in_order_of_first_appearance(self):
        g = UndirectedGraph(7, [(1, 4, 1), (0, 5, 1), (3, 2, 1), (5, 6, 1)])
        assert connected_components(g).tolist() == [0, 1, 2, 2, 1, 0, 0]

    # hop distances from one source are a row of hop_distance_matrix
    def test_bfs_path(self):
        g = UndirectedGraph(3, [(0, 1, 1), (1, 2, 1)])
        assert hop_distance_matrix(g)[0].tolist() == [0, 1, 2]

    def test_bfs_unreachable_is_inf(self):
        d = hop_distance_matrix(UndirectedGraph(2, []))[0]
        assert d[0] == 0 and np.isinf(d[1])

    def test_bfs_cycle(self):
        g = UndirectedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert hop_distance_matrix(g)[0].tolist() == [0, 1, 2, 1]

    # eccentricities reach the features as their mean, max (diameter) and
    # min over non-isolated nodes (radius): features 4, 5 and 6
    def test_eccentricities_path(self):
        g = UndirectedGraph(3, [(0, 1, 1), (1, 2, 1)])
        f = cell_graph_features(g)
        assert (f[4], f[5], f[6]) == (5 / 3, 2, 1)

    def test_eccentricity_single_node(self):
        f = cell_graph_features(UndirectedGraph(1, []))
        assert (f[4], f[5], f[6]) == (0, 0, 0)

    def test_random_graphs_match_floyd_warshall(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 41))
            g = random_graph(rng, n, p=0.15)
            d = hop_distance_matrix(g)
            ref = floyd_warshall_hops(g.adjacency_matrix().astype(bool))
            assert np.array_equal(d, ref)
            f = cell_graph_features(g)
            ecc_ref = np.where(np.isfinite(ref), ref, 0.0).max(axis=1)
            assert f[4] == ecc_ref.mean() and f[5] == ecc_ref.max()

    def test_radius_diameter_bound_within_components(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 30)), p=0.3)
            labels = connected_components(g)
            d = hop_distance_matrix(g)
            ecc = np.where(np.isfinite(d), d, 0.0).max(axis=1)
            for c in set(labels.tolist()):
                comp = np.nonzero(labels == c)[0]
                if len(comp) < 2:
                    continue
                rad, diam = ecc[comp].min(), ecc[comp].max()
                assert rad <= diam <= 2 * rad


class TestClustering:
    def test_triangle(self):
        g = UndirectedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert clustering_coefficients(g).tolist() == [1, 1, 1]

    def test_path(self):
        g = UndirectedGraph(3, [(0, 1, 1), (1, 2, 1)])
        assert clustering_coefficients(g).tolist() == [0, 0, 0]

    def test_k4_minus_edge_mean(self):
        edges = [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
        g = UndirectedGraph(4, edges)
        assert clustering_coefficients(g).mean() == pytest.approx(5 / 6)

    def test_matches_triangle_enumeration(self):
        from oracles import triangle_counts

        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            g = random_graph(rng, n, p=0.3)
            es = set()
            for u, v, _ in g.edges:
                es.add((u, v))
                es.add((v, u))
            t = triangle_counts(n, es)
            deg = g.degrees()
            expected = np.where(deg >= 2, 2 * t / np.maximum(deg * (deg - 1), 1), 0.0)
            got = clustering_coefficients(g)
            assert np.allclose(got, expected, atol=0)
            assert np.all((got >= 0) & (got <= 1))


    def test_equals_single_division_of_triangle_counts(self):
        """The sparse (A @ A) * A row sums are exact, so the result is bitwise
        the one division 2 t(v) / (deg(v) (deg(v) - 1))."""
        from oracles import triangle_counts

        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            g = random_graph(rng, n, p=0.4)
            es = {(u, v) for u, v, _ in g.edges} | {(v, u) for u, v, _ in g.edges}
            links = 2 * triangle_counts(n, es)
            deg = g.degrees()
            expected = [links[i] / (deg[i] * (deg[i] - 1)) if deg[i] >= 2 else 0.0
                        for i in range(n)]
            assert clustering_coefficients(g).tolist() == expected


class TestMinimumSpanningTree:
    def test_unit_square(self):
        tree = minimum_spanning_tree(pset([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert tree.edge_count == 3
        assert tree.total_weight() == pytest.approx(3.0)

    def test_collinear_points(self):
        tree = minimum_spanning_tree(pset([(0, 0), (1, 0), (3, 0)]))
        assert sorted(w for _, _, w in tree.edges) == [1.0, 2.0]

    def test_small_cases(self):
        assert minimum_spanning_tree(pset([])).edge_count == 0
        assert minimum_spanning_tree(pset([(1, 1)])).edge_count == 0
        two = minimum_spanning_tree(pset([(0, 0), (3, 4)]))
        assert two.total_weight() == pytest.approx(5.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            pts = rng.uniform(0, 700, (n, 2))
            tree = minimum_spanning_tree(pset(pts))
            assert tree.edge_count == n - 1
            assert tree.total_weight() == pytest.approx(
                exhaustive_mst_weight(pts), rel=1e-12
            )

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(200, 500, (25, 2))
        w0 = minimum_spanning_tree(pset(pts)).total_weight()
        ang = 0.7
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = (pts - pts.mean(0)) @ rot.T + pts.mean(0) + np.array([20.0, -15.0])
        w1 = minimum_spanning_tree(pset(moved)).total_weight()
        assert w1 == pytest.approx(w0, rel=1e-9)


class TestSymmetricEigenvalues:
    def test_zero_matrix(self):
        assert symmetric_eigenvalues(np.zeros((3, 3))).tolist() == [0, 0, 0]

    def test_single_edge_spectrum(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(symmetric_eigenvalues(a), [-1, 1])

    def test_k3_spectrum(self):
        a = np.ones((3, 3)) - np.eye(3)
        assert np.allclose(symmetric_eigenvalues(a), [-1, -1, 2], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            m = rng.normal(0, 1, (n, n))
            m = (m + m.T) / 2
            assert np.allclose(
                symmetric_eigenvalues(m), jacobi_eigenvalues(m), atol=1e-9
            )

    def test_trace_and_count_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 20))
            m = rng.normal(0, 2, (n, n))
            m = (m + m.T) / 2
            eig = symmetric_eigenvalues(m)
            assert len(eig) == n
            assert eig.sum() == pytest.approx(np.trace(m), rel=1e-8, abs=1e-8)
            assert np.all(np.diff(eig) >= 0)

    def test_residual_bound(self):
        # every reported eigenvalue is within 1e-8*|M| of a true one, checked
        # via the smallest singular value of (M - lambda I)
        rng = np.random.default_rng(14)
        m = rng.normal(0, 1, (8, 8))
        m = (m + m.T) / 2
        norm = np.linalg.norm(m, 2)
        for lam in symmetric_eigenvalues(m):
            smin = np.linalg.svd(m - lam * np.eye(8), compute_uv=False).min()
            assert smin <= 1e-8 * norm
