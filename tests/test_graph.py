import re

import numpy as np
import pytest
from scipy.sparse import csgraph

from wsigraph import blas, graph
from wsigraph.errors import ValidationError
from wsigraph.features import cell_graph_features
from wsigraph.graph import (
    UndirectedGraph,
    adjacency_eigenvalues,
    build_radius_graph,
    canonical_edges,
    clustering_coefficients,
    hop_statistics,
    minimum_spanning_tree,
)
from wsigraph.points import PointSet, greedy_merge

from oracles import exhaustive_mst_weight, floyd_warshall_hops, jacobi_eigenvalues


def pset(points, w=768, h=768):
    return PointSet(np.asarray(points, dtype=float), w, h)


def strip_graph(seed, n, gap=False):
    """Radius graph (d_p = 64) of n uniform points on a 4000 x 400 px strip.

    Reverse Cuthill-McKee numbers such a graph along the strip, with a
    bandwidth of 40-60, under BANDED_MAX_WIDTH_RATIO * n for n >= 1000.
    With `gap`, no point falls in x in [1800, 2200] except three isolated
    ones, so the graph has two large components and isolated nodes.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform((0.0, 0.0), (4000.0, 400.0), (n, 2))
    if gap:
        pts = pts[(pts[:, 0] < 1800) | (pts[:, 0] >= 2200)]
        pts = np.vstack([pts, [(2000.0, 50.0), (2000.0, 200.0), (2000.0, 350.0)]])
    return build_radius_graph(pset(pts, 4000, 400), 64.0)


def triples(g):
    """The edges of `g` as (u, v, weight) tuples, sorted by (u, v)."""
    return list(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))


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

    @pytest.mark.parametrize("width, height", [
        (0, 768), (768, -1.0), (np.inf, 768), (768, np.nan), (1e308, 1e308), (2**31, 768)])
    def test_patch_sides_are_positive_and_in_the_int32_range(self, width, height):
        with pytest.raises(ValidationError, match=re.escape(
                f"patch size {width}x{height} is not positive and at most 2147483647 px")):
            PointSet(np.zeros((0, 2)), width, height)


def brute_force_greedy(xy, radius):
    """Greedy merge by definition: in index order, keep a point unless a kept
    point is strictly closer than radius."""
    kept = []
    for i, (x, y) in enumerate(xy.tolist()):
        if all((x - kx) * (x - kx) + (y - ky) * (y - ky) >= radius * radius
               for kx, ky in xy[kept].tolist()):
            kept.append(i)
    return np.array(kept, dtype=np.intp)


class TestGreedyMerge:
    """points.greedy_merge, behind detection and both tessellations."""

    @staticmethod
    def check(xy, radius):
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        got = greedy_merge(xy, radius)
        assert got.dtype == np.intp and np.array_equal(got, brute_force_greedy(xy, radius))
        return got.tolist()

    def test_empty_and_single(self):
        assert self.check([], 1.0) == []
        assert self.check([(3.0, 4.0)], 1.0) == [0]

    def test_exact_duplicates_keep_the_first(self):
        assert self.check([(1, 1), (5, 5), (1, 1), (5, 5), (1, 1)], 1e-6) == [0, 1]

    def test_pair_at_exactly_the_radius_is_kept(self):
        assert self.check([(0, 0), (3, 4), (-4, 3), (2, 2)], 5.0) == [0, 1, 2]
        # on an integer grid every axis neighbour lies at exactly the radius
        grid = np.stack(np.meshgrid(np.arange(6), np.arange(6)), axis=-1).reshape(-1, 2)
        assert self.check(grid * 2.0, 2.0) == list(range(36))

    def test_dropped_point_does_not_suppress(self):
        # 1 is within the radius of 0 and of 2; 0 drops 1, so 2 (1.2 from 0) stays
        assert self.check([(0, 0), (0.6, 0), (1.2, 0)], 1.0) == [0, 2]
        # along a chain of drops and keeps every other point survives
        chain = np.column_stack([np.arange(10) * 0.6, np.zeros(10)])
        assert self.check(chain, 1.0) == list(range(0, 10, 2))
        # the order decides: walked from the middle, the middle point is kept
        assert self.check([(0.6, 0), (0, 0), (1.2, 0)], 1.0) == [0]

    def test_seeded_clusters_match_brute_force(self):
        rng = np.random.default_rng(17)
        merged = 0
        for _ in range(60):
            radius = float(rng.choice([1e-6, 1.0, 8.0]))
            centres = rng.uniform(0, 200, (int(rng.integers(1, 8)), 2))
            pts = centres[rng.integers(len(centres), size=int(rng.integers(1, 60)))]
            # three in ten stay on their centre, exact duplicates of each other
            pts = pts + rng.normal(0, radius, pts.shape) * (rng.random((len(pts), 1)) < 0.7)
            pts = np.vstack([pts, pts[rng.integers(len(pts), size=5)]])
            kept = self.check(rng.permutation(pts), radius)
            merged += len(pts) - len(kept)
        assert merged > 100


class TestRadiusGraph:
    def test_pair_below_threshold(self):
        g = build_radius_graph(pset([(0, 0), (10, 0)]), 64)
        assert triples(g) == [(0, 1, 10.0)]

    def test_strict_inequality_at_threshold(self):
        g = build_radius_graph(pset([(0, 0), (64, 0)]), 64)
        assert triples(g) == []

    def test_three_four_five_triangle(self):
        g = build_radius_graph(pset([(0, 0), (30, 0), (30, 40)]), 64)
        assert g.edge_count == 3

    def test_rejects_nonpositive_radius(self):
        # NaN and infinity too: they would give edgeless and complete graphs
        for d_p in (0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="d_p must be a finite positive number"):
                build_radius_graph(pset([(0, 0), (10, 0)]), d_p)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 768, (30, 2))
        perm = rng.permutation(30)
        g1 = build_radius_graph(pset(pts), 80)
        g2 = build_radius_graph(pset(pts[perm]), 80)
        inv = np.argsort(perm)
        remapped = sorted(
            (min(inv[u], inv[v]), max(inv[u], inv[v]), w) for u, v, w in triples(g1)
        )
        assert remapped == triples(g2)

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
        edges = triples(g)[::-1]
        for a, b in zip(canonical_edges(20, edges), canonical_edges(20, np.array(edges))):
            assert np.array_equal(a, b)

    def test_empty(self):
        for edges in ([], np.zeros((0, 3))):
            u, v, w = canonical_edges(3, edges)
            assert len(u) == len(v) == len(w) == 0
            assert u.dtype == np.int32 and w.dtype == np.float64

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

    def test_upper_triangle_edges_are_the_canonical_edges(self):
        rng = np.random.default_rng(5)
        mask = rng.random((9, 9)) < 0.5          # the lower triangle and diagonal are ignored
        weights = rng.normal(0.0, 1.0, (9, 9))
        want = canonical_edges(9, [(j, i, weights[i, j])
                                   for i in range(9) for j in range(i + 1, 9) if mask[i, j]][::-1])
        for got, ref in zip(graph.upper_triangle_edges(mask, weights), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert [len(a) for a in graph.upper_triangle_edges(np.zeros((3, 3), bool), weights[:3, :3])] \
            == [0, 0, 0]
        weights[0, 1] = np.nan
        mask[0, 1] = True
        with pytest.raises(ValueError, match=r"non-finite weight on edge \(0, 1\)"):
            graph.upper_triangle_edges(mask, weights)

    def test_negative_weights_pass_through(self):
        assert canonical_edges(2, [(0, 1, -0.5)])[2].tolist() == [-0.5]

    @pytest.mark.parametrize("edges", [[(2, 0, 1.0), (1, 2, 0.5)],
                                       np.array([[2, 0, 1.0], [1, 2, 0.5]]),
                                       [], np.zeros((0, 3))])
    def test_ends_are_int32(self, edges):
        u, v, w = canonical_edges(3, edges)
        assert (u.dtype, v.dtype, w.dtype) == (np.int32, np.int32, np.float64)

    def test_rejects_nodes_past_int32(self):
        canonical_edges(2**31 - 1, [])
        with pytest.raises(ValueError, match="int32"):
            canonical_edges(2**31, [])


def component_labels(g):
    return csgraph.connected_components(g.csr, directed=False)[1]


class TestComponentsAndDistances:
    # cell_graph_features 2 and 3 are the giant component's share of the
    # nodes and the component count
    def test_single_edge_one_component(self):
        assert cell_graph_features(UndirectedGraph(2, [(0, 1, 1)]))[2:4].tolist() == [1.0, 1.0]

    def test_no_edges_all_singletons(self):
        assert cell_graph_features(UndirectedGraph(3, []))[2:4].tolist() == [1 / 3, 3.0]

    def test_five_nodes_three_components(self):
        g = UndirectedGraph(5, [(0, 1, 1), (2, 3, 1)])
        assert cell_graph_features(g)[2:4].tolist() == [2 / 5, 3.0]

    def test_component_features_match_csgraph(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 120))
            side = rng.uniform(50, 1500)
            g = build_radius_graph(pset(rng.uniform(0, side, (n, 2)), side, side), 64.0)
            sizes = np.bincount(component_labels(g))
            assert cell_graph_features(g)[2:4].tolist() == [sizes.max() / n, len(sizes)]

    # hop_statistics gives, per node, the largest hop distance, the sum of hop
    # distances and the number of nodes reached (itself included)
    def test_bfs_path(self):
        g = UndirectedGraph(3, [(0, 1, 1), (1, 2, 1)])
        ecc, dist_sum, reached = hop_statistics(g)
        assert (ecc.tolist(), dist_sum.tolist(), reached.tolist()) == (
            [2, 1, 2], [3, 2, 3], [3, 3, 3])

    def test_bfs_unreachable_is_inf(self):
        """Unreachable nodes count neither in the distances nor in the reach."""
        ecc, dist_sum, reached = hop_statistics(UndirectedGraph(2, []))
        assert (ecc.tolist(), dist_sum.tolist(), reached.tolist()) == (
            [0, 0], [0, 0], [1, 1])

    def test_bfs_cycle(self):
        g = UndirectedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        ecc, dist_sum, reached = hop_statistics(g)
        assert (ecc.tolist(), dist_sum.tolist(), reached.tolist()) == (
            [2] * 4, [4] * 4, [4] * 4)

    def test_returns_int64_per_node(self):
        for n in (0, 5):
            for a in hop_statistics(UndirectedGraph(n, [])):
                assert a.dtype == np.int64 and a.shape == (n,)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_word_boundaries_edge_free(self, n):
        ecc, dist_sum, reached = hop_statistics(UndirectedGraph(n, []))
        assert not ecc.any() and not dist_sum.any()
        assert reached.tolist() == [1] * n

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
    def test_word_boundaries_path(self, n):
        """A path across the bitset word boundaries: d(v, s) = |v - s|."""
        g = UndirectedGraph(n, [(i, i + 1, 1) for i in range(n - 1)])
        v = np.arange(n)
        ecc, dist_sum, reached = hop_statistics(g)
        assert ecc.tolist() == np.maximum(v, n - 1 - v).tolist()
        assert dist_sum.tolist() == (v * (v + 1) // 2 + (n - 1 - v) * (n - v) // 2).tolist()
        assert reached.tolist() == [n] * n

    def test_isolated_nodes_between_non_empty_rows(self):
        """Degree-0 rows sit between neighbour lists, including at both ends
        and around the 64-node word boundary."""
        n = 130
        edges = [(1, 2, 1), (2, 4, 1), (62, 66, 1), (66, 128, 1)]
        g = UndirectedGraph(n, edges)
        ecc, dist_sum, reached = hop_statistics(g)
        ref = floyd_warshall_hops(g.adjacency_matrix().astype(bool))
        finite = np.isfinite(ref)
        hops = np.where(finite, ref, 0.0)
        assert ecc.tolist() == hops.max(axis=1).tolist()
        assert dist_sum.tolist() == hops.sum(axis=1).tolist()
        assert reached.tolist() == finite.sum(axis=1).tolist()
        assert (ecc[[0, 3, 64, 129]] == 0).all() and (reached[[0, 3, 64, 129]] == 1).all()
        assert (ecc[1], dist_sum[1], reached[1]) == (2, 3, 3)

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
        graphs = []
        for _ in range(40):
            n = int(rng.integers(1, 41))
            graphs.append(random_graph(rng, n, p=0.15))
        # sparse graphs across the bitset word boundaries: long paths, several
        # components and isolated nodes
        graphs += [random_graph(rng, n, p=2.0 / n) for n in (63, 64, 65, 130)]
        for g in graphs:
            n = g.node_count
            ref = floyd_warshall_hops(g.adjacency_matrix().astype(bool))
            finite = np.isfinite(ref)
            hops = np.where(finite, ref, 0.0)
            ecc, dist_sum, reached = hop_statistics(g)
            assert np.array_equal(ecc, hops.max(axis=1))
            assert np.array_equal(dist_sum, hops.sum(axis=1))
            assert np.array_equal(reached, finite.sum(axis=1))
            f = cell_graph_features(g)
            assert f[4] == hops.max(axis=1).mean() and f[5] == hops.max()
            off = finite & ~np.eye(n, dtype=bool)
            assert f[7] == (ref[off].mean() if off.any() else 0.0)

    def test_radius_diameter_bound_within_components(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(2, 30)), p=0.3)
            labels = component_labels(g)
            ecc = hop_statistics(g)[0]
            for c in set(labels.tolist()):
                comp = np.nonzero(labels == c)[0]
                if len(comp) < 2:
                    continue
                rad, diam = ecc[comp].min(), ecc[comp].max()
                assert rad <= diam <= 2 * rad

    def test_large_graph_matches_csgraph_shortest_paths(self):
        """~1500 nodes, so ~24 words per bitset row and nodes of many degrees,
        in two large components and a few isolated nodes."""
        g = strip_graph(3, 1650, gap=True)
        sizes = np.bincount(component_labels(g))
        assert (sizes > 100).sum() == 2 and (g.degrees() == 0).sum() >= 3
        hops = csgraph.shortest_path(g.csr, directed=False, unweighted=True)
        finite = np.isfinite(hops)
        hops = np.where(finite, hops, 0.0).astype(np.int64)
        ecc, dist_sum, reached = hop_statistics(g)
        assert np.array_equal(ecc, hops.max(axis=1))
        assert np.array_equal(dist_sum, hops.sum(axis=1))
        assert np.array_equal(reached, finite.sum(axis=1))


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
            for u, v, _ in triples(g):
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
            es = {(u, v) for u, v, _ in triples(g)} | {(v, u) for u, v, _ in triples(g)}
            links = 2 * triangle_counts(n, es)
            deg = g.degrees()
            expected = [links[i] / (deg[i] * (deg[i] - 1)) if deg[i] >= 2 else 0.0
                        for i in range(n)]
            assert clustering_coefficients(g).tolist() == expected


class TestMinimumSpanningTree:
    def test_unit_square(self):
        tree = minimum_spanning_tree(pset([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert tree.edge_count == 3
        assert tree.w.sum() == pytest.approx(3.0)

    def test_collinear_points(self):
        tree = minimum_spanning_tree(pset([(0, 0), (1, 0), (3, 0)]))
        assert sorted(w for _, _, w in triples(tree)) == [1.0, 2.0]

    def test_small_cases(self):
        assert minimum_spanning_tree(pset([])).edge_count == 0
        assert minimum_spanning_tree(pset([(1, 1)])).edge_count == 0
        two = minimum_spanning_tree(pset([(0, 0), (3, 4)]))
        assert two.w.sum() == pytest.approx(5.0)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            pts = rng.uniform(0, 700, (n, 2))
            tree = minimum_spanning_tree(pset(pts))
            assert tree.edge_count == n - 1
            assert tree.w.sum() == pytest.approx(
                exhaustive_mst_weight(pts), rel=1e-12
            )

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(200, 500, (25, 2))
        w0 = minimum_spanning_tree(pset(pts)).w.sum()
        ang = 0.7
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = (pts - pts.mean(0)) @ rot.T + pts.mean(0) + np.array([20.0, -15.0])
        w1 = minimum_spanning_tree(pset(moved)).w.sum()
        assert w1 == pytest.approx(w0, rel=1e-9)


class TestSymmetricEigenvalues:
    """The spectrum of the symmetric binary adjacency, from adjacency_eigenvalues."""

    def test_zero_matrix(self):
        # the edgeless graph's adjacency is the zero matrix
        assert adjacency_eigenvalues(UndirectedGraph(3)).tolist() == [0, 0, 0]
        assert adjacency_eigenvalues(UndirectedGraph(0)).shape == (0,)

    def test_single_edge_spectrum(self):
        g = UndirectedGraph(2, [(0, 1, 1.0)])
        assert np.allclose(adjacency_eigenvalues(g), [-1, 1])

    def test_k3_spectrum(self):
        g = UndirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert np.allclose(adjacency_eigenvalues(g), [-1, -1, 2], atol=1e-12)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(1, 15)), p=float(rng.uniform(0.1, 0.9)))
            assert np.allclose(adjacency_eigenvalues(g),
                               jacobi_eigenvalues(g.adjacency_matrix()), atol=1e-9)

    def test_trace_and_count_invariants(self):
        # no self-loops: the trace is 0, and trace(A^2) = sum of squares = 2m
        rng = np.random.default_rng(13)
        graphs = [random_graph(rng, int(rng.integers(1, 20)), p=float(rng.uniform(0.1, 0.9)))
                  for _ in range(20)]
        for g in graphs + [strip_graph(5, graph.BANDED_MIN_NODES)]:    # both solvers
            eig = adjacency_eigenvalues(g)
            assert len(eig) == g.node_count
            assert eig.sum() == pytest.approx(0.0, abs=1e-8)
            assert (eig * eig).sum() == pytest.approx(2 * g.edge_count, rel=1e-10)
            assert np.all(np.diff(eig) >= 0)

    def test_residual_bound(self):
        # every reported eigenvalue is within 1e-8*|A| of a true one, checked
        # via the smallest singular value of (A - lambda I)
        rng = np.random.default_rng(14)
        g = random_graph(rng, 8, p=0.5)
        m = g.adjacency_matrix()
        norm = np.linalg.norm(m, 2)
        for lam in adjacency_eigenvalues(g):
            smin = np.linalg.svd(m - lam * np.eye(8), compute_uv=False).min()
            assert smin <= 1e-8 * norm


class TestAdjacencyEigenvalues:
    """The banded solve against the dense one it replaces on large thin-band graphs."""

    # gaps measured: up to 2.3e-13 here (largest eigenvalue ~18) and 5.1e-13
    # on the 3000-nucleus patch-dense graphs; the bound leaves ~20x of room
    ATOL = 1e-11

    # the band solver under test; the subclass below reruns every test with the fallback
    SOLVER = "dsbev_2stage"

    @pytest.fixture
    def band_solve(self, monkeypatch):
        """Select SOLVER, and fail any dense adjacency, so the band path
        provably builds no n x n matrix.

        The fallback is forced by a lookup that finds no two-stage routine;
        a spy on scipy's solver checks which of the two ran.
        """
        def fail(g):
            raise AssertionError(f"dense adjacency of a {g.node_count}-node graph")
        monkeypatch.setattr(UndirectedGraph, "adjacency_matrix", fail)
        if self.SOLVER == "eigvals_banded":
            monkeypatch.setattr(blas, "_dsbev_2stage", lambda: None)
        elif blas._dsbev_2stage() is None:
            pytest.skip("no loaded OpenBLAS exports dsbev_2stage")
        calls, real = [], blas.eigvals_banded

        def eigvals_banded(band, **kwargs):
            calls.append(band.shape)
            return real(band, **kwargs)

        monkeypatch.setattr(blas, "eigvals_banded", eigvals_banded)
        yield
        assert bool(calls) == (self.SOLVER == "eigvals_banded")

    @pytest.mark.parametrize("seed, n, gap", [
        (1, 1000, False), (2, 1500, False), (3, 1650, True), (4, graph.BANDED_MIN_NODES, False),
    ])
    def test_band_path_matches_the_dense_spectrum(self, band_solve, seed, n, gap):
        g = strip_graph(seed, n, gap)
        assert g.node_count >= graph.BANDED_MIN_NODES
        eig = adjacency_eigenvalues(g)
        np.testing.assert_allclose(eig, np.linalg.eigvalsh(g.csr.toarray()),
                                   rtol=0, atol=self.ATOL)
        assert np.all(np.diff(eig) >= 0)

    def test_edgeless_graph_takes_the_band_path(self, band_solve):
        n = graph.BANDED_MIN_NODES
        assert adjacency_eigenvalues(UndirectedGraph(n)).tolist() == [0.0] * n

    def test_path_graph_takes_the_band_path(self, band_solve):
        # a path has band width 1 and the spectrum 2 cos(pi k / (n + 1)), k = 1..n
        n = graph.BANDED_MIN_NODES
        g = UndirectedGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
        expected = 2 * np.cos(np.pi * np.arange(n, 0, -1) / (n + 1))
        np.testing.assert_allclose(adjacency_eigenvalues(g), expected, rtol=0, atol=self.ATOL)

    def test_below_the_selection_the_dense_spectrum_is_kept_bitwise(self):
        rng = np.random.default_rng(4)
        square = pset(rng.uniform(0, 1000, (graph.BANDED_MIN_NODES, 2)), 1000, 1000)
        graphs = [
            strip_graph(1, graph.BANDED_MIN_NODES - 1),     # thin band, too few nodes
            build_radius_graph(square, 128.0),                # enough nodes, wide band
            UndirectedGraph(0),
            UndirectedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]),
        ]
        for g in graphs:
            assert np.array_equal(adjacency_eigenvalues(g),
                                  np.linalg.eigvalsh(g.adjacency_matrix()))


class TestAdjacencyEigenvaluesFallback(TestAdjacencyEigenvalues):
    """The same checks where no loaded library exports dsbev_2stage, so that
    scipy's `eigvals_banded` solves the band."""

    SOLVER = "eigvals_banded"
