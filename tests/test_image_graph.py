import numpy as np
import pytest

from wsigraph.image_graph import (
    ImageGraph,
    build_image_graph,
    cosine_similarity,
    load_image_graphs,
    save_image_graphs,
)


class TestCosineSimilarity:
    def test_self_similarity(self):
        assert cosine_similarity([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_analytic_value(self):
        assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(1 / np.sqrt(2))

    def test_zero_norm_convention(self):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1, 2], [1, 2, 3])


class TestBuildImageGraph:
    def test_identical_rows_connect_with_weight_one(self):
        f = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        g = build_image_graph(f, theta=0.8)
        assert len(g.edges) == 1
        assert g.edges[0][2] == pytest.approx(1.0)

    def test_orthogonal_rows_stay_isolated(self):
        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert build_image_graph(f, theta=0.8).edges == []

    def test_similarity_exactly_theta_is_excluded(self):
        # cos((4,3),(1,0)) = 4/5 = 0.8 exactly in float64
        f = np.array([[4.0, 3.0], [1.0, 0.0]])
        sim = cosine_similarity(f[0], f[1])
        assert sim == 0.8
        assert build_image_graph(f, theta=0.8).edges == []
        assert len(build_image_graph(f, theta=0.79).edges) == 1

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            build_image_graph(np.ones((2, 2)), theta=1.0)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            f = rng.uniform(0.1, 5.0, (n, 8))
            g1 = build_image_graph(f, theta=0.8)
            scales = rng.uniform(0.2, 9.0, n)
            g2 = build_image_graph(f * scales[:, None], theta=0.8)
            assert [(i, j) for i, j, _ in g1.edges] == [(i, j) for i, j, _ in g2.edges]
            w1 = np.array([w for _, _, w in g1.edges])
            w2 = np.array([w for _, _, w in g2.edges])
            assert np.allclose(w1, w2, atol=1e-12)

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            f = rng.normal(0, 1, (int(rng.integers(2, 20)), 6))
            thetas = sorted(rng.uniform(-0.99, 0.99, 3))
            counts = [len(build_image_graph(f, theta=t).edges) for t in thetas]
            assert counts == sorted(counts, reverse=True)

    def test_edge_count_bound_and_symmetric_dedup(self):
        rng = np.random.default_rng(2)
        f = rng.uniform(0, 1, (12, 5))
        g = build_image_graph(f, theta=0.5)
        assert len(g.edges) <= 12 * 11 // 2
        assert all(i < j for i, j, _ in g.edges)
        assert len({(i, j) for i, j, _ in g.edges}) == len(g.edges)

    def test_rejects_self_loop_and_duplicates(self):
        f = np.ones((3, 2))
        with pytest.raises(ValueError):
            ImageGraph(f, edges=[(1, 1, 0.9)])
        with pytest.raises(ValueError):
            ImageGraph(f, edges=[(0, 1, 0.9), (1, 0, 0.9)])

    def test_negative_weights_allowed(self):
        g = ImageGraph(np.ones((3, 2)), edges=[(2, 0, -0.25)])
        assert g.edges == [(0, 2, -0.25)]

    def test_adjacency_from_array_edges(self):
        g = ImageGraph(np.ones((4, 2)), edges=np.array([[3, 1, 0.5], [0, 2, 0.75]]))
        a = g.adjacency_matrix()
        expected = np.zeros((4, 4))
        expected[1, 3] = expected[3, 1] = 0.5
        expected[0, 2] = expected[2, 0] = 0.75
        assert np.array_equal(a, expected)
        assert g.edges == [(0, 2, 0.75), (1, 3, 0.5)]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        graphs = []
        for i in range(4):
            f = rng.uniform(0, 3, (int(rng.integers(1, 7)), 69))
            graphs.append(build_image_graph(f, theta=0.7, slide_id=f"s{i}", label=i % 3))
        path = tmp_path / "graphs.jsonl"
        save_image_graphs(graphs, path)
        back = load_image_graphs(path)
        assert len(back) == len(graphs)
        for a, b in zip(graphs, back):
            assert a.slide_id == b.slide_id
            assert a.label == b.label
            assert np.array_equal(a.node_features, b.node_features)
            assert a.edges == b.edges

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format_version": 99, "slide_id": "x", "label": 0, '
                        '"features": [], "edges": []}\n')
        with pytest.raises(ValueError, match="format_version"):
            load_image_graphs(path)

    def test_rejects_bad_json_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match=":1"):
            load_image_graphs(path)
