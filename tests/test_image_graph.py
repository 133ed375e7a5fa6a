import json
import tracemalloc

import numpy as np
import pytest

from wsigraph.errors import ValidationError
from wsigraph.graph import canonical_edges
from wsigraph.image_graph import (
    ImageGraph,
    build_image_graph,
    load_image_graphs,
    save_image_graphs,
)

from oracles import cosine_similarity


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

    def test_complete_graph_holds_16_bytes_per_edge(self):
        # positive rows are pairwise similar above theta = 0: all 79,800 pairs connect
        g = build_image_graph(np.random.default_rng(2).uniform(1, 2, (400, 69)), theta=0.0)
        assert len(g.u) == 400 * 399 // 2
        assert g.u.nbytes + g.v.nbytes + g.w.nbytes == 16 * len(g.u)

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

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.8, 0.99])
    def test_edges_are_the_all_pairs_construction_without_a_sort(self, theta, monkeypatch):
        """The kept pairs are every u < v pair of similarity above theta, in
        (u, v) order, so they need no sort."""
        rng = np.random.default_rng(13)
        f = rng.normal(0.0, 1.0, (60, 5))       # negative features: similarities in [-1, 1]
        f[[3, 17, 40]] = 0.0                    # zero rows: similarity 0 to every row
        f[21] = 3.0 * f[20]                     # parallel rows: similarity 1
        f[22] = -f[20]                          # opposite rows: similarity -1
        f[30] = 1e-150 * f[29]                  # a tiny row, whose squares are still normal
        norms = np.linalg.norm(f, axis=1)
        unit = f / np.where(norms > 0, norms, 1.0)[:, None]
        sim = unit @ unit.T
        iu, ju = np.triu_indices(len(f), k=1)
        keep = sim[iu, ju] > theta
        edges = np.column_stack([iu[keep], ju[keep], sim[iu, ju][keep]])
        swap = rng.random(len(edges)) < 0.5     # shuffled and half reversed: this one sorts
        edges[swap, :2] = edges[swap, 1::-1]
        want = canonical_edges(len(f), edges[rng.permutation(len(edges))])

        def lexsort(*args, **kwargs):
            raise AssertionError("build_image_graph sorted its edges")

        monkeypatch.setattr(np, "lexsort", lexsort)
        g = build_image_graph(f, theta)
        assert len(want[0]) > 0
        for got, ref in zip((g.u, g.v, g.w), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("row, why", [
        ([1e200, 2e200, 3e200], "norm inf"),        # its squares overflow
        ([1e-200, 2e-200, 3e-200], "norm 0"),       # its squares underflow
        ([np.nan, 2.0, 3.0], "not finite"),
        ([1.0, -np.inf, 3.0], "not finite"),
    ])
    def test_rows_without_a_float64_unit_vector_are_rejected(self, row, why):
        # each row would otherwise lose its edge to the parallel row [1, 2, 3]
        f = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], row])
        with pytest.raises(ValidationError, match=f"slide s7 feature row 2 .*{why}"):
            build_image_graph(f, theta=0.8, slide_id="s7")

    def test_rejects_self_loop_and_duplicates(self):
        f = np.ones((3, 2))
        with pytest.raises(ValueError):
            ImageGraph(f, edges=[(1, 1, 0.9)])
        with pytest.raises(ValueError):
            ImageGraph(f, edges=[(0, 1, 0.9), (1, 0, 0.9)])

    def test_rejects_zero_width_features(self):
        with pytest.raises(ValueError, match="at least one column"):
            ImageGraph(np.zeros((2, 0)))

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

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        graphs = [build_image_graph(rng.normal(size=(n, 69)), theta=t, slide_id=f"s{n}", label=1)
                  for n, t in ((1, 0.0), (9, -0.2), (40, 0.1))]
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_image_graphs(graphs, first)
        save_image_graphs(load_image_graphs(first), second)
        assert first.read_bytes() == second.read_bytes()

    @staticmethod
    def one_dumps_per_record(graphs) -> bytes:
        """The file as one json.dumps of each whole record would write it."""
        return "".join(json.dumps({
            "format_version": 1,
            "slide_id": g.slide_id,
            "label": int(g.label),
            "num_nodes": int(g.num_nodes),
            "feature_dim": int(g.node_features.shape[1]),
            "features": g.node_features.tolist(),
            "edges": [list(e) for e in zip(g.u.tolist(), g.v.tolist(), g.w.tolist())],
        }) + "\n" for g in graphs).encode("utf-8")

    @staticmethod
    def complete_graph(nodes=400):
        rng = np.random.default_rng(11)
        return build_image_graph(rng.uniform(1, 2, (nodes, 69)), theta=0.0, slide_id="big",
                                 label=2)

    def test_blocked_edges_are_one_json_dumps_per_record(self, tmp_path):
        rng = np.random.default_rng(12)
        big = self.complete_graph()
        cases = [
            [ImageGraph(rng.normal(size=(3, 4)), slide_id="no-edges")],
            [ImageGraph(rng.normal(size=(2, 4)), edges=[(1, 0, 0.625)], slide_id="one-edge")],
            [ImageGraph(rng.normal(size=(5, 2)), edges=[(0, 4, -0.25), (2, 3, 1e-300)],
                        slide_id="negative")],
            [big],
            [big, ImageGraph(rng.normal(size=(1, 69)), slide_id="single", label=0), big],
        ]
        assert big.w.size == 79_800
        path = tmp_path / "graphs.jsonl"
        for graphs in cases:
            save_image_graphs(graphs, path)
            assert path.read_bytes() == self.one_dumps_per_record(graphs)

    def test_saving_a_complete_graph_builds_no_list_of_its_edges(self, tmp_path):
        # a Python list of the 79,800 [u, v, w] triples alone is ~14 MB
        big = self.complete_graph()
        tracemalloc.start()
        try:
            save_image_graphs([big], tmp_path / "graphs.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

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
