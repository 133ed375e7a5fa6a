"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Criterion 7 runs the full 150-slide synthetic experiment twice
(once to score it, once to confirm bitwise reproducibility), so this module
dominates the suite's runtime.
"""

import json
import time

import numpy as np
import pytest

from wsigraph import gcn
from wsigraph.features import cell_graph_features, patch_feature_vector
from wsigraph.detection import build_glog_bank, detect_nuclei, render_nuclei_image
from wsigraph.graph import UndirectedGraph, minimum_spanning_tree
from wsigraph.image_graph import build_image_graph
from wsigraph.pipeline import (
    ExperimentConfig,
    report_without_timings,
    run_experiment,
)
from wsigraph.points import PointSet, tile_image
from wsigraph.tessellation import delaunay_triangulation, voronoi_cells

from oracles import (
    circumcircle_violations,
    cosine_similarity,
    exhaustive_mst_weight,
    floyd_warshall_hops,
    greedy_match_count,
    jacobi_eigenvalues,
    triangle_counts,
)


def _ok(num: int, desc: str) -> None:
    print(f"\nACCEPTANCE {num} ({desc}): PASS")


def test_criterion_1_feature_contract():
    rng = np.random.default_rng(1001)
    checked = 0
    for trial in range(1000):
        if trial < 5:
            n = trial                        # 0, 1, 2, 3, 4 explicitly
            pts = rng.uniform(0, 768, (n, 2))
        elif trial < 10:
            # collinear sets of varying size
            k = 3 + trial
            t = np.sort(rng.uniform(0, 700, k))
            pts = np.stack([t, 0.5 * t + 10.0], axis=1)
        else:
            n = int(rng.integers(0, 31))
            pts = rng.uniform(0, 768, (n, 2))
        vec = patch_feature_vector(PointSet(pts, 768, 768))
        assert vec.shape == (69,)
        assert np.all(np.isfinite(vec))
        checked += 1
    assert checked == 1000
    _ok(1, "patch feature vector is 69 finite values on 1000 point sets")


def test_criterion_2_graph_feature_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
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

        adj = g.adjacency_matrix()
        d = floyd_warshall_hops(adj.astype(bool))
        finite = np.isfinite(d)
        ecc = np.where(finite, d, 0.0).max(axis=1)
        deg = adj.sum(axis=1)
        radius = ecc[deg > 0].min() if (deg > 0).any() else 0.0
        off = finite & ~np.eye(n, dtype=bool)
        es = set()
        for u, v, _ in edges:
            es.add((u, v))
            es.add((v, u))
        t = triangle_counts(n, es)
        clustering = np.where(deg >= 2, 2 * t / np.maximum(deg * (deg - 1), 1), 0.0)
        comp_count = _component_count(adj.astype(bool))

        # distance / connectivity features match the oracle exactly
        assert f[0] == deg.mean()
        assert f[1] == clustering.mean()
        assert f[3] == comp_count
        assert f[4] == ecc.mean()
        assert f[5] == ecc.max()
        assert f[6] == radius
        assert f[7] == (d[off].mean() if off.any() else 0.0)
        assert f[8] == (ecc == radius).sum()
        assert f[10] == n and f[11] == len(edges)
        assert f[17] == deg.sum()

        # spectral features match an independent eigensolver within 1e-8
        eig = jacobi_eigenvalues(adj)
        k = int(np.ceil(n / 2))
        assert f[12] == pytest.approx(eig[-1], abs=1e-8)
        assert f[13] == pytest.approx(0.0, abs=1e-12)
        assert f[14] == pytest.approx(np.abs(eig).sum(), abs=1e-8)
        assert f[15] == pytest.approx(_slope(eig[:k]), abs=1e-8)
        assert f[16] == pytest.approx(_slope(eig[-k:]), abs=1e-8)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 2 took {elapsed:.1f}s (limit 60s)"
    _ok(2, f"100 random graphs match Floyd-Warshall + Jacobi oracles in {elapsed:.1f}s")


def _component_count(adj: np.ndarray) -> int:
    n = len(adj)
    seen = np.zeros(n, dtype=bool)
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(adj[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
    return count


def _slope(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    x = np.arange(len(values), dtype=float)
    xc = x - x.mean()
    return float((xc @ (values - values.mean())) / (xc @ xc))


def test_criterion_3_geometry_oracles():
    rng = np.random.default_rng(1003)
    for _ in range(100):
        n = int(rng.integers(3, 51))
        pts = rng.uniform(0, 768, (n, 2))
        ps = PointSet(pts, 768, 768)
        tri = delaunay_triangulation(ps)
        assert circumcircle_violations(ps.coords, tri.triangles) == 0
        cells = voronoi_cells(ps)
        assert cells.total_area() == pytest.approx(768 * 768, rel=1e-6)
    for trial in range(100):
        n = int(rng.integers(2, 9))
        pts = rng.uniform(0, 700, (n, 2))
        tree = minimum_spanning_tree(PointSet(pts, 768, 768))
        assert tree.w.sum() == pytest.approx(
            exhaustive_mst_weight(pts), rel=1e-12
        )
    _ok(3, "circumcircles empty, Voronoi areas conserve, MST matches exhaustive minimum")


def test_criterion_4_image_graph_contract():
    rng = np.random.default_rng(1004)
    for _ in range(100):
        n = int(rng.integers(2, 16))

        # strictness: a pair at cosine similarity exactly 0.8 gets no edge
        planted = rng.uniform(0.1, 4.0, (n, 8))
        planted[0] = 0.0
        planted[1] = 0.0
        planted[0, :2] = (4.0, 3.0)
        planted[1, :2] = (1.0, 0.0)
        assert cosine_similarity(planted[0], planted[1]) == 0.8
        g = build_image_graph(planted, theta=0.8)
        assert (0, 1) not in {(i, j) for i, j, _ in g.edges}

        # scaling invariance and monotonicity on a generic random matrix
        # (no pair sits exactly on the threshold)
        f = rng.uniform(0.1, 4.0, (n, 8))
        g = build_image_graph(f, theta=0.8)
        scales = rng.uniform(0.25, 8.0, n)
        g2 = build_image_graph(f * scales[:, None], theta=0.8)
        assert [(i, j) for i, j, _ in g.edges] == [(i, j) for i, j, _ in g2.edges]
        assert np.allclose(
            [w for _, _, w in g.edges], [w for _, _, w in g2.edges], atol=1e-12
        )

        lo = build_image_graph(f, theta=0.5)
        hi = build_image_graph(f, theta=0.95)
        pairs = lambda gg: {(i, j) for i, j, _ in gg.edges}
        assert pairs(hi) <= pairs(g) <= pairs(lo)
    _ok(4, "strict threshold, scaling invariance and theta monotonicity hold")


def test_criterion_5_gcn_correctness():
    h = 1e-6
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        nodes = int(rng.integers(3, 8))
        dim = int(rng.integers(4, 10))
        feats = rng.normal(0, 1, (nodes, dim))
        g = build_image_graph(np.abs(feats) + 0.2, theta=0.3,
                              label=int(rng.integers(0, 3)))
        g.node_features = feats
        a_hat = gcn.normalize_adjacency(g)
        model = gcn.init_model(
            dim,
            tuple(int(d) for d in rng.integers(3, 7, rng.integers(1, 4))),
            tuple(int(d) for d in rng.integers(3, 7, rng.integers(1, 3))),
            int(rng.integers(2, 5)),
            dropout_p=0.0,
            rng=rng,
        )
        # random biases keep every pre-activation away from the ReLU kink,
        # where central differences and the subgradient legitimately differ
        for b in model.linear_biases:
            b[:] = rng.uniform(0.05, 0.3, b.shape)
        label = int(rng.integers(0, model.num_classes))
        probs, cache = gcn.gcn_forward(feats, a_hat, model)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        grads, _ = gcn.backward(cache, label)
        for p, gr in zip(model.parameters(), grads.parameters()):
            flat, gflat = p.reshape(-1), gr.reshape(-1)
            for idx in range(len(flat)):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = gcn.cross_entropy_loss(
                    gcn.gcn_forward(feats, a_hat, model)[0], label)
                flat[idx] = orig - h
                lm = gcn.cross_entropy_loss(
                    gcn.gcn_forward(feats, a_hat, model)[0], label)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(gflat[idx] - fd) / max(1.0, abs(gflat[idx])))

        perm = rng.permutation(nodes)
        inv = np.argsort(perm)
        from wsigraph.image_graph import ImageGraph

        g2 = ImageGraph(
            feats[perm],
            edges=[(min(inv[i], inv[j]), max(inv[i], inv[j]), w)
                   for i, j, w in g.edges],
            label=g.label,
        )
        p2, _ = gcn.gcn_forward(g2.node_features, gcn.normalize_adjacency(g2), model)
        assert np.allclose(probs, p2, atol=1e-9)
    assert worst <= 1e-4, f"worst gradient relative error {worst:.2e}"
    _ok(5, f"gradients match finite differences (worst rel err {worst:.1e})")


def test_criterion_6_overfit_sanity():
    start = time.monotonic()
    rng = np.random.default_rng(1006)
    graphs = []
    for i in range(5):
        f = np.abs(rng.normal(1.0, 0.5, (6, 69))) + rng.uniform(0, 2)
        graphs.append(build_image_graph(f, theta=0.8, slide_id=f"s{i}", label=i % 3))
    cfg = gcn.TrainConfig(learning_rate=2e-4, batch_size=20, epochs=600,
                          dropout_p=0.0, seed=0, num_classes=3)
    model, history = gcn.train(graphs, cfg)
    acc = gcn.evaluate(model, graphs).accuracy
    elapsed = time.monotonic() - start
    assert acc == 1.0
    assert elapsed <= 60.0, f"criterion 6 took {elapsed:.1f}s (limit 60s)"
    # loss is non-increasing over the last 100 epochs within tolerance
    tail = [e["loss"] for e in history[-100:]]
    assert all(b <= a + 1e-3 for a, b in zip(tail, tail[1:]))
    _ok(6, f"overfit to 5 graphs at accuracy 1.0 in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def full_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    config = ExperimentConfig(seed=0, slides_per_class=50, folds=3,
                              output_dir=str(out))
    start = time.monotonic()
    first = run_experiment(config)
    elapsed = time.monotonic() - start
    second = run_experiment(config, write_outputs=False)
    return first, second, elapsed


def test_criterion_7_end_to_end_experiment(full_experiment):
    first, second, elapsed = full_experiment
    assert first["num_slides"] == 150
    assert len(first["folds"]) == 3
    acc = first["accuracy_mean"]
    assert acc >= 0.90, f"mean accuracy {acc:.3f} below 0.90"
    assert elapsed <= 600.0, f"experiment took {elapsed:.0f}s (limit 600s)"
    a = json.dumps(report_without_timings(first), sort_keys=True)
    b = json.dumps(report_without_timings(second), sort_keys=True)
    assert a == b, "report is not bitwise reproducible"
    _ok(7, f"150-slide 3-fold CV: accuracy {acc:.3f} in {elapsed:.0f}s, bitwise reproducible")


def test_criterion_8_detection_on_synthetic_blobs():
    bank = build_glog_bank(8, 4, 9, 7)
    assert len(bank.kernels) == 63
    total_truth = total_det = total_match = 0
    for trial in range(50):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(10, 81))
        pts = []
        while len(pts) < n:
            c = rng.uniform(25.0, 295.0, 2)
            if all((c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2 >= 225.0 for p in pts):
                pts.append(c)
        truth = np.array(pts)
        img = render_nuclei_image(
            PointSet(truth, 320, 320),
            blob_sigma=rng.uniform(4.0, 6.0, n),
            amplitude=rng.uniform(0.5, 0.8, n),
        )
        det = detect_nuclei(img, bank)
        m = greedy_match_count(det.coords, truth, radius=3.0)
        recall = m / len(truth)
        precision = m / max(len(det), 1)
        assert recall >= 0.95, f"trial {trial}: recall {recall:.3f}"
        assert precision >= 0.95, f"trial {trial}: precision {precision:.3f}"
        total_truth += len(truth)
        total_det += len(det)
        total_match += m
    _ok(8, f"detection recall {total_match / total_truth:.3f}, "
           f"precision {total_match / total_det:.3f} over 50 layouts")


def test_criterion_9_tiling_formula():
    assert len(tile_image(4548, 7548, 768, 128)) == 1590
    assert len(tile_image(5000, 7300, 768, 128)) == ((5000 - 768) // 128 + 1) * (
        (7300 - 768) // 128 + 1
    )
    assert len(tile_image(1000, 1000, 768, 256)) == 1
    _ok(9, "tiling counts match the closed-form formula")
