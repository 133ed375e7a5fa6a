import numpy as np
import pytest

from wsigraph import gcn
from wsigraph.gcn import (
    AdamState,
    ModelGrads,
    TrainConfig,
    adam_step,
    backward,
    cross_entropy_loss,
    evaluate,
    gcn_forward,
    init_model,
    load_model,
    normalize_adjacency,
    save_model,
    standardize_features,
    train,
)
from wsigraph.image_graph import ImageGraph, build_image_graph


def toy_graph(rng, nodes=5, dim=8, classes=3, theta=0.3):
    feats = rng.normal(0.0, 1.0, (nodes, dim))
    g = build_image_graph(np.abs(feats) + 0.1, theta=theta,
                          label=int(rng.integers(0, classes)))
    g.node_features = feats
    return g


def random_dataset(rng, count=5, nodes=6, dim=69, classes=3):
    out = []
    for i in range(count):
        f = np.abs(rng.normal(1.0, 0.6, (nodes, dim))) + rng.uniform(0, 2)
        out.append(build_image_graph(f, theta=0.8, slide_id=f"g{i}", label=i % classes))
    return out


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        g = ImageGraph(np.ones((1, 3)), edges=[])
        assert normalize_adjacency(g).tolist() == [[1.0]]

    def test_two_nodes_unit_edge_by_hand(self):
        g = ImageGraph(np.ones((2, 3)), edges=[(0, 1, 1.0)])
        assert np.allclose(normalize_adjacency(g), [[0.5, 0.5], [0.5, 0.5]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            f = rng.uniform(0.2, 2.0, (n, 4))
            g = build_image_graph(f, theta=0.6)
            a = g.adjacency_matrix() + np.eye(n)
            dinv = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
            ref = dinv @ a @ dinv
            got = normalize_adjacency(g)
            assert np.allclose(got, ref, atol=1e-12)
            assert np.allclose(got, got.T, atol=1e-15)


class TestStandardize:
    def test_constant_column_maps_to_zero(self):
        x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        scaler, transform = standardize_features(x)
        z = transform(x)
        assert np.all(z[:, 1] == 0.0)

    def test_train_matrix_is_standardized(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3, 2, (50, 7))
        _, transform = standardize_features(x)
        z = transform(x)
        assert np.allclose(z.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1, atol=1e-9)

    def test_test_set_uses_train_stats(self):
        train_m = np.array([[0.0], [2.0]])      # mean 1, sd 1
        test_m = np.array([[5.0]])
        _, transform = standardize_features(train_m)
        assert transform(test_m).tolist() == [[4.0]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            standardize_features(np.zeros((0, 3)))


class TestForward:
    def test_zero_weights_give_uniform(self):
        rng = np.random.default_rng(2)
        g = toy_graph(rng)
        model = init_model(8, (5, 4), (6,), num_classes=4, dropout_p=0.0, rng=rng)
        for p in model.parameters():
            p[:] = 0.0
        probs, _ = gcn_forward(g.node_features, normalize_adjacency(g), model)
        assert np.allclose(probs, 0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = toy_graph(rng)
            model = init_model(8, (6, 5), (7, 4), num_classes=3, dropout_p=0.0, rng=rng)
            probs, _ = gcn_forward(g.node_features, normalize_adjacency(g), model)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= 0)

    def test_single_node_hand_unrolled(self):
        # identity weights, zero biases, nonnegative input: the pooled vector
        # is the feature vector itself and the logits pass through unchanged
        dim = 4
        feats = np.array([[0.5, 1.0, 0.2, 2.0]])
        model = init_model(dim, (dim,), (dim,), num_classes=dim, dropout_p=0.0)
        model.gcn_weights[0][:] = np.eye(dim)
        model.linear_weights[0][:] = np.eye(dim)
        model.linear_weights[1][:] = np.eye(dim)
        for b in model.linear_biases:
            b[:] = 0.0
        a_hat = np.array([[1.0]])
        probs, cache = gcn_forward(feats, a_hat, model)
        logits = cache["logits"]
        assert np.allclose(logits, feats[0])
        e = np.exp(feats[0] - feats[0].max())
        assert np.allclose(probs, e / e.sum())

    def test_node_permutation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = toy_graph(rng, nodes=7)
            model = init_model(8, (6, 6), (5,), num_classes=3, dropout_p=0.0, rng=rng)
            p1, _ = gcn_forward(g.node_features, normalize_adjacency(g), model)
            perm = rng.permutation(g.num_nodes)
            inv = np.argsort(perm)
            g2 = ImageGraph(
                g.node_features[perm],
                edges=[(min(inv[i], inv[j]), max(inv[i], inv[j]), w)
                       for i, j, w in g.edges],
                label=g.label,
            )
            p2, _ = gcn_forward(g2.node_features, normalize_adjacency(g2), model)
            assert np.allclose(p1, p2, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        model = init_model(8, (4,), (4,), num_classes=2, dropout_p=0.0)
        with pytest.raises(ValueError):
            gcn_forward(np.ones((3, 5)), np.eye(3), model)

    def test_empty_graph_rejected(self):
        model = init_model(8, (4,), (4,), num_classes=2, dropout_p=0.0)
        with pytest.raises(ValueError, match="no nodes"):
            gcn_forward(np.zeros((0, 8)), np.zeros((0, 0)), model)

    def test_dropout_requires_rng(self):
        model = init_model(8, (4,), (4,), num_classes=2, dropout_p=0.5)
        with pytest.raises(ValueError):
            gcn_forward(np.ones((3, 8)), np.eye(3), model, train=True)

    def test_eval_mode_ignores_dropout(self):
        rng = np.random.default_rng(5)
        g = toy_graph(rng)
        model = init_model(8, (6,), (5,), num_classes=3, dropout_p=0.5, rng=rng)
        a_hat = normalize_adjacency(g)
        p1, _ = gcn_forward(g.node_features, a_hat, model, train=False)
        p2, _ = gcn_forward(g.node_features, a_hat, model, train=False)
        assert np.array_equal(p1, p2)


class TestLoss:
    def test_perfect_prediction(self):
        assert cross_entropy_loss(np.array([1.0, 0.0, 0.0]), 0) == pytest.approx(0.0)

    def test_uniform_is_log3(self):
        assert cross_entropy_loss(np.full(3, 1 / 3), 1) == pytest.approx(np.log(3))

    def test_batch_mean(self):
        probs = np.full((2, 3), 1 / 3)
        assert cross_entropy_loss(probs, [0, 2]) == pytest.approx(np.log(3))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.full(3, 1 / 3), 3)


class TestBackward:
    def test_gradients_match_finite_differences(self):
        h = 1e-6
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            nodes = int(rng.integers(3, 8))
            dim = int(rng.integers(4, 10))
            g = toy_graph(rng, nodes=nodes, dim=dim)
            a_hat = normalize_adjacency(g)
            gcn_dims = tuple(int(d) for d in rng.integers(3, 7, rng.integers(1, 4)))
            head_dims = tuple(int(d) for d in rng.integers(3, 7, rng.integers(1, 3)))
            classes = int(rng.integers(2, 5))
            label = int(rng.integers(0, classes))
            model = init_model(dim, gcn_dims, head_dims, classes, dropout_p=0.0, rng=rng)
            # keep pre-activations off the ReLU kink, where central
            # differences and the subgradient legitimately disagree
            for b in model.linear_biases:
                b[:] = rng.uniform(0.05, 0.3, b.shape)
            _, cache = gcn_forward(g.node_features, a_hat, model)
            grads, _ = backward(cache, label)
            for p, gr in zip(model.parameters(), grads.parameters()):
                flat, gflat = p.reshape(-1), gr.reshape(-1)
                for idx in range(len(flat)):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp = cross_entropy_loss(
                        gcn_forward(g.node_features, a_hat, model)[0], label)
                    flat[idx] = orig - h
                    lm = cross_entropy_loss(
                        gcn_forward(g.node_features, a_hat, model)[0], label)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    worst = max(worst, abs(gflat[idx] - fd) / max(1.0, abs(gflat[idx])))
        assert worst <= 1e-4

    def test_zero_loss_fixture_has_tiny_head_gradient(self):
        rng = np.random.default_rng(20)
        g = toy_graph(rng, nodes=4)
        model = init_model(8, (5,), (4,), num_classes=2, dropout_p=0.0, rng=rng)
        # drive the correct logit far up so the prediction saturates
        model.linear_biases[-1][:] = np.array([60.0, -60.0])
        probs, cache = gcn_forward(g.node_features, normalize_adjacency(g), model)
        grads, _ = backward(cache, 0)
        assert cross_entropy_loss(probs, 0) == pytest.approx(0.0, abs=1e-12)
        assert np.abs(grads.linear_biases[-1]).max() < 1e-12

    def test_isolated_node_feature_gradient(self):
        # node 2 is isolated: its input-feature gradient must match finite
        # differences (it flows only through its own adjacency row)
        rng = np.random.default_rng(21)
        feats = rng.normal(0, 1, (3, 6))
        g = ImageGraph(feats, edges=[(0, 1, 0.9)], label=1)
        a_hat = normalize_adjacency(g)
        assert a_hat[2].tolist() == [0.0, 0.0, 1.0]
        model = init_model(6, (5, 4), (4,), num_classes=2, dropout_p=0.0, rng=rng)
        _, cache = gcn_forward(feats, a_hat, model)
        _, dx = backward(cache, 1)
        h = 1e-6
        for j in range(feats.shape[1]):
            orig = feats[2, j]
            feats[2, j] = orig + h
            lp = cross_entropy_loss(gcn_forward(feats, a_hat, model)[0], 1)
            feats[2, j] = orig - h
            lm = cross_entropy_loss(gcn_forward(feats, a_hat, model)[0], 1)
            feats[2, j] = orig
            assert dx[2, j] == pytest.approx((lp - lm) / (2 * h), abs=1e-7)

    def test_dropout_masks_replayed(self):
        rng = np.random.default_rng(22)
        g = toy_graph(rng, nodes=5)
        model = init_model(8, (6, 6), (5,), num_classes=3, dropout_p=0.4, rng=rng)
        probs, cache = gcn_forward(g.node_features, normalize_adjacency(g), model,
                                   train=True, rng=np.random.default_rng(0))
        grads, _ = backward(cache, 1)
        assert all(np.all(np.isfinite(p)) for p in grads.parameters())

    def test_accumulating_into_batch_grads_equals_scaled_sum(self):
        """backward(cache, label, grads, scale) adds scale times the fresh
        per-graph gradients, with the same float operations."""
        rng = np.random.default_rng(23)
        model = init_model(8, (6, 6), (5,), num_classes=3, dropout_p=0.0, rng=rng)
        caches = []
        for label in (0, 2, 1):
            g = toy_graph(rng, nodes=int(rng.integers(2, 7)))
            caches.append((gcn_forward(g.node_features, normalize_adjacency(g), model)[1],
                           label))
        scale = 1.0 / len(caches)
        batch = ModelGrads.zeros_like(model)
        expected = [np.zeros_like(p) for p in model.parameters()]
        for cache, label in caches:
            fresh, _ = backward(cache, label)
            for e, f in zip(expected, fresh.parameters()):
                e += scale * f
            assert backward(cache, label, batch, scale)[0] is batch
        for e, got in zip(expected, batch.parameters()):
            assert np.array_equal(e, got)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        rng = np.random.default_rng(30)
        model = init_model(4, (3,), (3,), num_classes=2, rng=rng)
        before = [p.copy() for p in model.parameters()]
        state = AdamState.for_model(model)
        adam_step(model, ModelGrads.zeros_like(model), state, lr=0.1)
        for b, p in zip(before, model.parameters()):
            assert np.array_equal(b, p)

    def test_first_step_magnitude_is_lr_sign(self):
        rng = np.random.default_rng(31)
        model = init_model(4, (3,), (3,), num_classes=2, rng=rng)
        before = [p.copy() for p in model.parameters()]
        grads = ModelGrads.zeros_like(model)
        for gp in grads.parameters():
            gp[:] = rng.normal(0, 1, gp.shape)
        state = AdamState.for_model(model)
        adam_step(model, grads, state, lr=1e-3)
        for b, p, gp in zip(before, model.parameters(), grads.parameters()):
            step = p - b
            expected = -1e-3 * np.sign(gp) * (np.abs(gp) / (np.abs(gp) + 1e-8))
            assert np.allclose(step, expected, atol=1e-9)

    def test_two_steps_match_scalar_trace(self):
        # hand-computed two-step Adam trace on a single scalar parameter
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g1, g2 = 0.3, -0.2
        theta = 1.0
        m = v = 0.0
        trace = []
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)
            trace.append(theta)

        model = init_model(1, (1,), (1,), num_classes=1, dropout_p=0.0)
        model.gcn_weights[0][:] = 1.0
        state = AdamState.for_model(model)
        grads = ModelGrads.zeros_like(model)
        for t, g in ((1, g1), (2, g2)):
            grads.gcn_weights[0][:] = g
            adam_step(model, grads, state, lr=lr)
            assert model.gcn_weights[0][0, 0] == pytest.approx(trace[t - 1], rel=1e-12)


class TestTrainEvaluate:
    def test_lr_zero_keeps_parameters_and_flat_loss(self):
        rng = np.random.default_rng(40)
        data = random_dataset(rng, count=4, dim=10)
        cfg = TrainConfig(learning_rate=0.0, epochs=5, dropout_p=0.0, seed=1,
                          gcn_dims=(6,), head_dims=(5,), num_classes=3)
        model, history = train(data, cfg)
        losses = [h["loss"] for h in history]
        assert max(losses) - min(losses) < 1e-12

    def test_same_seed_identical_history(self):
        rng = np.random.default_rng(41)
        data = random_dataset(rng, count=6, dim=12)
        cfg = TrainConfig(learning_rate=1e-3, epochs=8, dropout_p=0.3, seed=7,
                          gcn_dims=(8, 8), head_dims=(6,), num_classes=3)
        _, h1 = train(data, cfg)
        _, h2 = train(data, cfg)
        assert h1 == h2

    def test_overfits_small_dataset(self):
        rng = np.random.default_rng(42)
        data = random_dataset(rng, count=5, dim=20)
        cfg = TrainConfig(learning_rate=2e-4, batch_size=20, epochs=600,
                          dropout_p=0.0, seed=0, gcn_dims=(16, 16), head_dims=(12,),
                          num_classes=3)
        model, history = train(data, cfg)
        assert evaluate(model, data).accuracy == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainConfig())

    def test_uniform_model_predicts_lowest_index(self):
        rng = np.random.default_rng(43)
        data = random_dataset(rng, count=6, dim=10)      # labels 0,1,2,0,1,2
        model = init_model(10, (5,), (4,), num_classes=3, dropout_p=0.0, rng=rng)
        for p in model.parameters():
            p[:] = 0.0
        res = evaluate(model, data)
        assert np.all(res.predictions == 0)
        assert res.accuracy == pytest.approx(2 / 6)

    def test_confusion_matrix_row_sums(self):
        rng = np.random.default_rng(44)
        data = random_dataset(rng, count=9, dim=10)
        cfg = TrainConfig(learning_rate=1e-3, epochs=30, dropout_p=0.0, seed=3,
                          gcn_dims=(6,), head_dims=(5,), num_classes=3)
        model, _ = train(data, cfg)
        res = evaluate(model, data)
        labels = np.array([g.label for g in data])
        for c in range(3):
            assert res.confusion[c].sum() == (labels == c).sum()
        assert res.confusion.trace() == round(res.accuracy * len(data))

    def test_perfect_fixture_diagonal_confusion(self):
        rng = np.random.default_rng(45)
        data = random_dataset(rng, count=6, dim=15)
        cfg = TrainConfig(learning_rate=1e-3, epochs=300, dropout_p=0.0, seed=5,
                          gcn_dims=(10,), head_dims=(8,), num_classes=3)
        model, _ = train(data, cfg)
        res = evaluate(model, data)
        assert res.accuracy == 1.0
        assert np.all(res.confusion == np.diag(np.diag(res.confusion)))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(50)
        data = random_dataset(rng, count=4, dim=9)
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, dropout_p=0.2, seed=2,
                          gcn_dims=(5, 4), head_dims=(4,), num_classes=3)
        model, _ = train(data, cfg)
        path = tmp_path / "model.json"
        save_model(model, path, config=cfg)
        back = load_model(path)
        for a, b in zip(model.parameters(), back.parameters()):
            assert np.array_equal(a, b)
        assert np.array_equal(model.scaler.mean, back.scaler.mean)
        r1 = evaluate(model, data)
        r2 = evaluate(back, data)
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 9}')
        with pytest.raises(ValueError, match="format_version"):
            load_model(path)


class TestModelValidation:
    def test_rejects_broken_shape_chain(self):
        model = init_model(8, (5, 4), (6,), num_classes=3, dropout_p=0.0)
        bad_head = [w.copy() for w in model.linear_weights]
        bad_head[0] = np.zeros((7, 6))          # concat dim is 9, not 7
        with pytest.raises(ValueError):
            gcn.GcnModel(model.gcn_weights, bad_head, model.linear_biases)

    def test_rejects_nonfinite_parameters(self):
        model = init_model(8, (5,), (4,), num_classes=2, dropout_p=0.0)
        model.gcn_weights[0][0, 0] = np.nan
        with pytest.raises(ValueError):
            gcn.GcnModel(model.gcn_weights, model.linear_weights, model.linear_biases)

    def test_rejects_bad_dropout(self):
        model = init_model(8, (5,), (4,), num_classes=2, dropout_p=0.0)
        with pytest.raises(ValueError):
            gcn.GcnModel(model.gcn_weights, model.linear_weights,
                         model.linear_biases, dropout_p=1.0)
