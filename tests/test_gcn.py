import multiprocessing
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wsigraph import gcn
from wsigraph.gcn import (
    Adam,
    TrainConfig,
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
from wsigraph.errors import ValidationError
from wsigraph.image_graph import ImageGraph, build_image_graph

GOLDEN = Path(__file__).parent / "data" / "gcn_golden.npz"


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
        z = standardize_features(x).transform(x)
        assert np.all(z[:, 1] == 0.0)

    def test_train_matrix_is_standardized(self):
        rng = np.random.default_rng(1)
        x = rng.normal(3, 2, (50, 7))
        z = standardize_features(x).transform(x)
        assert np.allclose(z.mean(axis=0), 0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1, atol=1e-9)

    def test_test_set_uses_train_stats(self):
        train_m = np.array([[0.0], [2.0]])      # mean 1, sd 1
        test_m = np.array([[5.0]])
        assert standardize_features(train_m).transform(test_m).tolist() == [[4.0]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            standardize_features(np.zeros((0, 3)))

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_a_column_whose_spread_overflows_is_named(self, big):
        # its std would be inf, which transform maps to a constant 0 column
        x = np.array([[1.0, 2.0, big], [3.0, 1.0, -big], [2.0, 0.0, big]])
        with pytest.raises(ValidationError, match="feature column 2 has standard deviation "
                                                  "inf: its spread overflows float64"):
            standardize_features(x)


class TestForward:
    def test_zero_weights_give_uniform(self):
        rng = np.random.default_rng(2)
        g = toy_graph(rng)
        model = init_model(8, (5, 4), (6,), num_classes=4, dropout_p=0.0, rng=rng)
        for p in model.parameters():
            p[:] = 0.0
        probs, _ = gcn_forward(g, model)
        assert np.allclose(probs, 0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = toy_graph(rng)
            model = init_model(8, (6, 5), (7, 4), num_classes=3, dropout_p=0.0, rng=rng)
            probs, _ = gcn_forward(g, model)
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
        probs, cache = gcn_forward(ImageGraph(feats), model)
        logits = cache["logits"]
        assert np.allclose(logits, feats[0])
        e = np.exp(feats[0] - feats[0].max())
        assert np.allclose(probs, e / e.sum())

    def test_node_permutation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = toy_graph(rng, nodes=7)
            model = init_model(8, (6, 6), (5,), num_classes=3, dropout_p=0.0, rng=rng)
            p1, _ = gcn_forward(g, model)
            perm = rng.permutation(g.num_nodes)
            inv = np.argsort(perm)
            g2 = ImageGraph(
                g.node_features[perm],
                edges=[(min(inv[i], inv[j]), max(inv[i], inv[j]), w)
                       for i, j, w in g.edges],
                label=g.label,
            )
            p2, _ = gcn_forward(g2, model)
            assert np.allclose(p1, p2, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        model = init_model(8, (4,), (4,), num_classes=2, dropout_p=0.0)
        with pytest.raises(ValidationError, match="slide w has 5 features per node, "
                                                  "but the model takes 8"):
            gcn_forward(ImageGraph(np.ones((3, 5)), slide_id="w"), model)

    def test_graph_is_checked_as_evaluate_checks_it_but_its_label_is_not_read(self):
        model = init_model(2, (4,), (4,), num_classes=2, dropout_p=0.0)
        g = ImageGraph(np.ones((2, 2)), edges=[(0, 1, -1.0)], slide_id="neg")
        with pytest.raises(ValidationError, match=r"slide neg node 0 has 1 \+ weighted degree "
                                                  r"0 <= 0"):
            gcn_forward(g, model)
        assert gcn_forward(ImageGraph(np.ones((2, 2)), label=7), model)[0].shape == (2,)

    def test_dropout_requires_rng(self):
        model = init_model(8, (4,), (4,), num_classes=2, dropout_p=0.5)
        with pytest.raises(ValueError):
            gcn_forward(ImageGraph(np.ones((3, 8))), model, train=True)

    def test_eval_mode_ignores_dropout(self):
        rng = np.random.default_rng(5)
        g = toy_graph(rng)
        model = init_model(8, (6,), (5,), num_classes=3, dropout_p=0.5, rng=rng)
        p1, _ = gcn_forward(g, model, train=False)
        p2, _ = gcn_forward(g, model, train=False)
        assert np.array_equal(p1, p2)

    def test_trained_model_gives_the_probabilities_of_evaluates_pass(self, monkeypatch):
        # the model standardizes: gcn_forward prepares its graph as evaluate does
        dataset = random_dataset(np.random.default_rng(6), count=6)
        model, _ = train(dataset, TrainConfig(epochs=5, batch_size=4, seed=2))
        assert model.scaler is not None
        passes, real_forward = [], gcn._forward

        def spy(*args):
            passes.append(real_forward(*args)["probs"])
            return {"probs": passes[-1]}
        monkeypatch.setattr(gcn, "_forward", spy)
        for g in dataset:
            evaluate(model, [g])
        evaluate(model, dataset)        # one pass stacks all six graphs
        monkeypatch.setattr(gcn, "_forward", real_forward)
        assert [p.shape for p in passes] == [(1, 3)] * 6 + [(6, 3)]
        for g, alone, stacked in zip(dataset, passes, passes[-1]):
            probs = gcn_forward(g, model)[0]
            assert np.array_equal(probs, alone[0])
            np.testing.assert_allclose(probs, stacked, rtol=0, atol=1e-12)
        # the raw features, unstandardized, would give other probabilities
        a_hat = normalize_adjacency(dataset[0])
        raw = gcn._forward(model, [(a_hat @ dataset[0].node_features, a_hat)], None,
                           gcn._Workspace())["probs"][0]
        assert np.abs(raw - passes[0][0]).max() > 0.01

    def test_model_without_a_scaler_propagates_the_raw_features(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = toy_graph(rng, nodes=int(rng.integers(1, 9)))
            model = init_model(8, (6, 5), (4,), num_classes=3, dropout_p=0.0, rng=rng)
            a_hat = normalize_adjacency(g)
            want = gcn._forward(model, [(a_hat @ g.node_features, a_hat)], None,
                                gcn._Workspace())["probs"][0]
            assert np.array_equal(gcn_forward(g, model)[0], want)


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
            gcn_dims = tuple(int(d) for d in rng.integers(3, 7, rng.integers(1, 4)))
            head_dims = tuple(int(d) for d in rng.integers(3, 7, rng.integers(1, 3)))
            classes = int(rng.integers(2, 5))
            label = int(rng.integers(0, classes))
            model = init_model(dim, gcn_dims, head_dims, classes, dropout_p=0.0, rng=rng)
            # keep pre-activations off the ReLU kink, where central
            # differences and the subgradient legitimately disagree
            for b in model.linear_biases:
                b[:] = rng.uniform(0.05, 0.3, b.shape)
            _, cache = gcn_forward(g, model)
            grads, _ = backward(cache, label)
            for p, gr in zip(model.parameters(), grads.parameters()):
                flat, gflat = p.reshape(-1), gr.reshape(-1)
                for idx in range(len(flat)):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp = cross_entropy_loss(gcn_forward(g, model)[0], label)
                    flat[idx] = orig - h
                    lm = cross_entropy_loss(gcn_forward(g, model)[0], label)
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
        probs, cache = gcn_forward(g, model)
        grads, _ = backward(cache, 0)
        assert cross_entropy_loss(probs, 0) == pytest.approx(0.0, abs=1e-12)
        assert np.abs(grads.linear_biases[-1]).max() < 1e-12

    def test_isolated_node_feature_gradient(self):
        # node 2 is isolated: its input-feature gradient must match finite
        # differences (it flows only through its own adjacency row)
        rng = np.random.default_rng(21)
        g = ImageGraph(rng.normal(0, 1, (3, 6)), edges=[(0, 1, 0.9)], label=1)
        assert normalize_adjacency(g)[2].tolist() == [0.0, 0.0, 1.0]
        model = init_model(6, (5, 4), (4,), num_classes=2, dropout_p=0.0, rng=rng)
        _, cache = gcn_forward(g, model)
        _, dx = backward(cache, 1)
        h = 1e-6
        feats = g.node_features
        for j in range(feats.shape[1]):
            orig = feats[2, j]
            feats[2, j] = orig + h
            lp = cross_entropy_loss(gcn_forward(g, model)[0], 1)
            feats[2, j] = orig - h
            lm = cross_entropy_loss(gcn_forward(g, model)[0], 1)
            feats[2, j] = orig
            assert dx[2, j] == pytest.approx((lp - lm) / (2 * h), abs=1e-7)

    def test_feature_gradient_is_taken_at_the_standardized_features(self):
        # raw x = mean + std * z, so dL/dx = dL/dz / std
        rng = np.random.default_rng(25)
        g = toy_graph(rng, nodes=4, dim=5)
        model = init_model(5, (5, 4), (4,), num_classes=3, dropout_p=0.0, rng=rng)
        model.scaler = gcn.FeatureScaler(mean=rng.normal(0, 1, 5), std=np.array(
            [0.5, 2.0, 4.0, 1.0, 0.25]))
        for b in model.linear_biases:
            b[:] = rng.uniform(0.05, 0.3, b.shape)
        _, cache = gcn_forward(g, model)
        _, dz = backward(cache, 2)
        h = 1e-6
        feats = g.node_features
        for i, j in np.ndindex(feats.shape):
            orig = feats[i, j]
            feats[i, j] = orig + h
            lp = cross_entropy_loss(gcn_forward(g, model)[0], 2)
            feats[i, j] = orig - h
            lm = cross_entropy_loss(gcn_forward(g, model)[0], 2)
            feats[i, j] = orig
            assert dz[i, j] / model.scaler.std[j] == pytest.approx((lp - lm) / (2 * h),
                                                                   abs=1e-6)

    def test_dropout_masks_replayed(self):
        rng = np.random.default_rng(22)
        g = toy_graph(rng, nodes=5)
        model = init_model(8, (6, 6), (5,), num_classes=3, dropout_p=0.4, rng=rng)
        probs, cache = gcn_forward(g, model, train=True, rng=np.random.default_rng(0))
        grads, _ = backward(cache, 1)
        assert all(np.all(np.isfinite(p)) for p in grads.parameters())

    def test_accumulating_into_batch_grads_equals_scaled_sum(self):
        """A pass over a batch adds 1/batch size times the sum of the
        per-graph backward() gradients, with the same dropout masks as
        graph-by-graph forwards."""
        rng = np.random.default_rng(23)
        model = init_model(8, (6, 6), (5,), num_classes=3, dropout_p=0.3, rng=rng)
        graphs = [toy_graph(rng, nodes=int(rng.integers(1, 9))) for _ in range(5)]
        labels = np.array([0, 2, 1, 1, 0])
        expected = np.zeros_like(model.flat)
        stream = np.random.default_rng(7)
        for g, label in zip(graphs, labels):
            _, cache = gcn_forward(g, model, train=True, rng=stream)
            expected += backward(cache, int(label))[0].flat / len(graphs)
        start = rng.normal(0.0, 1.0, model.flat.shape)
        grad = start.copy()
        prepared = gcn._prepare(graphs, model)
        sizes = [g.num_nodes for g in graphs]
        assert len(gcn._passes(range(5), sizes)) == 1
        gcn._batch_gradient(model, prepared, sizes, labels, list(range(5)),
                            np.random.default_rng(7), grad, [])
        np.testing.assert_allclose(grad - start, expected, rtol=0, atol=1e-12)

    def test_node_budget_split_gives_the_one_pass_gradient(self, monkeypatch):
        rng = np.random.default_rng(24)
        model = init_model(8, (6, 5, 4), (5, 4), num_classes=3, dropout_p=0.3, rng=rng)
        graphs = [toy_graph(rng, nodes=n) for n in (7, 1, 12, 5, 9, 3)]
        labels = np.array([g.label for g in graphs])
        prepared = gcn._prepare(graphs, model)
        sizes = [g.num_nodes for g in graphs]
        batch = [4, 0, 5, 2, 1, 3]
        out = {}
        for budget, runs in ((1000, 1), (12, 4)):
            monkeypatch.setattr(gcn, "PASS_NODES", budget)
            assert len(gcn._passes(batch, sizes)) == runs
            grad = np.zeros_like(model.flat)
            probs = gcn._batch_gradient(model, prepared, sizes, labels, batch,
                                        np.random.default_rng(3), grad, [])
            out[runs] = grad, probs
        np.testing.assert_allclose(out[4][0], out[1][0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[4][1], out[1][1], rtol=0, atol=1e-12)

    def test_passes_pack_consecutive_graphs_within_the_budget(self, monkeypatch):
        monkeypatch.setattr(gcn, "PASS_NODES", 10)
        sizes = [4, 6, 1, 30, 2, 9, 10]
        assert gcn._passes([0, 1, 2, 3, 4, 5, 6], sizes) == [[0, 1], [2], [3], [4], [5], [6]]
        assert gcn._passes([2, 4, 0], sizes) == [[2, 4, 0]]
        assert gcn._passes([], sizes) == []


def reference_adam_steps(params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam applied tensor by tensor, one gradient list per step."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, step_grads in enumerate(grads, start=1):
        for p, g, mi, vi in zip(params, step_grads, m, v):
            mi[:] = beta1 * mi + (1.0 - beta1) * g
            vi[:] = beta2 * vi + (1.0 - beta2) * g * g
            mhat = mi / (1.0 - beta1**t)
            vhat = vi / (1.0 - beta2**t)
            p -= lr * mhat / (np.sqrt(vhat) + eps)
    return params


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        rng = np.random.default_rng(30)
        model = init_model(4, (3,), (3,), num_classes=2, rng=rng)
        before = model.flat.copy()
        Adam(model.flat.size, lr=0.1).step(model.flat, np.zeros_like(model.flat))
        assert np.array_equal(before, model.flat)

    def test_first_step_magnitude_is_lr_sign(self):
        rng = np.random.default_rng(31)
        model = init_model(4, (3,), (3,), num_classes=2, rng=rng)
        before = model.flat.copy()
        grad = rng.normal(0, 1, model.flat.shape)
        Adam(model.flat.size, lr=1e-3).step(model.flat, grad)
        step = model.flat - before
        expected = -1e-3 * np.sign(grad) * (np.abs(grad) / (np.abs(grad) + 1e-8))
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
        adam = Adam(model.flat.size, lr=lr)
        grad = np.zeros_like(model.flat)
        grad_gcn, _, _ = model.unflatten(grad)
        for t, g in ((1, g1), (2, g2)):
            grad_gcn[0][:] = g
            adam.step(model.flat, grad)
            assert model.gcn_weights[0][0, 0] == pytest.approx(trace[t - 1], rel=1e-12)

    def test_flat_steps_equal_tensor_by_tensor_steps_bitwise(self):
        rng = np.random.default_rng(32)
        model = init_model(5, (4, 3), (6,), num_classes=3, rng=rng)
        grads = [rng.normal(0, 1, model.flat.shape) * 10.0 ** rng.integers(-6, 2)
                 for _ in range(5)]
        per_tensor = [[t for part in model.unflatten(g) for t in part] for g in grads]
        expected = reference_adam_steps(model.parameters(), per_tensor, lr=3e-3)
        adam = Adam(model.flat.size, lr=3e-3)
        for g in grads:
            adam.step(model.flat, g)
        for e, got in zip(expected, model.parameters()):
            assert np.array_equal(e, got)


class TestTrainEvaluate:
    def test_golden_run_of_the_per_graph_training_loop(self):
        """Final parameters and loss history of a fixed training run.

        The stored values come from the training loop that ran one
        forward/backward per graph and Adam tensor by tensor: ten graphs of
        1 to 300 nodes (the 300- and 260-node graphs cannot share a pass),
        dropout 0.3, batches of 4, 12 epochs.  Summation orders differ, so
        the bound is absolute, 1e-9.
        """
        g = np.load(GOLDEN)
        nodes = np.concatenate([[0], np.cumsum(g["counts"])])
        ends = np.concatenate([[0], np.cumsum(g["edge_counts"])])
        data = [
            ImageGraph(g["features"][nodes[i]:nodes[i + 1]],
                       edges=[(int(u), int(v), w) for u, v, w in g["edges"][ends[i]:ends[i + 1]]],
                       label=int(g["labels"][i]))
            for i in range(len(g["counts"]))
        ]
        cfg = TrainConfig(learning_rate=float(g["learning_rate"]),
                          batch_size=int(g["batch_size"]), epochs=int(g["epochs"]),
                          dropout_p=float(g["dropout_p"]), seed=int(g["seed"]),
                          gcn_dims=tuple(g["gcn_dims"]), head_dims=tuple(g["head_dims"]),
                          num_classes=int(g["num_classes"]))
        model, history = train(data, cfg)
        np.testing.assert_allclose(model.flat, g["parameters"], rtol=0, atol=1e-9)
        np.testing.assert_allclose([h["loss"] for h in history], g["loss"], rtol=0, atol=1e-9)
        assert [h["accuracy"] for h in history] == g["accuracy"].tolist()

    def test_lr_zero_keeps_parameters_and_flat_loss(self):
        rng = np.random.default_rng(40)
        data = random_dataset(rng, count=4, dim=10)
        cfg = TrainConfig(learning_rate=0.0, epochs=5, dropout_p=0.0, seed=1,
                          gcn_dims=(6,), head_dims=(5,), num_classes=3)
        model, history = train(data, cfg)
        losses = [h["loss"] for h in history]
        assert max(losses) - min(losses) < 1e-12

    def test_parameters_that_leave_the_floats_after_the_last_step_raise(self, monkeypatch):
        data = random_dataset(np.random.default_rng(40), count=4, dim=10)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2, dropout_p=0.0, seed=1,
                          gcn_dims=(6,), head_dims=(5,), num_classes=3)
        steps, real_step = [], Adam.step

        def step(self, params, grad):
            real_step(self, params, grad)
            steps.append(1)
            if len(steps) == cfg.epochs:
                params[0] = np.inf     # the last step; every loss was finite

        monkeypatch.setattr(Adam, "step", step)
        with pytest.raises(ValidationError, match=r"training diverged at epoch 1: a parameter "
                                                  r"is not finite \(learning_rate 0\.001\)"):
            train(data, cfg)

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

    def test_non_finite_probabilities_name_the_first_slide(self):
        rng = np.random.default_rng(43)
        data = random_dataset(rng, count=3, dim=10)
        model = init_model(10, (5,), (4,), num_classes=3, dropout_p=0.0, rng=rng)
        model.flat[:] = 1e300       # finite weights whose forward pass overflows
        with pytest.warns(RuntimeWarning, match="(overflow|invalid value) encountered"):
            with pytest.raises(ValidationError, match="slide g0 has class probabilities "
                                                      "that are not finite"):
                evaluate(model, data)

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

    def test_zero_classes_rejected(self):
        data = random_dataset(np.random.default_rng(46), count=3, dim=10)
        with pytest.raises(ValidationError, match="num_classes must be >= 1, got 0"):
            train(data, TrainConfig(epochs=1, num_classes=0))

    @pytest.mark.parametrize("bad, message", [
        (ImageGraph(np.ones((2, 9)), label=0, slide_id="narrow"),
         "slide narrow has 9 features per node, but the model takes 10"),
        (ImageGraph(np.ones((2, 10)), label=3, slide_id="high"),
         "slide high has label 3, but the model has 3 classes"),
        (ImageGraph(np.ones((2, 10)), label=-1, slide_id="unlabelled"),
         "slide unlabelled has no label"),
        (ImageGraph(np.ones((2, 10)), [(0, 1, -1.0)], label=0, slide_id="negative"),
         r"slide negative node 0 has 1 \+ weighted degree 0 <= 0, so its GCN normalization "
         "is undefined"),
    ])
    def test_train_and_evaluate_name_the_bad_slide(self, bad, message):
        data = random_dataset(np.random.default_rng(47), count=3, dim=10)
        cfg = TrainConfig(epochs=1, gcn_dims=(4,), head_dims=(3,), num_classes=3)
        with pytest.raises(ValidationError, match=message):
            train(data + [bad], cfg)
        model, _ = train(data, cfg)
        if bad.label >= 0:      # evaluation takes unlabelled slides
            with pytest.raises(ValidationError, match=message):
                evaluate(model, data + [bad])


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
    def test_parameters_are_views_of_one_flat_vector(self):
        model = init_model(6, (5, 4), (3,), num_classes=2, dropout_p=0.0)
        params = model.parameters()
        assert model.flat.size == sum(p.size for p in params)
        assert all(np.shares_memory(p, model.flat) for p in params)
        model.flat[:] = np.arange(model.flat.size)
        assert np.array_equal(np.concatenate([p.ravel() for p in params]), model.flat)

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


def multi_pass_run(monkeypatch, threads=2):
    """Graphs of 5 to 9 nodes at 10 nodes per pass: batches of six graphs
    run in 3 to 6 passes, on `threads` usable cores."""
    monkeypatch.setattr(gcn, "PASS_NODES", 10)
    monkeypatch.setattr(gcn, "usable_cores", lambda: threads)
    rng = np.random.default_rng(60)
    data = [toy_graph(rng, nodes=int(rng.integers(5, 10)), dim=12) for _ in range(12)]
    cfg = TrainConfig(learning_rate=1e-2, batch_size=6, epochs=4, dropout_p=0.3, seed=5,
                      gcn_dims=(6, 5), head_dims=(5,), num_classes=3)
    return data, cfg


def _train_in_child(data, cfg, send):
    model, history = train(data, cfg)
    send.send((model.flat, history))


class TestPassThreads:
    """A batch's passes run on min(passes, usable cores) threads with bitwise
    the one-thread result; evaluate's passes run on the calling thread."""

    @staticmethod
    def record_forwards(monkeypatch):
        """Wrap _forward; returns a list of (first A_hat, probs, thread id) per pass."""
        real, log = gcn._forward, []

        def forward(model, graphs, *args):
            cache = real(model, graphs, *args)
            log.append((graphs[0][1].tobytes(), cache["probs"], threading.get_ident()))
            return cache

        monkeypatch.setattr(gcn, "_forward", forward)
        return log

    def test_any_thread_count_gives_the_same_bits(self, monkeypatch):
        data, cfg = multi_pass_run(monkeypatch)
        real_passes, pass_counts = gcn._passes, []

        def passes(batch, sizes):
            runs = real_passes(batch, sizes)
            pass_counts.append(len(runs))
            return runs

        monkeypatch.setattr(gcn, "_passes", passes)
        log = self.record_forwards(monkeypatch)
        runs = {}
        for threads in (1, 2, 3):
            monkeypatch.setattr(gcn, "usable_cores", lambda: threads)
            model, history = train(data, cfg)
            assert len({ident for *_, ident in log}) == threads
            log.clear()
            predictions = evaluate(model, data).predictions
            assert {ident for *_, ident in log} == {threading.get_ident()}
            evaluated = {first: probs for first, probs, _ in log}
            assert len(evaluated) == len(log) >= 2
            log.clear()
            runs[threads] = model.flat, history, predictions, evaluated
        assert min(pass_counts) >= 3
        flat, history, predictions, evaluated = runs[1]
        for other in (runs[2], runs[3]):
            assert np.array_equal(other[0], flat)
            assert other[1] == history
            assert np.array_equal(other[2], predictions)
            assert other[3].keys() == evaluated.keys()
            assert all(np.array_equal(other[3][k], evaluated[k]) for k in evaluated)

    def test_an_empty_evaluation_set_runs_no_pass(self):
        model = init_model(4, (3,), (2,), num_classes=2, dropout_p=0.0)
        res = evaluate(model, [])
        assert res.accuracy is None and res.predictions.size == 0
        assert np.array_equal(res.confusion, np.zeros((2, 2)))

    def test_graphs_are_normalized_on_the_calling_thread(self, monkeypatch):
        data, cfg = multi_pass_run(monkeypatch, threads=3)
        real, callers = gcn.normalize_adjacency, set()

        def normalize(g):
            callers.add(threading.get_ident())
            return real(g)

        monkeypatch.setattr(gcn, "normalize_adjacency", normalize)
        log = self.record_forwards(monkeypatch)
        model, _ = train(data, cfg)
        assert len({ident for *_, ident in log}) == 3
        log.clear()
        evaluate(model, data)
        assert log and {ident for *_, ident in log} == {threading.get_ident()}
        assert callers == {threading.get_ident()}

    def test_more_threads_than_cores_under_fast_switching_give_the_same_bits(self, monkeypatch):
        # a lost or reordered update of the batch gradient would change the model
        data, cfg = multi_pass_run(monkeypatch, threads=1)
        want_model, want_history = train(data, cfg)
        monkeypatch.setattr(gcn, "usable_cores", lambda: 6)
        got, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: got.append(train(data, cfg)), daemon=True)
            worker.start()
            worker.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and got, "training did not finish in 120 s"
        assert np.array_equal(got[0][0].flat, want_model.flat) and got[0][1] == want_history

    def test_passes_run_under_the_callers_errstate(self, monkeypatch):
        data, cfg = multi_pass_run(monkeypatch, threads=3)
        real, settings = gcn._forward, []

        def forward(model, graphs, *args):
            settings.append((threading.get_ident(), np.geterr()["over"]))
            return real(model, graphs, *args)

        monkeypatch.setattr(gcn, "_forward", forward)
        with np.errstate(over="raise"):
            model, _ = train(data, cfg)
            evaluate(model, data)
        assert len({ident for ident, _ in settings}) == 3
        assert {over for _, over in settings} == {"raise"}

    def test_the_first_failed_pass_is_raised_and_the_threads_recover(self, monkeypatch):
        data, cfg = multi_pass_run(monkeypatch, threads=3)
        want = train(data, cfg)[0].flat
        real, caller = gcn._forward, threading.get_ident()

        def forward(model, graphs, *args):
            if threading.get_ident() != caller:
                raise FloatingPointError(f"pass of {len(graphs)} graphs failed")
            return real(model, graphs, *args)

        monkeypatch.setattr(gcn, "_forward", forward)
        with pytest.raises(FloatingPointError, match="failed"):
            train(data, cfg)
        monkeypatch.setattr(gcn, "_forward", real)
        assert np.array_equal(train(data, cfg)[0].flat, want)

    def test_passes_that_finish_out_of_order_give_the_one_thread_bits(self, monkeypatch):
        # the caller's passes are slowed, so the helpers' later passes finish first
        data, cfg = multi_pass_run(monkeypatch, threads=1)
        want_model, want_history = train(data, cfg)
        real, caller = gcn._forward, threading.get_ident()

        def forward(model, graphs, *args):
            if threading.get_ident() == caller:
                time.sleep(0.02)
            return real(model, graphs, *args)

        monkeypatch.setattr(gcn, "_forward", forward)
        for threads in (2, 3):
            monkeypatch.setattr(gcn, "usable_cores", lambda: threads)
            model, history = train(data, cfg)
            assert np.array_equal(model.flat, want_model.flat) and history == want_history

    def test_the_first_failure_in_pass_order_is_raised_after_every_pass_left(self,
                                                                          monkeypatch):
        # pass 2 fails at once, pass 1 later, each on its own helper
        data, cfg = multi_pass_run(monkeypatch, threads=3)
        want = train(data, cfg)[0].flat
        real_prepare, real_passes = gcn._prepare, gcn._passes
        real_forward, real_backward = gcn._forward, gcn._backward
        prepared, first_runs, lock, inside = [], [], threading.Lock(), [0]

        def prepare(dataset, model):
            prepared[:] = real_prepare(dataset, model)
            return prepared

        def passes(batch, sizes):
            runs = real_passes(batch, sizes)
            first_runs.append(runs)
            return runs

        def counted(real):
            def call(*args):
                with lock:
                    inside[0] += 1
                try:
                    return real(*args)
                finally:
                    with lock:
                        inside[0] -= 1
            return call

        def forward(model, graphs, *args):
            runs = first_runs[0]
            if graphs[0] is prepared[runs[1][0]]:
                time.sleep(0.05)
                raise FloatingPointError("pass 1 failed")
            if graphs[0] is prepared[runs[2][0]]:
                raise FloatingPointError("pass 2 failed")
            return real_forward(model, graphs, *args)

        monkeypatch.setattr(gcn, "_prepare", prepare)
        monkeypatch.setattr(gcn, "_passes", passes)
        monkeypatch.setattr(gcn, "_forward", counted(forward))
        monkeypatch.setattr(gcn, "_backward", counted(real_backward))
        with pytest.raises(FloatingPointError, match="pass 1 failed"):
            train(data, cfg)
        assert len(first_runs) == 1 and len(first_runs[0]) >= 3
        assert inside[0] == 0
        monkeypatch.setattr(gcn, "_forward", real_forward)
        monkeypatch.setattr(gcn, "_backward", real_backward)
        assert np.array_equal(train(data, cfg)[0].flat, want)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_a_forked_child_trains_on_threads_of_its_own(self, monkeypatch):
        data, cfg = multi_pass_run(monkeypatch)
        model, history = train(data, cfg)
        assert gcn._helpers                 # the parent's helper thread is running
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_train_in_child, args=(data, cfg, send))
        child.start()
        try:
            # a child that queued its passes to the parent's threads would hang here
            assert receive.poll(60), "the forked child did not finish training in 60 s"
            flat, child_history = receive.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0
        assert np.array_equal(flat, model.flat) and child_history == history


class TestWorkspaces:
    """A train call's passes write their node-sized arrays into workspaces
    that it allocates once, so a warm batch allocates none."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_warm_batch_allocates_less_than_one_node_matrix(self, monkeypatch, threads):
        monkeypatch.setattr(gcn, "usable_cores", lambda: threads)
        graphs = random_dataset(np.random.default_rng(70), count=6, nodes=400)
        model = init_model(69, rng=np.random.default_rng(71))      # GCN widths 128
        prepared = gcn._prepare(graphs, model)
        sizes, labels = [400] * 6, np.array([g.label for g in graphs])
        assert len(gcn._passes(range(6), sizes)) == 6
        grad, spaces, rng = np.zeros_like(model.flat), [], np.random.default_rng(72)
        tracemalloc.start()
        try:
            gcn._batch_gradient(model, prepared, sizes, labels, range(6), rng, grad, spaces)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gcn._batch_gradient(model, prepared, sizes, labels, range(6), rng, grad, spaces)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        bound = 400 * 128 * 8       # one 400-node x 128-wide float64 array: 409,600 bytes
        assert peak < bound

    def test_reused_buffers_give_the_bits_of_fresh_ones_on_any_thread_count(self, monkeypatch):
        # passes of 450 + 60, 300 + 200, 450 ... nodes: buffers grow and are reused at
        # other sizes, while fresh NaN-filled ones would show any read of a stale value
        rng = np.random.default_rng(74)
        data = [build_image_graph(np.abs(rng.normal(1.0, 0.6, (n, 12))), theta=0.9,
                                  slide_id=f"g{i}", label=i % 3)
                for i, n in enumerate((450, 300, 200, 60))]
        cfg = TrainConfig(learning_rate=1e-2, batch_size=4, epochs=4, dropout_p=0.3, seed=10,
                          gcn_dims=(16, 8), head_dims=(8,), num_classes=3)
        pass_counts = set()
        real_passes = gcn._passes
        monkeypatch.setattr(gcn, "_passes", lambda batch, sizes: (
            pass_counts.add(len(real_passes(batch, sizes))) or real_passes(batch, sizes)))
        runs = {}
        for threads in (1, 2, 3):
            monkeypatch.setattr(gcn, "usable_cores", lambda: threads)
            runs[threads] = train(data, cfg)
        with monkeypatch.context() as fresh:
            fresh.setattr(gcn._Workspace, "take", lambda self, name, shape, dtype=np.float64:
                          np.full(shape, np.nan if dtype == np.float64 else True, dtype))
            want_model, want_history = train(data, cfg)
        assert pass_counts >= {2, 3}
        for model, history in runs.values():
            assert np.array_equal(model.flat, want_model.flat) and history == want_history
