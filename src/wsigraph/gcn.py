"""Graph-convolutional slide classifier.

Forward pass per slide graph: L graph convolutions over the symmetric,
self-loop-normalized weighted adjacency, ReLU, dropout; each layer's
post-ReLU node matrix is global-mean-pooled and the pooled vectors are
concatenated; a stack of linear+ReLU+dropout layers and a final linear map
feed a softmax.  Gradients are exact reverse-mode derivatives of this
computation (dropout masks replayed from the forward cache), optimized with
Adam.  Everything runs in float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .image_graph import ImageGraph

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# model parameters and state

@dataclass
class GcnModel:
    """All learnable parameters; weights are (in_dim, out_dim) matrices."""

    gcn_weights: list
    linear_weights: list
    linear_biases: list
    dropout_p: float = 0.3
    scaler: "FeatureScaler | None" = None

    def __post_init__(self):
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")
        concat = sum(w.shape[1] for w in self.gcn_weights)
        if self.linear_weights[0].shape[0] != concat:
            raise ValueError("head input dim must equal the concatenated pooled dim")
        for w, b in zip(self.linear_weights, self.linear_biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias shape must match linear output dim")
        for a, b in zip(self.linear_weights[:-1], self.linear_weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ValueError("inconsistent head dims")
        for a, b in zip(self.gcn_weights[:-1], self.gcn_weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ValueError("inconsistent GCN dims")
        for p in self.parameters():
            if not np.all(np.isfinite(p)):
                raise ValueError("parameters must be finite")

    @property
    def input_dim(self) -> int:
        return self.gcn_weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.linear_weights[-1].shape[1]

    @property
    def layer_dims(self) -> dict:
        return {
            "input_dim": int(self.gcn_weights[0].shape[0]),
            "gcn_dims": [int(w.shape[1]) for w in self.gcn_weights],
            "head_dims": [int(w.shape[1]) for w in self.linear_weights[:-1]],
            "num_classes": int(self.linear_weights[-1].shape[1]),
        }

    def parameters(self) -> list:
        return list(self.gcn_weights) + list(self.linear_weights) + list(self.linear_biases)


@dataclass
class ModelGrads:
    gcn_weights: list
    linear_weights: list
    linear_biases: list

    def parameters(self) -> list:
        return list(self.gcn_weights) + list(self.linear_weights) + list(self.linear_biases)

    @classmethod
    def zeros_like(cls, model: GcnModel) -> "ModelGrads":
        return cls(
            [np.zeros_like(w) for w in model.gcn_weights],
            [np.zeros_like(w) for w in model.linear_weights],
            [np.zeros_like(b) for b in model.linear_biases],
        )


@dataclass
class AdamState:
    """First/second moment accumulators per parameter, plus the timestep."""

    m: list
    v: list
    t: int = 0

    @classmethod
    def for_model(cls, model: GcnModel) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in model.parameters()],
            v=[np.zeros_like(p) for p in model.parameters()],
        )


@dataclass
class TrainConfig:
    learning_rate: float = 2e-4
    batch_size: int = 20
    epochs: int = 600
    dropout_p: float = 0.3
    seed: int = 0
    gcn_dims: tuple = (128, 128, 128)
    head_dims: tuple = (128, 64)
    num_classes: int | None = None
    standardize: bool = True

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        self.gcn_dims = tuple(int(d) for d in self.gcn_dims)
        self.head_dims = tuple(int(d) for d in self.head_dims)


def init_model(input_dim: int, gcn_dims=(128, 128, 128), head_dims=(128, 64),
               num_classes: int = 3, dropout_p: float = 0.3,
               rng: np.random.Generator | None = None) -> GcnModel:
    """Glorot-uniform weights, zero biases."""
    rng = rng or np.random.default_rng(0)

    def glorot(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_in, fan_out))

    gcn_weights = []
    d = input_dim
    for width in gcn_dims:
        gcn_weights.append(glorot(d, width))
        d = width
    concat = sum(gcn_dims)
    linear_weights, linear_biases = [], []
    d = concat
    for width in tuple(head_dims) + (num_classes,):
        linear_weights.append(glorot(d, width))
        linear_biases.append(np.zeros(width))
        d = width
    return GcnModel(gcn_weights, linear_weights, linear_biases, dropout_p=dropout_p)


# ---------------------------------------------------------------------------
# feature standardization

@dataclass
class FeatureScaler:
    """Per-column (x - mean) / sd fitted on the training fold only."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        inv = np.where(self.std > 0, 1.0 / np.where(self.std > 0, self.std, 1.0), 0.0)
        return (x - self.mean) * inv


def standardize_features(train_matrix) -> tuple[FeatureScaler, "callable"]:
    """Fit standardization stats on the training matrix.

    Returns (stats, transform); constant columns transform to exactly 0 and
    the same transform must be applied to validation/test features.
    """
    x = np.asarray(train_matrix, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("training matrix must be non-empty and 2-D")
    scaler = FeatureScaler(mean=x.mean(axis=0), std=x.std(axis=0))
    return scaler, scaler.transform


# ---------------------------------------------------------------------------
# adjacency normalization and the forward/backward passes

def normalize_adjacency(g: ImageGraph) -> np.ndarray:
    """D^{-1/2} (A' + I) D^{-1/2} over the weighted adjacency A'.

    An isolated node's row is 1 at its own diagonal, so it still propagates
    its own features.
    """
    a = g.adjacency_matrix()
    np.fill_diagonal(a, a.diagonal() + 1.0)
    deg = a.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def gcn_forward(features, a_hat, model: GcnModel, train: bool = False,
                rng: np.random.Generator | None = None):
    """One slide-graph forward pass.

    Returns (class probabilities, cache).  The cache carries every
    intermediate needed by backward(); eval mode disables dropout.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(
            f"feature width {x.shape} does not match model input dim {model.input_dim}"
        )
    if len(x) == 0:
        raise ValueError("graph has no nodes")
    a_hat = np.asarray(a_hat, dtype=np.float64)
    if a_hat.shape != (len(x), len(x)):
        raise ValueError("adjacency shape must match node count")
    p = model.dropout_p
    use_dropout = train and p > 0.0
    if use_dropout and rng is None:
        raise ValueError("training with dropout requires an rng")

    n = len(x)
    gcn_cache = []
    pooled = []
    xl = x
    last = len(model.gcn_weights) - 1
    for l, w in enumerate(model.gcn_weights):
        s = a_hat @ xl
        z = s @ w
        r = np.maximum(z, 0.0)
        pooled.append(r.mean(axis=0))
        mask = None
        nxt = r
        if l != last:
            if use_dropout:
                mask = (rng.random(r.shape) >= p) / (1.0 - p)
                nxt = r * mask
            gcn_cache.append((xl, s, z, mask))
            xl = nxt
        else:
            gcn_cache.append((xl, s, z, None))
    pcat = np.concatenate(pooled)

    head_cache = []
    z_in = pcat
    for w, b in zip(model.linear_weights[:-1], model.linear_biases[:-1]):
        a = z_in @ w + b
        r = np.maximum(a, 0.0)
        mask = None
        if use_dropout:
            mask = (rng.random(r.shape) >= p) / (1.0 - p)
            r = r * mask
        head_cache.append((z_in, a, mask))
        z_in = r
    logits = z_in @ model.linear_weights[-1] + model.linear_biases[-1]
    probs = _softmax(logits)

    cache = {
        "model": model,
        "a_hat": a_hat,
        "n": n,
        "gcn": gcn_cache,
        "pooled_dims": [len(v) for v in pooled],
        "head": head_cache,
        "last_head_in": z_in,
        "logits": logits,
        "probs": probs,
    }
    return probs, cache


def cross_entropy_loss(probs, labels) -> float:
    """Mean negative log probability of the true class.

    Accepts a single distribution with an integer label or a (B, C) batch
    with a length-B label vector; probabilities are clamped at 1e-12.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
        labels = np.array([labels])
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or len(y) != len(p):
        raise ValueError("labels must be one integer per distribution")
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise ValueError("label out of range")
    picked = p[np.arange(len(p)), y]
    return float(-np.log(np.clip(picked, 1e-12, None)).mean())


def _accumulate(dst: np.ndarray, term: np.ndarray, scale: float) -> None:
    """dst += scale * term, scaling the freshly computed `term` in place."""
    term *= scale
    dst += term


def backward(cache, label: int, grads: ModelGrads | None = None, scale: float = 1.0):
    """Gradients of the cross-entropy loss for one graph.

    Adds `scale` times this graph's gradients into `grads` (fresh zeros when
    None) and returns (grads, input feature gradient).  Dropout masks are
    replayed from the forward cache.
    """
    model: GcnModel = cache["model"]
    a_hat = cache["a_hat"]
    probs = cache["probs"]
    n = cache["n"]
    num_classes = model.num_classes
    if not (0 <= label < num_classes):
        raise ValueError("label out of range")

    if grads is None:
        grads = ModelGrads.zeros_like(model)

    dlogits = probs.copy()
    dlogits[label] -= 1.0

    z_last = cache["last_head_in"]
    _accumulate(grads.linear_weights[-1], np.outer(z_last, dlogits), scale)
    grads.linear_biases[-1] += scale * dlogits
    dz = model.linear_weights[-1] @ dlogits

    for j in range(len(cache["head"]) - 1, -1, -1):
        z_in, a, mask = cache["head"][j]
        dr = dz if mask is None else dz * mask
        da = dr * (a > 0)
        _accumulate(grads.linear_weights[j], np.outer(z_in, da), scale)
        grads.linear_biases[j] += scale * da
        dz = model.linear_weights[j] @ da

    # split the concatenated pooled gradient back into per-layer chunks
    dpooled = []
    pos = 0
    for width in cache["pooled_dims"]:
        dpooled.append(dz[pos:pos + width])
        pos += width

    dx_next = None
    for l in range(len(model.gcn_weights) - 1, -1, -1):
        xl, s, z, mask = cache["gcn"][l]
        dr = np.broadcast_to(dpooled[l] / n, z.shape).copy()
        if dx_next is not None:
            dr += dx_next * mask if mask is not None else dx_next
        dzl = dr * (z > 0)
        _accumulate(grads.gcn_weights[l], s.T @ dzl, scale)
        ds = dzl @ model.gcn_weights[l].T
        dx_next = a_hat.T @ ds
    return grads, dx_next


def adam_step(model: GcnModel, grads: ModelGrads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Standard Adam update with bias correction; mutates model and state."""
    state.t += 1
    t = state.t
    for p, g, m, v in zip(model.parameters(), grads.parameters(), state.m, state.v):
        m[:] = beta1 * m + (1.0 - beta1) * g
        v[:] = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)
    return model, state


# ---------------------------------------------------------------------------
# training and evaluation

def _prepare(dataset, scaler: FeatureScaler | None):
    prepared = []
    for g in dataset:
        feats = scaler.transform(g.node_features) if scaler else np.asarray(
            g.node_features, dtype=np.float64)
        prepared.append((feats, normalize_adjacency(g), int(g.label)))
    return prepared


def train(dataset, config: TrainConfig):
    """Mini-batch training over a list of ImageGraphs.

    A batch is a set of graphs; the batch loss is the mean of per-graph
    cross-entropies and one Adam step is taken per batch.  Deterministic
    given config.seed.  Returns (model, history) where history has one
    {epoch, loss, accuracy} entry per epoch from the training passes.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    labels = np.array([int(g.label) for g in dataset])
    if labels.min() < 0:
        raise ValueError("every graph needs a nonnegative label")
    num_classes = config.num_classes or int(labels.max()) + 1
    if labels.max() >= num_classes:
        raise ValueError("label outside configured class count")

    input_dim = dataset[0].node_features.shape[1]
    scaler = None
    if config.standardize:
        scaler, _ = standardize_features(np.vstack([g.node_features for g in dataset]))
    prepared = _prepare(dataset, scaler)

    ss = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    model = init_model(input_dim, config.gcn_dims, config.head_dims, num_classes,
                       config.dropout_p, rng=init_rng)
    model.scaler = scaler
    state = AdamState.for_model(model)

    history = []
    n = len(prepared)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        losses = np.zeros(n)
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            batch_grads = ModelGrads.zeros_like(model)
            for gi in batch:
                feats, a_hat, label = prepared[gi]
                probs, cache = gcn_forward(feats, a_hat, model, train=True,
                                           rng=dropout_rng)
                losses[gi] = cross_entropy_loss(probs, label)
                correct += int(np.argmax(probs) == label)
                backward(cache, label, batch_grads, 1.0 / len(batch))
            adam_step(model, batch_grads, state, config.learning_rate)
        history.append({
            "epoch": epoch,
            "loss": float(losses.mean()),
            "accuracy": correct / n,
        })
    return model, history


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray     # rows true class, columns predicted
    predictions: np.ndarray


def predict_proba(model: GcnModel, graph: ImageGraph) -> np.ndarray:
    """Eval-mode class probabilities for one slide graph."""
    feats = model.scaler.transform(graph.node_features) if model.scaler else np.asarray(
        graph.node_features, dtype=np.float64)
    probs, _ = gcn_forward(feats, normalize_adjacency(graph), model, train=False)
    return probs


def evaluate(model: GcnModel, dataset) -> EvalResult:
    """Argmax accuracy and confusion matrix (ties resolve to the lowest index)."""
    c = model.num_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    preds = np.zeros(len(dataset), dtype=np.int64)
    correct = 0
    for i, g in enumerate(dataset):
        probs = predict_proba(model, g)
        pred = int(np.argmax(probs))
        preds[i] = pred
        if 0 <= g.label < c:
            confusion[g.label, pred] += 1
            correct += int(pred == g.label)
    accuracy = correct / len(dataset) if len(dataset) else 0.0
    return EvalResult(accuracy=accuracy, confusion=confusion, predictions=preds)


# ---------------------------------------------------------------------------
# checkpoints

def save_model(model: GcnModel, path, config: TrainConfig | None = None) -> None:
    """Self-describing JSON checkpoint (row-major float64 tensors)."""
    rec = {
        "format_version": FORMAT_VERSION,
        "layer_dims": model.layer_dims,
        "dropout_p": model.dropout_p,
        "gcn_weights": [w.tolist() for w in model.gcn_weights],
        "linear_weights": [w.tolist() for w in model.linear_weights],
        "linear_biases": [b.tolist() for b in model.linear_biases],
        "standardization": None if model.scaler is None else {
            "mean": model.scaler.mean.tolist(),
            "std": model.scaler.std.tolist(),
        },
        "config": None if config is None else {
            "learning_rate": config.learning_rate,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "dropout_p": config.dropout_p,
            "seed": config.seed,
            "gcn_dims": list(config.gcn_dims),
            "head_dims": list(config.head_dims),
            "num_classes": config.num_classes,
            "standardize": config.standardize,
        },
    }
    Path(path).write_text(json.dumps(rec), encoding="utf-8")


def load_model(path) -> GcnModel:
    """Read a checkpoint written by save_model; malformed files raise ValidationError."""
    try:
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(rec, dict):
        raise ValidationError(f"{path}: checkpoint must be a JSON object")
    if rec.get("format_version") != FORMAT_VERSION:
        raise ValidationError(
            f"{path}: unsupported checkpoint format_version {rec.get('format_version')}")
    try:
        scaler = None
        if rec.get("standardization"):
            scaler = FeatureScaler(
                mean=np.asarray(rec["standardization"]["mean"], dtype=np.float64),
                std=np.asarray(rec["standardization"]["std"], dtype=np.float64),
            )
        return GcnModel(
            gcn_weights=[np.asarray(w, dtype=np.float64) for w in rec["gcn_weights"]],
            linear_weights=[np.asarray(w, dtype=np.float64) for w in rec["linear_weights"]],
            linear_biases=[np.asarray(b, dtype=np.float64) for b in rec["linear_biases"]],
            dropout_p=float(rec["dropout_p"]),
            scaler=scaler,
        )
    except KeyError as e:
        raise ValidationError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError, IndexError) as e:
        raise ValidationError(f"{path}: {e}") from e
