"""Graph-convolutional slide classifier.

Forward pass per slide graph: L graph convolutions over the symmetric,
self-loop-normalized weighted adjacency, ReLU, dropout; each layer's
post-ReLU node matrix is global-mean-pooled and the pooled vectors are
concatenated; a stack of linear+ReLU+dropout layers and a final linear map
feed a softmax.  Gradients are exact reverse-mode derivatives of this
computation (dropout masks replayed from the forward cache), optimized with
Adam.  Everything runs in float64.

Graphs run in passes.  A pass stacks the node rows of consecutive graphs, up
to PASS_NODES nodes, and runs each weight product, ReLU, dropout, head layer
and the softmax once over the stack.  Only the propagation A_hat @ X runs per
graph, as one dense product written into the stacked buffer; the first
layer's is computed once per graph, as its input never changes.  Mean
pooling is one product with a (graphs x nodes) 0/1 pooling matrix and its
gradient a repeat of each graph's row.  A training batch adds each pass's
gradient, scaled by 1/batch size, into one flat gradient vector.  The
parameters are views into one contiguous vector (GcnModel.flat) with the
same layout, so an Adam step is a few in-place vector operations.
Dropout masks are drawn per graph in batch order, GCN layers first and then
head layers, so the random stream is the same however a batch splits into
passes, and the same as drawing them graph by graph.  gcn_forward,
backward and evaluate run the same passes, on a batch of one or over the
whole evaluation set.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, json_object, open_text
from .image_graph import ImageGraph

FORMAT_VERSION = 1

# Node rows per pass.  Below a few hundred nodes the Python overhead per graph
# dominates a pass; above that its products do, and the pass cache (several
# stacked node matrices per GCN layer) only grows.  Passes of a whole batch of
# six 400-node graphs raised peak RSS from 154 to 176 MB and slowed training
# by a sixth against one graph per pass (1 BLAS thread, 2-core Xeon).
PASS_NODES = 512


# ---------------------------------------------------------------------------
# model parameters and state

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

    def __post_init__(self):
        self.gcn_dims = tuple(int(d) for d in self.gcn_dims)
        self.head_dims = tuple(int(d) for d in self.head_dims)
        for name, ok, rule in (
            ("learning_rate", 0.0 <= self.learning_rate < np.inf, "finite and >= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("dropout_p", 0.0 <= self.dropout_p < 1.0, "in [0, 1)"),
            ("seed", self.seed >= 0, ">= 0"),
            ("gcn_dims", min(self.gcn_dims, default=0) >= 1, "one or more widths >= 1"),
            ("head_dims", min(self.head_dims, default=1) >= 1, "widths >= 1"),
            ("num_classes", self.num_classes is None or self.num_classes >= 1, ">= 1"),
        ):
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass
class GcnModel:
    """All learnable parameters; weights are (in_dim, out_dim) matrices.

    The parameters are views into one contiguous float64 vector, `flat`, in
    the order of parameters(); gradients and Adam moments share its layout.
    """

    gcn_weights: list
    linear_weights: list
    linear_biases: list
    dropout_p: float = TrainConfig.dropout_p
    scaler: "FeatureScaler | None" = None
    flat: np.ndarray = field(init=False, repr=False, compare=False)

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
        self.flat = np.concatenate(
            [np.asarray(p, dtype=np.float64).ravel() for p in self.parameters()])
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("parameters must be finite")
        self.gcn_weights, self.linear_weights, self.linear_biases = self.unflatten(self.flat)

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

    def unflatten(self, vec: np.ndarray) -> tuple[list, list, list]:
        """Views of a vector laid out like `flat`: (gcn weights, linear weights, biases)."""
        views, pos = [], 0
        for p in self.parameters():
            views.append(vec[pos:pos + p.size].reshape(p.shape))
            pos += p.size
        ng, nl = len(self.gcn_weights), len(self.linear_weights)
        return views[:ng], views[ng:ng + nl], views[ng + nl:]


def init_model(input_dim: int, gcn_dims=TrainConfig.gcn_dims, head_dims=TrainConfig.head_dims,
               num_classes: int = 3, dropout_p: float = TrainConfig.dropout_p,
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


def standardize_features(train_matrix) -> FeatureScaler:
    """Fit standardization stats on the training matrix.

    Constant columns transform to exactly 0, and the same scaler must
    transform validation/test features.
    """
    x = np.asarray(train_matrix, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("training matrix must be non-empty and 2-D")
    return FeatureScaler(mean=x.mean(axis=0), std=x.std(axis=0))


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


def _prepare(dataset, model: GcnModel) -> list:
    """(A_hat @ X, A_hat) per graph, X standardized by model.scaler.

    The first propagation never changes during training, so it is done once.
    """
    prepared = []
    for g in dataset:
        x = model.scaler.transform(g.node_features) if model.scaler else g.node_features
        a_hat = normalize_adjacency(g)
        prepared.append((a_hat @ x, a_hat))
    return prepared


def _passes(batch, sizes) -> list:
    """Split the graph indices `batch`, in order, into runs of at most
    PASS_NODES nodes (`sizes[i]` each), with at least one graph per run."""
    runs, run, nodes = [], [], 0
    for i in batch:
        if run and nodes + sizes[i] > PASS_NODES:
            runs.append(run)
            run, nodes = [], 0
        run.append(i)
        nodes += sizes[i]
    if run:
        runs.append(run)
    return runs


def _forward(model: GcnModel, graphs, train: bool = False,
             rng: np.random.Generator | None = None) -> dict:
    """One pass over `graphs`, a list of (A_hat @ X, A_hat) pairs.

    Returns the cache that _backward replays; cache["probs"] holds one row
    of class probabilities per graph.
    """
    p = model.dropout_p
    dropout = train and p > 0.0
    if dropout and rng is None:
        raise ValueError("training with dropout requires an rng")
    sizes = np.array([len(a_hat) for _, a_hat in graphs])
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    n_graphs, n_nodes = len(graphs), ends[-1]
    gcn_w, head_w, head_b = model.gcn_weights, model.linear_weights, model.linear_biases

    gcn_masks, head_masks = [], []
    if dropout:
        gcn_masks = [np.empty((n_nodes, w.shape[1])) for w in gcn_w[:-1]]
        head_masks = [np.empty((n_graphs, w.shape[1])) for w in head_w[:-1]]
        for g, (lo, hi) in enumerate(spans):
            for m in gcn_masks:
                rng.random(out=m[lo:hi])
            for m in head_masks:
                rng.random(out=m[g])
        gcn_masks = [(m >= p) / (1.0 - p) for m in gcn_masks]
        head_masks = [(m >= p) / (1.0 - p) for m in head_masks]

    pool = np.zeros((n_graphs, n_nodes))
    pool[np.repeat(np.arange(n_graphs), sizes), np.arange(n_nodes)] = 1.0
    pooled = np.empty((n_graphs, sum(w.shape[1] for w in gcn_w)))
    layers = []
    s = np.concatenate([s0 for s0, _ in graphs])
    col = 0
    for l, w in enumerate(gcn_w):
        if l:
            s = np.empty_like(x)
            for (_, a_hat), (lo, hi) in zip(graphs, spans):
                np.matmul(a_hat, x[lo:hi], out=s[lo:hi])
        z = s @ w
        r = np.maximum(z, 0.0)
        pooled[:, col:col + w.shape[1]] = pool @ r
        col += w.shape[1]
        layers.append((s, z))
        x = r * gcn_masks[l] if l < len(gcn_masks) else r
    pooled /= sizes[:, None]

    head = []
    h = pooled
    for j, (w, b) in enumerate(zip(head_w[:-1], head_b[:-1])):
        a = h @ w + b
        head.append((h, a))
        h = np.maximum(a, 0.0)
        if dropout:
            h *= head_masks[j]
    logits = h @ head_w[-1] + head_b[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return {
        "model": model,
        "graphs": graphs,
        "spans": spans,
        "sizes": sizes,
        "layers": layers,
        "gcn_masks": gcn_masks,
        "head": head,
        "head_masks": head_masks,
        "last_head_in": h,
        "logits": logits,
        "probs": e / e.sum(axis=1, keepdims=True),
    }


def _backward(cache: dict, labels, grads: tuple, scale: float,
              input_grad: bool = False):
    """Add `scale` times the pass's summed cross-entropy gradient into
    `grads`, a (gcn weights, linear weights, biases) triple of views from
    GcnModel.unflatten.

    Returns the input-feature gradient when input_grad, else None: training
    never reads it, so it skips its two products (about a tenth of the
    work of a 400-node graph).
    """
    model: GcnModel = cache["model"]
    g_gcn, g_lin, g_bias = grads
    d = cache["probs"].copy()
    d[np.arange(len(d)), labels] -= 1.0
    d *= scale

    h = cache["last_head_in"]
    g_lin[-1] += h.T @ d
    g_bias[-1] += d.sum(axis=0)
    dh = d @ model.linear_weights[-1].T
    for j in range(len(cache["head"]) - 1, -1, -1):
        h, a = cache["head"][j]
        if cache["head_masks"]:
            dh *= cache["head_masks"][j]
        da = dh * (a > 0)
        g_lin[j] += h.T @ da
        g_bias[j] += da.sum(axis=0)
        dh = da @ model.linear_weights[j].T

    dpooled = dh / cache["sizes"][:, None]
    col = dpooled.shape[1]
    dx = None
    for l in range(len(model.gcn_weights) - 1, -1, -1):
        w = model.gcn_weights[l]
        s, z = cache["layers"][l]
        col -= w.shape[1]
        dr = np.repeat(dpooled[:, col:col + w.shape[1]], cache["sizes"], axis=0)
        if dx is not None:
            dr += dx * cache["gcn_masks"][l] if cache["gcn_masks"] else dx
        dr *= z > 0
        g_gcn[l] += s.T @ dr
        if l == 0 and not input_grad:
            return None
        ds = dr @ w.T
        dx = np.empty_like(ds)
        for (_, a_hat), (lo, hi) in zip(cache["graphs"], cache["spans"]):
            np.matmul(a_hat.T, ds[lo:hi], out=dx[lo:hi])
    return dx


def gcn_forward(features, a_hat, model: GcnModel, train: bool = False,
                rng: np.random.Generator | None = None):
    """One slide-graph forward pass: a pass over a batch of one.

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
    cache = _forward(model, [(a_hat @ x, a_hat)], train, rng)
    return cache["probs"][0], cache


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


def backward(cache, label: int):
    """Gradients of the cross-entropy loss for the graph of a gcn_forward cache.

    Returns (grads, dx): grads is a GcnModel of the model's shape holding
    the partial derivatives (grads.flat is the flat gradient), dx the input
    feature gradient.  Dropout masks are replayed from the forward cache.
    """
    model: GcnModel = cache["model"]
    if not (0 <= label < model.num_classes):
        raise ValueError("label out of range")
    grad = np.zeros_like(model.flat)
    dx = _backward(cache, [label], model.unflatten(grad), 1.0, input_grad=True)
    return GcnModel(*model.unflatten(grad), dropout_p=model.dropout_p), dx


class Adam:
    """Adam with bias correction over one flat parameter vector.

    The moments and two scratch vectors are allocated once.  A step
    evaluates m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g and
    p -= (lr*mhat) / (sqrt(vhat) + eps), in that order, in place.
    """

    def __init__(self, size: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._step = np.empty(size)
        self._denom = np.empty(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Move `params` (in place) one step against `grad`."""
        self.t += 1
        step, denom = self._step, self._denom
        self.m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=step)
        self.m += step
        self.v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=step)
        step *= grad
        self.v += step
        np.divide(self.m, 1.0 - self.beta1**self.t, out=step)
        step *= self.lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        params -= step


# ---------------------------------------------------------------------------
# training and evaluation

def check_graphs(dataset, input_dim: int, labels: range) -> None:
    """Reject the first slide graph that a model of `input_dim` inputs cannot take.

    Each graph needs `input_dim` features per node and a label in `labels`:
    range(classes) for training, which needs every slide labelled, and
    range(-1, classes) for evaluation, where -1 marks an unlabelled slide.
    Every node needs 1 + its weighted degree > 0, the square-rooted
    normalizer of `normalize_adjacency`; negative edge weights can break it.
    """
    for g in dataset:
        width = g.node_features.shape[1]
        if width != input_dim:
            raise ValidationError(f"slide {g.slide_id} has {width} features per node, "
                                  f"but the model takes {input_dim}")
        if g.label < labels.start:
            raise ValidationError(f"slide {g.slide_id} has no label "
                                  "(build-graph without --labels writes -1)")
        if g.label >= labels.stop:
            raise ValidationError(f"slide {g.slide_id} has label {g.label}, "
                                  f"but the model has {labels.stop} classes")
        deg = 1.0 + np.bincount(g.u, g.w, g.num_nodes) + np.bincount(g.v, g.w, g.num_nodes)
        bad = np.flatnonzero(deg <= 0)
        if bad.size:
            raise ValidationError(f"slide {g.slide_id} node {bad[0]} has 1 + weighted degree "
                                  f"{deg[bad[0]]:.6g} <= 0, so its GCN normalization is "
                                  "undefined")


def _batch_gradient(model: GcnModel, prepared, sizes, labels, batch,
                    rng: np.random.Generator, grads: tuple) -> np.ndarray:
    """Add the batch-mean loss gradient of the graphs `batch` into `grads`.

    Returns their training-mode class probabilities, one row per graph.
    """
    probs = []
    for run in _passes(batch, sizes):
        cache = _forward(model, [prepared[i] for i in run], train=True, rng=rng)
        _backward(cache, labels[run], grads, 1.0 / len(batch))
        probs.append(cache["probs"])
    return np.concatenate(probs)


def train(dataset, config: TrainConfig):
    """Mini-batch training over a list of ImageGraphs.

    A batch is a set of graphs; the batch loss is the mean of per-graph
    cross-entropies and one Adam step is taken per batch.  The model
    standardizes node features with statistics fitted on `dataset`.
    Deterministic given config.seed.  Returns (model, history) where
    history has one {epoch, loss, accuracy} entry per epoch from the
    training passes.  Training that diverges raises ValidationError: at the
    first epoch whose mean loss is not finite, or after the last step if a
    parameter is not finite.
    """
    if not dataset:
        raise ValidationError("no slide graphs to train on")
    labels = np.array([int(g.label) for g in dataset])
    num_classes = int(labels.max()) + 1 if config.num_classes is None else config.num_classes
    input_dim = dataset[0].node_features.shape[1]
    check_graphs(dataset, input_dim, range(num_classes))
    scaler = standardize_features(np.vstack([g.node_features for g in dataset]))

    ss = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    model = init_model(input_dim, config.gcn_dims, config.head_dims, num_classes,
                       config.dropout_p, rng=init_rng)
    model.scaler = scaler
    prepared = _prepare(dataset, model)
    sizes = [len(a_hat) for _, a_hat in prepared]
    grad = np.zeros_like(model.flat)
    grads = model.unflatten(grad)
    adam = Adam(grad.size, config.learning_rate)

    history = []
    n = len(prepared)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        losses = np.zeros(n)
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            grad[:] = 0.0
            probs = _batch_gradient(model, prepared, sizes, labels, batch, dropout_rng, grads)
            y = labels[batch]
            losses[batch] = -np.log(np.clip(probs[np.arange(len(y)), y], 1e-12, None))
            correct += int(np.count_nonzero(probs.argmax(axis=1) == y))
            adam.step(model.flat, grad)
        loss = float(losses.mean())
        if not math.isfinite(loss):
            _diverged(epoch, f"mean loss is {loss}", config)
        history.append({"epoch": epoch, "loss": loss, "accuracy": correct / n})
    if not np.all(np.isfinite(model.flat)):
        _diverged(config.epochs - 1, "a parameter is not finite", config)
    return model, history


def _diverged(epoch: int, what: str, config: TrainConfig):
    raise ValidationError(f"training diverged at epoch {epoch}: {what} "
                          f"(learning_rate {config.learning_rate!r})")


@dataclass
class EvalResult:
    accuracy: float | None    # over the labelled slides; None if there are none
    confusion: np.ndarray     # rows true class, columns predicted
    predictions: np.ndarray


def evaluate(model: GcnModel, dataset) -> EvalResult:
    """Argmax accuracy and confusion matrix (ties resolve to the lowest index).

    Predictions come from eval-mode passes, each graph prepared in its pass.
    Slides labelled -1 are predicted but neither counted nor scored.
    """
    c = model.num_classes
    check_graphs(dataset, model.input_dim, range(-1, c))
    sizes = [len(g.node_features) for g in dataset]
    probs = [_forward(model, _prepare([dataset[i] for i in run], model))["probs"]
             for run in _passes(range(len(dataset)), sizes)]
    preds = np.concatenate(probs).argmax(axis=1) if probs else np.zeros(0, dtype=np.int64)
    labels = np.array([g.label for g in dataset], dtype=np.int64)
    known = labels >= 0
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels[known], preds[known]), 1)
    correct = int(np.count_nonzero(preds[known] == labels[known]))
    scored = int(np.count_nonzero(known))
    accuracy = correct / scored if scored else None
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
        "config": None if config is None else asdict(config),
    }
    Path(path).write_text(json.dumps(rec), encoding="utf-8")


def load_model(path) -> GcnModel:
    """Read a checkpoint written by save_model; malformed files raise ValidationError."""
    with open_text(path) as fh:
        rec = json_object(fh.read(), path, FORMAT_VERSION)
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
