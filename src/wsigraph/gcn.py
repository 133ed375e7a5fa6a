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

The passes of a training batch run side by side on min(passes, usable
cores) threads: the caller and helper threads made once per process (a
forked child drops them and makes its own).  Pass k runs on thread k mod T.
The caller draws every pass's dropout masks before any pass runs, and
prepares every graph, so the random stream and the calls to
normalize_adjacency stay on it.  Pass 0 adds into the flat batch gradient;
each later pass adds into its thread's zeroed vector, which is added into
the batch gradient in pass order.  As 0 + x = x, the sum, and so the model,
is bitwise the one-thread loop's for any thread count.  A batch of one pass,
or one usable core, runs on the caller alone, as evaluate does.  (Evaluate's
passes were measured no faster on threads while every pass still allocated
its own temporaries; see below.  That has not been measured again.)  train
and evaluate run every BLAS product on one BLAS thread, so that count never
changes a bit either.

A pass writes its node-sized arrays into a workspace: the propagations,
weight products and ReLU outputs, the ReLU and dropout masks (boolean,
with the dropout scale applied in place), and the backward temporaries.
train keeps, from its first batch until it returns, one workspace per pass
of a batch for that pass's dropout masks, the first T of which also serve
the T pass threads; evaluate keeps one for its passes.  A warm batch so
allocates no node-sized array.  When
every pass allocated and freed its own, glibc gave a helper thread's freed
pages back to the kernel and faulted them in again: a 30-epoch train on
2 threads over six 400-node graphs took 63k-73k minor faults and 0.11-0.23
s of system time, and takes 2.7k-5.1k and 0.01-0.02 s with the workspaces
(2-core Xeon).
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import os
import queue
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .blas import one_blas_thread, usable_cores
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
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    a *= inv_sqrt[:, None]
    a *= inv_sqrt[None, :]
    return a


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


class _Workspace:
    """Arrays that keep their memory from pass to pass.

    take(name, shape) is a C-contiguous view at the front of the buffer
    `name`, which is reallocated only when it is too small.  Every name
    holds one dtype, and the view is only valid until the next take of it.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _dropout_keep(model: GcnModel, sizes, rng: np.random.Generator, out: _Workspace,
                  draw: _Workspace) -> tuple[list, list]:
    """Dropout keep masks (uniform draw >= p) of a training pass over graphs
    of `sizes` nodes, as boolean arrays in `out`: (nodes x width) per GCN
    layer but the last, (graphs x width) per head layer but the output.
    Drawn graph by graph, GCN layers first and then head layers, into the
    buffer "draw" of `draw`."""
    p = model.dropout_p
    gcn = [out.take(("keep", l), (sum(sizes), w.shape[1]), bool)
           for l, w in enumerate(model.gcn_weights[:-1])]
    head = [out.take(("head keep", j), (len(sizes), w.shape[1]), bool)
            for j, w in enumerate(model.linear_weights[:-1])]
    lo = 0
    for g, size in enumerate(sizes):
        for rows in [m[lo:lo + size] for m in gcn] + [m[g] for m in head]:
            np.greater_equal(rng.random(out=draw.take("draw", rows.shape)), p, out=rows)
        lo += size
    return gcn, head


def _dropout(x: np.ndarray, keep: np.ndarray, scale: float) -> None:
    """Inverted dropout of `x` in place: (x * scale) * keep.  For scale =
    1 / (1 - p) these are the bits of x * (keep / (1 - p)) wherever x * scale
    is finite."""
    x *= scale
    x *= keep


def _forward(model: GcnModel, graphs, keep: tuple | None = None,
             ws: _Workspace | None = None) -> dict:
    """One pass over `graphs`, a list of (A_hat @ X, A_hat) pairs, with the
    dropout masks `keep` of _dropout_keep (None: eval mode, no dropout).

    Node-sized arrays are views into the workspace `ws` (a new one if None),
    and so are those of _backward.  Returns the cache that _backward
    replays; cache["probs"] holds one row of class probabilities per graph.
    """
    ws = _Workspace() if ws is None else ws
    sizes = np.array([len(a_hat) for _, a_hat in graphs])
    ends = np.cumsum(sizes).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    n_graphs, n_nodes = len(graphs), ends[-1]
    gcn_w, head_w, head_b = model.gcn_weights, model.linear_weights, model.linear_biases
    gcn_keep, head_keep = keep or ([], [])
    scale = 1.0 / (1.0 - model.dropout_p)

    pool = ws.take("pool", (n_graphs, n_nodes))
    pool.fill(0.0)
    pool[np.repeat(np.arange(n_graphs), sizes), np.arange(n_nodes)] = 1.0
    pooled = np.empty((n_graphs, sum(w.shape[1] for w in gcn_w)))
    layers = []
    if n_graphs == 1:
        s = graphs[0][0]
    else:
        s = np.concatenate([s0 for s0, _ in graphs],
                           out=ws.take("s0", (n_nodes, graphs[0][0].shape[1])))
    col = 0
    for l, w in enumerate(gcn_w):
        if l:
            s = ws.take(("s", l), x.shape)
            for (_, a_hat), (lo, hi) in zip(graphs, spans):
                np.matmul(a_hat, x[lo:hi], out=s[lo:hi])
        # one buffer serves every layer's z: the previous layer's x in it is spent
        z = np.matmul(s, w, out=ws.take("z", (n_nodes, w.shape[1])))
        layers.append((s, np.greater(z, 0.0, out=ws.take(("relu", l), z.shape, bool))))
        x = np.maximum(z, 0.0, out=z)
        pooled[:, col:col + w.shape[1]] = pool @ x
        col += w.shape[1]
        if l < len(gcn_keep):
            _dropout(x, gcn_keep[l], scale)
    pooled /= sizes[:, None]

    head = []
    h = pooled
    for j, (w, b) in enumerate(zip(head_w[:-1], head_b[:-1])):
        a = h @ w + b
        head.append((h, a))
        h = np.maximum(a, 0.0)
        if head_keep:
            _dropout(h, head_keep[j], scale)
    logits = h @ head_w[-1] + head_b[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return {
        "model": model,
        "ws": ws,
        "graphs": graphs,
        "spans": spans,
        "sizes": sizes,
        "layers": layers,
        "gcn_keep": gcn_keep,
        "head": head,
        "head_keep": head_keep,
        "scale": scale,
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
    work of a 400-node graph).  The gradient is a view into the cache's
    workspace.
    """
    model: GcnModel = cache["model"]
    ws: _Workspace = cache["ws"]
    g_gcn, g_lin, g_bias = grads
    d = cache["probs"].copy()
    d[np.arange(len(d)), labels] -= 1.0
    d *= scale

    h = cache["last_head_in"]
    g_lin[-1] += np.matmul(h.T, d, out=ws.take("dw", g_lin[-1].shape))
    g_bias[-1] += d.sum(axis=0)
    dh = d @ model.linear_weights[-1].T
    for j in range(len(cache["head"]) - 1, -1, -1):
        h, a = cache["head"][j]
        if cache["head_keep"]:
            _dropout(dh, cache["head_keep"][j], cache["scale"])
        da = dh * (a > 0)
        g_lin[j] += np.matmul(h.T, da, out=ws.take("dw", g_lin[j].shape))
        g_bias[j] += da.sum(axis=0)
        dh = da @ model.linear_weights[j].T

    dpooled = dh / cache["sizes"][:, None]
    col = dpooled.shape[1]
    dx = None
    for l in range(len(model.gcn_weights) - 1, -1, -1):
        w = model.gcn_weights[l]
        s, relu = cache["layers"][l]
        col -= w.shape[1]
        dr = ws.take("dr", relu.shape)
        for g, (lo, hi) in enumerate(cache["spans"]):
            dr[lo:hi] = dpooled[g, col:col + w.shape[1]]
        if dx is not None:
            if cache["gcn_keep"]:
                _dropout(dx, cache["gcn_keep"][l], cache["scale"])
            dr += dx
        dr *= relu
        g_gcn[l] += np.matmul(s.T, dr, out=ws.take("dw", w.shape))
        if l == 0 and not input_grad:
            return None
        ds = np.matmul(dr, w.T, out=ws.take("ds", s.shape))
        dx = ws.take("dx", s.shape)
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
    ws, keep = _Workspace(), None
    if train and model.dropout_p > 0.0:
        if rng is None:
            raise ValueError("training with dropout requires an rng")
        keep = _dropout_keep(model, [len(x)], rng, ws, ws)
    cache = _forward(model, [(a_hat @ x, a_hat)], keep, ws)
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
    return GcnModel(*model.unflatten(grad), dropout_p=model.dropout_p), dx.copy()


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


_helpers: list = []     # job queues of this process's pass threads beside the caller
os.register_at_fork(after_in_child=_helpers.clear)  # a forked child has none of its threads


def _helper_loop(jobs: queue.SimpleQueue) -> None:
    while True:
        jobs.get()()


def _run_passes(count: int, threads: int, compute, finish) -> None:
    """finish(k, compute(k, t)) for every pass k < count, pass k on thread
    t = k mod `threads`.

    Thread 0 is the caller, the others are helpers.  compute calls run side
    by side; finish calls run one at a time in pass order, and a thread
    computes its next pass only after finishing its last.  Once every thread
    has stopped, the error of the first pass that failed is raised.
    """
    if threads < 2:
        for k in range(count):
            finish(k, compute(k, 0))
        return
    while len(_helpers) < threads - 1:
        jobs = queue.SimpleQueue()
        threading.Thread(target=_helper_loop, args=(jobs,), name="wsigraph-pass",
                         daemon=True).start()
        _helpers.append(jobs)
    done = threading.Condition()
    turn, running, errors = 0, threads, {}

    def share(t: int) -> None:
        nonlocal turn, running
        try:
            for k in range(t, count, threads):
                result = compute(k, t)
                with done:
                    done.wait_for(lambda: turn == k or errors)
                    if errors:
                        return
                    finish(k, result)
                    turn += 1
                    done.notify_all()
        except BaseException as e:      # re-raised by the caller below
            with done:
                errors[k] = e
        finally:
            with done:
                running -= 1
                done.notify_all()

    for t, jobs in enumerate(_helpers[:threads - 1], start=1):
        # in a copy of the caller's context, so its np.errstate holds there too
        jobs.put(functools.partial(contextvars.copy_context().run, share, t))
    share(0)
    with done:
        done.wait_for(lambda: running == 0)
    if errors:
        raise errors[min(errors)]


def _batch_gradient(model: GcnModel, prepared, sizes, labels, batch,
                    rng: np.random.Generator, grad: np.ndarray, spaces: list) -> np.ndarray:
    """Add the batch-mean loss gradient of the graphs `batch` into `grad`,
    a vector laid out like model.flat.

    `spaces` is a list of workspaces that the caller keeps from batch to
    batch; it is extended to one per pass.  spaces[k] holds the dropout
    masks of pass k and, for k below the thread count, the buffers of thread
    k's passes; the caller draws the masks through spaces[0].
    Returns their training-mode class probabilities, one row per graph.
    """
    runs = _passes(batch, sizes)
    spaces.extend(_Workspace() for _ in range(len(spaces), len(runs)))
    keeps = [_dropout_keep(model, [sizes[i] for i in run], rng, spaces[k], spaces[0])
             if model.dropout_p > 0.0 else None for k, run in enumerate(runs)]
    threads = min(len(runs), usable_cores())
    probs = [None] * len(runs)

    def compute(k, t):
        cache = _forward(model, [prepared[i] for i in runs[k]], keeps[k], spaces[t])
        target = grad
        if k and threads > 1:       # the thread's own vector, added in pass order
            target = spaces[t].take("grad", grad.shape)
            target.fill(0.0)
        _backward(cache, labels[runs[k]], model.unflatten(target), 1.0 / len(batch))
        return cache["probs"], target

    def finish(k, out):
        probs[k], target = out
        if target is not grad:
            np.add(grad, target, out=grad)

    _run_passes(len(runs), threads, compute, finish)
    return np.concatenate(probs)


@one_blas_thread()
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
    adam = Adam(grad.size, config.learning_rate)
    spaces = []

    history = []
    n = len(prepared)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        losses = np.zeros(n)
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            grad[:] = 0.0
            probs = _batch_gradient(model, prepared, sizes, labels, batch, dropout_rng, grad,
                                    spaces)
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


@one_blas_thread()
def evaluate(model: GcnModel, dataset) -> EvalResult:
    """Argmax accuracy and confusion matrix (ties resolve to the lowest index).

    Predictions come from eval-mode passes, run one after another on the
    calling thread, each preparing its own graphs.  Slides labelled -1 are
    predicted but neither counted nor scored.  A slide whose class
    probabilities are not finite, as a diverged model's are, raises
    ValidationError.
    """
    c = model.num_classes
    check_graphs(dataset, model.input_dim, range(-1, c))
    sizes = [len(g.node_features) for g in dataset]
    ws = _Workspace()
    probs = [_forward(model, _prepare([dataset[i] for i in run], model), None, ws)["probs"]
             for run in _passes(range(len(dataset)), sizes)]
    probs = np.concatenate(probs) if probs else np.zeros((0, c))
    finite = np.isfinite(probs).all(axis=1)
    if not finite.all():
        raise ValidationError(f"slide {dataset[int(finite.argmin())].slide_id} has class "
                              "probabilities that are not finite; the model diverged")
    preds = probs.argmax(axis=1)
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
        model = GcnModel(
            gcn_weights=[np.asarray(w, dtype=np.float64) for w in rec["gcn_weights"]],
            linear_weights=[np.asarray(w, dtype=np.float64) for w in rec["linear_weights"]],
            linear_biases=[np.asarray(b, dtype=np.float64) for b in rec["linear_biases"]],
            dropout_p=float(rec["dropout_p"]),
            scaler=scaler,
        )
        if scaler is not None:
            for name, v in (("mean", scaler.mean), ("std", scaler.std)):
                if v.shape != (model.input_dim,) or not np.all(np.isfinite(v)):
                    raise ValueError(f"standardization {name} must be a vector of "
                                     f"{model.input_dim} finite values, got shape {v.shape}")
            if np.any(scaler.std < 0):
                raise ValueError("standardization std must be >= 0")
        return model
    except KeyError as e:
        raise ValidationError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError, IndexError) as e:
        raise ValidationError(f"{path}: {e}") from e
