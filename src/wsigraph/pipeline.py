"""End-to-end orchestration: tiling, synthetic slides, folds, experiment harness.

Intermediate artifacts are diffable text: point sets and feature matrices as
CSV, slide graphs as JSON-lines, reports as JSON plus an aligned text summary.
Per-slide featurization and the cross-validation folds run in one worker
pool; everything downstream of a fixed (config, seed) pair is deterministic,
including worker output order.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import multiprocessing
import time
import typing
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .blas import one_blas_thread, usable_cores
from .detection import DetectionParams  # noqa: F401  (only perfbench reads it here)
from .errors import ValidationError, json_object, open_text
from .features import (
    DEFAULT_CELL_GRAPH_RADIUS,
    FEATURE_NAMES,
    MAX_PATCH_NUCLEI,
    patch_feature_vector,
)
from .gcn import TrainConfig, check_graphs, evaluate, train
from .graph import check_d_p
from .image_graph import ImageGraph, build_image_graph, check_theta
from .points import PointSet

log = logging.getLogger("wsigraph")

NUCLEI_COUNT_FEATURE = FEATURE_NAMES.index("nn_nuclei_count")


# ---------------------------------------------------------------------------
# records and configuration

@dataclass
class PatchRecord:
    row: int
    col: int
    points: PointSet | None = None
    features: np.ndarray | None = None


@dataclass
class SlideRecord:
    slide_id: str
    label: int
    patches: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)   # free-form; perfbench ships spans in it


@dataclass
class SynthParams:
    """Slide and patch sizes of synthetic slides; `SYNTH_PROCESSES` draws their nuclei."""

    slide_width: int = 1536
    slide_height: int = 1536
    patch_size: int = 768


@dataclass
class ExperimentConfig:
    seed: int = 0
    folds: int = 3
    slides_per_class: int = 50
    class_names: tuple = ("normal", "low_grade", "high_grade")
    d_p: float = DEFAULT_CELL_GRAPH_RADIUS
    theta: float = 0.8
    min_nuclei_per_patch: int = 20
    workers: int = 0           # 0 = min(4, usable cores)
    output_dir: str = "runs/experiment"
    synth: SynthParams = field(default_factory=SynthParams)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        self.validate_dataset()
        check_folds(self.folds)
        if len(self.class_names) < 2:
            raise ValidationError("need at least two classes")
        repeated = [n for i, n in enumerate(self.class_names) if n in self.class_names[:i]]
        if repeated:
            raise ValidationError(f"class_names names class {repeated[0]!r} twice")
        check_theta(self.theta)
        check_d_p(self.d_p)
        check_min_nuclei(self.min_nuclei_per_patch)
        _resolve_workers(self.workers)      # rejects a negative count
        try:
            replace(self.train)     # reruns its checks on fields set after construction
        except ValueError as e:
            raise ValidationError(f"train.{e}") from e
        classes = self.train.num_classes
        if classes is not None and classes != len(self.class_names):
            raise ValidationError(
                f"train.num_classes is {classes}, but class_names holds "
                f"{len(self.class_names)} classes; give null or {len(self.class_names)}")

    def validate_dataset(self) -> None:
        """The checks on what `synth_dataset` reads, all that `wsigraph synth` needs.

        There is at least one class and one slide per class, and the patch
        fits the slide.  `synth_dataset` itself rejects more classes than the
        generator draws, a limit slide graphs do not have.
        """
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if len(self.class_names) < 1 or self.slides_per_class < 1:
            raise ValidationError("need at least one class and one slide per class")
        s = self.synth
        if s.patch_size <= 0:
            raise ValidationError(f"synth.patch_size must be positive, got {s.patch_size}")
        for side in ("slide_width", "slide_height"):
            if s.patch_size > getattr(s, side):
                raise ValidationError(f"synth.patch_size {s.patch_size} exceeds "
                                      f"synth.{side} {getattr(s, side)}")


# what a JSON value must be to fill a config field of each declared type
_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), tuple: ((list,), "a list"),
               type(None): ((type(None),), "null")}


def _json_matches(value, kind) -> bool:
    """Whether a JSON value fits a field of type `kind`; a bool is not a number."""
    return not isinstance(value, bool) and isinstance(value, _JSON_KINDS[kind][0])


def _check_config_value(key: str, value, hint, default) -> None:
    """Raise ValidationError unless `value` fits the field's declared type.

    A field typed `tuple` takes a list whose items have the type of its
    default's items; an optional field also takes null.
    """
    kinds = typing.get_args(hint) or (hint,)
    if not any(_json_matches(value, kind) for kind in kinds):
        what = " or ".join(_JSON_KINDS[k][1] for k in kinds)
        raise ValidationError(
            f"config key '{key}' must be {what}, not {type(value).__name__} {value!r}")
    if isinstance(value, list) and default:
        item = type(default[0])
        bad = [v for v in value if not _json_matches(v, item)]
        if bad:
            raise ValidationError(f"each item of config key '{key}' must be "
                                  f"{_JSON_KINDS[item][1]}, not {type(bad[0]).__name__} "
                                  f"{bad[0]!r}")


def _config_from_dict(cls, data: dict, path: str = ""):
    fields = {f.name: f for f in cls.__dataclass_fields__.values()}  # type: ignore
    hints = typing.get_type_hints(cls)
    sub = {"synth": SynthParams, "train": TrainConfig}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ValidationError(f"unknown config key '{path}{key}'")
        if key in sub:
            if not isinstance(value, dict):
                raise ValidationError(f"config key '{path}{key}' must be an object")
            kwargs[key] = _config_from_dict(sub[key], value, path=f"{key}.")
            continue
        _check_config_value(f"{path}{key}", value, hints[key], fields[key].default)
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"{path}{e}") from e


def load_experiment_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file (documented in the README)."""
    with open_text(path) as fh:
        data = json_object(fh.read(), path)
    cfg = _config_from_dict(ExperimentConfig, data)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# tiling

def tile_image(width: int, height: int, patch_size: int, stride: int) -> list:
    """Full-patch origins (x, y) in row-major order."""
    if patch_size <= 0 or stride <= 0:
        raise ValidationError("patch_size and stride must be positive")
    if patch_size > min(width, height):
        raise ValidationError(
            f"patch_size {patch_size} exceeds image bounds {width}x{height}"
        )
    xs = range(0, width - patch_size + 1, stride)
    ys = range(0, height - patch_size + 1, stride)
    return [(x, y) for y in ys for x in xs]


# ---------------------------------------------------------------------------
# synthetic slides

def _poisson_scatter(rng, mean_count, size):
    n = rng.poisson(mean_count)
    return rng.uniform(0.0, size, size=(n, 2))


def _cluster_scatter(rng, parent_mean, offspring_mean, sd, size):
    pts = []
    for _ in range(rng.poisson(parent_mean)):
        parent = rng.uniform(0.0, size, size=2)
        k = rng.poisson(offspring_mean)
        offs = parent + rng.normal(0.0, sd, size=(k, 2))
        inside = (offs >= 0.0).all(axis=1) & (offs < size).all(axis=1)
        pts.append(offs[inside])
    return np.vstack(pts) if pts else np.zeros((0, 2))


# for each class id, the point processes drawn into every patch, in draw order:
# (draw, *rates), called with the patch size appended; the rates are a mean
# count, or mean parent and offspring counts and an offspring spread in px.
# Class 0 is homogeneous Poisson scatter (regular tissue stand-in); class 1
# Thomas-style parent/offspring clusters over a sparse background; class 2
# denser parents with a tight and a loose offspring scale, so the pattern is
# both denser and more irregular.
SYNTH_PROCESSES = (
    ((_poisson_scatter, 220.0),),
    ((_cluster_scatter, 10.0, 20.0, 40.0), (_poisson_scatter, 40.0)),
    ((_cluster_scatter, 16.0, 13.0, 12.0), (_cluster_scatter, 16.0, 8.0, 44.0),
     (_poisson_scatter, 50.0)),
)
SYNTH_CLASSES = len(SYNTH_PROCESSES)


def _synth_patch_points(class_id: int, size: float, rng) -> np.ndarray:
    return np.vstack([draw(rng, *rates, size) for draw, *rates in SYNTH_PROCESSES[class_id]])


def synth_slide(class_id: int, params: SynthParams, seed, slide_id: str = "") -> SlideRecord:
    """Generate one synthetic slide: a point set per patch, deterministic in seed."""
    if class_id not in range(SYNTH_CLASSES):
        raise ValidationError(f"unknown class id {class_id}")
    rng = np.random.default_rng(seed)
    size = params.patch_size
    patches = []
    for x, y in tile_image(params.slide_width, params.slide_height, size, size):
        pts = _synth_patch_points(class_id, float(size), rng)
        patches.append(PatchRecord(row=y // size, col=x // size,
                                   points=PointSet(pts, size, size)))
    return SlideRecord(slide_id=slide_id or f"synth-c{class_id}", label=int(class_id),
                       patches=patches)


def synth_dataset(config: ExperimentConfig) -> list:
    """One SlideRecord per (class, index), with per-slide derived seeds."""
    k = len(config.class_names)
    if k > SYNTH_CLASSES:
        raise ValidationError(
            f"class_names holds {k} classes (synth --classes {k}), but the synthetic "
            f"generator draws at most {SYNTH_CLASSES}")
    slides = []
    for c in range(k):
        for i in range(config.slides_per_class):
            seed = np.random.SeedSequence([config.seed, c, i])
            slides.append(synth_slide(c, config.synth, seed, slide_id=f"synth-c{c}-{i:04d}"))
    return slides


# ---------------------------------------------------------------------------
# featurization and graph building

def _featurize_slide(args):
    slide, d_p = args
    for patch in slide.patches:
        n = len(patch.points)
        if n > MAX_PATCH_NUCLEI:
            raise ValidationError(
                f"slide {slide.slide_id} patch ({patch.row}, {patch.col}): {n} nuclei,"
                f" above the cap of {MAX_PATCH_NUCLEI}")
        patch.features = patch_feature_vector(patch.points, d_p=d_p)
    return slide


def _resolve_workers(workers: int) -> int:
    """The pool size a `workers` setting asks for; 0 means min(4, usable cores)."""
    if workers < 0:
        raise ValidationError(f"workers must be >= 0, got {workers}")
    return workers or min(4, usable_cores())


class WorkerPool:
    """A `multiprocessing.Pool` of `workers` processes that forks at first use.

    `run_experiment` keeps one open for featurization and the folds.  Its
    workers fork inside the first `map`, that is inside `featurize_slides`,
    as a pool of that call's own would: they inherit the module state of
    that moment, such as a stub patched over `train` or a profiler's
    wrappers and its open span.  Leaving the `with` block closes the pool
    (terminates it on an exception) and joins its workers.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None

    def _started(self):
        if self._pool is None:
            self._pool = multiprocessing.Pool(self.workers)
        return self._pool

    def map(self, fn, jobs) -> list:
        return self._started().map(fn, jobs, chunksize=1)

    def apply_async(self, fn, args):
        return self._started().apply_async(fn, args)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if self._pool is not None:
            if exc_type is None:
                self._pool.close()
            else:
                self._pool.terminate()
            self._pool.join()
        return False


def _worker_pool(workers: int, jobs: int, pool: WorkerPool | None = None, in_process: int = 0):
    """The open `pool`, left open; else a new pool if >1 worker and >1 job; else None.

    A new pool has a process per job it is handed, `jobs` less the
    `in_process` ones that this process runs itself, and at most `workers`.
    """
    if pool is not None:
        return contextlib.nullcontext(pool)
    workers = _resolve_workers(workers)
    if workers > 1 and jobs > 1:
        return WorkerPool(min(workers, jobs - in_process))
    return contextlib.nullcontext()


def featurize_slides(slides, d_p: float, workers: int = 0,
                     pool: WorkerPool | None = None) -> list:
    """Fill PatchRecord.features for every patch, in the pool of `_worker_pool`."""
    check_d_p(d_p)
    jobs = [(s, d_p) for s in slides]
    with _worker_pool(workers, len(jobs), pool) as pool:
        return pool.map(_featurize_slide, jobs) if pool else [_featurize_slide(j) for j in jobs]


def check_min_nuclei(min_nuclei) -> None:
    """Reject a negative nuclei floor: no count is below it, so it drops no patch."""
    if not min_nuclei >= 0:
        raise ValidationError(f"min_nuclei_per_patch must be >= 0, got {min_nuclei!r}")


def build_slide_graph(slide: SlideRecord, theta: float,
                      min_nuclei: int = ExperimentConfig.min_nuclei_per_patch) -> ImageGraph:
    """Image-level graph over the slide's patches (row-major patch order).

    Patches with fewer than min_nuclei detected nuclei are dropped as
    background; if that would drop everything, the single densest patch is
    kept so the slide still has a node.
    """
    check_min_nuclei(min_nuclei)
    if not slide.patches:
        raise ValidationError(f"slide {slide.slide_id} has no patches")
    feats = []
    for patch in slide.patches:
        if patch.features is None:
            raise ValidationError(f"slide {slide.slide_id} has unfeaturized patches")
        feats.append(patch.features)
    f = np.vstack(feats)
    keep = f[:, NUCLEI_COUNT_FEATURE] >= min_nuclei
    if not keep.any():
        keep[int(np.argmax(f[:, NUCLEI_COUNT_FEATURE]))] = True
    return build_image_graph(f[keep], theta, slide_id=slide.slide_id, label=slide.label)


# ---------------------------------------------------------------------------
# folds

def check_folds(folds: int, class_sizes: dict | None = None) -> None:
    """Reject fewer than two folds, or a class (name: slide count) with fewer slides."""
    if folds < 2:
        raise ValidationError("folds must be >= 2")
    for name, n in (class_sizes or {}).items():
        if n < folds:
            raise ValidationError(f"class {name} has {n} slides, fewer than the {folds} folds")


def stratified_folds(labels, k: int, seed) -> list:
    """Disjoint covering folds with per-class proportions within one slide.

    Returns k lists of dataset indices; deterministic in seed.
    """
    check_folds(k)
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for c in sorted(set(labels.tolist())):
        idx = np.nonzero(labels == c)[0]
        rng.shuffle(idx)
        for pos, slide_idx in enumerate(idx):
            folds[pos % k].append(int(slide_idx))
    return [sorted(f) for f in folds]


# ---------------------------------------------------------------------------
# CSV interchange

POINTS_HEADER = ["slide_id", "patch_row", "patch_col", "patch_width", "patch_height", "x", "y"]
FEATURES_HEADER = ["slide_id", "patch_row", "patch_col"] + FEATURE_NAMES
LABELS_HEADER = ["slide_id", "label"]


def _write_csv(path, header: list, rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path, header: list):
    """Yield (line, row) for each non-blank row after an exact `header`.

    Every row is as wide as the header; a bad header is rejected at line 1
    and a row of another width at its own line.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValidationError(f"{path}:1: expected header {','.join(header)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
            yield line, row


def _numbers(path, line: int, kind, fields: list) -> list:
    """`fields` as numbers of type `kind`; one that does not parse is rejected at `path:line`."""
    try:
        return [kind(v) for v in fields]
    except ValueError as e:
        raise ValidationError(f"{path}:{line}: {e}") from e


def _patch_key(path, line: int, row: list) -> tuple[str, int, int]:
    """The (slide_id, patch_row, patch_col) of a point or feature CSV row; both indices >= 0."""
    prow, pcol = _numbers(path, line, int, row[1:3])
    if prow < 0 or pcol < 0:
        raise ValidationError(f"{path}:{line}: negative patch index")
    return row[0], prow, pcol


def assemble_slides(patches: dict, labels: dict | None = None) -> list:
    """SlideRecords from {(slide_id, row, col): PatchRecord}.

    Slides come in first-appearance order with their patches sorted by
    (row, col); labels come from the optional {slide_id: label} mapping
    (default -1).
    """
    slides: dict[str, SlideRecord] = {}
    for (slide_id, _, _), patch in patches.items():
        if slide_id not in slides:
            label = -1 if labels is None else int(labels.get(slide_id, -1))
            slides[slide_id] = SlideRecord(slide_id=slide_id, label=label)
        slides[slide_id].patches.append(patch)
    for rec in slides.values():
        rec.patches.sort(key=lambda p: (p.row, p.col))
    return list(slides.values())


def export_pointsets(slides, path) -> None:
    """Write per-patch point sets as CSV, one row per point:
    slide_id, patch_row, patch_col, patch_width, patch_height, x, y."""
    _write_csv(path, POINTS_HEADER, ([slide.slide_id, patch.row, patch.col,
                                      repr(float(patch.points.patch_width)),
                                      repr(float(patch.points.patch_height)),
                                      repr(float(x)), repr(float(y))]
                                     for slide in slides for patch in slide.patches
                                     for x, y in patch.points.coords))


def import_pointsets(path) -> list:
    """Read a point-set CSV back into unlabelled SlideRecords.

    Each patch's geometry comes from its rows, which must agree on it, and
    each point must lie inside its patch.  Malformed rows are rejected with
    their line number; a zero-byte file warns and reads as no slides.
    """
    path = Path(path)
    # a pipe reports size 0 before it is read, so only a regular file counts as empty
    if path.is_file() and path.stat().st_size == 0:
        log.warning("%s: empty point-set file", path)
        return []
    points: dict[tuple[str, int, int], list] = {}
    sizes: dict[tuple[str, int, int], tuple] = {}    # key -> (width, height, first line)
    for line, row in _read_csv(path, POINTS_HEADER):
        key = _patch_key(path, line, row)
        w, h, x, y = _numbers(path, line, float, row[3:])
        if not (0 < w < np.inf and 0 < h < np.inf):
            raise ValidationError(f"{path}:{line}: patch size {w}x{h} is not positive and finite")
        w0, h0, first = sizes.setdefault(key, (w, h, line))
        if (w, h) != (w0, h0):
            raise ValidationError(f"{path}:{line}: slide {key[0]} patch ({key[1]}, {key[2]}) "
                                  f"is {w}x{h}, but {w0}x{h0} at line {first}")
        if not (0 <= x < w and 0 <= y < h):
            raise ValidationError(f"{path}:{line}: point ({x}, {y}) outside patch of size {w}x{h}")
        points.setdefault(key, []).append((x, y))
    if not points:
        log.warning("%s: no data rows", path)
    return assemble_slides({
        key: PatchRecord(row=key[1], col=key[2],
                         points=PointSet(np.array(xy), *sizes[key][:2]))
        for key, xy in points.items()})


def export_features(slides, path) -> None:
    """Feature matrix CSV: id columns plus the 69 canonical feature columns."""
    _write_csv(path, FEATURES_HEADER, ([slide.slide_id, patch.row, patch.col]
                                       + [repr(float(v)) for v in patch.features]
                                       for slide in slides for patch in slide.patches))


def import_features(path, labels: dict | None = None) -> list:
    """Read a feature CSV back into SlideRecords (features only, no points).

    With `labels`, every labelled slide must have feature rows: a slide
    whose patches were all empty writes none, and would otherwise drop out
    with its label.  Each patch has one row.
    """
    patches, firsts = {}, {}     # (slide_id, row, col) -> PatchRecord, and its line
    for line, row in _read_csv(path, FEATURES_HEADER):
        key = _patch_key(path, line, row)
        first = firsts.setdefault(key, line)
        if first != line:
            raise ValidationError(f"{path}:{line}: slide {key[0]} patch ({key[1]}, {key[2]}) "
                                  f"repeats line {first}")
        vec = np.array(_numbers(path, line, float, row[3:]))
        if not np.isfinite(vec).all():
            raise ValidationError(f"{path}:{line}: non-finite feature value")
        patches[key] = PatchRecord(row=key[1], col=key[2], features=vec)
    slides = assemble_slides(patches, labels)
    found = {rec.slide_id for rec in slides}
    missing = [sid for sid in labels or () if sid not in found]
    if missing:
        raise ValidationError(
            f"{path}: no feature rows for labelled slides {', '.join(missing)}")
    return slides


def export_labels(slides, path) -> None:
    _write_csv(path, LABELS_HEADER, ([slide.slide_id, slide.label] for slide in slides))


def import_labels(path) -> dict:
    """{slide_id: label}, each label >= 0; a repeated slide_id is rejected with its line number."""
    out = {}
    for line, (slide_id, label) in _read_csv(path, LABELS_HEADER):
        label, = _numbers(path, line, int, [label])
        if label < 0:
            raise ValidationError(f"{path}:{line}: label must be >= 0, got {label}")
        if slide_id in out:
            raise ValidationError(f"{path}:{line}: repeated slide_id {slide_id!r}")
        out[slide_id] = label
    return out


# ---------------------------------------------------------------------------
# the experiment harness

def _run_fold(fold_idx: int, train_graphs, val_graphs, cfg: TrainConfig) -> dict:
    """Train on one fold and evaluate it; a pure function of its arguments."""
    model, history = train(train_graphs, cfg)
    result = evaluate(model, val_graphs)
    return {
        "fold": fold_idx,
        "val_slides": [g.slide_id for g in val_graphs],
        "train_size": len(train_graphs),
        "val_size": len(val_graphs),
        "accuracy": result.accuracy,
        "confusion": result.confusion.tolist(),
        "final_train_loss": history[-1]["loss"] if history else None,
        "final_train_accuracy": history[-1]["accuracy"] if history else None,
        "history": history,
    }


# the config fields that make the slides and their graphs; `cross_validate`
# reads none of them, so only `run_experiment`'s report records them
SLIDE_GRAPH_FIELDS = ("slides_per_class", "synth", "d_p", "theta", "min_nuclei_per_patch")


@one_blas_thread()
def cross_validate(graphs, config: ExperimentConfig, pool: WorkerPool | None = None) -> dict:
    """Stratified k-fold cross-validation of labelled slide graphs; returns the report.

    `config` must pass `validate`.  Every slide meets `train`'s rules and
    the fold rule before any fold trains; folds 1..k-1 train in the pool of
    `_worker_pool`, if any, while this process trains fold 0.  Deterministic
    given (graphs, config), timings excluded, whatever the worker count.
    """
    t_start = time.time()
    classes = len(config.class_names)
    check_graphs(graphs, graphs[0].node_features.shape[1] if graphs else 0, range(classes))
    labels = [g.label for g in graphs]
    check_folds(config.folds, {name: labels.count(c) for c, name in enumerate(config.class_names)})
    folds = stratified_folds(labels, config.folds, np.random.SeedSequence([config.seed, 7]))
    jobs = []
    for fold_idx, val_idx in enumerate(folds):
        val_set = set(val_idx)
        fold_seed = np.random.SeedSequence([config.train.seed, fold_idx]).generate_state(1)[0]
        fold_cfg = replace(config.train, seed=int(fold_seed), num_classes=classes)
        jobs.append((fold_idx, [g for i, g in enumerate(graphs) if i not in val_set],
                     [graphs[i] for i in val_idx], fold_cfg))

    with _worker_pool(config.workers, len(jobs), pool, in_process=1) as pool:
        pending = {i: pool.apply_async(_run_fold, job)
                   for i, job in enumerate(jobs) if pool is not None and i > 0}
        fold_reports = []
        for fold_idx, job in enumerate(jobs):
            fold = pending[fold_idx].get() if fold_idx in pending else _run_fold(*job)
            log.info("fold %d: accuracy %.4f", fold_idx, fold["accuracy"])
            fold_reports.append(fold)

    acc = np.array([f["accuracy"] for f in fold_reports])
    return {
        "format_version": 1,
        "config": {k: v for k, v in asdict(config).items() if k not in SLIDE_GRAPH_FIELDS},
        "num_slides": len(graphs),
        "classes": list(config.class_names),
        "folds": fold_reports,
        "accuracy_mean": float(acc.mean()),
        "accuracy_sd": float(acc.std()),
        "timings": {"train_seconds": time.time() - t_start},
    }


@one_blas_thread()
def run_experiment(config: ExperimentConfig, write_outputs: bool = True) -> dict:
    """synth -> featurize -> slide graphs -> `cross_validate`, in one pool; returns the report.

    With write_outputs, also writes report.json, report.txt and summary.csv to config.output_dir.
    """
    config.validate()
    check_folds(config.folds, dict.fromkeys(config.class_names, config.slides_per_class))
    t_start = time.time()
    log.info("generating %d synthetic slides", config.slides_per_class * len(config.class_names))
    slides = synth_dataset(config)

    with _worker_pool(config.workers, len(slides)) as pool:
        t_feat = time.time()
        # the pool makes `workers` moot here; perfbench's featurize span still reads it
        slides = featurize_slides(slides, config.d_p, workers=config.workers, pool=pool)
        featurize_seconds = time.time() - t_feat
        graphs = [build_slide_graph(s, config.theta, config.min_nuclei_per_patch)
                  for s in slides]
        report = cross_validate(graphs, config, pool)

    report["config"] = asdict(config)
    report["timings"] = {"featurize_seconds": featurize_seconds, **report["timings"],
                         "total_seconds": time.time() - t_start}
    if write_outputs:
        write_report(report, Path(config.output_dir))
    return report


def report_without_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


def write_report(report: dict, outdir: Path) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8")
    _write_csv(outdir / "summary.csv", ["fold", "accuracy"],
               [[f["fold"], f["accuracy"]] for f in report["folds"]]
               + [["mean", report["accuracy_mean"]], ["sd", report["accuracy_sd"]]])
    (outdir / "report.txt").write_text(format_report(report), encoding="utf-8")


def format_report(report: dict) -> str:
    lines = ["cross-validation report",
             f"  slides: {report['num_slides']}   classes: {', '.join(report['classes'])}",
             "", f"  {'fold':>4}  {'val size':>8}  {'accuracy':>9}"]
    lines += [f"  {f['fold']:>4}  {f['val_size']:>8}  {f['accuracy']:>9.4f}"
              for f in report["folds"]]
    lines += ["", f"  accuracy {100 * report['accuracy_mean']:.2f} +/- "
                  f"{100 * report['accuracy_sd']:.2f} %"]
    if report.get("timings"):
        lines.append("  timings: " + ", ".join(f"{k.removesuffix('_seconds')} {v:.1f}s"
                                               for k, v in report["timings"].items()))
    return "\n".join(lines + [""])
