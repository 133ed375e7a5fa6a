"""wsigraph benchmark worker: one workload, closed loop, one process.

Run it through run.py, which pins BLAS/OpenMP threads and measures peak RSS:

    python3 perfbench/run.py --workload cv-synth --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
``--write-reference`` recomputes perfbench/reference.json, the stored
feature vectors of the patch-dense pool.  NOTES.md says why each workload
exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import multiprocessing
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SRC = ROOT / "src"
if not (SRC / "wsigraph" / "__init__.py").is_file():
    sys.exit(f"perfbench: no wsigraph sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from scipy.spatial import cKDTree  # noqa: E402

import wsigraph  # noqa: E402
from wsigraph import detection, features, gcn, image_graph, pipeline  # noqa: E402

from tracing import BLOCK_OUTPUTS, Tracer, write_spans  # noqa: E402

if Path(wsigraph.__file__).resolve().parent != SRC / "wsigraph":
    sys.exit(f"perfbench: imported wsigraph from {wsigraph.__file__}, not {SRC}")

MODULES = {"features": features, "pipeline": pipeline, "image_graph": image_graph,
           "gcn": gcn, "detection": detection}

WORKERS = len(os.sched_getaffinity(0))   # featurization pool: one worker per usable core
D_P = 64.0
THETA = 0.8
SETUP_REPEATS = 3                # before the loop; one more follows each untraced op

# cv-synth: the paper's desk experiment at the smallest 3-fold size
CV_SLIDES_PER_CLASS = 3
CV_EPOCHS = 150
CV_MAX_ERROR_SHARE = 0.10       # criterion 7's 0.90 accuracy, as a share of slides

# patch-dense: a fixed pool of rendered patches; the seed picks one per size
DENSE_SIZES = {"n1000": (1024, 1000), "n3000": (1792, 3000)}
DENSE_POOL = 4
HARD_CORE_PX = 15.0             # as in acceptance criterion 8
RECALL_RADIUS_PX = 4.0
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-8

# slide-large: resampled feature matrices of a few hundred patches per slide
SLIDE_BASE_PER_CLASS = 2
SLIDE_PATCHES = 400
SLIDE_TRAIN_PER_CLASS = 2
SLIDE_VAL_PER_CLASS = 2
SLIDE_JITTER = 0.05
SLIDE_EPOCHS = 30
SLIDE_LR = 1e-3

BANDS = ("n200", "n450", "n1000", "n3000")
DENSE_BANDS = ("n1000", "n3000")
BLOCKS = {
    "cell_graph": ("graph.build_radius_graph", "features.cell_graph_features"),
    "voronoi": ("tessellation.voronoi_cells", "features.voronoi_features"),
    "delaunay": ("tessellation.delaunay_triangulation", "features.delaunay_features"),
    "mst": ("graph.minimum_spanning_tree", "features.mst_features"),
    "density": ("features.density_features",),
    "vector": None,
}
assert [BLOCKS[b][-1] for b in ("cell_graph", "voronoi", "delaunay", "mst", "density")] \
    == BLOCK_OUTPUTS


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit); BENCHMARK.json lists the same."""
    names = [(f"features.{b}.ms.{band}", "ms") for b in BLOCKS for band in BANDS]
    names += [(f"features.{b}.peak_mb.{band}", "MB") for b in BLOCKS for band in DENSE_BANDS]
    names += [(f"graph.radius_edges.{band}", "count") for band in BANDS]
    names += [(f"tessellation.triangles.{band}", "count") for band in BANDS]
    names += [("features.degenerate_patches", "count")]
    names += [(f"detection.read_pgm.ms.{band}", "ms") for band in DENSE_BANDS]
    names += [(f"detection.detect_nuclei.ms.{band}", "ms") for band in DENSE_BANDS]
    names += [(f"detection.nuclei.{band}", "count") for band in DENSE_BANDS]
    names += [("detection.recall_4px", "fraction"),
              ("image_graph.build_image_graph.ms_per_graph", "ms"),
              ("image_graph.edges_per_graph", "count"),
              ("gcn.normalize_adjacency.ms_per_graph", "ms"),
              ("gcn.train.ms_per_graph_step", "ms"),
              ("gcn.train.graph_steps", "count"),
              ("gcn.evaluate.ms_per_graph", "ms"),
              ("pipeline.synth_dataset.s", "s"),
              ("pipeline.featurize_slides.s", "s"),
              ("pipeline.build_slide_graph.ms_per_slide", "ms"),
              ("pipeline.featurize_slides.busy_ratio", "ratio"),
              ("pipeline.patches_dropped", "count"),
              ("trace.overhead_ratio", "ratio")]
    return names


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# cv-synth: pipeline.run_experiment end to end

class CvSynth:
    def __init__(self, seed: int):
        self.config = pipeline.ExperimentConfig(
            seed=seed, folds=3, slides_per_class=CV_SLIDES_PER_CLASS, d_p=D_P,
            theta=THETA, workers=WORKERS, train=gcn.TrainConfig(epochs=CV_EPOCHS))
        self.first_report = None
        self.accuracies: list[float] = []

    def setup(self) -> None:
        """Generate the slides, then featurize one fixed slide to warm every lazy import.

        The warm-up slide is the same for every seed, so set-up does the same
        work whatever the seed.
        """
        self.config.validate()
        pipeline.synth_dataset(self.config)
        warm = pipeline.synth_slide(0, self.config.synth, np.random.SeedSequence(0))
        pipeline.featurize_slides([warm], D_P, workers=1)

    def operation(self, tracer: Tracer | None = None) -> int:
        """One experiment; returns the operations it counts as (1)."""
        report = pipeline.run_experiment(self.config, write_outputs=False)
        check(report["num_slides"] == CV_SLIDES_PER_CLASS * 3, "wrong slide count")
        check(len(report["folds"]) == 3, "wrong fold count")
        wrong = sum(int(np.sum(f["confusion"]) - np.trace(f["confusion"]))
                    for f in report["folds"])
        allowed = math.ceil(CV_MAX_ERROR_SHARE * report["num_slides"])
        check(wrong <= allowed, f"{wrong} slides misclassified, more than {allowed}")
        acc = report["accuracy_mean"]
        stable = json.dumps(pipeline.report_without_timings(report), sort_keys=True)
        if self.first_report is None:
            self.first_report = stable
        check(stable == self.first_report, "report differs between runs of one seed")
        self.accuracies.append(acc)
        return 1

    def accuracy(self) -> float:
        return statistics.median(self.accuracies)


# ---------------------------------------------------------------------------
# patch-dense: read_pgm -> detect_nuclei -> patch_feature_vector on dense patches

def dense_points(rng: np.random.Generator, size: int, target: int) -> np.ndarray:
    """Clusters plus uniform background, thinned to a hard core, `target` points."""
    cell = HARD_CORE_PX
    margin = 6.0
    grid: dict[tuple[int, int], list] = {}
    pts: list[tuple[float, float]] = []
    while len(pts) < target:
        parents = rng.uniform(0.0, size, (8, 2))
        clustered = (parents[:, None, :] + rng.normal(0.0, 40.0, (8, 40, 2))).reshape(-1, 2)
        cand = np.vstack([clustered, rng.uniform(0.0, size, (320, 2))])
        for x, y in cand[rng.permutation(len(cand))]:
            if not (margin <= x < size - margin and margin <= y < size - margin):
                continue
            gx, gy = int(x // cell), int(y // cell)
            if any((x - px) ** 2 + (y - py) ** 2 < cell * cell
                   for i in (gx - 1, gx, gx + 1) for j in (gy - 1, gy, gy + 1)
                   for px, py in grid.get((i, j), ())):
                continue
            grid.setdefault((gx, gy), []).append((x, y))
            pts.append((x, y))
            if len(pts) == target:
                break
    return np.array(pts)


def render_dense_patch(band: str, variant: int, path: Path) -> np.ndarray:
    """Write one pool patch as PGM and return its true nuclei centres."""
    size, target = DENSE_SIZES[band]
    rng = np.random.default_rng([size, target, variant])
    truth = dense_points(rng, size, target)
    n = len(truth)
    img = detection.render_nuclei_image(
        wsigraph.PointSet(truth, size, size),
        blob_sigma=rng.uniform(4.0, 6.0, n), amplitude=rng.uniform(0.5, 0.8, n))
    detection.write_pgm(img, path)
    return truth


def recall(detected: np.ndarray, truth: np.ndarray, radius: float) -> float:
    """Share of true centres matched one-to-one, closest pairs first, within radius."""
    if len(detected) == 0:
        return 0.0
    pairs = cKDTree(detected).sparse_distance_matrix(cKDTree(truth), radius).items()
    used_d, used_t = set(), set()
    for (i, j), _ in sorted(pairs, key=lambda p: (p[1], p[0])):
        if i not in used_d and j not in used_t:
            used_d.add(i)
            used_t.add(j)
    return len(used_t) / len(truth)


def dense_detect(path: Path, bank):
    params = pipeline.DetectionParams()
    img = detection.read_pgm(path)
    return detection.detect_nuclei(img, bank, params.response_threshold, params.merge_radius)


def dense_feature_vector(path: Path, bank) -> tuple:
    pts = dense_detect(path, bank)
    return pts, features.patch_feature_vector(pts, d_p=D_P)


class PatchDense:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.variants = {band: int(rng.integers(DENSE_POOL)) for band in DENSE_SIZES}
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.recalls: dict[str, float] = {}

    def setup(self) -> None:
        """Render the chosen pool patches to PGM and build the gLoG bank."""
        (OUT / "pgm").mkdir(parents=True, exist_ok=True)
        self.patches = []
        for band, variant in self.variants.items():
            path = OUT / "pgm" / f"{band}-{variant}.pgm"
            self.patches.append((band, variant, path, render_dense_patch(band, variant, path)))
        p = pipeline.DetectionParams()
        self.bank = detection.build_glog_bank(p.sigma_x, p.sigma_y, p.orientations, p.bandwidth)

    def check_vector(self, band: str, variant: int, vec: np.ndarray) -> None:
        check(vec.shape == (69,) and bool(np.all(np.isfinite(vec))),
              f"{band}-{variant}: vector is not 69 finite values")
        ref = np.array(self.reference["vectors"][f"{band}-{variant}"])
        check(np.allclose(vec, ref, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL),
              f"{band}-{variant}: vector differs from the stored reference")

    def operation(self, tracer: Tracer | None = None) -> int:
        """One round: every chosen patch once; returns the patches it processed."""
        for band, variant, path, truth in self.patches:
            with tracer.span("perfbench.dense_patch", band=band) if tracer \
                    else contextlib.nullcontext():
                pts, vec = dense_feature_vector(path, self.bank)
            self.check_vector(band, variant, vec)
            self.recalls[band] = recall(pts.coords, truth, RECALL_RADIUS_PX)
        return len(self.patches)

    def memory_pass(self, run_id: str) -> list[dict]:
        """Featurize every chosen patch once under tracemalloc; returns the spans.

        Detection runs untraced first, because under tracemalloc it would only
        add minutes.
        """
        tracer = Tracer(MODULES, run_id, memory=True)
        for band, variant, path, _ in self.patches:
            pts = dense_detect(path, self.bank)
            with tracer, tracer.span("perfbench.dense_patch", band=band):
                vec = features.patch_feature_vector(pts, d_p=D_P)
            self.check_vector(band, variant, vec)
        return tracer.spans

    def accuracy(self) -> float:
        """Detection recall within 4 px, averaged over the chosen patches."""
        return float(np.mean(list(self.recalls.values())))


def write_reference() -> None:
    """Recompute the stored feature vector of every pool patch."""
    (OUT / "pgm").mkdir(parents=True, exist_ok=True)
    p = pipeline.DetectionParams()
    bank = detection.build_glog_bank(p.sigma_x, p.sigma_y, p.orientations, p.bandwidth)
    vectors = {}
    for band in DENSE_SIZES:
        for variant in range(DENSE_POOL):
            path = OUT / "pgm" / f"{band}-{variant}.pgm"
            render_dense_patch(band, variant, path)
            _, vec = dense_feature_vector(path, bank)
            vectors[f"{band}-{variant}"] = [float(v) for v in vec]
            print(f"{band}-{variant}: {int(vec[features.FEATURE_NAMES.index('nn_nuclei_count')])}"
                  " nuclei", file=sys.stderr)
    REFERENCE.write_text(json.dumps({"vectors": vectors}, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# slide-large: build_image_graph -> gcn.train -> gcn.evaluate on large slides

class SlideLarge:
    def __init__(self, seed: int):
        self.seed = seed
        self.first_predictions = None
        self.accuracies: list[float] = []

    def setup(self) -> None:
        """Featurize default-density patches, then resample them into large slides.

        The base patches are the same for every seed, so set-up does the same
        work whatever the seed; the seed drives the resampling, the jitter and
        the GCN.
        """
        params = pipeline.SynthParams(slide_width=768, slide_height=768)
        base_slides = [
            pipeline.synth_slide(c, params, np.random.SeedSequence([c, i]))
            for c in range(3) for i in range(SLIDE_BASE_PER_CLASS)
        ]
        base_slides = pipeline.featurize_slides(base_slides, D_P, workers=WORKERS)
        base = {c: np.vstack([p.features for s in base_slides if s.label == c
                              for p in s.patches]) for c in range(3)}
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 99]))
        self.train_set, self.val_set = [], []
        per_class = SLIDE_TRAIN_PER_CLASS + SLIDE_VAL_PER_CLASS
        for c in range(3):
            for i in range(per_class):
                rows = base[c][rng.integers(len(base[c]), size=SLIDE_PATCHES)]
                jitter = 1.0 + SLIDE_JITTER * rng.standard_normal(rows.shape)
                split = self.train_set if i < SLIDE_TRAIN_PER_CLASS else self.val_set
                split.append((f"large-c{c}-{i}", c, rows * jitter))

    def operation(self, tracer: Tracer | None = None) -> int:
        """Build every slide graph, train on the train split, evaluate the rest."""
        build = image_graph.build_image_graph
        train_graphs = [build(f, THETA, slide_id=s, label=c) for s, c, f in self.train_set]
        val_graphs = [build(f, THETA, slide_id=s, label=c) for s, c, f in self.val_set]
        for g in train_graphs + val_graphs:
            check(g.num_nodes == SLIDE_PATCHES, f"{g.slide_id}: wrong node count")
        config = gcn.TrainConfig(learning_rate=SLIDE_LR, epochs=SLIDE_EPOCHS,
                                 seed=self.seed, num_classes=3)
        model, _ = gcn.train(train_graphs, config)
        result = gcn.evaluate(model, val_graphs)
        preds = result.predictions.tolist()
        if self.first_predictions is None:
            self.first_predictions = preds
        check(preds == self.first_predictions, "predictions differ between runs of one seed")
        self.accuracies.append(result.accuracy)
        return len(train_graphs) + len(val_graphs) + 1

    def accuracy(self) -> float:
        return statistics.median(self.accuracies)


WORKLOADS = {"cv-synth": CvSynth, "patch-dense": PatchDense, "slide-large": SlideLarge}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced run

def layer_metrics(spans: list[dict], mem_spans: list[dict], traced_ops: int,
                  overhead_ratio: float, bench) -> dict:
    out = {name: 0.0 for name, _ in per_layer_names()}

    def dur(s):
        return s["end"] - s["start"]

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    kids: dict = {}
    for s in spans + mem_spans:
        kids.setdefault(s["parent"], []).append(s)
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    vectors = named.get("features.patch_feature_vector", [])
    mem_vectors = [s for s in mem_spans if s["name"] == "features.patch_feature_vector"]
    for band in BANDS:
        vs = [v for v in vectors if v["band"] == band]
        for block, names in BLOCKS.items():
            per_call = [dur(v) if names is None else
                        sum(dur(k) for k in kids.get(v["id"], []) if k["name"] in names)
                        for v in vs]
            out[f"features.{block}.ms.{band}"] = med(per_call) * 1e3
            if band in DENSE_BANDS:
                peaks = [v["peak_mb"] if names is None else
                         max((k["peak_mb"] for k in kids.get(v["id"], []) if k["name"] in names),
                             default=0.0)
                         for v in mem_vectors if v["band"] == band]
                out[f"features.{block}.peak_mb.{band}"] = med(peaks)
        out[f"graph.radius_edges.{band}"] = sum(
            s["edges"] for s in named.get("graph.build_radius_graph", [])
            if s["band"] == band) / traced_ops
        out[f"tessellation.triangles.{band}"] = sum(
            s["triangles"] for s in named.get("tessellation.delaunay_triangulation", [])
            if s["band"] == band) / traced_ops
    out["features.degenerate_patches"] = sum(
        1 for s in named.get("features.delaunay_features", []) if s.get("degenerate")
    ) / traced_ops

    for band in DENSE_BANDS:
        for fn in ("read_pgm", "detect_nuclei"):
            out[f"detection.{fn}.ms.{band}"] = med(
                [dur(s) for s in named.get(f"detection.{fn}", []) if s["band"] == band]) * 1e3
        out[f"detection.nuclei.{band}"] = med(
            [s["nuclei"] for s in named.get("detection.detect_nuclei", []) if s["band"] == band])
    if isinstance(bench, PatchDense):
        out["detection.recall_4px"] = bench.accuracy()

    graphs = named.get("image_graph.build_image_graph", [])
    out["image_graph.build_image_graph.ms_per_graph"] = med([dur(s) for s in graphs]) * 1e3
    out["image_graph.edges_per_graph"] = (
        sum(s["edges"] for s in graphs) / len(graphs) if graphs else 0.0)
    out["gcn.normalize_adjacency.ms_per_graph"] = med(
        [dur(s) for s in named.get("gcn.normalize_adjacency", [])]) * 1e3
    trains = named.get("gcn.train", [])
    steps = sum(s["graph_steps"] for s in trains)
    if steps:
        # the training loop alone: train's own normalize_adjacency calls are left out
        step_s = sum(dur(s) - sum(dur(k) for k in kids.get(s["id"], [])
                                  if k["name"] == "gcn.normalize_adjacency")
                     for s in trains)
        out["gcn.train.ms_per_graph_step"] = step_s / steps * 1e3
        out["gcn.train.graph_steps"] = steps / traced_ops
    evals = named.get("gcn.evaluate", [])
    n_eval = sum(s["graphs"] for s in evals)
    if n_eval:
        out["gcn.evaluate.ms_per_graph"] = sum(dur(s) for s in evals) / n_eval * 1e3

    out["pipeline.synth_dataset.s"] = med([dur(s) for s in named.get("pipeline.synth_dataset", [])])
    pools = named.get("pipeline.featurize_slides", [])
    out["pipeline.featurize_slides.s"] = med([dur(s) for s in pools])
    busy = [sum(dur(k) for k in kids.get(p["id"], [])
                if k["name"] == "features.patch_feature_vector") / (dur(p) * p["workers"])
            for p in pools if p["workers"] > 0]
    out["pipeline.featurize_slides.busy_ratio"] = med(busy)
    slide_graphs = named.get("pipeline.build_slide_graph", [])
    out["pipeline.build_slide_graph.ms_per_slide"] = med([dur(s) for s in slide_graphs]) * 1e3
    out["pipeline.patches_dropped"] = sum(s["dropped"] for s in slide_graphs) / traced_ops
    out["trace.overhead_ratio"] = overhead_ratio
    return out


# ---------------------------------------------------------------------------
# the run

def _memory_child(bench, run_id: str, conn) -> None:
    try:
        conn.send(bench.memory_pass(run_id))
    except Exception:  # noqa: BLE001 - reported to the parent as a failed operation
        traceback.print_exc()
        conn.send(None)
    conn.close()


def start_memory_pass(bench, run_id: str) -> tuple:
    """Fork a process that runs bench.memory_pass beside the timed loop.

    tracemalloc slows the pure-Python tessellation several times over, so
    the tracemalloc pass takes longer than the timed loop; run side by side,
    a traced run stays well inside the launcher's timeout.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_memory_child, args=(bench, run_id, send))
    proc.start()
    send.close()
    return proc, recv


def finish_memory_pass(proc, recv) -> list[dict] | None:
    """Wait for the memory pass; its spans, or None if it failed."""
    try:
        spans = recv.recv()
    except EOFError:
        spans = None
    proc.join()
    return spans


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = WORKLOADS[workload](seed)

    def timed_setup() -> None:
        t0 = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - t0)

    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        timed_setup()

    attempted = failed = 0
    walls, traced_walls = [], []
    spans, mem_spans = [], []
    run_id = f"{workload}-{seed}"
    memory = start_memory_pass(bench, run_id) if trace and hasattr(bench, "memory_pass") \
        else None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted == 0:
        for tracer in [None, Tracer(MODULES, run_id)] if trace else [None]:
            gc.collect()    # no op pays for garbage an earlier one left
            t0 = time.perf_counter()
            try:
                with tracer or contextlib.nullcontext():
                    attempted += bench.operation(tracer)
            except Exception:  # noqa: BLE001 - every failure is counted, the loop goes on
                traceback.print_exc()
                attempted += 1
                failed += 1
                continue
            wall = time.perf_counter() - t0
            if tracer is None:
                walls.append(wall)
                if not trace:   # a traced patch-dense run reads the PGMs in its memory pass
                    timed_setup()   # set-up samples spread over the run, as the ops are
            else:
                traced_walls.append(wall)
                spans.extend(tracer.spans)
    if memory is not None:
        mem_spans = finish_memory_pass(*memory)
        attempted += len(bench.patches) if mem_spans is not None else 1
        failed += mem_spans is None
        mem_spans = mem_spans or []

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.fmean(walls) if walls else 0.0, "unit": "s"},
            "accuracy": {"value": bench.accuracy() if walls else 0.0, "unit": "fraction"},
        }
        return result

    bad = [s["id"] for s in spans + mem_spans
           if s["name"] == "features.patch_feature_vector" and not s["reassembled"]]
    if bad:
        print(f"perfbench: traced blocks do not reassemble the vector in {len(bad)} calls",
              file=sys.stderr)
        result["failed"] += len(bad)
        result["correct"] = False
    OUT.mkdir(parents=True, exist_ok=True)
    write_spans(spans + mem_spans, OUT / f"spans-{run_id}.jsonl")
    overhead = (statistics.median(traced_walls) / statistics.median(walls)
                if walls and traced_walls else 0.0)
    units = dict(per_layer_names())
    values = layer_metrics(spans, mem_spans, max(len(traced_walls), 1), overhead, bench)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
