"""In-memory spans around calls into wsigraph's public functions.

A Tracer patches module attributes with timing wrappers while it is
installed and restores the originals afterwards, so untraced and traced
operations can alternate in one process.  Each span records its name, start,
end, parent span and run id; ids carry the process id, so spans made in
forked featurization workers stay unique after they are shipped back.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
import tracemalloc

import numpy as np

# (module, attribute, span name).  Functions imported into several modules are
# patched in each namespace that a pipeline path calls them through.
TRACED = [
    ("features", "build_radius_graph", "graph.build_radius_graph"),
    ("features", "cell_graph_features", "features.cell_graph_features"),
    ("features", "voronoi_cells", "tessellation.voronoi_cells"),
    ("features", "voronoi_features", "features.voronoi_features"),
    ("features", "delaunay_triangulation", "tessellation.delaunay_triangulation"),
    ("features", "delaunay_features", "features.delaunay_features"),
    ("features", "minimum_spanning_tree", "graph.minimum_spanning_tree"),
    ("features", "mst_features", "features.mst_features"),
    ("features", "density_features", "features.density_features"),
    ("features", "patch_feature_vector", "features.patch_feature_vector"),
    ("pipeline", "patch_feature_vector", "features.patch_feature_vector"),
    ("pipeline", "synth_dataset", "pipeline.synth_dataset"),
    ("pipeline", "featurize_slides", "pipeline.featurize_slides"),
    ("pipeline", "build_slide_graph", "pipeline.build_slide_graph"),
    ("pipeline", "run_experiment", "pipeline.run_experiment"),
    ("pipeline", "build_image_graph", "image_graph.build_image_graph"),
    ("image_graph", "build_image_graph", "image_graph.build_image_graph"),
    ("pipeline", "train", "gcn.train"),
    ("pipeline", "evaluate", "gcn.evaluate"),
    ("gcn", "train", "gcn.train"),
    ("gcn", "evaluate", "gcn.evaluate"),
    ("gcn", "normalize_adjacency", "gcn.normalize_adjacency"),
    ("detection", "read_pgm", "detection.read_pgm"),
    ("detection", "detect_nuclei", "detection.detect_nuclei"),
]

# the five feature blocks patch_feature_vector concatenates, in vector order
BLOCK_OUTPUTS = [
    "features.cell_graph_features",
    "features.voronoi_features",
    "features.delaunay_features",
    "features.mst_features",
    "features.density_features",
]

SHIPPED_SPANS_KEY = "perfbench_spans"

_span_ids = itertools.count(1)   # unique across the tracers of one process


def band_of(n: int) -> str:
    """Nuclei-count band of a patch: n200/n450 split at 300, then n1000/n3000."""
    if n < 300:
        return "n200"
    if n < 700:
        return "n450"
    if n < 2000:
        return "n1000"
    return "n3000"


class Tracer:
    """Span recorder; `memory=True` also records a tracemalloc peak per span."""

    def __init__(self, modules: dict, run_id: str, memory: bool = False):
        self.modules = modules
        self.run_id = run_id
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self._blocks: list[np.ndarray] = []   # block outputs of the open vector call

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": f"{os.getpid()}.{next(_span_ids)}",
            "name": name,
            "parent": parent["id"] if parent else None,
            "run": self.run_id,
            "band": attrs.pop("band", parent["band"] if parent else None),
            **attrs,
        }
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent["_peak"] = max(parent["_peak"], peak)
            tracemalloc.reset_peak()
            span["_base"] = current
            span["_peak"] = current
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self.memory:
            peak = max(span.pop("_peak"), tracemalloc.get_traced_memory()[1])
            span["peak_mb"] = (peak - span.pop("_base")) / 2**20
            if self._stack:
                self._stack[-1]["_peak"] = max(self._stack[-1]["_peak"], peak)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = self._open(name, attrs)
        try:
            yield record
        finally:
            self._close(record)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if name == "features.patch_feature_vector":
                attrs["band"] = band_of(len(args[0]))
                attrs["n"] = len(args[0])
            if name == "features.delaunay_features" and args[0] is None:
                attrs["degenerate"] = True
            record = self._open(name, attrs)
            outer_blocks = self._blocks
            if name == "features.patch_feature_vector":
                self._blocks = []
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(record)
                blocks = self._blocks
                self._blocks = outer_blocks
            if name in BLOCK_OUTPUTS:
                self._blocks.append(out)
            elif name == "features.patch_feature_vector":
                record["reassembled"] = bool(
                    len(blocks) == len(BLOCK_OUTPUTS)
                    and np.array_equal(np.concatenate(blocks), out))
            elif name == "graph.build_radius_graph":
                record["edges"] = out.edge_count
            elif name == "tessellation.delaunay_triangulation":
                record["triangles"] = len(out.triangles)
            elif name == "image_graph.build_image_graph":
                record["edges"] = len(out.edges)
            elif name == "detection.detect_nuclei":
                record["nuclei"] = len(out)
            elif name == "pipeline.build_slide_graph":
                record["dropped"] = len(args[0].patches) - out.num_nodes
            elif name == "gcn.train":
                record["graph_steps"] = len(args[0]) * args[1].epochs
            elif name == "gcn.evaluate":
                record["graphs"] = len(args[1])
            elif name == "pipeline.featurize_slides":
                record["workers"] = args[2] if len(args) > 2 else kwargs.get("workers", 0)
                for slide in out:
                    self.spans.extend(slide.provenance.pop(SHIPPED_SPANS_KEY, []))
            return out

        return wrapper

    def _ship_spans(self, fn):
        """Wrap the per-slide pool task so worker spans travel back with the slide."""
        @functools.wraps(fn)
        def wrapper(job):
            mark = len(self.spans)
            slide = fn(job)
            slide.provenance[SHIPPED_SPANS_KEY] = self.spans[mark:]
            del self.spans[mark:]
            return slide

        return wrapper

    def install(self) -> None:
        if self.memory:
            tracemalloc.start()
        for mod, attr, name in TRACED:
            module = self.modules[mod]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        pipeline = self.modules["pipeline"]
        self._saved.append((pipeline, "_featurize_slide", pipeline._featurize_slide))
        pipeline._featurize_slide = self._ship_spans(pipeline._featurize_slide)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if self.memory:
            tracemalloc.stop()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, s["end"])
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def write_spans(spans: list[dict], path) -> None:
    """One JSON object per span, with self time, written when the run ends."""
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for s in sorted(spans, key=lambda s: s["start"]):
            fh.write(json.dumps({**s, "self_s": selfs[s["id"]]}) + "\n")
