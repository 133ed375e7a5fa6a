import contextlib
import json
import multiprocessing.pool
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from wsigraph import pipeline
from wsigraph.image_graph import load_image_graphs, save_image_graphs
from wsigraph.pipeline import (
    ExperimentConfig,
    ValidationError,
    build_slide_graph,
    export_labels,
    export_pointsets,
    featurize_slides,
    import_labels,
    import_pointsets,
    load_experiment_config,
    run_experiment,
    report_without_timings,
    stratified_folds,
)
from wsigraph.points import PatchRecord, PointSet, SlideRecord, tile_image
from wsigraph.synth import SYNTH_PROCESSES, SynthParams, synth_dataset, synth_slide


class TestTiling:
    def test_single_patch(self):
        assert tile_image(768, 768, 768, 128) == [(0, 0)]

    def test_extended_slide_geometry(self):
        origins = tile_image(4548, 7548, 768, 128)
        xs = {x for x, _ in origins}
        ys = {y for _, y in origins}
        assert len(xs) == 30 and len(ys) == 53
        assert len(origins) == 1590

    def test_large_stride(self):
        assert tile_image(1000, 1000, 768, 256) == [(0, 0)]

    def test_row_major_order(self):
        origins = tile_image(1600, 1600, 768, 768)
        assert origins == [(0, 0), (768, 0), (0, 768), (768, 768)]

    def test_formula_matches_for_random_geometries(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = int(rng.integers(10, 200))
            stride = int(rng.integers(1, 150))
            w = int(rng.integers(size, 2000))
            h = int(rng.integers(size, 2000))
            count = len(tile_image(w, h, size, stride))
            expected = ((w - size) // stride + 1) * ((h - size) // stride + 1)
            assert count == expected

    def test_oversize_patch_rejected(self):
        with pytest.raises(ValidationError):
            tile_image(500, 500, 768, 128)


class TestSynth:
    def test_deterministic_given_seed(self):
        p = SynthParams()
        a = synth_slide(1, p, seed=123)
        b = synth_slide(1, p, seed=123)
        assert a.label == b.label
        for pa, pb in zip(a.patches, b.patches):
            assert np.array_equal(pa.points.coords, pb.points.coords)

    def test_unknown_class_rejected(self):
        for class_id in (5, 3, -1):     # -1 would index the last class of the table
            with pytest.raises(ValidationError, match=f"unknown class id {class_id}"):
                synth_slide(class_id, SynthParams(), seed=0)

    def test_poisson_counts_within_interval(self):
        # class 0 is one Poisson scatter of `rate` points per patch: counts
        # over 100 seeds stay in the central 99% interval except for rare
        # outliers, and the total matches
        (_, rate), = SYNTH_PROCESSES[0]
        p = SynthParams(slide_width=768, slide_height=768)
        counts = [
            len(synth_slide(0, p, seed=s).patches[0].points) for s in range(100)
        ]
        lo = rate - 2.576 * np.sqrt(rate)
        hi = rate + 2.576 * np.sqrt(rate)
        inside = sum(lo <= c <= hi for c in counts)
        assert inside >= 96
        total = sum(counts)
        assert abs(total - 100 * rate) <= 3.29 * np.sqrt(100 * rate)

    @staticmethod
    def _reference_patch_points(class_id, size, rng):
        """The generator as three hand-written branches with literal rates."""
        def poisson(mean):
            return rng.uniform(0.0, size, size=(rng.poisson(mean), 2))

        def clusters(parent_mean, offspring_mean, sd):
            pts = []
            for _ in range(rng.poisson(parent_mean)):
                parent = rng.uniform(0.0, size, size=2)
                offs = parent + rng.normal(0.0, sd, size=(rng.poisson(offspring_mean), 2))
                pts.append(offs[(offs >= 0.0).all(axis=1) & (offs < size).all(axis=1)])
            return np.vstack(pts) if pts else np.zeros((0, 2))

        if class_id == 0:
            return poisson(220.0)
        if class_id == 1:
            clustered = clusters(10.0, 20.0, 40.0)
            return np.vstack([clustered, poisson(40.0)])
        tight = clusters(16.0, 13.0, 12.0)
        loose = clusters(16.0, 8.0, 44.0)
        return np.vstack([tight, loose, poisson(50.0)])

    @pytest.mark.parametrize("params", [SynthParams(),
                                        SynthParams(slide_width=512, slide_height=256,
                                                    patch_size=256)])
    def test_process_table_draws_the_reference_points(self, params):
        for class_id in range(3):
            for s in range(20):
                seed = np.random.SeedSequence([s, class_id])
                slide = synth_slide(class_id, params, seed)
                rng = np.random.default_rng(seed)
                size = params.patch_size
                for patch in slide.patches:
                    ref = self._reference_patch_points(class_id, float(size), rng)
                    assert np.array_equal(patch.points.coords,
                                          PointSet(ref, size, size).coords)

    def test_dense_class_has_smaller_nn_distance(self):
        p = SynthParams(slide_width=768, slide_height=768)
        wins = 0
        for s in range(40):
            d = {}
            for c in (0, 2):
                pts = synth_slide(c, p, seed=[s, c]).patches[0].points
                nn, _ = cKDTree(pts.coords).query(pts.coords, k=2)  # column 0: self
                d[c] = nn[:, 1].mean()
            wins += d[2] < d[0]
        assert wins >= 38       # 95% of seeds


class TestFolds:
    def test_disjoint_cover(self):
        labels = [0] * 10 + [1] * 10 + [2] * 10
        folds = stratified_folds(labels, 3, seed=0)
        allidx = sorted(i for f in folds for i in f)
        assert allidx == list(range(30))

    def test_stratification_within_one(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 31).tolist()
        folds = stratified_folds(labels, 3, seed=5)
        labels = np.array(labels)
        for c in range(3):
            per_fold = [int((labels[f] == c).sum()) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic(self):
        labels = [0, 1, 2] * 7
        assert stratified_folds(labels, 3, seed=9) == stratified_folds(labels, 3, seed=9)

    def test_needs_two_folds(self):
        with pytest.raises(ValidationError):
            stratified_folds([0, 1], 1, seed=0)

    def test_too_few_synthetic_slides_rejected_before_synthesis(self, monkeypatch):
        def fail(config):
            raise AssertionError("slides were generated before the fold rule was checked")

        monkeypatch.setattr(pipeline, "synth_dataset", fail)
        cfg = ExperimentConfig(slides_per_class=2, workers=1)
        cfg.validate()      # slides_per_class is a rule of the synthetic path only
        with pytest.raises(ValidationError,
                           match="class normal has 2 slides, fewer than the 3 folds"):
            run_experiment(cfg, write_outputs=False)

    @pytest.mark.parametrize("labels, message", [
        ([0, 1, 2] * 2 + [0, 1], "class high_grade has 2 slides, fewer than the 3 folds"),
        ([0, 1] * 3, "class high_grade has 0 slides, fewer than the 3 folds"),
        ([], "class normal has 0 slides, fewer than the 3 folds"),
        ([0, 1, 2] * 3 + [-1], "slide g9 has no label"),
    ])
    def test_cross_validate_checks_every_slide_before_a_fold_trains(self, monkeypatch,
                                                                    labels, message):
        def fail(*args):
            raise AssertionError("a fold trained")

        monkeypatch.setattr(pipeline, "train", fail)
        graphs = [pipeline.ImageGraph(np.eye(2), label=label, slide_id=f"g{i}")
                  for i, label in enumerate(labels)]
        with pytest.raises(ValidationError, match=message):
            pipeline.cross_validate(graphs, ExperimentConfig(workers=1))


class TestCsvRoundTrips:
    def _small_dataset(self):
        p = SynthParams(slide_width=768, slide_height=768)
        return [
            synth_slide(c, p, seed=[7, c], slide_id=f"s{c}") for c in (0, 1, 2)
        ]

    def test_pointsets_round_trip(self, tmp_path):
        slides = self._small_dataset()
        path = tmp_path / "points.csv"
        export_pointsets(slides, path)
        back = import_pointsets(path)
        assert [s.slide_id for s in back] == [s.slide_id for s in slides]
        for a, b in zip(slides, back):
            assert b.label == -1            # labels join at build-graph
            assert len(a.patches) == len(b.patches)
            for pa, pb in zip(a.patches, b.patches):
                assert (pa.row, pa.col) == (pb.row, pb.col)
                assert np.array_equal(pa.points.coords, pb.points.coords)

    @pytest.mark.parametrize("width, height", [(256, 256), (512, 256)])
    def test_pointsets_round_trip_their_patch_geometry(self, tmp_path, width, height):
        rng = np.random.default_rng(width)
        slides = [SlideRecord("s", 0, [PatchRecord(
            row=r, col=c, points=PointSet(rng.uniform(0, 1, (40, 2)) * (width, height),
                                          width, height)) for r in (0, 1) for c in (0, 1)])]
        path = tmp_path / "points.csv"
        export_pointsets(slides, path)
        back, = import_pointsets(path)
        for pa, pb in zip(slides[0].patches, back.patches, strict=True):
            assert np.array_equal(pa.points.coords, pb.points.coords)
            assert (pb.points.patch_width, pb.points.patch_height) == (width, height)

    def test_interleaved_rows_group_by_slide_in_first_appearance_order(self, tmp_path):
        rows = [("b", 1, 0, 1.0), ("a", 0, 1, 2.0), ("b", 0, 0, 3.0), ("c", 0, 0, 4.0),
                ("a", 0, 0, 5.0), ("b", 1, 0, 6.0), ("a", 0, 1, 7.0), ("c", 0, 0, 8.0)]
        path = tmp_path / "points.csv"
        path.write_text("slide_id,patch_row,patch_col,patch_width,patch_height,x,y\n"
                        + "".join(f"{s},{r},{c},16.0,16.0,{x},{x}\n" for s, r, c, x in rows))
        back = import_pointsets(path)
        assert [s.slide_id for s in back] == ["b", "a", "c"]
        got = {s.slide_id: [((p.row, p.col), p.points.coords[:, 0].tolist())
                            for p in s.patches] for s in back}
        assert got == {
            "b": [((0, 0), [3.0]), ((1, 0), [1.0, 6.0])],
            "a": [((0, 0), [5.0]), ((0, 1), [2.0, 7.0])],
            "c": [((0, 0), [4.0, 8.0])],
        }

    def test_empty_file_warns_and_returns_nothing(self, tmp_path, caplog):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with caplog.at_level("WARNING"):
            assert import_pointsets(path) == []
        assert "empty" in caplog.text

    def test_out_of_patch_point_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "slide_id,patch_row,patch_col,patch_width,patch_height,x,y\n"
            "s0,0,0,768.0,768.0,10.0,20.0\ns0,0,0,768.0,768.0,768.0,5.0\n"
        )
        with pytest.raises(ValidationError, match=":3"):
            import_pointsets(path)

    def test_malformed_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slide_id,patch_row,patch_col,patch_width,patch_height,x,y\n"
                        "s0,zero,0,768.0,768.0,1.0,2.0\n")
        with pytest.raises(ValidationError, match=":2"):
            import_pointsets(path)

    def test_features_and_graphs_round_trip(self, tmp_path):
        slides = featurize_slides(self._small_dataset(), d_p=64.0, workers=1)
        fpath = tmp_path / "features.csv"
        pipeline.export_features(slides, fpath)
        labels = {s.slide_id: s.label for s in slides}
        back = pipeline.import_features(fpath, labels=labels)
        back_by_id = {s.slide_id: s for s in back}
        for s in slides:
            b = back_by_id[s.slide_id]
            assert b.label == s.label
            for pa, pb in zip(s.patches, b.patches):
                assert np.array_equal(pa.features, pb.features)

        graphs = [build_slide_graph(s, theta=0.8, min_nuclei=5) for s in slides]
        gpath = tmp_path / "graphs.jsonl"
        save_image_graphs(graphs, gpath)
        back_graphs = load_image_graphs(gpath)
        for a, b in zip(graphs, back_graphs):
            assert a.slide_id == b.slide_id and a.label == b.label
            assert np.array_equal(a.node_features, b.node_features)
            assert a.edges == b.edges

    def test_labels_round_trip(self, tmp_path):
        slides = self._small_dataset()
        path = tmp_path / "labels.csv"
        export_labels(slides, path)
        assert import_labels(path) == {"s0": 0, "s1": 1, "s2": 2}

    @pytest.mark.parametrize("kind", ["points", "features", "labels"])
    def test_written_file_reads_back_to_the_same_bytes(self, tmp_path, kind):
        slides = featurize_slides(self._small_dataset(), d_p=64.0, workers=1)
        write, read = {
            "points": (export_pointsets, import_pointsets),
            "features": (pipeline.export_features, pipeline.import_features),
            "labels": (export_labels, lambda p: [SlideRecord(sid, label)
                                                 for sid, label in import_labels(p).items()]),
        }[kind]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write(slides, first)
        write(read(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_repeated_label_rejected_with_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("slide_id,label\na,0\nb,1\na,2\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:4: repeated slide_id 'a'")):
            import_labels(path)


def test_featurize_pool_gives_the_serial_features():
    p = SynthParams(slide_width=512, slide_height=256, patch_size=256)

    def features(workers):
        slides = [synth_slide(c, p, seed=[5, c]) for c in (0, 1, 2)]
        return [s.patches for s in featurize_slides(slides, d_p=64.0, workers=workers)]

    serial, pooled = features(1), features(2)
    for a, b in zip(serial, pooled, strict=True):
        for pa, pb in zip(a, b, strict=True):
            assert pa.features.shape == (69,) and np.array_equal(pa.features, pb.features)


class TestSlideGraph:
    def test_filters_sparse_patches(self):
        p = SynthParams(slide_width=1536, slide_height=1536)
        slide = synth_slide(0, p, seed=3)
        slide = featurize_slides([slide], d_p=64.0, workers=1)[0]
        # force one patch to look almost empty
        slide.patches[0].features = np.zeros(69)
        g = build_slide_graph(slide, theta=0.8, min_nuclei=20)
        assert g.num_nodes == len(slide.patches) - 1

    def test_keeps_densest_patch_when_all_sparse(self):
        slide = synth_slide(0, SynthParams(), seed=4)
        slide = featurize_slides([slide], d_p=64.0, workers=1)[0]
        counts = [len(patch.points) for patch in slide.patches]
        g = build_slide_graph(slide, theta=0.8, min_nuclei=max(counts) + 1)
        assert g.num_nodes == 1
        densest = slide.patches[int(np.argmax(counts))].features
        assert np.array_equal(g.node_features[0], densest)

    def test_slide_without_patches_rejected_by_name(self):
        slide = SlideRecord(slide_id="empty-slide", label=0)
        with pytest.raises(ValidationError, match="slide empty-slide has no patches"):
            build_slide_graph(slide, theta=0.8)


def test_patch_above_the_nuclei_cap_is_rejected_before_featurizing(over_cap_slide,
                                                                   no_patch_features):
    with pytest.raises(ValidationError, match=r"slide big patch \(2, 5\): 10001 nuclei, "
                                              r"above the cap of 10000"):
        featurize_slides([over_cap_slide], d_p=64.0, workers=1)


class TestConfig:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "seed": 3,
            "slides_per_class": 6,
            "train": {"epochs": 10, "learning_rate": 0.001},
            "synth": {"patch_size": 512},
        }))
        cfg = load_experiment_config(path)
        assert cfg.seed == 3
        assert cfg.train.epochs == 10
        assert cfg.synth.patch_size == 512

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"not_a_key": 1}')
        with pytest.raises(ValidationError, match="not_a_key"):
            load_experiment_config(path)

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1]
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        path = tmp_path / "config.json"
        path.write_text(example)
        # the example spells out the defaults
        assert load_experiment_config(path) == ExperimentConfig()

    def test_readme_library_entry_points_import(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library entry points", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})

    def test_detection_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"detection": {"sigma_x": 8.0}}')
        with pytest.raises(ValidationError, match="unknown config key 'detection'"):
            load_experiment_config(path)

    # the generator's rates live in SYNTH_PROCESSES, not in the config
    @pytest.mark.parametrize("key", ["poisson_mean", "parent_mean", "offspring_mean",
                                     "cluster_sd", "background_mean", "dense_parent_mean",
                                     "dense_offspring_mean", "dense_sds", "dense_loose_mean",
                                     "dense_background_mean"])
    def test_synth_rate_key_rejected(self, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"synth": {key: 1}}))
        with pytest.raises(ValidationError, match=f"unknown config key 'synth.{key}'"):
            load_experiment_config(path)

    def test_bad_values_rejected_before_work(self):
        cfg = ExperimentConfig(folds=1)
        with pytest.raises(ValidationError):
            cfg.validate()
        cfg = ExperimentConfig(theta=1.5)
        with pytest.raises(ValidationError):
            cfg.validate()


@pytest.fixture(scope="module")
def run_pair(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig(
        seed=11, slides_per_class=4, workers=1, output_dir=str(out / "run")
    )
    cfg.train.epochs = 30
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg, write_outputs=False)
    return cfg, r1, r2


class TestExperiment:
    def test_report_structure_and_outputs(self, run_pair):
        cfg, report, _ = run_pair
        assert len(report["folds"]) == 3
        for f in report["folds"]:
            assert 0.0 <= f["accuracy"] <= 1.0
            assert np.asarray(f["confusion"]).shape == (3, 3)
        accs = [f["accuracy"] for f in report["folds"]]
        assert report["accuracy_mean"] == pytest.approx(np.mean(accs))
        assert report["accuracy_sd"] == pytest.approx(np.std(accs))
        from pathlib import Path

        outdir = Path(cfg.output_dir)
        assert (outdir / "report.json").exists()
        assert (outdir / "summary.csv").exists()
        assert (outdir / "report.txt").exists()
        saved = json.loads((outdir / "report.json").read_text())
        assert report_without_timings(saved) == json.loads(
            json.dumps(report_without_timings(report))
        )

    def test_rerun_is_deterministic_except_timings(self, run_pair):
        _, r1, r2 = run_pair
        a = json.dumps(report_without_timings(r1), sort_keys=True)
        b = json.dumps(report_without_timings(r2), sort_keys=True)
        assert a == b

    def test_fold_val_slides_are_disjoint(self, run_pair):
        _, report, _ = run_pair
        seen = []
        for f in report["folds"]:
            seen += f["val_slides"]
        assert len(seen) == len(set(seen)) == report["num_slides"]

    def test_folds_carry_the_training_history(self, run_pair):
        cfg, report, _ = run_pair
        for f in report["folds"]:
            history = f["history"]
            assert [h["epoch"] for h in history] == list(range(cfg.train.epochs))
            assert history[-1]["loss"] == f["final_train_loss"]
            assert history[-1]["accuracy"] == f["final_train_accuracy"]


def small_config(seed: int, workers: int) -> ExperimentConfig:
    cfg = ExperimentConfig(seed=seed, slides_per_class=3, workers=workers,
                           output_dir="unused")
    cfg.train.epochs = 20
    return cfg


class PooledFoldError(Exception):
    """Raised by a stubbed `train` inside a pool worker."""


def fail_in_pool_workers(monkeypatch):
    """Stub pipeline.train so that it raises in every process but this one."""
    parent, real_train = os.getpid(), pipeline.train

    def train_or_fail(graphs, cfg):
        if os.getpid() != parent:
            raise PooledFoldError("fold failed in a pool worker")
        return real_train(graphs, cfg)

    monkeypatch.setattr(pipeline, "train", train_or_fail)


class TestPooledFolds:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_two_workers_give_the_single_worker_report(self, seed):
        reports = []
        for workers in (1, 2):
            report = report_without_timings(
                run_experiment(small_config(seed, workers), write_outputs=False))
            assert report["config"].pop("workers") == workers
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

    def test_error_in_a_pooled_fold_reaches_the_caller(self, monkeypatch):
        fail_in_pool_workers(monkeypatch)
        with pytest.raises(PooledFoldError, match="fold failed in a pool worker"):
            run_experiment(small_config(1, workers=2), write_outputs=False)

    @pytest.mark.parametrize("fail", [False, True])
    def test_pool_is_closed_and_joined(self, monkeypatch, fail):
        calls = []

        class SpyPool(multiprocessing.pool.Pool):
            def close(self):
                calls.append("close")
                super().close()

            def terminate(self):
                calls.append("terminate")
                super().terminate()

            def join(self):
                calls.append("join")
                super().join()

        monkeypatch.setattr(pipeline.multiprocessing, "Pool", SpyPool)
        if fail:
            fail_in_pool_workers(monkeypatch)
            with pytest.raises(PooledFoldError):
                run_experiment(small_config(1, workers=2), write_outputs=False)
        else:
            run_experiment(small_config(1, workers=2), write_outputs=False)
        # the featurize pool, then the fold pool, which a failed fold terminates
        assert calls == ["close", "join"] + (["terminate", "join"] if fail else ["close", "join"])

    @pytest.mark.parametrize("fail", [False, True])
    def test_no_worker_outlives_its_stage(self, monkeypatch, fail):
        cfg = small_config(1, workers=2)
        assert multiprocessing.active_children() == []
        slides = featurize_slides(synth_dataset(cfg), cfg.d_p, workers=2)
        assert multiprocessing.active_children() == []
        graphs = [build_slide_graph(s, cfg.theta, cfg.min_nuclei_per_patch) for s in slides]
        if fail:
            fail_in_pool_workers(monkeypatch)
        for stage in (lambda: pipeline.cross_validate(graphs, cfg),
                      lambda: run_experiment(cfg, write_outputs=False)):
            with pytest.raises(PooledFoldError) if fail else contextlib.nullcontext():
                stage()
            assert multiprocessing.active_children() == []

    @staticmethod
    def record_pool_sizes(monkeypatch) -> list:
        """Swap multiprocessing.Pool for one that runs each job in this process;
        returns the list of the sizes it is asked for."""
        sizes = []

        class InProcessPool:
            def __init__(self, processes):
                sizes.append(processes)

            def map(self, fn, jobs, chunksize=1):
                return [fn(job) for job in jobs]

            def apply_async(self, fn, args):
                result = fn(*args)
                return SimpleNamespace(get=lambda: result)

            def close(self):
                pass

            terminate = join = close

        monkeypatch.setattr(pipeline.multiprocessing, "Pool", InProcessPool)
        return sizes

    def test_pool_sizes_are_capped_by_the_jobs(self, monkeypatch):
        cfg = small_config(1, workers=1)
        slides = synth_dataset(cfg)
        want_features = [p.features for s in featurize_slides(slides[:3], cfg.d_p, workers=1)
                         for p in s.patches]
        graphs = [build_slide_graph(s, cfg.theta, cfg.min_nuclei_per_patch)
                  for s in featurize_slides(slides, cfg.d_p, workers=1)]
        want_cv = report_without_timings(pipeline.cross_validate(graphs, cfg))
        want_run = report_without_timings(run_experiment(cfg, write_outputs=False))
        sizes = self.record_pool_sizes(monkeypatch)

        got = featurize_slides(slides[:3], cfg.d_p, workers=64)
        assert sizes == [3]
        assert all(np.array_equal(p.features, f)
                   for p, f in zip((p for s in got for p in s.patches), want_features))
        # fold 0 trains in this process, so the pool gets folds - 1 jobs
        cfg.workers = 64
        assert report_without_timings(pipeline.cross_validate(graphs, cfg)) == {
            **want_cv, "config": {**want_cv["config"], "workers": 64}}
        assert sizes == [3, cfg.folds - 1]
        report = report_without_timings(run_experiment(cfg, write_outputs=False))
        assert sizes == [3, cfg.folds - 1, len(slides), cfg.folds - 1]
        assert report["config"].pop("workers") == 64 and want_run["config"].pop("workers") == 1
        assert json.dumps(report, sort_keys=True) == json.dumps(want_run, sort_keys=True)

    @pytest.mark.parametrize("cores, told", [(1, 1), (3, 3)])
    def test_featurize_is_told_the_pool_size(self, monkeypatch, cores, told):
        """Under workers=0, `featurize_slides` is passed the process count of
        its pool, or 1 when the slides featurize in-process; the fold pool
        follows it."""
        sizes = self.record_pool_sizes(monkeypatch)
        monkeypatch.setattr(pipeline, "usable_cores", lambda: cores)
        calls, real = [], pipeline.featurize_slides

        def recording(slides, d_p, workers=0):
            calls.append(workers)
            return real(slides, d_p, workers=workers)

        monkeypatch.setattr(pipeline, "featurize_slides", recording)
        cfg = small_config(1, workers=0)
        run_experiment(cfg, write_outputs=False)
        # 3 cores give [3, 2]: 9 slides featurize on 3 processes, and 2 of the 3 folds pool
        assert calls == [told] and sizes == ([told, cfg.folds - 1] if told > 1 else [])

    def test_a_diverged_fold_raises_and_writes_no_report(self, tmp_path):
        cfg = small_config(1, workers=1)
        cfg.train.learning_rate = 1e300
        cfg.output_dir = str(tmp_path / "out")
        with pytest.warns(RuntimeWarning, match="(overflow|invalid value) encountered"):
            with pytest.raises(ValidationError, match=r"training diverged at epoch 1: mean "
                                                      r"loss is nan \(learning_rate 1e\+300\)"):
                run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_one_worker_opens_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was opened")

        monkeypatch.setattr(pipeline.multiprocessing, "Pool", no_pool)
        run_experiment(small_config(1, workers=1), write_outputs=False)
