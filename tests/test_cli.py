import errno
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from wsigraph import cli, detection, gcn, pipeline, synth
from wsigraph.cli import build_parser, main
from wsigraph.detection import (
    DetectionParams,
    GrayImage,
    detect_nuclei,
    render_nuclei_image,
    write_pgm,
)
from wsigraph.features import FEATURE_NAMES, patch_feature_vector
from wsigraph.gcn import GcnModel, TrainConfig, init_model, save_model
from wsigraph.image_graph import build_image_graph, save_image_graphs
from wsigraph.pipeline import ExperimentConfig, ValidationError, import_pointsets
from wsigraph.points import PointSet, tile_image
from wsigraph.synth import SynthParams, synth_slide


# a point-set CSV of one point in one 768-px patch
ONE_POINT_CSV = ("slide_id,patch_row,patch_col,patch_width,patch_height,x,y\n"
                 "s1,0,0,768.0,768.0,1.0,2.0\n")


FOUR_POINTS = ((1.0, 2.0), (3.0, 50.0), (70.0, 4.0), (90.0, 90.0))


def patch_csv(side, points) -> str:
    """A points CSV of one square patch of `side` px holding `points`."""
    return ONE_POINT_CSV.splitlines(keepends=True)[0] + "".join(
        f"s1,0,0,{side},{side},{x},{y}\n" for x, y in points)


def graph_record(**changes):
    rec = {"format_version": 1, "slide_id": "s", "label": 0, "num_nodes": 2,
           "feature_dim": 2, "features": [[1.0, 0.0], [0.0, 1.0]],
           "edges": [[0, 1, 0.5]]}
    rec.update(changes)
    return json.dumps(rec)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


class TestStagedWorkflow:
    def test_synth(self, workdir):
        rc = main([
            "synth", "--out", str(workdir / "data"), "--slides-per-class", "2",
            "--seed", "5", "--patch-size", "256", "--slide-size", "512",
        ])
        assert rc == 0
        assert (workdir / "data" / "points.csv").exists()
        assert (workdir / "data" / "labels.csv").exists()

    def test_synth_manifest_records_only_what_synth_read(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--slides-per-class", "1",
                     "--seed", "6", "--classes", "2", "--patch-size", "256",
                     "--slide-size", "512"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == {"seed": 6, "slides_per_class": 1,
                            "class_names": ["class0", "class1"],
                            "synth": {"patch_size": 256, "slide_width": 512,
                                      "slide_height": 512}}

    def test_featurize(self, workdir):
        rc = main([
            "featurize", "--points", str(workdir / "data" / "points.csv"),
            "--out", str(workdir / "features.csv"), "--workers", "1",
        ])
        assert rc == 0
        header = (workdir / "features.csv").read_text().splitlines()[0]
        assert header.count(",") == 2 + 69

    def test_build_graph(self, workdir):
        rc = main([
            "build-graph", "--features", str(workdir / "features.csv"),
            "--labels", str(workdir / "data" / "labels.csv"),
            "--out", str(workdir / "graphs.jsonl"), "--min-nuclei", "5",
        ])
        assert rc == 0
        lines = (workdir / "graphs.jsonl").read_text().splitlines()
        assert len(lines) == 6
        assert json.loads(lines[0])["format_version"] == 1

    def test_train_and_eval(self, workdir):
        rc = main([
            "train", "--graphs", str(workdir / "graphs.jsonl"),
            "--model", str(workdir / "model.json"),
            "--history", str(workdir / "history.json"),
            "--epochs", "40", "--seed", "1",
        ])
        assert rc == 0
        rc = main([
            "eval", "--graphs", str(workdir / "graphs.jsonl"),
            "--model", str(workdir / "model.json"),
            "--out", str(workdir / "metrics.json"),
        ])
        assert rc == 0
        metrics = json.loads((workdir / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert len(metrics["confusion"]) == 3

    def test_train_num_classes_beyond_the_labels(self, tmp_path):
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(graph_record(slide_id="a", label=0) + "\n"
                          + graph_record(slide_id="b", label=1) + "\n")
        model = tmp_path / "m.json"
        rc = main(["train", "--graphs", str(graphs), "--model", str(model),
                   "--epochs", "2", "--num-classes", "3"])
        assert rc == 0
        rec = json.loads(model.read_text())
        assert rec["layer_dims"]["num_classes"] == 3
        assert rec["config"]["num_classes"] == 3

    def test_run_subcommand(self, workdir):
        rc = main([
            "run", "--out", str(workdir / "exp"), "--slides-per-class", "3",
            "--epochs", "10", "--workers", "1", "--seed", "2",
        ])
        assert rc == 0
        report = json.loads((workdir / "exp" / "report.json").read_text())
        assert len(report["folds"]) == 3


class TestDetectCommand:
    def test_detect_on_rendered_pgms(self, tmp_path):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        slide = synth_slide(
            0,
            SynthParams(slide_width=256, slide_height=256, patch_size=256),
            seed=9,
            slide_id="demo",
        )
        truth = PointSet(slide.patches[0].points.coords[:25], 256, 256)
        img = render_nuclei_image(truth, blob_sigma=5.0, amplitude=0.7)
        write_pgm(img, imgdir / "demo.pgm")
        out = tmp_path / "points.csv"
        rc = main(["detect", "--images", str(imgdir), "--out", str(out),
                   "--patch-size", "256"])
        assert rc == 0
        back = import_pointsets(out)
        assert len(back) == 1
        detected = back[0].patches[0].points
        assert (detected.patch_width, detected.patch_height) == (256.0, 256.0)
        # Poisson-placed blobs may overlap and merge, so only require that
        # the bulk of them come back
        assert len(detected) >= 0.7 * len(truth)
        assert len(detected) <= 1.3 * len(truth)

    def test_patch_named_files_are_slides_of_that_name(self, tmp_path):
        """A file's name decides only its slide_id: <slide>_r<row>_c<col>.pgm
        is a whole slide like any other, at any size."""
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        rng = np.random.default_rng(2)
        for name, size in (("case_r1_c2", 1024), ("biopsy_r1_c2", 256)):
            truth = PointSet(rng.uniform(8, size - 8, (size // 8, 2)), size, size)
            write_pgm(render_nuclei_image(truth), imgdir / f"{name}.pgm")
        out = tmp_path / "points.csv"
        assert main(["detect", "--images", str(imgdir), "--out", str(out),
                     "--patch-size", "256"]) == 0
        back = import_pointsets(out)
        assert [s.slide_id for s in back] == ["biopsy_r1_c2", "case_r1_c2"]
        assert [(p.row, p.col) for p in back[0].patches] == [(0, 0)]
        assert [(p.row, p.col) for p in back[1].patches] == [(r, c) for r in range(4)
                                                             for c in range(4)]

    def test_whole_slide_is_tiled_as_eight_bit_views(self, tmp_path):
        rng = np.random.default_rng(31)
        size, n = 2048, 4000
        write_pgm(render_nuclei_image(PointSet(rng.uniform(8, size - 8, (n, 2)), size, size),
                                      blob_sigma=rng.uniform(4, 6, n)), tmp_path / "wsi.pgm")
        pixels = detection.read_pgm(tmp_path / "wsi.pgm").pixels
        out = tmp_path / "points.csv"
        tracemalloc.start()
        try:
            assert main(["detect", "--images", str(tmp_path / "wsi.pgm"), "--out", str(out),
                         "--patch-size", "256"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 copy of the slide alone is 8 * pixels.nbytes (32 MiB)
        assert peak < 8 * pixels.nbytes
        params = DetectionParams()
        bank = detection.build_glog_bank(params.sigma_x, params.sigma_y,
                                         params.orientations, params.bandwidth)
        slide, = import_pointsets(out)
        assert slide.slide_id == "wsi" and len(slide.patches) == (size // 256) ** 2
        for patch in slide.patches:
            y, x = 256 * patch.row, 256 * patch.col
            want = detect_nuclei(GrayImage(pixels[y:y + 256, x:x + 256]), bank)
            assert len(want) > 0 and np.array_equal(patch.points.coords, want.coords)

    def test_overlapping_tiles_are_keyed_by_stride(self, tmp_path):
        """--stride below --patch-size tiles a slide into overlapping patches,
        each keyed by its origin in strides and detected on its own window."""
        rng = np.random.default_rng(5)
        size, n = 1024, 1000
        write_pgm(render_nuclei_image(PointSet(rng.uniform(8, size - 8, (n, 2)), size, size)),
                  tmp_path / "wsi.pgm")
        out = tmp_path / "points.csv"
        assert main(["detect", "--images", str(tmp_path / "wsi.pgm"), "--out", str(out),
                     "--patch-size", "256", "--stride", "128"]) == 0
        image = detection.read_pgm(tmp_path / "wsi.pgm")
        params = DetectionParams()
        bank = detection.build_glog_bank(params.sigma_x, params.sigma_y,
                                         params.orientations, params.bandwidth)
        slide, = import_pointsets(out)
        origins = tile_image(size, size, 256, 128)
        assert len(origins) == 49
        assert [(p.row, p.col) for p in slide.patches] == [(y // 128, x // 128)
                                                           for x, y in origins]
        for patch, (x, y) in zip(slide.patches, origins):
            want = detect_nuclei(GrayImage(image.pixels[y:y + 256, x:x + 256]), bank)
            assert len(want) > 0 and np.array_equal(patch.points.coords, want.coords)

    def test_pgm_suffix_matches_in_any_case(self, tmp_path):
        rng = np.random.default_rng(4)
        for name in ("a.pgm", "B.PGM"):
            write_pgm(render_nuclei_image(PointSet(rng.uniform(8, 56, (6, 2)), 64, 64)),
                      tmp_path / name)
        out = tmp_path / "points.csv"
        assert main(["detect", "--images", str(tmp_path), "--out", str(out),
                     "--patch-size", "64"]) == 0
        assert [s.slide_id for s in import_pointsets(out)] == ["B", "a"]

    def test_one_stem_in_two_cases_exits_one_naming_both(self, tmp_path, caplog):
        for name in ("x.pgm", "x.PGM"):
            write_pgm(GrayImage(np.full((64, 64), 255, dtype=np.uint8)), tmp_path / name)
        out = tmp_path / "points.csv"
        assert main(["detect", "--images", str(tmp_path), "--out", str(out),
                     "--patch-size", "64"]) == 1
        assert f"{tmp_path / 'x.PGM'} and {tmp_path / 'x.pgm'} would both be slide x" \
            in caplog.text
        assert not out.exists()

    def test_missing_images_is_validation_failure(self, tmp_path):
        rc = main(["detect", "--images", str(tmp_path), "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 1

    def test_synth_render_then_detect_round_trip(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--slides-per-class", "1", "--classes", "1",
                     "--seed", "3", "--patch-size", "768", "--slide-size", "1536",
                     "--render"]) == 0
        assert [f.name for f in data.glob("*.pgm")] == ["synth-c0-0000.pgm"]
        assert detection.read_pgm(data / "synth-c0-0000.pgm").pixels.shape == (1536, 1536)
        out = tmp_path / "detected.csv"
        assert main(["detect", "--images", str(data), "--out", str(out)]) == 0
        truth, = import_pointsets(data / "points.csv")
        detected, = import_pointsets(out)
        assert detected.slide_id == truth.slide_id
        params = DetectionParams()
        bank = detection.build_glog_bank(params.sigma_x, params.sigma_y,
                                         params.orientations, params.bandwidth)
        for t, d in zip(truth.patches, detected.patches, strict=True):
            assert (d.row, d.col) == (t.row, t.col)
            # the slide's tile holds the bytes of the patch rendered alone
            want = detect_nuclei(render_nuclei_image(t.points), bank)
            assert np.array_equal(d.points.coords, want.coords)
            # rendered blobs that overlap merge, so only the bulk comes back,
            # each detection on a true centre
            assert 0.8 * len(t.points) <= len(d.points) <= len(t.points)
            near = cKDTree(t.points.coords).query(d.points.coords)[0] < 4.0
            assert near.mean() > 0.95


class TestExitCodes:
    def test_bad_config_returns_one(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"bogus_key": 1}')
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("text, key", [
        ('{"theta": "0.8"}', "theta"),
        ('{"folds": "3"}', "folds"),
        ('{"workers": "2"}', "workers"),
        ('{"min_nuclei_per_patch": "3"}', "min_nuclei_per_patch"),
        ('{"d_p": "64"}', "d_p"),
        ('{"folds": 3.0}', "folds"),
        ('{"folds": true}', "folds"),
        ('{"seed": [1]}', "seed"),
        ('{"class_names": ["a", 2]}', "class_names"),
        ('{"train": {"gcn_dims": ["12", 44]}}', "train.gcn_dims"),
        ('{"train": {"epochs": "3"}}', "train.epochs"),
        ('{"train": {"num_classes": "3"}}', "train.num_classes"),
        ('{"synth": 3}', "synth"),
    ])
    def test_config_value_of_the_wrong_type_returns_one(self, tmp_path, caplog, text, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"config key '{key}' must be" in caplog.text

    @pytest.mark.parametrize("text, key", [
        ('{"seed": -1}', "seed"),
        ('{"train": {"seed": -1}}', "train.seed"),
        ('{"train": {"gcn_dims": []}}', "train.gcn_dims"),
        ('{"train": {"head_dims": [0]}}', "train.head_dims"),
        ('{"train": {"num_classes": 7}}', "train.num_classes"),
        ('{"train": {"num_classes": 2}}', "train.num_classes"),
    ])
    def test_config_value_out_of_range_returns_one(self, tmp_path, caplog, text, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                     "--slides-per-class", "3", "--epochs", "1", "--workers", "1"]) == 1
        assert f"{key} " in caplog.text
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("synth, message", [
        ({"patch_size": 0}, "synth.patch_size must be positive, got 0"),
        ({"patch_size": 800, "slide_width": 1536, "slide_height": 768},
         "synth.patch_size 800 exceeds synth.slide_height 768"),
        ({"patch_size": 800, "slide_width": 768},
         "synth.patch_size 800 exceeds synth.slide_width 768"),
    ])
    def test_patch_size_out_of_range_names_its_keys(self, tmp_path, caplog, synth, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synth": synth}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path),
                     "--slides-per-class", "3", "--epochs", "1", "--workers", "1"]) == 1
        assert message in caplog.text
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, key", [
        (["run", "--seed", "-1"], "seed"),
        (["run", "--epochs", "-1"], "train.epochs"),
        (["synth", "--seed", "-1"], "seed"),
    ])
    def test_flag_out_of_range_returns_one(self, tmp_path, caplog, argv, key):
        assert main(argv + ["--out", str(tmp_path), "--slides-per-class", "3"]) == 1
        assert f"{key} must be >= 0, got -1" in caplog.text
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "CONFIG", "--slides-per-class", "3"],
        ["synth", "--classes", "4"],
    ])
    def test_more_classes_than_the_generator_draws_returns_one(self, tmp_path, caplog,
                                                               monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("a slide was generated before the class count was checked")
        monkeypatch.setattr(synth, "synth_slide", fail)
        cfg = tmp_path / "config.json"
        cfg.write_text('{"class_names": ["a", "b", "c", "d"]}')
        argv = [str(cfg) if a == "CONFIG" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert ("class_names holds 4 classes (synth --classes 4), but the synthetic "
                "generator draws at most 3") in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", [["--slides-per-class", "3"], ["--graphs", "GRAPHS"]])
    def test_repeated_class_name_returns_one_before_the_work(self, tmp_path, caplog,
                                                             monkeypatch, source):
        def fail(*args, **kwargs):
            raise AssertionError("the work began before the class names were checked")
        monkeypatch.setattr(pipeline, "synth_dataset", fail)
        monkeypatch.setattr(pipeline, "cross_validate", fail)
        cfg, graphs = tmp_path / "config.json", tmp_path / "graphs.jsonl"
        cfg.write_text('{"class_names": ["x", "x", "y"]}')
        graphs.write_text(graph_record() + "\n")
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv + [str(graphs) if a == "GRAPHS" else a for a in source]) == 1
        assert "class_names names class 'x' twice" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_config_num_classes_equal_to_the_class_count_loads(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"train": {"num_classes": 3}}')
        assert pipeline.load_experiment_config(cfg).train.num_classes == 3

    def test_config_values_of_the_declared_types_load(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"d_p": 64, "train": {"num_classes": null, "gcn_dims": [12, 44]}}')
        loaded = pipeline.load_experiment_config(cfg)
        assert (loaded.d_p, loaded.train.num_classes, loaded.train.gcn_dims) == (
            64, None, (12, 44))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "0", "-1"])
    def test_config_d_p_that_is_not_finite_and_positive_returns_one(self, tmp_path, caplog,
                                                                     value):
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"d_p": {value}}}')
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "d_p must be a finite positive number" in caplog.text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-3"])
    def test_featurize_d_p_that_is_not_finite_and_positive_returns_one(
            self, tmp_path, caplog, no_patch_features, value):
        points = tmp_path / "points.csv"
        slide = synth_slide(0, SynthParams(slide_width=256, slide_height=256,
                                           patch_size=256), seed=1, slide_id="s")
        pipeline.export_pointsets([slide], points)
        rc = main(["featurize", "--points", str(points), "--out", str(tmp_path / "f.csv"),
                   "--workers", "1", f"--d-p={value}"])
        assert rc == 1
        assert "d_p must be a finite positive number" in caplog.text
        assert not (tmp_path / "f.csv").exists()

    def test_missing_file_returns_one(self, tmp_path):
        rc = main(["featurize", "--points", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 1

    def test_patch_above_the_nuclei_cap_returns_one(self, tmp_path, over_cap_slide,
                                                    no_patch_features, caplog):
        points = tmp_path / "points.csv"
        pipeline.export_pointsets([over_cap_slide], points)
        rc = main(["featurize", "--points", str(points), "--out", str(tmp_path / "f.csv"),
                   "--workers", "1"])
        assert rc == 1
        assert "patch (2, 5): 10001 nuclei, above the cap of 10000" in caplog.text

    def test_patch_at_the_side_cap_featurizes(self, tmp_path):
        side = 2**31 - 1
        points, out = tmp_path / "points.csv", tmp_path / "f.csv"
        points.write_text(patch_csv(side, FOUR_POINTS + ((side - 2.0, side - 2.0),)))
        assert main(["featurize", "--points", str(points), "--out", str(out),
                     "--workers", "1"]) == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_feature_column_whose_spread_overflows_returns_one(self, tmp_path, caplog,
                                                               big, command):
        # at 1e200 the std was inf, so the model standardized the column to 0 and
        # trained without it; at 1e308 the sums overflowed too, and training diverged
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text("".join(
            graph_record(slide_id=f"s{i}", label=i % 3,
                         features=[[(-1) ** i * big, 0.0], [big, 1.0]]) + "\n"
            for i in range(9)))
        out = tmp_path / "out"
        argv = {"train": ["--model", str(out)],
                "run": ["--workers", "1", "--out", str(out)]}[command]
        assert main([command, "--graphs", str(graphs), "--epochs", "1", *argv]) == 1
        assert (f"{graphs}: feature column 0 has standard deviation inf: its spread "
                "overflows float64") in caplog.text
        assert not out.exists()

    def test_validation_error_in_a_pooled_fold_returns_one(self, tmp_path, monkeypatch, caplog):
        parent, real_train = os.getpid(), pipeline.train

        def train_or_fail_in_a_worker(graphs, cfg):
            if os.getpid() != parent:
                raise ValidationError("fold graphs rejected in a worker")
            return real_train(graphs, cfg)

        monkeypatch.setattr(pipeline, "train", train_or_fail_in_a_worker)
        rc = main(["run", "--out", str(tmp_path), "--slides-per-class", "3",
                   "--epochs", "2", "--workers", "2"])
        assert rc == 1
        assert "fold graphs rejected in a worker" in caplog.text


# each command and the message it must exit 1 with; {d}, in either, is the
# folder of the files that test_rejected_input_exits_one_and_names_it writes
REJECTED_INPUTS = [
    ("detect --images {d}/img.pgm --sigma-x 0", "need sigma_x >= sigma_y > 0"),
    ("detect --images {d}/img.pgm --sigma-y 10", "need sigma_x >= sigma_y > 0"),
    ("detect --images {d}/img.pgm --orientations 0", "orientations and bandwidth must be >= 1"),
    ("detect --images {d}/img.pgm --bandwidth 0", "orientations and bandwidth must be >= 1"),
    ("detect --images {d}/img.pgm --merge-radius -1 --patch-size 32",
     "merge_radius must be a finite number >= 0, got -1.0"),
    ("detect --images {d}/img.pgm --merge-radius nan --patch-size 32",
     "merge_radius must be a finite number >= 0, got nan"),
    ("detect --images {d}/img.pgm --response-threshold nan --patch-size 32",
     "response_threshold must be a finite number, got nan"),
    ("detect --images {d}/img.pgm --stride 0", "patch_size and stride must be positive"),
    ("detect --images {d}/truncated.pgm", "truncated.pgm: truncated pixel data"),
    ("detect --images {d}/ascii.pgm", "ascii.pgm: not a binary PGM (P5) file"),
    ("detect --images {d}/wide.pgm", "wide.pgm: only maxval 255 supported, got 65535"),
    ("detect --images {d}/empty.pgm", "empty.pgm: no pixels (0x4)"),
    ("build-graph --features {d}/f.csv --theta 5", "theta must lie in [-1, 1), got 5.0"),
    ("build-graph --features {d}/f.csv --theta nan", "theta must lie in [-1, 1), got nan"),
    ("build-graph --features {d}/twice.csv", "twice.csv:3: slide s1 patch (0, 0) repeats line 2"),
    ("build-graph --features {d}/negative.csv", "negative.csv:2: negative patch index"),
    ("build-graph --features {d}/f.csv --labels {d}/extra.csv",
     "extra.csv:2: expected 2 columns, got 3"),
    ("build-graph --features {d}/f.csv --labels {d}/minus.csv",
     "minus.csv:2: label must be >= 0, got -3"),
    ("build-graph --features {d}/header.csv",
     "{d}/header.csv:1: expected header slide_id,patch_row,patch_col,cg_avg_degree,"),
    ("build-graph --features {d}/zero.csv", "{d}/zero.csv:1: expected header slide_id,"),
    ("build-graph --features {d}/narrow.csv", "narrow.csv:2: expected 72 columns, got 71"),
    ("build-graph --features {d}/f.csv --min-nuclei -3",
     "min_nuclei_per_patch must be >= 0, got -3"),
    ("run --config {d}/min_nuclei.json --slides-per-class 3 --epochs 1",
     "min_nuclei_per_patch must be >= 0, got -3"),
    ("detect --images {d}/img.pgm", "{d}/img.pgm: patch_size 768 exceeds image bounds 32x32"),
    ("featurize --points {d}/points.csv --workers -3", "workers must be >= 0, got -3"),
    ("featurize --points {d}/geometry.csv",
     "{d}/geometry.csv:4: slide s1 patch (0, 0) is 256.0x256.0, but 768.0x768.0 at line 2"),
    ("featurize --points {d}/unsized.csv",
     "{d}/unsized.csv:1: expected header slide_id,patch_row,patch_col,patch_width,"),
    ("featurize --points {d}/no_area.csv", "no_area.csv:2: patch size 0.0x768.0 is not "),
    # a 1e308-px patch failed in Qhull, a 1e200-px one in cKDTree.query_pairs (exit 2)
    ("featurize --points {d}/huge.csv",
     "{d}/huge.csv:2: patch size 1e+308x1e+308 is not positive and at most 2147483647 px"),
    ("featurize --points {d}/vast.csv",
     "{d}/vast.csv:2: patch size 1e+200x1e+200 is not positive and at most 2147483647 px"),
    ("detect --images {d}/img.pgm --sigma-x 1e308 --sigma-y 1",
     "sigma_x 1e+308 gives a kernel half-width ceil(3 * sigma_x) above the cap of 256 px"),
    # sigma_y**2 underflowed to 0 (exit 2); at 1e-80 nine kernels were not finite (exit 0)
    ("detect --images {d}/img.pgm --sigma-y 1e-200",
     "sigma_y 1e-200 is below 1.64e-76 px, the least sigma_y whose kernels stay finite"),
    ("detect --images {d}/img.pgm --sigma-y 1e-80",
     "sigma_y 1e-80 is below 1.64e-76 px, the least sigma_y whose kernels stay finite"),
    # 3 x 3 kernels, so that without the check the bank builds at once
    ("detect --images {d}/img.pgm --sigma-x 0.3 --sigma-y 0.3 --orientations 129 "
     "--bandwidth 1", "orientations * bandwidth is 129 kernels, above the cap of 128"),
    ("run --config {d}/workers.json --slides-per-class 3 --epochs 1",
     "workers must be >= 0, got -2"),
    ("run --config {d}/list.json", "{d}/list.json: not a JSON object"),
    ("run --config {d}/deep.json", "{d}/deep.json: invalid JSON (maximum recursion depth"),
    ("featurize --points {d}/tiled", "Is a directory: '{d}/tiled'"),
    ("build-graph --features {d}/tiled", "Is a directory: '{d}/tiled'"),
    ("detect --images {d}/nested", "Is a directory: '{d}/nested/x.pgm'"),
]


@pytest.mark.parametrize("command, message", REJECTED_INPUTS,
                         ids=[command for command, _ in REJECTED_INPUTS])
def test_rejected_input_exits_one_and_names_it(tmp_path, caplog, command, message):
    write_pgm(GrayImage(np.full((32, 32), 255, dtype=np.uint8)), tmp_path / "img.pgm")
    (tmp_path / "tiled").mkdir()      # a directory where a file must be
    (tmp_path / "truncated.pgm").write_bytes(b"P5\n32 32\n255\n" + bytes(100))
    (tmp_path / "ascii.pgm").write_bytes(b"P2\n2 1\n255\n0 255\n")
    (tmp_path / "wide.pgm").write_bytes(b"P5\n2 1\n65535\n" + bytes(4))
    (tmp_path / "empty.pgm").write_bytes(b"P5\n0 4\n255\n")
    header = ",".join(["slide_id", "patch_row", "patch_col"] + FEATURE_NAMES) + "\n"
    for name, rows in (("f", [("0", "0")]), ("twice", [("0", "0"), ("0", "0")]),
                       ("negative", [("0", "-1")]), ("narrow", [("0",)])):
        (tmp_path / f"{name}.csv").write_text(
            header + "".join(",".join(["s1", *rc] + ["0.5"] * 69) + "\n" for rc in rows))
    (tmp_path / "header.csv").write_text(header.replace("cg_avg_degree", "cg_degree")
                                         + ",".join(["s1", "0", "0"] + ["0.5"] * 69) + "\n")
    (tmp_path / "zero.csv").write_text("")
    (tmp_path / "extra.csv").write_text("slide_id,label\ns1,0,x\n")
    (tmp_path / "minus.csv").write_text("slide_id,label\ns1,-3\n")
    (tmp_path / "min_nuclei.json").write_text('{"min_nuclei_per_patch": -3}')
    (tmp_path / "points.csv").write_text(ONE_POINT_CSV)
    (tmp_path / "geometry.csv").write_text(ONE_POINT_CSV + "s1,0,1,256.0,256.0,3.0,4.0\n"
                                           "s1,0,0,256.0,256.0,5.0,6.0\n")
    (tmp_path / "unsized.csv").write_text("slide_id,patch_row,patch_col,x,y\ns1,0,0,1.0,2.0\n")
    (tmp_path / "no_area.csv").write_text(ONE_POINT_CSV.replace("768.0,768.0", "0.0,768.0"))
    for name, side in (("huge", "1e308"), ("vast", "1e200")):
        (tmp_path / f"{name}.csv").write_text(patch_csv(side, FOUR_POINTS))
    (tmp_path / "workers.json").write_text('{"workers": -2}')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "nested" / "x.pgm").mkdir(parents=True)
    out = tmp_path / "out"
    argv = command.format(d=tmp_path).split() + ["--out", str(out)]
    assert main(argv) == 1
    assert message.format(d=tmp_path) in caplog.text
    assert "Traceback" not in caplog.text
    assert not out.exists()


class TestMalformedInterchange:
    """Bad graph files and checkpoints are input errors: exit 1, named location."""

    def _train(self, tmp_path, text):
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(text)
        return main(["train", "--graphs", str(graphs), "--model",
                     str(tmp_path / "m.json"), "--epochs", "1"]), graphs

    def test_bad_json_line(self, tmp_path, caplog):
        rc, graphs = self._train(tmp_path, graph_record() + "\n{not json\n")
        assert rc == 1
        assert f"{graphs}:2: invalid JSON" in caplog.text

    def test_record_missing_features(self, tmp_path, caplog):
        rec = json.loads(graph_record())
        del rec["features"]
        rc, graphs = self._train(tmp_path, json.dumps(rec) + "\n")
        assert rc == 1
        assert f"{graphs}:1: missing key 'features'" in caplog.text

    @pytest.mark.parametrize("edges, message", [
        ([[1, 1, 0.5]], "self-loop at node 1"),
        ([[0, 2, 0.5]], "out of range"),
        ([[0, 1, 0.5], [1, 0, 0.5]], "duplicate edge (0, 1)"),
        ([[0, 1]], "triples"),
    ])
    def test_bad_edges(self, tmp_path, caplog, edges, message):
        rc, graphs = self._train(tmp_path, graph_record(edges=edges) + "\n")
        assert rc == 1
        assert f"{graphs}:1: " in caplog.text and message in caplog.text

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_repeated_slide_id(self, tmp_path, caplog, command):
        # a slide twice would sit on both sides of a fold split, and count twice
        graphs = graphs_file(tmp_path / "graphs.jsonl", [0, 1, 0, 1, 0, 1])
        graphs.write_text(graphs.read_text() + graph_record(slide_id="s2", label=0) + "\n")
        out = tmp_path / "out"
        argv = {"train": ["--model", str(out)],
                "run": ["--epochs", "1", "--workers", "1", "--out", str(out)]}[command]
        assert main([command, "--graphs", str(graphs), *argv]) == 1
        assert f"{graphs}:7: slide s2 repeats line 3" in caplog.text
        assert not out.exists()

    def test_checkpoint_missing_gcn_weights(self, tmp_path, caplog):
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(graph_record() + "\n")
        model = tmp_path / "model.json"
        save_model(init_model(2, (4,), (3,), num_classes=2), model)
        rec = json.loads(model.read_text())
        del rec["gcn_weights"]
        model.write_text(json.dumps(rec))
        rc = main(["eval", "--graphs", str(graphs), "--model", str(model)])
        assert rc == 1
        assert f"{model}: missing key 'gcn_weights'" in caplog.text

    @pytest.mark.parametrize("key, value, message", [
        ("mean", [0.0], "standardization mean must be a vector of 2 finite values, "
                        "got shape (1,)"),
        ("std", [1.0, float("nan")], "standardization std must be a vector of 2 finite "
                                     "values, got shape (2,)"),
        ("std", [[1.0, 1.0]], "standardization std must be a vector of 2 finite values, "
                              "got shape (1, 2)"),
        ("std", [1.0, -1.0], "standardization std must be >= 0"),
    ])
    def test_checkpoint_with_malformed_standardization(self, tmp_path, caplog, key, value,
                                                       message):
        graphs, model, metrics = (tmp_path / n for n in ("graphs.jsonl", "m.json", "out.json"))
        graphs.write_text(graph_record() + "\n")
        save_model(init_model(2, (4,), (3,), num_classes=2), model)
        rec = json.loads(model.read_text())
        rec["standardization"] = {"mean": [0.0, 0.0], "std": [1.0, 1.0], key: value}
        model.write_text(json.dumps(rec))
        rc = main(["eval", "--graphs", str(graphs), "--model", str(model),
                   "--out", str(metrics)])
        assert rc == 1
        assert f"{model}: {message}" in caplog.text
        assert "Traceback" not in caplog.text and not metrics.exists()

    def test_eval_with_wrong_feature_width(self, tmp_path, caplog):
        rc, _ = self._train(tmp_path, graph_record() + "\n")
        assert rc == 0
        graphs = tmp_path / "wide.jsonl"
        graphs.write_text(graph_record(slide_id="wide", feature_dim=3,
                                       features=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) + "\n")
        model = tmp_path / "m.json"
        rc = main(["eval", "--graphs", str(graphs), "--model", str(model)])
        assert rc == 1
        assert (f"{graphs}: slide wide has 3 features per node, but the model takes 2"
                in caplog.text)

    @pytest.mark.parametrize("flag, value, message", [
        ("--dropout", "1.5", "dropout_p must be in [0, 1), got 1.5"),
        ("--learning-rate", "-1", "learning_rate must be finite and >= 0, got -1.0"),
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--epochs", "-1", "epochs must be >= 0, got -1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ])
    def test_train_flag_out_of_range(self, tmp_path, caplog, flag, value, message):
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(graph_record() + "\n")
        rc = main(["train", "--graphs", str(graphs), "--model", str(tmp_path / "m.json"),
                   flag, value])
        assert rc == 1
        assert message in caplog.text and "Traceback" not in caplog.text
        assert not (tmp_path / "m.json").exists()

    def test_graph_without_a_gcn_normalization_exits_one(self, tmp_path, caplog):
        # two negative similarities outweigh node 0's self-loop: 1 + degree < 0
        graphs, model = tmp_path / "graphs.jsonl", tmp_path / "m.json"
        save_image_graphs([build_image_graph([[1, 0], [-1, 0.1], [-1, -0.1]], theta=-1.0,
                                             slide_id="neg", label=0)], graphs)
        message = f"{graphs}: slide neg node 0 has 1 + weighted degree -0.990074 <= 0"
        assert main(["train", "--graphs", str(graphs), "--model", str(model)]) == 1
        assert message in caplog.text
        assert not model.exists()
        caplog.clear()
        save_model(init_model(2, (4,), (3,), num_classes=2), model)
        assert main(["eval", "--graphs", str(graphs), "--model", str(model)]) == 1
        assert message in caplog.text

    def test_train_zero_epochs_writes_the_initial_model(self, tmp_path):
        rc, _ = self._train(tmp_path, graph_record() + "\n")
        assert rc == 0
        model = tmp_path / "m.json"
        model.unlink()
        graphs = tmp_path / "graphs.jsonl"
        assert main(["train", "--graphs", str(graphs), "--model", str(model),
                     "--history", str(tmp_path / "h.json"), "--epochs", "0"]) == 0
        assert json.loads(model.read_text())["config"]["epochs"] == 0
        assert json.loads((tmp_path / "h.json").read_text()) == []

    @pytest.mark.parametrize("scale, flags, message", [
        (1.0, ["--learning-rate", "1e300"], "epoch 1: mean loss is nan (learning_rate 1e+300)"),
    ])
    def test_diverged_training_exits_one_and_writes_nothing(self, tmp_path, caplog, scale,
                                                             flags, message):
        graphs, model, history = (tmp_path / n for n in ("graphs.jsonl", "m.json", "h.json"))
        graphs.write_text("".join(
            graph_record(slide_id=s, label=label, features=[[scale, 0.0], [0.0, scale]]) + "\n"
            for s, label in (("a", 0), ("b", 1))))
        with pytest.warns(RuntimeWarning, match="(overflow|invalid value) encountered"):
            assert main(["train", "--graphs", str(graphs), "--model", str(model),
                         "--history", str(history), "--epochs", "3"] + flags) == 1
        assert f"{graphs}: training diverged at {message}" in caplog.text
        assert "Traceback" not in caplog.text
        assert not model.exists() and not history.exists()

    def test_model_diverged_in_its_last_step_fails_eval_and_run(self, tmp_path, caplog):
        # one step at this rate leaves finite weights near 1e300 whose forward pass overflows
        graphs = graphs_file(tmp_path / "graphs.jsonl", [0, 1, 0, 1])
        model, metrics, config = (tmp_path / n for n in ("m.json", "metrics.json", "c.json"))
        assert main(["train", "--graphs", str(graphs), "--model", str(model),
                     "--epochs", "1", "--learning-rate", "1e300"]) == 0
        message = "slide s0 has class probabilities that are not finite; the model diverged"
        with pytest.warns(RuntimeWarning, match="(overflow|invalid value) encountered"):
            assert main(["eval", "--graphs", str(graphs), "--model", str(model),
                         "--out", str(metrics)]) == 1
        assert f"{graphs}: {message}" in caplog.text
        assert not metrics.exists()
        caplog.clear()
        config.write_text('{"folds": 2, "class_names": ["a", "b"], '
                          '"train": {"learning_rate": 1e300, "epochs": 1}}')
        with pytest.warns(RuntimeWarning, match="(overflow|invalid value) encountered"):
            assert main(["run", "--graphs", str(graphs), "--config", str(config),
                         "--workers", "1", "--out", str(tmp_path / "run")]) == 1
        assert "has class probabilities that are not finite" in caplog.text
        assert "Traceback" not in caplog.text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_graph_file(self, tmp_path, caplog, command, text):
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(text)
        out = ["--out", str(tmp_path / "metrics.json")] if command == "eval" else []
        rc = main([command, "--graphs", str(graphs), "--model", str(tmp_path / "m.json")]
                  + out)
        assert rc == 1
        assert f"{graphs}: no slide graphs" in caplog.text
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "metrics.json").exists()

    def test_num_classes_below_a_label(self, tmp_path, caplog):
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(graph_record(label=2) + "\n")
        rc = main(["train", "--graphs", str(graphs), "--model", str(tmp_path / "m.json"),
                   "--epochs", "1", "--num-classes", "2"])
        assert rc == 1
        assert f"{graphs}: slide s has label 2, but the model has 2 classes" in caplog.text

    def test_labelled_slides_without_feature_rows(self, tmp_path, caplog):
        features = tmp_path / "features.csv"
        features.write_text(",".join(["slide_id", "patch_row", "patch_col"] + FEATURE_NAMES)
                            + "\n" + ",".join(["s1", "0", "0"] + ["0.5"] * 69) + "\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("slide_id,label\nempty,0\ns1,1\ngone,2\n")
        rc = main(["build-graph", "--features", str(features), "--labels", str(labels),
                   "--out", str(tmp_path / "graphs.jsonl")])
        assert rc == 1
        assert f"{features}: no feature rows for labelled slides empty, gone" in caplog.text
        assert not (tmp_path / "graphs.jsonl").exists()

    def test_train_on_mixed_feature_widths(self, tmp_path, caplog):
        rc, graphs = self._train(tmp_path, graph_record(slide_id="a") + "\n" + graph_record(
            slide_id="b", feature_dim=3, features=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]) + "\n")
        assert rc == 1
        assert f"{graphs}: slide b has 3 features per node, but the model takes 2" in caplog.text
        assert "Traceback" not in caplog.text and not (tmp_path / "m.json").exists()

    def _two_class_model(self, tmp_path):
        rc, _ = self._train(tmp_path, graph_record(slide_id="a") + "\n"
                            + graph_record(slide_id="b", label=1) + "\n")
        assert rc == 0
        return tmp_path / "m.json"

    def test_eval_with_a_label_the_model_lacks(self, tmp_path, caplog):
        model = self._two_class_model(tmp_path)
        graphs = tmp_path / "high.jsonl"
        graphs.write_text(graph_record(slide_id="high", label=2) + "\n")
        rc = main(["eval", "--graphs", str(graphs), "--model", str(model)])
        assert rc == 1
        assert f"{graphs}: slide high has label 2, but the model has 2 classes" in caplog.text

    def test_eval_scores_only_labelled_slides(self, tmp_path):
        model = self._two_class_model(tmp_path)
        records = [graph_record(slide_id=s, label=label)
                   for s, label in (("a", 0), ("b", 1), ("u", -1))]
        for name, lines in (("mixed", records), ("unlabelled", records[2:])):
            graphs = tmp_path / f"{name}.jsonl"
            graphs.write_text("\n".join(lines) + "\n")
            out = tmp_path / f"{name}.json"
            assert main(["eval", "--graphs", str(graphs), "--model", str(model),
                         "--out", str(out)]) == 0
            metrics = json.loads(out.read_text())
            confusion = np.array(metrics["confusion"])
            assert len(metrics["predictions"]) == len(lines)
            assert confusion.sum() == len(lines) - 1
            assert metrics["accuracy"] == (np.trace(confusion) / 2 if name == "mixed" else None)

    def test_unlabelled_graphs_cannot_train(self, tmp_path, caplog):
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(graph_record(slide_id="a") + "\n"
                          + graph_record(slide_id="b", label=-1) + "\n")
        rc = main(["train", "--graphs", str(graphs), "--model", str(tmp_path / "m.json"),
                   "--epochs", "1"])
        assert rc == 1
        assert f"{graphs}: slide b has no label" in caplog.text
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_label_below_minus_one_is_named(self, tmp_path, caplog, command):
        model = self._two_class_model(tmp_path)
        graphs = tmp_path / "minus.jsonl"
        graphs.write_text(graph_record(slide_id="a") + "\n"
                          + graph_record(slide_id="s1", label=-5) + "\n")
        out = tmp_path / "out.json"
        argv = {"train": ["--model", out, "--epochs", "1"],
                "eval": ["--model", model, "--out", out]}[command]
        rc = main([command, "--graphs", str(graphs), *map(str, argv)])
        assert rc == 1
        assert (f"{graphs}: slide s1 has label -5; a label is -1 (unlabelled) or a class index"
                in caplog.text)
        assert "Traceback" not in caplog.text and not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_value(self, tmp_path, caplog, value):
        features = tmp_path / "features.csv"
        row = ["s1", "0", "0"] + ["0.5"] * 69
        row[10] = value
        features.write_text(",".join(["slide_id", "patch_row", "patch_col"] + FEATURE_NAMES)
                            + "\n" + ",".join(["s1", "0", "1"] + ["0.5"] * 69)
                            + "\n" + ",".join(row) + "\n")
        rc = main(["build-graph", "--features", str(features),
                   "--out", str(tmp_path / "graphs.jsonl")])
        assert rc == 1
        assert f"{features}:3: non-finite feature value" in caplog.text
        assert not (tmp_path / "graphs.jsonl").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"features": [[1.0, 0.0], [float("nan"), 1.0]]}, "node_features must be finite"),
        ({"features": [[1.0, float("inf")], [0.0, 1.0]]}, "node_features must be finite"),
        ({"edges": [[0, 1, float("nan")]]}, "non-finite weight on edge (0, 1)"),
        ({"edges": [[0.5, 1, 0.5]]}, "edge (0.5, 1) has an end that is not a node index"),
        ({"label": 1.7}, "label 1.7 is not an integer"),
        ({"label": "1"}, "label '1' is not an integer"),
        ({"features": [], "num_nodes": 0, "edges": []}, "graph has no nodes"),
        ({"num_nodes": 7, "feature_dim": 5, "features": [[1.0, 0.0]], "edges": []},
         "declares 7 nodes of 5 features, but holds 1 of 2"),
        ({"num_nodes": 1, "feature_dim": 0, "features": [[]], "edges": []},
         "node_features must have at least one column"),
        ({"num_nodes": 2.0}, "num_nodes 2.0 is not an integer"),
    ])
    def test_bad_graph_values(self, tmp_path, caplog, changes, message):
        rc, graphs = self._train(tmp_path, graph_record() + "\n"
                                 + graph_record(slide_id="t", **changes) + "\n")
        assert rc == 1
        assert f"{graphs}:2: {message}" in caplog.text

    @pytest.mark.parametrize("command, flag", [("train", "--graphs"), ("eval", "--model"),
                                               ("featurize", "--out")])
    def test_directory_where_a_file_must_be(self, tmp_path, caplog, command, flag):
        graphs = tmp_path / "graphs.jsonl"
        graphs.write_text(graph_record() + "\n")
        points = tmp_path / "points.csv"
        points.write_text(ONE_POINT_CSV)
        argv = {"train": ["--graphs", graphs, "--model", tmp_path / "m.json"],
                "eval": ["--graphs", graphs, "--model", tmp_path / "m.json"],
                "featurize": ["--points", points, "--out", tmp_path / "f.csv",
                              "--workers", "1"]}[command]
        directory = tmp_path / "dir"
        directory.mkdir()
        argv[argv.index(flag) + 1] = directory
        assert main([command, *map(str, argv)]) == 1
        assert f"Is a directory: '{directory}'" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("reader", ["points", "features", "labels", "graphs"])
    def test_file_that_is_not_utf8(self, tmp_path, caplog, reader):
        path = tmp_path / "input"
        header = {"points": b"slide_id,patch_row,patch_col,patch_width,patch_height,x,y\n",
                  "features": ",".join(["slide_id", "patch_row", "patch_col"]
                                       + FEATURE_NAMES).encode() + b"\n",
                  "labels": b"slide_id,label\n",
                  "graphs": graph_record().encode() + b"\n"}[reader]
        path.write_bytes(header + b"s\xff,0\n")
        out = str(tmp_path / "out")
        argv = {"points": ["featurize", "--points", str(path), "--out", out],
                "features": ["build-graph", "--features", str(path), "--out", out],
                "labels": ["build-graph", "--features", str(path), "--labels", str(path),
                           "--out", out],
                "graphs": ["eval", "--graphs", str(path), "--model", out]}[reader]
        assert main(argv) == 1
        assert f"{path}: not UTF-8 text (byte 0xff: invalid start byte)" in caplog.text

    def test_runtime_failure_logs_traceback(self, monkeypatch, caplog):
        def boom(args):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(cli._COMMANDS, "eval", boom)
        assert main(["eval", "--graphs", "g", "--model", "m"]) == 2
        assert "runtime failure: disk on fire" in caplog.text
        assert "Traceback" in caplog.text

    def test_os_error_naming_no_file_logs_traceback(self, monkeypatch, caplog):
        def fork_fails(args):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setitem(cli._COMMANDS, "eval", fork_fails)
        assert main(["eval", "--graphs", "g", "--model", "m"]) == 2
        assert "runtime failure: [Errno 12] Cannot allocate memory" in caplog.text
        assert "Traceback" in caplog.text


def test_featurize_reads_the_patch_size_that_synth_cut(tmp_path):
    """synth --patch-size 256 -> featurize, with no size restated, gives the
    features of the same slides featurized in memory, bit for bit."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--slides-per-class", "1", "--seed", "4",
                 "--patch-size", "256", "--slide-size", "512"]) == 0
    assert main(["featurize", "--points", str(data / "points.csv"),
                 "--out", str(tmp_path / "f.csv"), "--workers", "1"]) == 0
    cfg = ExperimentConfig(seed=4, slides_per_class=1,
                           class_names=tuple(f"class{c}" for c in range(3)))
    cfg.synth.patch_size, cfg.synth.slide_width, cfg.synth.slide_height = 256, 512, 512
    want = pipeline.featurize_slides(synth.synth_dataset(cfg), cfg.d_p, workers=1)
    got = pipeline.import_features(tmp_path / "f.csv")
    key = lambda slides: {(s.slide_id, p.row, p.col): p.features
                          for s in slides for p in s.patches}
    want, got = key(want), key(got)
    assert list(got) == list(want) and len(got) == 12
    assert all(np.array_equal(got[k], want[k]) for k in want)
    area = FEATURE_NAMES.index("nn_voronoi_area_total")
    assert [float(v[area]) for v in got.values()] == pytest.approx([256.0 ** 2] * 12, rel=1e-9)


def test_run_graphs_folds_match_run_on_the_staged_chain(tmp_path):
    """synth -> featurize -> build-graph --labels -> run --graphs cross-validates the
    graphs that `run` builds in memory, so its folds are bitwise the same."""
    data, graphs = tmp_path / "data", tmp_path / "graphs.jsonl"
    for argv in (["synth", "--out", data, "--slides-per-class", 3, "--seed", 2],
                 ["featurize", "--points", data / "points.csv", "--out", tmp_path / "f.csv",
                  "--workers", 1],
                 ["build-graph", "--features", tmp_path / "f.csv",
                  "--labels", data / "labels.csv", "--out", graphs],
                 ["run", "--graphs", graphs, "--seed", 2, "--epochs", 20, "--workers", 2,
                  "--out", tmp_path / "from_graphs"],
                 ["run", "--slides-per-class", 3, "--seed", 2, "--epochs", 20,
                  "--workers", 1, "--out", tmp_path / "from_synth"]):
        assert main(list(map(str, argv))) == 0
    from_graphs, from_synth = (json.loads((tmp_path / run / "report.json").read_text())
                               for run in ("from_graphs", "from_synth"))
    for key in ("folds", "accuracy_mean", "accuracy_sd", "num_slides"):
        assert json.dumps(from_graphs[key]) == json.dumps(from_synth[key])
    assert from_graphs["num_slides"] == 9


def graphs_file(path, labels) -> Path:
    path.write_text("".join(graph_record(slide_id=f"s{i}", label=label) + "\n"
                            for i, label in enumerate(labels)))
    return path


def test_run_graphs_ignores_the_synthetic_generators_rules(tmp_path):
    # fewer slides per class than folds, and more classes than the generator draws
    cfg = tmp_path / "config.json"
    cfg.write_text('{"slides_per_class": 1, "class_names": ["a", "b", "c", "d"]}')
    graphs = graphs_file(tmp_path / "graphs.jsonl", [0, 1, 2, 3] * 3)
    assert main(["run", "--graphs", str(graphs), "--config", str(cfg), "--epochs", "1",
                 "--workers", "1", "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (report["num_slides"], len(report["folds"][0]["confusion"])) == (12, 4)


def test_run_graphs_report_records_the_graph_file_not_the_graph_builders(tmp_path):
    graphs = graphs_file(tmp_path / "graphs.jsonl", [0, 1, 2] * 3)
    assert main(["run", "--graphs", str(graphs), "--epochs", "1", "--workers", "1",
                 "--out", str(tmp_path / "out")]) == 0
    config = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert config["graphs"] == str(graphs)
    assert not set(config) & set(pipeline.SLIDE_GRAPH_FIELDS)
    assert {"folds", "seed", "class_names", "workers", "output_dir", "train"} <= set(config)


# each way `run --graphs` rejects its input: the graph labels (None: from
# build-graph without --labels), further flags, the exit code and the message
RUN_GRAPHS_REJECTIONS = {
    "unlabelled": (None, [], 1,
                   "{g}: slide s1 has no label (build-graph without --labels writes -1)"),
    "too-few": ([0, 1, 2] * 2 + [0, 1], [], 1,
                "{g}: class high_grade has 2 slides, fewer than the 3 folds"),
    "label-too-high": ([0, 1, 2] * 3 + [3], [], 1,
                       "{g}: slide s9 has label 3, but the model has 3 classes"),
    "with-slides-per-class": ([0, 1, 2] * 3, ["--slides-per-class", "3"], 2,
                              "argument --slides-per-class: not allowed with argument --graphs"),
}


@pytest.mark.parametrize("case", RUN_GRAPHS_REJECTIONS)
def test_run_graphs_rejects_before_any_fold_trains(tmp_path, monkeypatch, caplog, capsys,
                                                    case):
    def no_training(*args):
        raise AssertionError("a fold trained")

    monkeypatch.setattr(gcn, "train", no_training)
    monkeypatch.setattr(pipeline, "train", no_training)
    labels, extra, expected_code, message = RUN_GRAPHS_REJECTIONS[case]
    graphs = tmp_path / "graphs.jsonl"
    if labels is None:
        features = tmp_path / "features.csv"
        features.write_text(",".join(["slide_id", "patch_row", "patch_col"] + FEATURE_NAMES)
                            + "\n" + "".join(",".join([f"s{i}", "0", "0"] + ["0.5"] * 69)
                                             + "\n" for i in range(1, 10)))
        assert main(["build-graph", "--features", str(features), "--out", str(graphs)]) == 0
    else:
        graphs_file(graphs, labels)
    out = tmp_path / "out"
    try:
        code = main(["run", "--graphs", str(graphs), "--workers", "2", "--out", str(out)]
                    + extra)
    except SystemExit as e:     # argparse's usage error
        code = e.code
    assert code == expected_code
    assert message.format(g=graphs) in caplog.text + capsys.readouterr().err
    assert not out.exists()


# each output flag checked before the work, and the work function it must not reach
OUTPUT_FLAGS = [("train", "--model", gcn, "train"), ("train", "--history", gcn, "train"),
                ("featurize", "--out", pipeline, "featurize_slides"),
                ("detect", "--out", detection, "detect_nuclei"),
                ("build-graph", "--out", pipeline, "import_features"),
                ("eval", "--out", gcn, "evaluate")]


# what is wrong with the output path, the path, and the system's reason
BAD_OUTPUTS = {"missing parent": ("nodir/x", "No such file or directory"),
               "directory": (".", "Is a directory"),
               "file as parent": ("points.csv/x", "Not a directory")}


@pytest.mark.parametrize("problem", BAD_OUTPUTS)
@pytest.mark.parametrize("command, flag, module, work", OUTPUT_FLAGS,
                         ids=[f"{c} {f}" for c, f, _, _ in OUTPUT_FLAGS])
def test_bad_output_path_exits_one_before_the_work(tmp_path, monkeypatch, caplog, command,
                                                   flag, module, work, problem):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(module, work, no_work)
    graphs = graphs_file(tmp_path / "graphs.jsonl", [0, 1])
    model = tmp_path / "m.json"
    save_model(init_model(2, (4,), (3,), num_classes=2), model)
    (tmp_path / "points.csv").write_text(ONE_POINT_CSV)
    write_pgm(GrayImage(np.full((32, 32), 255, dtype=np.uint8)), tmp_path / "img.pgm")
    argv = {"train": ["--graphs", graphs, "--model", tmp_path / "new.json",
                      "--history", tmp_path / "h.json"],
            "featurize": ["--points", tmp_path / "points.csv", "--out", tmp_path / "f.csv",
                          "--workers", 1],
            "detect": ["--images", tmp_path / "img.pgm", "--out", tmp_path / "p.csv",
                       "--patch-size", 32],
            "build-graph": ["--features", tmp_path / "f.csv", "--out", tmp_path / "g.jsonl"],
            "eval": ["--graphs", graphs, "--model", model, "--out", tmp_path / "m.out"]}[command]
    name, reason = BAD_OUTPUTS[problem]
    bad = tmp_path / name
    argv[argv.index(flag) + 1] = bad
    assert main([command, *map(str, argv)]) == 1
    assert f"{reason}: '{bad}'" in caplog.text
    assert "Traceback" not in caplog.text


# each output directory checked before the work, and the work function it must not reach
OUTPUT_DIRS = [("synth", synth, "synth_dataset"), ("run", pipeline, "synth_dataset"),
               ("run --graphs", cli, "load_image_graphs")]


# an output directory may be missing or exist; a file there or above it fails
BAD_OUTPUT_DIRS = {"file": ("points.csv", "File exists"),
                   "file as parent": ("points.csv/x", "Not a directory")}


@pytest.mark.parametrize("problem", BAD_OUTPUT_DIRS)
@pytest.mark.parametrize("command, module, work", OUTPUT_DIRS,
                         ids=[c for c, _, _ in OUTPUT_DIRS])
def test_bad_output_directory_exits_one_before_the_work(tmp_path, monkeypatch, caplog,
                                                        command, module, work, problem):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output directory was checked")

    monkeypatch.setattr(module, work, no_work)
    (tmp_path / "points.csv").write_text(ONE_POINT_CSV)
    argv = {"synth": ["synth", "--slides-per-class", 3],
            "run": ["run", "--slides-per-class", 3, "--epochs", 1],
            "run --graphs": ["run", "--graphs", graphs_file(tmp_path / "g.jsonl", [0, 1]),
                             "--epochs", 1]}[command]
    name, reason = BAD_OUTPUT_DIRS[problem]
    bad = tmp_path / name
    assert main([*map(str, argv), "--out", str(bad)]) == 1
    assert f"{reason}: '{bad}'" in caplog.text
    assert "Traceback" not in caplog.text


def test_log_level_warning_silences_the_fold_lines(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*flags):
        return subprocess.run(
            [sys.executable, "-m", "wsigraph", *flags, "run", "--out", str(tmp_path),
             "--slides-per-class", "3", "--epochs", "2", "--workers", "1"],
            capture_output=True, text=True, env=env, check=True)

    assert "INFO fold 0: accuracy" in run().stderr
    assert "INFO" not in run("--log-level", "WARNING").stderr


def test_flag_defaults_come_from_the_config_dataclasses():
    parser = build_parser()
    assert parser.parse_args(["synth", "--out", "o"]).log_level == "INFO"
    detection, experiment, train = DetectionParams(), ExperimentConfig(), TrainConfig()
    synth = SynthParams()
    args = parser.parse_args(["synth", "--out", "o"])
    assert (args.seed, args.classes, args.patch_size, args.slide_size) == (
        experiment.seed, len(experiment.class_names), synth.patch_size, synth.slide_width)
    assert synth.slide_width == synth.slide_height
    args = parser.parse_args(["detect", "--images", "i", "--out", "o"])
    for name in ("sigma_x", "sigma_y", "orientations", "bandwidth",
                 "response_threshold", "merge_radius"):
        assert getattr(args, name) == getattr(detection, name)
    assert args.patch_size == synth.patch_size
    args = parser.parse_args(["featurize", "--points", "p", "--out", "o"])
    assert (args.d_p, args.workers) == (experiment.d_p, experiment.workers)
    args = parser.parse_args(["build-graph", "--features", "f", "--out", "o"])
    assert (args.theta, args.min_nuclei) == (experiment.theta,
                                             experiment.min_nuclei_per_patch)
    args = parser.parse_args(["train", "--graphs", "g", "--model", "m"])
    assert (args.learning_rate, args.batch_size, args.epochs, args.dropout, args.seed,
            args.num_classes) == (train.learning_rate, train.batch_size, train.epochs,
                                  train.dropout_p, train.seed, train.num_classes)


def test_library_defaults_come_from_the_config_dataclasses():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    detection, experiment, train = DetectionParams(), ExperimentConfig(), TrainConfig()
    assert default(patch_feature_vector, "d_p") == experiment.d_p
    assert (default(detect_nuclei, "response_threshold"), default(detect_nuclei, "merge_radius")) \
        == (detection.response_threshold, detection.merge_radius)
    assert default(pipeline.build_slide_graph, "min_nuclei") == experiment.min_nuclei_per_patch
    assert (default(init_model, "gcn_dims"), default(init_model, "head_dims"),
            default(init_model, "dropout_p")) == (train.gcn_dims, train.head_dims,
                                                  train.dropout_p)
    assert GcnModel.__dataclass_fields__["dropout_p"].default == train.dropout_p
