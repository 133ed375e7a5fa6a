import json

import pytest

from wsigraph import cli
from wsigraph.cli import build_parser, main
from wsigraph.detection import render_nuclei_image, write_pgm
from wsigraph.gcn import TrainConfig, init_model, save_model
from wsigraph.pipeline import (
    DetectionParams,
    ExperimentConfig,
    SynthParams,
    import_pointsets,
    synth_slide,
)


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

    def test_featurize(self, workdir):
        rc = main([
            "featurize", "--points", str(workdir / "data" / "points.csv"),
            "--out", str(workdir / "features.csv"), "--patch-size", "256",
            "--workers", "1",
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
            SynthParams(slide_width=256, slide_height=256, patch_size=256,
                        stride=256, poisson_mean=25.0),
            seed=9,
            slide_id="demo",
        )
        img = render_nuclei_image(slide.patches[0].points, blob_sigma=5.0,
                                  amplitude=0.7)
        write_pgm(img, imgdir / "demo.pgm")
        out = tmp_path / "points.csv"
        rc = main(["detect", "--images", str(imgdir), "--out", str(out),
                   "--patch-size", "256"])
        assert rc == 0
        back = import_pointsets(out, patch_size=256)
        assert len(back) == 1
        detected = back[0].patches[0].points
        truth = slide.patches[0].points
        # Poisson-placed blobs may overlap and merge, so only require that
        # the bulk of them come back
        assert len(detected) >= 0.7 * len(truth)
        assert len(detected) <= 1.3 * len(truth)

    def test_patch_named_files_group_into_one_slide(self, tmp_path):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        params = SynthParams(slide_width=512, slide_height=256, patch_size=256,
                             stride=256, poisson_mean=20.0)
        slide = synth_slide(0, params, seed=2, slide_id="s")
        for patch in slide.patches:
            img = render_nuclei_image(patch.points, blob_sigma=5.0, amplitude=0.7)
            write_pgm(img, imgdir / f"s_r{patch.row}_c{patch.col}.pgm")
        out = tmp_path / "points.csv"
        rc = main(["detect", "--images", str(imgdir), "--out", str(out),
                   "--patch-size", "256", "--stride", "256"])
        assert rc == 0
        back = import_pointsets(out, patch_size=256)
        assert len(back) == 1
        assert back[0].slide_id == "s"
        assert [(p.row, p.col) for p in back[0].patches] == [(0, 0), (0, 1)]

    def test_missing_images_is_validation_failure(self, tmp_path):
        rc = main(["detect", "--images", str(tmp_path), "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 1


class TestExitCodes:
    def test_bad_config_returns_one(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"bogus_key": 1}')
        assert main(["run", "--config", str(cfg)]) == 1

    def test_missing_file_returns_one(self, tmp_path):
        rc = main(["featurize", "--points", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 1


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

    def test_runtime_failure_logs_traceback(self, monkeypatch, caplog):
        def boom(args):
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(cli._COMMANDS, "eval", boom)
        assert main(["eval", "--graphs", "g", "--model", "m"]) == 2
        assert "runtime failure: disk on fire" in caplog.text
        assert "Traceback" in caplog.text


def test_flag_defaults_come_from_the_config_dataclasses():
    parser = build_parser()
    detection, experiment, train = DetectionParams(), ExperimentConfig(), TrainConfig()
    args = parser.parse_args(["detect", "--images", "i", "--out", "o"])
    for name in ("sigma_x", "sigma_y", "orientations", "bandwidth",
                 "response_threshold", "merge_radius"):
        assert getattr(args, name) == getattr(detection, name)
    args = parser.parse_args(["featurize", "--points", "p", "--out", "o"])
    assert args.d_p == experiment.d_p
    args = parser.parse_args(["build-graph", "--features", "f", "--out", "o"])
    assert (args.theta, args.min_nuclei) == (experiment.theta,
                                             experiment.min_nuclei_per_patch)
    args = parser.parse_args(["train", "--graphs", "g", "--model", "m"])
    assert (args.learning_rate, args.batch_size, args.epochs, args.dropout, args.seed) == (
        train.learning_rate, train.batch_size, train.epochs, train.dropout_p, train.seed)
