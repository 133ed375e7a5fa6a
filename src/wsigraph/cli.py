"""Command-line interface.

Subcommands mirror the pipeline stages: synth, detect, featurize,
build-graph, train, eval, and run (k-fold cross-validation of synthetic
slides, or of a graph file).
Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import detection, gcn, pipeline, synth
from .detection import DetectionParams
from .errors import ValidationError
from .image_graph import load_image_graphs, save_image_graphs
from .pipeline import ExperimentConfig, load_experiment_config
from .points import PatchRecord, SlideRecord, tile_image
from .synth import SynthParams

log = logging.getLogger("wsigraph")

# flag defaults come from the config dataclasses, their one source of truth
_DETECTION = DetectionParams()
_EXPERIMENT = ExperimentConfig()
_SYNTH = SynthParams()
_TRAIN = gcn.TrainConfig()


def _add_synth(sub):
    p = sub.add_parser("synth", help="generate a synthetic slide dataset")
    p.add_argument("--out", required=True, help="output directory")
    # a desk-sized dataset, smaller than the experiment's slides_per_class
    p.add_argument("--slides-per-class", type=int, default=10)
    p.add_argument("--classes", type=int, default=len(_EXPERIMENT.class_names))
    p.add_argument("--seed", type=int, default=_EXPERIMENT.seed)
    p.add_argument("--patch-size", type=int, default=_SYNTH.patch_size)
    p.add_argument("--slide-size", type=int, default=_SYNTH.slide_width)
    p.add_argument("--render", action="store_true",
                   help="also render each slide as one PGM image")


def _add_detect(sub):
    p = sub.add_parser("detect", help="detect nuclei in PGM images")
    p.add_argument("--images", required=True,
                   help="a PGM file, or a directory of them (*.pgm, in any case)")
    p.add_argument("--out", required=True, help="output point-set CSV")
    p.add_argument("--sigma-x", type=float, default=_DETECTION.sigma_x)
    p.add_argument("--sigma-y", type=float, default=_DETECTION.sigma_y)
    p.add_argument("--orientations", type=int, default=_DETECTION.orientations)
    p.add_argument("--bandwidth", type=int, default=_DETECTION.bandwidth)
    p.add_argument("--response-threshold", type=float,
                   default=_DETECTION.response_threshold)
    p.add_argument("--merge-radius", type=float, default=_DETECTION.merge_radius)
    p.add_argument("--patch-size", type=int, default=_SYNTH.patch_size)
    p.add_argument("--stride", type=int, default=None)


def _add_featurize(sub):
    p = sub.add_parser("featurize", help="compute 69-dim patch features")
    p.add_argument("--points", required=True, help="point-set CSV")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--d-p", type=float, default=_EXPERIMENT.d_p)
    p.add_argument("--workers", type=int, default=_EXPERIMENT.workers)


def _add_build_graph(sub):
    p = sub.add_parser("build-graph", help="build slide-level similarity graphs")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--labels", default=None, help="labels CSV (slide_id,label)")
    p.add_argument("--out", required=True, help="output JSON-lines graph file")
    p.add_argument("--theta", type=float, default=_EXPERIMENT.theta)
    p.add_argument("--min-nuclei", type=int, default=_EXPERIMENT.min_nuclei_per_patch)


def _add_train(sub):
    p = sub.add_parser("train", help="train the classifier on slide graphs")
    p.add_argument("--graphs", required=True, help="JSON-lines graph file")
    p.add_argument("--model", required=True, help="output checkpoint path")
    p.add_argument("--history", default=None, help="optional history JSON path")
    p.add_argument("--learning-rate", type=float, default=_TRAIN.learning_rate)
    p.add_argument("--batch-size", type=int, default=_TRAIN.batch_size)
    p.add_argument("--epochs", type=int, default=_TRAIN.epochs)
    p.add_argument("--dropout", type=float, default=_TRAIN.dropout_p)
    p.add_argument("--seed", type=int, default=_TRAIN.seed)
    p.add_argument("--num-classes", type=int, default=_TRAIN.num_classes,
                   help="classes the model predicts (default: highest label + 1)")


def _add_eval(sub):
    p = sub.add_parser("eval", help="evaluate a checkpoint on slide graphs")
    p.add_argument("--graphs", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None, help="optional metrics JSON path")


def _add_run(sub):
    p = sub.add_parser("run", help="k-fold cross-validation of synthetic slides or --graphs")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--seed", type=int, default=None)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graphs", help="JSON-lines graph file to cross-validate")
    source.add_argument("--slides-per-class", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)


def _in_file(path, fn, *args):
    """fn(*args), with `path`, the file it works on, named in its ValidationError."""
    try:
        return fn(*args)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e


def _cmd_synth(args) -> int:
    _check_output_dir(args.out)
    cfg = ExperimentConfig(seed=args.seed, slides_per_class=args.slides_per_class,
                           class_names=tuple(f"class{c}" for c in range(args.classes)))
    cfg.synth.patch_size = args.patch_size
    cfg.synth.slide_width = cfg.synth.slide_height = args.slide_size
    cfg.validate_dataset()
    slides = synth.synth_dataset(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.export_pointsets(slides, out / "points.csv")
    pipeline.export_labels(slides, out / "labels.csv")
    manifest = {"seed": cfg.seed, "slides_per_class": cfg.slides_per_class,
                "class_names": cfg.class_names, "synth": asdict(cfg.synth)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True),
                                       encoding="utf-8")
    if args.render:
        for slide in slides:
            image = synth.render_slide(slide, cfg.synth)
            detection.write_pgm(image, out / f"{slide.slide_id}.pgm")
    log.info("wrote %d slides to %s", len(slides), out)
    return 0


def _cmd_detect(args) -> int:
    _check_outputs(args.out)
    src = Path(args.images)
    files = sorted(f for f in src.iterdir() if f.name.lower().endswith(".pgm")) \
        if src.is_dir() else [src]
    if not files:
        raise ValidationError(f"no .pgm files found under {src}")
    named = {}
    for f in files:
        if f.stem in named:
            raise ValidationError(f"{named[f.stem]} and {f} would both be slide {f.stem}")
        named[f.stem] = f
    bank = detection.build_glog_bank(args.sigma_x, args.sigma_y,
                                     args.orientations, args.bandwidth)
    size = args.patch_size
    stride = size if args.stride is None else args.stride
    # each file is one whole slide, named by its stem, its patches in row-major order
    slides = []
    for f in files:
        img = detection.read_pgm(f)
        rec = SlideRecord(slide_id=f.stem, label=-1)
        for x, y in _in_file(f, tile_image, img.width, img.height, size, stride):
            tile = detection.GrayImage(img.pixels[y:y + size, x:x + size])
            points = detection.detect_nuclei(tile, bank, args.response_threshold,
                                             args.merge_radius)
            rec.patches.append(PatchRecord(row=y // stride, col=x // stride, points=points))
        log.info("%s: %d patches, %d nuclei", rec.slide_id, len(rec.patches),
                 sum(len(p.points) for p in rec.patches))
        slides.append(rec)
    pipeline.export_pointsets(slides, args.out)
    return 0


def _cmd_featurize(args) -> int:
    _check_outputs(args.out)
    slides = pipeline.import_pointsets(args.points)
    slides = pipeline.featurize_slides(slides, args.d_p, workers=args.workers)
    pipeline.export_features(slides, args.out)
    log.info("featurized %d slides -> %s", len(slides), args.out)
    return 0


def _cmd_build_graph(args) -> int:
    _check_outputs(args.out)
    labels = pipeline.import_labels(args.labels) if args.labels else None
    slides = pipeline.import_features(args.features, labels=labels)
    graphs = [pipeline.build_slide_graph(s, args.theta, args.min_nuclei) for s in slides]
    save_image_graphs(graphs, args.out)
    log.info("wrote %d slide graphs -> %s", len(graphs), args.out)
    return 0


def _cmd_train(args) -> int:
    _check_outputs(args.model, args.history)
    cfg = gcn.TrainConfig(learning_rate=args.learning_rate, batch_size=args.batch_size,
                          epochs=args.epochs, dropout_p=args.dropout, seed=args.seed,
                          num_classes=args.num_classes)
    graphs = load_image_graphs(args.graphs)
    model, history = _in_file(args.graphs, gcn.train, graphs, cfg)
    gcn.save_model(model, args.model, config=cfg)
    if args.history:
        Path(args.history).write_text(json.dumps(history), encoding="utf-8")
    if history:
        log.info("final train loss %.4f accuracy %.4f", history[-1]["loss"],
                 history[-1]["accuracy"])
    return 0


def _cmd_eval(args) -> int:
    _check_outputs(args.out)
    graphs = load_image_graphs(args.graphs)
    model = gcn.load_model(args.model)
    result = _in_file(args.graphs, gcn.evaluate, model, graphs)
    metrics = {"accuracy": result.accuracy, "confusion": result.confusion.tolist(),
               "predictions": result.predictions.tolist()}
    text = json.dumps(metrics, indent=2)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text)
    return 0


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config) if args.config else ExperimentConfig()
    for target, name, value in ((cfg, "output_dir", args.out), (cfg, "seed", args.seed),
                                (cfg, "slides_per_class", args.slides_per_class),
                                (cfg, "workers", args.workers),
                                (cfg.train, "epochs", args.epochs)):
        if value is not None:
            setattr(target, name, value)
    _check_output_dir(cfg.output_dir)
    if args.graphs is None:
        report = pipeline.run_experiment(cfg)
    else:
        cfg.validate()      # before the graph file's name goes on every message
        graphs = load_image_graphs(args.graphs)
        report = _in_file(args.graphs, pipeline.cross_validate, graphs, cfg)
        report["config"]["graphs"] = args.graphs
        pipeline.write_report(report, cfg.output_dir)
    print(pipeline.format_report(report))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "detect": _cmd_detect,
    "featurize": _cmd_featurize,
    "build-graph": _cmd_build_graph,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "run": _cmd_run,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsigraph",
        description="cell-graph featurization, slide graphs and GCN grading",
    )
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_synth, _add_detect, _add_featurize, _add_build_graph,
                _add_train, _add_eval, _add_run):
        add(sub)
    return parser


def _check_outputs(*paths) -> None:
    """Raise, before the work, the OSError that writing each given path would:
    a path that is a directory, or whose parent directory is missing."""
    for path in filter(None, paths):
        p = Path(path)
        if p.is_dir():
            code = errno.EISDIR
        elif not p.parent.is_dir():
            code = errno.ENOTDIR if p.parent.exists() else errno.ENOENT
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def _check_output_dir(path) -> None:
    """Raise, before the work, the OSError that making directory `path` would:
    the path, or a directory above it, is a file."""
    p = Path(path)
    for existing in (p, *p.parents):
        if existing.exists():
            if not existing.is_dir():
                code = errno.EEXIST if existing == p else errno.ENOTDIR
                raise OSError(code, os.strerror(code), path)
            return


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:
        # a bad input, or a path that cannot be opened (an OSError naming its file)
        if isinstance(e, ValidationError) or (isinstance(e, OSError) and e.filename is not None):
            log.error("%s", e)
            return 1
        log.exception("runtime failure: %s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
