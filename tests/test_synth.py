import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsigraph import detection, pipeline, points, synth
from wsigraph.detection import render_nuclei_image
from wsigraph.pipeline import ExperimentConfig, run_experiment
from wsigraph.synth import SynthParams, render_slide, synth_slide


class TestModuleNames:
    """The names that perfbench and CI read stay where they look for them."""

    def test_pipeline_exports_the_synth_objects(self):
        assert pipeline.SynthParams is synth.SynthParams
        assert pipeline.synth_slide is synth.synth_slide
        assert pipeline.synth_dataset is synth.synth_dataset
        assert callable(detection.render_nuclei_image)

    @pytest.mark.parametrize("module, names", [
        (synth, ["SynthParams", "synth_slide", "synth_dataset", "render_slide"]),
        (points, ["PatchRecord", "SlideRecord", "tile_image"]),
    ])
    def test_each_moved_name_is_defined_in_its_module(self, module, names):
        for name in names:
            assert getattr(module, name).__module__ == module.__name__, name

    @pytest.mark.parametrize("module", ["wsigraph.synth", "wsigraph.points"])
    def test_a_fresh_interpreter_imports_the_module_first(self, module):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True,
                       timeout=60)


def test_run_experiment_generates_through_the_pipeline_namespace(monkeypatch):
    """perfbench's tracer wraps `pipeline.synth_dataset`; the experiment must call that."""
    calls = []

    def counting(config):
        calls.append(config)
        return synth.synth_dataset(config)

    monkeypatch.setattr(pipeline, "synth_dataset", counting)
    cfg = ExperimentConfig(seed=3, folds=2, slides_per_class=2, workers=1,
                           synth=SynthParams(slide_width=512, slide_height=512, patch_size=256))
    cfg.train.epochs = 1
    report = run_experiment(cfg, write_outputs=False)
    assert len(calls) == 1
    assert report["num_slides"] == 6


def test_render_slide_holds_each_patch_render_on_a_white_margin():
    params = SynthParams(slide_width=640, slide_height=640, patch_size=256)
    for class_id in range(synth.SYNTH_CLASSES):
        slide = synth_slide(class_id, params, seed=[4, class_id])
        image = render_slide(slide, params)
        assert image.pixels.shape == (640, 640) and image.pixels.dtype == np.uint8
        assert [(p.row, p.col) for p in slide.patches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for patch in slide.patches:
            y, x = patch.row * 256, patch.col * 256
            assert np.array_equal(image.pixels[y:y + 256, x:x + 256],
                                  render_nuclei_image(patch.points).pixels)
        assert (image.pixels[512:] == 255).all() and (image.pixels[:, 512:] == 255).all()
