import json

import numpy as np
import pytest

from wsigraph import blas, graph
from wsigraph.features import patch_feature_vector
from wsigraph.pipeline import (
    ExperimentConfig,
    report_without_timings,
    run_experiment,
    synth_dataset,
)
from wsigraph.points import PointSet


@pytest.fixture
def controls():
    found = blas._openblas_controls()
    if not found:
        pytest.skip("no OpenBLAS loaded in this process")
    before = [get() for get, _ in found]
    yield found
    for (_, set_), n in zip(found, before):
        set_(n)


def threads(controls):
    return [get() for get, _ in controls]


def test_one_blas_thread_sets_one_and_restores(controls):
    for _, set_ in controls:
        set_(2)
    with blas.one_blas_thread():
        assert threads(controls) == [1] * len(controls)
    assert threads(controls) == [2] * len(controls)
    with pytest.raises(RuntimeError), blas.one_blas_thread():
        raise RuntimeError
    assert threads(controls) == [2] * len(controls)


def test_report_does_not_depend_on_the_blas_thread_count(controls):
    reports = []
    for n in (1, 2):
        for _, set_ in controls:
            set_(n)
        cfg = ExperimentConfig(seed=1, slides_per_class=3, workers=1, output_dir="unused")
        cfg.train.epochs = 20
        report = report_without_timings(run_experiment(cfg, write_outputs=False))
        reports.append(json.dumps(report, sort_keys=True))
        assert threads(controls) == [n] * len(controls)
    assert reports[0] == reports[1]


def test_patch_features_do_not_depend_on_the_blas_thread_count(controls, monkeypatch):
    small = synth_dataset(ExperimentConfig(seed=1, slides_per_class=1))[0].patches[0].points
    # 1500 nuclei on a 4000 x 400 px strip: a thin band, so the spectrum is banded
    rng = np.random.default_rng(2)
    strip = PointSet(rng.uniform((0.0, 0.0), (4000.0, 400.0), (1500, 2)), 4000, 400)
    banded_sizes, real_eigvals_banded = [], graph.eigvals_banded

    def eigvals_banded(band, **kwargs):
        banded_sizes.append(band.shape[1])
        return real_eigvals_banded(band, **kwargs)

    monkeypatch.setattr(graph, "eigvals_banded", eigvals_banded)
    for points in (small, strip):
        vectors = []
        for n in (1, 2):
            for _, set_ in controls:
                set_(n)
            vectors.append(patch_feature_vector(points))
            assert threads(controls) == [n] * len(controls)
        assert np.array_equal(vectors[0], vectors[1])
    assert banded_sizes == [1500, 1500]
