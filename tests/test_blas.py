import json
import os

import numpy as np
import pytest

from wsigraph import blas, graph
from wsigraph.features import patch_feature_vector
from wsigraph.pipeline import (
    ExperimentConfig,
    _resolve_workers,
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
    banded_sizes, real_band_eigenvalues = [], graph.band_eigenvalues

    def band_eigenvalues(band):
        banded_sizes.append(band.shape[1])
        return real_band_eigenvalues(band)

    monkeypatch.setattr(graph, "band_eigenvalues", band_eigenvalues)
    for points in (small, strip):
        vectors = []
        for n in (1, 2):
            for _, set_ in controls:
                set_(n)
            vectors.append(patch_feature_vector(points))
            assert threads(controls) == [n] * len(controls)
        assert np.array_equal(vectors[0], vectors[1])
    assert banded_sizes == [1500, 1500]


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("n, kd", [(1, 0), (9, 0), (9, 1), (30, 10), (30, 29)])
def test_band_eigenvalues_match_the_dense_solver(monkeypatch, fallback, order, n, kd):
    if fallback:
        monkeypatch.setattr(blas, "_dsbev_2stage", lambda: None)
    elif blas._dsbev_2stage() is None:
        pytest.skip("no loaded OpenBLAS exports dsbev_2stage")
    rng = np.random.default_rng(n + kd)
    a = rng.normal(size=(n, n))
    i, j = np.indices((n, n))
    a = np.where(abs(i - j) <= kd, a + a.T, 0.0)
    band = np.zeros((kd + 1, n), order=order)
    for d in range(kd + 1):
        band[d, :n - d] = np.diagonal(a, -d)
    eig = blas.band_eigenvalues(band)
    np.testing.assert_allclose(eig, np.linalg.eigvalsh(a), rtol=0, atol=1e-12)
    assert np.all(np.diff(eig) >= 0)


def test_band_eigenvalues_raise_on_a_lapack_error():
    if blas._dsbev_2stage() is None:
        pytest.skip("no loaded OpenBLAS exports dsbev_2stage")
    band = np.zeros((2, 5), order="F")
    band[0, 2] = np.nan     # LAPACKE's NaN check rejects the band (info = -6)
    with pytest.raises(np.linalg.LinAlgError, match="info = -6"):
        blas.band_eigenvalues(band)


def test_usable_cores_count_the_affinity_else_the_machine(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert blas.usable_cores() == 3
    assert _resolve_workers(0) == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    assert _resolve_workers(0) == 4        # the default pool stays at most 4
    assert _resolve_workers(5) == 5
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert blas.usable_cores() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert blas.usable_cores() == 1
    assert _resolve_workers(0) == 1
