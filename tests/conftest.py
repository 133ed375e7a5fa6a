# makes the tests directory importable so shared oracles can be imported; holds
# the fixtures that several test modules share
import numpy as np
import pytest

from wsigraph import features, pipeline
from wsigraph.points import PatchRecord, PointSet, SlideRecord


@pytest.fixture
def over_cap_slide():
    """One slide whose patch (2, 5) holds one nucleus more than the cap."""
    pts = np.random.default_rng(0).uniform(0, 768, (features.MAX_PATCH_NUCLEI + 1, 2))
    return SlideRecord("big", 0, [PatchRecord(2, 5, PointSet(pts, 768, 768))])


@pytest.fixture
def no_patch_features(monkeypatch):
    """Fail any featurization, which would build an n x n adjacency."""
    def fail(points, d_p):
        raise AssertionError(f"featurized a patch of {len(points)} nuclei")
    monkeypatch.setattr(pipeline, "patch_feature_vector", fail)
