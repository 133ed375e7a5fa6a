"""Damaged interchange files: every reader returns or names the file.

Each property starts from a valid file, truncates it or overwrites a few of
its bytes, and requires the reader either to return or to raise a
ValidationError whose message starts with the path.  Any other exception
would reach the CLI as a runtime failure (exit 2).

A second property holds images to one pixel type: a `GrayImage` keeps its
uint8 samples, and its PGM reads back as those samples.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsigraph.detection import GrayImage, read_pgm, write_pgm

from wsigraph.errors import ValidationError
from wsigraph.image_graph import build_image_graph, load_image_graphs, save_image_graphs
from wsigraph.pipeline import (
    export_features,
    export_labels,
    export_pointsets,
    import_features,
    import_labels,
    import_pointsets,
)
from wsigraph.points import PatchRecord, PointSet, SlideRecord

PATCH = 64


def _slides():
    rng = np.random.default_rng(5)
    slides = []
    for s in range(2):
        patches = [PatchRecord(row=r, col=c,
                               points=PointSet(rng.uniform(0, PATCH, (3, 2)), PATCH, PATCH),
                               features=rng.normal(size=69))
                   for r in range(2) for c in range(2)]
        slides.append(SlideRecord(slide_id=f"s{s}", label=s, patches=patches))
    return slides


def _graphs():
    rng = np.random.default_rng(6)
    return [build_image_graph(rng.normal(size=(3, 4)), theta=-1.0, slide_id=f"s{i}", label=i)
            for i in range(2)]


CASES = {
    "points": (lambda path: export_pointsets(_slides(), path), import_pointsets),
    "features": (lambda path: export_features(_slides(), path), import_features),
    "labels": (lambda path: export_labels(_slides(), path), import_labels),
    "graphs": (lambda path: save_image_graphs(_graphs(), path), load_image_graphs),
}


@st.composite
def damaged(draw, data: bytes):
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    edits = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255))
    for pos, byte in draw(st.lists(edits, min_size=1, max_size=6)):
        out[pos] = byte
    return bytes(out)


@pytest.mark.parametrize("reader", sorted(CASES))
def test_damaged_file_is_read_or_named(tmp_path_factory, reader):
    write, read = CASES[reader]
    path = tmp_path_factory.mktemp(reader) / "input"
    write(path)
    valid = path.read_bytes()
    read(path)      # the undamaged file reads

    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(damaged(valid))
    def check(data):
        path.write_bytes(data)
        try:
            read(path)
        except ValidationError as e:
            assert str(e).startswith(str(path)), str(e)

    check()


def test_an_image_is_its_rounded_samples_and_reads_back_from_its_pgm(tmp_path):
    path = tmp_path / "image.pgm"

    @settings(max_examples=300, deadline=None, database=None)
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40)))
    def check(x):
        img = GrayImage(x)
        assert img.pixels.dtype == np.uint8 and np.array_equal(img.pixels, x)
        write_pgm(img, path)
        assert np.array_equal(read_pgm(path).pixels, img.pixels)

    check()
