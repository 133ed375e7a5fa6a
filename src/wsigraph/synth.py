"""Synthetic slides: each class's point processes (`SYNTH_PROCESSES`) draw the
nuclei of every patch of a `SynthParams` grid, deterministic in the seed, and
`render_slide` draws a slide as one 8-bit image, the images mode's input."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import GrayImage, render_nuclei_image
from .errors import ValidationError
from .points import PatchRecord, PointSet, SlideRecord, tile_image


@dataclass
class SynthParams:
    """Slide and patch sizes of synthetic slides; `SYNTH_PROCESSES` draws their nuclei."""

    slide_width: int = 1536
    slide_height: int = 1536
    patch_size: int = 768


def _poisson_scatter(rng, mean_count, size):
    n = rng.poisson(mean_count)
    return rng.uniform(0.0, size, size=(n, 2))


def _cluster_scatter(rng, parent_mean, offspring_mean, sd, size):
    pts = []
    for _ in range(rng.poisson(parent_mean)):
        parent = rng.uniform(0.0, size, size=2)
        k = rng.poisson(offspring_mean)
        offs = parent + rng.normal(0.0, sd, size=(k, 2))
        inside = (offs >= 0.0).all(axis=1) & (offs < size).all(axis=1)
        pts.append(offs[inside])
    return np.vstack(pts) if pts else np.zeros((0, 2))


# for each class id, the point processes drawn into every patch, in draw order:
# (draw, *rates), called with the patch size appended; the rates are a mean
# count, or mean parent and offspring counts and an offspring spread in px.
# Class 0 is homogeneous Poisson scatter (regular tissue stand-in); class 1
# Thomas-style parent/offspring clusters over a sparse background; class 2
# denser parents with a tight and a loose offspring scale, so the pattern is
# both denser and more irregular.
SYNTH_PROCESSES = (
    ((_poisson_scatter, 220.0),),
    ((_cluster_scatter, 10.0, 20.0, 40.0), (_poisson_scatter, 40.0)),
    ((_cluster_scatter, 16.0, 13.0, 12.0), (_cluster_scatter, 16.0, 8.0, 44.0),
     (_poisson_scatter, 50.0)),
)
SYNTH_CLASSES = len(SYNTH_PROCESSES)


def _synth_patch_points(class_id: int, size: float, rng) -> np.ndarray:
    return np.vstack([draw(rng, *rates, size) for draw, *rates in SYNTH_PROCESSES[class_id]])


def synth_slide(class_id: int, params: SynthParams, seed, slide_id: str = "") -> SlideRecord:
    """Generate one synthetic slide: a point set per patch, deterministic in seed."""
    if class_id not in range(SYNTH_CLASSES):
        raise ValidationError(f"unknown class id {class_id}")
    rng = np.random.default_rng(seed)
    size = params.patch_size
    patches = []
    for x, y in tile_image(params.slide_width, params.slide_height, size, size):
        pts = _synth_patch_points(class_id, float(size), rng)
        patches.append(PatchRecord(row=y // size, col=x // size,
                                   points=PointSet(pts, size, size)))
    return SlideRecord(slide_id=slide_id or f"synth-c{class_id}", label=int(class_id),
                       patches=patches)


def synth_dataset(config) -> list:
    """One SlideRecord per (class, index) of a `pipeline.ExperimentConfig`, with per-slide
    derived seeds; it reads the config's `seed`, `class_names`, `slides_per_class` and `synth`."""
    k = len(config.class_names)
    if k > SYNTH_CLASSES:
        raise ValidationError(
            f"class_names holds {k} classes (synth --classes {k}), but the synthetic "
            f"generator draws at most {SYNTH_CLASSES}")
    slides = []
    for c in range(k):
        for i in range(config.slides_per_class):
            seed = np.random.SeedSequence([config.seed, c, i])
            slides.append(synth_slide(c, config.synth, seed, slide_id=f"synth-c{c}-{i:04d}"))
    return slides


def render_slide(slide: SlideRecord, params: SynthParams) -> GrayImage:
    """The slide as one image: each patch rendered alone and copied in at its origin.

    The pixels no patch covers are background, 255.
    """
    size = params.patch_size
    pixels = np.full((params.slide_height, params.slide_width), 255, dtype=np.uint8)
    for patch in slide.patches:
        y, x = patch.row * size, patch.col * size
        pixels[y:y + size, x:x + size] = render_nuclei_image(patch.points).pixels
    return GrayImage(pixels)
