import re
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import maximum_filter
from scipy.signal import fftconvolve

from wsigraph import detection
from wsigraph.detection import (
    GrayImage,
    _merge_maxima,
    bank_response,
    build_glog_bank,
    detect_nuclei,
    read_pgm,
    render_nuclei_image,
    write_pgm,
)
from wsigraph.errors import ValidationError
from wsigraph.pipeline import ExperimentConfig, synth_dataset
from wsigraph.points import PointSet

from oracles import greedy_match_count


def blob_layout(rng, n, w, h, min_sep=15.0, margin=25.0):
    pts = []
    while len(pts) < n:
        c = rng.uniform(margin, [w - margin, h - margin])
        if all((c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2 >= min_sep**2 for p in pts):
            pts.append(c)
    return np.array(pts)


class TestBank:
    def test_kernel_count_for_table_parameters(self):
        bank = build_glog_bank(8, 4, 9, 7)
        assert len(bank.kernels) == 63

    def test_kernels_have_zero_dc(self):
        bank = build_glog_bank(8, 4, 9, 7)
        for k in bank.kernels:
            assert abs(k.sum()) < 1e-6

    def test_single_isotropic_kernel_is_rotation_invariant(self):
        bank = build_glog_bank(5, 5, 1, 1)
        assert len(bank.kernels) == 1
        k = bank.kernels[0]
        assert np.abs(k - np.rot90(k)).max() < 1e-6

    def test_support_half_width(self):
        bank = build_glog_bank(8, 4, 9, 7)
        assert bank.half_width == 24          # ceil(3 * max sigma)
        assert bank.kernels[0].shape == (49, 49)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_glog_bank(4, 8, 9, 7)       # sigma_x < sigma_y
        with pytest.raises(ValueError):
            build_glog_bank(8, 4, 0, 7)

    def test_constant_image_zero_response(self):
        bank = build_glog_bank(8, 4, 9, 7)
        img = GrayImage(np.full((80, 80), 0.37))
        assert np.abs(bank_response(img, bank)).max() < 1e-6

    def test_pooled_kernel_equals_per_kernel_sum(self):
        bank = build_glog_bank(6, 3, 4, 3)
        rng = np.random.default_rng(0)
        img = GrayImage(rng.uniform(0, 1, (40, 40)))

        half = bank.half_width
        padded = np.pad(img.pixels / 255.0, half, mode="reflect")
        acc = np.zeros_like(padded)
        for k, w in zip(bank.kernels, bank.scale_weights):
            acc += w * fftconvolve(padded, k, mode="same")
        ref = acc[half:-half, half:-half]
        got = bank_response(img, bank)
        assert np.allclose(got, ref, atol=1e-9)


class TestDetect:
    def test_blank_image_no_detections(self):
        bank = build_glog_bank(8, 4, 9, 7)
        img = GrayImage(np.full((100, 100), 0.8))
        assert len(detect_nuclei(img, bank)) == 0

    def test_three_known_blobs_within_3px(self):
        bank = build_glog_bank(8, 4, 9, 7)
        truth = np.array([(60.0, 70.0), (150.0, 90.0), (100.0, 180.0)])
        img = render_nuclei_image(PointSet(truth, 256, 256), blob_sigma=5.0,
                                  amplitude=0.7)
        det = detect_nuclei(img, bank)
        assert len(det) == 3
        assert greedy_match_count(det.coords, truth, radius=3.0) == 3

    def test_random_layouts_recall_precision(self):
        bank = build_glog_bank(8, 4, 9, 7)
        for trial in range(10):
            rng = np.random.default_rng(200 + trial)
            n = int(rng.integers(10, 81))
            truth = blob_layout(rng, n, 320, 320)
            img = render_nuclei_image(
                PointSet(truth, 320, 320),
                blob_sigma=rng.uniform(4, 6, n),
                amplitude=rng.uniform(0.5, 0.8, n),
            )
            det = detect_nuclei(img, bank)
            m = greedy_match_count(det.coords, truth, radius=3.0)
            assert m / len(truth) >= 0.95
            assert m / max(len(det), 1) >= 0.95

    def test_translation_equivariance(self):
        bank = build_glog_bank(8, 4, 9, 7)
        rng = np.random.default_rng(9)
        truth = blob_layout(rng, 12, 220, 220, margin=45.0)
        img = render_nuclei_image(PointSet(truth, 220, 220), blob_sigma=5.0,
                                  amplitude=0.6)
        dx, dy = 7, 11
        shifted = np.full_like(img.pixels, img.pixels[0, 0])
        shifted[dy:, dx:] = img.pixels[:-dy, :-dx]
        d1 = detect_nuclei(img, bank)
        d2 = detect_nuclei(GrayImage(shifted), bank)
        # interior detections shift exactly
        s1 = {(x + dx, y + dy) for x, y in d1.coords
              if x + dx < 200 and y + dy < 200 and x > 20 and y > 20}
        s2 = {(x, y) for x, y in d2.coords}
        assert s1 <= s2

    def test_threshold_monotonicity(self):
        bank = build_glog_bank(8, 4, 9, 7)
        rng = np.random.default_rng(10)
        truth = blob_layout(rng, 30, 300, 300)
        img = render_nuclei_image(PointSet(truth, 300, 300), blob_sigma=5.0,
                                  amplitude=0.7)
        resp_max = bank_response(img, bank).max()
        counts = [
            len(detect_nuclei(img, bank, response_threshold=t * resp_max))
            for t in (0.05, 0.2, 0.5, 0.9)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_merge_radius_collapses_plateau(self):
        bank = build_glog_bank(8, 4, 9, 7)
        truth = np.array([(100.0, 100.0), (104.0, 100.0)])   # closer than merge radius
        img = render_nuclei_image(PointSet(truth, 200, 200), blob_sigma=5.0,
                                  amplitude=0.7)
        det = detect_nuclei(img, bank, merge_radius=8.0)
        assert len(det) == 1


def fftconvolve_response(img, bank):
    """The one-call response that the blocked `bank_response` replaced."""
    padded = np.pad(img.pixels / 255.0, bank.half_width, mode="reflect")
    return fftconvolve(padded, bank.pooled_kernel(), mode="valid")


def rendered_patch(size, n, seed):
    """A rendered patch of n nuclei, overlaps allowed."""
    rng = np.random.default_rng(seed)
    return render_nuclei_image(PointSet(rng.uniform(8, size - 8, (n, 2)), size, size),
                               blob_sigma=rng.uniform(4, 6, n), amplitude=rng.uniform(0.5, 0.8, n))


class TestBlockedResponse:
    """`bank_response` is bitwise `fftconvolve` of the reflect-padded image."""

    bank = build_glog_bank(8, 4, 9, 7)

    # under the 24-px half width the reflection repeats; then odd, non-square
    # and sizes that span several row and column blocks
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 30), (2, 5), (7, 9),
                                       (50, 61), (97, 200), (333, 128)])
    def test_random_images(self, shape):
        rng = np.random.default_rng(list(shape))
        img = GrayImage(rng.integers(0, 256, shape) / 255.0)
        got = bank_response(img, self.bank)
        assert got.shape == shape
        assert np.array_equal(got, fftconvolve_response(img, self.bank))

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_block_sizes_leave_the_bits(self, monkeypatch, block):
        img = GrayImage(np.random.default_rng(3).uniform(0, 1, (70, 90)))
        monkeypatch.setattr(detection, "ROW_BLOCK", block)
        monkeypatch.setattr(detection, "COL_BLOCK", block)
        assert np.array_equal(bank_response(img, self.bank), fftconvolve_response(img, self.bank))

    def test_rendered_1024_patch(self):
        img = rendered_patch(1024, 1000, seed=5)
        assert np.array_equal(bank_response(img, self.bank), fftconvolve_response(img, self.bank))

    @pytest.mark.parametrize("size, n, seed", [(1024, 1000, 5), (300, 120, 6), (257, 60, 7)])
    def test_detections_on_rendered_images(self, monkeypatch, size, n, seed):
        img = rendered_patch(size, n, seed)
        got = detect_nuclei(img, self.bank)
        monkeypatch.setattr(detection, "bank_response", fftconvolve_response)
        want = detect_nuclei(img, self.bank)
        assert len(got) > 0 and np.array_equal(got.coords, want.coords)

    def test_detection_peak_memory_is_bounded_by_the_image(self):
        img = rendered_patch(1024, 1000, seed=5)
        detect_nuclei(img, self.bank)
        tracemalloc.start()
        try:
            detect_nuclei(img, self.bank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one-call fftconvolve peaked near 5.9 times the float64 image
        assert peak <= 3 * 8 * img.pixels.size


def full_filter_detections(resp, merge_radius=8.0):
    """detect_nuclei's points from one maximum filter over the whole response."""
    local_max = maximum_filter(resp, size=3, mode="nearest")
    rows, cols = np.nonzero((resp >= local_max) & (resp > 0.1 * resp.max()))
    return _merge_maxima(rows, cols, resp[rows, cols], merge_radius)


def window_rendering(points, sigmas, amps):
    """render_nuclei_image's blob sum before the clip: each blob within 4 sigma."""
    h, w = int(points.patch_height), int(points.patch_width)
    img = np.ones((h, w))
    for (x, y), s, a in zip(points.coords, sigmas, amps):
        r = int(np.ceil(4 * s))
        x0, x1 = max(0, int(x) - r), min(w, int(x) + r + 1)
        y0, y1 = max(0, int(y) - r), min(h, int(y) + r + 1)
        gx = np.arange(x0, x1, dtype=np.float64) - x
        gy = np.arange(y0, y1, dtype=np.float64) - y
        img[y0:y1, x0:x1] -= a * np.exp(-(gy[:, None] ** 2 + gx[None, :] ** 2) / (2 * s * s))
    return img


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInPlaceImagesPath:
    """Blocked maxima, in-place clip and PGM scaling: the same bits in about one image."""

    bank = build_glog_bank(8, 4, 9, 7)

    @pytest.mark.parametrize("block", [1, 7, 1000])
    @pytest.mark.parametrize("size, n, seed, levels", [
        (1024, 1000, 5, None), (300, 120, 6, None), (257, 60, 7, 4)])
    def test_blocked_maxima_equal_one_full_filter(self, monkeypatch, block, size, n, seed,
                                                  levels):
        img = rendered_patch(size, n, seed)
        resp = bank_response(img, self.bank)
        if levels is not None:
            # a response of few levels has plateaus of equal maxima; one
            # crosses the edge between two blocks of 7 rows
            resp = np.floor(resp * (levels / resp.max()))
            is_max = (resp >= maximum_filter(resp, size=3, mode="nearest")) & (resp > 0)
            edge = np.arange(7, size, 7)
            assert (is_max[edge - 1] & is_max[edge] & (resp[edge - 1] == resp[edge])).any()
        monkeypatch.setattr(detection, "bank_response", lambda img, bank: resp.copy())
        monkeypatch.setattr(detection, "ROW_BLOCK", block)
        got = detect_nuclei(img, self.bank)
        assert len(got) > 0 and np.array_equal(got.coords, full_filter_detections(resp))

    def test_pgm_bytes_of_a_rendering_are_the_rounded_clipped_sum(self, tmp_path):
        rng = np.random.default_rng(21)
        n = 400
        points = PointSet(rng.uniform(0, [200, 150], (n, 2)), 200, 150)
        sigmas = rng.uniform(3, 7, n)
        # overlapping dark blobs sum below 0 and negative ones lift above 1
        amps = rng.uniform(-0.6, 0.9, n)
        want = window_rendering(points, sigmas, amps)
        assert want.min() < 0 and want.max() > 1
        path = tmp_path / "r.pgm"
        write_pgm(render_nuclei_image(points, blob_sigma=sigmas, amplitude=amps), path)
        pixels = np.round(np.clip(want, 0, 1) * 255).astype(np.uint8)
        assert path.read_bytes() == b"P5\n200 150\n255\n" + pixels.tobytes()

    @pytest.mark.parametrize("height", [1, 31, 32, 33, 257])
    def test_pgm_bytes_equal_one_rounding_of_the_image(self, tmp_path, height):
        rng = np.random.default_rng(height)
        width = 45
        levels = rng.integers(0, 255, (height, width))
        halves = (levels + 0.5) / 255.0
        assert np.array_equal(halves * 255.0, levels + 0.5)     # ties, rounded to even
        points = PointSet(rng.uniform(0, [width, height], (30, 2)), width, height)
        rendering = np.clip(window_rendering(points, np.full(30, 5.0), np.full(30, 0.9)), 0, 1)
        for pixels in (rng.uniform(0, 1, (height, width)), rendering, halves):
            path = tmp_path / "p.pgm"
            write_pgm(GrayImage(pixels), path)
            want = np.round(pixels * 255.0).astype(np.uint8)
            assert path.read_bytes() == f"P5\n{width} {height}\n255\n".encode() + want.tobytes()

    def test_pgm_write_holds_no_float_copy(self, tmp_path):
        img = GrayImage(np.random.default_rng(8).uniform(0, 1, (1024, 1024)))
        # the uint8 bytes (1/8 of the image) and one block of scaled rows
        assert traced_peak(lambda: write_pgm(img, tmp_path / "p.pgm")) <= 0.25 * img.pixels.nbytes

    def test_image_steps_peak_near_one_image(self, tmp_path):
        rng = np.random.default_rng(5)
        points = PointSet(rng.uniform(8, 1016, (1000, 2)), 1024, 1024)
        img = render_nuclei_image(points)
        nbytes = 8 * img.pixels.size        # the float64 image
        assert traced_peak(lambda: render_nuclei_image(points)) <= 1.5 * nbytes
        assert traced_peak(lambda: write_pgm(img, tmp_path / "p.pgm")) <= 1.5 * nbytes
        tile = rendered_patch(1024, 1000, seed=5)
        detect_nuclei(tile, self.bank)
        # a full-size inverse, maximum filter and masks peaked at 2.4 times
        assert traced_peak(lambda: detect_nuclei(tile, self.bank)) <= 1.5 * nbytes


def rendered_pgm(path, size, n, seed):
    """Write an n-nucleus rendering of a size x size patch as PGM; return path."""
    rng = np.random.default_rng(seed)
    points = PointSet(rng.uniform(8, size - 8, (n, 2)), size, size)
    write_pgm(render_nuclei_image(points, blob_sigma=rng.uniform(4, 6, n),
                                  amplitude=rng.uniform(0.5, 0.8, n)), path)
    return path


class TestEightBitImages:
    """uint8 samples s stand for the float64 intensities s / 255, bit for bit."""

    bank = build_glog_bank(8, 4, 9, 7)

    def check_same_bits(self, samples):
        eight = GrayImage(samples)
        assert eight.pixels.dtype == np.uint8
        floats = GrayImage(samples / 255.0)
        assert np.array_equal(bank_response(eight, self.bank), bank_response(floats, self.bank))
        got, want = detect_nuclei(eight, self.bank), detect_nuclei(floats, self.bank)
        assert np.array_equal(got.coords, want.coords)
        return got

    @pytest.mark.parametrize("block", [1, 7, detection.ROW_BLOCK])
    @pytest.mark.parametrize("shape", [(1, 1), (31, 33), (257, 513)])
    def test_random_samples(self, monkeypatch, block, shape):
        samples = np.random.default_rng(list(shape)).integers(0, 256, shape).astype(np.uint8)
        monkeypatch.setattr(detection, "ROW_BLOCK", block)
        self.check_same_bits(samples)

    @pytest.mark.parametrize("block", [1, 7, detection.ROW_BLOCK])
    def test_rendered_1024_pgm(self, tmp_path, monkeypatch, block):
        samples = read_pgm(rendered_pgm(tmp_path / "p.pgm", 1024, 1000, seed=5)).pixels
        monkeypatch.setattr(detection, "ROW_BLOCK", block)
        assert len(self.check_same_bits(samples)) > 0

    def test_detection_from_a_pgm_holds_no_float_image(self, tmp_path):
        path = rendered_pgm(tmp_path / "p.pgm", 1024, 1000, seed=5)
        detect_nuclei(read_pgm(path), self.bank)
        float_image = 1024 * 1024 * 8
        # a float64 copy of the samples peaked at about 2.3 times
        assert traced_peak(lambda: detect_nuclei(read_pgm(path), self.bank)) <= 1.5 * float_image

    def test_pgm_rewrites_byte_for_byte(self, tmp_path):
        every_byte = tmp_path / "all.pgm"
        every_byte.write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
        for path in (every_byte, rendered_pgm(tmp_path / "p.pgm", 300, 120, seed=6)):
            write_pgm(read_pgm(path), tmp_path / "back.pgm")
            assert (tmp_path / "back.pgm").read_bytes() == path.read_bytes()
        # a tile of a slide is a strided view; its rows are written in order
        tile = GrayImage(read_pgm(every_byte).pixels[2:5, 3:9])
        write_pgm(tile, tmp_path / "tile.pgm")
        assert (tmp_path / "tile.pgm").read_bytes() == b"P5\n6 3\n255\n" + bytes(
            16 * r + c for r in range(2, 5) for c in range(3, 9))


class TestOnePixelType:
    """Float intensities become the samples their PGM holds, so an image
    detects the same in memory as through its file."""

    bank = build_glog_bank(8, 4, 9, 7)

    def test_synthetic_patches_detect_as_their_pgms(self, tmp_path):
        slides = synth_dataset(ExperimentConfig(seed=7, slides_per_class=2))
        patches = [patch for slide in slides for patch in slide.patches]
        assert len(patches) == 24
        for patch in patches:
            img = render_nuclei_image(patch.points)
            write_pgm(img, tmp_path / "p.pgm")
            got = detect_nuclei(img, self.bank)
            want = detect_nuclei(read_pgm(tmp_path / "p.pgm"), self.bank)
            assert len(got) > 0 and np.array_equal(got.coords, want.coords)

    def test_rounding_holds_no_float_copy(self):
        floats = np.random.default_rng(8).uniform(0, 1, (1024, 1024))
        made = []
        peak = traced_peak(lambda: made.append(GrayImage(floats)))
        assert made[0].pixels.dtype == np.uint8
        # the uint8 samples (1/8 of the image) and one block of scaled rows
        assert peak <= 0.25 * floats.nbytes


def edge_crossing_blobs(width, height, n, seed):
    """n blobs: 80 on every image edge and corner and on the rows where blocks
    of 7 or 64 rows meet, the rest uniform; per-point sigma in [2, 9] and
    amplitude in [-0.6, 0.9]."""
    rng = np.random.default_rng(seed)
    near = [0.0, 0.4, width - 0.6, width - 0.01]
    rows = [0.0, 0.3, 6.5, 7.0, 63.2, 64.0, height - 0.5, height - 0.01]
    edges = [(x, y) for x in near for y in rows if y < height]
    edges += [(x, y) for x in rng.uniform(0, width, 6) for y in rows if y < height]
    xy = np.vstack([edges, rng.uniform(0, [width, height], (n - len(edges), 2))])
    points = PointSet(xy, width, height)
    return points, rng.uniform(2, 9, len(points)), rng.uniform(-0.6, 0.9, len(points))


def rounded_window_rendering(points, sigmas, amps):
    """The 8-bit samples of `window_rendering`: clipped, then round(255 * x)."""
    return np.round(np.clip(window_rendering(points, sigmas, amps), 0, 1) * 255).astype(np.uint8)


RENDER_CASES = {
    "edges and block edges": lambda: edge_crossing_blobs(150, 97, 120, seed=3),
    "non-square": lambda: edge_crossing_blobs(37, 300, 90, seed=4),
    "one row": lambda: (PointSet([[0.0, 0.0], [20.5, 0.7], [49.9, 0.2]], 50, 1),
                        np.array([3.0, 6.0, 2.5]), np.array([0.9, -0.4, 0.5])),
    "no points": lambda: (PointSet(np.zeros((0, 2)), 40, 30), np.zeros(0), np.zeros(0)),
}


class TestBlockedRendering:
    """`render_nuclei_image` makes a block of rows at a time, with the bytes
    of one whole float64 render and a fraction of its memory."""

    @pytest.mark.parametrize("block", [1, 7, detection.RENDER_ROWS])
    @pytest.mark.parametrize("case", RENDER_CASES)
    def test_bytes_equal_a_whole_render(self, monkeypatch, block, case):
        points, sigmas, amps = RENDER_CASES[case]()
        want = rounded_window_rendering(points, sigmas, amps)
        monkeypatch.setattr(detection, "RENDER_ROWS", block)
        got = render_nuclei_image(points, blob_sigma=sigmas, amplitude=amps).pixels
        assert got.dtype == np.uint8 and np.array_equal(got, want)

    def test_windows_cross_every_edge(self):
        points, sigmas, _ = RENDER_CASES["edges and block edges"]()
        x, y = points.coords.T
        r = np.ceil(4 * sigmas)
        assert (x - r < 0).any() and (x + r >= 150).any()
        assert (y - r < 0).any() and (y + r >= 97).any()
        for edge in (7, 14, detection.RENDER_ROWS):
            assert ((y - r < edge) & (y + r >= edge)).any()

    def test_render_peaks_below_half_the_float64_image(self):
        rng = np.random.default_rng(5)
        points = PointSet(rng.uniform(8, 1016, (1000, 2)), 1024, 1024)
        render_nuclei_image(points)
        # a whole float64 image, clipped and rounded, peaked at about 1.2 times
        assert traced_peak(lambda: render_nuclei_image(points)) <= 0.5 * 8 * 1024 * 1024


# each bad render_nuclei_image argument and the message it must raise
SIGMA_RULE = ("blob_sigma must be > 0 with 2*sigma**2 finite and at least the smallest normal "
              "float64 (2.2250738585072014e-308), ")
BAD_RENDER_ARGUMENTS = [
    ({"blob_sigma": -2.0}, SIGMA_RULE + "got -2.0"),
    ({"blob_sigma": 0.0}, SIGMA_RULE + "got 0.0"),
    ({"blob_sigma": 1e-200}, SIGMA_RULE + "got 1e-200"),
    ({"blob_sigma": 1e200}, SIGMA_RULE + "got 1e+200"),
    ({"blob_sigma": 1e-160}, SIGMA_RULE + "got 1e-160"),
    ({"blob_sigma": np.nan}, SIGMA_RULE + "got nan"),
    ({"blob_sigma": [5.0, -1.0, 5.0]}, SIGMA_RULE + "got -1.0"),
    ({"amplitude": np.inf}, "amplitude must be finite, got inf"),
    ({"amplitude": np.nan}, "amplitude must be finite, got nan"),
    ({"amplitude": [0.5, 0.5, -np.inf]}, "amplitude must be finite, got -inf"),
    ({"background": np.inf}, "background must be finite, got inf"),
    ({"background": np.nan}, "background must be finite, got nan"),
    ({"blob_sigma": [5.0, 5.0]},
     "blob_sigma must be a scalar or one value per point (3), got shape (2,)"),
    ({"amplitude": np.full((3, 1), 0.5)},
     "amplitude must be a scalar or one value per point (3), got shape (3, 1)"),
]


@pytest.mark.parametrize("kwargs, message", BAD_RENDER_ARGUMENTS,
                         ids=[message for _, message in BAD_RENDER_ARGUMENTS])
def test_bad_render_argument_is_named(kwargs, message):
    points = PointSet([[5.0, 5.0], [10.0, 10.0], [20.0, 15.0]], 32, 24)
    with pytest.raises(ValidationError, match=re.escape(message)):
        render_nuclei_image(points, **kwargs)


def test_sub_pixel_blob_renders_without_overflow():
    # 2 sigma^2 ~ 2.4e-308 is normal, but a pixel 1.9 px off the centre has
    # exponent -7.2 / 2.4e-308, past the float64 range: the blob is invisible
    img = render_nuclei_image(PointSet([[5.9, 5.9]], 12, 12), blob_sigma=1.1e-154)
    assert np.array_equal(img.pixels, np.full((12, 12), 255, dtype=np.uint8))


def brute_force_merge(rows, cols, values, merge_radius):
    """Greedy merge by definition: strongest first (ties by row, then column),
    keep a maximum unless a kept one is strictly closer than merge_radius."""
    order = sorted(range(len(rows)), key=lambda i: (-values[i], rows[i], cols[i]))
    kept = []
    for i in order:
        x, y = float(cols[i]), float(rows[i])
        if all((x - kx) * (x - kx) + (y - ky) * (y - ky) >= merge_radius * merge_radius
               for kx, ky in kept):
            kept.append((x, y))
    return np.array(kept, dtype=np.float64).reshape(-1, 2)


class TestMerge:
    """The cKDTree merge behind detect_nuclei against the greedy definition."""

    @staticmethod
    def check(rows, cols, values, merge_radius=8.0):
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        got = _merge_maxima(rows, cols, values, merge_radius)
        want = brute_force_merge(rows.tolist(), cols.tolist(), values.tolist(), merge_radius)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        return got

    def test_empty(self):
        assert self.check([], [], []).shape == (0, 2)

    def test_pair_at_exactly_merge_radius_is_kept(self):
        got = self.check([0, 0, 8, 3], [0, 8, 0, 4], [4.0, 3.0, 2.0, 1.0])
        # (4, 3) is 5 from (0, 0); the axis pairs are exactly 8 apart
        assert got.tolist() == [[0, 0], [8, 0], [0, 8]]
        got = self.check([0, 3], [0, 4], [2.0, 1.0], merge_radius=5.0)
        assert got.tolist() == [[0, 0], [4, 3]]

    def test_dropped_point_does_not_suppress(self):
        # B is within 8 of A and of C; A drops B, so C (12 from A) stays
        got = self.check([0, 0, 0], [0, 6, 12], [3.0, 2.0, 1.0])
        assert got.tolist() == [[0, 0], [12, 0]]
        # a chain of drops and keeps: every other point survives
        cols = np.arange(0, 60, 6)
        got = self.check(np.zeros(10), cols, -cols.astype(float))
        assert got[:, 0].tolist() == cols[::2].tolist()

    def test_equal_responses_resolve_by_row_then_column(self):
        got = self.check([5, 3, 3, 20], [2, 7, 4, 20], [1.0, 1.0, 1.0, 0.5])
        assert got.tolist() == [[4, 3], [20, 20]]
        got = self.check([3, 3], [7, 4], [1.0, 2.0])
        assert got.tolist() == [[4, 3]]

    def test_seeded_clusters_match_brute_force(self):
        rng = np.random.default_rng(11)
        merged = 0
        for trial in range(60):
            centres = rng.integers(0, 120, (int(rng.integers(1, 12)), 2))
            offsets = rng.integers(-5, 6, (int(rng.integers(1, 80)), 2))
            pts = centres[rng.integers(0, len(centres), len(offsets))] + offsets
            pts = np.unique(pts, axis=0)      # maxima sit on distinct pixels
            rows, cols = pts[:, 0], pts[:, 1]
            # few distinct levels, so equal responses are common
            values = rng.integers(0, 4, len(pts)).astype(np.float64)
            radius = float(rng.choice([3.0, 5.0, 8.0, 8.5]))
            got = self.check(rows, cols, values, radius)
            merged += len(pts) - len(got)
        assert merged > 500


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        samples = rng.integers(0, 256, (30, 40)).astype(np.uint8)
        img = GrayImage(samples / 255)
        path = tmp_path / "img.pgm"
        write_pgm(img, path)
        back = read_pgm(path)
        assert back.width == 40 and back.height == 30
        assert back.pixels.dtype == np.uint8 and np.array_equal(back.pixels, samples)

    def test_every_byte_reads_as_its_value_over_255(self, tmp_path):
        # the samples are kept as they are; sample s means intensity s / 255
        path = tmp_path / "all.pgm"
        path.write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
        pixels = read_pgm(path).pixels
        assert pixels.dtype == np.uint8
        assert np.array_equal(pixels, np.arange(256, dtype=np.uint8).reshape(16, 16))

    def test_reads_header_with_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        data = bytes([7] * 6)
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + data)
        img = read_pgm(path)
        assert img.width == 3 and img.height == 2
        assert img.pixels.dtype == np.uint8 and np.array_equal(img.pixels, np.full((2, 3), 7))

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)
