"""Nuclei detection with an oriented anisotropic Laplacian-of-Gaussian bank.

The bank sweeps `orientations` angles evenly over [0, pi) and `bandwidth`
minor-axis scales log-spaced from sigma_y up to sigma_x (the major axis stays
at sigma_x, so the shapes run from 2:1 elongated to isotropic).  Kernels are
mean-subtracted so a constant image produces zero response.  Responses are
scale-normalized by sigma_x*sigma_minor and summed across the bank; the sign
convention makes dark blobs on a light background produce positive peaks.
Nuclei are the thresholded regional maxima of that response, merged
strongest first by `points.greedy_merge`, the rule the tessellations also
use to merge near-duplicate points.

The pooled response is one FFT convolution of the reflect-padded image,
computed in row and column blocks (`bank_response`) so that it is bitwise
scipy's `fftconvolve(..., mode="valid")`.  The inverse is written into the
half-spectrum's own buffer, so the response is a view of it, and the maxima
are found per block of rows: `detect_nuclei` peaks at about 1.2 to 1.4 times
the float64 image rather than 5.6 times.

An image is 8-bit wherever it comes from: a `GrayImage` holds uint8 samples
s, each meaning intensity s / 255, as an 8-bit PGM holds them.  Float
intensities are rounded to round(255 * x) when the image is made, so a
rendered patch detects the same points in memory as through its PGM, and a
whole slide is held at one byte per pixel while `detect` tiles it.
`render_nuclei_image` makes its samples a block of rows at a time, the
blobs subtracted from one float64 block in point order, so rendering holds
one byte per pixel too, and each sample has the bits of a whole float64
render.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import fft, ifft, irfft, next_fast_len, rfft
from scipy.ndimage import maximum_filter

from .errors import ValidationError
from .points import PointSet, greedy_merge

# rows per forward and inverse real transform of `bank_response`, per
# maximum filter of `detect_nuclei` and per rounding pass of `GrayImage`, and
# half-spectrum columns per pass of `bank_response`; they bound temporaries,
# not results
ROW_BLOCK = 32
COL_BLOCK = 32
# rows per float64 block of `render_nuclei_image`: a window that crosses a
# block edge costs one more subtraction, and on the patch-dense pool patches
# 64 rows rendered ~20% faster than 32 and peaked at a quarter of the
# float64 image
RENDER_ROWS = 64


@dataclass
class DetectionParams:
    """The gLoG bank's shape and detect_nuclei's threshold and merge radius."""

    sigma_x: float = 8.0
    sigma_y: float = 4.0
    orientations: int = 9
    bandwidth: int = 7
    response_threshold: float | None = None
    merge_radius: float = 8.0


@dataclass
class GrayImage:
    """Grayscale image, row-major, of uint8 samples s, each meaning intensity s / 255.

    uint8 pixels are kept as given.  Any other pixels are intensities, which
    must be finite and in [0, 1]; they are rounded to round(255 * x) in
    float64, `ROW_BLOCK` rows at a time, so no float64 copy is held.
    """

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.ndim != 2 or p.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if p.dtype != np.uint8:
            if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
                raise ValueError("intensities must be finite and in [0, 1]")
            samples = np.empty(p.shape, dtype=np.uint8)
            for r in range(0, len(p), ROW_BLOCK):
                samples[r:r + ROW_BLOCK] = np.round(
                    np.multiply(p[r:r + ROW_BLOCK], 255.0, dtype=np.float64))
            p = samples
        self.pixels = p

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class GLoGBank:
    """Oriented LoG kernel bank; kernel count = orientations * bandwidth."""

    kernels: list
    scale_weights: np.ndarray   # sigma_x * minor_sigma per kernel

    @property
    def half_width(self) -> int:
        return (self.kernels[0].shape[0] - 1) // 2

    def pooled_kernel(self) -> np.ndarray:
        """Scale-weighted sum of all kernels (response pooling is linear)."""
        out = np.zeros_like(self.kernels[0])
        for k, w in zip(self.kernels, self.scale_weights):
            out += w * k
        return out


def _anisotropic_log(sigma_major: float, sigma_minor: float, angle: float,
                     half: int) -> np.ndarray:
    """Laplacian of a rotated anisotropic Gaussian on a (2*half+1)^2 grid."""
    ax = np.arange(-half, half + 1, dtype=np.float64)
    xx, yy = np.meshgrid(ax, ax)
    u = np.cos(angle) * xx + np.sin(angle) * yy
    v = -np.sin(angle) * xx + np.cos(angle) * yy
    g = np.exp(-(u * u) / (2 * sigma_major**2) - (v * v) / (2 * sigma_minor**2))
    g /= 2.0 * np.pi * sigma_major * sigma_minor
    lap = g * (
        (u * u) / sigma_major**4 - 1.0 / sigma_major**2
        + (v * v) / sigma_minor**4 - 1.0 / sigma_minor**2
    )
    return lap - lap.mean()    # enforce zero DC on the truncated support


def build_glog_bank(sigma_x: float, sigma_y: float, orientations: int,
                    bandwidth: int) -> GLoGBank:
    """Build the oriented LoG bank for the given kernel parameters."""
    if not (sigma_x >= sigma_y > 0):
        raise ValidationError("need sigma_x >= sigma_y > 0")
    if orientations < 1 or bandwidth < 1:
        raise ValidationError("orientations and bandwidth must be >= 1")
    half = int(np.ceil(3.0 * max(sigma_x, sigma_y)))
    scales = np.geomspace(sigma_y, sigma_x, bandwidth)
    angles = np.arange(orientations) * (np.pi / orientations)
    kernels = []
    weights = []
    for s in scales:
        for ang in angles:
            kernels.append(_anisotropic_log(sigma_x, float(s), float(ang), half))
            weights.append(sigma_x * float(s))
    return GLoGBank(kernels=kernels, scale_weights=np.asarray(weights))


def bank_response(img: GrayImage, bank: GLoGBank) -> np.ndarray:
    """Summed scale-normalized bank response (positive at dark blobs).

    Pooling is linear, so the whole bank collapses into one combined kernel
    and a single FFT convolution; the image is reflect-padded to avoid fake
    border maxima.  The result is bit for bit `fftconvolve(np.pad(pixels /
    255, hw, "reflect"), kernel, mode="valid")`: the same division and FFT
    sizes and the same transforms per row and per column, taken in blocks so
    that only the half-spectrum of the padded image is full size.  The
    inverse goes into that half-spectrum's own buffer, so the returned
    (height, width) array is a view whose base is the half-spectrum.
    """
    hw = bank.half_width
    kernel = bank.pooled_kernel()
    rows = np.pad(np.arange(img.height), hw, mode="reflect")
    cols = np.pad(np.arange(img.width), hw, mode="reflect")
    s0, s1 = (next_fast_len(len(r) + kernel.shape[0] - 1, real=True) for r in (rows, cols))
    # rfft of the reflect-padded rows, never building the padded image
    spec = np.empty((len(rows), s1 // 2 + 1), dtype=np.complex128)
    for r in range(0, len(rows), ROW_BLOCK):
        block = img.pixels[np.ix_(rows[r:r + ROW_BLOCK], cols)] / 255.0
        spec[r:r + ROW_BLOCK] = rfft(block, n=s1, axis=1)
    # per block of spectrum columns: the transform down the rows, the product
    # with the kernel's spectrum and the unscaled inverse; the valid rows go
    # back in place
    kernel_rows = rfft(kernel, n=s1, axis=1)
    valid = slice(2 * hw, 2 * hw + img.height)
    for c in range(0, spec.shape[1], COL_BLOCK):
        block = slice(c, c + COL_BLOCK)
        prod = fft(spec[:, block], n=s0, axis=0)
        prod *= fft(kernel_rows[:, block], n=s0, axis=0)
        spec[:img.height, block] = ifft(prod, axis=0, norm="forward")[valid]
    # the unscaled real inverse of the valid rows, a block at a time, into the
    # front of the spectrum's own buffer: block [r, r+b) writes float64
    # offsets [r*w, (r+b)*w), below where spectrum row r+b starts,
    # (r+b)*2*(s1//2+1), since w < s1; its own rows are read before the write
    h, w = img.height, img.width
    out = spec.view(np.float64).reshape(-1)[:h * w].reshape(h, w)
    for r in range(0, h, ROW_BLOCK):
        block = slice(r, min(r + ROW_BLOCK, h))
        out[block] = irfft(spec[block], n=s1, axis=1, norm="forward")[:, 2 * hw:2 * hw + w]
    # one scale after the last inverse, where scipy's irfftn applies it too
    out *= 1.0 / (s0 * s1)
    return out


def detect_nuclei(img: GrayImage, bank: GLoGBank,
                  response_threshold: float | None = DetectionParams.response_threshold,
                  merge_radius: float = DetectionParams.merge_radius) -> PointSet:
    """Detect nuclei centroids as thresholded regional maxima of the bank response.

    response_threshold defaults to 0.1 * the maximum response of this image;
    a blank image (max response below 1e-6) yields an empty PointSet.  Maxima
    closer than merge_radius are merged greedily: going down the maxima from
    the strongest (ties resolve by row, then column), each is kept unless a
    kept maximum lies strictly closer than merge_radius.  A dropped maximum
    suppresses nothing.  Points come out in that strength order.
    """
    if response_threshold is not None and not math.isfinite(response_threshold):
        raise ValidationError(
            f"response_threshold must be a finite number, got {response_threshold!r}")
    if not 0 <= merge_radius < math.inf:
        raise ValidationError(f"merge_radius must be a finite number >= 0, got {merge_radius!r}")
    resp = bank_response(img, bank)
    if response_threshold is None:
        peak = float(resp.max())
        if peak <= 1e-6:
            return PointSet(np.zeros((0, 2)), img.width, img.height)
        response_threshold = 0.1 * peak
    # regional maxima per block of rows; the 3x3 maximum reads one row beyond
    # each side of a block, and the image's own edge rows repeat as before
    rows, cols = [], []
    for r in range(0, img.height, ROW_BLOCK):
        lo = max(r - 1, 0)
        block = resp[r:r + ROW_BLOCK]
        local_max = maximum_filter(resp[lo:r + ROW_BLOCK + 1], size=3, mode="nearest")
        local_max = local_max[r - lo:r - lo + len(block)]
        r_b, c_b = np.nonzero((block >= local_max) & (block > response_threshold))
        rows.append(r_b + r)
        cols.append(c_b)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    xy = _merge_maxima(rows, cols, resp[rows, cols], merge_radius)
    return PointSet(xy, img.width, img.height)


def _merge_maxima(rows, cols, values, merge_radius: float) -> np.ndarray:
    """(x, y) of the maxima kept by the greedy merge, strongest first.

    The maxima are ordered by decreasing value (ties by row, then column)
    and merged in that order by `points.greedy_merge`.
    """
    order = np.lexsort((cols, rows, -values))
    xy = np.column_stack([cols[order], rows[order]]).astype(np.float64)
    return xy[greedy_merge(xy, merge_radius)]


# ---------------------------------------------------------------------------
# synthetic rendering (desk-scale stand-in for stained tissue patches)

def render_nuclei_image(points: PointSet, blob_sigma=5.0, amplitude=0.7,
                        background: float = 1.0) -> GrayImage:
    """Render points as dark Gaussian blobs on a light background.

    blob_sigma and amplitude may be scalars or per-point arrays.  Each blob
    subtracts amplitude * exp(-d^2 / (2 sigma^2)) within ceil(4 sigma) pixels
    of its centre, in point order; intensities are clipped to [0, 1] and
    returned as 8-bit samples round(255 * x).  The image is made
    `RENDER_ROWS` rows at a time in one float64 block, so no float64 image
    is held.
    """
    n = len(points)
    sigmas = _per_point("blob_sigma", blob_sigma, n)
    amps = _per_point("amplitude", amplitude, n)
    with np.errstate(over="ignore"):        # an overflow to inf is rejected next
        two_var = 2 * sigmas * sigmas
    tiny = float(np.finfo(np.float64).tiny)
    bad = ~((sigmas > 0) & (two_var >= tiny) & (two_var < math.inf))
    if bad.any():
        raise ValidationError("blob_sigma must be > 0 with 2*sigma**2 finite and at least the "
                              f"smallest normal float64 ({tiny!r}), got {float(sigmas[bad][0])!r}")
    if not np.isfinite(amps).all():
        raise ValidationError(
            f"amplitude must be finite, got {float(amps[~np.isfinite(amps)][0])!r}")
    if not math.isfinite(background):
        raise ValidationError(f"background must be finite, got {float(background)!r}")
    h, w = int(round(points.patch_height)), int(round(points.patch_width))
    # each window's extent, clipped to the image in float64 so no radius overflows
    r = np.ceil(4 * sigmas)
    x, y = points.coords[:, 0], points.coords[:, 1]
    x0, x1 = (np.clip(e, 0, w).astype(np.intp) for e in (np.trunc(x) - r, np.trunc(x) + r + 1))
    y0, y1 = (np.clip(e, 0, h).astype(np.intp) for e in (np.trunc(y) - r, np.trunc(y) + r + 1))
    samples = np.empty((h, w), dtype=np.uint8)
    block = np.empty((min(RENDER_ROWS, h), w))
    for r0 in range(0, h, RENDER_ROWS):
        rows = block[:min(RENDER_ROWS, h - r0)]
        rows.fill(background)
        _subtract_blobs(rows, r0, x, y, x0, x1, y0, y1, two_var, amps)
        np.clip(rows, 0.0, 1.0, out=rows)
        np.multiply(rows, 255.0, out=rows)
        samples[r0:r0 + len(rows)] = np.round(rows, out=rows)
    return GrayImage(samples)


def _per_point(name: str, value, n: int) -> np.ndarray:
    """A scalar or per-point argument as n float64 values."""
    a = np.asarray(value, dtype=np.float64)
    if a.ndim != 0 and a.shape != (n,):
        raise ValidationError(
            f"{name} must be a scalar or one value per point ({n}), got shape {a.shape}")
    return np.broadcast_to(a, (n,))


def _subtract_blobs(rows, r0, x, y, x0, x1, y0, y1, two_var, amps) -> None:
    """Subtract from rows, image rows r0.., the part of each blob's window there.

    A window holds amps * exp(-(gy^2 + gx^2) / two_var) over rows y0..y1 and
    columns x0..x1, gy and gx being a pixel's offsets from the blob's
    centre.  The parts of the blobs of one window width are evaluated as one
    array of their rows, elementwise with the operations of one blob at a
    time, and subtracted in point order, so every pixel gets the same bits.
    """
    idx = np.flatnonzero((y0 < r0 + len(rows)) & (y1 > r0))
    lo, hi = np.maximum(y0[idx], r0), np.minimum(y1[idx], r0 + len(rows))
    widths = x1[idx] - x0[idx]
    # the parts' rows, stacked a blob after another, blobs of one width adjacent
    order = np.argsort(widths)
    heights = (hi - lo)[order]
    ends = np.cumsum(heights)
    starts = ends - heights
    blob = np.repeat(np.arange(len(idx)), heights)      # a position in order
    point = idx[order][blob]
    gy = np.arange(len(blob)) + np.repeat(lo[order] - starts, heights) - y[point]
    neg_gy2 = -gy ** 2      # -(a + b) == -a + -b exactly, so negate per axis
    parts = [None] * len(idx)
    firsts = np.flatnonzero(np.diff(widths[order], prepend=-1)).tolist()
    for b0, b1 in zip(firsts, firsts[1:] + [len(idx)]):
        g = idx[order[b0:b1]]
        gx = x0[g, None] + np.arange(widths[order[b0]]) - x[g, None]
        rs, re = starts[b0], ends[b1 - 1]
        win = (-gx ** 2)[blob[rs:re] - b0]
        win += neg_gy2[rs:re, None]
        with np.errstate(over="ignore"):    # a sub-pixel blob's -inf exponent gives exp 0
            win /= two_var[point[rs:re], None]
        np.exp(win, out=win)
        win *= amps[point[rs:re], None]
        for j, s, e in zip(order[b0:b1].tolist(), starts[b0:b1].tolist(), ends[b0:b1].tolist()):
            parts[j] = win[s - rs:e - rs]
    for part, a, b, c, d in zip(parts, (lo - r0).tolist(), (hi - r0).tolist(),
                                x0[idx].tolist(), x1[idx].tolist()):
        rows[a:b, c:d] -= part


# ---------------------------------------------------------------------------
# 8-bit binary PGM (P5) I/O

def write_pgm(img: GrayImage, path) -> None:
    """Write an 8-bit binary PGM (P5) file of the image's samples."""
    with Path(path).open("wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img.pixels))


def read_pgm(path) -> GrayImage:
    """Read an 8-bit binary PGM (P5) file; the pixels are a read-only view of its bytes."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise ValidationError(f"{path}: not a binary PGM (P5) file")
    # header = magic, width, height, maxval; '#' comments allowed between tokens
    tokens = []
    pos = 2
    while len(tokens) < 3:
        m = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", raw[pos:])
        if not m:
            raise ValidationError(f"{path}: malformed PGM header")
        tokens.append(int(m.group(1)))
        pos += m.end()
    width, height, maxval = tokens
    if maxval != 255:
        raise ValidationError(f"{path}: only maxval 255 supported, got {maxval}")
    if width < 1 or height < 1:
        raise ValidationError(f"{path}: no pixels ({width}x{height})")
    pos += 1    # single whitespace byte after maxval
    if len(raw) - pos < width * height:
        raise ValidationError(f"{path}: truncated pixel data")
    data = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=pos)
    return GrayImage(data.reshape(height, width))
