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

An 8-bit image stays 8-bit: `read_pgm` returns the file's uint8 samples s,
which mean intensity s / 255, and `bank_response` divides each block of rows
it gathers by 255 as it goes.  That is the division a float64 copy of the
image would hold, so responses and points are the same bits, and a whole
slide is held at one byte per pixel while `detect` tiles it.
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
# maximum filter of `detect_nuclei` and per rounding pass of `write_pgm`, and
# half-spectrum columns per pass of `bank_response`; they bound temporaries,
# not results
ROW_BLOCK = 32
COL_BLOCK = 32


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
    """Grayscale image, row-major: float64 intensities in [0, 1], or uint8
    samples s (as an 8-bit PGM holds them), each meaning intensity s / 255.

    uint8 pixels are kept as given and need no range check; any other dtype
    is converted to float64 and checked.
    """

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.ndim != 2 or p.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if p.dtype != np.uint8:
            p = p.astype(np.float64, copy=False)
            if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
                raise ValueError("intensities must be finite and in [0, 1]")
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
    border maxima.  The result is bit for bit `fftconvolve(np.pad(pixels, hw,
    "reflect"), kernel, mode="valid")`: the same FFT sizes and the same
    transforms per row and per column, taken in blocks so that only the
    half-spectrum of the padded image is full size.  The inverse goes into
    that half-spectrum's own buffer, so the returned (height, width) array is
    a view whose base is the half-spectrum.  uint8 samples are divided by 255
    a block of rows at a time, so the result is bit for bit that of the
    float64 image `samples / 255.0`.
    """
    hw = bank.half_width
    kernel = bank.pooled_kernel()
    rows = np.pad(np.arange(img.height), hw, mode="reflect")
    cols = np.pad(np.arange(img.width), hw, mode="reflect")
    s0, s1 = (next_fast_len(len(r) + kernel.shape[0] - 1, real=True) for r in (rows, cols))
    # rfft of the reflect-padded rows, never building the padded image
    spec = np.empty((len(rows), s1 // 2 + 1), dtype=np.complex128)
    for r in range(0, len(rows), ROW_BLOCK):
        block = img.pixels[np.ix_(rows[r:r + ROW_BLOCK], cols)]
        if block.dtype == np.uint8:
            block = np.divide(block, 255.0, dtype=np.float64)
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

    blob_sigma and amplitude may be scalars or per-point arrays; intensities
    are clipped to [0, 1].
    """
    h, w = int(round(points.patch_height)), int(round(points.patch_width))
    img = np.full((h, w), float(background))
    sigmas = np.broadcast_to(np.asarray(blob_sigma, dtype=np.float64), (len(points),))
    amps = np.broadcast_to(np.asarray(amplitude, dtype=np.float64), (len(points),))
    for (x, y), s, a in zip(points.coords, sigmas, amps):
        r = int(np.ceil(4 * s))
        x0, x1 = max(0, int(x) - r), min(w, int(x) + r + 1)
        y0, y1 = max(0, int(y) - r), min(h, int(y) + r + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        gx = np.arange(x0, x1, dtype=np.float64) - x
        gy = np.arange(y0, y1, dtype=np.float64) - y
        img[y0:y1, x0:x1] -= a * np.exp(
            -(gy[:, None] ** 2 + gx[None, :] ** 2) / (2 * s * s)
        )
    return GrayImage(np.clip(img, 0.0, 1.0, out=img))


# ---------------------------------------------------------------------------
# 8-bit binary PGM (P5) I/O

def write_pgm(img: GrayImage, path) -> None:
    """Write an 8-bit binary PGM (P5) file, each pixel round(255 * intensity).

    uint8 samples are written as they are.  float64 rows are scaled and
    rounded `ROW_BLOCK` at a time into the uint8 array, so no float64 copy of
    the image is held.
    """
    data = img.pixels
    if data.dtype != np.uint8:
        data = np.empty(data.shape, dtype=np.uint8)
        for r in range(0, img.height, ROW_BLOCK):
            data[r:r + ROW_BLOCK] = np.round(img.pixels[r:r + ROW_BLOCK] * 255.0)
    with Path(path).open("wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(data))


def read_pgm(path) -> GrayImage:
    """Read an 8-bit binary PGM (P5) file as its uint8 samples.

    The pixels are a read-only view of the bytes read; sample s means
    intensity s / 255.
    """
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
