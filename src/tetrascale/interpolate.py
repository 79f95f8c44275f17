"""Image resizing for the seven supported algorithms.

Tags: TN (nearest), TB (bilinear/tetragon), TC (bicubic), and the four
normalized geometric schemes MD, HR, AT, AC. AT and AC additionally take an
intensity domain: ``raw`` feeds corner values in [0, 255] into the weight
geometry, ``unit`` divides them by 255 first.

One table, ``_WEIGHTS``, maps every tag to how its 2x2 corner weights are
computed (``None`` for TN and TC, which have their own paths); ``SCHEMES`` is
its key order. ``resize`` is the one entry point: it checks the ratio, the
tag and the intensity domain, then takes the nearest, bicubic or weighted
path.

Coordinate convention is pixel-centered: src = (dst + 0.5) / scale - 0.5.
Boundaries replicate the edge pixel. Each output pixel is quantized once,
rounding half away from zero and clamping to [0, 255].

Sampling is per axis: ``_axis_taps`` gives the clamped source index at each
offset from floor(src), offsets (0, 1) for the 2x2 schemes and -1..2 for TC,
and the fraction src - floor(src). The 2x2 path takes its corner columns from
the uint8 source, then their rows, and only then converts to float64; TC
multiplies float64 coefficients by uint8 samples, which promotes exactly. So
no float64 copy of the source is made. The quantizer and TN round with
floor(x + 0.5) under the clamp: for x >= 0 that is round-half-away, and for
x < 0 both give a value <= 0, which the clamp sends to 0.

The per-pixel helpers (map_dst_to_src, gather_neighborhood,
interpolate_pixel) define the semantics one pixel at a time; ``resize``
evaluates the same formulas over whole grids with numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .image import GrayImage, get_clamped
from . import weights as _w

#: Tag -> ``f(dx, dy, corners, intensity_domain)`` giving the four 2x2
#: weights, or None for the schemes with their own path (TN, TC). Entries
#: look the ``weights`` functions up when called, not at import, so a
#: replaced module attribute is the one that runs.
_WEIGHTS = {
    "TN": None,
    "TB": lambda dx, dy, p, d: _w.tetragon_weights(dx, dy),
    "TC": None,
    "MD": lambda dx, dy, p, d: _w.md_weights(dx, dy),
    "HR": lambda dx, dy, p, d: _w.hr_weights(dx, dy),
    "AT": lambda dx, dy, p, d: _w.at_weights(dx, dy, domain_values(p, d)),
    "AC": lambda dx, dy, p, d: _w.ac_weights(dx, dy, domain_values(p, d)),
}

#: All algorithm tags, in benchmark presentation order.
SCHEMES = tuple(_WEIGHTS)

INTENSITY_DOMAINS = ("raw", "unit")


class Neighborhood(NamedTuple):
    """Four corner samples (P1..P4) and the fractional offset inside them."""

    values: tuple
    dx: float
    dy: float


def map_dst_to_src(dst_index, scale):
    """Continuous source coordinate of a destination pixel center."""
    return (dst_index + 0.5) / scale - 0.5


def gather_neighborhood(image: GrayImage, src_x: float, src_y: float) -> Neighborhood:
    """Fetch the 2x2 neighborhood around a continuous source coordinate.

    The anchor is floor(src); corners outside the image clamp to the edge,
    so the fractional offsets always land in [0, 1).
    """
    x1 = math.floor(src_x)
    y1 = math.floor(src_y)
    values = (
        get_clamped(image, x1, y1),
        get_clamped(image, x1 + 1, y1),
        get_clamped(image, x1, y1 + 1),
        get_clamped(image, x1 + 1, y1 + 1),
    )
    return Neighborhood(values, src_x - x1, src_y - y1)


def round_half_away(x):
    """Round to nearest integer, halves away from zero. Works elementwise."""
    return np.where(np.asarray(x) >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


def interpolate_pixel(neighborhood: Neighborhood, weight_vector) -> int:
    """Weighted sum of the four corner samples, quantized to [0, 255]."""
    v1, v2, v3, v4 = neighborhood.values
    w1, w2, w3, w4 = weight_vector
    acc = w1 * v1 + w2 * v2 + w3 * v3 + w4 * v4
    return int(min(max(round_half_away(acc), 0.0), 255.0))


def domain_values(values, intensity_domain: str):
    """Corner intensities in the requested domain: raw [0,255] as given, or
    unit [0,1]."""
    if intensity_domain == "raw":
        return tuple(values)
    if intensity_domain == "unit":
        return tuple(v / 255.0 for v in values)
    raise ValueError(f"unknown intensity domain {intensity_domain!r}")


def _output_length(n: int, ratio: float) -> int:
    return max(1, int(math.floor(n * ratio + 0.5)))


def _axis_taps(n_in: int, ratio: float, offsets):
    """Source taps for one output axis of length ``_output_length(n_in, ratio)``.

    Returns the source index at each offset from floor(src), clamped to
    [0, n_in - 1], and the fraction src - floor(src).
    """
    n_out = _output_length(n_in, ratio)
    src = map_dst_to_src(np.arange(n_out, dtype=np.float64), ratio)
    anchor = np.floor(src).astype(np.int64)
    return [np.clip(anchor + k, 0, n_in - 1) for k in offsets], src - anchor


def _weighted_field(
    image: GrayImage, ratio: float, scheme: str, intensity_domain: str = "raw"
) -> np.ndarray:
    """Pre-quantization float output of a 2x2 weighted-sum resize."""
    (xl, xr), dxs = _axis_taps(image.width, ratio, (0, 1))
    (yt, yb), dys = _axis_taps(image.height, ratio, (0, 1))
    left, right = (np.take(image.pixels, x, axis=1) for x in (xl, xr))
    p1, p2, p3, p4 = (
        np.take(columns, rows, axis=0).astype(np.float64)
        for rows, columns in ((yt, left), (yt, right), (yb, left), (yb, right))
    )

    weights = _WEIGHTS[scheme]
    w1, w2, w3, w4 = weights(
        dxs[None, :], dys[:, None], (p1, p2, p3, p4), intensity_domain
    )
    return w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4


def _quantize(field: np.ndarray) -> GrayImage:
    return GrayImage(np.clip(np.floor(field + 0.5), 0, 255).astype(np.uint8))


def _nearest(image: GrayImage, ratio: float) -> GrayImage:
    """Nearest-neighbor resize: source index floor(src + 0.5), clamped.

    Not built on ``_axis_taps``: anchor + (frac >= 0.5) can differ from
    floor(src + 0.5) in the last ulp.
    """
    h, w = image.height, image.width
    sx = map_dst_to_src(np.arange(_output_length(w, ratio), dtype=np.float64), ratio)
    sy = map_dst_to_src(np.arange(_output_length(h, ratio), dtype=np.float64), ratio)
    ix = np.clip(np.floor(sx + 0.5).astype(np.int64), 0, w - 1)
    iy = np.clip(np.floor(sy + 0.5).astype(np.int64), 0, h - 1)
    return GrayImage(image.pixels[iy[:, None], ix[None, :]])


#: Keys cubic-convolution coefficient ("traditional bicubic").
CUBIC_A = -0.5


def cubic_kernel(t):
    """Keys piecewise-cubic kernel with a = -0.5. Elementwise."""
    a = CUBIC_A
    at = np.abs(t)
    inner = (a + 2.0) * at**3 - (a + 3.0) * at**2 + 1.0
    outer = a * at**3 - 5.0 * a * at**2 + 8.0 * a * at - 4.0 * a
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


def _cubic_axis_pass(data: np.ndarray, ratio: float, axis: int):
    """Resample one axis with the 4-tap cubic kernel over clamped taps."""
    offsets = range(-1, 3)
    taps, frac = _axis_taps(data.shape[axis], ratio, offsets)
    acc = None
    for k, idx in zip(offsets, taps):
        coeff = np.expand_dims(cubic_kernel(frac - k), 1 - axis)
        term = coeff * np.take(data, idx, axis=axis)
        acc = term if acc is None else acc + term
    return acc


def _bicubic_field(image: GrayImage, ratio: float) -> np.ndarray:
    """Pre-quantization float output of the separable bicubic resize:
    horizontal pass first, then vertical."""
    tmp = _cubic_axis_pass(image.pixels, ratio, axis=1)
    return _cubic_axis_pass(tmp, ratio, axis=0)


def resize(
    image: GrayImage, ratio: float, scheme: str, intensity_domain: str = "raw"
) -> GrayImage:
    """Resize ``image`` by ``ratio`` with the named algorithm.

    ``intensity_domain`` must be one of ``INTENSITY_DOMAINS`` for every
    scheme, though only AT and AC read it. TC is the separable 4x4 Keys
    cubic convolution (a = -0.5).
    """
    if not (ratio > 0 and math.isfinite(ratio)):
        raise ValueError(f"ratio must be a positive finite number, got {ratio!r}")
    if scheme not in _WEIGHTS:
        raise ValueError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")
    if intensity_domain not in INTENSITY_DOMAINS:
        raise ValueError(f"unknown intensity domain {intensity_domain!r}")
    if scheme == "TN":
        return _nearest(image, ratio)
    if scheme == "TC":
        return _quantize(_bicubic_field(image, ratio))
    return _quantize(_weighted_field(image, ratio, scheme, intensity_domain))
