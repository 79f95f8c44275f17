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


def _axis_grid(n_in: int, n_out: int, ratio: float):
    """Anchor indices and fractional offsets for one axis."""
    src = map_dst_to_src(np.arange(n_out, dtype=np.float64), ratio)
    anchor = np.floor(src).astype(np.int64)
    frac = src - anchor
    lo = np.clip(anchor, 0, n_in - 1)
    hi = np.clip(anchor + 1, 0, n_in - 1)
    return lo, hi, frac


def _weighted_field(
    image: GrayImage, ratio: float, scheme: str, intensity_domain: str = "raw"
) -> np.ndarray:
    """Pre-quantization float output of a 2x2 weighted-sum resize."""
    h, w = image.height, image.width
    out_w = _output_length(w, ratio)
    out_h = _output_length(h, ratio)
    xl, xr, dxs = _axis_grid(w, out_w, ratio)
    yt, yb, dys = _axis_grid(h, out_h, ratio)

    px = image.pixels.astype(np.float64)
    p1 = px[yt[:, None], xl[None, :]]
    p2 = px[yt[:, None], xr[None, :]]
    p3 = px[yb[:, None], xl[None, :]]
    p4 = px[yb[:, None], xr[None, :]]

    weights = _WEIGHTS[scheme]
    w1, w2, w3, w4 = weights(
        dxs[None, :], dys[:, None], (p1, p2, p3, p4), intensity_domain
    )
    return w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4


def _quantize(field: np.ndarray) -> GrayImage:
    return GrayImage(np.clip(round_half_away(field), 0, 255).astype(np.uint8))


def _nearest(image: GrayImage, ratio: float) -> GrayImage:
    """Nearest-neighbor resize (source index rounds half away from zero)."""
    h, w = image.height, image.width
    out_w = _output_length(w, ratio)
    out_h = _output_length(h, ratio)
    sx = map_dst_to_src(np.arange(out_w, dtype=np.float64), ratio)
    sy = map_dst_to_src(np.arange(out_h, dtype=np.float64), ratio)
    ix = np.clip(round_half_away(sx).astype(np.int64), 0, w - 1)
    iy = np.clip(round_half_away(sy).astype(np.int64), 0, h - 1)
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


def _cubic_axis_pass(data: np.ndarray, n_in: int, n_out: int, ratio: float, axis: int):
    """Resample one axis with the 4-tap cubic kernel over clamped taps."""
    src = map_dst_to_src(np.arange(n_out, dtype=np.float64), ratio)
    anchor = np.floor(src).astype(np.int64)
    frac = src - anchor
    acc = None
    for k in range(-1, 3):
        idx = np.clip(anchor + k, 0, n_in - 1)
        coeff = cubic_kernel(frac - k)
        taken = np.take(data, idx, axis=axis)
        if axis == 0:
            term = coeff[:, None] * taken
        else:
            term = coeff[None, :] * taken
        acc = term if acc is None else acc + term
    return acc


def _bicubic_field(image: GrayImage, ratio: float) -> np.ndarray:
    """Pre-quantization float output of the separable bicubic resize."""
    h, w = image.height, image.width
    out_w = _output_length(w, ratio)
    out_h = _output_length(h, ratio)
    px = image.pixels.astype(np.float64)
    tmp = _cubic_axis_pass(px, w, out_w, ratio, axis=1)
    return _cubic_axis_pass(tmp, h, out_h, ratio, axis=0)


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
