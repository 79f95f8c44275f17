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
Boundaries replicate the edge pixel. Each output pixel is quantized once by
``image.quantize``, rounding half away from zero and clamping to [0, 255].
An output of more than ``MAX_OUTPUT_PIXELS`` pixels is refused before
anything is allocated.

Sampling is per axis for all seven schemes: ``_axis_taps`` maps each output
coordinate to src and gives the clamped source index at each offset from an
anchor, plus the fraction src - anchor. The anchor is floor(src) for the 2x2
schemes (offsets 0, 1) and TC (offsets -1..2), and floor(src + 0.5) for TN
(offset 0), which rounds as the quantizer does. Indices are clamped while
still floats, so a coordinate far past the edge (a tiny ratio) cannot
overflow the integer cast. The 2x2 path takes its corner columns from the
uint8 source, then their rows, and only then converts to float64; TC
multiplies float64 coefficients by uint8 samples, which promotes exactly. So
no float64 copy of the source is made.

``tests/oracle.py`` defines the semantics one pixel at a time, in plain
Python; ``resize`` evaluates the same formulas over whole grids with numpy
and must match it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .image import GrayImage, quantize as _quantize
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

#: Largest output ``resize`` produces, in pixels (8192 x 8192).
MAX_OUTPUT_PIXELS = 1 << 26


def map_dst_to_src(dst_index, scale):
    """Continuous source coordinate of a destination pixel center."""
    return (dst_index + 0.5) / scale - 0.5


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


def _axis_taps(n_in: int, ratio: float, offsets, shift: float = 0.0):
    """Source taps for one output axis of length ``_output_length(n_in, ratio)``.

    Returns the source index at each offset from the anchor
    floor(src + shift), clamped to [0, n_in - 1], and the fraction
    src - anchor.
    """
    n_out = _output_length(n_in, ratio)
    src = map_dst_to_src(np.arange(n_out, dtype=np.float64), ratio)
    anchor = np.floor(src + shift)
    taps = [np.clip(anchor + k, 0, n_in - 1).astype(np.int64) for k in offsets]
    return taps, src - anchor


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


def _nearest(image: GrayImage, ratio: float) -> GrayImage:
    """Nearest-neighbor resize: source index floor(src + 0.5), clamped."""
    (ix,), _ = _axis_taps(image.width, ratio, (0,), 0.5)
    (iy,), _ = _axis_taps(image.height, ratio, (0,), 0.5)
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
    cubic convolution (a = -0.5). Raises ValueError, before allocating
    anything, if the output would exceed ``MAX_OUTPUT_PIXELS``.
    """
    if not (ratio > 0 and math.isfinite(ratio) and math.isfinite(1 / ratio)):
        raise ValueError(
            f"ratio must be positive, finite and have a finite reciprocal, got {ratio!r}"
        )
    if scheme not in _WEIGHTS:
        raise ValueError(f"unknown scheme {scheme!r} (expected one of {SCHEMES})")
    if intensity_domain not in INTENSITY_DOMAINS:
        raise ValueError(f"unknown intensity domain {intensity_domain!r}")
    # A ratio past the limit exceeds it on any input; testing that first keeps
    # n * ratio finite in _output_length.
    if ratio > MAX_OUTPUT_PIXELS or (
        _output_length(image.height, ratio) * _output_length(image.width, ratio)
        > MAX_OUTPUT_PIXELS
    ):
        raise ValueError(
            f"output at ratio {ratio!r} would exceed {MAX_OUTPUT_PIXELS} pixels"
        )
    if scheme == "TN":
        return _nearest(image, ratio)
    if scheme == "TC":
        return _quantize(_bicubic_field(image, ratio))
    return _quantize(_weighted_field(image, ratio, scheme, intensity_domain))
