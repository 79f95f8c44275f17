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
overflow the integer cast. The 2x2 path gathers its four corner grids as
uint8, and both paths multiply float64 weights or coefficients by uint8
samples, which promotes them exactly; no float64 copy of the source or of a
corner grid is made.

``resize`` allocates the uint8 output once and fills it one band of output
rows at a time, each band about ``_BAND_PIXELS`` output pixels rounded to
whole rows. For a band the 2x2 path takes that band's y taps, slices out only
the source rows they reach, gathers the left and right columns and the four
corner grids from that slice, then weights, sums and quantizes into the
band's rows of the output; the column taps are the same for every band, so
``resize`` computes them once. Each band calls its scheme's ``weights``
function once, with dx as a row and dy as a column. For MD, HR and AT that
function evaluates the position-only factors once per distinct (dx, dy) of
the band and gathers them out to the band, except along an axis where more
than half the values are distinct (see ``weights``). The weighted sum then
runs in the four weight buffers, in the oracle's order
((w1*p1 + w2*p2) + w3*p3) + w4*p4: each weight is multiplied by its corner in
place and accumulated into the first.

TC runs its horizontal pass once per resize (an h_in x w_out float64 array)
and bands the vertical pass. TN is not banded: it gathers its columns, then
its rows, with one ``np.take`` each. Working memory beyond the output is
therefore a fixed amount per band, plus TC's horizontal pass. Every pixel's
arithmetic is the same whatever the band or the table, so neither changes an
output bit.

``tests/oracle.py`` defines the semantics one pixel at a time, in plain
Python; ``resize`` evaluates the same formulas over whole bands with numpy
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

#: Largest output ``resize`` produces, in pixels (8192 x 8192). With the
#: bands below it bounds the working memory too (README "Memory").
MAX_OUTPUT_PIXELS = 1 << 26

#: Output pixels per band, rounded to whole rows: about 32k pixels kept AC
#: fastest at 1024 and 2048 columns, and whole-image or 4-row bands were both
#: about 2x slower.
_BAND_PIXELS = 1 << 15


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


def _output_shape(image: GrayImage, ratio: float) -> tuple[int, int]:
    return _output_length(image.height, ratio), _output_length(image.width, ratio)


def _axis_taps(n_in: int, ratio: float, dst: range, offsets, shift: float = 0.0):
    """Source taps for the output indices ``dst`` of one axis.

    Returns the source index at each offset from the anchor
    floor(src + shift), clamped to [0, n_in - 1], and the fraction
    src - anchor.
    """
    src = map_dst_to_src(np.arange(dst.start, dst.stop, dtype=np.float64), ratio)
    anchor = np.floor(src + shift)
    taps = [np.clip(anchor + k, 0, n_in - 1).astype(np.int64) for k in offsets]
    return taps, src - anchor


def _weighted_field(
    image: GrayImage,
    ratio: float,
    scheme: str,
    intensity_domain: str = "raw",
    rows: slice = slice(None),
    x_taps=None,
) -> np.ndarray:
    """Pre-quantization float output rows ``rows`` of a 2x2 weighted-sum resize.

    Only the source rows that those output rows reach are gathered.
    ``x_taps`` is ``_axis_taps``'s result for every output column; ``resize``
    computes it once and passes it to every band, and it is computed here
    when not given.
    """
    if x_taps is None:
        w_out = _output_length(image.width, ratio)
        x_taps = _axis_taps(image.width, ratio, range(w_out), (0, 1))
    (xl, xr), dxs = x_taps
    h_out = _output_length(image.height, ratio)
    (yt, yb), dys = _axis_taps(image.height, ratio, range(h_out)[rows], (0, 1))
    # Taps grow with the output index, so yt[0] and yb[-1] bound the band.
    top = yt[0]
    source = image.pixels[top : yb[-1] + 1]
    left, right = (np.take(source, x, axis=1) for x in (xl, xr))
    p1, p2, p3, p4 = (
        np.take(columns, taps - top, axis=0)
        for taps, columns in ((yt, left), (yt, right), (yb, left), (yb, right))
    )

    w1, w2, w3, w4 = _WEIGHTS[scheme](
        dxs[None, :], dys[:, None], (p1, p2, p3, p4), intensity_domain
    )
    # ((w1*p1 + w2*p2) + w3*p3) + w4*p4, the oracle's order, in the weight
    # buffers: the weights functions return fresh band-shaped float64 arrays.
    acc = np.multiply(w1, p1, out=w1)
    for wk, pk in ((w2, p2), (w3, p3), (w4, p4)):
        acc += np.multiply(wk, pk, out=wk)
    return acc


def _nearest(image: GrayImage, ratio: float, shape: tuple[int, int]) -> GrayImage:
    """Nearest-neighbor resize to ``shape``: source index floor(src + 0.5), clamped."""
    (iy,), _ = _axis_taps(image.height, ratio, range(shape[0]), (0,), 0.5)
    (ix,), _ = _axis_taps(image.width, ratio, range(shape[1]), (0,), 0.5)
    columns = np.take(image.pixels, ix, axis=1)
    return GrayImage(np.take(columns, iy, axis=0))


#: Keys cubic-convolution coefficient ("traditional bicubic").
CUBIC_A = -0.5


def cubic_kernel(t):
    """Keys piecewise-cubic kernel with a = -0.5. Elementwise."""
    a = CUBIC_A
    at = np.abs(t)
    inner = (a + 2.0) * at**3 - (a + 3.0) * at**2 + 1.0
    outer = a * at**3 - 5.0 * a * at**2 + 8.0 * a * at - 4.0 * a
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


def _cubic_axis_pass(data: np.ndarray, ratio: float, axis: int, dst: range):
    """Resample one axis at the output indices ``dst`` with the 4-tap cubic
    kernel over clamped taps."""
    offsets = range(-1, 3)
    taps, frac = _axis_taps(data.shape[axis], ratio, dst, offsets)
    acc = None
    for k, idx in zip(offsets, taps):
        coeff = np.expand_dims(cubic_kernel(frac - k), 1 - axis)
        term = coeff * np.take(data, idx, axis=axis)
        acc = term if acc is None else acc + term
    return acc


def _bicubic_field(
    horizontal: np.ndarray, ratio: float, rows: slice = slice(None)
) -> np.ndarray:
    """Pre-quantization float output rows ``rows`` of the separable bicubic
    resize: the vertical pass over ``horizontal``, the h_in x w_out float64
    output of the horizontal pass."""
    h_out = _output_length(horizontal.shape[0], ratio)
    return _cubic_axis_pass(horizontal, ratio, 0, range(h_out)[rows])


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
    if ratio > MAX_OUTPUT_PIXELS or math.prod(
        shape := _output_shape(image, ratio)
    ) > MAX_OUTPUT_PIXELS:
        raise ValueError(
            f"output at ratio {ratio!r} would exceed {MAX_OUTPUT_PIXELS} pixels"
        )
    if scheme == "TN":
        return _nearest(image, ratio, shape)
    h_out, w_out = shape
    if scheme == "TC":
        horizontal = _cubic_axis_pass(image.pixels, ratio, 1, range(w_out))
        field = lambda rows: _bicubic_field(horizontal, ratio, rows)
    else:
        x_taps = _axis_taps(image.width, ratio, range(w_out), (0, 1))
        field = lambda rows: _weighted_field(
            image, ratio, scheme, intensity_domain, rows, x_taps
        )
    out = np.empty(shape, dtype=np.uint8)
    band = max(1, _BAND_PIXELS // w_out)
    for top in range(0, h_out, band):
        rows = slice(top, top + band)
        out[rows] = _quantize(field(rows)).pixels
    return GrayImage(out)
