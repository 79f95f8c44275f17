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
the rule in ``image``, rounding half away from zero and clamping to
[0, 255]. An output of more than ``MAX_OUTPUT_PIXELS`` pixels is refused
before anything is allocated.

Sampling is per axis for all seven schemes: ``_axis_taps`` maps each output
coordinate to src and gives the clamped source index at each offset from an
anchor, plus the fraction src - anchor. The anchor is floor(src) for the 2x2
schemes (offsets 0, 1) and TC (offsets -1..2), and floor(src + 0.5) for TN
(offset 0), which rounds as the quantizer does. Indices are clamped while
still floats, so a coordinate far past the edge (a tiny ratio) cannot
overflow the integer cast. The 2x2 path and TC's horizontal pass multiply
float64 weights or coefficients by uint8 samples, which promotes them
exactly; no float64 copy of the source or of a corner grid is made.

One band loop serves TB, TC, MD, HR, AT and AC. ``resize`` allocates the
uint8 output once and splits it into blocks of at most ``_BAND_PIXELS`` rows
and columns: one block unless a side of the output is longer than that. For
each block ``_plan`` does the position-only work once: the taps and
fractions of every row and column (TC: the cubic coefficients of both axes)
and, when all dx x the block's distinct dy hold at most ``_BAND_PIXELS``
pixels, one band's worth, the scheme's position-only arrays (TB's, MD's and
HR's weights, AT's half-hypotenuses) on that table, through the scheme's
own ``weights`` function; otherwise each band evaluates them on its own
rows. That is the one place position-only work is tabled: the ``weights``
functions are elementwise and evaluate exactly what they are given. A band
is ``_BAND_PIXELS`` output pixels rounded down to whole rows of its block,
at least one row, so a row wider than ``_BAND_PIXELS`` is cut into column
spans (the blocks) and no band grows with the output's shape.

Each band reads only the source rows its taps reach: the slice between its
first and last tap, or, when the taps number fewer than the rows of that
slice (a strong downscale), those rows alone, gathered in order with the
taps renumbered (``_band_source``). The 2x2 path (``_weighted_field``)
gathers the left and right columns from them, a grid of source rows x band
columns each, and the four uint8 corner grids from those. AT's and AC's
value-only terms are evaluated on the two column grids, before the corners
gather their rows of them: the unit-domain values v / 255, and AC's partial
area v*v + a*a (a = 1 - dx on the left, dx on the right). At an upscale by
r those grids have about 1/r of the band's rows, and with only the rows the
taps reach, never more than two per band row. The path takes its rows of
the table with one ``np.take`` per corner (or evaluates its own), gets the
four weights from them, the corners and the terms, and sums them in the
oracle's order ((w1*p1 + w2*p2) + w3*p3) + w4*p4 in the weight buffers. TC
(``_bicubic_field``) gathers its four column taps from the source rows and
lets the rows go before its horizontal pass, then runs its vertical pass,
each pass summing its four taps in tap order. Either field is a
fresh float64 array, rounded in place and cast straight into its block of
the output (``image.quantize_into``). TN is not banded: it gathers its
columns, then its rows, with one ``np.take`` each. Every pixel's arithmetic
is the same whatever the block, the band, the table or the grid a term is
evaluated on, so none of them changes an output bit.

``tests/oracle.py`` defines the semantics one pixel at a time, in plain
Python; ``resize`` evaluates the same formulas over whole bands with numpy
and must match it bit for bit.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .image import GrayImage, quantize_into as _quantize
from . import weights as _w


class _Weights(NamedTuple):
    """How a 2x2 scheme weights its corners.

    ``position(dx, dy)`` gives the scheme's position-only arrays, or is None
    when it has none (AC). ``values(dx, left, right, intensity_domain)``
    gives its value-only terms on the band's left and right uint8 column
    grids (the source rows it reads, at its x0 and x0 + 1 columns), one
    array for each, or None when it needs none beyond the corners.
    ``weights(dx, dy, g, corners, terms)`` gives a band's four weights from
    ``g``, the band's rows of the position-only arrays (None for AC), its
    uint8 corner grids, and ``terms``, each corner's value-only terms, an
    iterable read once in corner order (None when there are none).
    """

    position: Callable | None
    values: Callable
    weights: Callable


def _no_values(dx, left, right, d):
    """The value-only terms of a scheme that reads no intensity: none."""
    return None


def _position_only(dx, dy, g, p, t):
    """The weights of a scheme whose position-only arrays are its weights."""
    return g


def _positional(weights):
    """The table entry of a scheme whose weights depend on position alone."""
    return _Weights(weights, _no_values, _position_only)


#: Tag -> ``_Weights``, or None for the schemes with their own path (TN,
#: TC). Entries look the ``weights`` functions up when called, not at
#: import, so a replaced module attribute is the one that runs.
_WEIGHTS = {
    "TN": None,
    "TB": _positional(lambda dx, dy: _w.tetragon_weights(dx, dy)),
    "TC": None,
    "MD": _positional(lambda dx, dy: _w.md_weights(dx, dy)),
    "HR": _positional(lambda dx, dy: _w.hr_weights(dx, dy)),
    "AT": _Weights(
        lambda dx, dy: _w.at_half_hypotenuses(dx, dy),
        # Raw values are the uint8 corners themselves.
        lambda dx, l, r, d: None if d == "raw" else domain_values((l, r), d),
        lambda dx, dy, g, p, t: _w.at_weights(dx, dy, p if t is None else t, g),
    ),
    "AC": _Weights(
        None,
        lambda dx, l, r, d: _w.ac_partial_areas(dx, *domain_values((l, r), d)),
        # The partial areas are gathered before the call, so their column
        # grids are freed before the areas are normalized.
        lambda dx, dy, g, p, t: _w.ac_weights(dx, dy, p, tuple(t)),
    ),
}

#: All algorithm tags, in benchmark presentation order.
SCHEMES = tuple(_WEIGHTS)

INTENSITY_DOMAINS = ("raw", "unit")

#: Largest output ``resize`` produces, in pixels (8192 x 8192). With the
#: bands below it bounds the working memory too (README "Memory").
MAX_OUTPUT_PIXELS = 1 << 26

#: Output pixels per band, rounded to whole rows: about 32k pixels kept AC
#: fastest at 1024 and 2048 columns, and whole-image or 4-row bands were both
#: about 2x slower. Also the longest side of a block, and the most pixels a
#: block's position table may hold.
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


def _spans(n: int, size: int) -> list[range]:
    """Consecutive ranges of at most ``size`` indices that cover range(n)."""
    return [range(start, min(start + size, n)) for start in range(0, n, size)]


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


#: TC's tap offsets from floor(src), in summation order.
_CUBIC_OFFSETS = range(-1, 3)


class _Plan(NamedTuple):
    """The position-only work of one block of the output, read by each band.

    ``x_taps`` and ``y_taps`` hold the source column of each block column
    and the source row of each block row, one array per tap offset. For the
    2x2 schemes ``x_factors`` is dx as a row and ``y_factors`` dy as a
    column; for TC they are the four cubic coefficient rows and columns.
    ``table`` is None, or (inverse, arrays): the scheme's position-only
    arrays on all dx x the distinct dy, and each block row's index into
    them.
    """

    pixels: np.ndarray
    scheme: str
    intensity_domain: str
    x_taps: list
    x_factors: np.ndarray | list
    y_taps: list
    y_factors: np.ndarray | list
    table: tuple | None


def _plan(
    image: GrayImage,
    ratio: float,
    scheme: str,
    intensity_domain: str,
    rows: range,
    cols: range,
) -> _Plan:
    """Position-only work for output rows ``rows`` x columns ``cols``."""
    if scheme == "TC":
        x_taps, fx = _axis_taps(image.width, ratio, cols, _CUBIC_OFFSETS)
        y_taps, fy = _axis_taps(image.height, ratio, rows, _CUBIC_OFFSETS)
        return _Plan(
            image.pixels, scheme, intensity_domain,
            x_taps, [cubic_kernel(fx - k)[None, :] for k in _CUBIC_OFFSETS],
            y_taps, [cubic_kernel(fy - k)[:, None] for k in _CUBIC_OFFSETS],
            None,
        )
    x_taps, dx = _axis_taps(image.width, ratio, cols, (0, 1))
    y_taps, dy = _axis_taps(image.height, ratio, rows, (0, 1))
    table = None
    position = _WEIGHTS[scheme].position
    if position is not None:
        ys, inverse = np.unique(dy, return_inverse=True)
        if ys.size * len(cols) <= _BAND_PIXELS:
            table = inverse, position(dx[None, :], ys[:, None])
    return _Plan(
        image.pixels, scheme, intensity_domain,
        x_taps, dx[None, :], y_taps, dy[:, None], table,
    )


def _band_source(pixels: np.ndarray, y_taps, band: slice):
    """The band's row taps, as indices into the source rows it reads, and
    those rows.

    Taps grow with the output index and the offset, so the first and last
    taps bound the band: its source is that slice of ``pixels``. When the
    taps number fewer than the rows they span (a strong downscale), only
    the rows they reach are gathered, in order, and the taps are
    renumbered to match.
    """
    taps = [t[band] for t in y_taps]
    top, bottom = taps[0][0], taps[-1][-1] + 1
    taps = [t - top for t in taps]
    if sum(t.size for t in taps) >= bottom - top:
        return taps, pixels[top:bottom]
    reached = np.zeros(bottom - top, dtype=bool)
    for t in taps:
        reached[t] = True
    # Each reached row's position among the reached rows, in order.
    position = np.cumsum(reached) - 1
    return [position[t] for t in taps], np.compress(reached, pixels[top:bottom], axis=0)


def _corner_rows(left, right, yt, yb):
    """Each corner's rows, P1..P4, of a left and a right column grid, one
    corner at a time."""
    for taps, columns in ((yt, left), (yt, right), (yb, left), (yb, right)):
        yield np.take(columns, taps, axis=0)


def _weighted_field(plan: _Plan, band: slice) -> np.ndarray:
    """Pre-quantization float output of the block rows ``band`` of a 2x2
    weighted-sum resize, in a fresh float64 array."""
    (yt, yb), source = _band_source(plan.pixels, plan.y_taps, band)
    left, right = (np.take(source, x, axis=1) for x in plan.x_taps)
    # At a strong downscale the source is a copy, wider than the band.
    del source
    corners = tuple(_corner_rows(left, right, yt, yb))
    dx, dy = plan.x_factors, plan.y_factors[band]
    scheme = _WEIGHTS[plan.scheme]
    if plan.table is not None:
        inverse, arrays = plan.table
        g = tuple(np.take(a, inverse[band], axis=0) for a in arrays)
    elif scheme.position is not None:
        g = scheme.position(dx, dy)
    else:
        g = None
    # Value-only terms on the two column grids, one row per source row the
    # band reads; each corner gathers its rows of them as it is weighted.
    terms = scheme.values(dx, left, right, plan.intensity_domain)
    if terms is not None:
        terms = _corner_rows(*terms, yt, yb)
    w1, w2, w3, w4 = scheme.weights(dx, dy, g, corners, terms)
    # ((w1*p1 + w2*p2) + w3*p3) + w4*p4, the oracle's order, in the weight
    # buffers: each is a fresh band-shaped float64 array.
    p1, p2, p3, p4 = corners
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


def _cubic_sum(terms, coefficients) -> np.ndarray:
    """One cubic pass: the samples of each of the four taps, ``terms``
    (an iterable read once in tap order), times its coefficient, summed in
    tap order."""
    acc = None
    for term, coefficient in zip(terms, coefficients):
        # A float64 tap is multiplied in place; a uint8 one is promoted.
        term = np.multiply(term, coefficient, out=term if term.dtype == np.float64 else None)
        if acc is None:
            acc = term
        else:
            acc += term
    return acc


def _bicubic_field(plan: _Plan, band: slice) -> np.ndarray:
    """Pre-quantization float output of the block rows ``band`` of the
    separable bicubic resize, in a fresh float64 array: the horizontal pass
    over the source rows the band's vertical taps reach, then the vertical
    pass."""
    taps, source = _band_source(plan.pixels, plan.y_taps, band)
    columns = [np.take(source, x, axis=1) for x in plan.x_taps]
    # At a strong downscale the source is a copy, wider than the band.
    del source
    horizontal = _cubic_sum(columns, plan.x_factors)
    del columns
    rows = (np.take(horizontal, t, axis=0) for t in taps)
    return _cubic_sum(rows, [c[band] for c in plan.y_factors])


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
    out = np.empty(shape, dtype=np.uint8)
    blocks = itertools.product(_spans(h_out, _BAND_PIXELS), _spans(w_out, _BAND_PIXELS))
    for rows, cols in blocks:
        plan = _plan(image, ratio, scheme, intensity_domain, rows, cols)
        for band in _spans(len(rows), max(1, _BAND_PIXELS // len(cols))):
            top = rows.start + band.start
            # The field is rounded in its own buffer and cast into the output;
            # it is not bound to a name, so it is freed before the next
            # band's is built.
            _quantize(
                (_bicubic_field if scheme == "TC" else _weighted_field)(
                    plan, slice(band.start, band.stop)
                ),
                out[top : top + len(band), cols.start : cols.stop],
            )
    return GrayImage(out)
