"""Image resizing for the seven supported algorithms.

Tags: TN (nearest), TB (bilinear/tetragon), TC (bicubic), and the four
normalized geometric schemes MD, HR, AT, AC. AT and AC additionally take an
intensity domain: ``raw`` feeds corner values in [0, 255] into the weight
geometry, ``unit`` divides them by 255 first. ``_WEIGHTS`` maps every tag to
how its 2x2 corner weights are computed (``None`` for TN and TC, which have
their own paths); ``SCHEMES`` is its key order. An entry is plain data: a
step the scheme does not take is None, so TB's, MD's and HR's entries hold
only their position-only arrays, which are their weights. ``resize`` is the
one entry point.

Coordinates are pixel-centered: src = (dst + 0.5) / scale - 0.5. Boundaries
replicate the edge pixel. Each output pixel is quantized once by the rule in
``image``, rounding half away from zero and clamping to [0, 255]. An output
of more than ``MAX_OUTPUT_PIXELS`` pixels is refused before anything is
allocated.

``_axis_taps`` samples each axis: the clamped source index at each offset
from an anchor, and the fraction src - anchor. TN gathers its columns, then
its rows. Every other scheme runs one band loop: ``_bands.rows`` cuts the
output into blocks of at most ``_BAND_PIXELS`` rows and columns, and each
block into bands of at most ``_BAND_PIXELS`` pixels, rounded down to whole
rows but at least one row, so no band grows with the output. The blocks
differ in size by at most one row or column, and a block's bands by at
most one row.
``_plan`` does a block's position-only work once: the taps and fractions
(TC: the cubic coefficients) and, when all dx x the distinct dy fit in one
band, a table of the scheme's position-only arrays (TB's, MD's and HR's
weights, AT's half-hypotenuses); otherwise each band evaluates them itself.

A block's bands run on at most ``_bands._THREADS`` (2) threads, by the rule
that SSIM scoring uses too (``_bands.run``). Each band reads the block's
plan, which no band changes, and writes only its own rows of the output. A
band computes its table rows, corners, weights and sums in its chunk's
buffers (``_band_buffers``), which the calling thread allocates for the
block's largest band, as ``_bands.run`` sizes them; what a band evaluates
itself is in smaller, fresh arrays. ``resize`` hands the finished output
to ``GrayImage`` read-only and without a copy (``image._adopt``).

A band reads only the source rows its taps reach, and one function,
``_band_source``, gathers its column grids from them: the left and right
columns of the 2x2 schemes, TC's four. The 2x2 path (``_weighted_field``)
evaluates AT's and AC's value-only terms on those grids once per source
row, then gathers each corner's rows of the terms and its uint8 grid, one
corner at a time. TC (``_bicubic_field``) runs its horizontal pass, then
its vertical pass. One function, ``_ordered_sum``, adds every field's terms
in the oracle's order: ((w1*p1 + w2*p2) + w3*p3) + w4*p4 in the weight
buffers, and each cubic pass's four taps in tap order. Each field is
rounded straight into its rows of the output.

Every pixel's arithmetic is the same whatever the block, the band, the
thread, the table or the grid a term is evaluated on. ``tests/oracle.py``
restates the formulas one pixel at a time in plain Python, and ``resize``
must match it bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import _bands
from .image import GrayImage, _adopt, quantize_into as _quantize
from . import weights as _w


class _Weights(NamedTuple):
    """How a 2x2 scheme weights its corners.

    ``position(dx, dy)`` gives the scheme's position-only arrays, or is None
    when it has none (AC). ``values(dx, left, right, intensity_domain)``
    gives its value-only terms on the band's left and right uint8 column
    grids (the source rows it reads, at its x0 and x0 + 1 columns), one
    array for each, or None when it needs none beyond the corners; the
    field is None for a scheme that reads no intensity (TB, MD, HR).
    ``weights(dx, dy, g, corners, terms)`` gives a band's four weights from
    ``g``, the band's rows of the position-only arrays (None for AC),
    ``corners``, its uint8 corner grids, and ``terms``, each corner's
    value-only terms (None when there are none); ``corners`` and ``terms``
    are iterables read at most once, in corner order. The field is None
    when the position-only arrays are the weights (TB, MD, HR).
    """

    position: Callable | None
    values: Callable | None = None
    weights: Callable | None = None


#: Tag -> ``_Weights``, or None for the schemes with their own path (TN,
#: TC). Entries look the ``weights`` functions up when called, not at
#: import, so a replaced module attribute is the one that runs.
_WEIGHTS = {
    "TN": None,
    "TB": _Weights(lambda dx, dy: _w.tetragon_weights(dx, dy)),
    "TC": None,
    "MD": _Weights(lambda dx, dy: _w.md_weights(dx, dy)),
    "HR": _Weights(lambda dx, dy: _w.hr_weights(dx, dy)),
    "AT": _Weights(
        lambda dx, dy: _w.at_half_hypotenuses(dx, dy),
        # Raw values are the uint8 corners themselves.
        lambda dx, l, r, d: None if d == "raw" else domain_values((l, r), d),
        lambda dx, dy, g, p, t: _w.at_weights(dx, dy, p if t is None else t, g),
    ),
    "AC": _Weights(
        None,
        lambda dx, l, r, d: _w.ac_partial_areas(dx, *domain_values((l, r), d)),
        lambda dx, dy, g, p, t: _w.ac_weights(dx, dy, t),
    ),
}

#: All algorithm tags, in benchmark presentation order.
SCHEMES = tuple(_WEIGHTS)

INTENSITY_DOMAINS = ("raw", "unit")

#: Largest output ``resize`` produces, in pixels (8192 x 8192). With the
#: bands below it bounds the working memory too (README "Memory").
MAX_OUTPUT_PIXELS = 1 << 26

#: Output pixels per band, rounded to whole rows. Whole-image or 4-row bands
#: were both about 2x slower than bands of 2^15. At 2^15 each numpy call of a
#: band lasts only 10-30 us, so two threads saved nothing, and at 2^14 two
#: threads took twice as long as one (2-core VM); 2^16 lets them save
#: 16-32%, and costs one thread 1-2%. Also the longest side of a block, and
#: the most pixels a block's position table may hold.
_BAND_PIXELS = 1 << 16


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


def _band_source(pixels: np.ndarray, y_taps, x_taps, band: slice):
    """The band's row taps, as indices into the source rows it reads, and
    its column grids: those rows at each x tap, one uint8 grid per tap.

    This is the one place a band's source is gathered. Taps grow with the
    output index and the offset, so the first and last row taps bound the
    band: its rows are that slice of ``pixels``. When the taps number fewer
    than the rows they span (a strong downscale), only the rows they reach
    are compressed out, in order, and the taps are renumbered to match.
    """
    taps = [t[band] for t in y_taps]
    top, bottom = taps[0][0], taps[-1][-1] + 1
    taps = [t - top for t in taps]
    rows = pixels[top:bottom]
    if sum(t.size for t in taps) < bottom - top:
        reached = np.zeros(bottom - top, dtype=bool)
        for t in taps:
            reached[t] = True
        # Each reached row's position among the reached rows, in order.
        position = np.cumsum(reached) - 1
        taps, rows = [position[t] for t in taps], np.compress(reached, rows, axis=0)
    return taps, [np.take(rows, x, axis=1) for x in x_taps]


def _take_rows(array, taps, out):
    """The rows ``taps`` of ``array``, into ``out``, or a fresh array when
    that is None.

    The taps are always in range, so 'clip' mode changes no value; unlike
    the default mode, it writes straight into ``out`` instead of through a
    buffer of its own.
    """
    return np.take(array, taps, axis=0, out=out, mode="clip")


def _corner_rows(left, right, yt, yb, out):
    """Each corner's rows, P1..P4, of a left and a right column grid, one
    corner at a time, each into its array of ``out``, or a fresh one where
    that is None."""
    rows = ((yt, left), (yt, right), (yb, left), (yb, right))
    for (taps, columns), o in zip(rows, out):
        yield _take_rows(columns, taps, o)


def _ordered_sum(terms, factors) -> np.ndarray:
    """The sum of each term times its factor, added in order: one cubic
    pass's four taps times their coefficients, or a 2x2 field's four
    weights times their corners. ``terms`` and ``factors`` are iterables
    read once, a term before its factor. Every field's terms are summed
    here. A float64 term is multiplied in place and the sum kept in the
    first; a uint8 one is promoted into a fresh array."""
    acc = None
    for term, factor in zip(terms, factors):
        term = np.multiply(term, factor, out=term if term.dtype == np.float64 else None)
        if acc is None:
            acc = term
        else:
            acc += term
    return acc


def _weighted_field(plan: _Plan, band: slice, floats, corner) -> np.ndarray:
    """Pre-quantization float output of the block rows ``band`` of a 2x2
    weighted-sum resize.

    ``floats`` are float64 arrays and ``corner`` a uint8 array of the
    band's shape (``_band_buffers``). The table's rows, or else AC's
    partial areas, are gathered into ``floats``, and the weights evaluated
    and summed in place there, so the field returned is then ``floats[0]``;
    TB, MD and HR, with two arrays, gather each later weight into
    ``floats[1]`` as the sum reaches it. ``corner`` holds one corner's grid
    at a time. What a band evaluates itself (its position-only arrays when
    there is no table, AT's unit values, the normalizing sums) is in fresh
    arrays.
    """
    (yt, yb), (left, right) = _band_source(plan.pixels, plan.y_taps, plan.x_taps, band)

    def corners():
        """Each corner's grid in turn, P1..P4, in ``corner``."""
        return _corner_rows(left, right, yt, yb, (corner,) * 4)

    dx, dy = plan.x_factors, plan.y_factors[band]
    scheme = _WEIGHTS[plan.scheme]
    if plan.table is not None:
        inverse, arrays = plan.table
        if scheme.weights is None:
            # The rows are the weights, so each is gathered only as it is
            # summed: the first into floats[0], each later one into floats[1].
            outs = (floats[0], *[floats[1]] * 3)
            g = (_take_rows(a, inverse[band], o) for a, o in zip(arrays, outs))
        else:
            g = tuple(_take_rows(a, inverse[band], o) for a, o in zip(arrays, floats))
    elif scheme.position is not None:
        g = scheme.position(dx, dy)
    else:
        g = None
    # Value-only terms on the two column grids, one row per source row the
    # band reads; each corner gathers its rows of them as it is weighted.
    # AC's partial areas, which become its weights, are gathered into
    # ``floats``, which it has no position-only arrays to fill.
    terms = None if scheme.values is None else scheme.values(dx, left, right, plan.intensity_domain)
    if terms is not None:
        terms = _corner_rows(*terms, yt, yb, floats if scheme.position is None else (None,) * 4)
    weights = g if scheme.weights is None else scheme.weights(dx, dy, g, corners(), terms)
    # ((w1*p1 + w2*p2) + w3*p3) + w4*p4, the oracle's order, in the weight
    # arrays.
    return _ordered_sum(weights, corners())


def _nearest(image: GrayImage, ratio: float, shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize to ``shape``: source index floor(src + 0.5), clamped."""
    (iy,), _ = _axis_taps(image.height, ratio, range(shape[0]), (0,), 0.5)
    (ix,), _ = _axis_taps(image.width, ratio, range(shape[1]), (0,), 0.5)
    columns = np.take(image.pixels, ix, axis=1)
    return np.take(columns, iy, axis=0)


#: Keys cubic-convolution coefficient ("traditional bicubic").
CUBIC_A = -0.5


def cubic_kernel(t):
    """Keys piecewise-cubic kernel with a = -0.5. Elementwise."""
    a = CUBIC_A
    at = np.abs(t)
    inner = (a + 2.0) * at**3 - (a + 3.0) * at**2 + 1.0
    outer = a * at**3 - 5.0 * a * at**2 + 8.0 * a * at - 4.0 * a
    return np.where(at <= 1.0, inner, np.where(at < 2.0, outer, 0.0))


def _bicubic_field(plan: _Plan, band: slice, floats) -> np.ndarray:
    """Pre-quantization float output of the block rows ``band`` of the
    separable bicubic resize: the horizontal pass over the source rows the
    band's vertical taps reach, then the vertical pass. ``floats`` are two
    float64 arrays of the band's shape: the vertical pass sums its first
    tap in place in ``floats[0]``, which is the field returned, and gathers
    each later tap into ``floats[1]`` once the one before it is added."""
    taps, columns = _band_source(plan.pixels, plan.y_taps, plan.x_taps, band)
    horizontal = _ordered_sum(columns, plan.x_factors)
    del columns
    first, later = floats
    rows = (_take_rows(horizontal, t, o) for t, o in zip(taps, (first, later, later, later)))
    return _ordered_sum(rows, [c[band] for c in plan.y_factors])


def _band_buffers(plan: _Plan, rows: int) -> tuple:
    """The arrays that the bands of ``plan``, of at most ``rows`` rows each,
    are computed in: two float64 ones for TC; for the 2x2 schemes one uint8
    one, and two float64 ones for TB, MD and HR, whose weights are their
    table rows (``_weighted_field``), four for AT and AC."""
    shape = (rows, len(plan.x_taps[0]))
    if plan.scheme == "TC":
        return (np.empty((2, *shape)),)
    floats = 2 if _WEIGHTS[plan.scheme].weights is None else 4
    return np.empty((floats, *shape)), np.empty(shape, dtype=np.uint8)


def _fill_bands(plan: _Plan, block: np.ndarray, bands, *buffers) -> None:
    """Round each band of ``bands``, ranges of block rows, into its rows of
    ``block``, the block of the output that ``plan`` covers, computing it
    in ``buffers`` (``_band_buffers``)."""
    field = _bicubic_field if plan.scheme == "TC" else _weighted_field
    for band in bands:
        arrays = (b[..., : len(band), :] for b in buffers)
        _quantize(field(plan, slice(band.start, band.stop), *arrays), block[band.start : band.stop])


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
        out = _nearest(image, ratio, shape)
    else:
        out = np.empty(shape, dtype=np.uint8)
        # Blocks of at most _BAND_PIXELS rows and columns, cut as bands are.
        spans = (_bands.rows(n, 1, _BAND_PIXELS, 1) for n in shape)
        for rows, cols in itertools.product(*spans):
            plan = _plan(image, ratio, scheme, intensity_domain, rows, cols)
            block = out[rows.start : rows.stop, cols.start : cols.stop]
            _bands.run(
                functools.partial(_fill_bands, plan, block),
                _bands.rows(len(rows), len(cols), _BAND_PIXELS, 1),
                functools.partial(_band_buffers, plan),
            )
    return _adopt(out)
