"""Per-pixel weighting schemes for 2x2-neighborhood interpolation.

An interpolation point P splits its unit square of four source pixels into
four axis-aligned tetragons. Every scheme here derives one weight per corner
from the geometry of the tetragon diagonally opposite that corner, then
normalizes the four weights to sum to one:

* tetragon  - the tetragon area itself (classic bilinear; already sums to 1)
* md        - area of the circle whose diameter is the tetragon's shorter side
* hr        - area of the circle whose radius is the tetragon's hypotenuse
* at        - triangle area: hypotenuse base x corner-intensity height
* ac        - circle area with radius sqrt(intensity^2 + hypotenuse^2)

Corner order is fixed throughout: P1 top-left, P2 top-right, P3 bottom-left,
P4 bottom-right. ``dx``/``dy`` are the fractional offsets of P from the
top-left corner, both in [0, 1].

All functions take floats or broadcastable numpy arrays, uint8 intensities
too, and return four floats or float64 arrays: one call weights a whole grid.
No argument is written to, except precomputed half-hypotenuses given to
``at_areas`` or ``at_weights`` and precomputed partial areas given to
``ac_areas`` or ``ac_weights``, which those functions consume.

Position-only terms. TB, MD and HR weights, and AT's half-hypotenuse factor
``0.5 * sqrt(a*a + b*b)`` (``at_half_hypotenuses``), depend only on
(dx, dy). Every function here is elementwise and evaluates exactly the grid
it is given, so ``resize`` can table the position-only ones (see
``interpolate._plan``) without changing a bit, and passes AT's factor to
``at_weights``. AT's factor can be tabled exactly because its areas
evaluate as ``(0.5 * sqrt(...)) * v``; AC has no position-only prefix
(``v * v`` is added first).

Value-only terms. AC's area evaluates as ``((v*v + a*a) + b*b) * pi``, so
its prefix ``v*v + a*a`` (``ac_partial_areas``) depends only on the corner's
source pixel and its column. ``resize`` evaluates it, and the unit-domain
values of AT and AC, once per source row a band reads rather than once per
corner and output row, and passes each corner's rows of them in: AT's as
its ``values``, AC's as ``partial_areas``.

In-place arithmetic. Every band-sized step writes into an array that this
module's own code allocated in that call, or into given half-hypotenuses
or partial areas: each MD, HR and AC area is built in one buffer (AC's in
its partial area), AT multiplies its half-hypotenuses by the corner values
in place, and normalization sums the four areas into one buffer and divides
into the areas. Whether any sum is degenerate is read from its minimum;
only when one is (AT with four zero corners) is a mask built, the
degenerate sums set to 1 in the sum's buffer, and the tetragon weights then
written over those pixels alone, so the fallback allocates no band-sized
grid beyond the mask. Scalars, and arrays whose shape or dtype cannot hold
the result, take the ordinary out-of-place path, with the same values.
"""

from __future__ import annotations

import math

import numpy as np

#: Sums below this are treated as degenerate and trigger the fallback.
EPSILON = 1e-12

#: Circle area from its diameter: (pi/4) * d^2.
_QUARTER_PI = math.pi / 4.0


def corner_sides(dx, dy):
    """Side lengths (a, b) of the tetragon opposite each corner.

    Returns four pairs, ordered P1..P4. The product a*b of each pair is the
    corresponding bilinear weight.
    """
    return (
        (1.0 - dx, 1.0 - dy),
        (dx, 1.0 - dy),
        (1.0 - dx, dy),
        (dx, dy),
    )


def _in_place(ufunc, buf, *operands):
    """``ufunc(buf, *operands)``, written into ``buf`` when ``buf`` is a
    float64 array that holds the whole result; otherwise a new value.

    Callers pass only a ``buf`` that their own code allocated.
    """
    if (
        type(buf) is np.ndarray
        and buf.dtype == np.float64
        and all(_fits(buf, operand) for operand in operands)
    ):
        return ufunc(buf, *operands, out=buf)
    return ufunc(buf, *operands)


def _fits(buf, operand):
    """Whether ``operand`` broadcasts to ``buf``'s shape and promotes to its
    dtype. Checked by type first: the ``np`` calls cost microseconds."""
    if isinstance(operand, (int, float)):
        return True
    return (
        type(operand) is np.ndarray
        and np.promote_types(operand.dtype, buf.dtype) == buf.dtype
        and (
            operand.shape == buf.shape
            or np.broadcast(buf, operand).shape == buf.shape
        )
    )


def _normalized_or_tetragon(raw, dx, dy):
    """Normalize raw weights, falling back to tetragon weights where the
    sum is degenerate (e.g. all-zero intensities in AT).

    ``raw`` must be areas this module allocated: they are divided in place.
    """
    total = raw[0] + raw[1]
    total = _in_place(np.add, total, raw[2])
    total = _in_place(np.add, total, raw[3])
    if not np.min(total) < EPSILON:
        return tuple(_in_place(np.divide, w, total) for w in raw)
    if np.ndim(total) == 0:
        return tetragon_weights(dx, dy)
    bad = total < EPSILON
    # ``total`` is this function's own array: its degenerate sums become 1,
    # so nothing divides by zero and the valid pixels divide as above. The
    # quotients are fresh arrays of ``total``'s shape, and each corner's
    # tetragon weight a * b is written over the degenerate pixels alone.
    np.copyto(total, 1.0, where=bad)
    weights = tuple(_in_place(np.divide, w, total) for w in raw)
    for w, (a, b) in zip(weights, corner_sides(dx, dy)):
        np.multiply(a, b, out=w, where=bad)
    return weights


def tetragon_weights(dx, dy):
    """Bilinear weights: the four opposite-tetragon areas.

    The areas partition the unit square, so they already sum to one and no
    normalization is applied.
    """
    return tuple(a * b for a, b in corner_sides(dx, dy))


def md_areas(dx, dy):
    """Circle areas using each tetragon's minimum side as the diameter."""
    return tuple(
        _in_place(np.multiply, _in_place(np.square, np.minimum(a, b)), _QUARTER_PI)
        for a, b in corner_sides(dx, dy)
    )


def md_weights(dx, dy):
    """Normalized minimum-side-diameter circle weights."""
    return _normalized_or_tetragon(md_areas(dx, dy), dx, dy)


def hr_areas(dx, dy):
    """Circle areas using each tetragon's hypotenuse as the radius."""
    return tuple(
        _in_place(np.multiply, np.add(a * a, b * b), math.pi)
        for a, b in corner_sides(dx, dy)
    )


def hr_weights(dx, dy):
    """Normalized hypotenuse-radius circle weights.

    Note this scheme is not interpolating: at offset (0, 0) the coincident
    corner gets weight 0.5, not 1.
    """
    return _normalized_or_tetragon(hr_areas(dx, dy), dx, dy)


def at_half_hypotenuses(dx, dy):
    """AT's position-only factor, 0.5 * sqrt(a*a + b*b), per corner."""
    return tuple(
        _in_place(np.multiply, _in_place(np.sqrt, np.add(a * a, b * b)), 0.5)
        for a, b in corner_sides(dx, dy)
    )


def at_areas(dx, dy, values, half_hypotenuses=None):
    """Triangle areas: base = tetragon hypotenuse, height = corner intensity.

    ``values`` are the four corner intensities P1..P4 in the caller's
    intensity domain (raw [0,255] or unit [0,1]), or an iterator over them:
    each is read once, in corner order, so a caller can build one corner's
    values at a time. The half-hypotenuses (``at_half_hypotenuses(dx, dy)``)
    are multiplied by the values. A caller that already has them passes them
    as ``half_hypotenuses``; they are then multiplied in place, so it passes
    arrays it owns and does not read again.
    """
    if half_hypotenuses is None:
        half_hypotenuses = at_half_hypotenuses(dx, dy)
    # Each corner's values are drawn inside its multiply and freed with it;
    # zip's reused result tuple would hold them while the next are built.
    values = iter(values)
    areas = tuple(_in_place(np.multiply, h, next(values)) for h in half_hypotenuses)
    # Run the iterator to its end: a generator then frees what it holds,
    # such as a caller's column grids of values, before normalization.
    next(values, None)
    return areas


def at_weights(dx, dy, values, half_hypotenuses=None):
    """Normalized intensity-height triangle weights; ``values`` and
    ``half_hypotenuses`` as for ``at_areas``.

    Falls back to tetragon weights where all four intensities vanish.
    """
    return _normalized_or_tetragon(at_areas(dx, dy, values, half_hypotenuses), dx, dy)


def _partial_area(a, v):
    """AC's v*v + a*a (v^2 in float64: uint8 wraps)."""
    return _in_place(np.add, np.square(v, dtype=np.float64), a * a)


def ac_partial_areas(dx, left, right):
    """AC's partial areas v*v + a*a, the part of each area that does not
    depend on dy, for intensities ``left`` at the corners P1 and P3
    (a = 1 - dx) and ``right`` at P2 and P4 (a = dx)."""
    return _partial_area(1.0 - dx, left), _partial_area(dx, right)


def ac_areas(dx, dy, values, partial_areas=None):
    """Circle areas with radius sqrt(v^2 + a^2 + b^2) per corner.

    The radius is the hypotenuse of the right triangle whose legs are the
    corner intensity and the tetragon hypotenuse; each area evaluates as
    ((v*v + a*a) + b*b) * pi. A caller that already has each corner's
    partial area v*v + a*a passes the four as ``partial_areas``; ``values``
    are then not read, and the partial areas are completed in place, so it
    passes arrays it owns and does not read again.
    """
    sides = corner_sides(dx, dy)
    if partial_areas is None:
        partial_areas = [_partial_area(a, v) for (a, _), v in zip(sides, values)]
    return tuple(
        _in_place(np.multiply, _in_place(np.add, area, b * b), math.pi)
        for area, (_, b) in zip(partial_areas, sides)
    )


def ac_weights(dx, dy, values, partial_areas=None):
    """Normalized intensity-extended-hypotenuse circle weights;
    ``partial_areas`` as for ``ac_areas``."""
    return _normalized_or_tetragon(ac_areas(dx, dy, values, partial_areas), dx, dy)
