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

All functions take float64 numpy arrays for ``dx`` and ``dy``, broadcast
against each other (a row and a column, or two grids; a single point is a
shape-(1,) array), and return four float64 arrays of their broadcast shape:
one call weights a whole grid. Intensities may be uint8 or float64 arrays.
AT and AC consume precomputed terms: ``at_weights`` takes the
half-hypotenuses of ``at_half_hypotenuses`` and ``ac_weights`` the partial
areas of ``ac_partial_areas``, each of the result's shape, and writes its
areas into them. No other argument is written to, and every other result is
an array allocated in the call, written in place with ``out=``.

Position-only terms. TB, MD and HR weights, and AT's half-hypotenuse factor
``0.5 * sqrt(a*a + b*b)``, depend only on (dx, dy). Every function here is
elementwise and evaluates exactly the grid it is given, so ``resize`` can
table them (see ``interpolate._plan``) without changing a bit. AT's factor
can be tabled exactly because its areas evaluate as ``(0.5 * sqrt(...)) * v``.

Value-only terms. AC's area evaluates as ``((v*v + a*a) + b*b) * pi``, so
its prefix ``v*v + a*a`` depends only on the corner's source pixel and its
column; ``resize`` evaluates it once per source row a band reads.

Normalization sums the four areas as ``((r1 + r2) + r3) + r4`` into one
buffer and divides into the areas. Whether any sum is degenerate is read
from its minimum; only when one is (AT with four zero corners) is a mask
built, the degenerate sums set to 1, and the tetragon weights written over
those pixels alone.
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


def _normalized_or_tetragon(raw, dx, dy):
    """Normalize raw weights, falling back to tetragon weights where the
    sum is degenerate (e.g. all-zero intensities in AT).

    ``raw`` is a tuple of four areas of the result's shape that the caller
    gives up: they are divided in place and returned.
    """
    total = raw[0] + raw[1]
    np.add(total, raw[2], out=total)
    np.add(total, raw[3], out=total)
    if not np.min(total) < EPSILON:
        for w in raw:
            np.divide(w, total, out=w)
        return raw
    # Degenerate sums become 1, so nothing divides by zero and the valid
    # pixels divide as above; each corner's tetragon weight a * b is then
    # written over the degenerate pixels alone.
    bad = total < EPSILON
    np.copyto(total, 1.0, where=bad)
    for w, (a, b) in zip(raw, corner_sides(dx, dy)):
        np.divide(w, total, out=w)
        np.multiply(a, b, out=w, where=bad)
    return raw


def tetragon_weights(dx, dy):
    """Bilinear weights: the four opposite-tetragon areas.

    The areas partition the unit square, so they already sum to one and no
    normalization is applied.
    """
    return tuple(a * b for a, b in corner_sides(dx, dy))


def md_areas(dx, dy):
    """Circle areas using each tetragon's minimum side as the diameter."""
    areas = tuple(np.minimum(a, b) for a, b in corner_sides(dx, dy))
    for area in areas:
        np.square(area, out=area)
        np.multiply(area, _QUARTER_PI, out=area)
    return areas


def md_weights(dx, dy):
    """Normalized minimum-side-diameter circle weights."""
    return _normalized_or_tetragon(md_areas(dx, dy), dx, dy)


def _squared_hypotenuses(dx, dy):
    """a*a + b*b per corner, each in a fresh array."""
    return tuple(np.add(a * a, b * b) for a, b in corner_sides(dx, dy))


def hr_areas(dx, dy):
    """Circle areas using each tetragon's hypotenuse as the radius."""
    areas = _squared_hypotenuses(dx, dy)
    for area in areas:
        np.multiply(area, math.pi, out=area)
    return areas


def hr_weights(dx, dy):
    """Normalized hypotenuse-radius circle weights.

    Note this scheme is not interpolating: at offset (0, 0) the coincident
    corner gets weight 0.5, not 1.
    """
    return _normalized_or_tetragon(hr_areas(dx, dy), dx, dy)


def at_half_hypotenuses(dx, dy):
    """AT's position-only factor, 0.5 * sqrt(a*a + b*b), per corner."""
    halves = _squared_hypotenuses(dx, dy)
    for h in halves:
        np.sqrt(h, out=h)
        np.multiply(h, 0.5, out=h)
    return halves


def at_areas(dx, dy, values, half_hypotenuses):
    """Triangle areas: base = tetragon hypotenuse, height = corner intensity.

    ``values`` are the four corner intensities P1..P4 in the caller's
    intensity domain (raw [0,255] or unit [0,1]), or an iterator over them:
    each is read once, in corner order, so a caller can build one corner's
    values at a time. The ``half_hypotenuses`` (``at_half_hypotenuses``, of
    the result's shape) are multiplied by the values in place and returned.
    """
    # Each corner's values are drawn inside its multiply and freed with it;
    # zip's reused result tuple would hold them while the next are built.
    values = iter(values)
    for h in half_hypotenuses:
        np.multiply(h, next(values), out=h)
    # Run the iterator to its end: a generator then frees what it holds,
    # such as a caller's column grids of values, before normalization.
    next(values, None)
    return tuple(half_hypotenuses)


def at_weights(dx, dy, values, half_hypotenuses):
    """Normalized intensity-height triangle weights; arguments as for
    ``at_areas``.

    Falls back to tetragon weights where all four intensities vanish.
    """
    return _normalized_or_tetragon(at_areas(dx, dy, values, half_hypotenuses), dx, dy)


def _partial_area(a, v):
    """AC's v*v + a*a (v^2 in float64: uint8 wraps)."""
    area = np.square(v, dtype=np.float64)
    return np.add(area, a * a, out=area)


def ac_partial_areas(dx, left, right):
    """AC's partial areas v*v + a*a, the part of each area that does not
    depend on dy, for intensity arrays ``left`` at the corners P1 and P3
    (a = 1 - dx) and ``right`` at P2 and P4 (a = dx)."""
    return _partial_area(1.0 - dx, left), _partial_area(dx, right)


def ac_areas(dx, dy, partial_areas):
    """Circle areas with radius sqrt(v^2 + a^2 + b^2) per corner.

    The radius is the hypotenuse of the right triangle whose legs are the
    corner intensity and the tetragon hypotenuse; each area evaluates as
    ((v*v + a*a) + b*b) * pi. ``partial_areas`` are each corner's
    v*v + a*a (``ac_partial_areas``, of the result's shape), an iterable
    read once in corner order; they are completed in place and returned.
    """
    # Drawn to the end first: a generator then frees what it holds, such as
    # a caller's column grids of partial areas, before normalization.
    areas = tuple(partial_areas)
    for area, (_, b) in zip(areas, corner_sides(dx, dy)):
        np.add(area, b * b, out=area)
        np.multiply(area, math.pi, out=area)
    return areas


def ac_weights(dx, dy, partial_areas):
    """Normalized intensity-extended-hypotenuse circle weights;
    ``partial_areas`` as for ``ac_areas``."""
    return _normalized_or_tetragon(ac_areas(dx, dy, partial_areas), dx, dy)
