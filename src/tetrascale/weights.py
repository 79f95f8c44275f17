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
    sum is degenerate (e.g. all-zero intensities in AT)."""
    total = raw[0] + raw[1] + raw[2] + raw[3]
    bad = total < EPSILON
    if not np.any(bad):
        return tuple(w / total for w in raw)
    fallback = tetragon_weights(dx, dy)
    safe = np.where(bad, 1.0, total)
    return tuple(
        np.where(bad, f, w / safe) for f, w in zip(fallback, raw)
    )


def tetragon_weights(dx, dy):
    """Bilinear weights: the four opposite-tetragon areas.

    The areas partition the unit square, so they already sum to one and no
    normalization is applied.
    """
    return tuple(a * b for a, b in corner_sides(dx, dy))


def md_areas(dx, dy):
    """Circle areas using each tetragon's minimum side as the diameter."""
    return tuple(
        _QUARTER_PI * np.minimum(a, b) ** 2 for a, b in corner_sides(dx, dy)
    )


def md_weights(dx, dy):
    """Normalized minimum-side-diameter circle weights."""
    return _normalized_or_tetragon(md_areas(dx, dy), dx, dy)


def hr_areas(dx, dy):
    """Circle areas using each tetragon's hypotenuse as the radius."""
    return tuple(math.pi * (a * a + b * b) for a, b in corner_sides(dx, dy))


def hr_weights(dx, dy):
    """Normalized hypotenuse-radius circle weights.

    Note this scheme is not interpolating: at offset (0, 0) the coincident
    corner gets weight 0.5, not 1.
    """
    return _normalized_or_tetragon(hr_areas(dx, dy), dx, dy)


def at_areas(dx, dy, values):
    """Triangle areas: base = tetragon hypotenuse, height = corner intensity.

    ``values`` are the four corner intensities P1..P4 in the caller's
    intensity domain (raw [0,255] or unit [0,1]).
    """
    return tuple(
        0.5 * np.sqrt(a * a + b * b) * v
        for (a, b), v in zip(corner_sides(dx, dy), values)
    )


def at_weights(dx, dy, values):
    """Normalized intensity-height triangle weights.

    Falls back to tetragon weights where all four intensities vanish.
    """
    return _normalized_or_tetragon(at_areas(dx, dy, values), dx, dy)


def ac_areas(dx, dy, values):
    """Circle areas with radius sqrt(v^2 + a^2 + b^2) per corner.

    The radius is the hypotenuse of the right triangle whose legs are the
    corner intensity and the tetragon hypotenuse (v^2 in float64: uint8 wraps).
    """
    return tuple(
        math.pi * (np.square(v, dtype=np.float64) + a * a + b * b)
        for (a, b), v in zip(corner_sides(dx, dy), values)
    )


def ac_weights(dx, dy, values):
    """Normalized intensity-extended-hypotenuse circle weights."""
    return _normalized_or_tetragon(ac_areas(dx, dy, values), dx, dy)
