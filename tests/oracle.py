"""Per-pixel reference for ``tetrascale.resize``.

Each output pixel is computed on its own, in plain Python floats, straight
from the paper's definitions: the 2x2 neighborhood around a continuous
source coordinate, its weight vector, and one quantization. The weighting
schemes are restated here (``pixel_weights``) rather than taken from
``tetrascale.weights``, so a wrong formula there shows as a mismatch.
``resize`` evaluates the same formulas over whole grids with numpy and must
reproduce this byte for byte: every step is one correctly rounded ``+ - * /``
or ``sqrt``, taken in numpy's order (``x * x``, never ``x ** 2``).
"""

import math
from typing import NamedTuple

import numpy as np

from tetrascale import GrayImage
from tetrascale.interpolate import _output_length, cubic_kernel, map_dst_to_src

#: Weight sums below this are degenerate: the tetragon weights are used.
EPSILON = 1e-12


def get_clamped(image: GrayImage, col: int, row: int) -> int:
    """Sample at (col, row) with replicate/clamp boundary handling.

    Never fails: out-of-range indices are clamped to the nearest edge pixel.
    """
    c = min(max(col, 0), image.width - 1)
    r = min(max(row, 0), image.height - 1)
    return int(image.pixels[r, c])


class Neighborhood(NamedTuple):
    """Four corner samples (P1..P4) and the fractional offset inside them."""

    values: tuple
    dx: float
    dy: float


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


def pixel_weights(scheme, dx, dy, values=None):
    """The four weights P1..P4 of a 2x2 scheme at offset (dx, dy), for
    corner intensities ``values`` already in their domain (AT and AC only).

    Each corner's weight comes from the tetragon opposite it, with sides
    a (horizontal) and b (vertical): TB a*b; MD the circle on the shorter
    side as diameter; HR the circle with the hypotenuse as radius; AT the
    triangle with the hypotenuse as base and the intensity v as height; AC
    the circle with radius sqrt(v^2 + a^2 + b^2). The areas are normalized
    by ((r1 + r2) + r3) + r4, or replaced by TB's when that sum is below
    ``EPSILON``.
    """
    sides = (
        (1.0 - dx, 1.0 - dy),
        (dx, 1.0 - dy),
        (1.0 - dx, dy),
        (dx, dy),
    )
    tetragon = tuple(a * b for a, b in sides)
    if scheme == "TB":
        return tetragon
    if scheme == "MD":
        areas = [min(a, b) * min(a, b) * (math.pi / 4.0) for a, b in sides]
    elif scheme == "HR":
        areas = [(a * a + b * b) * math.pi for a, b in sides]
    elif scheme == "AT":
        areas = [
            math.sqrt(a * a + b * b) * 0.5 * float(v)
            for (a, b), v in zip(sides, values)
        ]
    elif scheme == "AC":
        areas = [
            ((float(v) * float(v) + a * a) + b * b) * math.pi
            for (a, b), v in zip(sides, values)
        ]
    else:
        raise ValueError(f"not a 2x2 weighting scheme: {scheme!r}")
    r1, r2, r3, r4 = areas
    total = ((r1 + r2) + r3) + r4
    if total < EPSILON:
        return tetragon
    return tuple(r / total for r in areas)


def reference_resize(image, ratio, scheme, intensity_domain="raw"):
    """Straightforward per-pixel loop built from the scalar operations.

    The vectorized resize must reproduce this byte for byte.
    """
    if intensity_domain not in ("raw", "unit"):
        raise ValueError(f"unknown intensity domain {intensity_domain!r}")
    out_w = _output_length(image.width, ratio)
    out_h = _output_length(image.height, ratio)
    out = np.empty((out_h, out_w), dtype=np.uint8)
    for y in range(out_h):
        sy = map_dst_to_src(y, ratio)
        for x in range(out_w):
            sx = map_dst_to_src(x, ratio)
            if scheme == "TN":
                ix = min(max(int(round_half_away(sx)), 0), image.width - 1)
                iy = min(max(int(round_half_away(sy)), 0), image.height - 1)
                out[y, x] = image.pixels[iy, ix]
                continue
            if scheme == "TC":
                out[y, x] = _reference_bicubic_pixel(image, sx, sy)
                continue
            n = gather_neighborhood(image, sx, sy)
            values = n.values
            if intensity_domain == "unit":
                values = tuple(v / 255.0 for v in values)
            wv = pixel_weights(scheme, n.dx, n.dy, values)
            out[y, x] = interpolate_pixel(n, wv)
    return GrayImage(out)


def _reference_bicubic_pixel(image, sx, sy):
    # Mirrors the separable order: horizontal pass first, then vertical.
    x0 = math.floor(sx)
    y0 = math.floor(sy)
    acc = 0.0
    for j in range(-1, 3):
        ky = float(cubic_kernel((sy - y0) - j))
        row = 0.0
        for i in range(-1, 3):
            kx = float(cubic_kernel((sx - x0) - i))
            row += kx * get_clamped(image, x0 + i, y0 + j)
        acc += ky * row
    return int(min(max(float(round_half_away(acc)), 0.0), 255.0))
