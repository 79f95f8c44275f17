"""Per-pixel reference for ``tetrascale.resize``, and a whole-image one
for the metrics.

Each output pixel is computed on its own, in plain Python floats, straight
from the paper's definitions: the 2x2 neighborhood around a continuous
source coordinate, its weight vector, and one quantization. The pixel grid
(``output_length``, ``source_coordinate``), the weighting schemes
(``pixel_weights``) and Keys' cubic kernel (``cubic_weight``) are restated
here rather than taken from ``tetrascale``, so a wrong formula there shows
as a mismatch.
``resize`` evaluates the same formulas over whole grids with numpy and must
reproduce this byte for byte: every step is one correctly rounded ``+ - * /``
or ``sqrt``, taken in numpy's order (``x * x``, never ``x ** 2``), apart
from TC's cube (``cubic_weight``).

``mse`` and ``ssim_map`` restate the metrics from their definitions, without
``tetrascale.metrics`` or scipy: MSE in exact integer arithmetic, which
``tetrascale.mse`` must match bit for bit, and SSIM (Wang et al. 2004) as a
direct 11x11 weighted sum at every pixel, which the banded, separable
smooths of ``tetrascale.metrics`` match only up to rounding.
"""

import math
from typing import NamedTuple

import numpy as np

from tetrascale import GrayImage

#: Weight sums below this are degenerate: the tetragon weights are used.
EPSILON = 1e-12


def output_length(n, ratio):
    """Output pixels along an axis of ``n`` source pixels at ``ratio``:
    n * ratio rounded half up, and at least one."""
    return max(1, math.floor(n * ratio + 0.5))


def source_coordinate(dst, ratio):
    """Continuous source coordinate of the center of output pixel ``dst``:
    pixel centers line up, so src = (dst + 0.5) / ratio - 0.5."""
    return (dst + 0.5) / ratio - 0.5


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
    out_w = output_length(image.width, ratio)
    out_h = output_length(image.height, ratio)
    out = np.empty((out_h, out_w), dtype=np.uint8)
    for y in range(out_h):
        sy = source_coordinate(y, ratio)
        for x in range(out_w):
            sx = source_coordinate(x, ratio)
            if scheme == "TN":
                ix = min(max(int(round_half_away(sx)), 0), image.width - 1)
                iy = min(max(int(round_half_away(sy)), 0), image.height - 1)
                out[y, x] = image.pixels[iy, ix]
                continue
            if scheme == "TC":
                acc = bicubic_sum(image, sx, sy)
                out[y, x] = int(min(max(float(round_half_away(acc)), 0.0), 255.0))
                continue
            n = gather_neighborhood(image, sx, sy)
            values = n.values
            if intensity_domain == "unit":
                values = tuple(v / 255.0 for v in values)
            wv = pixel_weights(scheme, n.dx, n.dy, values)
            out[y, x] = interpolate_pixel(n, wv)
    return GrayImage(out)


def cubic_weight(t):
    """Keys' cubic-convolution kernel (a = -0.5) at offset ``t``.

    The cube is libm's ``pow``, as numpy takes it on a scalar; numpy's
    ``**3`` on an array can round it one ulp away, so ``resize``'s TC
    field agrees with ``bicubic_sum`` only to about 1e-12 before rounding.
    """
    a = -0.5
    at = abs(t)
    if at <= 1.0:
        return (a + 2.0) * at**3 - (a + 3.0) * (at * at) + 1.0
    if at < 2.0:
        return a * at**3 - 5.0 * a * (at * at) + 8.0 * a * at - 4.0 * a
    return 0.0


def bicubic_sum(image, sx, sy):
    """TC's pre-rounding value at source coordinate (sx, sy): each of the
    four rows y0 - 1..y0 + 2 summed over its four columns, then the rows
    summed, each in tap order (the separable order: horizontal, then
    vertical)."""
    x0 = math.floor(sx)
    y0 = math.floor(sy)
    acc = 0.0
    for j in range(-1, 3):
        ky = cubic_weight((sy - y0) - j)
        row = 0.0
        for i in range(-1, 3):
            kx = cubic_weight((sx - x0) - i)
            row += kx * get_clamped(image, x0 + i, y0 + j)
        acc += ky * row
    return acc


#: SSIM's window and constants: an 11-tap Gaussian of sigma 1.5, K1 = 0.01,
#: K2 = 0.03 and dynamic range L = 255.
SSIM_TAPS = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


def gaussian_taps(size=SSIM_TAPS, sigma=SSIM_SIGMA):
    """The 1-D Gaussian window in plain Python floats, normalized to sum 1."""
    center = (size - 1) / 2.0
    g = [math.exp(-((k - center) * (k - center)) / (2.0 * sigma * sigma)) for k in range(size)]
    total = sum(g)
    return [v / total for v in g]


def mse(a: GrayImage, b: GrayImage) -> float:
    """Mean squared difference: the exact integer sum of squares over the
    pixel count, correctly rounded once."""
    diff = a.pixels.astype(np.int64) - b.pixels.astype(np.int64)
    return int((diff * diff).sum()) / diff.size


def ssim_map(a: GrayImage, b: GrayImage) -> np.ndarray:
    """Local SSIM of a same-size pair, one value per pixel.

    Each local statistic is a weighted sum over the 11x11 pixels around a
    pixel, the weight at (i, j) the product of taps i and j, on the image
    padded symmetrically by 5 (edge rows and columns mirrored, edge
    included: scipy's 'reflect'): the means mu_x and mu_y, then the
    variances var_x = sum w (x - mu_x)^2 and var_y, and the covariance cov
    = sum w (x - mu_x)(y - mu_y), which, unlike E[x*x] - mu_x^2, cancel
    nothing. SSIM is (2 mu_x mu_y + C1)(2 cov + C2) / ((mu_x^2 + mu_y^2 +
    C1)(var_x + var_y + C2)).
    """
    taps = gaussian_taps()
    half = len(taps) // 2
    height, width = a.pixels.shape
    padded = np.pad(
        np.stack([a.pixels, b.pixels]).astype(np.float64),
        ((0, 0), (half, half), (half, half)),
        mode="symmetric",
    )
    windows = [
        (ti * tj, padded[:, i : i + height, j : j + width])
        for i, ti in enumerate(taps)
        for j, tj in enumerate(taps)
    ]
    mu_x, mu_y = sum(weight * pixels for weight, pixels in windows)
    var_x, var_y, cov = np.zeros((3, height, width))
    for weight, (x, y) in windows:
        dx, dy = x - mu_x, y - mu_y
        var_x += weight * dx * dx
        var_y += weight * dy * dy
        cov += weight * dx * dy
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
    return num / den
