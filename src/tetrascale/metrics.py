"""Full-reference quality metrics: MSE, PSNR, and single-scale SSIM.

SSIM uses the conventional defaults: 11x11 Gaussian window with sigma 1.5,
K1 = 0.01, K2 = 0.03, dynamic range 255. The local map has the same size as
the inputs; borders are handled by reflective (symmetric) padding.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import correlate1d

from .image import GrayImage

SSIM_WINDOW_SIZE = 11
SSIM_SIGMA = 1.5
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2


def _check_same_shape(a: GrayImage, b: GrayImage):
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def mse(a: GrayImage, b: GrayImage) -> float:
    """Mean squared difference over all pixels."""
    _check_same_shape(a, b)
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    err = mse(a, b)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / err)


def _gaussian_1d(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return g / g.sum()


def _smooth(arr: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Separable pass; 'reflect' is symmetric padding about the edge.
    tmp = correlate1d(arr, g, axis=0, mode="reflect")
    return correlate1d(tmp, g, axis=1, mode="reflect")


def _ssim_map(a: GrayImage, b: GrayImage) -> np.ndarray:
    """Local SSIM map, same size as the inputs."""
    _check_same_shape(a, b)
    if min(a.width, a.height) < SSIM_WINDOW_SIZE:
        raise ValueError(
            f"image {a.width}x{a.height} smaller than the "
            f"{SSIM_WINDOW_SIZE}x{SSIM_WINDOW_SIZE} SSIM window"
        )
    g = _gaussian_1d(SSIM_WINDOW_SIZE, SSIM_SIGMA)
    x = a.pixels.astype(np.float64)
    y = b.pixels.astype(np.float64)

    mu_x = _smooth(x, g)
    mu_y = _smooth(y, g)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    var_x = _smooth(x * x, g) - mu_xx
    var_y = _smooth(y * y, g) - mu_yy
    cov_xy = _smooth(x * y, g) - mu_xy

    num = (2.0 * mu_xy + _C1) * (2.0 * cov_xy + _C2)
    den = (mu_xx + mu_yy + _C1) * (var_x + var_y + _C2)
    return num / den


def ssim(a: GrayImage, b: GrayImage) -> float:
    """Mean structural similarity over a same-size local SSIM map."""
    return float(np.mean(_ssim_map(a, b)))
