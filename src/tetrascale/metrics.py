"""Full-reference quality metrics: MSE, PSNR, and single-scale SSIM.

SSIM uses the conventional defaults: 11x11 Gaussian window with sigma 1.5,
K1 = 0.01, K2 = 0.03, dynamic range 255. The local map has the same size as
the inputs; borders are handled by reflective (symmetric) padding.

``Scorer`` scores outputs against one reference. It smooths the reference
once, keeping its local mean and variance (two float64 maps), so each output
costs one MSE and three smooths: its local mean, its local mean square and
the local mean of the product. ``mse``, ``psnr`` and ``ssim`` compute the
same arithmetic for a single pair, so their values equal ``Scorer.score``'s
bit for bit. Squares and products are formed as uint16, which holds 255^2
exactly; the smoothing reads every line as doubles.

The smoothing is scipy's ``correlate1d``. scipy is imported by the first
smooth, not by this module, so importing the package or resizing an image
never loads it (it takes several times longer to import than numpy).
"""

from __future__ import annotations

import math

import numpy as np

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


def _mse(x: np.ndarray, y: np.ndarray) -> float:
    diff = np.subtract(x, y, dtype=np.float64)
    diff *= diff
    return float(np.mean(diff))


def _psnr(err: float) -> float:
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / err)


def mse(a: GrayImage, b: GrayImage) -> float:
    """Mean squared difference over all pixels."""
    _check_same_shape(a, b)
    return _mse(a.pixels, b.pixels)


def psnr(a: GrayImage, b: GrayImage) -> float:
    """Peak signal-to-noise ratio in dB; +inf for identical images."""
    return _psnr(mse(a, b))


def _gaussian_1d(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return g / g.sum()


_WINDOW = _gaussian_1d(SSIM_WINDOW_SIZE, SSIM_SIGMA)


def _smooth(arr: np.ndarray) -> np.ndarray:
    # Imported here, at the first score: a resize never needs scipy.
    from scipy.ndimage import correlate1d

    # Separable, edge-symmetric ('reflect') pass; scipy reads integer lines as doubles.
    tmp = correlate1d(arr, _WINDOW, axis=0, output=np.float64, mode="reflect")
    return correlate1d(tmp, _WINDOW, axis=1, mode="reflect")


class Scorer:
    """MSE, PSNR and SSIM of same-size outputs against one reference image.

    Raises ValueError on construction if the reference is smaller than the
    SSIM window, and in ``score`` if an output's size differs from it.
    """

    def __init__(self, reference: GrayImage):
        if min(reference.width, reference.height) < SSIM_WINDOW_SIZE:
            raise ValueError(
                f"image {reference.width}x{reference.height} smaller than the "
                f"{SSIM_WINDOW_SIZE}x{SSIM_WINDOW_SIZE} SSIM window"
            )
        self.reference = reference
        x = reference.pixels
        self._mu_x = _smooth(x)
        self._var_x = _smooth(np.square(x, dtype=np.uint16))
        self._var_x -= self._mu_x * self._mu_x

    def score(self, output: GrayImage) -> tuple[float, float, float]:
        """``(mse, psnr, ssim)`` of ``output`` against the reference."""
        _check_same_shape(self.reference, output)
        err = _mse(self.reference.pixels, output.pixels)
        return err, _psnr(err), float(np.mean(self._ssim_map(output)))

    def _ssim_map(self, output: GrayImage) -> np.ndarray:
        """Local SSIM map of ``output``, which has the reference's size.

        Evaluates num / den with num = (2 mu_xy + C1)(2 cov_xy + C2) and
        den = (mu_xx + mu_yy + C1)(var_x + var_y + C2) in place, operand for
        operand as written: only the order of commutative operands differs,
        which changes no bit. Partial sums such as mu_xx + C1 are not
        precomputed, because regrouping a sum does change bits.
        """
        x, y = self.reference.pixels, output.pixels
        mu_x, var_x = self._mu_x, self._var_x

        mu_y = _smooth(y)
        var_y = _smooth(np.square(y, dtype=np.uint16))
        den = mu_y * mu_y  # mu_yy
        var_y -= den
        den += mu_x * mu_x
        den += _C1
        var_y += var_x
        var_y += _C2
        den *= var_y
        del var_y  # one map fewer while the third smooth runs

        num = mu_y
        num *= mu_x  # mu_xy
        cov = _smooth(np.multiply(x, y, dtype=np.uint16))
        cov -= num
        num *= 2.0
        num += _C1
        cov *= 2.0
        cov += _C2
        num *= cov
        num /= den
        return num


def _ssim_map(a: GrayImage, b: GrayImage) -> np.ndarray:
    """Local SSIM map, same size as the inputs."""
    _check_same_shape(a, b)
    return Scorer(a)._ssim_map(b)


def ssim(a: GrayImage, b: GrayImage) -> float:
    """Mean structural similarity over a same-size local SSIM map."""
    return float(np.mean(_ssim_map(a, b)))
