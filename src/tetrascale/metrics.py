"""Full-reference quality metrics: MSE, PSNR, and single-scale SSIM.

SSIM uses the conventional defaults: 11x11 Gaussian window with sigma 1.5,
K1 = 0.01, K2 = 0.03, dynamic range 255. The local map has the same size as
the inputs; borders are handled by reflective (symmetric) padding.

``Scorer`` scores outputs against one reference. It smooths the reference
once, keeping its local mean and variance (two float64 maps), so each output
costs one MSE and three smooths: its local mean, its local mean square and
the local mean of the product. ``mse``, ``psnr`` and ``ssim`` go through the
same code for a single pair, so their values equal ``Scorer.score``'s bit
for bit.

Scoring runs in bands of whole rows, as ``_bands.rows`` cuts them: the
fewest bands of at most ``_BAND_PIXELS`` pixels or ``_MIN_BAND_ROWS`` rows,
whichever is more (64 rows at 512 wide or wider, more on a narrower
image), whose heights differ by at most one row. A band is smoothed from
a slab of its rows plus the ``_HALO`` rows on each side that the window
reaches, and its SSIM terms are combined while they are in cache and
divided straight into one full-size map, whose mean is taken once. Each
line of a smooth is computed on its own, and at the top and bottom of the
image 'reflect' mode mirrors the slab's edge rows as it mirrors the whole
image's, so the map is bit for bit the one smooths of the whole image
give. Squares and products are formed as uint16, which holds 255^2
exactly; the smoothing reads every line as doubles. MSE sums integer
squares, exactly.

The bands are scored on at most ``_bands._THREADS`` (2) threads, by the
rule that ``resize`` uses too (``_bands.run``): the calling thread
allocates each thread's band arrays and smoothing buffer, sized for the
largest band by ``_bands.run``, each band writes only its own rows of the
maps, and the mean is taken once every band has finished, so the scores
have the same bits for any thread count. A score's working memory is
therefore the SSIM map plus one band's four float64 arrays and smoothing
buffer per thread, on any machine; an image of at most three bands is
scored in the calling thread alone.

The smoothing is scipy's ``correlate1d``. scipy is imported by the first
smooth, not by this module, so importing the package or resizing an image
does not load it (scipy takes several times longer to import than numpy).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _bands, interpolate
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
    """Mean squared difference of two uint8 arrays, its sum taken exactly
    as an integer.

    This is bit for bit ``np.mean`` of the float64 squares: each partial
    sum of integer squares (at most 255^2 each) is an integer below 2^53
    for any image under 1.38e11 pixels, so that float sum is this integer,
    and both divide it by the size once, correctly rounded.
    """
    diff = np.subtract(x, y, dtype=np.int16)
    total = int(np.square(diff, dtype=np.int32).sum(dtype=np.int64))
    return total / diff.size


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


#: Rows the window reaches on each side of a pixel.
_HALO = SSIM_WINDOW_SIZE // 2

#: The 1-D Gaussian SSIM applies along each axis, normalized to sum 1. Its
#: taps come from libm's ``math.exp``, one at a time, so their bits cannot
#: depend on the SIMD kernels numpy dispatches for ``np.exp``.
_WINDOW = np.array([
    math.exp(-(k * k) / (2.0 * SSIM_SIGMA * SSIM_SIGMA)) for k in range(-_HALO, _HALO + 1)
])
_WINDOW /= sum(_WINDOW)

#: A band of whole rows holds at most this many pixels, or at most
#: ``_MIN_BAND_ROWS`` rows where that is more, so the band's float64 arrays
#: stay in cache while they are combined (64 rows at 512 wide), and an image
#: of ``height`` rows has at most ceil(height / 64) bands, whose halo rows
#: the axis-0 passes smooth again: 10 rows per band.
_BAND_PIXELS = 1 << 15
_MIN_BAND_ROWS = 64


def _slab(band: range) -> tuple[slice, slice, int]:
    """The band's rows, the slab of rows its smooth reads (the band and the
    rows within ``_HALO`` of it), and the band's offset in that slab."""
    top = max(band.start - _HALO, 0)
    return slice(band.start, band.stop), slice(top, band.stop + _HALO), band.start - top


def _smooth(slab: np.ndarray, offset: int, out: np.ndarray, buf: np.ndarray) -> None:
    """Smooth the rows of ``slab`` from ``offset`` on, as many as ``out``
    holds, into ``out``.

    ``slab`` holds a band of rows and the rows within ``_HALO`` of it; at an
    edge of the image, 'reflect' mode mirrors the rows past it as a smooth
    of the whole image does. ``buf`` is Fortran-ordered float64 scratch of
    at least ``slab``'s rows, so the axis-0 pass writes each column
    contiguously. Each line of both passes is computed on its own, so
    ``out`` holds exactly the rows a smooth of the whole image gives there.
    """
    # Imported here, at the first score: a resize never needs scipy.
    from scipy.ndimage import correlate1d

    # Separable, edge-symmetric ('reflect') pass; scipy reads integer lines as doubles.
    tmp = buf[: len(slab)]
    correlate1d(slab, _WINDOW, axis=0, output=tmp, mode="reflect")
    rows = tmp[offset : offset + len(out)]
    correlate1d(rows, _WINDOW, axis=1, output=out, mode="reflect")


class Scorer:
    """MSE, PSNR and SSIM of same-size outputs against one reference image.

    Raises ValueError on construction, before anything is allocated, if the
    reference is smaller than the SSIM window or has more pixels than
    ``interpolate.MAX_OUTPUT_PIXELS``, the limit ``resize`` puts on an
    output; and in ``score`` if an output's size differs from it.
    """

    def __init__(self, reference: GrayImage):
        label = f"image {reference.width}x{reference.height}"
        if min(reference.width, reference.height) < SSIM_WINDOW_SIZE:
            raise ValueError(
                f"{label} smaller than the {SSIM_WINDOW_SIZE}x{SSIM_WINDOW_SIZE} SSIM window"
            )
        if reference.width * reference.height > interpolate.MAX_OUTPUT_PIXELS:
            raise ValueError(f"{label} exceeds {interpolate.MAX_OUTPUT_PIXELS} pixels")
        self.reference = reference
        height, width = reference.pixels.shape
        self._bands = _bands.rows(height, width, _BAND_PIXELS, _MIN_BAND_ROWS)
        self._mu_x = np.empty((height, width))
        self._var_x = np.empty((height, width))
        _bands.run(self._smooth_reference, self._bands, functools.partial(self._band_buffers, 1))

    def _smooth_reference(self, bands, buf, arrays) -> None:
        """The reference's local mean and variance on ``bands``."""
        (mu_xx,) = arrays
        for band, slab, offset in map(_slab, bands):
            x = self.reference.pixels[slab]
            mu_x, var_x = self._mu_x[band], self._var_x[band]
            _smooth(x, offset, mu_x, buf)
            _smooth(np.square(x, dtype=np.uint16), offset, var_x, buf)
            var_x -= np.multiply(mu_x, mu_x, out=mu_xx[: len(mu_x)])

    def _band_buffers(self, count: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """A smoothing buffer for ``_smooth``, of the rows of a slab of a
        band of ``rows`` rows, and ``count`` C-ordered float64 arrays of
        that band's shape."""
        height, width = self.reference.pixels.shape
        buf = np.empty((min(rows + 2 * _HALO, height), width), order="F")
        return buf, np.empty((count, rows, width))

    def score(self, output: GrayImage) -> tuple[float, float, float]:
        """``(mse, psnr, ssim)`` of ``output`` against the reference."""
        _check_same_shape(self.reference, output)
        err = _mse(self.reference.pixels, output.pixels)
        return err, _psnr(err), float(np.mean(self._ssim_map(output)))

    def _ssim_map(self, output: GrayImage) -> np.ndarray:
        """Local SSIM map of ``output``, which has the reference's size."""
        ssim_map = np.empty(output.pixels.shape)
        _bands.run(
            functools.partial(self._ssim_bands, output.pixels, ssim_map),
            self._bands,
            functools.partial(self._band_buffers, 4),
        )
        return ssim_map

    def _ssim_bands(self, y_pixels, ssim_map, bands, buf, arrays) -> None:
        """Write the local SSIM of ``y_pixels`` on ``bands`` into ``ssim_map``.

        Each band evaluates num / den with num = (2 mu_xy + C1)(2 cov_xy +
        C2) and den = (mu_xx + mu_yy + C1)(var_x + var_y + C2) in place,
        operand for operand as written: only the order of commutative
        operands differs, which changes no bit. Partial sums such as
        mu_xx + C1 are not precomputed, because regrouping a sum does
        change bits.
        """
        for band, slab, offset in map(_slab, bands):
            x, y = self.reference.pixels[slab], y_pixels[slab]
            mu_x, var_x = self._mu_x[band], self._var_x[band]
            mu_y, var_y, cov, den = arrays[:, : len(mu_x)]

            _smooth(y, offset, mu_y, buf)
            _smooth(np.square(y, dtype=np.uint16), offset, var_y, buf)
            np.multiply(mu_y, mu_y, out=den)  # mu_yy
            var_y -= den
            den += np.multiply(mu_x, mu_x, out=cov)  # cov's array, before its smooth
            den += _C1
            var_y += var_x
            var_y += _C2
            den *= var_y

            num = mu_y
            num *= mu_x  # mu_xy
            _smooth(np.multiply(x, y, dtype=np.uint16), offset, cov, buf)
            cov -= num
            num *= 2.0
            num += _C1
            cov *= 2.0
            cov += _C2
            num *= cov
            np.divide(num, den, out=ssim_map[band])


def _ssim_map(a: GrayImage, b: GrayImage) -> np.ndarray:
    """Local SSIM map, same size as the inputs."""
    _check_same_shape(a, b)
    return Scorer(a)._ssim_map(b)


def ssim(a: GrayImage, b: GrayImage) -> float:
    """Mean structural similarity over a same-size local SSIM map."""
    return float(np.mean(_ssim_map(a, b)))
