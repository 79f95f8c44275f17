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

Scoring runs in bands of whole rows, of at least ``_BAND_PIXELS`` pixels
and ``_MIN_BAND_ROWS`` rows each (64 rows at 512 wide or wider, more on a
narrower image; the last band may be shorter). A band is smoothed from a
slab of its rows plus the ``_HALO`` rows on each side that the window
reaches, and its SSIM terms are combined while they are in cache and
divided straight into one full-size map, whose mean is taken once. Each
line of a smooth is computed on its own, and at the top and bottom of the
image 'reflect' mode mirrors the slab's edge rows as it mirrors the whole
image's, so the map is bit for bit the one smooths of the whole image give.
Squares and products are formed as uint16, which holds 255^2 exactly; the
smoothing reads every line as doubles. MSE sums integer squares, exactly.

The bands are scored by up to ``_WORKERS`` threads, one per CPU this
process may run on, but at most one per two bands (``_threads``): the
calling thread scores the first contiguous chunk of bands, and each other
chunk a helper thread that the score starts and joins before it returns,
so no thread outlives the score. scipy's smooths release the interpreter
lock, so the chunks run in parallel. The calling thread allocates each
chunk's band arrays and smoothing buffer before any chunk starts, each
band writes only its own rows of the maps, and the mean is taken once
every chunk has finished, so the scores have the same bits for any thread
count. A score's working memory is therefore the SSIM map plus one band's
four float64 arrays and smoothing buffer per thread; an image of at most
three bands is scored in the calling thread alone.

The smoothing is scipy's ``correlate1d``. scipy is imported by the first
smooth, not by this module, so importing the package or resizing an image
does not load it (scipy takes several times longer to import than numpy).
"""

from __future__ import annotations

import functools
import math
import os
import threading

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


def _gaussian_1d(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return g / g.sum()


_WINDOW = _gaussian_1d(SSIM_WINDOW_SIZE, SSIM_SIGMA)

#: Rows the window reaches on each side of a pixel.
_HALO = SSIM_WINDOW_SIZE // 2

#: A band of whole rows holds at least this many pixels, so the band's
#: float64 arrays stay in cache while they are combined (64 rows at 512
#: wide), and at least ``_MIN_BAND_ROWS`` rows, so the halo rows that each
#: band's axis-0 pass smooths again cost at most 10/74 of it on a wide image.
_BAND_PIXELS = 1 << 15
_MIN_BAND_ROWS = 64

#: Most threads that score one image: one per CPU this process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _threads(bands: int) -> int:
    """Threads that score an image of ``bands`` bands: up to ``_WORKERS``,
    but at most one per two bands, so that the band buffers each thread
    holds stay a small share of a short image's."""
    return max(1, min(_WORKERS, bands // 2))


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
        height, width = reference.pixels.shape
        self._band_rows = rows = min(max(_MIN_BAND_ROWS, _BAND_PIXELS // width), height)
        # Each band's rows, the slab of rows its smooth reads, and the
        # band's offset in that slab.
        self._bands = []
        for top in range(0, height, rows):
            slab = slice(max(top - _HALO, 0), top + rows + _HALO)
            self._bands.append((slice(top, top + rows), slab, top - slab.start))
        self._mu_x = np.empty((height, width))
        self._var_x = np.empty((height, width))
        self._each_chunk(self._smooth_reference, 1)

    def _smooth_reference(self, bands, buf, arrays) -> None:
        """The reference's local mean and variance on ``bands``."""
        (mu_xx,) = arrays
        for band, slab, offset in bands:
            x = self.reference.pixels[slab]
            mu_x, var_x = self._mu_x[band], self._var_x[band]
            _smooth(x, offset, mu_x, buf)
            _smooth(np.square(x, dtype=np.uint16), offset, var_x, buf)
            var_x -= np.multiply(mu_x, mu_x, out=mu_xx[: len(mu_x)])

    def _band_buffers(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """A smoothing buffer for ``_smooth``, of the largest slab's rows,
        and ``count`` C-ordered float64 arrays of the largest band's shape."""
        height, width = self.reference.pixels.shape
        rows = self._band_rows
        buf = np.empty((min(rows + 2 * _HALO, height), width), order="F")
        return buf, np.empty((count, rows, width))

    def _each_chunk(self, work, count: int) -> None:
        """Run ``work(bands, buf, arrays)`` on contiguous chunks of the
        bands, one per thread that scores them (``_threads``): the first in
        this thread, each other in a helper thread started here.

        Every chunk's buffers, from ``_band_buffers(count)``, are allocated
        here before any chunk starts. Returns once every helper has been
        joined, then raises the first error: the calling thread's chunk's,
        else the first a helper recorded.
        """
        bands = self._bands
        threads = _threads(len(bands))
        chunks = [
            bands[len(bands) * i // threads : len(bands) * (i + 1) // threads]
            for i in range(threads)
        ]
        buffers = [self._band_buffers(count) for _ in chunks]
        errors = []

        def help_with(chunk, chunk_buffers):
            try:
                work(chunk, *chunk_buffers)
            except BaseException as error:
                errors.append(error)

        helpers = []
        try:
            for chunk, chunk_buffers in zip(chunks[1:], buffers[1:]):
                helper = threading.Thread(
                    target=help_with, args=(chunk, chunk_buffers), name="tetrascale-ssim"
                )
                helper.start()
                helpers.append(helper)
            work(chunks[0], *buffers[0])
        finally:
            for helper in helpers:
                helper.join()
        if errors:
            raise errors[0]

    def score(self, output: GrayImage) -> tuple[float, float, float]:
        """``(mse, psnr, ssim)`` of ``output`` against the reference."""
        _check_same_shape(self.reference, output)
        err = _mse(self.reference.pixels, output.pixels)
        return err, _psnr(err), float(np.mean(self._ssim_map(output)))

    def _ssim_map(self, output: GrayImage) -> np.ndarray:
        """Local SSIM map of ``output``, which has the reference's size."""
        ssim_map = np.empty(output.pixels.shape)
        self._each_chunk(
            functools.partial(self._ssim_bands, output.pixels, ssim_map), 4
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
        for band, slab, offset in bands:
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
