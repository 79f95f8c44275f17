"""Grayscale image upscaling with geometry-derived weighting schemes.

Seven algorithms behind one ``resize`` entry point: nearest (TN),
bilinear/tetragon (TB), bicubic (TC), and the four normalized geometric
schemes MD, HR, AT, AC. Plus full-reference quality metrics (MSE, PSNR,
SSIM) and a timing/quality benchmark harness with CSV/SVG reporting.
"""

from .image import FormatError, GrayImage, load_image, load_pgm, save_pgm, to_gray
from .interpolate import (
    INTENSITY_DOMAINS,
    SCHEMES,
    resize,
)
from .metrics import mse, psnr, ssim
from .bench import (
    AggregateRow,
    BenchConfig,
    BenchRecord,
    downsample,
    run_benchmark,
    time_algorithm,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRow",
    "BenchConfig",
    "BenchRecord",
    "FormatError",
    "GrayImage",
    "INTENSITY_DOMAINS",
    "SCHEMES",
    "downsample",
    "load_image",
    "load_pgm",
    "mse",
    "psnr",
    "resize",
    "run_benchmark",
    "save_pgm",
    "ssim",
    "time_algorithm",
    "to_gray",
]
