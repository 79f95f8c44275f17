"""Seeded input generation for the benchmark workloads.

``synthetic_scene`` is a copy of the acceptance suite's criterion-6 scene
generator, kept here so that an edit to ``tests/`` cannot change a workload.
Inputs are written by the benchmark's own PGM writer; the program under test
only ever sees the generated files and arrays.
"""

from __future__ import annotations

import re

import numpy as np
from scipy.ndimage import gaussian_filter

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def synthetic_scene(index, rng, size=512):
    """Natural-ish deterministic test image as a uint8 array: smooth field,
    geometric scene, or low-frequency texture, cycling with the index."""
    kind = index % 3
    if kind == 0:
        sigma = 3.0 + 2.0 * (index // 3 % 4)
        field = gaussian_filter(rng.standard_normal((size, size)), sigma)
        field = (field - field.min()) / (field.max() - field.min())
    elif kind == 1:
        yy, xx = np.mgrid[0:size, 0:size] / size
        field = 0.3 + 0.4 * xx
        for _ in range(6):
            cy, cx = rng.uniform(0.15, 0.85, 2)
            ry, rx = rng.uniform(0.05, 0.25, 2)
            level = rng.uniform(0.0, 1.0)
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1.0
            field = np.where(mask, level, field)
        field = gaussian_filter(field, 1.5)
    else:
        yy, xx = np.mgrid[0:size, 0:size]
        fy, fx = rng.uniform(1.0 / 64, 1.0 / 24, 2)
        phase = rng.uniform(0, 2 * np.pi, 2)
        field = 0.5 + 0.25 * np.sin(2 * np.pi * fx * xx + phase[0]) * np.sin(
            2 * np.pi * fy * yy + phase[1]
        )
        field += gaussian_filter(rng.standard_normal((size, size)), 2.0) * 0.15
        field = np.clip(field, 0.0, 1.0)
    return np.clip(np.floor(field * 255 + 0.5), 0, 255).astype(np.uint8)


def workload_scene(index, rng, size=512):
    """``synthetic_scene`` with an 8x8 black square in its top-left corner.

    AT falls back to bilinear weights wherever all four corners are 0, and
    whether a scene has such a block (and so the fallback's cost) would
    otherwise depend on the seed. The square is aligned to 4, so a box
    downsample by 4 keeps a 2x2 black block.
    """
    pixels = synthetic_scene(index, rng, size)
    pixels[:8, :8] = 0
    return pixels


def write_pgm(pixels, path):
    """Binary PGM (P5, maxval 255)."""
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def pgm_raster(path):
    """(height, width, raster bytes) of a binary PGM with no header comments."""
    with open(path, "rb") as fh:
        data = fh.read()
    # Exactly one whitespace byte separates the maxval from the raster.
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ValueError(f"{path}: not a maxval-255 binary PGM")
    w, h = int(header.group(1)), int(header.group(2))
    raster = data[header.end():]
    if len(raster) != w * h:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {w * h}")
    return h, w, raster
