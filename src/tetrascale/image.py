"""8-bit grayscale image container and file I/O.

Images are immutable 2-D uint8 rasters. Binary PGM (P5, maxval 255) is the
bit-exact interchange format; PNG reading is an optional convenience that
requires Pillow.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class FormatError(ValueError):
    """Raised for malformed or unsupported image file content."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable single-channel 8-bit image, row-major.

    ``pixels`` is a read-only (height, width) uint8 array.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be >= 1, got {arr.shape}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"expected integer samples, got dtype {arr.dtype}")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("samples outside [0, 255]")
            arr = arr.astype(np.uint8)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


def _adopt(pixels: np.ndarray) -> GrayImage:
    """A ``GrayImage`` of ``pixels`` without the copy that ``GrayImage``
    makes: ``pixels``, a (height, width) uint8 array that the package has
    just made and that nothing else refers to, is made read-only and kept.
    """
    pixels.setflags(write=False)
    image = object.__new__(GrayImage)
    object.__setattr__(image, "pixels", pixels)
    return image


def quantize_into(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``values`` rounded half away from zero and clamped to [0, 255]
    into the uint8 array ``out``.

    ``values``, a float64 array of ``out``'s shape, is used as scratch: it
    is clamped in place and left holding the clamped values plus 0.5. The
    cast truncates, which for those values (all >= 0.5) is floor(x + 0.5),
    round-half-away for x >= 0. A value below 0 is clamped to 0 first and
    so gives 0, as floor(x + 0.5) clamped would.
    """
    np.clip(values, 0, 255, out=values)
    np.add(values, 0.5, out=values)
    np.copyto(out, values, casting="unsafe")


def quantize(values) -> GrayImage:
    """Image of ``values`` rounded and clamped as by ``quantize_into``."""
    values = np.array(values, dtype=np.float64)
    out = np.empty(values.shape, dtype=np.uint8)
    quantize_into(values, out)
    return GrayImage(out)


def to_gray(rgb_samples, width: int, height: int) -> GrayImage:
    """Convert 8-bit RGB triplets to grayscale via Rec.601 luma.

    ``rgb_samples`` may be a flat sequence of length 3*w*h or an
    (h, w, 3) array. Luma = round(0.299 R + 0.587 G + 0.114 B), clamped.
    """
    arr = np.asarray(rgb_samples)
    if arr.size != 3 * width * height:
        raise ValueError(
            f"sample count {arr.size} != 3*width*height = {3 * width * height}"
        )
    arr = arr.reshape(height, width, 3)
    # numpy float64 weights make each product float64 for any sample dtype.
    wr, wg, wb = np.array([0.299, 0.587, 0.114])
    return quantize(wr * arr[:, :, 0] + wg * arr[:, :, 1] + wb * arr[:, :, 2])


def _read_header_tokens(data: bytes, count: int, start: int) -> tuple[list[bytes], int]:
    """Read ``count`` whitespace-delimited tokens, skipping '#' comments."""
    tokens = []
    i = start
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise FormatError("truncated PGM header")
        tokens.append(data[i:j])
        i = j
    return tokens, i


def load_pgm(path) -> GrayImage:
    """Load a binary PGM (P5) file with maxval 255.

    Raises FileNotFoundError for missing files and FormatError for
    malformed headers or any other maxval (unsupported depth).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    try:
        tokens, pos = _read_header_tokens(data, 3, 2)
        width, height, maxval = (int(t) for t in tokens)
    except (ValueError, FormatError) as exc:
        raise FormatError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported depth (maxval {maxval}, need 255)")
    # Exactly one whitespace byte separates the header from the raster.
    pos += 1
    needed = width * height
    raster = data[pos : pos + needed]
    if len(raster) < needed:
        raise FormatError(f"{path}: truncated raster ({len(raster)}/{needed} bytes)")
    samples = np.frombuffer(raster, dtype=np.uint8, count=needed)
    return GrayImage(samples.reshape(height, width))


def save_pgm(image: GrayImage, path) -> None:
    """Write a binary PGM (P5), maxval 255, bit-exact samples."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.pixels.tobytes())


def _load_png(path) -> GrayImage:
    try:
        from PIL import Image
    except ImportError as exc:  # pragma: no cover - Pillow present in CI
        raise FormatError(
            f"{path}: PNG reading requires Pillow (pip install tetrascale[png])"
        ) from exc
    with Image.open(path) as im:
        if im.mode == "L":
            return GrayImage(np.asarray(im, dtype=np.uint8))
        if im.mode == "RGB":
            arr = np.asarray(im, dtype=np.uint8)
            return to_gray(arr, im.width, im.height)
        raise FormatError(
            f"{path}: unsupported PNG mode {im.mode!r} (need 8-bit L or RGB)"
        )


def load_image(path) -> GrayImage:
    """Load a grayscale image, dispatching on file extension (.pgm/.png)."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".pgm":
        return load_pgm(path)
    if ext == ".png":
        return _load_png(path)
    raise FormatError(f"{path}: unsupported image extension {ext!r}")
