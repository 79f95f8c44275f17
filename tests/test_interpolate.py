import ast
import hashlib
import math
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tetrascale import GrayImage, _bands, interpolate, resize
from tetrascale.interpolate import (
    INTENSITY_DOMAINS,
    MAX_OUTPUT_PIXELS,
    SCHEMES,
    cubic_kernel,
    map_dst_to_src,
)
from tetrascale.image import quantize as _quantize
from tetrascale import weights as w

from conftest import constant_image, gray, whole_field
import oracle
from oracle import (
    Neighborhood,
    gather_neighborhood,
    interpolate_pixel,
    reference_resize,
    round_half_away,
)

#: Tags and the ``tetrascale.weights`` function each must call, written out
#: here rather than read from the package so a wrong mapping shows.
WEIGHT_FUNCTIONS = {
    "TB": "tetragon_weights",
    "MD": "md_weights",
    "HR": "hr_weights",
    "AT": "at_weights",
    "AC": "ac_weights",
}
WEIGHTED_SCHEMES = tuple(WEIGHT_FUNCTIONS)
INTENSITY_SCHEMES = ("AT", "AC")


def formula_image(height=64, width=96):
    """Image built from a formula, 96x64 unless given, with an 8x8 black
    top-left corner (where AT falls back to tetragon weights)."""
    y, x = np.mgrid[0:height, 0:width]
    pixels = ((x * 37 + y * 91 + (x * y) % 13) % 256).astype(np.uint8)
    pixels[:8, :8] = 0
    return GrayImage(pixels)


#: (scheme, domain) -> the bytes per source pixel that a 2048x2048 downscale
#: in one thread may allocate at ratios 0.5, 0.3 and 0.1. The intensity
#: domain changes only AT and AC.
DOWNSCALE_BOUNDS = {
    ("TN", "raw"): (1.2, 0.9, 0.6),
    ("TB", "raw"): (1.1, 1.0, 0.9),
    ("TC", "raw"): (1.7, 1.8, 1.5),
    ("MD", "raw"): (1.1, 1.0, 0.9),
    ("HR", "raw"): (1.1, 1.0, 0.9),
    ("AT", "raw"): (1.5, 1.3, 1.0),
    ("AT", "unit"): (1.9, 1.8, 1.2),
    ("AC", "raw"): (1.8, 1.6, 1.2),
    ("AC", "unit"): (2.3, 2.1, 1.5),
}


@pytest.fixture(scope="module")
def square_2048():
    """``formula_image(2048, 2048)``, built once: it takes about 0.2 s."""
    return formula_image(2048, 2048)


def allocation_peak(call):
    """``call()``'s result and the peak bytes that tracemalloc saw it
    allocate."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def outputs_digest():
    """SHA-256 over ``formula_image()`` resized by every scheme, domain and
    ratio 0.75, 1.5, 3.0, 3.7."""
    img = formula_image()
    digest = hashlib.sha256()
    for scheme in SCHEMES:
        for domain in INTENSITY_DOMAINS:
            for ratio in (0.75, 1.5, 3.0, 3.7):
                out = resize(img, ratio, scheme, domain).pixels
                digest.update(np.asarray(out.shape, dtype=np.int64).tobytes())
                digest.update(out.tobytes())
    return digest.hexdigest()


#: ``outputs_digest()`` of the code the per-pixel oracle was checked against.
PINNED_DIGEST = "5f5c686c0494b4899f6b7afb19e281736099a11b641871ae919583ab5a7ebd40"


# ---------------------------------------------------------------------------
# Reference implementations (independent oracles; the per-pixel one is in
# oracle.py)
# ---------------------------------------------------------------------------

def closed_form_bilinear(pixels, ratio):
    """Separable lerp-form bilinear oracle, independent of the weight path."""
    h, win = pixels.shape
    out_w = max(1, math.floor(win * ratio + 0.5))
    out_h = max(1, math.floor(h * ratio + 0.5))
    sx = (np.arange(out_w) + 0.5) / ratio - 0.5
    sy = (np.arange(out_h) + 0.5) / ratio - 0.5
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    xl = np.clip(x0.astype(int), 0, win - 1)
    xr = np.clip(x0.astype(int) + 1, 0, win - 1)
    yt = np.clip(y0.astype(int), 0, h - 1)
    yb = np.clip(y0.astype(int) + 1, 0, h - 1)
    px = pixels.astype(np.float64)
    rows = px[:, xl] * (1.0 - fx) + px[:, xr] * fx
    return rows[yt, :] * (1.0 - fy)[:, None] + rows[yb, :] * fy[:, None]


# ---------------------------------------------------------------------------
# Scalar operations
# ---------------------------------------------------------------------------

class TestMapDstToSrc:
    def test_upscale_by_two(self):
        assert map_dst_to_src(0, 2.0) == -0.25
        assert map_dst_to_src(1, 2.0) == 0.25

    def test_identity_at_scale_one(self):
        for dst in range(10):
            assert map_dst_to_src(dst, 1.0) == dst


class TestGatherNeighborhood:
    def test_interior(self, random_image):
        img = random_image(4, 4)
        n = gather_neighborhood(img, 0.25, 0.5)
        assert n.values == (
            img.pixels[0, 0],
            img.pixels[0, 1],
            img.pixels[1, 0],
            img.pixels[1, 1],
        )
        assert (n.dx, n.dy) == (0.25, 0.5)

    def test_negative_coordinate_clamps_columns(self, random_image):
        img = random_image(4, 4)
        n = gather_neighborhood(img, -0.25, 0.0)
        assert n.dx == 0.75
        # Anchor column is -1; both left and right columns clamp to column 0.
        assert n.values[0] == n.values[1] == img.pixels[0, 0]
        assert n.values[2] == n.values[3] == img.pixels[1, 0]

    def test_integer_coordinate_has_zero_offset(self, random_image):
        img = random_image(4, 4)
        n = gather_neighborhood(img, 2.0, 1.0)
        assert (n.dx, n.dy) == (0.0, 0.0)
        assert n.values[0] == img.pixels[1, 2]


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 1.0), (1.5, 2.0), (2.5, 3.0), (-0.5, -1.0), (-1.5, -2.0), (0.49, 0.0)],
    )
    def test_half_away_from_zero(self, value, expected):
        assert float(round_half_away(value)) == expected

    def test_quantize_rounds_half_away_and_clamps(self):
        field = np.array([[-0.5, -0.2, 0.5, 2.5, 254.5, 255.5, 300.0]])
        assert _quantize(field).pixels.tolist() == [[0, 0, 1, 3, 255, 255, 255]]


class TestInterpolatePixel:
    def test_single_corner(self):
        n = Neighborhood((7, 1, 2, 3), 0.0, 0.0)
        assert interpolate_pixel(n, (1.0, 0.0, 0.0, 0.0)) == 7

    def test_uniform_weights(self):
        n = Neighborhood((0, 0, 0, 4), 0.5, 0.5)
        assert interpolate_pixel(n, (0.25, 0.25, 0.25, 0.25)) == 1

    def test_rounding_at_half(self):
        n = Neighborhood((10, 20, 30, 40), 0.0, 0.0)
        # dot product 22.5 rounds away from zero to 23
        assert interpolate_pixel(n, (0.375, 0.125, 0.375, 0.125)) == 23


class TestCubicKernel:
    def test_knots(self):
        assert float(cubic_kernel(0.0)) == 1.0
        assert float(cubic_kernel(1.0)) == 0.0
        assert float(cubic_kernel(2.0)) == 0.0
        assert float(cubic_kernel(-1.0)) == 0.0

    def test_half(self):
        assert float(cubic_kernel(0.5)) == pytest.approx(0.5625, abs=1e-15)

    def test_outer_lobe(self):
        assert float(cubic_kernel(1.5)) == pytest.approx(-0.0625, abs=1e-15)

    def test_partition_of_unity(self, rng):
        t = rng.random(500)
        total = sum(cubic_kernel(t - i) for i in range(-1, 3))
        assert np.max(np.abs(total - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# Resizing
# ---------------------------------------------------------------------------

class TestNearest:
    def test_identity_at_ratio_one(self, random_image):
        img = random_image(8, 8)
        assert resize(img, 1.0, "TN") == img

    def test_single_pixel_blows_up_to_constant(self):
        img = gray(1, 1, [42])
        out = resize(img, 4.0, "TN")
        assert (out.width, out.height) == (4, 4)
        assert np.all(out.pixels == 42)

    def test_two_by_two_block_pattern(self):
        img = GrayImage(np.array([[0, 100], [100, 200]], dtype=np.uint8))
        out = resize(img, 2.0, "TN")
        expected = np.array(
            [
                [0, 0, 100, 100],
                [0, 0, 100, 100],
                [100, 100, 200, 200],
                [100, 100, 200, 200],
            ],
            dtype=np.uint8,
        )
        assert np.array_equal(out.pixels, expected)


class TestBicubic:
    def test_identity_at_ratio_one(self, random_image):
        img = random_image(12, 12)
        assert resize(img, 1.0, "TC") == img

    def test_constant_preserved(self):
        img = constant_image(8, 8, 201)
        assert np.all(resize(img, 3.0, "TC").pixels == 201)

    def test_reproduces_linear_ramp_in_interior(self):
        """The cubic kernel reproduces linear functions exactly (checked on
        the pre-quantization field, away from the clamped borders)."""
        h = win = 16
        yy, xx = np.mgrid[0:h, 0:win]
        img = GrayImage((3 * xx + 2 * yy).astype(np.uint8))
        field = whole_field(img, 2.0, "TC")
        sx = (np.arange(field.shape[1]) + 0.5) / 2.0 - 0.5
        sy = (np.arange(field.shape[0]) + 0.5) / 2.0 - 0.5
        # Keep taps anchor-1 .. anchor+2 inside the image.
        cols = (sx >= 1.0) & (sx <= win - 3)
        rows = (sy >= 1.0) & (sy <= h - 3)
        expected = 3 * sx[cols][None, :] + 2 * sy[rows][:, None]
        assert np.max(np.abs(field[np.ix_(rows, cols)] - expected)) < 1e-9


class TestWeightedResize:
    def test_bilinear_matches_closed_form_oracle(self, rng):
        for _ in range(20):
            px = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            img = GrayImage(px)
            for ratio in (2.0, 4.0):
                field = whole_field(img, ratio, "TB")
                oracle = closed_form_bilinear(px, ratio)
                assert np.max(np.abs(field - oracle)) < 1e-9

    @pytest.mark.parametrize("scheme", ("TB", "MD"))
    def test_identity_at_ratio_one(self, scheme, random_image):
        img = random_image(9, 7)
        assert resize(img, 1.0, scheme) == img

    def test_hr_not_identity_at_ratio_one(self, random_image):
        img = random_image(8, 8)
        assert resize(img, 1.0, "HR") != img

    @pytest.mark.parametrize("scheme", WEIGHTED_SCHEMES)
    def test_constant_preserved(self, scheme):
        img = constant_image(6, 10, 93)
        for ratio in (2.0, 4.0):
            for domain in ("raw", "unit"):
                out = resize(img, ratio, scheme, domain)
                assert np.all(out.pixels == 93)


#: Tags whose position-only arrays ``resize`` evaluates once per block: TB's,
#: MD's and HR's weights, AT's half-hypotenuses.
POSITION_SCHEMES = ("TB", "MD", "HR", "AT")

#: A ratio at which no fraction repeats along an axis.
IRRATIONAL_RATIO = 2.7 * math.sqrt(2)


def position_grids(monkeypatch, image, ratio, scheme, domain="raw"):
    """Resize ``image`` in one thread and return the broadcast shape of
    every (dx, dy) that ``weights.corner_sides`` was called with, in call
    order."""
    shapes = []
    original = w.corner_sides

    def spy(dx, dy):
        shapes.append(np.broadcast(dx, dy).shape)
        return original(dx, dy)

    monkeypatch.setattr(w, "corner_sides", spy)
    monkeypatch.setattr(_bands, "_WORKERS", 1)
    resize(image, ratio, scheme, domain)
    monkeypatch.undo()
    return shapes


class TestPositionTables:
    """``resize`` evaluates a scheme's position-only arrays once per block,
    on all dx x the distinct dy, when that table holds at most one band's
    pixels, and once per band otherwise; the ``weights`` functions evaluate
    exactly the grid they are given. Either way the output is the
    oracle's."""

    @pytest.mark.parametrize("scheme", POSITION_SCHEMES)
    def test_tables_engage_when_fractions_repeat(self, scheme, rng, monkeypatch):
        """At ratio 4 every axis has 4 distinct fractions, so a 64x64 ->
        256x256 resize, one band, evaluates its geometry once, on the 4
        distinct dy x all 256 columns. No pixel is 0, so AT's
        fallback cannot fire."""
        img = GrayImage(rng.integers(1, 256, (64, 64)).astype(np.uint8))
        assert position_grids(monkeypatch, img, 4.0, scheme) == [(4, 256)]

    @pytest.mark.parametrize("scheme", POSITION_SCHEMES)
    def test_no_table_when_fractions_are_distinct(self, scheme, rng, monkeypatch):
        """At 2.7*sqrt(2) no fraction repeats, so each band's geometry is
        evaluated on the band itself: 305 columns in bands of 152 and 153
        rows, none above the 214 rows of 2^16 pixels."""
        img = GrayImage(rng.integers(1, 256, (80, 80)).astype(np.uint8))
        grids = position_grids(monkeypatch, img, IRRATIONAL_RATIO, scheme)
        assert grids == [(152, 305), (153, 305)]

    # A 12x10 image, bands of 400 pixels. At ratio 4 the output is 48x40 in
    # five 10-row bands, and its 4 distinct dy x 40 columns fit in one band:
    # one evaluation. At 3.7 it is 44x37 in five bands of at most 10 rows,
    # 8, 9, 9, 9 and 9, and its 37 distinct dy do not fit: one evaluation
    # per band, on the band's rows.
    @pytest.mark.parametrize("scheme", POSITION_SCHEMES)
    @pytest.mark.parametrize("ratio", (4.0, 3.7), ids=("once-per-resize", "per-band"))
    def test_position_work_once_per_resize_when_it_fits(
        self, scheme, ratio, rng, monkeypatch
    ):
        img = GrayImage(rng.integers(1, 256, (12, 10)).astype(np.uint8))
        monkeypatch.setattr(interpolate, "_BAND_PIXELS", 400)
        grids = position_grids(monkeypatch, img, ratio, scheme)
        if ratio == 4.0:
            assert grids == [(4, 40)]
        else:
            assert grids == [(8, 37)] + [(9, 37)] * 4
        # position_grids undid every patch, the band size's too.
        monkeypatch.setattr(interpolate, "_BAND_PIXELS", 400)
        out = resize(img, ratio, scheme)
        assert np.array_equal(out.pixels, reference_resize(img, ratio, scheme).pixels)

    # Fractions computed in float64 repeat only up to rounding: at ratio 3
    # an axis of 9, 24 and 30 has 7, 9 and 11 distinct values, and at
    # 2.7*sqrt(2) every value is distinct. Each id says which axes have
    # mostly repeated fractions ("tabled") and which mostly distinct ones
    # ("direct"); every output fits in one band, so ``resize`` tables all
    # of them on all dx x the distinct dy.
    @pytest.mark.parametrize(
        "shape,ratio",
        [
            pytest.param((10, 8), 3.0, id="both-tabled"),
            pytest.param((8, 6), IRRATIONAL_RATIO, id="both-direct"),
            pytest.param((3, 10), 3.0, id="columns-tabled"),
            pytest.param((10, 3), 3.0, id="rows-tabled"),
        ],
    )
    def test_either_side_of_the_choice_matches_oracle(self, shape, ratio, rng):
        pixels = rng.integers(0, 256, shape).astype(np.uint8)
        pixels[:2, :2] = 0
        img = GrayImage(pixels)
        for scheme in SCHEMES:
            for domain in INTENSITY_DOMAINS:
                out = resize(img, ratio, scheme, domain)
                ref = reference_resize(img, ratio, scheme, domain)
                assert np.array_equal(out.pixels, ref.pixels), (scheme, domain)


class TestResizeDispatch:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize(
        "ratio,zero_block",
        [
            # Plain cases take the bare ratio as their id, so those ids stay stable.
            pytest.param(
                ratio, zero_block, id=f"{ratio}-zero_block" if zero_block else f"{ratio}"
            )
            for zero_block in (False, True)
            for ratio in (0.75, 1.5, 2.0, 3.0, 3.7, 1e-300, 0.3)
        ],
    )
    def test_matches_per_pixel_reference(self, scheme, ratio, zero_block, rng):
        """At ratio 0.3 the taps of the 2x3 output reach 6 of the 9 source
        rows, so the band gathers those alone."""
        pixels = rng.integers(0, 256, (9, 8)).astype(np.uint8)
        if zero_block:
            pixels[:3, :3] = 0
        img = GrayImage(pixels)
        out = resize(img, ratio, scheme)
        ref = reference_resize(img, ratio, scheme)
        assert np.array_equal(out.pixels, ref.pixels), scheme

    @pytest.mark.parametrize("scheme", INTENSITY_SCHEMES)
    def test_unit_domain_matches_reference(self, scheme, rng):
        img = GrayImage(rng.integers(0, 256, (7, 9)).astype(np.uint8))
        out = resize(img, 2.5, scheme, "unit")
        ref = reference_resize(img, 2.5, scheme, "unit")
        assert np.array_equal(out.pixels, ref.pixels)

    def test_outputs_pinned(self):
        """One SHA-256 over the output of every scheme, domain and ratio on a
        formula-built image with a black corner. Its .5 ties flip when a
        summation order changes (a separable TB moves 1, 8 and 22 pixels at
        ratios 0.75, 1.5 and 3.7), which the 9x8 oracle test can miss."""
        assert outputs_digest() == PINNED_DIGEST

    # 300 pixels makes bands of one row at ratios 3.0 and 3.7, cuts the
    # 355- and 359-pixel rows at 3.7 into two column spans each, and splits
    # the 300x97 outputs at 3.0 and 3.7 into blocks of at most 300 rows.
    # 2592 pixels makes bands of at most 7 to 36 rows here, of two heights
    # where their count does not divide the output height (6 and 7 rows for
    # formula_image() at 3.7).
    @pytest.mark.parametrize("band_pixels", (300, 2592))
    def test_band_seams_are_exact(self, band_pixels, rng, monkeypatch):
        """Bands of one row, column spans, blocks, and bands that do not
        divide the output height, change no output byte. The black block lies
        in a later band, so AT's all-zero fallback runs there and not in the
        first band."""
        pixels = rng.integers(0, 256, (300, 97)).astype(np.uint8)
        pixels[200:212, 30:42] = 0
        img = GrayImage(pixels)
        cases = [
            (scheme, domain, ratio)
            for scheme in SCHEMES
            for domain in INTENSITY_DOMAINS
            for ratio in (0.75, 3.0, 3.7)
        ]
        monkeypatch.setattr(interpolate, "_BAND_PIXELS", MAX_OUTPUT_PIXELS)
        whole = [resize(img, ratio, s, d).pixels for s, d, ratio in cases]
        monkeypatch.setattr(interpolate, "_BAND_PIXELS", band_pixels)
        assert outputs_digest() == PINNED_DIGEST
        for (scheme, domain, ratio), expected in zip(cases, whole):
            out = resize(img, ratio, scheme, domain).pixels
            assert np.array_equal(out, expected), (scheme, domain, ratio)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("domain", INTENSITY_DOMAINS)
    def test_working_memory_is_banded(self, scheme, domain):
        """A 96x64 -> 1536x1024 resize allocates at most 2 B/px plus 8 MiB,
        whatever the output size and the CPU count: measured 1.6 to 5.0 MiB
        in one thread and 1.6 to 7.6 MiB in two with numpy 2.4, the output
        and one band's buffers and working set per thread, on at most
        ``_bands._THREADS`` threads. Resizing the whole output at once
        took 49 to 236 MiB."""
        img = formula_image()
        out, peak = allocation_peak(lambda: resize(img, 16, scheme, domain))
        assert out.pixels.shape == (1024, 1536)
        assert peak < 2 * out.pixels.size + 8 * 2**20

    # Each id of a 384x256 case ends with the bound the scheme had when the
    # whole output was computed at once, so the ids are the same as before
    # the bands.
    @pytest.mark.parametrize(
        "scheme,domain,shape,ratio,bound",
        [
            pytest.param("TB", "raw", (64, 96), 4, 13, id="TB-raw-56"),
            pytest.param("MD", "raw", (64, 96), 4, 13, id="MD-raw-80"),
            pytest.param("HR", "raw", (64, 96), 4, 13, id="HR-raw-80"),
            pytest.param("AT", "raw", (64, 96), 4, 26, id="AT-raw-128"),
            pytest.param("AT", "unit", (64, 96), 4, 26, id="AT-unit-160"),
            pytest.param("AC", "raw", (64, 96), 4, 24, id="AC-raw-80"),
            pytest.param("AC", "unit", (64, 96), 4, 24, id="AC-unit-112"),
            pytest.param("TC", "raw", (64, 96), 4, 15, id="TC-raw-x4"),
            pytest.param("TC", "raw", (512, 2048), 0.5, 17, id="TC-raw-x0.5"),
            pytest.param("TB", "raw", (2048, 2048), 0.1, 44, id="TB-raw-x0.1"),
            pytest.param("AT", "raw", (2048, 2048), 0.1, 60, id="AT-raw-x0.1"),
            pytest.param("AC", "unit", (2048, 2048), 0.1, 105, id="AC-unit-x0.1"),
            pytest.param("TC", "raw", (2048, 2048), 0.1, 102, id="TC-raw-x0.1"),
        ],
    )
    def test_allocation_peak_per_output_pixel(
        self, scheme, domain, shape, ratio, bound, monkeypatch
    ):
        """Peak bytes allocated by one resize in one thread, per output
        pixel. At ratio 4 the output is 384x256, two bands of 128 rows, so
        one float64 grid of a band is 4 B/px. At ratio 0.5 it is 1024x256,
        four bands of 64 rows (2 B/px a grid). At ratio 0.1 it is 205x205,
        one band (8 B/px a grid). Each bound is the peak measured with numpy
        2.4 (TB, MD, HR 11.2, AT raw 24.4 and unit 24.6, AC raw 22.0 and
        unit 22.8, TC 13.5 at ratio 4 and 16.0 at ratio 0.5; TB 42.6, AT raw
        58.6, AC unit 104.0 and TC 101.0 at ratio 0.1, where the band's
        buffers are held while its source rows are gathered, and AT's and
        AC's value terms live on column grids as tall as the band's source
        rows) plus less than 2 B/px, so one more float64 grid of a band
        fails it. Since ``_band_source`` also gathers the column grids, its
        row renumbering lives through those gathers: TB reads 43.1 and AT
        raw 59.1 at ratio 0.1, the others the same. With bands of 170 and
        86 rows, and buffers sized for the first, the ratio-4 cases took TB,
        MD, HR 14.1, AT raw 31.4 and unit 32.0, AC raw 28.8 and unit 29.6,
        and TC 16.9 B/px.
        TB, MD and HR took 24.7 B/px, and TB 58.6 at ratio 0.1, with four
        float64 band arrays each. The black corner runs AT's fallback, its
        largest path. TC's whole-image horizontal pass took 50.7 B/px at ratio 0.5, and
        88.7 at ratio 0.1 while it held a band's gathered source rows; AT's
        and AC's unit values on the four corner grids took 28.9 and 27.0
        B/px, and AT unit 20.7 B/px while it held two corners' values at
        once and its column grids of values through normalization; reading
        every source row between a band's first and last tap took TB 46.5
        and TC 136.2 B/px at ratio 0.1 (all with bands of 2^15 pixels)."""
        monkeypatch.setattr(_bands, "_WORKERS", 1)
        img = formula_image(*shape)
        out, peak = allocation_peak(lambda: resize(img, ratio, scheme, domain))
        assert peak / out.pixels.size < bound

    @pytest.mark.parametrize(
        "scheme,domain,ratio,bound",
        [
            pytest.param(scheme, domain, ratio, bound, id=f"{scheme}-{domain}-x{ratio}")
            for (scheme, domain), bounds in DOWNSCALE_BOUNDS.items()
            for ratio, bound in zip((0.5, 0.3, 0.1), bounds)
        ],
    )
    def test_downscale_allocation_peak_per_source_pixel(
        self, scheme, domain, ratio, bound, square_2048, monkeypatch
    ):
        """Peak bytes allocated by one downscale of a 2048x2048 image in one
        thread, per source pixel, which bounds a strong downscale better
        than per output pixel does: the source rows a band reads and its
        column grids scale with the source width, not the output's. Each
        bound in ``DOWNSCALE_BOUNDS`` is the peak measured with numpy 2.4
        plus less than 0.5 B per source pixel (ratio 0.5 / 0.3 / 0.1): TN
        0.76 / 0.39 / 0.11; TB, MD and HR 0.62 / 0.57 / 0.43; TC 1.20 / 1.39
        / 1.01; AT raw 1.03 / 0.88 / 0.59 and unit 1.48 / 1.31 / 0.79; AC
        raw 1.36 / 1.16 / 0.72 and unit 1.86 / 1.64 / 1.04."""
        monkeypatch.setattr(_bands, "_WORKERS", 1)
        _, peak = allocation_peak(lambda: resize(square_2048, ratio, scheme, domain))
        assert peak / square_2048.pixels.size < bound

    @pytest.mark.parametrize(
        "scheme,domain,shape,ratio",
        [
            pytest.param("TB", "raw", (64, 256), 4, id="TB-raw-x4"),
            pytest.param("MD", "raw", (64, 256), 4, id="MD-raw-x4"),
            pytest.param("HR", "raw", (64, 256), 4, id="HR-raw-x4"),
            pytest.param("AT", "raw", (64, 256), 4, id="AT-raw-x4"),
            pytest.param("AT", "unit", (64, 256), 4, id="AT-unit-x4"),
            pytest.param("AC", "raw", (64, 256), 4, id="AC-raw-x4"),
            pytest.param("AC", "unit", (64, 256), 4, id="AC-unit-x4"),
            pytest.param("TC", "raw", (64, 256), 4, id="TC-raw-x4"),
            pytest.param("TC", "raw", (512, 2048), 0.5, id="TC-raw-x0.5"),
        ],
    )
    def test_allocation_peak_per_output_pixel_in_two_threads(
        self, scheme, domain, shape, ratio, monkeypatch
    ):
        """A second thread adds at most one band's buffers and working set.
        Each output is 1024x256, four bands of 64 rows, so two threads run
        two bands each. However the threads interleave, the peak is at most
        the output, the plan, both threads' buffers and both bands' working
        sets at their largest at once, and the helper's bookkeeping (about 4
        KB): less than twice the one-thread peak minus the output, which
        counts the plan (over 30 KB here) twice. Measured with numpy 2.4
        (B/px, one thread / highest of 40 runs in two threads / bound): TB,
        MD, HR 6.3 / 11.0 / 11.6, AT raw 12.9 / 23.3 / 24.7, AT unit 13.2 /
        24.7 / 25.4, AC raw 11.5 / 22.0 / 22.1, AC unit 12.1 / 22.9 / 23.1, TC
        7.4 / 13.4 / 13.8 at ratio 4 and 16.0 / 30.6 / 31.0 at ratio 0.5."""
        img = formula_image(*shape)
        monkeypatch.setattr(_bands, "_WORKERS", 1)
        out, single = allocation_peak(lambda: resize(img, ratio, scheme, domain))
        monkeypatch.setattr(_bands, "_WORKERS", 2)
        threads = _band_threads(monkeypatch)
        _, double = allocation_peak(lambda: resize(img, ratio, scheme, domain))
        assert len(threads) == 2
        assert double < 2 * single - out.pixels.nbytes

    @pytest.mark.parametrize("scheme", ("TN", "TB", "TC"))
    def test_output_is_allocated_once(self, scheme, monkeypatch):
        """``resize`` hands its uint8 output to ``GrayImage``, which keeps it
        without a copy: a 16x16 -> 4096x4096 resize in one thread allocates
        less than 1.5 B/px (measured 1.01 to 1.27 with numpy 2.4; 2.01 to
        2.03 while the output was copied)."""
        monkeypatch.setattr(_bands, "_WORKERS", 1)
        img = formula_image(16, 16)
        out, peak = allocation_peak(lambda: resize(img, 256, scheme))
        assert out.pixels.shape == (4096, 4096)
        assert not out.pixels.flags.writeable
        assert peak / out.pixels.size < 1.5

    @pytest.mark.parametrize(
        "scheme,domain", [("AT", "unit"), ("AC", "raw"), ("AC", "unit")]
    )
    def test_value_terms_at_source_row_resolution(self, scheme, domain, monkeypatch):
        """AT's and AC's unit values and AC's partial areas v*v + a*a are
        evaluated on the band's left and right column grids, one row per
        source row the band reads, not on its four corner grids. At ratio 4
        the 384x256 output is cut into two bands of 128 rows, which read at
        most 128/4 + 2 source rows."""
        shapes = []
        original_values = interpolate.domain_values
        original_partial = w.ac_partial_areas

        def values(grids, d):
            shapes.extend(np.shape(g) for g in grids)
            return original_values(grids, d)

        def partial(dx, left, right):
            shapes.extend((np.shape(left), np.shape(right)))
            return original_partial(dx, left, right)

        monkeypatch.setattr(interpolate, "domain_values", values)
        monkeypatch.setattr(w, "ac_partial_areas", partial)
        monkeypatch.setattr(_bands, "_WORKERS", 1)
        out = resize(formula_image(), 4, scheme, domain)
        monkeypatch.undo()
        bands = _bands.rows(out.height, out.width, interpolate._BAND_PIXELS, 1)
        band_rows = max(map(len, bands))
        assert band_rows == 128 and shapes
        assert all(rows <= band_rows // 4 + 2 and cols == 384 for rows, cols in shapes)

    @pytest.mark.parametrize(
        "scheme,domain,bound", [("TB", "raw", 36), ("AT", "unit", 37), ("TC", "raw", 48)]
    )
    def test_rows_wider_than_a_band_are_cut_into_spans(self, scheme, domain, bound):
        """A 1x262144 image at ratio 1 is one output row of four bands'
        pixels. Cut into column spans of ``_BAND_PIXELS``, its peak per output
        pixel is fixed: measured with numpy 2.4, TB 33.0, AT unit 35.0 and TC
        45.3 B/px, most of it the plan and the table of one span. As one band,
        the row took 96.3, 120.0 and 115.0 B/px."""
        width = 4 * interpolate._BAND_PIXELS
        pixels = ((np.arange(width) * 37) % 256).astype(np.uint8)
        img = GrayImage(pixels[None, :])
        out, peak = allocation_peak(lambda: resize(img, 1.0, scheme, domain))
        assert out.pixels.shape == (1, width)
        assert peak / out.pixels.size < bound

    def test_intensity_domain_changes_ac_but_not_at(self, rng):
        """Dividing intensities by 255 cancels in AT's quotient (scale
        invariance) but shifts AC's balance against the fixed hypotenuse
        term."""
        img = GrayImage(rng.integers(0, 256, (16, 16)).astype(np.uint8))
        at_raw = whole_field(img, 3.0, "AT", "raw")
        at_unit = whole_field(img, 3.0, "AT", "unit")
        assert np.max(np.abs(at_raw - at_unit)) < 1e-9
        ac_raw = whole_field(img, 3.0, "AC", "raw")
        ac_unit = whole_field(img, 3.0, "AC", "unit")
        assert np.max(np.abs(ac_raw - ac_unit)) > 0.5

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_deterministic(self, scheme, random_image):
        img = random_image(12, 12)
        assert resize(img, 2.0, scheme) == resize(img, 2.0, scheme)

    def test_output_dimensions_round(self):
        img = constant_image(10, 10, 1)
        out = resize(img, 1.25, "TB")
        assert (out.width, out.height) == (13, 13)  # floor(12.5 + 0.5)

    def test_minimum_output_size_is_one(self):
        img = constant_image(4, 4, 5)
        out = resize(img, 0.1, "TN")
        assert (out.width, out.height) == (1, 1)

    @pytest.mark.parametrize("bad", (0.0, -1.0, math.inf, math.nan, 5e-324))
    def test_invalid_ratio_rejected(self, bad, random_image):
        with pytest.raises(ValueError):
            resize(random_image(4, 4), bad, "TB")

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("ratio", (1e7, 1e308))
    def test_output_over_limit_rejected(self, scheme, ratio):
        """Refused before anything is allocated: at 1e7 a 2x2 input asks for
        4e14 pixels, and 1e308 overflows n * ratio to inf."""
        with pytest.raises(ValueError, match=f"exceed {MAX_OUTPUT_PIXELS} pixels"):
            resize(gray(2, 2, [10, 20, 30, 40]), ratio, scheme)

    def test_unknown_scheme_rejected(self, random_image):
        with pytest.raises(ValueError):
            resize(random_image(4, 4), 2.0, "XX")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rejects_unknown_domain(self, scheme, random_image):
        with pytest.raises(ValueError, match="intensity domain"):
            resize(random_image(4, 4), 2.0, scheme, "percent")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_calls_its_weight_function_once(self, scheme, rng, monkeypatch):
        """Each weighted tag calls exactly its own ``weights`` function, looked
        up on the module at call time; TN and TC call none. No pixel is 0, so
        AT's all-zero fallback to tetragon weights cannot fire."""
        calls = []
        for name in WEIGHT_FUNCTIONS.values():
            original = getattr(w, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(w, name, counting)
        img = GrayImage(rng.integers(1, 256, (5, 6)).astype(np.uint8))
        resize(img, 2.0, scheme)
        expected = [WEIGHT_FUNCTIONS[scheme]] if scheme in WEIGHT_FUNCTIONS else []
        assert calls == expected


def _band_threads(monkeypatch):
    """Record, in the returned set, every thread that rounds a band into
    the output."""
    threads = set()
    original = interpolate._quantize

    def spied(values, out):
        threads.add(threading.current_thread())
        return original(values, out)

    monkeypatch.setattr(interpolate, "_quantize", spied)
    return threads


def _even_spans(n, most):
    """The lengths of the fewest spans of at most ``most`` that cover n
    indices, which differ by at most one."""
    count = -(-n // most)
    return [n // count + (i < n % count) for i in range(count)]


def _expected_threads(count, shape, band_pixels):
    """Threads that round the bands of an output of ``shape``, cut into
    blocks of at most ``band_pixels`` rows and columns and bands of at most
    ``band_pixels`` pixels, with up to ``count`` threads: the calling
    thread, and per block one helper per chunk after the first, with at
    most one chunk per two bands."""
    helpers = 0
    for height in _even_spans(shape[0], band_pixels):
        for width in _even_spans(shape[1], band_pixels):
            bands = -(-height // max(1, band_pixels // width))
            helpers += max(1, min(count, bands // 2)) - 1
    return 1 + helpers


class TestBandThreads:
    """``resize`` runs each block's bands on up to ``_bands._WORKERS``
    threads, at most ``_bands._THREADS``, and its output bytes are the
    same for any count."""

    @pytest.mark.parametrize("count", (1, 2, 3, 16))
    @pytest.mark.parametrize("band_pixels", (100, 700))
    def test_outputs_equal_for_any_thread_count(self, count, band_pixels, rng, monkeypatch):
        """A 60x40 image, cut into blocks of at most 100 rows and columns
        (bands of one or two rows), or into bands of at most 3 and 15 rows
        (the 148 rows of the 222x148 output in 50 bands of 2 or 3), resized
        by every scheme and domain with up to ``count`` threads (``count``
        usable CPUs, and the cap raised to match): every output equals the
        one-thread output
        of one band, the bands of each block ran on as many threads as
        ``_bands.run`` gives, and no thread is left running once
        ``resize`` returns."""
        pixels = rng.integers(0, 256, (40, 60)).astype(np.uint8)
        pixels[30:36, 10:16] = 0
        img = GrayImage(pixels)
        cases = [
            (scheme, domain, ratio)
            for scheme in SCHEMES
            for domain in INTENSITY_DOMAINS
            for ratio in (0.75, 3.0, 3.7)
        ]
        monkeypatch.setattr(_bands, "_WORKERS", 1)
        monkeypatch.setattr(interpolate, "_BAND_PIXELS", MAX_OUTPUT_PIXELS)
        whole = [resize(img, ratio, s, d).pixels for s, d, ratio in cases]
        monkeypatch.setattr(_bands, "_WORKERS", count)
        monkeypatch.setattr(_bands, "_THREADS", count)
        monkeypatch.setattr(interpolate, "_BAND_PIXELS", band_pixels)
        threads = _band_threads(monkeypatch)
        alive = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            for (scheme, domain, ratio), expected in zip(cases, whole):
                threads.clear()
                out = resize(img, ratio, scheme, domain).pixels
                assert np.array_equal(out, expected), (scheme, domain, ratio)
                if scheme == "TN":
                    assert not threads
                    continue
                assert len(threads) == _expected_threads(count, out.shape, band_pixels)
                assert threading.current_thread() in threads
                helpers = threads - {threading.current_thread()}
                assert not any(helper.is_alive() for helper in helpers)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == alive, threading.enumerate()

    @pytest.mark.parametrize("scheme", ("TB", "TC", "AT"))
    def test_threads_are_capped_whatever_the_cpu_count(self, scheme, monkeypatch):
        """With 16 usable CPUs, the 25 bands of a 96x64 -> 1536x1024 resize
        still run on ``_bands._THREADS`` (2) threads, so the bound of
        ``TestResizeDispatch::test_working_memory_is_banded`` holds on any
        machine: with one thread per CPU, AT took 12.8 MiB on 4 and 31.9 MiB
        on 12."""
        monkeypatch.setattr(_bands, "_WORKERS", 16)
        threads = _band_threads(monkeypatch)
        out, peak = allocation_peak(lambda: resize(formula_image(), 16, scheme, "unit"))
        assert len(threads) == _bands._THREADS == 2
        assert peak < 2 * out.pixels.size + 8 * 2**20

    def test_two_threads_take_equal_rows(self, monkeypatch):
        """A 256x256 -> 768x768 resize (ratio 3) is cut into 10 bands of 76
        and 77 rows, none above the 85 rows of 2^16 pixels, so its two
        threads round 384 rows each. With 85-row bands and a last one of 3,
        they rounded 425 and 343."""
        monkeypatch.setattr(_bands, "_WORKERS", 2)
        rows = {}
        original = interpolate._quantize

        def spied(values, out):
            thread = threading.current_thread()
            rows[thread] = rows.get(thread, 0) + len(out)
            return original(values, out)

        monkeypatch.setattr(interpolate, "_quantize", spied)
        out = resize(formula_image(256, 256), 3, "TB")
        assert out.pixels.shape == (768, 768)
        assert rows[threading.current_thread()] == 384
        assert sorted(rows.values()) == [384, 384]

    def test_helper_error_is_raised_once_every_helper_has_joined(self, monkeypatch):
        """Three threads resize a 97x300 image at ratio 1 in 30 bands of 10
        rows, ten per thread. The first band of the first helper's chunk
        fails: the error is raised only after the calling thread and the
        other helper have rounded every band of theirs, and the next resize
        is whole again."""
        monkeypatch.setattr(_bands, "_WORKERS", 3)
        monkeypatch.setattr(_bands, "_THREADS", 3)
        monkeypatch.setattr(interpolate, "_BAND_PIXELS", 970)
        img = formula_image(300, 97)
        expected = resize(img, 1.0, "TB").pixels
        original = interpolate._weighted_field
        finished = []

        def failing(plan, band, *buffers):
            if band.start == 100:
                raise RuntimeError("band failed")
            time.sleep(0.002)
            field = original(plan, band, *buffers)
            finished.append(band.start)
            return field

        monkeypatch.setattr(interpolate, "_weighted_field", failing)
        with pytest.raises(RuntimeError, match="band failed"):
            resize(img, 1.0, "TB")
        assert sorted(finished) == [*range(0, 100, 10), *range(200, 300, 10)]
        monkeypatch.setattr(interpolate, "_weighted_field", original)
        assert np.array_equal(resize(img, 1.0, "TB").pixels, expected)


#: Ratios the property test below always has among its draws: powers of two,
#: ratios whose .5 ties flip when a summation order changes, one at which no
#: fraction repeats, strong downscales and 7.3, whose taps skip source rows.
PROPERTY_RATIOS = (4.0, 3.0, 3.7, IRRATIONAL_RATIO, 0.5, 0.3, 1.0, 5 / 3, 7.3)


class TestOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        pixels=arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9))),
        ratio=st.one_of(st.sampled_from(PROPERTY_RATIOS), st.floats(0.05, 6.0)),
        scheme=st.sampled_from(SCHEMES),
        domain=st.sampled_from(INTENSITY_DOMAINS),
        zero_block=st.booleans(),
        band_pixels=st.sampled_from((1, 2, 3, 5, 7, 16, 1 << 15)),
    )
    def test_resize_matches_oracle_on_any_input(
        self, pixels, ratio, scheme, domain, zero_block, band_pixels
    ):
        """Any small image, ratio, scheme and domain, with or without a 3x3
        black block (AT's all-zero fallback), cut into bands, spans and
        blocks of any size: ``resize`` reproduces the oracle bit for bit."""
        if zero_block:
            pixels[:3, :3] = 0
        img = GrayImage(pixels)
        original = interpolate._BAND_PIXELS
        interpolate._BAND_PIXELS = band_pixels
        try:
            out = resize(img, ratio, scheme, domain)
        finally:
            interpolate._BAND_PIXELS = original
        ref = reference_resize(img, ratio, scheme, domain)
        assert np.array_equal(out.pixels, ref.pixels)

    @pytest.mark.parametrize("ratio", (3.0, 1.5, 0.75, 3.7))
    def test_bicubic_field_is_the_oracle_sum(self, ratio, rng):
        """TC's field before rounding is the oracle's sums, not just after
        rounding, up to the ulp by which numpy's array cube and libm's
        ``pow`` can differ (``oracle.cubic_weight``)."""
        img = GrayImage(rng.integers(0, 256, (24, 24)).astype(np.uint8))
        field = whole_field(img, ratio, "TC")
        assert field.shape == (oracle.output_length(24, ratio),) * 2
        sx = [oracle.source_coordinate(x, ratio) for x in range(field.shape[1])]
        sy = [oracle.source_coordinate(y, ratio) for y in range(field.shape[0])]
        expected = [[oracle.bicubic_sum(img, x, y) for x in sx] for y in sy]
        assert np.max(np.abs(field - np.array(expected))) <= 1e-12

    def test_oracle_restates_the_weights(self):
        """``oracle.py`` has its own copy of the weighting formulas, of the
        cubic kernel, of the intensity domain and of the pixel grid: it
        imports neither ``tetrascale.weights`` nor anything of
        ``tetrascale.interpolate`` (``cubic_kernel``, ``domain_values``,
        ``map_dst_to_src``, ``_output_length``), nor what the package
        re-exports from it, so a wrong formula cannot hide by being
        shared."""
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
        shared = [
            name
            for name in imported
            if name.startswith(("tetrascale.weights", "tetrascale.interpolate"))
            or name.rsplit(".", 1)[-1] in ("weights", "_w", "domain_values", "cubic_kernel")
            or name in {f"tetrascale.{n}" for n in ("resize", "SCHEMES", "INTENSITY_DOMAINS")}
        ]
        assert shared == []
