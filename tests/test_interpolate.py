import ast
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tetrascale import GrayImage, interpolate, resize
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
    """Resize ``image`` and return the broadcast shape of every (dx, dy)
    that ``weights.corner_sides`` was called with, in call order."""
    shapes = []
    original = w.corner_sides

    def spy(dx, dy):
        shapes.append(np.broadcast(dx, dy).shape)
        return original(dx, dy)

    monkeypatch.setattr(w, "corner_sides", spy)
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
        256x256 resize, two bands of 128 rows, evaluates its geometry once,
        on the 4 distinct dy x all 256 columns. No pixel is 0, so AT's
        fallback cannot fire."""
        img = GrayImage(rng.integers(1, 256, (64, 64)).astype(np.uint8))
        assert position_grids(monkeypatch, img, 4.0, scheme) == [(4, 256)]

    @pytest.mark.parametrize("scheme", POSITION_SCHEMES)
    def test_no_table_when_fractions_are_distinct(self, scheme, rng, monkeypatch):
        """At 2.7*sqrt(2) no fraction repeats, so each band's geometry is
        evaluated on the band itself: 244 columns in bands of 134 and 110
        rows."""
        img = GrayImage(rng.integers(1, 256, (64, 64)).astype(np.uint8))
        grids = position_grids(monkeypatch, img, IRRATIONAL_RATIO, scheme)
        assert grids == [(134, 244), (110, 244)]

    # A 12x10 image, bands of 400 pixels. At ratio 4 the output is 48x40 in
    # five 10-row bands, and its 4 distinct dy x 40 columns fit in one band:
    # one evaluation. At 3.7 it is 44x37 in bands of 10, 10, 10, 10 and 4
    # rows, and its 37 distinct dy do not fit: one evaluation per band, on
    # the band's rows.
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
            assert grids == [(10, 37)] * 4 + [(4, 37)]
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
    # 355- and 359-pixel rows at 3.7 into spans of 300 and the rest, and
    # splits the 300x97 outputs at 3.0 and 3.7 into blocks of 300 rows.
    # 2592 pixels makes bands of 7 to 36 rows here, none of which divides the
    # output height of formula_image() or of the 300x97 image below.
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
        """A 96x64 -> 1536x1024 resize allocates at most the output and its
        final ``GrayImage`` copy (2 B/px) plus 8 MiB, whatever the output
        size: measured 3.1 to 4.9 MiB with numpy 2.4. Resizing the whole
        output at once took 49 to 236 MiB."""
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
            pytest.param("TB", "raw", (64, 96), 4, 16, id="TB-raw-56"),
            pytest.param("MD", "raw", (64, 96), 4, 16, id="MD-raw-80"),
            pytest.param("HR", "raw", (64, 96), 4, 16, id="HR-raw-80"),
            pytest.param("AT", "raw", (64, 96), 4, 20, id="AT-raw-128"),
            pytest.param("AT", "unit", (64, 96), 4, 20, id="AT-unit-160"),
            pytest.param("AC", "raw", (64, 96), 4, 18, id="AC-raw-80"),
            pytest.param("AC", "unit", (64, 96), 4, 18, id="AC-unit-112"),
            pytest.param("TC", "raw", (64, 96), 4, 12, id="TC-raw-x4"),
            pytest.param("TC", "raw", (512, 2048), 0.5, 8, id="TC-raw-x0.5"),
            pytest.param("TB", "raw", (2048, 2048), 0.1, 36, id="TB-raw-x0.1"),
            pytest.param("TC", "raw", (2048, 2048), 0.1, 69, id="TC-raw-x0.1"),
        ],
    )
    def test_allocation_peak_per_output_pixel(self, scheme, domain, shape, ratio, bound):
        """Peak bytes allocated by one resize, per output pixel. At ratio 4
        the output is 384x256, four bands (85, 85, 85 and 1 rows), so one
        float64 grid of an 85-row band is about 2.7 B/px. At ratio 0.5 it is
        1024x256, eight bands of 32 rows. At ratio 0.1 it is 205x205, bands
        of 159 and 46 rows, so a float64 grid of a band is about 6.2 B/px.
        Each bound is the peak measured with numpy 2.4 (TB, MD, HR 14.6, AT
        raw and unit 18.3, AC raw and unit 16.0, TC 10.3 at ratio 4
        and 7.0 at ratio 0.5; TB 34.2 and TC 67.1 at ratio 0.1) plus less
        than 2 B/px, so one more float64 grid of a band fails it. The black
        corner runs AT's fallback, its largest path. TC's whole-image
        horizontal pass took 50.7 B/px at ratio 0.5, and 88.7 at ratio 0.1
        while it held a band's gathered source rows; AT's and AC's unit
        values on the four corner grids took 28.9 and 27.0 B/px, and AT unit
        20.7 B/px while it held two corners' values at once and its column
        grids of values through normalization; reading
        every source row between a band's first and last tap took TB 46.5
        and TC 136.2 B/px at ratio 0.1."""
        img = formula_image(*shape)
        out, peak = allocation_peak(lambda: resize(img, ratio, scheme, domain))
        assert peak / out.pixels.size < bound

    @pytest.mark.parametrize(
        "scheme,domain", [("AT", "unit"), ("AC", "raw"), ("AC", "unit")]
    )
    def test_value_terms_at_source_row_resolution(self, scheme, domain, monkeypatch):
        """AT's and AC's unit values and AC's partial areas v*v + a*a are
        evaluated on the band's left and right column grids, one row per
        source row the band reads, not on its four corner grids. At ratio 4
        the 384x256 output is cut into bands of at most 85 rows, which read
        at most 85/4 + 2 source rows."""
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
        out = resize(formula_image(), 4, scheme, domain)
        monkeypatch.undo()
        band_rows = interpolate._BAND_PIXELS // out.width
        assert band_rows == 85 and shapes
        assert all(rows <= band_rows // 4 + 2 and cols == 384 for rows, cols in shapes)

    @pytest.mark.parametrize(
        "scheme,domain,bound", [("TB", "raw", 36), ("AT", "unit", 37), ("TC", "raw", 48)]
    )
    def test_rows_wider_than_a_band_are_cut_into_spans(self, scheme, domain, bound):
        """A 1x131072 image at ratio 1 is one output row of four bands'
        pixels. Cut into column spans of ``_BAND_PIXELS``, its peak per output
        pixel is fixed: measured with numpy 2.4, TB 33.1, AT unit 35.1 and TC
        45.3 B/px, most of it the plan and the table of one span. As one band,
        the row took 79.0, 104.0 and 113.0 B/px."""
        pixels = ((np.arange(131072) * 37) % 256).astype(np.uint8)
        img = GrayImage(pixels[None, :])
        out, peak = allocation_peak(lambda: resize(img, 1.0, scheme, domain))
        assert out.pixels.shape == (1, 131072)
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

    def test_oracle_restates_the_weights(self):
        """``oracle.py`` has its own copy of the weighting formulas and of
        the intensity domain: it imports neither ``tetrascale.weights`` nor
        ``domain_values``, so a wrong formula cannot hide by being shared."""
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
        assert "tetrascale.interpolate.cubic_kernel" in imported
        shared = [
            name
            for name in imported
            if name.startswith("tetrascale.weights")
            or name.rsplit(".", 1)[-1] in ("weights", "_w", "domain_values")
        ]
        assert shared == []
