import hashlib
import math

import numpy as np
import pytest

from tetrascale import GrayImage, resize
from tetrascale.interpolate import (
    MAX_OUTPUT_PIXELS,
    SCHEMES,
    _bicubic_field,
    _quantize,
    _weighted_field,
    cubic_kernel,
    map_dst_to_src,
)
from tetrascale import weights as w

from conftest import constant_image, gray
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
        field = _bicubic_field(img, 2.0)
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
                field = _weighted_field(img, ratio, "TB")
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
            for ratio in (0.75, 1.5, 2.0, 3.0, 3.7, 1e-300)
        ],
    )
    def test_matches_per_pixel_reference(self, scheme, ratio, zero_block, rng):
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
        y, x = np.mgrid[0:64, 0:96]
        pixels = ((x * 37 + y * 91 + (x * y) % 13) % 256).astype(np.uint8)
        pixels[:8, :8] = 0
        img = GrayImage(pixels)
        digest = hashlib.sha256()
        for scheme in SCHEMES:
            for domain in ("raw", "unit"):
                for ratio in (0.75, 1.5, 3.0, 3.7):
                    out = resize(img, ratio, scheme, domain).pixels
                    digest.update(np.asarray(out.shape, dtype=np.int64).tobytes())
                    digest.update(out.tobytes())
        assert digest.hexdigest() == (
            "5f5c686c0494b4899f6b7afb19e281736099a11b641871ae919583ab5a7ebd40"
        )

    def test_intensity_domain_changes_ac_but_not_at(self, rng):
        """Dividing intensities by 255 cancels in AT's quotient (scale
        invariance) but shifts AC's balance against the fixed hypotenuse
        term."""
        img = GrayImage(rng.integers(0, 256, (16, 16)).astype(np.uint8))
        at_raw = _weighted_field(img, 3.0, "AT", "raw")
        at_unit = _weighted_field(img, 3.0, "AT", "unit")
        assert np.max(np.abs(at_raw - at_unit)) < 1e-9
        ac_raw = _weighted_field(img, 3.0, "AC", "raw")
        ac_unit = _weighted_field(img, 3.0, "AC", "unit")
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
