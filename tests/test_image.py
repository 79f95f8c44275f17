import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrascale import FormatError, GrayImage, load_image, load_pgm, save_pgm, to_gray
from tetrascale.image import quantize, quantize_into

from conftest import gray
from oracle import get_clamped


class TestGrayImage:
    def test_shape_and_samples(self):
        img = gray(2, 2, [0, 255, 128, 64])
        assert (img.width, img.height) == (2, 2)
        assert list(img.pixels.ravel()) == [0, 255, 128, 64]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            GrayImage(np.zeros((2, 2, 3), dtype=np.uint8))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0, 300]], dtype=np.int32))

    def test_immutable(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_equality(self):
        a = GrayImage(np.arange(4, dtype=np.uint8).reshape(2, 2))
        b = GrayImage(np.arange(4, dtype=np.uint8).reshape(2, 2))
        c = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        assert a == b
        assert a != c


class TestPgm:
    def test_load_known_bytes(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_pgm(path)
        assert (img.width, img.height) == (2, 2)
        assert list(img.pixels.ravel()) == [0, 255, 128, 64]

    def test_save_known_bytes(self, tmp_path):
        path = tmp_path / "t.pgm"
        save_pgm(gray(1, 1, [7]), path)
        assert path.read_bytes() == b"P5\n1 1\n255\n\x07"

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x01\x02")
        img = load_pgm(path)
        assert list(img.pixels.ravel()) == [1, 2]

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="unsupported depth"):
            load_pgm(path)

    def test_small_maxval_rejected(self, tmp_path):
        # A sample above maxval (200 > 15) must not load as a silent 200.
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n15\n" + bytes([200, 15]))
        with pytest.raises(FormatError, match="unsupported depth"):
            load_pgm(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pgm(tmp_path / "nope.pgm")

    def test_not_p5(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(FormatError):
            load_pgm(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\nxx yy\n255\n\x00")
        with pytest.raises(FormatError):
            load_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(FormatError, match="truncated"):
            load_pgm(path)

    def test_unwritable_destination(self, tmp_path):
        img = gray(1, 1, [7])
        with pytest.raises(OSError):
            save_pgm(img, tmp_path / "no_such_dir" / "t.pgm")

    def test_round_trip_random_64(self, tmp_path, random_image):
        img = random_image(64, 64)
        path = tmp_path / "r.pgm"
        save_pgm(img, path)
        assert load_pgm(path) == img

    @settings(max_examples=30, deadline=None)
    @given(
        width=st.integers(1, 16),
        height=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, width, height, seed):
        """PGM round-trip is bit-exact for arbitrary valid images."""
        samples = np.random.default_rng(seed).integers(
            0, 256, height * width
        ).astype(np.uint8)
        img = gray(width, height, samples)
        path = tmp_path_factory.mktemp("pgm") / "p.pgm"
        save_pgm(img, path)
        assert load_pgm(path) == img


class TestToGray:
    def test_white(self):
        img = to_gray([255, 255, 255], 1, 1)
        assert img.pixels.ravel()[0] == 255

    def test_black(self):
        assert to_gray([0, 0, 0], 1, 1).pixels.ravel()[0] == 0

    def test_pure_red(self):
        # round(0.299 * 255) = round(76.245)
        assert to_gray([255, 0, 0], 1, 1).pixels.ravel()[0] == 76

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            to_gray([1, 2, 3, 4], 1, 1)

    def test_output_in_range(self, rng):
        rgb = rng.integers(0, 256, (5, 7, 3))
        img = to_gray(rgb, 7, 5)
        assert img.pixels.min() >= 0 and img.pixels.max() <= 255

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    def test_sample_dtype_does_not_change_luma(self, dtype, rng):
        """Luma is computed in float64 whatever the samples' dtype; float32
        products would round 67 of these 250000 pixels differently."""
        rgb = rng.integers(0, 256, (500, 500, 3))
        assert to_gray(rgb.astype(dtype), 500, 500) == to_gray(rgb.tolist(), 500, 500)


class TestQuantize:
    @staticmethod
    def _add_floor_clip(values):
        """The rounding rule as first written: floor(x + 0.5), clamped to
        [0, 255], then cast."""
        return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)

    def test_matches_add_floor_clip(self):
        halves = np.arange(-8, 520) / 2.0  # -4 to 259.5
        ties = np.arange(0, 512) / 2.0  # 0 to 255.5
        values = np.concatenate([
            halves,
            np.nextafter(ties, -np.inf),
            np.nextafter(ties, np.inf),
            [np.inf, -np.inf],
            np.random.default_rng(16).uniform(-300, 600, 32768),
        ])[np.newaxis]
        out = np.empty(values.shape, dtype=np.uint8)
        quantize_into(values.copy(), out)
        np.testing.assert_array_equal(out, self._add_floor_clip(values))
        assert quantize(values) == GrayImage(self._add_floor_clip(values))


class TestGetClamped:
    @pytest.fixture
    def img(self):
        return GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))

    def test_in_range(self, img):
        assert get_clamped(img, 1, 0) == 2

    def test_negative_col(self, img):
        assert get_clamped(img, -1, 0) == 1

    def test_col_past_width(self, img):
        assert get_clamped(img, 2, 1) == 4

    def test_agrees_with_direct_access(self, random_image):
        img = random_image(6, 9)
        for row in range(img.height):
            for col in range(img.width):
                assert get_clamped(img, col, row) == img.pixels[row, col]


class TestLoadImage:
    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "x.bmp"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="extension"):
            load_image(path)
