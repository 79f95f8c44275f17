import math

import numpy as np
import pytest

from tetrascale import GrayImage, mse, psnr, ssim
from tetrascale.metrics import SSIM_SIGMA, SSIM_WINDOW_SIZE, _gaussian_1d, _ssim_map

from conftest import constant_image, gray


class TestMse:
    def test_identical(self, random_image):
        img = random_image()
        assert mse(img, img) == 0.0

    def test_known_two_by_two(self):
        a = gray(2, 2, [10, 10, 10, 10])
        b = gray(2, 2, [10, 10, 10, 12])
        assert mse(a, b) == 1.0

    def test_maximal_difference(self):
        assert mse(constant_image(4, 4, 0), constant_image(4, 4, 255)) == 65025.0

    def test_symmetric(self, random_image):
        a, b = random_image(), random_image()
        assert mse(a, b) == mse(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            mse(constant_image(4, 4, 0), constant_image(4, 5, 0))


class TestPsnr:
    def test_identical_is_infinite(self, random_image):
        img = random_image()
        assert psnr(img, img) == math.inf

    def test_maximal_error_is_zero_db(self):
        assert psnr(constant_image(4, 4, 0), constant_image(4, 4, 255)) == 0.0

    def test_unit_mse(self):
        # mse exactly 1: every pixel differs by 1
        a = constant_image(16, 16, 100)
        b = constant_image(16, 16, 101)
        assert psnr(a, b) == pytest.approx(48.1308036086791, abs=1e-3)

    def test_monotone_in_error(self):
        base = constant_image(8, 8, 100)
        values = [psnr(base, constant_image(8, 8, 100 + d)) for d in (1, 5, 20, 80)]
        assert values == sorted(values, reverse=True)


class TestGaussianWindow:
    """The 1-D kernel SSIM applies along each axis."""

    @pytest.fixture
    def kernel(self):
        return _gaussian_1d(SSIM_WINDOW_SIZE, SSIM_SIGMA)

    def test_sums_to_one(self, kernel):
        assert abs(kernel.sum() - 1.0) <= 1e-12

    def test_center_is_maximum(self, kernel):
        assert kernel[SSIM_WINDOW_SIZE // 2] == kernel.max()

    def test_fourfold_symmetry(self, kernel):
        win = np.outer(kernel, kernel)
        assert np.allclose(win, win.T, atol=0)
        assert np.allclose(win, win[::-1, :], atol=1e-16)
        assert np.allclose(win, win[:, ::-1], atol=1e-16)


class TestSsim:
    def test_identical_is_exactly_one(self, random_image):
        img = random_image(32, 32)
        assert ssim(img, img) == 1.0

    def test_symmetric(self, rng):
        for _ in range(5):
            a = GrayImage(rng.integers(0, 256, (24, 24)).astype(np.uint8))
            b = GrayImage(rng.integers(0, 256, (24, 24)).astype(np.uint8))
            assert ssim(a, b) == ssim(b, a)

    def test_constant_pair_closed_form(self):
        """Constant images exercise the pure-luminance limit:
        (2*m1*m2 + C1) / (m1^2 + m2^2 + C1) with C1 = 6.5025."""
        value = ssim(constant_image(32, 32, 100), constant_image(32, 32, 108))
        c1 = (0.01 * 255.0) ** 2
        expected = (2 * 100 * 108 + c1) / (100**2 + 108**2 + c1)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(0.9970466766979676, abs=1e-9)

    def test_bounded_by_one(self, rng):
        for _ in range(10):
            a = GrayImage(rng.integers(0, 256, (16, 16)).astype(np.uint8))
            b = GrayImage(rng.integers(0, 256, (16, 16)).astype(np.uint8))
            assert abs(ssim(a, b)) <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ssim(constant_image(16, 16, 0), constant_image(16, 12, 0))

    def test_window_larger_than_image(self):
        with pytest.raises(ValueError, match="smaller than"):
            ssim(constant_image(8, 8, 0), constant_image(8, 8, 0))

    def test_deterministic(self, rng):
        a = GrayImage(rng.integers(0, 256, (20, 20)).astype(np.uint8))
        b = GrayImage(rng.integers(0, 256, (20, 20)).astype(np.uint8))
        assert ssim(a, b) == ssim(a, b)

    def test_local_map_matches_skimage(self, rng):
        """Independent oracle: scikit-image with the same window settings
        produces the same local SSIM map (it crops borders for its scalar
        mean; the maps themselves agree everywhere)."""
        skimage_metrics = pytest.importorskip("skimage.metrics")
        a = rng.integers(0, 256, (48, 48)).astype(np.uint8)
        b = np.clip(
            a.astype(int) + rng.integers(-30, 31, a.shape), 0, 255
        ).astype(np.uint8)
        mine = _ssim_map(GrayImage(a), GrayImage(b))
        _, theirs = skimage_metrics.structural_similarity(
            a,
            b,
            gaussian_weights=True,
            sigma=1.5,
            use_sample_covariance=False,
            data_range=255,
            full=True,
        )
        assert np.max(np.abs(mine - theirs)) < 1e-9
