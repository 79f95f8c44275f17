import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tetrascale
from tetrascale import SCHEMES, GrayImage, downsample, metrics, mse, psnr, resize, ssim
from tetrascale.metrics import (
    SSIM_SIGMA,
    SSIM_WINDOW_SIZE,
    Scorer,
    _gaussian_1d,
    _ssim_map,
)

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


def _scene(height, width):
    """A smooth gradient with a bright disc and a dark bar: edges and flats."""
    yy, xx = np.mgrid[0:height, 0:width]
    img = 40 + 150 * xx / width + 30 * np.sin(yy / 5.0)
    img[(yy - height / 2) ** 2 + (xx - width / 3) ** 2 < (height / 4) ** 2] = 240
    img[height // 5 : height // 5 + 6, width // 2 :] = 10
    return GrayImage(np.clip(np.rint(img), 0, 255).astype(np.uint8))


def _pairs():
    rng = np.random.default_rng(5)
    random = rng.integers(0, 256, (37, 61)).astype(np.uint8)
    reference = _scene(64, 96)
    low = downsample(reference, 4)
    yield "flat", constant_image(40, 33, 90), constant_image(40, 33, 130)
    yield "identical", GrayImage(random), GrayImage(random)
    yield "inverted", GrayImage(random), GrayImage(255 - random)
    yield "random-odd", GrayImage(random), GrayImage(
        rng.integers(0, 256, (37, 61)).astype(np.uint8)
    )
    for tag in SCHEMES:
        yield f"scene-{tag}", reference, resize(low, 4, tag)


class TestScorer:
    """One scorer per reference: the reference is smoothed once, and every
    score equals the free functions' values exactly."""

    @pytest.mark.parametrize(
        "name,reference,output", [pytest.param(*p, id=p[0]) for p in _pairs()]
    )
    def test_score_equals_free_functions(self, name, reference, output):
        expected = (
            mse(reference, output),
            psnr(reference, output),
            ssim(reference, output),
        )
        assert Scorer(reference).score(output) == expected
        if name == "identical":
            assert expected[1:] == (math.inf, 1.0)

    def test_reference_smoothed_once(self, monkeypatch):
        calls = []
        original = metrics._smooth

        def counted(arr):
            calls.append(1)
            return original(arr)

        monkeypatch.setattr(metrics, "_smooth", counted)
        reference = _scene(48, 40)
        scorer = Scorer(reference)
        assert len(calls) == 2
        outputs = [resize(downsample(reference, 4), 4, tag) for tag in ("TB", "AC")]
        for n, output in enumerate(outputs, start=1):
            scorer.score(output)
            assert len(calls) == 2 + 3 * n

    def test_dimension_mismatch(self):
        scorer = Scorer(constant_image(16, 16, 0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            scorer.score(constant_image(16, 12, 0))

    def test_reference_smaller_than_window(self):
        with pytest.raises(ValueError, match="smaller than"):
            Scorer(constant_image(8, 40, 0))

    def test_ssim_allocation_peak_per_pixel(self):
        """Peak bytes ``ssim`` allocates for one 512x512 pair, per pixel.
        Measured 50.0 B/px with numpy 2.4 and scipy 1.17, during the third
        smooth: the scorer's two float64 maps, the two held for the output,
        that smooth's temporary and result, and its uint16 input. The bound
        adds 6 B/px, so one more float64 map (8 B/px) fails it; holding all
        five smooths and their products at once took 88 B/px."""
        rng = np.random.default_rng(9)
        a, b = (
            GrayImage(rng.integers(0, 256, (512, 512)).astype(np.uint8))
            for _ in range(2)
        )
        # The first score in a process imports scipy, which is not the
        # per-pixel work bounded here.
        ssim(a, b)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / a.pixels.size < 56


#: Run in a fresh interpreter: resizing, through the package and the
#: ``resize`` command, loads no scipy module; the first score does, and its
#: values are the free functions'.
_LAZY_SCIPY = """
import sys
import numpy as np
import tetrascale, tetrascale.cli
from tetrascale import GrayImage, mse, psnr, resize, save_pgm, ssim
from tetrascale.metrics import Scorer

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

img = GrayImage((np.arange(24 * 32) % 251).reshape(24, 32).astype(np.uint8))
save_pgm(img, "in.pgm")
reference = resize(img, 2.0, "AC", "unit")
assert tetrascale.cli.main(
    ["resize", "in.pgm", "out.pgm", "--ratio", "2", "--scheme", "AT"]
) == 0
assert not scipy_modules(), scipy_modules()
output = resize(img, 2.0, "TB")
score = Scorer(reference).score(output)
assert score == (mse(reference, output), psnr(reference, output), ssim(reference, output))
assert "scipy.ndimage" in scipy_modules()
"""


def test_scipy_loads_only_when_scoring(tmp_path):
    package_root = str(Path(tetrascale.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
