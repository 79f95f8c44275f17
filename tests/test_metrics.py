import functools
import math
import os
import subprocess
import sys
import threading
import time
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


def _seam_pairs():
    """Random references against noisy copies, in shapes whose rows cut the
    scorer's bands unevenly (2978 + 1022 rows at 11 wide, 64 + 64 + 22 at
    700 wide), end in a band of one row (129 rows at 512 and 513 wide), or
    fit in one band, however wide."""
    rng = np.random.default_rng(14)
    for height, width in (
        (129, 513), (4000, 11), (11, 4000), (300, 12), (12, 300), (129, 512),
        (11, 33000), (150, 700),
    ):
        reference = rng.integers(0, 256, (height, width)).astype(np.uint8)
        noisy = reference + rng.integers(-40, 41, (height, width))
        yield f"{width}x{height}", GrayImage(reference), GrayImage(
            np.clip(noisy, 0, 255).astype(np.uint8)
        )


#: ``float.hex`` of ``(mse, psnr, ssim)`` for every pair of ``_pairs`` and
#: ``_seam_pairs``, as the whole-image smooths and the float64 MSE computed
#: them before scoring was banded.
PINNED_SCORES = {
    "flat": ("0x1.9000000000000p+10", "0x1.016f04601cd7dp+4", "0x1.df3d92c46ab1fp-1"),
    "identical": ("0x0.0p+0", "inf", "0x1.0000000000000p+0"),
    "inverted": ("0x1.62c8325c53ef3p+14", "0x1.2470d9ceb8926p+2", "-0x1.eddf91a923bbfp-1"),
    "random-odd": ("0x1.55993825340fep+13", "0x1.efa00e9ef3d71p+2", "0x1.de820daef6722p-7"),
    "scene-TN": ("0x1.7df4c00000000p+8", "0x1.64f880b563e06p+4", "0x1.8ca939cad6893p-1"),
    "scene-TB": ("0x1.5e1cf55555555p+8", "0x1.6b04ff05c3c56p+4", "0x1.b27d76620f91fp-1"),
    "scene-TC": ("0x1.23b86aaaaaaabp+8", "0x1.77b2bb98faa3ep+4", "0x1.ba3855d97e25cp-1"),
    "scene-MD": ("0x1.471eeaaaaaaabp+8", "0x1.6fbd53bc24d37p+4", "0x1.b2b67af866788p-1"),
    "scene-HR": ("0x1.8b79f55555555p+8", "0x1.628db684684c2p+4", "0x1.a81e6c2598bd8p-1"),
    "scene-AT": ("0x1.a4caf55555555p+9", "0x1.2e13bec0d4714p+4", "0x1.854b377e08f33p-1"),
    "scene-AC": ("0x1.180e555555555p+10", "0x1.1a343ea15a816p+4", "0x1.5e6c641f4509dp-1"),
    "513x129": ("0x1.f996da477318dp+8", "0x1.517c3636c2dc4p+4", "0x1.e7c242e25bb07p-1"),
    "11x4000": ("0x1.f3e89de1d6aafp+8", "0x1.524535cde2fbdp+4", "0x1.e7cc4fa1e8d83p-1"),
    "4000x11": ("0x1.f4960b8b13ebep+8", "0x1.522d1eb94167ep+4", "0x1.e7cceed50b870p-1"),
    "12x300": ("0x1.00bdddddddddep+9", "0x1.50689cb9dbbe8p+4", "0x1.e700fc7366e3dp-1"),
    "300x12": ("0x1.f07fc962fc963p+8", "0x1.52bef2e74fc56p+4", "0x1.e83cd83b2ce61p-1"),
    "512x129": ("0x1.f61c57515d457p+8", "0x1.51f706575feb7p+4", "0x1.e80de9421a556p-1"),
    "33000x11": ("0x1.f733818de8f85p+8", "0x1.51d06ed9cf1a4p+4", "0x1.e7adc94035e5ep-1"),
    "700x150": ("0x1.fa43b0f779f6ap+8", "0x1.5164791984d9ap+4", "0x1.e7c45a72b6b56p-1"),
}


@pytest.fixture
def workers(monkeypatch):
    """Sets how many threads may score one image (``metrics._WORKERS``)."""

    def set_workers(count):
        monkeypatch.setattr(metrics, "_WORKERS", count)

    return set_workers


def _smoothing_threads(monkeypatch):
    """Record, in the returned set, every thread that runs a ``_smooth``."""
    threads = set()
    original = metrics._smooth

    def spied(slab, offset, out, buf):
        threads.add(threading.current_thread())
        return original(slab, offset, out, buf)

    monkeypatch.setattr(metrics, "_smooth", spied)
    return threads


def _scoring_threads(count, height, band_rows):
    """Threads that score an image of ``height`` rows in bands of
    ``band_rows``, with ``count`` usable CPUs: at most one per two bands."""
    bands = -(-height // band_rows)
    return max(1, min(count, bands // 2))


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

    @pytest.mark.parametrize(
        "name,reference,output",
        [pytest.param(*p, id=p[0]) for p in (*_pairs(), *_seam_pairs())],
    )
    def test_outputs_pinned(self, name, reference, output):
        score = Scorer(reference).score(output)
        assert tuple(float.hex(v) for v in score) == PINNED_SCORES[name]

    # Bands of one row, and of 7 rows, which cut the 37-, 40- and 64-row
    # images unevenly.
    @pytest.mark.parametrize("band_rows", (1, 7))
    def test_band_seams_are_exact(self, band_rows, monkeypatch):
        expected = {name: Scorer(a).score(b) for name, a, b in _pairs()}
        monkeypatch.setattr(metrics, "_BAND_PIXELS", 0)
        monkeypatch.setattr(metrics, "_MIN_BAND_ROWS", band_rows)
        for name, reference, output in _pairs():
            assert Scorer(reference).score(output) == expected[name], name

    @staticmethod
    def _count_smooths(monkeypatch):
        """Record each ``_smooth`` call's slab dtype and shape."""
        calls = []
        original = metrics._smooth

        def counted(slab, offset, out, buf):
            calls.append((slab.dtype, slab.shape))
            return original(slab, offset, out, buf)

        monkeypatch.setattr(metrics, "_smooth", counted)
        return calls

    def test_reference_smoothed_once(self, monkeypatch, workers):
        """The reference's two quantities are smoothed band by band at
        construction only; each score smooths the output's three (its
        pixels, their squares and their products with the reference's),
        once per band."""
        workers(1)
        calls = self._count_smooths(monkeypatch)
        # Bands of 20, 20 and 8 rows; with the 5 rows the window reaches on
        # each side inside the image, slabs of 25, 30 and 13 rows.
        monkeypatch.setattr(metrics, "_BAND_PIXELS", 0)
        monkeypatch.setattr(metrics, "_MIN_BAND_ROWS", 20)
        reference = _scene(48, 40)
        slabs = [(25, 40), (30, 40), (13, 40)]
        scorer = Scorer(reference)
        u8, u16 = np.dtype(np.uint8), np.dtype(np.uint16)
        assert calls == [(dtype, s) for s in slabs for dtype in (u8, u16)]
        outputs = [resize(downsample(reference, 4), 4, tag) for tag in ("TB", "AC")]
        for output in outputs:
            del calls[:]
            scorer.score(output)
            assert calls == [(dtype, s) for s in slabs for dtype in (u8, u16, u16)]

    def test_reference_smoothed_once_by_two_threads(self, monkeypatch, workers):
        """Split over two threads, the scorer makes the same smooths as in
        one; only their order across the threads is not defined."""
        workers(2)
        calls = self._count_smooths(monkeypatch)
        threads = _smoothing_threads(monkeypatch)
        # Bands of 10, 10, 10, 10 and 8 rows, in chunks of two and three.
        monkeypatch.setattr(metrics, "_BAND_PIXELS", 0)
        monkeypatch.setattr(metrics, "_MIN_BAND_ROWS", 10)
        reference = _scene(48, 40)
        slabs = [(15, 40), (20, 40), (20, 40), (20, 40), (13, 40)]
        scorer = Scorer(reference)
        u8, u16 = np.dtype(np.uint8), np.dtype(np.uint16)
        key = lambda call: (call[0].str, call[1])
        assert sorted(calls, key=key) == sorted(
            [(dtype, s) for s in slabs for dtype in (u8, u16)], key=key
        )
        assert len(threads) == 2 and threading.current_thread() in threads
        del calls[:]
        threads.clear()
        scorer.score(resize(downsample(reference, 4), 4, "TB"))
        assert sorted(calls, key=key) == sorted(
            [(dtype, s) for s in slabs for dtype in (u8, u16, u16)], key=key
        )
        assert len(threads) == 2 and threading.current_thread() in threads

    @pytest.mark.parametrize("count", (1, 2, 3, 16))
    def test_scores_pinned_for_any_thread_count(self, count, monkeypatch, workers):
        """Bands of 4 rows, which cut every image unevenly or into many
        bands (37 and 129 rows end in a band of one row), scored by up to
        ``count`` threads: every value keeps its bits, and no thread is
        left running once the scores return."""
        workers(count)
        monkeypatch.setattr(metrics, "_BAND_PIXELS", 0)
        monkeypatch.setattr(metrics, "_MIN_BAND_ROWS", 4)
        threads = _smoothing_threads(monkeypatch)
        alive = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch as often as they can
        try:
            for name, reference, output in (*_pairs(), *_seam_pairs()):
                pinned = PINNED_SCORES[name]
                expected = _scoring_threads(count, reference.height, 4)
                scorer = Scorer(reference)
                threads.clear()
                score = scorer.score(output)
                assert tuple(float.hex(v) for v in score) == pinned, name
                assert len(threads) == expected, name
                assert threading.current_thread() in threads, name
                helpers = threads - {threading.current_thread()}
                assert not any(helper.is_alive() for helper in helpers), name
                assert float.hex(ssim(reference, output)) == pinned[2], name
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == alive, threading.enumerate()

    def test_error_in_a_pool_thread_propagates(self, monkeypatch, workers):
        """An error in a chunk that a helper thread scores is raised by
        ``score``, and the scorer still scores correctly."""
        workers(2)
        monkeypatch.setattr(metrics, "_BAND_PIXELS", 0)
        monkeypatch.setattr(metrics, "_MIN_BAND_ROWS", 4)
        _, reference, output = next(p for p in _pairs() if p[0] == "scene-TB")
        scorer = Scorer(reference)
        original = metrics._smooth

        def failing(slab, offset, out, buf):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("smooth failed")
            return original(slab, offset, out, buf)

        monkeypatch.setattr(metrics, "_smooth", failing)
        with pytest.raises(RuntimeError, match="smooth failed"):
            scorer.score(output)
        monkeypatch.setattr(metrics, "_smooth", original)
        score = scorer.score(output)
        assert tuple(float.hex(v) for v in score) == PINNED_SCORES["scene-TB"]

    def test_first_chunk_error_waits_for_the_others(self, monkeypatch, workers):
        """An error in the calling thread's chunk is raised only after the
        helper thread has finished every band of its own chunk."""
        workers(2)
        monkeypatch.setattr(metrics, "_BAND_PIXELS", 0)
        monkeypatch.setattr(metrics, "_MIN_BAND_ROWS", 4)
        _, reference, output = next(p for p in _pairs() if p[0] == "scene-TB")
        scorer = Scorer(reference)  # 16 bands, 8 per thread
        original = metrics._smooth
        helper_smooths = []

        def failing(slab, offset, out, buf):
            if threading.current_thread() is threading.main_thread():
                raise RuntimeError("smooth failed")
            time.sleep(0.001)
            original(slab, offset, out, buf)
            helper_smooths.append(slab.shape)

        monkeypatch.setattr(metrics, "_smooth", failing)
        with pytest.raises(RuntimeError, match="smooth failed"):
            scorer.score(output)
        assert len(helper_smooths) == 3 * 8

    def test_dimension_mismatch(self):
        scorer = Scorer(constant_image(16, 16, 0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            scorer.score(constant_image(16, 12, 0))

    def test_reference_smaller_than_window(self):
        with pytest.raises(ValueError, match="smaller than"):
            Scorer(constant_image(8, 40, 0))

    @staticmethod
    def _allocation_peak_per_pixel(prepare, shape=(512, 512)):
        """Peak bytes allocated, per pixel, by the call that ``prepare(a, b)``
        returns for one pair of ``shape``; ``prepare`` itself is not
        counted."""
        rng = np.random.default_rng(9)
        a, b = (
            GrayImage(rng.integers(0, 256, shape).astype(np.uint8))
            for _ in range(2)
        )
        # The first score in a process imports scipy, which is not the
        # per-pixel work bounded here.
        ssim(a, b)
        run = prepare(a, b)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / a.pixels.size

    _SSIM = staticmethod(lambda a, b: lambda: ssim(a, b))
    _SCORE = staticmethod(lambda a, b: functools.partial(Scorer(a).score, b))

    def test_ssim_allocation_peak_per_pixel(self, workers):
        """Measured 29.6 B/px in one thread with numpy 2.4 and scipy 1.17:
        the scorer's two float64 maps, the SSIM map, and one band's four
        float64 arrays and smoothing buffer (about 5 B/px at 512 wide). The
        bound adds 6.4 B/px, so one more float64 map (8 B/px) fails it.
        Whole-image smooths took 50.0 B/px, and holding all five smooths
        and their products at once 88 B/px."""
        workers(1)
        assert self._allocation_peak_per_pixel(self._SSIM) < 36

    def test_score_allocation_peak_per_pixel(self, workers):
        """Measured 13.6 B/px in one thread with numpy 2.4 and scipy 1.17
        for one score against a built scorer: the SSIM map and one band's
        arrays and buffer. The bound adds 5.4 B/px, so one more float64 map
        fails it. Whole-image smooths took 34.0 B/px."""
        workers(1)
        assert self._allocation_peak_per_pixel(self._SCORE) < 19

    def test_two_threads_add_one_band_of_buffers(self, workers):
        """Two threads hold one band's arrays and smoothing buffer each:
        measured 19.0 B/px for a score and 35.1 for ``ssim`` (about 5 B/px
        more than one thread, at 512 wide). Each bound is below the
        measured figure plus one float64 map (8 B/px)."""
        workers(2)
        assert self._allocation_peak_per_pixel(self._SCORE) < 26
        assert self._allocation_peak_per_pixel(self._SSIM) < 42

    @pytest.mark.parametrize("shape", ((91, 4000), (11, 33000)), ids=("4000x91", "33000x11"))
    def test_short_wide_images_take_no_more_in_two_threads(self, shape, monkeypatch, workers):
        """An image of at most three bands is scored in the calling thread,
        so a second usable CPU adds nothing to its peak (one thread:
        38.6 B/px for a score and 54.6 for ``ssim`` at 4000x91, 50.1 and
        66.1 at 33000x11)."""
        threads = _smoothing_threads(monkeypatch)
        workers(1)
        single = [
            self._allocation_peak_per_pixel(prepare, shape)
            for prepare in (self._SCORE, self._SSIM)
        ]
        workers(2)
        double = [
            self._allocation_peak_per_pixel(prepare, shape)
            for prepare in (self._SCORE, self._SSIM)
        ]
        assert all(d <= s for d, s in zip(double, single)), (double, single)
        assert threads == {threading.current_thread()}


#: Run in a fresh interpreter: resizing, through the package and the
#: ``resize`` command, loads no scipy module and no ``concurrent.futures``,
#: and starts no thread; the first score loads scipy, and its values are the
#: free functions'. An image of at most three bands is scored in the calling
#: thread alone (scipy itself imports ``concurrent.futures``).
_LAZY_SCIPY = """
import sys
import threading
import numpy as np
import tetrascale, tetrascale.cli
from tetrascale import GrayImage, mse, psnr, resize, save_pgm, ssim
from tetrascale.metrics import Scorer

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def assert_one_thread():
    assert "concurrent.futures" not in sys.modules
    assert threading.active_count() == 1, threading.enumerate()

img = GrayImage((np.arange(24 * 32) % 251).reshape(24, 32).astype(np.uint8))
save_pgm(img, "in.pgm")
assert_one_thread()
reference = resize(img, 2.0, "AC", "unit")
assert tetrascale.cli.main(
    ["resize", "in.pgm", "out.pgm", "--ratio", "2", "--scheme", "AT"]
) == 0
assert not scipy_modules(), scipy_modules()
assert_one_thread()
output = resize(img, 2.0, "TB")
smooth, smoothing_threads = tetrascale.metrics._smooth, set()

def spied(*args):
    smoothing_threads.add(threading.current_thread())
    return smooth(*args)

tetrascale.metrics._smooth = spied
score = Scorer(reference).score(output)
assert score == (mse(reference, output), psnr(reference, output), ssim(reference, output))
assert "scipy.ndimage" in scipy_modules()
assert smoothing_threads == {threading.main_thread()}, smoothing_threads
assert threading.active_count() == 1, threading.enumerate()
"""


def _run_script(script, cwd, timeout=None):
    """Run ``script`` in a fresh interpreter that imports this package."""
    package_root = str(Path(tetrascale.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout,
    )


def test_scipy_loads_only_when_scoring(tmp_path):
    proc = _run_script(_LAZY_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr


#: Run in a fresh interpreter: a child forked after the parent has scored in
#: two threads scores in two threads of its own, and gets the same values.
#: The alarm ends a child that hangs.
_SCORE_AFTER_FORK = """
import os, signal, threading
import numpy as np
from tetrascale import GrayImage, metrics

smooth, smoothing_threads = metrics._smooth, set()

def spied(*args):
    smoothing_threads.add(threading.current_thread())
    return smooth(*args)

metrics._smooth = spied
metrics._WORKERS = 2
rng = np.random.default_rng(3)
a, b = (GrayImage(rng.integers(0, 256, (512, 512)).astype(np.uint8)) for _ in range(2))
scorer = metrics.Scorer(a)
smoothing_threads.clear()
expected = scorer.score(b)
assert len(smoothing_threads) == 2, smoothing_threads
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    smoothing_threads.clear()
    same = scorer.score(b) == expected
    os._exit(0 if same and len(smoothing_threads) == 2 else 1)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, status
assert scorer.score(b) == expected
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_scores_with_its_own_pool(tmp_path):
    proc = _run_script(_SCORE_AFTER_FORK, tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
