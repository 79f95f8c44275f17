import ast
import functools
import hashlib
import json
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
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import tetrascale
from tetrascale import SCHEMES, GrayImage, _bands, downsample, metrics, mse, psnr, resize, ssim
from tetrascale.interpolate import INTENSITY_DOMAINS
from tetrascale.metrics import (
    SSIM_WINDOW_SIZE,
    Scorer,
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
        return metrics._WINDOW

    def test_taps_are_the_oracles(self, kernel):
        """Every tap has the bits of ``oracle.gaussian_taps()``, which sums
        libm's ``math.exp`` values in plain Python floats."""
        assert [float(v).hex() for v in kernel] == [v.hex() for v in oracle.gaussian_taps()]

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


class TestOracle:
    """``tests/oracle.py`` restates MSE and SSIM from their definitions:
    scores must match it whatever the shape, the bands and the threads."""

    @settings(max_examples=150, deadline=None)
    @given(
        height=st.integers(11, 130),
        width=st.integers(11, 130),
        seed=st.integers(0, 2**32 - 1),
        low=st.integers(0, 255),
        spread=st.sampled_from((0, 1, 3, 40, 255)),
        band_pixels=st.sampled_from((0, 1 << 10, 1 << 15)),
        band_rows=st.integers(1, 70),
        threads=st.integers(1, 4),
    )
    def test_scores_match_oracle_on_any_input(
        self, height, width, seed, low, spread, band_pixels, band_rows, threads
    ):
        """A reference of values in [low, 255] and an output that differs
        from it by up to ``spread`` per pixel, scored in bands of any height
        on up to ``threads`` threads: the MSE is the oracle's bit for bit,
        and the SSIM map and score are within 1e-12 of it. On a bright,
        nearly flat reference the variance E[x*x] - mu^2 that ``metrics``
        forms cancels, and its own rounding moved the map by up to 9.0e-13
        there (400 pairs with values of at least 200 and outputs within 10,
        or flat), so a reference above 200 gets 4e-12. A C2 larger by a
        factor 1 + 1e-6, or a sigma of 1.5001, fails it."""
        rng = np.random.default_rng(seed)
        shape = (height, width)
        a = rng.integers(low, 256, shape)
        b = np.clip(a + rng.integers(-spread, spread + 1, shape), 0, 255)
        reference, output = GrayImage(a.astype(np.uint8)), GrayImage(b.astype(np.uint8))
        tolerance = 1e-12 if low <= 200 else 4e-12
        expected = oracle.ssim_map(reference, output)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_BAND_PIXELS", band_pixels)
            patch.setattr(metrics, "_MIN_BAND_ROWS", band_rows)
            patch.setattr(_bands, "_WORKERS", threads)
            patch.setattr(_bands, "_THREADS", threads)
            ssim_map = _ssim_map(reference, output)
            err, _, score = Scorer(reference).score(output)
        assert np.max(np.abs(ssim_map - expected)) <= tolerance
        assert err == oracle.mse(reference, output)
        assert abs(score - float(np.mean(expected))) <= tolerance

    def test_oracle_restates_ssim(self):
        """``oracle.py`` imports neither ``tetrascale.metrics``, nor what
        the package re-exports from it, nor scipy, so its window and
        constants cannot be shared with the code it checks."""
        imported = []
        for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
        shared = [
            name
            for name in imported
            if name.split(".")[0] == "scipy"
            or name.startswith("tetrascale.metrics")
            or name in {f"tetrascale.{n}" for n in ("mse", "psnr", "ssim", "Scorer")}
        ]
        assert imported and shared == []


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
    """Random references against noisy copies, in shapes that the scorer
    cuts into several bands (two of 2000 rows at 11 wide, three of 43 rows
    at 512 and 513 wide, three of 50 at 700 wide), or that fit in one band,
    however wide."""
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
    """Sets how many threads may score one image (``_bands._WORKERS``)."""

    def set_workers(count):
        monkeypatch.setattr(_bands, "_WORKERS", count)

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
    ``band_rows``, with ``count`` usable CPUs and a cap of at least
    ``count``: at most one per two bands."""
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

    # Bands of one row, and of at most 7 rows, which cut the 37-, 40- and
    # 64-row images into bands of 6 and 7 rows.
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
        # Three bands of 16 rows, none above 20; with the 5 rows the window
        # reaches on each side inside the image, slabs of 21, 26 and 21 rows.
        monkeypatch.setattr(metrics, "_BAND_PIXELS", 0)
        monkeypatch.setattr(metrics, "_MIN_BAND_ROWS", 20)
        reference = _scene(48, 40)
        slabs = [(21, 40), (26, 40), (21, 40)]
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
        # Bands of 9, 10, 9, 10 and 10 rows, in chunks of two and three.
        monkeypatch.setattr(metrics, "_BAND_PIXELS", 0)
        monkeypatch.setattr(metrics, "_MIN_BAND_ROWS", 10)
        reference = _scene(48, 40)
        slabs = [(14, 40), (20, 40), (19, 40), (20, 40), (15, 40)]
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
        """Bands of at most 4 rows, which cut every image into many bands,
        of two heights where their count does not divide the image's (37
        rows into ten of 3 and 4 rows), scored by up to ``count`` threads
        (``count`` usable CPUs, and the cap raised to match): every value
        keeps its bits, and no thread is left running once the scores
        return."""
        workers(count)
        monkeypatch.setattr(_bands, "_THREADS", count)
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

    def test_threads_are_capped_whatever_the_cpu_count(self, monkeypatch, workers):
        """With 16 usable CPUs, the 8 bands of a 512x512 score still run on
        ``_bands._THREADS`` (2) threads, so the two-thread bounds of
        ``test_two_threads_add_one_band_of_buffers`` hold on any machine:
        with one thread per CPU, a score took 30.0 B/px and ``ssim`` 46.0
        on 8 or more."""
        workers(16)
        assert self._allocation_peak_per_pixel(self._SCORE) < 26
        assert self._allocation_peak_per_pixel(self._SSIM) < 42
        rng = np.random.default_rng(9)
        a, b = (GrayImage(rng.integers(0, 256, (512, 512)).astype(np.uint8)) for _ in range(2))
        scorer = Scorer(a)
        threads = _smoothing_threads(monkeypatch)
        scorer.score(b)
        assert len(threads) == _bands._THREADS == 2

    @pytest.mark.parametrize(
        "shape,score_bound,ssim_bound",
        [
            pytest.param((91, 4000), 32, 48, id="4000x91"),
            pytest.param((130, 512), 25, 41, id="512x130"),
        ],
    )
    def test_short_image_allocation_peak_per_pixel(self, shape, score_bound, ssim_bound, workers):
        """An image only a few bands high is cut into even bands, whose
        arrays are sized for the largest: 45 and 46 rows at 4000x91, 43, 43
        and 44 at 512x130. Measured in one thread with numpy 2.4 and scipy
        1.17: 30.3 B/px for a score and 46.3 for ``ssim`` at 4000x91, 23.5
        and 39.5 at 512x130. Each bound adds less than 2 B/px. Bands of 64
        rows and a shorter last one, with arrays sized for the first, took
        38.6 and 54.6, and 29.9 and 46.0. At 33000x11 the one band is the
        whole image, so its peak stays 50.1 and 66.1 B/px."""
        workers(1)
        assert self._allocation_peak_per_pixel(self._SCORE, shape) < score_bound
        assert self._allocation_peak_per_pixel(self._SSIM, shape) < ssim_bound

    @pytest.mark.parametrize("shape", ((91, 4000), (11, 33000)), ids=("4000x91", "33000x11"))
    def test_short_wide_images_take_no_more_in_two_threads(self, shape, monkeypatch, workers):
        """An image of at most three bands is scored in the calling thread,
        so a second usable CPU adds nothing to its peak (one thread:
        30.3 B/px for a score and 46.3 for ``ssim`` at 4000x91, 50.1 and
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
#: and an output of one band starts no thread; the first score loads scipy,
#: and its values are the free functions'. An image of at most three bands
#: is scored in the calling thread alone (scipy itself imports
#: ``concurrent.futures``).
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


def _run_script(script, cwd, timeout=None, **environ):
    """Run ``script`` in a fresh interpreter that imports this package,
    with ``environ`` added to its environment."""
    package_root = str(Path(tetrascale.__file__).resolve().parent.parent)
    env = dict(os.environ, **environ)
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
from tetrascale import GrayImage, _bands, metrics

smooth, smoothing_threads = metrics._smooth, set()

def spied(*args):
    smoothing_threads.add(threading.current_thread())
    return smooth(*args)

metrics._smooth = spied
_bands._WORKERS = 2
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


def _features_above_baseline():
    """The CPU features numpy dispatches kernels for, above its baseline,
    that this host has."""
    from numpy._core import _multiarray_umath as umath

    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def _dispatch_results():
    """Results whose bits must not depend on the SIMD kernels numpy
    dispatches, as digests and ``float.hex`` strings: every scheme but TC
    in both domains at ratios 3.7, 3, 1.5 and 0.3, on an image with flat
    patches, where .5 ties occur; three scores; and the SSIM window's taps.

    TC is left out: ``interpolate.cubic_kernel`` cubes with array ``**3``,
    which rounds differently under AVX512 dispatch and so moves bytes at .5
    ties. Cubing by products fixes that, but it changes digests that
    perfbench's cli-small workload has recorded, so it waits until that
    workload is gone."""
    y, x = np.mgrid[0:48, 0:64]
    pixels = ((x * 37 + y * 91 + (x * y) % 13) % 256).astype(np.uint8)
    pixels[4:20, 8:30] = 128
    pixels[24:44, 36:60] = 37
    pixels[30:40, 2:14] = 0
    img = GrayImage(pixels)
    resized = {}
    for scheme in SCHEMES:
        for domain in INTENSITY_DOMAINS if scheme != "TC" else ():
            for ratio in (3.7, 3, 1.5, 0.3):
                out = resize(img, ratio, scheme, domain).pixels
                digest = hashlib.sha256(str(out.shape).encode() + out.tobytes())
                resized[f"{scheme}-{domain}-x{ratio}"] = digest.hexdigest()
    scorer = Scorer(img)
    scores = [
        [v.hex() for v in scorer.score(resize(resize(img, 0.5, tag), 2, tag))]
        for tag in ("TB", "HR", "AT")
    ]
    return {
        "features": _features_above_baseline(),
        "resized": resized,
        "scores": scores,
        "window": [float(v).hex() for v in metrics._WINDOW],
    }


def test_results_do_not_depend_on_simd_dispatch(tmp_path):
    """A fresh interpreter with every dispatched feature above numpy's
    baseline turned off gets ``_dispatch_results()`` bit for bit. Measured
    with numpy 2.4 at the default dispatch (up to AVX512_SPR), at X86_V3
    and at the X86_V2 baseline: all three alike."""
    features = _features_above_baseline()
    if not features:
        pytest.skip("numpy dispatches no kernel above its baseline on this host")
    tests_dir = str(Path(__file__).resolve().parent)
    script = (
        f"import json, sys; sys.path.insert(0, {tests_dir!r}); import test_metrics; "
        "print(json.dumps(test_metrics._dispatch_results()))"
    )
    proc = _run_script(script, tmp_path, timeout=120, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child.pop("features") == []
    expected = _dispatch_results()
    del expected["features"]
    assert child == expected
