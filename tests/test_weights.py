import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrascale import weights
from tetrascale.weights import (
    ac_areas,
    ac_weights,
    at_areas,
    at_weights,
    corner_sides,
    hr_areas,
    hr_weights,
    md_areas,
    md_weights,
    tetragon_weights,
)

unit = st.floats(0.0, 1.0, allow_nan=False)


def assert_weights(actual, expected, tol=1e-12):
    assert len(actual) == 4
    for a, e in zip(actual, expected):
        assert abs(a - e) <= tol, f"{tuple(actual)} != {tuple(expected)}"


class TestCornerSides:
    def test_origin(self):
        assert corner_sides(0.0, 0.0) == ((1, 1), (0, 1), (1, 0), (0, 0))

    def test_center_symmetry(self):
        assert corner_sides(0.5, 0.5) == tuple([(0.5, 0.5)] * 4)

    def test_direct_substitution(self):
        assert corner_sides(0.25, 0.5) == (
            (0.75, 0.5),
            (0.25, 0.5),
            (0.75, 0.5),
            (0.25, 0.5),
        )

    def test_products_are_bilinear_weights(self, rng):
        for dx, dy in rng.random((50, 2)):
            sides = corner_sides(dx, dy)
            tw = tetragon_weights(dx, dy)
            for (a, b), w in zip(sides, tw):
                assert abs(a * b - w) < 1e-15


class TestTetragon:
    def test_corner_coincidence(self):
        assert_weights(tetragon_weights(0.0, 0.0), (1, 0, 0, 0))

    def test_center(self):
        assert_weights(tetragon_weights(0.5, 0.5), (0.25, 0.25, 0.25, 0.25))

    def test_quarter_half(self):
        assert_weights(tetragon_weights(0.25, 0.5), (0.375, 0.125, 0.375, 0.125))

    def test_sums_to_one_without_normalization(self, rng):
        """The four areas partition the unit square (algebraic identity)."""
        dx, dy = rng.random(1000), rng.random(1000)
        total = np.sum(tetragon_weights(dx, dy), axis=0)
        assert np.max(np.abs(total - 1.0)) <= 1e-14


class TestMinimumDiameter:
    def test_corner(self):
        assert_weights(md_weights(0.0, 0.0), (1, 0, 0, 0))

    def test_center(self):
        assert_weights(md_weights(0.5, 0.5), (0.25, 0.25, 0.25, 0.25))

    def test_quarter_half(self):
        # min(a,b)^2 per corner = (0.25, 0.0625, 0.25, 0.0625), sum 0.625
        assert_weights(md_weights(0.25, 0.5), (0.4, 0.1, 0.4, 0.1))

    def test_areas_match_circle_formula(self):
        dx, dy = 0.3, 0.7
        for (a, b), area in zip(corner_sides(dx, dy), md_areas(dx, dy)):
            assert area == pytest.approx(math.pi / 4.0 * min(a, b) ** 2, abs=1e-15)


class TestHypotenuseRadius:
    def test_center(self):
        assert_weights(hr_weights(0.5, 0.5), (0.25, 0.25, 0.25, 0.25))

    def test_corner_not_interpolating(self):
        # c^2 per corner = (2, 1, 1, 0): the coincident pixel only gets 0.5.
        assert_weights(hr_weights(0.0, 0.0), (0.5, 0.25, 0.25, 0.0))

    def test_quarter_half(self):
        assert_weights(
            hr_weights(0.25, 0.5), (13 / 36, 5 / 36, 13 / 36, 5 / 36)
        )

    def test_areas_match_circle_formula(self):
        dx, dy = 0.2, 0.9
        for (a, b), area in zip(corner_sides(dx, dy), hr_areas(dx, dy)):
            assert area == pytest.approx(math.pi * (a * a + b * b), abs=1e-15)


class TestIntensityTriangle:
    def test_center_equal_intensities(self):
        assert_weights(
            at_weights(0.5, 0.5, (9.0, 9.0, 9.0, 9.0)), (0.25, 0.25, 0.25, 0.25)
        )

    def test_center_weights_proportional_to_intensity(self):
        # Equal hypotenuses cancel, leaving the intensity ratios.
        assert_weights(
            at_weights(0.5, 0.5, (10.0, 20.0, 30.0, 40.0)), (0.1, 0.2, 0.3, 0.4)
        )

    def test_all_zero_intensities_fall_back_to_tetragon(self):
        dx, dy = 0.3, 0.8
        assert_weights(
            at_weights(dx, dy, (0.0, 0.0, 0.0, 0.0)), tetragon_weights(dx, dy)
        )

    def test_areas_match_triangle_formula(self):
        dx, dy = 0.4, 0.1
        v = (5.0, 10.0, 15.0, 20.0)
        for (a, b), vi, area in zip(corner_sides(dx, dy), v, at_areas(dx, dy, v)):
            assert area == pytest.approx(0.5 * math.hypot(a, b) * vi, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(dx=unit, dy=unit, k=st.floats(1e-6, 1e6), seed=st.integers(0, 2**16))
    def test_scale_invariance(self, dx, dy, k, seed):
        """Multiplying all intensities by k > 0 cancels in the quotient."""
        v = np.random.default_rng(seed).uniform(0.01, 255.0, 4)
        base = at_weights(dx, dy, tuple(v))
        scaled = at_weights(dx, dy, tuple(v * k))
        assert_weights(scaled, base, tol=1e-12)


class TestIntensityCircle:
    def test_center_zero_intensities(self):
        # All raw areas equal pi * 0.5; normalization gives the uniform vector.
        assert_weights(
            ac_weights(0.5, 0.5, (0.0, 0.0, 0.0, 0.0)), (0.25, 0.25, 0.25, 0.25)
        )

    def test_corner_unit_intensities(self):
        # raw proportional to (1+2, 1+1, 1+1, 1+0)
        assert_weights(
            ac_weights(0.0, 0.0, (1.0, 1.0, 1.0, 1.0)),
            (0.375, 0.25, 0.25, 0.125),
        )

    def test_center_single_bright_corner(self):
        assert_weights(
            ac_weights(0.5, 0.5, (0.0, 1.0, 0.0, 0.0)),
            (1 / 6, 1 / 2, 1 / 6, 1 / 6),
        )

    def test_areas_match_circle_formula(self):
        dx, dy = 0.6, 0.35
        v = (0.1, 0.2, 0.3, 0.4)
        for (a, b), vi, area in zip(corner_sides(dx, dy), v, ac_areas(dx, dy, v)):
            assert area == pytest.approx(math.pi * (vi * vi + a * a + b * b), abs=1e-12)

    def test_not_scale_invariant(self):
        """Unlike AT, the fixed hypotenuse term breaks intensity-scale
        cancellation."""
        v = np.array([10.0, 20.0, 30.0, 40.0])
        w1 = ac_weights(0.25, 0.25, tuple(v))
        w2 = ac_weights(0.25, 0.25, tuple(v * 3.0))
        assert max(abs(a - b) for a, b in zip(w1, w2)) > 1e-6

    def test_positional_degeneracy_in_raw_domain(self):
        """With intensities far above sqrt(2), offsets barely matter."""
        grid = np.linspace(0.0, 1.0, 41)
        dx, dy = np.meshgrid(grid, grid)
        v = tuple(np.full_like(dx, 200.0) for _ in range(4))
        w = ac_weights(dx, dy, v)
        deviation = max(np.max(np.abs(wi - 0.25)) for wi in w)
        assert deviation < 0.005


ALL_POSITIONAL = [tetragon_weights, md_weights, hr_weights]


class TestSharedInvariants:
    def test_nonnegative_and_sum_to_one(self, rng):
        dx, dy = rng.random(20000), rng.random(20000)
        v = tuple(rng.uniform(0.0, 255.0, 20000) for _ in range(4))
        schemes = [scheme(dx, dy) for scheme in ALL_POSITIONAL]
        schemes.append(at_weights(dx, dy, v))
        schemes.append(ac_weights(dx, dy, v))
        schemes.append(at_weights(dx, dy, tuple(vi / 255.0 for vi in v)))
        schemes.append(ac_weights(dx, dy, tuple(vi / 255.0 for vi in v)))
        for w in schemes:
            assert all(np.min(wi) >= 0.0 for wi in w)
            total = w[0] + w[1] + w[2] + w[3]
            assert np.max(np.abs(total - 1.0)) <= 1e-12

    @pytest.mark.parametrize("scheme", ALL_POSITIONAL)
    def test_horizontal_mirror_permutes_left_right(self, scheme, rng):
        for dx, dy in rng.random((200, 2)):
            w = scheme(dx, dy)
            m = scheme(1.0 - dx, dy)
            assert_weights(m, (w[1], w[0], w[3], w[2]))

    @pytest.mark.parametrize("scheme", ALL_POSITIONAL)
    def test_vertical_mirror_permutes_top_bottom(self, scheme, rng):
        for dx, dy in rng.random((200, 2)):
            w = scheme(dx, dy)
            m = scheme(dx, 1.0 - dy)
            assert_weights(m, (w[2], w[3], w[0], w[1]))

    def test_interpolating_schemes_at_grid_node(self):
        """At offset (0,0) tetragon and MD reproduce the coincident pixel;
        HR deliberately does not."""
        assert tetragon_weights(0.0, 0.0)[0] == 1.0
        assert md_weights(0.0, 0.0)[0] == 1.0
        assert hr_weights(0.0, 0.0)[0] == 0.5

    @pytest.mark.parametrize("scheme", [at_weights, ac_weights], ids=["at", "ac"])
    def test_uint8_intensities_match_float64(self, scheme):
        """Resize passes its gathered uint8 corner grids straight in, so they
        must weigh exactly as their float64 copies. A uint8 v * v wraps: AC
        gave the 200 corner 0.139 instead of 0.815."""
        grids = tuple(np.full((2, 3), v, dtype=np.uint8) for v in (10, 200, 30, 90))
        from_uint8 = scheme(0.3, 0.6, grids)
        from_float = scheme(0.3, 0.6, tuple(g.astype(np.float64) for g in grids))
        for u, f in zip(from_uint8, from_float):
            assert u.dtype == np.float64
            assert np.array_equal(u, f)

    def test_array_matches_scalar_elementwise(self, rng):
        dx, dy = rng.random(64), rng.random(64)
        v = tuple(rng.uniform(0.0, 255.0, 64) for _ in range(4))
        # All four corners 0 at the first 8 points: AT's array fallback.
        for c in v:
            c[:8] = 0.0
        vec = {
            "tetra": tetragon_weights(dx, dy),
            "md": md_weights(dx, dy),
            "hr": hr_weights(dx, dy),
            "at": at_weights(dx, dy, v),
            "ac": ac_weights(dx, dy, v),
        }
        for i in range(64):
            vi = tuple(float(c[i]) for c in v)
            scalar = {
                "tetra": tetragon_weights(float(dx[i]), float(dy[i])),
                "md": md_weights(float(dx[i]), float(dy[i])),
                "hr": hr_weights(float(dx[i]), float(dy[i])),
                "at": at_weights(float(dx[i]), float(dy[i]), vi),
                "ac": ac_weights(float(dx[i]), float(dy[i]), vi),
            }
            for name, w in scalar.items():
                per_element = tuple(float(c[i]) for c in vec[name])
                assert per_element == tuple(float(x) for x in w)


class TestInputsUntouched:
    """The weights functions do their band-sized arithmetic in place, but
    only in arrays they allocated: no argument is written to, and no result
    shares memory with an argument or with another result (``resize`` sums
    into the four results in place)."""

    POSITIONAL = ("corner_sides", "tetragon_weights", "md_areas", "md_weights",
                  "hr_areas", "hr_weights")
    WITH_VALUES = ("at_areas", "at_weights", "ac_areas", "ac_weights")

    @staticmethod
    def _band_inputs(rng, layout):
        """dx, dy and four uint8 and float64 value grids of a 6x40 band; dx
        and dy as a row and a column (as ``resize`` passes them) or as full
        grids. Zeros fill one corner block, so AT's fallback runs too."""
        dx = np.round(rng.random((1, 40)), 1)
        dy = np.round(rng.random((6, 1)), 1)
        if layout == "grid":
            dx, dy = np.broadcast_arrays(dx, dy)
            dx, dy = dx.copy(), dy.copy()
        raw = tuple(rng.integers(0, 256, (6, 40)).astype(np.uint8) for _ in range(4))
        for v in raw:
            v[:3, :10] = 0
        return dx, dy, raw, tuple(v / 255.0 for v in raw)

    @pytest.mark.parametrize("layout", ("row-column", "grid"))
    @pytest.mark.parametrize("name", POSITIONAL + WITH_VALUES)
    def test_arguments_unchanged_and_results_unshared(self, name, layout, rng):
        dx, dy, raw, unit = self._band_inputs(rng, layout)
        fn = getattr(weights, name)
        for values in ((raw, unit) if name in self.WITH_VALUES else (None,)):
            args = (dx, dy) if values is None else (dx, dy, values)
            flat = [dx, dy, *(values or ())]
            before = [a.copy() for a in flat]
            results = fn(*args)
            for a, b in zip(flat, before):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            if name == "corner_sides":
                continue
            for i, r in enumerate(results):
                assert not any(np.shares_memory(r, a) for a in flat)
                assert not any(np.shares_memory(r, o) for o in results[i + 1 :])
