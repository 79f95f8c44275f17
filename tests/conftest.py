import numpy as np
import pytest

from tetrascale import GrayImage
from tetrascale import interpolate
from tetrascale.weights import (
    ac_partial_areas,
    ac_weights,
    at_half_hypotenuses,
    at_weights,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


@pytest.fixture
def random_image(rng):
    """Factory for random uint8 images of a given size."""

    def make(height=16, width=16):
        return GrayImage(rng.integers(0, 256, (height, width)).astype(np.uint8))

    return make


def constant_image(height, width, value):
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


def gray(width, height, samples):
    """Image from flat row-major samples."""
    return GrayImage(np.reshape(samples, (height, width)))


def whole_field(img, ratio, scheme, domain="raw"):
    """Pre-quantization float output of a whole resize with ``scheme`` (not
    TN), computed as one block and one band."""
    h, w = interpolate._output_shape(img, ratio)
    plan = interpolate._plan(img, ratio, scheme, domain, range(h), range(w))
    field = interpolate._bicubic_field if scheme == "TC" else interpolate._weighted_field
    return field(plan, slice(None), *interpolate._band_buffers(plan, h))


def point(*xs):
    """One shape-(1,) float64 array per scalar: a single point or intensity
    as the ``weights`` functions take it."""
    return tuple(np.array([x], dtype=np.float64) for x in xs)


def at_weights_of(dx, dy, values):
    """AT's weights, with the half-hypotenuses built from (dx, dy)."""
    return at_weights(dx, dy, values, at_half_hypotenuses(dx, dy))


def ac_partial_areas_of(dx, values):
    """AC's four partial areas for the corner intensities ``values`` (P1 and
    P3 are left corners, P2 and P4 right ones)."""
    v1, v2, v3, v4 = values
    return (*ac_partial_areas(dx, v1, v2), *ac_partial_areas(dx, v3, v4))


def ac_weights_of(dx, dy, values):
    """AC's weights, with the partial areas built from dx and ``values``."""
    return ac_weights(dx, dy, ac_partial_areas_of(dx, values))
