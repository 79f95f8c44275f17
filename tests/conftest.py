import numpy as np
import pytest

from tetrascale import GrayImage


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
