"""PNG reading; needs Pillow, so the whole module skips without it."""

import numpy as np
import pytest

from tetrascale import FormatError, load_image

Image = pytest.importorskip("PIL.Image")


class TestPngLoading:
    def test_grayscale_png(self, tmp_path, random_image):
        img = random_image(12, 10)
        path = tmp_path / "g.png"
        Image.fromarray(np.asarray(img.pixels)).save(path)
        assert load_image(path) == img

    def test_rgb_png_converts_via_luma(self, tmp_path):
        rgb = np.zeros((1, 1, 3), dtype=np.uint8)
        rgb[0, 0] = (255, 0, 0)
        path = tmp_path / "c.png"
        Image.fromarray(rgb, mode="RGB").save(path)
        assert load_image(path).pixels.ravel()[0] == 76

    def test_unsupported_mode_rejected(self, tmp_path):
        rgba = np.zeros((2, 2, 4), dtype=np.uint8)
        path = tmp_path / "a.png"
        Image.fromarray(rgba, mode="RGBA").save(path)
        with pytest.raises(FormatError, match="unsupported PNG mode"):
            load_image(path)
