"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line on success
(run with ``pytest tests/test_acceptance.py -v -s`` to see them). The
ordering-reproduction criterion is soft: its sub-checks are evaluated and
reported per intensity domain without failing the build.
"""

import csv
import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from tetrascale import (
    BenchConfig,
    GrayImage,
    mse,
    psnr,
    resize,
    run_benchmark,
    save_pgm,
    ssim,
)
from tetrascale.bench import write_aggregates_csv, write_records_csv
from tetrascale.interpolate import SCHEMES
from tetrascale.report import expected_ordering_checks
from tetrascale.weights import (
    ac_weights,
    at_weights,
    hr_weights,
    md_weights,
    tetragon_weights,
)

from conftest import constant_image, gray, whole_field


def _report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# Criterion 1: weight invariants
# ---------------------------------------------------------------------------

def test_c1_weight_invariants():
    """Non-negativity and sum-to-one for every scheme over >= 10^4 random
    offsets/intensities; AT invariant under intensity scaling."""
    rng = np.random.default_rng(1)
    n = 20000
    dx, dy = rng.random(n), rng.random(n)
    v = tuple(rng.uniform(0.0, 255.0, n) for _ in range(4))
    v_unit = tuple(vi / 255.0 for vi in v)

    candidates = [
        tetragon_weights(dx, dy),
        md_weights(dx, dy),
        hr_weights(dx, dy),
        at_weights(dx, dy, v),
        ac_weights(dx, dy, v),
        at_weights(dx, dy, v_unit),
        ac_weights(dx, dy, v_unit),
    ]
    for wv in candidates:
        assert all(np.min(wi) >= 0.0 for wi in wv)
        total = wv[0] + wv[1] + wv[2] + wv[3]
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    base = at_weights(dx, dy, v)
    for k in (1e-6, 0.5, 3.0, 1e6):
        scaled = at_weights(dx, dy, tuple(vi * k for vi in v))
        for wb, ws in zip(base, scaled):
            assert np.max(np.abs(wb - ws)) <= 1e-12
    _report(1, "weight invariants")


# ---------------------------------------------------------------------------
# Criterion 2: closed-form spot checks
# ---------------------------------------------------------------------------

def test_c2_closed_form_spot_checks():
    cases = [
        (md_weights(0.25, 0.5), (0.4, 0.1, 0.4, 0.1)),
        (hr_weights(0.0, 0.0), (0.5, 0.25, 0.25, 0.0)),
        (hr_weights(0.25, 0.5), (13 / 36, 5 / 36, 13 / 36, 5 / 36)),
        (
            at_weights(0.5, 0.5, (10.0, 20.0, 30.0, 40.0)),
            (0.1, 0.2, 0.3, 0.4),
        ),
    ]
    for actual, expected in cases:
        for a, e in zip(actual, expected):
            assert abs(a - e) <= 1e-12
    _report(2, "closed-form spot checks")


# ---------------------------------------------------------------------------
# Criterion 3: bilinear oracle equivalence
# ---------------------------------------------------------------------------

def _bilinear_oracle(pixels, ratio):
    """Independent closed-form separable bilinear resize (lerp form)."""
    h, w = pixels.shape
    out_w = math.floor(w * ratio + 0.5)
    out_h = math.floor(h * ratio + 0.5)
    sx = (np.arange(out_w) + 0.5) / ratio - 0.5
    sy = (np.arange(out_h) + 0.5) / ratio - 0.5
    fx = sx - np.floor(sx)
    fy = sy - np.floor(sy)
    xl = np.clip(np.floor(sx).astype(int), 0, w - 1)
    xr = np.clip(np.floor(sx).astype(int) + 1, 0, w - 1)
    yt = np.clip(np.floor(sy).astype(int), 0, h - 1)
    yb = np.clip(np.floor(sy).astype(int) + 1, 0, h - 1)
    px = pixels.astype(np.float64)
    rows = px[:, xl] * (1.0 - fx) + px[:, xr] * fx
    return rows[yt, :] * (1.0 - fy)[:, None] + rows[yb, :] * fy[:, None]


def test_c3_bilinear_oracle_equivalence():
    rng = np.random.default_rng(3)
    for ratio in (2.0, 4.0):
        for _ in range(100):
            pixels = rng.integers(0, 256, (16, 16)).astype(np.uint8)
            field = whole_field(GrayImage(pixels), ratio, "TB")
            oracle = _bilinear_oracle(pixels, ratio)
            assert field.shape == oracle.shape
            assert np.max(np.abs(field - oracle)) < 1e-9
    _report(3, "bilinear oracle equivalence")


# ---------------------------------------------------------------------------
# Criterion 4: identity / constant-preservation properties
# ---------------------------------------------------------------------------

def test_c4_identity_and_constant_properties():
    rng = np.random.default_rng(4)
    img = GrayImage(rng.integers(0, 256, (24, 24)).astype(np.uint8))

    for tag in ("TN", "TB", "TC", "MD"):
        out = resize(img, 1.0, tag)
        assert np.array_equal(out.pixels, img.pixels), f"{tag} not identity"

    hr = resize(img, 1.0, "HR")
    assert not np.array_equal(hr.pixels, img.pixels), "HR unexpectedly identity"

    for tag in SCHEMES:
        for ratio in (2.0, 4.0):
            out = resize(constant_image(16, 16, 137), ratio, tag)
            assert np.all(out.pixels == 137), f"{tag} broke a constant image"
    _report(4, "identity and constant preservation")


# ---------------------------------------------------------------------------
# Criterion 5: metric golden cases
# ---------------------------------------------------------------------------

def test_c5_metric_golden_cases():
    img = GrayImage(np.random.default_rng(5).integers(0, 256, (16, 16)).astype(np.uint8))
    assert mse(img, img) == 0.0
    a = gray(2, 2, [10, 10, 10, 10])
    b = gray(2, 2, [10, 10, 10, 12])
    assert mse(a, b) == 1.0
    assert mse(constant_image(4, 4, 0), constant_image(4, 4, 255)) == 65025.0

    assert psnr(img, img) == math.inf
    assert psnr(constant_image(4, 4, 0), constant_image(4, 4, 255)) == 0.0
    unit_err = psnr(constant_image(16, 16, 7), constant_image(16, 16, 8))
    assert unit_err == pytest.approx(48.1308, abs=1e-3)

    assert ssim(img, img) == 1.0
    # Constant 100 vs 108: the SSIM formula reduces to the luminance term
    # (2*100*108 + C1) / (100^2 + 108^2 + C1) = 0.9970466766979676.
    const_pair = ssim(constant_image(32, 32, 100), constant_image(32, 32, 108))
    assert const_pair == pytest.approx(0.9970466766979676, abs=1e-4)
    _report(5, "metric golden cases")


# ---------------------------------------------------------------------------
# Criterion 6: ordering reproduction (soft)
# ---------------------------------------------------------------------------

def _synthetic_scene(index, rng, size=512):
    """Natural-ish deterministic test image: smooth field, geometric scene,
    or low-frequency texture, cycling with the index."""
    kind = index % 3
    if kind == 0:
        sigma = 3.0 + 2.0 * (index // 3 % 4)
        field = gaussian_filter(rng.standard_normal((size, size)), sigma)
        field = (field - field.min()) / (field.max() - field.min())
    elif kind == 1:
        yy, xx = np.mgrid[0:size, 0:size] / size
        field = 0.3 + 0.4 * xx
        for _ in range(6):
            cy, cx = rng.uniform(0.15, 0.85, 2)
            ry, rx = rng.uniform(0.05, 0.25, 2)
            level = rng.uniform(0.0, 1.0)
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1.0
            field = np.where(mask, level, field)
        field = gaussian_filter(field, 1.5)
    else:
        yy, xx = np.mgrid[0:size, 0:size]
        fy, fx = rng.uniform(1.0 / 64, 1.0 / 24, 2)
        phase = rng.uniform(0, 2 * np.pi, 2)
        field = 0.5 + 0.25 * np.sin(2 * np.pi * fx * xx + phase[0]) * np.sin(
            2 * np.pi * fy * yy + phase[1]
        )
        field += gaussian_filter(rng.standard_normal((size, size)), 2.0) * 0.15
        field = np.clip(field, 0.0, 1.0)
    return GrayImage(np.clip(np.floor(field * 255 + 0.5), 0, 255).astype(np.uint8))


@pytest.fixture(scope="module")
def scene_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("scenes")
    rng = np.random.default_rng(424242)
    for i in range(24):
        save_pgm(_synthetic_scene(i, rng), corpus / f"scene{i:02d}.pgm")
    return corpus


#: The four ordering groups from the evaluation protocol, in terms of the
#: individual named checks produced by expected_ordering_checks().
_ORDERING_GROUPS = {
    "(a) TC best MSE/SSIM/PSNR": (
        "TC_smallest_mean_mse",
        "TC_largest_mean_ssim",
        "TC_largest_mean_psnr",
    ),
    "(b) TN fastest": ("TN_smallest_mean_time",),
    "(c) TB faster than MD/HR/AT/AC": ("TB_faster_than_MD_HR_AT_AC",),
    "(d) TB best SSIM among weighted": ("TB_largest_ssim_among_weighted",),
}


@pytest.mark.slow
def test_c6_ordering_reproduction(scene_corpus, tmp_path):
    """Soft criterion: run the ratio-4 protocol on >= 20 images under both
    intensity domains and report each ordering check."""
    outcomes = {}
    for domain in ("raw", "unit"):
        config = BenchConfig(
            corpus_dir=scene_corpus,
            output_dir=tmp_path / f"out_{domain}",
            ratios=(4,),
            repetitions=3,
            intensity_domain=domain,
        )
        records, aggregates = run_benchmark(config)
        # Hard pipeline integrity: full grid, sane scores.
        assert len(records) == 24 * 7
        assert all(r.elapsed_s > 0 for r in records)
        assert all(math.isfinite(r.mse) and math.isfinite(r.ssim) for r in records)
        outcomes[domain] = expected_ordering_checks(aggregates, 4)

    print()
    matching_domains = []
    for domain, checks in outcomes.items():
        group_results = {}
        for group, names in _ORDERING_GROUPS.items():
            group_results[group] = all(checks[n] for n in names)
        for group, ok in group_results.items():
            print(f"ORDERING [{domain}] {group}: {'PASS' if ok else 'FAIL'}")
        if all(group_results.values()):
            matching_domains.append(domain)
    if matching_domains:
        print(
            "ORDERING summary: intensity domain(s) matching the expected "
            f"orderings: {', '.join(matching_domains)}"
        )
    else:
        print("ORDERING summary: no intensity domain reproduced all orderings")
    _report(6, "ordering reproduction (soft; see ORDERING lines)")


# ---------------------------------------------------------------------------
# Criterion 7: determinism
# ---------------------------------------------------------------------------

def _strip_column(path, column):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(column)
    return [[c for i, c in enumerate(row) if i != drop] for row in rows]


def test_c7_benchmark_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = np.random.default_rng(7)
    for i in range(3):
        save_pgm(
            GrayImage(rng.integers(0, 256, (16, 16)).astype(np.uint8)),
            corpus / f"img{i}.pgm",
        )

    paths = {}
    for run in ("one", "two"):
        config = BenchConfig(
            corpus_dir=corpus,
            output_dir=tmp_path / run,
            ratios=(2, 4),
            repetitions=1,
        )
        records, aggregates = run_benchmark(config)
        rec = tmp_path / f"records_{run}.csv"
        agg = tmp_path / f"aggregates_{run}.csv"
        write_records_csv(records, rec)
        write_aggregates_csv(aggregates, agg)
        paths[run] = (rec, agg)

    assert _strip_column(paths["one"][0], "elapsed_s") == _strip_column(
        paths["two"][0], "elapsed_s"
    )
    assert _strip_column(paths["one"][1], "mean_elapsed_s") == _strip_column(
        paths["two"][1], "mean_elapsed_s"
    )
    _report(7, "benchmark determinism")
