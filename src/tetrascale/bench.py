"""Benchmark pipeline: corpus ingest, timing, scoring, aggregation.

For every reference image the harness produces a low-resolution input (box
averaging, decimation, or a precomputed file), upscales it back with each
configured algorithm at each ratio, times the resize alone, and scores the
result against the reference with MSE/PSNR/SSIM. Each reference gets one
``metrics.Scorer``, built before any resize, which smooths the reference
once for all of its records.

Timed sections always run exclusively; each record is scored serially
right after its timing. Scores are computed from an untimed warm-up run
whose output is verified to be bit-identical to the timed runs.

Precomputed low-resolution inputs are looked up as
``corpus_dir/x{ratio}/<same filename>``.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .image import GrayImage, load_image, quantize, save_pgm
from .interpolate import INTENSITY_DOMAINS, SCHEMES, resize
from .metrics import Scorer

DOWNSAMPLERS = ("box", "decimate", "precomputed")


def _integer_at_least(minimum: int, value, name: str) -> int:
    """``value`` as an int; ValueError unless it is a whole number, such as
    4 or 4.0, of at least ``minimum`` (not inf, nan or 2.5)."""
    if not (math.isfinite(value) and value >= minimum and value == int(value)):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass
class BenchConfig:
    """Benchmark run parameters. Validated on construction."""

    corpus_dir: Path
    output_dir: Path
    ratios: tuple = (2, 4)
    algorithms: tuple = SCHEMES
    intensity_domain: str = "raw"
    downsampler: str = "box"
    repetitions: int = 3
    save_images: bool = False

    def __post_init__(self):
        self.corpus_dir = Path(self.corpus_dir)
        self.output_dir = Path(self.output_dir)
        self.ratios = tuple(self.ratios)
        self.algorithms = tuple(self.algorithms)
        if not self.ratios:
            raise ValueError("at least one ratio is required")
        self.ratios = tuple(_integer_at_least(2, r, "ratio") for r in self.ratios)
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for tag in self.algorithms:
            if tag not in SCHEMES:
                raise ValueError(f"unknown algorithm tag {tag!r}")
        for name, items in (("ratio", self.ratios), ("algorithm", self.algorithms)):
            if len(set(items)) != len(items):
                raise ValueError(f"repeated {name} in {items!r}")
        if self.intensity_domain not in INTENSITY_DOMAINS:
            raise ValueError(f"unknown intensity domain {self.intensity_domain!r}")
        if self.downsampler not in DOWNSAMPLERS:
            raise ValueError(f"unknown downsampler {self.downsampler!r}")
        self.repetitions = _integer_at_least(1, self.repetitions, "repetitions")


@dataclass
class BenchRecord:
    """One (image, algorithm, ratio) measurement."""

    image_id: str
    algorithm: str
    ratio: int
    mse: float
    psnr: float
    ssim: float
    elapsed_s: float


@dataclass
class AggregateRow:
    """Per-(algorithm, ratio) means over all benchmarked images."""

    algorithm: str
    ratio: int
    mean_mse: float
    mean_psnr: float
    mean_ssim: float
    mean_elapsed_s: float
    image_count: int


RECORDS_HEADER = [f.name for f in fields(BenchRecord)]
AGGREGATES_HEADER = [f.name for f in fields(AggregateRow)]


def downsample(image: GrayImage, factor: int, method: str = "box") -> GrayImage:
    """Shrink by an integer factor: block mean ("box") or top-left sample
    of each block ("decimate"). Dimensions must be divisible by the factor."""
    factor = _integer_at_least(2, factor, "factor")
    h, w = image.height, image.width
    if h % factor or w % factor:
        raise ValueError(f"dimensions {w}x{h} not divisible by factor {factor}")
    if method == "box":
        blocks = image.pixels.reshape(h // factor, factor, w // factor, factor)
        return quantize(blocks.mean(axis=(1, 3), dtype=np.float64))
    if method == "decimate":
        return GrayImage(image.pixels[::factor, ::factor])
    raise ValueError(f"unknown downsample method {method!r}")


def time_algorithm(
    image: GrayImage,
    ratio: float,
    scheme: str,
    repetitions: int = 3,
    intensity_domain: str = "raw",
) -> tuple[float, GrayImage]:
    """Time ``repetitions`` resize runs after one untimed warm-up run.

    Returns ``(median_seconds, warm_up_output)``. Each timed output is
    checked, outside the timed window, to be bit-identical to the warm-up
    output.
    """
    repetitions = _integer_at_least(1, repetitions, "repetitions")
    reference = resize(image, ratio, scheme, intensity_domain)
    times = []
    for _ in range(repetitions):
        tic = time.perf_counter()
        out = resize(image, ratio, scheme, intensity_domain)
        toc = time.perf_counter()
        times.append(toc - tic)
        if not np.array_equal(out.pixels, reference.pixels):
            raise RuntimeError(
                f"nondeterministic output from {scheme} at ratio {ratio}"
            )
    return statistics.median(times), reference


def discover_corpus(corpus_dir) -> list:
    """Sorted list of .pgm/.png files directly inside ``corpus_dir``."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {corpus_dir}")
    files = sorted(
        p for p in corpus_dir.iterdir()
        if p.is_file() and p.suffix.lower() in (".pgm", ".png")
    )
    if not files:
        raise ValueError(f"no .pgm/.png images in corpus directory {corpus_dir}")
    return files


def _lowres_input(config: BenchConfig, path: Path, reference: GrayImage, ratio: int):
    if config.downsampler == "precomputed":
        candidate = config.corpus_dir / f"x{ratio}" / path.name
        if not candidate.is_file():
            raise FileNotFoundError(
                f"precomputed low-res input missing: {candidate}"
            )
        return load_image(candidate)
    return downsample(reference, ratio, config.downsampler)


def run_benchmark(config: BenchConfig):
    """Run the full protocol. Returns (records, aggregates).

    Records are ordered by (image, ratio, algorithm) with images sorted by
    filename and ratios/algorithms in config order, so repeat runs produce
    identical rows apart from the timings.
    """
    files = discover_corpus(config.corpus_dir)
    records = []
    images_dir = config.output_dir / "images"
    if config.save_images:
        images_dir.mkdir(parents=True, exist_ok=True)
    for path in files:
        reference = load_image(path)
        scorer = Scorer(reference)
        image_id = path.stem
        for ratio in config.ratios:
            low = _lowres_input(config, path, reference, ratio)
            for tag in config.algorithms:
                elapsed, output = time_algorithm(
                    low, ratio, tag, config.repetitions, config.intensity_domain
                )
                if (output.width, output.height) != (reference.width, reference.height):
                    raise ValueError(
                        f"{image_id}: upscaled size {output.width}x{output.height}"
                        f" != reference {reference.width}x{reference.height}"
                    )
                records.append(
                    BenchRecord(image_id, tag, ratio, *scorer.score(output), elapsed)
                )
                if config.save_images:
                    save_pgm(output, images_dir / f"{image_id}_{tag}_x{ratio}.pgm")
    return records, aggregate(records, config.algorithms, config.ratios)


def aggregate(records, algorithms, ratios) -> list:
    """Per-(algorithm, ratio) means, in the given presentation order."""
    rows = []
    for tag in algorithms:
        for ratio in ratios:
            group = [r for r in records if r.algorithm == tag and r.ratio == ratio]
            if not group:
                continue
            n = len(group)
            means = {
                name: sum(getattr(r, name.removeprefix("mean_")) for r in group) / n
                for name in AGGREGATES_HEADER
                if name.startswith("mean_")
            }
            rows.append(
                AggregateRow(algorithm=tag, ratio=ratio, image_count=n, **means)
            )
    return rows


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(astuple(row) for row in rows)


def write_records_csv(records, path) -> None:
    _write_csv(path, RECORDS_HEADER, records)


def write_aggregates_csv(rows, path) -> None:
    _write_csv(path, AGGREGATES_HEADER, rows)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _config_value(value):
    """A BenchConfig field as JSON encodes it: paths become text."""
    return str(value) if isinstance(value, Path) else value


def write_summary_json(config: BenchConfig, rows, path) -> None:
    payload = {
        "config": {
            f.name: _config_value(getattr(config, f.name))
            for f in fields(BenchConfig)
            if f.name != "save_images"
        },
        "aggregates": [
            {name: _json_safe(value) for name, value in asdict(a).items()}
            for a in rows
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
