import csv
import math
from pathlib import Path

import numpy as np
import pytest

from tetrascale import (
    AggregateRow,
    BenchConfig,
    BenchRecord,
    GrayImage,
    downsample,
    load_image,
    mse,
    psnr,
    resize,
    run_benchmark,
    save_pgm,
    ssim,
    time_algorithm,
)
from tetrascale.bench import (
    AGGREGATES_HEADER,
    RECORDS_HEADER,
    aggregate,
    discover_corpus,
    write_aggregates_csv,
    write_records_csv,
    write_summary_json,
)
from tetrascale.report import read_aggregates_csv, write_report
import tetrascale.bench as bench_mod

from conftest import constant_image


def make_corpus(directory, count, size=16, seed=11):
    """Write ``count`` random size x size reference PGMs; returns the dir."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        img = GrayImage(rng.integers(0, 256, (size, size)).astype(np.uint8))
        save_pgm(img, directory / f"img{i:02d}.pgm")
    return directory


class TestDownsample:
    def test_box_block_mean(self):
        img = GrayImage(np.array([[0, 0], [0, 4]], dtype=np.uint8))
        assert list(downsample(img, 2, "box").pixels.ravel()) == [1]

    def test_decimate_top_left(self):
        img = GrayImage(np.array([[0, 0], [0, 4]], dtype=np.uint8))
        assert list(downsample(img, 2, "decimate").pixels.ravel()) == [0]

    @pytest.mark.parametrize("method", ("box", "decimate"))
    def test_constant_stays_constant(self, method):
        img = constant_image(12, 12, 77)
        out = downsample(img, 3, method)
        assert (out.width, out.height) == (4, 4)
        assert np.all(out.pixels == 77)

    def test_non_divisible_dimensions(self):
        with pytest.raises(ValueError, match="not divisible"):
            downsample(constant_image(9, 9, 0), 2)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            downsample(constant_image(8, 8, 0), 1)

    @pytest.mark.parametrize("method", ("box", "decimate"))
    def test_integral_float_factor(self, method, random_image):
        img = random_image(8, 8)
        assert downsample(img, 2.0, method) == downsample(img, 2, method)

    def test_box_rounds_half_up(self):
        # block mean 0.5 rounds away from zero to 1
        img = GrayImage(np.array([[0, 0], [0, 2]], dtype=np.uint8))
        assert list(downsample(img, 2, "box").pixels.ravel()) == [1]


class TestTimeAlgorithm:
    def test_single_repetition(self, random_image):
        elapsed, output = time_algorithm(random_image(8, 8), 2, "TB", repetitions=1)
        assert elapsed > 0.0
        assert (output.width, output.height) == (16, 16)

    def test_positive_for_all_schemes(self, random_image):
        img = random_image(8, 8)
        for scheme in ("TN", "TC", "AC"):
            elapsed, output = time_algorithm(img, 2, scheme, repetitions=2)
            assert elapsed > 0.0
            assert output == resize(img, 2, scheme)

    def test_returns_median_of_repetitions(self, monkeypatch, random_image):
        # tic/toc pairs yielding durations 0.01, 0.03, 0.02 -> median 0.02
        ticks = iter([0.0, 0.01, 0.1, 0.13, 0.2, 0.22])
        monkeypatch.setattr(bench_mod.time, "perf_counter", lambda: next(ticks))
        elapsed, _ = time_algorithm(random_image(4, 4), 2, "TN", repetitions=3)
        assert elapsed == pytest.approx(0.02)

    def test_rejects_zero_repetitions(self, random_image):
        with pytest.raises(ValueError):
            time_algorithm(random_image(4, 4), 2, "TB", repetitions=0)

    @pytest.mark.parametrize("bad", (math.inf, math.nan, 2.5), ids=("inf", "nan", "2.5"))
    def test_non_integer_repetitions_rejected_before_resizing(
        self, bad, monkeypatch, random_image
    ):
        calls = []
        monkeypatch.setattr(bench_mod, "resize", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="repetitions must be an integer >= 1"):
            time_algorithm(random_image(4, 4), 2, "TB", repetitions=bad)
        assert calls == []

    def test_whole_float_repetitions_accepted(self, monkeypatch, random_image):
        ticks = iter([0.0, 0.01, 0.1, 0.13, 0.2, 0.22])
        monkeypatch.setattr(bench_mod.time, "perf_counter", lambda: next(ticks))
        elapsed, _ = time_algorithm(random_image(4, 4), 2, "TN", repetitions=3.0)
        assert elapsed == pytest.approx(0.02)


class TestBenchConfig:
    def test_defaults(self, tmp_path):
        cfg = BenchConfig(corpus_dir=tmp_path, output_dir=tmp_path / "out")
        assert cfg.ratios == (2, 4)
        assert len(cfg.algorithms) == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ratios": ()},
            {"ratios": (1,)},
            {"ratios": (2.5,)},
            {"algorithms": ("XX",)},
            {"algorithms": ()},
            {"ratios": (2, 2)},
            {"ratios": (4, 2, 4.0)},
            {"algorithms": ("TB", "TB")},
            {"algorithms": ("TN", "TB", "TN")},
            {"intensity_domain": "percent"},
            {"downsampler": "lanczos"},
            {"repetitions": 0},
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            BenchConfig(corpus_dir=tmp_path, output_dir=tmp_path / "out", **kwargs)

    @pytest.mark.parametrize("bad", (math.inf, math.nan, 2.5), ids=("inf", "nan", "2.5"))
    def test_non_integer_counts_rejected(self, bad, tmp_path):
        """Ratios, repetitions and the downsample factor are whole numbers:
        anything else raises ValueError with the same message."""
        dirs = {"corpus_dir": tmp_path, "output_dir": tmp_path / "out"}
        calls = {
            "ratio": lambda: BenchConfig(**dirs, ratios=(bad,)),
            "repetitions": lambda: BenchConfig(**dirs, repetitions=bad),
            "factor": lambda: downsample(constant_image(8, 8, 0), bad),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
                call()


class TestCorpusDiscovery:
    def test_sorted_discovery(self, tmp_path):
        make_corpus(tmp_path / "c", 3)
        files = discover_corpus(tmp_path / "c")
        assert [f.name for f in files] == ["img00.pgm", "img01.pgm", "img02.pgm"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover_corpus(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError, match="no .pgm/.png images"):
            discover_corpus(tmp_path / "empty")


class TestRunBenchmark:
    def test_single_image_cardinality(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 1, size=32)
        cfg = BenchConfig(
            corpus_dir=corpus, output_dir=tmp_path / "out", ratios=(2,), repetitions=1
        )
        records, aggregates = run_benchmark(cfg)
        assert len(records) == 7
        assert len(aggregates) == 7
        assert all(a.image_count == 1 for a in aggregates)
        assert all(r.elapsed_s > 0 for r in records)

    def test_full_grid_cardinality(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 2, size=16)
        cfg = BenchConfig(
            corpus_dir=corpus,
            output_dir=tmp_path / "out",
            ratios=(2, 4),
            repetitions=1,
        )
        records, _ = run_benchmark(cfg)
        assert len(records) == 2 * 7 * 2

    def test_aggregates_match_hand_averages(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 3, size=16)
        cfg = BenchConfig(
            corpus_dir=corpus,
            output_dir=tmp_path / "out",
            ratios=(2,),
            algorithms=("TN", "TB"),
            repetitions=1,
        )
        records, aggregates = run_benchmark(cfg)
        for agg in aggregates:
            group = [r for r in records if r.algorithm == agg.algorithm]
            assert agg.image_count == 3
            assert agg.mean_mse == pytest.approx(
                sum(r.mse for r in group) / 3, rel=1e-12
            )
            assert agg.mean_ssim == pytest.approx(
                sum(r.ssim for r in group) / 3, rel=1e-12
            )

    def test_reference_not_divisible_by_ratio(self, tmp_path):
        corpus = tmp_path / "c"
        corpus.mkdir()
        save_pgm(constant_image(15, 15, 5), corpus / "odd.pgm")
        cfg = BenchConfig(
            corpus_dir=corpus, output_dir=tmp_path / "out", ratios=(2,), repetitions=1
        )
        with pytest.raises(ValueError, match="not divisible"):
            run_benchmark(cfg)

    def test_precomputed_inputs(self, tmp_path, rng):
        corpus = tmp_path / "c"
        (corpus / "x2").mkdir(parents=True)
        ref = GrayImage(rng.integers(0, 256, (16, 16)).astype(np.uint8))
        low = GrayImage(rng.integers(0, 256, (8, 8)).astype(np.uint8))
        save_pgm(ref, corpus / "a.pgm")
        save_pgm(low, corpus / "x2" / "a.pgm")
        cfg = BenchConfig(
            corpus_dir=corpus,
            output_dir=tmp_path / "out",
            ratios=(2,),
            algorithms=("TB",),
            downsampler="precomputed",
            repetitions=1,
        )
        records, _ = run_benchmark(cfg)
        assert len(records) == 1

    def test_precomputed_missing_file(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 1)
        cfg = BenchConfig(
            corpus_dir=corpus,
            output_dir=tmp_path / "out",
            ratios=(2,),
            downsampler="precomputed",
            repetitions=1,
        )
        with pytest.raises(FileNotFoundError, match="precomputed"):
            run_benchmark(cfg)

    def test_save_images_writes_upscaled_outputs(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 1, size=16)
        cfg = BenchConfig(
            corpus_dir=corpus,
            output_dir=tmp_path / "out",
            ratios=(2,),
            algorithms=("TN", "TB"),
            repetitions=1,
            save_images=True,
        )
        run_benchmark(cfg)
        saved = sorted(p.name for p in (tmp_path / "out" / "images").iterdir())
        assert saved == ["img00_TB_x2.pgm", "img00_TN_x2.pgm"]

    def test_scores_equal_free_functions_on_saved_outputs(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 2, size=24)
        cfg = BenchConfig(
            corpus_dir=corpus,
            output_dir=tmp_path / "out",
            repetitions=1,
            save_images=True,
        )
        records, _ = run_benchmark(cfg)
        assert len(records) == 2 * 2 * 7
        for r in records:
            reference = load_image(corpus / f"{r.image_id}.pgm")
            output = load_image(
                tmp_path / "out" / "images" / f"{r.image_id}_{r.algorithm}_x{r.ratio}.pgm"
            )
            assert (r.mse, r.psnr, r.ssim) == (
                mse(reference, output),
                psnr(reference, output),
                ssim(reference, output),
            )


class TestCsvOutput:
    @pytest.fixture
    def results(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 2, size=16)
        cfg = BenchConfig(
            corpus_dir=corpus,
            output_dir=tmp_path / "out",
            ratios=(2,),
            algorithms=("TN", "TB"),
            repetitions=1,
        )
        return tmp_path, cfg, run_benchmark(cfg)

    def test_headers_are_exact(self, results):
        tmp_path, cfg, (records, aggregates) = results
        rec_path = tmp_path / "records.csv"
        agg_path = tmp_path / "aggregates.csv"
        write_records_csv(records, rec_path)
        write_aggregates_csv(aggregates, agg_path)
        with open(rec_path, newline="") as fh:
            assert next(csv.reader(fh)) == RECORDS_HEADER
        with open(agg_path, newline="") as fh:
            assert next(csv.reader(fh)) == AGGREGATES_HEADER

    def test_records_csv_round_trips_values(self, results):
        tmp_path, cfg, (records, _) = results
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert row["image_id"] == rec.image_id
            assert float(row["mse"]) == rec.mse
            assert float(row["ssim"]) == rec.ssim

    def test_summary_json_written(self, results):
        tmp_path, cfg, (_, aggregates) = results
        path = tmp_path / "summary.json"
        write_summary_json(cfg, aggregates, path)
        import json

        payload = json.loads(path.read_text())
        assert payload["config"]["ratios"] == [2]
        assert len(payload["aggregates"]) == len(aggregates)


class TestDeterminism:
    def test_repeat_runs_identical_apart_from_timings(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 2, size=16)

        def run_once(tag):
            cfg = BenchConfig(
                corpus_dir=corpus,
                output_dir=tmp_path / tag,
                ratios=(2, 4),
                repetitions=1,
            )
            records, aggregates = run_benchmark(cfg)
            rec_path = tmp_path / f"{tag}.csv"
            agg_path = tmp_path / f"{tag}_agg.csv"
            write_records_csv(records, rec_path)
            write_aggregates_csv(aggregates, agg_path)
            return rec_path, agg_path

        rec1, agg1 = run_once("run1")
        rec2, agg2 = run_once("run2")

        def strip_column(path, column):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index(column)
            return [[c for i, c in enumerate(row) if i != drop] for row in rows]

        assert strip_column(rec1, "elapsed_s") == strip_column(rec2, "elapsed_s")
        assert strip_column(agg1, "mean_elapsed_s") == strip_column(
            agg2, "mean_elapsed_s"
        )


GOLDEN_RECORDS = [
    BenchRecord("a", "TB", 2, 12.5, 37.161, 0.91, 0.001),
    BenchRecord("b", "TB", 2, 0.0, math.inf, 1.0, 0.003),
    BenchRecord("a", "TC", 2, 1 / 3, 52.9, 0.935, 2e-05),
    BenchRecord("a", "TB", 4, 40.0, 32.11, 0.75, 0.0005),
]

GOLDEN_RECORDS_CSV = (
    b"image_id,algorithm,ratio,mse,psnr,ssim,elapsed_s\r\n"
    b"a,TB,2,12.5,37.161,0.91,0.001\r\n"
    b"b,TB,2,0.0,inf,1.0,0.003\r\n"
    b"a,TC,2,0.3333333333333333,52.9,0.935,2e-05\r\n"
    b"a,TB,4,40.0,32.11,0.75,0.0005\r\n"
)

# mean_ssim 0.9550000000000001 pins the summation order: (0.91 + 1.0) / 2.
GOLDEN_AGGREGATES_CSV = (
    b"algorithm,ratio,mean_mse,mean_psnr,mean_ssim,mean_elapsed_s,image_count\r\n"
    b"TB,2,6.25,inf,0.9550000000000001,0.002,2\r\n"
    b"TB,4,40.0,32.11,0.75,0.0005,1\r\n"
    b"TC,2,0.3333333333333333,52.9,0.935,2e-05,1\r\n"
)

#: Expected ``write_report`` output for GOLDEN_RECORDS, one file per name.
GOLDEN_REPORT_DIR = Path(__file__).parent / "golden" / "report"

GOLDEN_SUMMARY_JSON = b"""{
  "config": {
    "corpus_dir": "corpus",
    "output_dir": "out",
    "ratios": [
      2,
      4
    ],
    "algorithms": [
      "TB",
      "TC"
    ],
    "intensity_domain": "raw",
    "downsampler": "box",
    "repetitions": 3
  },
  "aggregates": [
    {
      "algorithm": "TB",
      "ratio": 2,
      "mean_mse": 6.25,
      "mean_psnr": "inf",
      "mean_ssim": 0.9550000000000001,
      "mean_elapsed_s": 0.002,
      "image_count": 2
    },
    {
      "algorithm": "TB",
      "ratio": 4,
      "mean_mse": 40.0,
      "mean_psnr": 32.11,
      "mean_ssim": 0.75,
      "mean_elapsed_s": 0.0005,
      "image_count": 1
    },
    {
      "algorithm": "TC",
      "ratio": 2,
      "mean_mse": 0.3333333333333333,
      "mean_psnr": 52.9,
      "mean_ssim": 0.935,
      "mean_elapsed_s": 2e-05,
      "image_count": 1
    }
  ]
}
"""


class TestGoldenOutputs:
    """Exact bytes of every bench output file for a fixed list of records."""

    def test_records_csv_bytes(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(GOLDEN_RECORDS, path)
        assert path.read_bytes() == GOLDEN_RECORDS_CSV

    def test_aggregates_csv_bytes(self, tmp_path):
        path = tmp_path / "aggregates.csv"
        write_aggregates_csv(aggregate(GOLDEN_RECORDS, ("TB", "TC"), (2, 4)), path)
        assert path.read_bytes() == GOLDEN_AGGREGATES_CSV

    def test_summary_json_bytes(self, tmp_path):
        cfg = BenchConfig(
            corpus_dir="corpus",
            output_dir="out",
            ratios=(2, 4),
            algorithms=("TB", "TC"),
            save_images=True,
        )
        path = tmp_path / "summary.json"
        write_summary_json(cfg, aggregate(GOLDEN_RECORDS, ("TB", "TC"), (2, 4)), path)
        assert path.read_bytes() == GOLDEN_SUMMARY_JSON

    @pytest.mark.parametrize(
        "name", ["summary.md", "time.svg", "mse.svg", "ssim.svg", "psnr.svg"]
    )
    def test_report_bytes(self, tmp_path, name):
        write_report(aggregate(GOLDEN_RECORDS, ("TB", "TC"), (2, 4)), tmp_path)
        assert (tmp_path / name).read_bytes() == (GOLDEN_REPORT_DIR / name).read_bytes()

    def test_aggregates_csv_round_trips(self, tmp_path):
        rows = aggregate(GOLDEN_RECORDS, ("TB", "TC"), (2, 4))
        path = tmp_path / "aggregates.csv"
        write_aggregates_csv(rows, path)
        back = read_aggregates_csv(path)
        assert len(back) == len(rows)
        for got, want in zip(back, rows):
            assert isinstance(got, AggregateRow)
            for name in AGGREGATES_HEADER:
                assert getattr(got, name) == getattr(want, name), name
                assert type(getattr(got, name)) is type(getattr(want, name)), name

    @pytest.mark.parametrize(
        "row", ["TB,2,6.25,inf,0.955,0.002", "TB,2,6.25,inf,0.955,0.002,2,9"]
    )
    def test_wrong_column_count_rejected(self, tmp_path, row):
        path = tmp_path / "aggregates.csv"
        path.write_text(",".join(AGGREGATES_HEADER) + "\n" + row + "\n")
        with pytest.raises(ValueError, match="malformed row"):
            read_aggregates_csv(path)
