import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tetrascale
from tetrascale import GrayImage, load_pgm, save_pgm
from tetrascale.cli import main

from conftest import gray
from test_bench import make_corpus

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture
def sample_pgm(tmp_path, rng):
    path = tmp_path / "in.pgm"
    save_pgm(GrayImage(rng.integers(0, 256, (16, 16)).astype(np.uint8)), path)
    return path


class TestResizeCommand:
    def test_doubles_dimensions(self, tmp_path, sample_pgm):
        out = tmp_path / "out.pgm"
        code = main(["resize", str(sample_pgm), str(out), "--ratio", "2", "--scheme", "TB"])
        assert code == 0
        img = load_pgm(out)
        assert (img.width, img.height) == (32, 32)

    def test_ratio_one_bilinear_is_identity(self, tmp_path, sample_pgm):
        out = tmp_path / "out.pgm"
        assert main(["resize", str(sample_pgm), str(out), "--ratio", "1", "--scheme", "TB"]) == 0
        assert out.read_bytes() == sample_pgm.read_bytes()

    def test_unknown_scheme_is_usage_error(self, tmp_path, sample_pgm, capsys):
        code = main(["resize", str(sample_pgm), str(tmp_path / "o.pgm"),
                     "--ratio", "2", "--scheme", "XX"])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["resize", str(tmp_path / "none.pgm"), str(tmp_path / "o.pgm"),
                     "--ratio", "2", "--scheme", "TB"])
        assert code == 2

    def test_bad_ratio_is_data_error(self, tmp_path, sample_pgm):
        code = main(["resize", str(sample_pgm), str(tmp_path / "o.pgm"),
                     "--ratio", "-2", "--scheme", "TB"])
        assert code == 3

    def test_malformed_pgm_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        code = main(["resize", str(bad), str(tmp_path / "o.pgm"),
                     "--ratio", "2", "--scheme", "TB"])
        assert code == 3

    def test_small_maxval_pgm_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 1\n15\n" + bytes([200, 15]))
        code = main(["resize", str(bad), str(tmp_path / "o.pgm"),
                     "--ratio", "2", "--scheme", "TB"])
        assert code == 3
        assert not (tmp_path / "o.pgm").exists()

    def test_output_over_limit_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        save_pgm(gray(2, 2, [10, 20, 30, 40]), src)
        out = tmp_path / "o.pgm"
        code = main(["resize", str(src), str(out), "--ratio", "1e7", "--scheme", "TB"])
        assert code == 3
        assert "exceed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ("out.png", "out.jpg"))
    def test_non_pgm_output_is_data_error(self, tmp_path, sample_pgm, name, capsys):
        out = tmp_path / name
        code = main(["resize", str(sample_pgm), str(out), "--ratio", "2", "--scheme", "TB"])
        assert code == 3
        assert "unsupported output extension" in capsys.readouterr().err
        assert not out.exists()

    def test_upper_case_pgm_output_accepted(self, tmp_path, sample_pgm):
        out = tmp_path / "OUT.PGM"
        assert main(["resize", str(sample_pgm), str(out), "--ratio", "2", "--scheme", "TB"]) == 0
        assert load_pgm(out).width == 32


class TestMetricsCommand:
    def test_identical_files(self, tmp_path, sample_pgm, capsys):
        code = main(["metrics", str(sample_pgm), str(sample_pgm)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["mse=0.00000", "psnr=inf", "ssim=1.00000"]

    def test_known_mse(self, tmp_path, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        save_pgm(gray(16, 16, [10] * 256), a)
        save_pgm(gray(16, 16, [11] * 256), b)
        assert main(["metrics", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "mse=1.00000" in out

    def test_dimension_mismatch_is_data_error(self, tmp_path, sample_pgm):
        other = tmp_path / "small.pgm"
        save_pgm(gray(12, 12, [0] * 144), other)
        assert main(["metrics", str(sample_pgm), str(other)]) == 3

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1


class TestBenchCommand:
    def test_default_grid_row_count(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 2, size=16)
        out = tmp_path / "out"
        code = main(["bench", "--corpus", str(corpus), "--out", str(out), "--reps", "1"])
        assert code == 0
        with open(out / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 7 * 2
        for name in ("aggregates.csv", "summary.json", "time.svg", "mse.svg",
                     "ssim.svg", "psnr.svg", "summary.md"):
            assert (out / name).exists()

    def test_algorithm_and_ratio_subset(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 2, size=16)
        out = tmp_path / "out"
        code = main(["bench", "--corpus", str(corpus), "--out", str(out),
                     "--ratios", "4", "--algorithms", "TB,AC", "--reps", "1"])
        assert code == 0
        with open(out / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 1

    def test_prints_aggregate_table(self, tmp_path, capsys):
        corpus = make_corpus(tmp_path / "c", 1, size=16)
        main(["bench", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
              "--ratios", "2", "--algorithms", "TN", "--reps", "1"])
        out = capsys.readouterr().out
        assert "algorithm" in out and "TN" in out

    def test_bad_ratio_list_is_usage_error(self, tmp_path, capsys):
        code = main(["bench", "--corpus", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--ratios", "2,x"])
        assert code == 1

    def test_empty_ratio_list_is_usage_error(self, tmp_path):
        code = main(["bench", "--corpus", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--ratios", ","])
        assert code == 1

    def test_empty_algorithm_list_is_usage_error(self, tmp_path):
        code = main(["bench", "--corpus", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--algorithms", ","])
        assert code == 1

    def test_unknown_algorithm_is_usage_error(self, tmp_path):
        code = main(["bench", "--corpus", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--algorithms", "TB,ZZ"])
        assert code == 1

    @pytest.mark.parametrize("option", [["--ratios", "2,2"], ["--algorithms", "TB,tb"]])
    def test_repeated_item_is_data_error(self, tmp_path, option):
        corpus = make_corpus(tmp_path / "c", 1, size=16)
        code = main(["bench", "--corpus", str(corpus), "--out", str(tmp_path / "o"),
                     *option])
        assert code == 3
        assert not (tmp_path / "o").exists()

    def test_missing_corpus_is_io_error(self, tmp_path):
        code = main(["bench", "--corpus", str(tmp_path / "none"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_empty_corpus_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["bench", "--corpus", str(empty), "--out", str(tmp_path / "o")])
        assert code == 3


class TestReportCommand:
    @pytest.fixture
    def aggregates_csv(self, tmp_path):
        corpus = make_corpus(tmp_path / "c", 2, size=16)
        out = tmp_path / "bench_out"
        assert main(["bench", "--corpus", str(corpus), "--out", str(out),
                     "--reps", "1"]) == 0
        return out / "aggregates.csv"

    def test_charts_have_one_bar_per_aggregate_row(self, tmp_path, aggregates_csv):
        out = tmp_path / "report"
        assert main(["report", "--aggregates", str(aggregates_csv), "--out", str(out)]) == 0
        for stem in ("time", "mse", "ssim", "psnr"):
            svg = (out / f"{stem}.svg").read_text()
            assert svg.count('<rect class="bar"') == 7 * 2

    def test_summary_names_actual_best_ssim(self, tmp_path, aggregates_csv):
        out = tmp_path / "report"
        main(["report", "--aggregates", str(aggregates_csv), "--out", str(out)])
        with open(aggregates_csv, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["ratio"] == "2"]
        best = max(rows, key=lambda r: float(r["mean_ssim"]))["algorithm"]
        summary = (out / "summary.md").read_text()
        section = summary.split("## Ratio 2")[1].split("### Ordering")[0]
        assert f"| SSIM (higher is better) | {best} |" in section

    def test_single_row_aggregates(self, tmp_path):
        path = tmp_path / "single.csv"
        path.write_text(
            "algorithm,ratio,mean_mse,mean_psnr,mean_ssim,mean_elapsed_s,image_count\n"
            "TB,2,10.0,38.0,0.9,0.001,5\n"
        )
        out = tmp_path / "report"
        assert main(["report", "--aggregates", str(path), "--out", str(out)]) == 0
        assert (out / "mse.svg").read_text().count('<rect class="bar"') == 1

    def test_malformed_csv_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        assert main(["report", "--aggregates", str(path), "--out", str(tmp_path / "r")]) == 3

    def test_missing_csv_is_io_error(self, tmp_path):
        assert main(["report", "--aggregates", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "r")]) == 2


def _console_script_entry():
    """The ``tetrascale`` entry of ``[project.scripts]`` in pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "tetrascale" in scripts, "[project.scripts] has no tetrascale entry"
    return scripts["tetrascale"]


def _run_entry_point(value, args, cwd):
    """Run ``value`` in a fresh interpreter as the installed wrapper would."""
    code = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"entry = EntryPoint('tetrascale', {value!r}, 'console_scripts').load()\n"
        f"sys.argv = ['tetrascale', *{list(args)!r}]\n"
        "sys.exit(entry())\n"
    )
    package_root = str(Path(tetrascale.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


class TestEntryPoint:
    def test_console_script_help(self, tmp_path):
        value = _console_script_entry()
        proc = _run_entry_point(value, ["--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "resize" in proc.stdout

        proc = _run_entry_point(value, ["resize"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "usage:" in proc.stderr

    @pytest.mark.skipif(
        shutil.which("tetrascale") is None,
        reason="tetrascale console script is not on PATH",
    )
    def test_installed_console_script_help(self):
        proc = subprocess.run(
            ["tetrascale", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "resize" in proc.stdout
