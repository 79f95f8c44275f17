"""Mutation checks: small breaks of the program that named tests must catch.

Each mutant in ``MUTANTS`` replaces one exact text in one file and names the
tests expected to kill it. Run it from anywhere::

    python tests/mutants.py                # every mutant
    python tests/mutants.py NAME [NAME...] # only these

It copies ``src/``, ``tests/`` and ``pyproject.toml`` (the pytest settings)
into a temporary directory and first runs every named test there on the
unchanged copy: they must all pass, or a failure under a mutant would prove
nothing. It then applies each mutant in turn, runs only that mutant's tests,
and restores the file. A mutant is killed when every one of its tests fails
(a parametrized test fails when any of its cases does). It prints each
mutant as killed or survived, and exits 1 if any survived, 2 if the
unchanged tests do not pass.

pytest does not collect this file. ``test_mutants.py`` checks that each
mutant's text occurs exactly once in its file, so a change that moves or
rewrites that code must move or rewrite the mutant with it.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    #: The file, relative to the repository root.
    path: str
    original: str
    replacement: str
    reason: str
    #: pytest node ids, relative to the repository root.
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "md-longer-side",
        "src/tetrascale/weights.py",
        "np.minimum(a, b) for a, b in corner_sides(dx, dy)",
        "np.maximum(a, b) for a, b in corner_sides(dx, dy)",
        "MD's circle takes the tetragon's shorter side as its diameter",
        (
            "tests/test_weights.py::TestMinimumDiameter::test_quarter_half",
            "tests/test_acceptance.py::test_c2_closed_form_spot_checks",
        ),
    ),
    Mutant(
        "ssim-c2",
        "src/tetrascale/metrics.py",
        "_C2 = (0.03 * 255.0) ** 2\n",
        "_C2 = (0.03 * 255.0) ** 2 * (1 + 1e-6)\n",
        "a relative change of 1e-6 in SSIM's C2 moves the scores",
        (
            "tests/test_metrics.py::TestOracle::test_scores_match_oracle_on_any_input",
            "tests/test_metrics.py::TestScorer::test_outputs_pinned",
        ),
    ),
    Mutant(
        "ssim-sigma",
        "src/tetrascale/metrics.py",
        "SSIM_SIGMA = 1.5\n",
        "SSIM_SIGMA = 1.5001\n",
        "a window sigma off by 1e-4 moves the taps and the scores",
        (
            "tests/test_metrics.py::TestGaussianWindow::test_taps_are_the_oracles",
            "tests/test_metrics.py::TestOracle::test_scores_match_oracle_on_any_input",
        ),
    ),
    Mutant(
        "threads-uncapped",
        "src/tetrascale/_bands.py",
        "min(_WORKERS, _THREADS, n // 2)",
        "min(_WORKERS, n // 2)",
        "without _THREADS a job runs one thread per usable CPU",
        (
            "tests/test_metrics.py::TestScorer::test_threads_are_capped_whatever_the_cpu_count",
            "tests/test_interpolate.py::TestBandThreads::test_threads_are_capped_whatever_the_cpu_count",
        ),
    ),
    Mutant(
        "rows-minimum-ignored",
        "src/tetrascale/_bands.py",
        "n = -(-height // min(height, max(minimum, pixels // width)))",
        "n = -(-height // min(height, max(1, pixels // width)))",
        "bands of a wide image must still be at least `minimum` rows",
        (
            "tests/test_bands.py::test_rows_cover_every_row_once_in_order",
            "tests/test_metrics.py::TestScorer::test_reference_smoothed_once",
        ),
    ),
    Mutant(
        "metrics-imports-threading",
        "src/tetrascale/metrics.py",
        "import functools\nimport math\n",
        "import functools\nimport math\nimport threading\n",
        "threads belong to _bands alone",
        ("tests/test_bands.py::test_thread_policy_is_in_bands_alone",),
    ),
    Mutant(
        "tc-vertical-sum-reversed",
        "src/tetrascale/interpolate.py",
        "zip(taps, (first, later, later, later)))\n"
        "    return _ordered_sum(rows, [c[band] for c in plan.y_factors])",
        "zip(taps[::-1], (first, later, later, later)))\n"
        "    return _ordered_sum(rows, [c[band] for c in plan.y_factors][::-1])",
        "_ordered_sum must add TC's vertical taps in the oracle's order, or .5 ties flip",
        (
            "tests/test_interpolate.py::TestResizeDispatch::test_outputs_pinned",
            "tests/test_interpolate.py::TestResizeDispatch::test_band_seams_are_exact",
        ),
    ),
    Mutant(
        "pixel-grid-shifted",
        "src/tetrascale/interpolate.py",
        "return (dst_index + 0.5) / scale - 0.5",
        "return (dst_index + 0.5) / scale - 0.25",
        "the oracle restates the pixel-centred grid instead of importing it",
        (
            "tests/test_interpolate.py::TestResizeDispatch::test_matches_per_pixel_reference",
            "tests/test_interpolate.py::TestMapDstToSrc::test_upscale_by_two",
        ),
    ),
    Mutant(
        "svg-keeps-underscores",
        "src/tetrascale/report.py",
        'k.rstrip("_").replace("_", "-")',
        'k.rstrip("_")',
        "SVG attributes are written with hyphens: text-anchor, not text_anchor",
        ("tests/test_bench.py::TestGoldenOutputs::test_report_bytes",),
    ),
    Mutant(
        "scorer-cap-off-by-one",
        "src/tetrascale/metrics.py",
        "reference.height > interpolate.MAX_OUTPUT_PIXELS",
        "reference.height >= interpolate.MAX_OUTPUT_PIXELS",
        "a reference of exactly MAX_OUTPUT_PIXELS pixels is scored",
        ("tests/test_cli.py::TestMetricsCommand::test_reference_over_the_pixel_limit_is_data_error",),
    ),
    Mutant(
        "memory-error-escapes",
        "src/tetrascale/cli.py",
        "except MemoryError as exc:",
        "except OverflowError as exc:",
        "running out of memory ends in exit 3 and one line, not a traceback",
        ("tests/test_cli.py::TestMetricsCommand::test_running_out_of_memory_is_data_error",),
    ),
)


def _failed(tree: Path, tests) -> set[str]:
    """Run ``tests`` in ``tree``; the node ids of those that failed or
    raised an error."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # pyproject.toml puts the copy's src/ on the path
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE))


def _killed_by(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="tetrascale-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        every_test = list(dict.fromkeys(t for m in mutants for t in m.tests))
        failed = _failed(tree, every_test)
        if failed:
            print("unchanged tests fail:", *sorted(failed), sep="\n  ")
            return 2
        survivors = 0
        for m in mutants:
            path = tree / m.path
            source = path.read_text()
            if source.count(m.original) != 1:
                raise RuntimeError(f"{m.name}: its text does not occur exactly once in {m.path}")
            path.write_text(source.replace(m.original, m.replacement))
            try:
                failed = _failed(tree, m.tests)
            finally:
                path.write_text(source)
            passed = [t for t in m.tests if not _killed_by(t, failed)]
            survivors += bool(passed)
            print(f"{'SURVIVED' if passed else 'killed':8}  {m.name}: {m.reason}")
            for test in passed:
                print(f"          passed: {test}")
    print(f"{len(mutants) - survivors} of {len(mutants)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
