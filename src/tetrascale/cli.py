"""Command-line front end.

Subcommands: resize, metrics, bench, report. Exit codes: 0 success,
1 usage error, 2 I/O error, 3 data error (running out of memory included).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bench import (
    DOWNSAMPLERS,
    BenchConfig,
    run_benchmark,
    write_aggregates_csv,
    write_records_csv,
    write_summary_json,
)
from .image import FormatError, load_image, save_pgm
from .interpolate import INTENSITY_DOMAINS, SCHEMES, resize
from .metrics import Scorer
from .report import read_aggregates_csv, write_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _items(text: str) -> list:
    """Non-blank items of a comma list; an empty list is a usage error."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"expected a non-empty comma list: {text!r}")
    return items


def _ratio_list(text: str) -> list:
    try:
        return [int(item) for item in _items(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers: {text!r}")


def _algorithm_list(text: str) -> list:
    tags = [item.upper() for item in _items(text)]
    for tag in tags:
        if tag not in SCHEMES:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {tag!r} (choose from {', '.join(SCHEMES)})"
            )
    return tags


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tetrascale",
        description="Grayscale upscaling with geometric weighting schemes, "
        "quality metrics, and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_resize = sub.add_parser("resize", help="resize a single image")
    p_resize.add_argument("input", help="input image (.pgm or .png)")
    p_resize.add_argument("output", help="output image (.pgm)")
    p_resize.add_argument("--ratio", type=float, required=True)
    p_resize.add_argument("--scheme", type=str.upper, choices=SCHEMES, required=True)
    p_resize.add_argument(
        "--intensity-domain", choices=INTENSITY_DOMAINS, default="raw"
    )

    p_metrics = sub.add_parser("metrics", help="score image B against image A")
    p_metrics.add_argument("image_a")
    p_metrics.add_argument("image_b")

    # Each bench option is stored under its BenchConfig field name and an
    # option not given is absent from the namespace, so BenchConfig's own
    # defaults apply.
    p_bench = sub.add_parser(
        "bench",
        help="run the benchmark over a corpus",
        argument_default=argparse.SUPPRESS,
    )
    p_bench.add_argument(
        "--corpus",
        dest="corpus_dir",
        metavar="CORPUS",
        required=True,
        help="directory of reference images",
    )
    p_bench.add_argument(
        "--out", dest="output_dir", metavar="OUT", required=True, help="output directory"
    )
    p_bench.add_argument("--ratios", type=_ratio_list, help="comma list, e.g. 2,4")
    p_bench.add_argument("--algorithms", type=_algorithm_list, help="comma list of tags")
    p_bench.add_argument("--intensity-domain", choices=INTENSITY_DOMAINS)
    p_bench.add_argument("--downsampler", choices=DOWNSAMPLERS)
    p_bench.add_argument(
        "--reps", dest="repetitions", metavar="REPS", type=int, help="timing repetitions"
    )
    p_bench.add_argument(
        "--save-images", action="store_true", help="save every upscaled image"
    )

    p_report = sub.add_parser("report", help="render charts from an aggregates CSV")
    p_report.add_argument("--aggregates", required=True)
    p_report.add_argument("--out", required=True)
    return parser


def cmd_resize(args) -> int:
    if not args.output.lower().endswith(".pgm"):
        raise FormatError(f"{args.output}: unsupported output extension (need .pgm)")
    image = load_image(args.input)
    out = resize(image, args.ratio, args.scheme, args.intensity_domain)
    save_pgm(out, args.output)
    return EXIT_OK


def cmd_metrics(args) -> int:
    a = load_image(args.image_a)
    b = load_image(args.image_b)
    err, db, similarity = Scorer(a).score(b)
    print(f"mse={err:#.6g}")
    print(f"psnr={db:#.6g}")
    print(f"ssim={similarity:#.6g}")
    return EXIT_OK


def cmd_bench(args) -> int:
    names = {f.name for f in fields(BenchConfig)}
    config = BenchConfig(**{k: v for k, v in vars(args).items() if k in names})
    config.output_dir.mkdir(parents=True, exist_ok=True)
    records, aggregates = run_benchmark(config)
    write_records_csv(records, config.output_dir / "records.csv")
    write_aggregates_csv(aggregates, config.output_dir / "aggregates.csv")
    write_summary_json(config, aggregates, config.output_dir / "summary.json")
    write_report(aggregates, config.output_dir)

    print(f"{'algorithm':<10}{'ratio':>6}{'mse':>12}{'psnr':>10}{'ssim':>10}{'time_s':>12}")
    for row in aggregates:
        print(
            f"{row.algorithm:<10}{row.ratio:>6}{row.mean_mse:>12.3f}"
            f"{row.mean_psnr:>10.3f}{row.mean_ssim:>10.4f}{row.mean_elapsed_s:>12.6f}"
        )
    return EXIT_OK


def cmd_report(args) -> int:
    rows = read_aggregates_csv(args.aggregates)
    for path in write_report(rows, args.out):
        print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "resize": cmd_resize,
    "metrics": cmd_metrics,
    "bench": cmd_bench,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"tetrascale: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as exc:
        print(f"tetrascale: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"tetrascale: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
