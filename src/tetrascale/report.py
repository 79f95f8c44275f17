"""Report emission: grouped-bar SVG charts and a markdown summary.

Charts are self-contained static SVG (no scripting, no external assets).
One chart per metric; bars are grouped by ratio with one bar per algorithm.
Every bar is a ``<rect class="bar">`` so chart contents are easy to assert
in tests.
"""

from __future__ import annotations

import collections
import csv
import math
import typing
from pathlib import Path

from .bench import AGGREGATES_HEADER, AggregateRow
from .interpolate import SCHEMES

_PALETTE = dict(
    zip(
        SCHEMES,
        ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1"),
        strict=True,
    )
)

#: Column name -> the type its text is parsed into.
_COLUMN_TYPES = typing.get_type_hints(AggregateRow)

#: How an aggregate attribute is charted (file stem, title, y-axis label) and
#: summarized (table label); ``better`` is min or max, whichever picks the
#: better of several values.
Metric = collections.namedtuple("Metric", "attr stem title ylabel label better")

#: Every charted metric, in summary table order.
METRICS = (
    Metric("mean_mse", "mse", "Average MSE", "MSE", "MSE (lower is better)", min),
    Metric("mean_psnr", "psnr", "Average PSNR", "dB", "PSNR (higher is better)", max),
    Metric("mean_ssim", "ssim", "Average SSIM", "SSIM", "SSIM (higher is better)", max),
    Metric(
        "mean_elapsed_s", "time", "Average time per resize", "seconds",
        "time (lower is better)", min,
    ),
)

_BETTER = {m.attr: m.better for m in METRICS}

#: The paper's orderings: (check name, subject tag, attribute, rival tags).
#: A check passes when the subject is strictly better than its best rival;
#: rivals None means every other tag present.
ORDERINGS = (
    ("TC_smallest_mean_mse", "TC", "mean_mse", None),
    ("TC_largest_mean_ssim", "TC", "mean_ssim", None),
    ("TC_largest_mean_psnr", "TC", "mean_psnr", None),
    ("TN_smallest_mean_time", "TN", "mean_elapsed_s", None),
    ("TB_faster_than_MD_HR_AT_AC", "TB", "mean_elapsed_s", ("MD", "HR", "AT", "AC")),
    ("TB_largest_ssim_among_weighted", "TB", "mean_ssim", ("MD", "HR", "AT", "AC")),
)


def read_aggregates_csv(path) -> list:
    """Parse an aggregates CSV back into AggregateRow objects.

    Raises ValueError on a malformed row: a wrong column count, a value that
    does not parse, a tag outside ``SCHEMES``, a NaN metric, or a repeated
    (algorithm, ratio).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty aggregates CSV")
        if header != AGGREGATES_HEADER:
            raise ValueError(
                f"{path}: unexpected header {header!r}, expected {AGGREGATES_HEADER!r}"
            )
        rows = {}  # (algorithm, ratio) -> AggregateRow
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = {
                    name: _COLUMN_TYPES[name](text)
                    for name, text in zip(header, row, strict=True)
                }
                key = (values["algorithm"], values["ratio"])
                if key[0] not in SCHEMES:
                    raise ValueError(f"unknown algorithm {key[0]!r}")
                if key in rows:
                    raise ValueError(f"repeats algorithm and ratio {key!r}")
                if any(math.isnan(values[m.attr]) for m in METRICS):
                    raise ValueError("NaN metric")
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed row {row!r}: {exc}") from exc
            rows[key] = AggregateRow(**values)
    if not rows:
        raise ValueError(f"{path}: no aggregate rows")
    return list(rows.values())


def _nice_ceiling(value: float) -> float:
    """Smallest 1/2/5 x 10^k value >= value (for axis scaling)."""
    if value <= 0:
        return 1.0
    exponent = math.floor(math.log10(value))
    for mult in (1.0, 2.0, 5.0, 10.0):
        candidate = mult * 10.0**exponent
        if candidate >= value * (1 - 1e-12):
            return candidate
    return 10.0 ** (exponent + 1)


def _format_value(v: float) -> str:
    if not math.isfinite(v):
        return str(v)
    return f"{v:.4g}"


def grouped_bar_svg(rows, value_attr: str, title: str, ylabel: str) -> str:
    """Render one grouped bar chart (groups = ratios, bars = algorithms)."""
    ratios = sorted({r.ratio for r in rows})
    algorithms = list(dict.fromkeys(r.algorithm for r in rows))
    by_key = {(r.algorithm, r.ratio): getattr(r, value_attr) for r in rows}

    bar_w = 34
    bar_gap = 6
    group_gap = 46
    margin_left = 64
    margin_right = 16
    margin_top = 48
    margin_bottom = 52
    plot_h = 260

    group_w = len(algorithms) * (bar_w + bar_gap) - bar_gap
    plot_w = len(ratios) * (group_w + group_gap) - group_gap
    width = margin_left + plot_w + margin_right
    height = margin_top + plot_h + margin_bottom

    finite = [v for v in by_key.values() if math.isfinite(v)]
    y_max = _nice_ceiling(max(finite) if finite else 1.0)

    def y_px(value: float) -> float:
        # Clipped to [0, y_max]: inf draws a full bar, a negative value none.
        clipped = max(0.0, min(y_max, value))
        return margin_top + plot_h * (1.0 - clipped / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">{title}</text>',
        f'<text x="14" y="{margin_top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11" '
        f'transform="rotate(-90 14 {margin_top + plot_h / 2:.1f})">{ylabel}</text>',
    ]
    # Horizontal gridlines and tick labels.
    for i in range(5):
        tick = y_max * i / 4
        ty = y_px(tick)
        parts.append(
            f'<line x1="{margin_left}" y1="{ty:.1f}" x2="{margin_left + plot_w}" '
            f'y2="{ty:.1f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{ty + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_format_value(tick)}</text>'
        )
    # Bars.
    for gi, ratio in enumerate(ratios):
        group_x = margin_left + gi * (group_w + group_gap)
        for bi, tag in enumerate(algorithms):
            value = by_key.get((tag, ratio))
            if value is None:
                continue
            x = group_x + bi * (bar_w + bar_gap)
            top = y_px(value)
            bar_h = margin_top + plot_h - top
            parts.append(
                f'<rect class="bar" x="{x:.1f}" y="{top:.1f}" width="{bar_w}" '
                f'height="{bar_h:.1f}" fill="{_PALETTE[tag]}"/>'
            )
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{top - 4:.1f}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="9">{_format_value(value)}</text>'
            )
            parts.append(
                f'<text x="{x + bar_w / 2:.1f}" y="{margin_top + plot_h + 14:.1f}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="10">{tag}</text>'
            )
        parts.append(
            f'<text x="{group_x + group_w / 2:.1f}" '
            f'y="{margin_top + plot_h + 34:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">ratio {ratio}</text>'
        )
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _rows_for_ratio(rows, ratio):
    return {r.algorithm: r for r in rows if r.ratio == ratio}


def expected_ordering_checks(rows, ratio: int) -> dict:
    """Evaluate every ``ORDERINGS`` check at one ratio.

    Returns a mapping of check name to True/False, or None when the subject
    or all of its rivals are absent from the rows.
    """
    by_tag = _rows_for_ratio(rows, ratio)
    checks = {}
    for name, subject, attr, rivals in ORDERINGS:
        present = [t for t in rivals or by_tag if t in by_tag and t != subject]
        if subject not in by_tag or not present:
            checks[name] = None
            continue
        better = _BETTER[attr]
        value = getattr(by_tag[subject], attr)
        best = better(getattr(by_tag[t], attr) for t in present)
        # better(best, value) returns best unless value is strictly better.
        checks[name] = value != best and better(best, value) == value
    return checks


def _best_table(rows, ratio) -> list:
    by_tag = _rows_for_ratio(rows, ratio)
    lines = [
        "| metric | best algorithm | value |",
        "| --- | --- | --- |",
    ]
    for m in METRICS:
        tag = m.better(by_tag, key=lambda t: getattr(by_tag[t], m.attr))
        lines.append(f"| {m.label} | {tag} | {_format_value(getattr(by_tag[tag], m.attr))} |")
    return lines


def render_summary_md(rows) -> str:
    """Markdown summary: best algorithm per metric and the ordering checks."""
    ratios = sorted({r.ratio for r in rows})
    lines = ["# Benchmark summary", ""]
    counts = sorted({r.image_count for r in rows})
    lines.append(f"Images per aggregate: {', '.join(str(c) for c in counts)}")
    lines.append("")
    for ratio in ratios:
        lines.append(f"## Ratio {ratio}")
        lines.append("")
        lines.extend(_best_table(rows, ratio))
        lines.append("")
        lines.append("### Ordering checks")
        lines.append("")
        for name, outcome in expected_ordering_checks(rows, ratio).items():
            status = "SKIPPED (algorithms missing)" if outcome is None else (
                "PASS" if outcome else "FAIL"
            )
            lines.append(f"- {name}: {status}")
        lines.append("")
    return "\n".join(lines)


def write_report(rows, out_dir) -> list:
    """Write the four metric charts and summary.md; returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for m in METRICS:
        path = out_dir / f"{m.stem}.svg"
        path.write_text(grouped_bar_svg(rows, m.attr, m.title, m.ylabel))
        written.append(path)
    summary = out_dir / "summary.md"
    summary.write_text(render_summary_md(rows))
    written.append(summary)
    return written
