"""Report emission: grouped-bar SVG charts and a markdown summary.

Charts are self-contained static SVG (no scripting, no external assets).
One chart per metric; bars are grouped by ratio with one bar per algorithm.
Every bar is a ``<rect class="bar">`` so chart contents are easy to assert
in tests.
"""

from __future__ import annotations

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
#: Color of a tag outside SCHEMES (an aggregates CSV may name any tag).
_FALLBACK_COLOR = "#9c9c9c"

#: Column name -> the type its text is parsed into.
_COLUMN_TYPES = typing.get_type_hints(AggregateRow)

#: (attribute, chart file stem, title, y-axis label, better)
CHART_SPECS = (
    ("mean_elapsed_s", "time", "Average time per resize", "seconds", "lower"),
    ("mean_mse", "mse", "Average MSE", "MSE", "lower"),
    ("mean_ssim", "ssim", "Average SSIM", "SSIM", "higher"),
    ("mean_psnr", "psnr", "Average PSNR", "dB", "higher"),
)


def read_aggregates_csv(path) -> list:
    """Parse an aggregates CSV back into AggregateRow objects."""
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
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = {
                    name: _COLUMN_TYPES[name](text)
                    for name, text in zip(header, row, strict=True)
                }
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed row {row!r}") from exc
            rows.append(AggregateRow(**values))
    if not rows:
        raise ValueError(f"{path}: no aggregate rows")
    return rows


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
        clipped = min(value, y_max) if math.isfinite(value) else y_max
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
            color = _PALETTE.get(tag, _FALLBACK_COLOR)
            parts.append(
                f'<rect class="bar" x="{x:.1f}" y="{top:.1f}" width="{bar_w}" '
                f'height="{bar_h:.1f}" fill="{color}"/>'
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
    """Evaluate the expected algorithm orderings at one ratio.

    Returns a mapping of check name to True/False, or None when the
    algorithms a check needs are absent from the rows.
    """
    by_tag = _rows_for_ratio(rows, ratio)
    others = [t for t in by_tag if t != "TC"]
    rivals = [t for t in ("MD", "HR", "AT", "AC") if t in by_tag]

    def tc_best(attr, best):
        if "TC" not in by_tag or not others:
            return None
        tc = getattr(by_tag["TC"], attr)
        rest = [getattr(by_tag[t], attr) for t in others]
        return tc < min(rest) if best == "min" else tc > max(rest)

    checks = {
        "TC_smallest_mean_mse": tc_best("mean_mse", "min"),
        "TC_largest_mean_ssim": tc_best("mean_ssim", "max"),
        "TC_largest_mean_psnr": tc_best("mean_psnr", "max"),
    }
    if "TN" in by_tag and len(by_tag) > 1:
        tn = by_tag["TN"].mean_elapsed_s
        checks["TN_smallest_mean_time"] = tn < min(
            r.mean_elapsed_s for t, r in by_tag.items() if t != "TN"
        )
    else:
        checks["TN_smallest_mean_time"] = None
    if "TB" in by_tag and rivals:
        tb = by_tag["TB"]
        checks["TB_faster_than_MD_HR_AT_AC"] = all(
            tb.mean_elapsed_s < by_tag[t].mean_elapsed_s for t in rivals
        )
        checks["TB_largest_ssim_among_weighted"] = all(
            tb.mean_ssim > by_tag[t].mean_ssim for t in rivals
        )
    else:
        checks["TB_faster_than_MD_HR_AT_AC"] = None
        checks["TB_largest_ssim_among_weighted"] = None
    return checks


def _best_table(rows, ratio) -> list:
    by_tag = _rows_for_ratio(rows, ratio)
    if not by_tag:
        return []
    lines = [
        "| metric | best algorithm | value |",
        "| --- | --- | --- |",
    ]
    picks = (
        ("mean_mse", "MSE (lower is better)", min),
        ("mean_psnr", "PSNR (higher is better)", max),
        ("mean_ssim", "SSIM (higher is better)", max),
        ("mean_elapsed_s", "time (lower is better)", min),
    )
    for attr, label, pick in picks:
        tag = pick(by_tag, key=lambda t: getattr(by_tag[t], attr))
        lines.append(f"| {label} | {tag} | {_format_value(getattr(by_tag[tag], attr))} |")
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
    for attr, stem, title, ylabel, _better in CHART_SPECS:
        path = out_dir / f"{stem}.svg"
        path.write_text(grouped_bar_svg(rows, attr, title, ylabel))
        written.append(path)
    summary = out_dir / "summary.md"
    summary.write_text(render_summary_md(rows))
    written.append(summary)
    return written
