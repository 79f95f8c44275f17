import re
from xml.dom import minidom

import pytest

from tetrascale import AggregateRow
from tetrascale.bench import AGGREGATES_HEADER
from tetrascale.report import (
    expected_ordering_checks,
    grouped_bar_svg,
    read_aggregates_csv,
)

TAGS = ("TN", "TB", "TC", "MD", "HR", "AT", "AC")
WEIGHTED = ("MD", "HR", "AT", "AC")

#: (check name, subject tag, attribute, rival tags or None for every other
#: tag, +1 where a higher value is better and -1 where a lower one is).
ORDERING_CASES = [
    ("TC_smallest_mean_mse", "TC", "mean_mse", None, -1),
    ("TC_largest_mean_ssim", "TC", "mean_ssim", None, +1),
    ("TC_largest_mean_psnr", "TC", "mean_psnr", None, +1),
    ("TN_smallest_mean_time", "TN", "mean_elapsed_s", None, -1),
    ("TB_faster_than_MD_HR_AT_AC", "TB", "mean_elapsed_s", WEIGHTED, -1),
    ("TB_largest_ssim_among_weighted", "TB", "mean_ssim", WEIGHTED, +1),
]

#: Scenario -> (subject's lead over the best rival, expected outcome).
SCENARIOS = {
    "better": (0.05, True),
    "tie": (0.0, False),
    "worse": (-0.05, False),
    "subject_absent": (0.05, None),
    "rivals_absent": (0.05, None),
}


def _row(tag, ratio=2, **means):
    values = dict(mean_mse=1.0, mean_psnr=1.0, mean_ssim=1.0, mean_elapsed_s=1.0)
    values.update(means)
    return AggregateRow(algorithm=tag, ratio=ratio, image_count=1, **values)


def _ordering_rows(scenario, subject, attr, rivals, sign):
    """Rows at ratio 2 where ``subject`` leads its best rival on ``attr`` by
    the scenario's lead. The best rival sits between worse ones. Tags that
    are not rivals, and a ratio-4 row of the subject, beat every ratio-2 rival
    and the subject, so a check that counted them would fail."""
    rivals = rivals or tuple(t for t in TAGS if t != subject)
    middle = len(rivals) // 2
    values = {t: 0.5 - sign * 0.1 * abs(i - middle) for i, t in enumerate(rivals)}
    values.update({t: 0.5 + sign * 0.4 for t in TAGS if t not in rivals})
    values[subject] = 0.5 + sign * SCENARIOS[scenario][0]
    if scenario == "subject_absent":
        del values[subject]
    if scenario == "rivals_absent":
        for t in rivals:
            del values[t]
    rows = [_row(t, **{attr: v}) for t, v in values.items()]
    return rows + [_row(subject, ratio=4, **{attr: 0.5 + sign * 0.45})]


class TestOrderingChecks:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize(
        "name, subject, attr, rivals, sign",
        ORDERING_CASES,
        ids=[c[0] for c in ORDERING_CASES],
    )
    def test_outcome(self, name, subject, attr, rivals, sign, scenario):
        rows = _ordering_rows(scenario, subject, attr, rivals, sign)
        assert expected_ordering_checks(rows, 2)[name] is SCENARIOS[scenario][1]

    def test_check_names_in_order(self):
        rows = [_row(t) for t in TAGS]
        assert list(expected_ordering_checks(rows, 2)) == [c[0] for c in ORDERING_CASES]


class TestBars:
    def test_negative_mean_draws_no_negative_bar(self):
        rows = [_row("TB", mean_ssim=-0.2), _row("TC", mean_ssim=0.9)]
        svg = grouped_bar_svg(rows, "mean_ssim", "Average SSIM", "SSIM")
        heights = [float(h) for h in re.findall(r'class="bar"[^>]*height="([^"]+)"', svg)]
        assert len(heights) == 2
        assert all(h >= 0 for h in heights)
        assert ">-0.2</text>" in svg
        minidom.parseString(svg)


def _write_aggregates(tmp_path, *lines):
    path = tmp_path / "aggregates.csv"
    path.write_text("\n".join([",".join(AGGREGATES_HEADER), *lines]) + "\n")
    return path


class TestReadAggregates:
    @pytest.mark.parametrize(
        "lines",
        [
            ("A<&B,2,1.0,30.0,0.9,0.001,1",),
            ("tb,2,1.0,30.0,0.9,0.001,1",),
            ("TB,2,1.0,30.0,0.9,0.001,1", "TB,2,2.0,31.0,0.8,0.002,1"),
            ("TB,2,nan,30.0,0.9,0.001,1",),
            ("TB,2,1.0,30.0,NaN,0.001,1",),
        ],
        ids=["markup_tag", "unknown_tag", "repeated_row", "nan_mse", "nan_ssim"],
    )
    def test_invalid_rows_rejected(self, tmp_path, lines):
        path = _write_aggregates(tmp_path, *lines)
        with pytest.raises(ValueError, match="malformed row"):
            read_aggregates_csv(path)
