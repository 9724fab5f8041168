"""Fleet-level aggregation of stored assessments.

Score distributions are summarized per month as five-number summaries
(nearest-rank quantiles), compliance is the fraction of systems without a
gap per attribute, and both views come with small deterministic SVG
renderers. All aggregations are pure folds: permuting the input never
changes the output. The history folds walk the rows sorted whole, so of
two rows of one system on one date the one with the higher score, then
the higher maturity, counts as the later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CohortError
from .model import LEVELS
from .percentiles import nearest_rank
from .report import escape
from .scoring import AssessmentResult
from .store import GapMask, HistoryRow, attribute_differences, no_gap_mask


@dataclass(frozen=True)
class DistributionSummary:
    """Quality-score distribution over the systems assessed in one month."""

    period: str  # YYYY-MM
    count: int
    minimum: int
    p25: int
    median: int
    p75: int
    maximum: int


@dataclass(frozen=True)
class ComplianceRow:
    sub_characteristic: str
    fraction_no_gap_before: float
    fraction_no_gap_after: float


def score_distribution(rows: Iterable[HistoryRow]) -> list[DistributionSummary]:
    """Five-number score summaries by month.

    A system counts once per month; when it was assessed several times in
    the same month only the latest assessment is kept (on equal dates, the
    higher score), mirroring a monthly evaluation cadence.
    """
    latest: dict[tuple[str, str, str], int] = {}
    for row in sorted(rows):
        period = f"{row.date.year:04d}-{row.date.month:02d}"
        latest[period, row.team, row.system] = row.quality_score
    if not latest:
        raise ValueError("score_distribution needs at least one history row")
    by_period: dict[str, list[int]] = {}
    for (period, _, _), score in latest.items():
        by_period.setdefault(period, []).append(score)
    summaries = []
    for period in sorted(by_period):
        scores = sorted(by_period[period])
        summaries.append(
            DistributionSummary(
                period=period,
                count=len(scores),
                minimum=scores[0],
                p25=nearest_rank(scores, 25),
                median=nearest_rank(scores, 50),
                p75=nearest_rank(scores, 75),
                maximum=scores[-1],
            )
        )
    return summaries


def compliance_by_subcharacteristic(
    before: Sequence[AssessmentResult], after: Sequence[AssessmentResult]
) -> list[ComplianceRow]:
    """Fraction of systems with no gap per attribute, in both cohorts.

    Row order follows the attribute order of the results themselves, which
    preserves catalog order. Cohort membership is whatever the caller
    passes; same systems or a changing fleet both work. Every result must
    assess the attributes the first one does (CohortError otherwise).
    """
    return compliance_from_masks(
        [no_gap_mask(result.assessment) for result in before],
        [no_gap_mask(result.assessment) for result in after],
        names=[
            f"{a.team}/{a.system_id} {a.date.isoformat()}"
            for a in (result.assessment for result in (*before, *after))
        ],
    )


def compliance_from_masks(
    before: Sequence[GapMask], after: Sequence[GapMask], names: Sequence[str]
) -> list[ComplianceRow]:
    """`compliance_by_subcharacteristic` over no-gap masks
    (`store.no_gap_mask`), one per cohort member.

    Rows follow the attribute order of the first member of `before`. A
    member assessing other attributes raises CohortError, naming it and
    the first member by `names` (one per member of `before`, then `after`).
    """
    if not before or not after:
        raise ValueError("both cohorts must be non-empty")
    order = before[0][0]
    position = {sub_id: index for index, sub_id in enumerate(order)}
    agreeing = {order}
    for name, (member_order, _) in zip(names, [*before, *after]):
        if member_order in agreeing:
            continue
        if set(member_order) != position.keys():
            raise CohortError(
                f"{name} does not assess the same attributes as {names[0]}: "
                + attribute_differences(order, member_order)
            )
        agreeing.add(member_order)

    def fractions(cohort: Sequence[GapMask]) -> list[float]:
        clean = [0] * len(order)
        for member_order, mask in cohort:
            for bit, sub_id in enumerate(member_order):
                if mask >> bit & 1:
                    clean[position[sub_id]] += 1
        return [value / len(cohort) for value in clean]

    return [
        ComplianceRow(
            sub_characteristic=sub_id,
            fraction_no_gap_before=fraction_before,
            fraction_no_gap_after=fraction_after,
        )
        for sub_id, fraction_before, fraction_after in zip(
            order, fractions(before), fractions(after)
        )
    ]


def distribution_csv(summaries: Sequence[DistributionSummary]) -> str:
    lines = ["period,count,min,p25,median,p75,max"]
    for s in summaries:
        lines.append(
            f"{s.period},{s.count},{s.minimum},{s.p25},{s.median},{s.p75},{s.maximum}"
        )
    return "\n".join(lines) + "\n"


def compliance_csv(rows: Sequence[ComplianceRow]) -> str:
    lines = ["sub_characteristic,fraction_no_gap_before,fraction_no_gap_after"]
    for row in rows:
        lines.append(
            f"{row.sub_characteristic},"
            f"{row.fraction_no_gap_before:.6f},{row.fraction_no_gap_after:.6f}"
        )
    return "\n".join(lines) + "\n"


# fixed palette; cycles when there are more systems than colors
_PALETTE = (
    "#2e86c1", "#cb4335", "#1e8449", "#8e44ad", "#d68910",
    "#148f77", "#922b21", "#2471a3", "#b7950b", "#633974",
)
# (label, color) of the compliance bars, in the order they are drawn
_COHORTS = (("before", "#85929e"), ("after", "#1e8449"))

_MARGIN_LEFT = 60.0
_MARGIN_TOP = 30.0
_PLOT_WIDTH = 560.0
_PLOT_HEIGHT = 300.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _svg_head(width: float, height: float) -> str:
    return (
        f'<svg role="img" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        'xmlns="http://www.w3.org/2000/svg">'
    )


def _grid(left: float, right: float, top: float, height: float, unit: str) -> list[str]:
    """Rules across [left, right] at 0, 25, 50, 75 and 100 of a plot
    `height` high below `top`, each labelled with its value and `unit`."""
    parts = []
    for value in (0, 25, 50, 75, 100):
        y = top + (100 - value) * height / 100
        parts.append(
            f'<line x1="{_fmt(left)}" y1="{_fmt(y)}" x2="{_fmt(right)}" y2="{_fmt(y)}" '
            'stroke="#d5d8dc" stroke-width="1"/>'
            f'<text x="{_fmt(left - 8)}" y="{_fmt(y + 4)}" '
            f'text-anchor="end" font-size="12" fill="#566573">{value}{unit}</text>'
        )
    return parts


def _maturity_marker(x: float, y: float, maturity: int, color: str) -> str:
    """A distinct glyph per maturity level 0..5 at the given point."""
    r = 5.0
    stroke = f' stroke="{color}" stroke-width="2" fill='
    if maturity == 0:  # saltire cross
        return (
            f'<path d="M {_fmt(x - r)} {_fmt(y - r)} L {_fmt(x + r)} {_fmt(y + r)} '
            f'M {_fmt(x - r)} {_fmt(y + r)} L {_fmt(x + r)} {_fmt(y - r)}"{stroke}"none"/>'
        )
    if maturity == 1:  # open circle
        glyph = f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}"'
    elif maturity == 2:  # open triangle
        glyph = (
            f'<polygon points="{_fmt(x)},{_fmt(y - r)} {_fmt(x - r)},{_fmt(y + r)} '
            f'{_fmt(x + r)},{_fmt(y + r)}"'
        )
    elif maturity == 3:  # open square
        glyph = (
            f'<rect x="{_fmt(x - r)}" y="{_fmt(y - r)}" width="{_fmt(2 * r)}" '
            f'height="{_fmt(2 * r)}"'
        )
    elif maturity == 4:  # open diamond
        glyph = (
            f'<polygon points="{_fmt(x)},{_fmt(y - r)} {_fmt(x + r)},{_fmt(y)} '
            f'{_fmt(x)},{_fmt(y + r)} {_fmt(x - r)},{_fmt(y)}"'
        )
    else:  # level 5: filled circle
        return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>'
    return f'{glyph}{stroke}"white"/>'


_MARKER_LEGEND = ((0, "below level 1"),) + tuple((level, f"level {level}") for level in LEVELS)


def render_trend_chart(rows: Iterable[HistoryRow]) -> str:
    """Per-system quality trajectories over assessment iterations.

    One polyline per system; x is the ordinal index of the assessment
    within that system's history (by date, then score) and y the quality
    score. The marker glyph at each point encodes the maturity level at
    that assessment.
    """
    by_system: dict[tuple[str, str], list[HistoryRow]] = {}
    for row in sorted(rows):
        by_system.setdefault((row.team, row.system), []).append(row)
    if not by_system:
        raise ValueError("render_trend_chart needs at least one history row")
    max_points = max(len(series) for series in by_system.values())

    def x_at(index: int) -> float:
        if max_points == 1:
            return _MARGIN_LEFT + _PLOT_WIDTH / 2
        return _MARGIN_LEFT + index * _PLOT_WIDTH / (max_points - 1)

    def y_at(score: int) -> float:
        return _MARGIN_TOP + (100 - score) * _PLOT_HEIGHT / 100

    legend_y = _MARGIN_TOP + _PLOT_HEIGHT + 58
    parts = [
        _svg_head(_MARGIN_LEFT + _PLOT_WIDTH + 30, legend_y + 24 * len(by_system) + 32),
        *_grid(_MARGIN_LEFT, _MARGIN_LEFT + _PLOT_WIDTH, _MARGIN_TOP, _PLOT_HEIGHT, ""),
        f'<text x="{_fmt(_MARGIN_LEFT + _PLOT_WIDTH / 2)}" '
        f'y="{_fmt(_MARGIN_TOP + _PLOT_HEIGHT + 32)}" text-anchor="middle" '
        'font-size="12" fill="#566573">assessment iteration</text>',
    ]
    for index, ((team, system), series) in enumerate(by_system.items()):
        color = _PALETTE[index % len(_PALETTE)]
        points = [(x_at(i), y_at(row.quality_score)) for i, row in enumerate(series)]
        if len(points) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="2"/>'
            )
        for (x, y), row in zip(points, series):
            parts.append(_maturity_marker(x, y, row.maturity, color))
        ly = legend_y + 24 * index
        parts.append(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(_MARGIN_LEFT + 24)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{_fmt(_MARGIN_LEFT + 32)}" y="{_fmt(ly)}" '
            f'font-size="12" fill="#2c3e50">{escape(f"{team} / {system}")}</text>'
        )
    marker_y = legend_y + 24 * len(by_system)
    for slot, (level, label) in enumerate(_MARKER_LEGEND):
        marker_x = _MARGIN_LEFT + 95 * slot
        parts.append(
            _maturity_marker(marker_x + 5, marker_y - 4, level, "#566573")
            + f'<text x="{_fmt(marker_x + 16)}" y="{_fmt(marker_y)}" '
            f'font-size="11" fill="#566573">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def render_compliance_chart(rows: Sequence[ComplianceRow]) -> str:
    """Grouped before/after bars of no-gap fractions per attribute."""
    if not rows:
        raise ValueError("render_compliance_chart needs at least one row")
    group_width = 34.0
    bar_width = 13.0
    plot_height = 260.0
    margin_left = 50.0
    margin_top = 24.0
    label_area = 150.0
    plot_right = margin_left + group_width * len(rows)
    parts = [
        _svg_head(plot_right + 30, margin_top + plot_height + label_area + 40),
        *_grid(margin_left, plot_right, margin_top, plot_height, "%"),
    ]
    for index, row in enumerate(rows):
        x0 = margin_left + index * group_width + 3
        fractions = (row.fraction_no_gap_before, row.fraction_no_gap_after)
        for slot, (fraction, (_, color)) in enumerate(zip(fractions, _COHORTS)):
            h = plot_height * fraction
            parts.append(
                f'<rect x="{_fmt(x0 + slot * (bar_width + 1))}" '
                f'y="{_fmt(margin_top + plot_height - h)}" '
                f'width="{_fmt(bar_width)}" height="{_fmt(h)}" fill="{color}"/>'
            )
        lx = x0 + bar_width
        ly = margin_top + plot_height + 8
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="11" fill="#2c3e50" '
            f'transform="rotate(-60 {_fmt(lx)} {_fmt(ly)})" text-anchor="end">'
            f"{escape(row.sub_characteristic)}</text>"
        )
    legend_y = margin_top + plot_height + label_area + 20
    for slot, (label, color) in enumerate(_COHORTS):
        x = margin_left + 90 * slot
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(legend_y - 10)}" width="12" '
            f'height="12" fill="{color}"/>'
            f'<text x="{_fmt(x + 18)}" y="{_fmt(legend_y)}" font-size="12" '
            f'fill="#2c3e50">{label}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)
