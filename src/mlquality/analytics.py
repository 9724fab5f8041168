"""Fleet-level aggregation of stored assessments.

Score distributions are summarized per month as five-number summaries
(nearest-rank quantiles), compliance is the fraction of systems without a
gap per attribute, and both views come with small deterministic SVG
renderers. All aggregations are pure folds: permuting the input never
changes the output.
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
    the same month only the latest assessment is kept, mirroring a monthly
    evaluation cadence.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("score_distribution needs at least one history row")
    latest: dict[tuple[str, str, str], HistoryRow] = {}
    for row in rows:
        period = f"{row.date.year:04d}-{row.date.month:02d}"
        key = (period, row.team, row.system)
        current = latest.get(key)
        if current is None or row.date > current.date:
            latest[key] = row
    by_period: dict[str, list[int]] = {}
    for (period, _, _), row in latest.items():
        by_period.setdefault(period, []).append(row.quality_score)
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

_MARGIN_LEFT = 60.0
_MARGIN_TOP = 30.0
_PLOT_WIDTH = 560.0
_PLOT_HEIGHT = 300.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _maturity_marker(x: float, y: float, maturity: int, color: str) -> str:
    """A distinct glyph per maturity level 0..5 at the given point."""
    r = 5.0
    if maturity == 0:  # saltire cross
        return (
            f'<path d="M {_fmt(x - r)} {_fmt(y - r)} L {_fmt(x + r)} {_fmt(y + r)} '
            f'M {_fmt(x - r)} {_fmt(y + r)} L {_fmt(x + r)} {_fmt(y - r)}" '
            f'stroke="{color}" stroke-width="2" fill="none"/>'
        )
    if maturity == 1:  # open circle
        return (
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
            f'stroke="{color}" stroke-width="2" fill="white"/>'
        )
    if maturity == 2:  # open triangle
        points = f"{_fmt(x)},{_fmt(y - r)} {_fmt(x - r)},{_fmt(y + r)} {_fmt(x + r)},{_fmt(y + r)}"
        return (
            f'<polygon points="{points}" stroke="{color}" stroke-width="2" fill="white"/>'
        )
    if maturity == 3:  # open square
        return (
            f'<rect x="{_fmt(x - r)}" y="{_fmt(y - r)}" width="{_fmt(2 * r)}" '
            f'height="{_fmt(2 * r)}" stroke="{color}" stroke-width="2" fill="white"/>'
        )
    if maturity == 4:  # open diamond
        points = (
            f"{_fmt(x)},{_fmt(y - r)} {_fmt(x + r)},{_fmt(y)} "
            f"{_fmt(x)},{_fmt(y + r)} {_fmt(x - r)},{_fmt(y)}"
        )
        return (
            f'<polygon points="{points}" stroke="{color}" stroke-width="2" fill="white"/>'
        )
    # level 5: filled circle
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>'


_MARKER_LEGEND = ((0, "below level 1"),) + tuple((level, f"level {level}") for level in LEVELS)


def render_trend_chart(rows: Iterable[HistoryRow]) -> str:
    """Per-system quality trajectories over assessment iterations.

    One polyline per system; x is the ordinal index of the assessment
    within that system's history and y the quality score. The marker glyph
    at each point encodes the maturity level at that assessment.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("render_trend_chart needs at least one history row")
    by_system: dict[tuple[str, str], list[HistoryRow]] = {}
    for row in rows:
        by_system.setdefault((row.team, row.system), []).append(row)
    systems = sorted(by_system)
    for key in systems:
        by_system[key].sort(key=lambda row: row.date)
    max_points = max(len(series) for series in by_system.values())

    def x_at(index: int) -> float:
        if max_points == 1:
            return _MARGIN_LEFT + _PLOT_WIDTH / 2
        return _MARGIN_LEFT + index * _PLOT_WIDTH / (max_points - 1)

    def y_at(score: int) -> float:
        return _MARGIN_TOP + (100 - score) * _PLOT_HEIGHT / 100

    legend_h = 24 * len(systems) + 40
    width = _MARGIN_LEFT + _PLOT_WIDTH + 30
    height = _MARGIN_TOP + _PLOT_HEIGHT + 50 + legend_h
    parts = [
        f'<svg role="img" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    for score in (0, 25, 50, 75, 100):
        y = y_at(score)
        parts.append(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(_MARGIN_LEFT + _PLOT_WIDTH)}" y2="{_fmt(y)}" '
            'stroke="#d5d8dc" stroke-width="1"/>'
            f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" '
            f'text-anchor="end" font-size="12" fill="#566573">{score}</text>'
        )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + _PLOT_WIDTH / 2)}" '
        f'y="{_fmt(_MARGIN_TOP + _PLOT_HEIGHT + 32)}" text-anchor="middle" '
        'font-size="12" fill="#566573">assessment iteration</text>'
    )
    for index, key in enumerate(systems):
        color = _PALETTE[index % len(_PALETTE)]
        series = by_system[key]
        points = [(x_at(i), y_at(row.quality_score)) for i, row in enumerate(series)]
        if len(points) > 1:
            path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="2"/>'
            )
        for (x, y), row in zip(points, series):
            parts.append(_maturity_marker(x, y, row.maturity, color))
        label = f"{key[0]} / {key[1]}"
        ly = _MARGIN_TOP + _PLOT_HEIGHT + 58 + 24 * index
        parts.append(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(ly - 4)}" '
            f'x2="{_fmt(_MARGIN_LEFT + 24)}" y2="{_fmt(ly - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{_fmt(_MARGIN_LEFT + 32)}" y="{_fmt(ly)}" '
            f'font-size="12" fill="#2c3e50">{escape(label)}</text>'
        )
    marker_y = _MARGIN_TOP + _PLOT_HEIGHT + 58 + 24 * len(systems)
    marker_x = _MARGIN_LEFT
    for level, label in _MARKER_LEGEND:
        parts.append(_maturity_marker(marker_x + 5, marker_y - 4, level, "#566573"))
        parts.append(
            f'<text x="{_fmt(marker_x + 16)}" y="{_fmt(marker_y)}" '
            f'font-size="11" fill="#566573">{escape(label)}</text>'
        )
        marker_x += 95
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
    width = margin_left + group_width * len(rows) + 30
    height = margin_top + plot_height + label_area + 40

    def bar_height(fraction: float) -> float:
        return plot_height * fraction

    parts = [
        f'<svg role="img" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        'xmlns="http://www.w3.org/2000/svg">'
    ]
    for percent in (0, 25, 50, 75, 100):
        y = margin_top + plot_height * (100 - percent) / 100
        parts.append(
            f'<line x1="{_fmt(margin_left)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(margin_left + group_width * len(rows))}" y2="{_fmt(y)}" '
            'stroke="#d5d8dc" stroke-width="1"/>'
            f'<text x="{_fmt(margin_left - 8)}" y="{_fmt(y + 4)}" '
            f'text-anchor="end" font-size="12" fill="#566573">{percent}%</text>'
        )
    for index, row in enumerate(rows):
        x0 = margin_left + index * group_width + 3
        for offset, fraction, color in (
            (0.0, row.fraction_no_gap_before, "#85929e"),
            (bar_width + 1, row.fraction_no_gap_after, "#1e8449"),
        ):
            h = bar_height(fraction)
            parts.append(
                f'<rect x="{_fmt(x0 + offset)}" '
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
    parts.append(
        f'<rect x="{_fmt(margin_left)}" y="{_fmt(legend_y - 10)}" width="12" '
        'height="12" fill="#85929e"/>'
        f'<text x="{_fmt(margin_left + 18)}" y="{_fmt(legend_y)}" font-size="12" '
        'fill="#2c3e50">before</text>'
        f'<rect x="{_fmt(margin_left + 90)}" y="{_fmt(legend_y - 10)}" width="12" '
        'height="12" fill="#1e8449"/>'
        f'<text x="{_fmt(margin_left + 108)}" y="{_fmt(legend_y)}" font-size="12" '
        'fill="#2c3e50">after</text>'
    )
    parts.append("</svg>")
    return "".join(parts)
