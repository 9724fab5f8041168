"""Self-contained HTML report for one assessment result.

The document embeds all styles and the radar chart as inline SVG, so it
can be mailed around or dropped into a website as a single file. Rendering
is byte-deterministic: the same result always produces the same bytes, and
the report's date is the assessment date, never the wall clock.
"""

from __future__ import annotations

import datetime as dt
import functools
import math
from typing import NamedTuple

from .model import Characteristic, QualityModel
from .scoring import AssessmentResult, GapColor

# Radar axes keep the characteristic presentation order used in prose
# (Modifiability before Productionizability), which differs from the
# catalog row order of the matrix tables.
RADAR_AXIS_ORDER = (
    Characteristic.UTILITY,
    Characteristic.ECONOMY,
    Characteristic.ROBUSTNESS,
    Characteristic.MODIFIABILITY,
    Characteristic.PRODUCTIONIZABILITY,
    Characteristic.COMPREHENSIBILITY,
    Characteristic.RESPONSIBILITY,
)

_RADAR_WIDTH = 460
_RADAR_HEIGHT = 380
_CENTER_X = 230.0
_CENTER_Y = 190.0
_RADIUS = 130.0

# per colour, the title and the CSS colour of its report section
_SECTIONS = {
    GapColor.RED: ("Gaps blocking the next maturity level", "#c0392b"),
    GapColor.ORANGE: ("Gaps blocking maturity levels up to the required one", "#e67e22"),
    GapColor.YELLOW: ("Gaps beyond the required maturity level", "#b7950b"),
    GapColor.GREEN: ("Fulfilled quality attributes", "#1e8449"),
}


class ReportDocument(NamedTuple):
    html: str
    generated_at: dt.date


def escape(text: str) -> str:
    """`html.escape(text)`, without loading `html` and its entities table."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


def _axis_angle(index: int) -> float:
    # axis 0 points straight up; the rest proceed clockwise
    return math.radians(90.0 - index * 360.0 / 7.0)


def _axis_point(index: int, radius: float) -> tuple[float, float]:
    angle = _axis_angle(index)
    return _CENTER_X + radius * math.cos(angle), _CENTER_Y - radius * math.sin(angle)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _points(radii) -> str:
    """Polygon points at the k-th radius along the k-th axis."""
    return " ".join(
        f"{_fmt(x)},{_fmt(y)}" for x, y in (_axis_point(k, r) for k, r in enumerate(radii))
    )


@functools.cache
def _radar_frame() -> tuple[str, tuple[str, ...]]:
    """What a radar draws whatever its scores, built on the first render: the
    `<svg>` head, its rings and axis lines, and each axis label's `<text>` head."""
    parts = [
        f'<svg class="radar" role="img" width="{_RADAR_WIDTH}" height="{_RADAR_HEIGHT}" '
        f'viewBox="0 0 {_RADAR_WIDTH} {_RADAR_HEIGHT}" xmlns="http://www.w3.org/2000/svg">'
    ]
    for fraction in (0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<polygon points="{_points([_RADIUS * fraction] * 7)}" fill="none" '
            'stroke="#d5d8dc" stroke-width="1"/>'
        )
    for k in range(7):
        x, y = _axis_point(k, _RADIUS)
        parts.append(
            f'<line x1="{_fmt(_CENTER_X)}" y1="{_fmt(_CENTER_Y)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(y)}" stroke="#d5d8dc" stroke-width="1"/>'
        )
    heads = []
    for k in range(7):
        x, y = _axis_point(k, _RADIUS + 16)
        cos = math.cos(_axis_angle(k))
        anchor = "middle" if abs(cos) < 0.15 else "start" if cos > 0 else "end"
        heads.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 4)}" text-anchor="{anchor}" '
            'font-size="13" fill="#2c3e50">'
        )
    return "".join(parts), tuple(heads)


def render_radar(scores: dict[Characteristic, int]) -> str:
    """SVG radar over the seven characteristics.

    Expects exactly one score per characteristic; the polygon radius is
    linear in score/100 and vertices are rounded to two decimals so the
    output is byte-stable.
    """
    if set(scores) != set(RADAR_AXIS_ORDER):
        raise ValueError(
            f"expected scores for exactly 7 characteristics, got {len(scores)}"
        )
    frame, heads = _radar_frame()
    vertices = _points(_RADIUS * scores[axis] / 100.0 for axis in RADAR_AXIS_ORDER)
    labels = "".join(
        f"{head}{escape(f'{axis.display_name} ({scores[axis]})')}</text>"
        for head, axis in zip(heads, RADAR_AXIS_ORDER)
    )
    return (
        f'{frame}<polygon points="{vertices}" fill="#2e86c1" fill-opacity="0.35" '
        f'stroke="#2e86c1" stroke-width="2"/>{labels}</svg>'
    )


_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto;
       max-width: 52em; color: #2c3e50; }
h1 { font-size: 1.5em; margin-bottom: 0.2em; }
p.identity { color: #566573; margin-top: 0; }
table.summary { border-collapse: collapse; margin: 1em 0; }
table.summary td, table.summary th { border: 1px solid #d5d8dc;
       padding: 0.35em 0.8em; text-align: left; }
table.summary th { background: #f4f6f6; font-weight: 600; }
h2 { font-size: 1.1em; border-bottom: 2px solid currentColor;
     padding-bottom: 0.15em; }
ul.attributes { list-style: none; padding-left: 0; }
ul.attributes > li { margin: 0.6em 0; padding-left: 0.8em;
     border-left: 4px solid currentColor; }
li .attribute { font-weight: 600; }
li .reason { display: block; color: #566573; }
li .remediation { display: block; font-style: italic; }
p.empty { color: #808b96; font-style: italic; }
""".strip()


def _attribute_item(
    sub_id: str, reason: str, remediation: str | None
) -> str:
    name = sub_id.replace("_", " ").capitalize()
    lines = [
        "<li>",
        f'<span class="attribute">{escape(name)}</span>',
        f'<span class="reason">{escape(reason)}</span>',
    ]
    if remediation:
        lines.append(
            f'<span class="remediation">Recommendation: '
            f"{escape(remediation)}</span>"
        )
    lines.append("</li>")
    return "".join(lines)


def render_report(
    result: AssessmentResult, model: QualityModel | None = None
) -> ReportDocument:
    """Render the full report for one result.

    All numbers come from the result verbatim; nothing is re-derived here.
    Section membership and ordering follow the result's own color mapping,
    which preserves catalog row order, so a result loaded back from a
    stored snapshot renders identically without the model. Passing the
    model adds a consistency check that the colors cover it exactly.
    """
    if model is not None and set(result.colors) != set(model.ids):
        raise ValueError("result colors do not cover the model's sub-characteristics")
    assessment = result.assessment
    remediation_by_id = {
        rec.sub_characteristic: rec.remediation for rec in result.recommendations
    }

    sections = []
    for color, (title, css) in _SECTIONS.items():
        members = [
            sub_id for sub_id, c in result.colors.items() if c is color
        ]
        items = "".join(
            _attribute_item(
                sub_id,
                assessment.reason(sub_id),
                None if color is GapColor.GREEN else remediation_by_id.get(sub_id),
            )
            for sub_id in members
        )
        body = (
            f'<ul class="attributes">{items}</ul>'
            if members
            else '<p class="empty">None.</p>'
        )
        sections.append(
            f'<section style="color: {css}">'
            f"<h2>{escape(title)} ({len(members)})</h2>"
            f'<div style="color: #2c3e50">{body}</div>'
            "</section>"
        )

    family = ", ".join(assessment.family_members)
    criticality = assessment.criticality
    criticality_cell = (
        f"{int(criticality.level)} &mdash; {escape(criticality.justification)}"
        if criticality is not None
        else "not classified"
    )
    doc = f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8"/>
<title>ML quality report: {escape(assessment.system_id)}</title>
<style>
{_STYLE}
</style>
</head>
<body>
<h1>ML quality report: {escape(assessment.system_id)}</h1>
<p class="identity">Team {escape(assessment.team)} &middot;
System {escape(assessment.system_id)} &middot;
Family: {escape(family)} &middot;
Date {assessment.date.isoformat()}</p>
<table class="summary">
<tr><th>Business criticality</th><td>{criticality_cell}</td></tr>
<tr><th>Required maturity level</th><td>{result.required_maturity}</td></tr>
<tr><th>Actual maturity level</th><td>{result.maturity}</td></tr>
<tr><th>Quality score</th><td>{result.quality_score} / 100</td></tr>
</table>
{render_radar(result.characteristic_scores)}
{"".join(sections)}
</body>
</html>
"""
    return ReportDocument(html=doc, generated_at=assessment.date)
