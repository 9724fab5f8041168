"""HTML report and radar rendering."""

from __future__ import annotations

import html
import math
import re

import pytest
from hypothesis import example, given, strategies as st

from conftest import make_assessment
from mlquality.model import Characteristic, Gap
from mlquality.report import (
    RADAR_AXIS_ORDER,
    _CENTER_X,
    _CENTER_Y,
    _RADIUS,
    escape,
    render_radar,
    render_report,
)
from mlquality.scoring import evaluate


def _scores(value: int = 100, **overrides: int) -> dict[Characteristic, int]:
    scores = {characteristic: value for characteristic in Characteristic}
    for name, score in overrides.items():
        scores[Characteristic[name.upper()]] = score
    return scores


def _score_polygon_points(svg: str) -> list[tuple[float, float]]:
    # the filled polygon is the score shape; rings are fill="none"
    match = re.search(r'<polygon points="([^"]+)" fill="#2e86c1"', svg)
    assert match is not None
    return [
        tuple(float(part) for part in pair.split(","))
        for pair in match.group(1).split(" ")
    ]


def _oracle_vertex(axis_index: int, score: int) -> tuple[float, float]:
    angle = math.radians(90.0 - axis_index * 360.0 / 7.0)
    radius = _RADIUS * score / 100.0
    x = _CENTER_X + radius * math.cos(angle)
    y = _CENTER_Y - radius * math.sin(angle)
    return round(x, 2), round(y, 2)


def test_radar_full_scores_form_regular_heptagon():
    points = _score_polygon_points(render_radar(_scores(100)))
    assert len(points) == 7
    for x, y in points:
        distance = math.hypot(x - _CENTER_X, y - _CENTER_Y)
        assert distance == pytest.approx(_RADIUS, abs=0.02)


def test_radar_zero_scores_collapse_to_center():
    points = _score_polygon_points(render_radar(_scores(0)))
    for x, y in points:
        assert (x, y) == (pytest.approx(_CENTER_X), pytest.approx(_CENTER_Y))


def test_radar_vertices_match_trig_oracle():
    scores = _scores(100, utility=50, economy=30, modifiability=80)
    points = _score_polygon_points(render_radar(scores))
    for index, axis in enumerate(RADAR_AXIS_ORDER):
        assert points[index] == _oracle_vertex(index, scores[axis])


def test_radar_half_utility_sits_on_vertical_axis():
    points = _score_polygon_points(render_radar(_scores(100, utility=50)))
    assert points[0] == (round(_CENTER_X, 2), round(_CENTER_Y - _RADIUS / 2, 2))


def test_radar_axis_order_puts_modifiability_fourth():
    assert RADAR_AXIS_ORDER[3] is Characteristic.MODIFIABILITY
    assert RADAR_AXIS_ORDER[0] is Characteristic.UTILITY
    assert RADAR_AXIS_ORDER[-1] is Characteristic.RESPONSIBILITY


def test_radar_rejects_wrong_axis_count():
    scores = _scores(100)
    del scores[Characteristic.ECONOMY]
    with pytest.raises(ValueError):
        render_radar(scores)


def test_radar_labels_present():
    svg = render_radar(_scores(100))
    for characteristic in Characteristic:
        assert characteristic.display_name in svg


def test_report_structure_for_perfect_system(model):
    result = evaluate(make_assessment(model, family=("ranker", "ranker_v2")), model)
    document = render_report(result, model)
    html = document.html

    assert document.generated_at == result.assessment.date
    assert "search" in html and "ranker" in html
    assert "ranker, ranker_v2" in html
    assert "2026-01-05" in html
    assert "100 / 100" in html
    assert html.count("(0)") == 3  # red, orange and yellow sections are empty
    assert "Fulfilled quality attributes (25)" in html
    # order: header, summary, radar, then the color sections
    assert html.index("<table") < html.index("<svg") < html.index("Gaps blocking")


def test_report_sections_partition_attributes(model):
    gaps = {
        "testability": Gap.LARGE,
        "adaptability": Gap.SMALL,
        "cost_effectiveness": Gap.LARGE,
    }
    result = evaluate(make_assessment(model, gaps), model)
    html = render_report(result, model).html
    for sub in model.sub_characteristics:
        assert html.count(f'<span class="attribute">{sub.display_name}</span>') == 1


def test_report_maturity_one_lists_red_blockers(model):
    gaps = {"testability": Gap.LARGE, "adaptability": Gap.SMALL}
    result = evaluate(make_assessment(model, gaps), model)
    assert result.maturity == 1
    html = render_report(result, model).html
    red = html.index("Gaps blocking the next maturity level (1)")
    orange = html.index("Gaps blocking maturity levels up to the required one (1)")
    assert red < orange
    assert html.index("Testability") > red


def test_report_remediation_only_for_gapped_attributes(model):
    result = evaluate(make_assessment(model, {"monitoring": Gap.SMALL}), model)
    html = render_report(result, model).html
    assert html.count('<span class="remediation">') == 1
    assert model.remediation_texts["monitoring"] in html


def test_report_summary_uses_result_values_verbatim(model):
    result = evaluate(make_assessment(model, {"usability": Gap.LARGE}), model)
    html = render_report(result, model).html
    assert f"<td>{result.quality_score} / 100</td>" in html
    assert f"<td>{result.maturity}</td>" in html
    assert f"<td>{result.required_maturity}</td>" in html


def test_report_is_byte_deterministic(model):
    result = evaluate(make_assessment(model, {"fairness": Gap.LARGE}), model)
    assert render_report(result, model).html == render_report(result, model).html


def test_report_is_self_contained(model):
    result = evaluate(make_assessment(model), model)
    html = render_report(result, model).html
    assert "http" not in html.replace("http://www.w3.org/2000/svg", "")
    assert "src=" not in html
    assert "href=" not in html


def test_report_escapes_untrusted_text(model):
    result = evaluate(
        make_assessment(model, team="a<b>&c", system_id="s<script>"), model
    )
    html = render_report(result).html
    assert "<script>" not in html
    assert "a&lt;b&gt;&amp;c" in html


@given(st.text())
@example("&amp; <b class=\"x\">it's</b> &#x27;")
def test_escape_equals_html_escape(text):
    assert escape(text) == html.escape(text, quote=True)


def _per_call_radar(scores: dict[Characteristic, int]) -> str:
    """The radar as it was drawn in full on every call, before its frame
    was built once: the reference the cached frame must reproduce."""

    def axis_angle(index: int) -> float:
        return math.radians(90.0 - index * 360.0 / 7.0)

    def axis_point(index: int, radius: float) -> tuple[float, float]:
        angle = axis_angle(index)
        return _CENTER_X + radius * math.cos(angle), _CENTER_Y - radius * math.sin(angle)

    def fmt(value: float) -> str:
        return f"{value:.2f}"

    parts = [
        '<svg class="radar" role="img" width="460" height="380" '
        'viewBox="0 0 460 380" xmlns="http://www.w3.org/2000/svg">'
    ]
    for fraction in (0.25, 0.5, 0.75, 1.0):
        ring = " ".join(
            f"{fmt(x)},{fmt(y)}"
            for x, y in (axis_point(k, _RADIUS * fraction) for k in range(7))
        )
        parts.append(
            f'<polygon points="{ring}" fill="none" stroke="#d5d8dc" stroke-width="1"/>'
        )
    for k in range(7):
        x, y = axis_point(k, _RADIUS)
        parts.append(
            f'<line x1="{fmt(_CENTER_X)}" y1="{fmt(_CENTER_Y)}" '
            f'x2="{fmt(x)}" y2="{fmt(y)}" stroke="#d5d8dc" stroke-width="1"/>'
        )
    vertices = " ".join(
        f"{fmt(x)},{fmt(y)}"
        for x, y in (
            axis_point(k, _RADIUS * scores[axis] / 100.0)
            for k, axis in enumerate(RADAR_AXIS_ORDER)
        )
    )
    parts.append(
        f'<polygon points="{vertices}" fill="#2e86c1" fill-opacity="0.35" '
        'stroke="#2e86c1" stroke-width="2"/>'
    )
    for k, axis in enumerate(RADAR_AXIS_ORDER):
        x, y = axis_point(k, _RADIUS + 16)
        cos = math.cos(axis_angle(k))
        if abs(cos) < 0.15:
            anchor = "middle"
        elif cos > 0:
            anchor = "start"
        else:
            anchor = "end"
        label = f"{axis.display_name} ({scores[axis]})"
        parts.append(
            f'<text x="{fmt(x)}" y="{fmt(y + 4)}" text-anchor="{anchor}" '
            f'font-size="13" fill="#2c3e50">{escape(label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


@given(st.lists(st.integers(0, 100), min_size=7, max_size=7))
@example([0] * 7)
@example([100] * 7)
def test_radar_equals_the_per_call_drawing(values):
    scores = dict(zip(RADAR_AXIS_ORDER, values))
    assert render_radar(scores) == _per_call_radar(scores)
