"""Fleet aggregation: distributions, compliance and chart rendering."""

from __future__ import annotations

import datetime as dt
import math
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_assessment
from mlquality.analytics import (
    ComplianceRow,
    compliance_by_subcharacteristic,
    compliance_csv,
    compliance_from_masks,
    distribution_csv,
    render_compliance_chart,
    render_trend_chart,
    score_distribution,
)
from mlquality.errors import CohortError
from mlquality.model import Gap, default_model
from mlquality.percentiles import nearest_rank
from mlquality.scoring import evaluate
from mlquality.store import HistoryRow

MODEL = default_model()


def row(
    system: str = "ranker",
    day: int = 1,
    score: int = 80,
    maturity: int = 3,
    team: str = "search",
    month: int = 1,
) -> HistoryRow:
    return HistoryRow(
        team=team,
        system=system,
        date=dt.date(2026, month, day),
        quality_score=score,
        maturity=maturity,
    )


def oracle_percentile(values: list[int], percent: int) -> int:
    ordered = sorted(values)
    rank = math.ceil(percent / 100 * len(ordered))
    return ordered[rank - 1]


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=1000))
@settings(max_examples=200)
def test_nearest_rank_matches_sort_and_index_oracle(values):
    for percent in (25, 50, 66, 75, 80):
        assert nearest_rank(values, percent) == oracle_percentile(values, percent)


def test_nearest_rank_rejects_empty():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_distribution_singleton():
    (summary,) = score_distribution([row(score=80)])
    assert summary.period == "2026-01"
    assert summary.count == 1
    assert (
        summary.minimum, summary.p25, summary.median, summary.p75, summary.maximum
    ) == (80, 80, 80, 80, 80)


def test_distribution_median_of_three():
    rows = [row(system=name, score=score) for name, score in
            (("a", 0), ("b", 50), ("c", 100))]
    (summary,) = score_distribution(rows)
    assert summary.median == 50
    assert summary.minimum == 0
    assert summary.maximum == 100
    assert summary.count == 3


def test_distribution_keeps_latest_per_system_per_month():
    rows = [row(day=1, score=10), row(day=20, score=90)]
    (summary,) = score_distribution(rows)
    assert summary.count == 1
    assert summary.median == 90


def test_distribution_groups_by_month():
    rows = [row(month=1, score=40), row(month=2, score=60)]
    summaries = score_distribution(rows)
    assert [s.period for s in summaries] == ["2026-01", "2026-02"]


def test_distribution_rejects_empty():
    with pytest.raises(ValueError):
        score_distribution([])


def test_distribution_permutation_invariant():
    rows = [
        row(system=f"s{i}", day=1 + i % 3, score=(i * 13) % 101, month=1 + i % 4)
        for i in range(30)
    ]
    expected = score_distribution(rows)
    shuffled = rows[:]
    random.Random(7).shuffle(shuffled)
    assert score_distribution(shuffled) == expected


def _cohort(*per_system_gaps: dict[str, Gap]):
    return [
        evaluate(make_assessment(MODEL, gaps, system_id=f"s{i}"), MODEL)
        for i, gaps in enumerate(per_system_gaps)
    ]


def test_compliance_all_clean():
    rows = compliance_by_subcharacteristic(_cohort({}, {}), _cohort({}))
    assert len(rows) == 25
    assert [r.sub_characteristic for r in rows] == list(MODEL.ids)
    assert all(r.fraction_no_gap_before == 1.0 for r in rows)
    assert all(r.fraction_no_gap_after == 1.0 for r in rows)


def test_compliance_counts_improvement():
    before = _cohort({"testability": Gap.LARGE}, {})
    after = _cohort({}, {})
    rows = {r.sub_characteristic: r for r in
            compliance_by_subcharacteristic(before, after)}
    assert rows["testability"].fraction_no_gap_before == 0.5
    assert rows["testability"].fraction_no_gap_after == 1.0


def test_compliance_zero_everywhere():
    before = _cohort({"fairness": Gap.LARGE})
    after = _cohort({"fairness": Gap.LARGE}, {"fairness": Gap.LARGE})
    rows = {r.sub_characteristic: r for r in
            compliance_by_subcharacteristic(before, after)}
    assert rows["fairness"].fraction_no_gap_before == 0.0
    assert rows["fairness"].fraction_no_gap_after == 0.0


def test_compliance_rejects_empty_cohort():
    with pytest.raises(ValueError):
        compliance_by_subcharacteristic([], _cohort({}))


def test_compliance_rejects_members_assessing_other_attributes():
    before = _cohort({}, {})
    lacking = _cohort({})[0]
    gaps = dict(lacking.assessment.gaps)
    del gaps["fairness"]
    lacking = lacking._replace(assessment=replace(lacking.assessment, gaps=gaps))
    with pytest.raises(CohortError) as raised:
        compliance_by_subcharacteristic(before, [lacking])
    assert isinstance(raised.value, ValueError)
    assert str(raised.value) == (
        "search/s0 2026-01-05 does not assess the same attributes as "
        "search/s0 2026-01-05: lacks fairness"
    )
    with pytest.raises(CohortError, match="adds fairness"):
        compliance_by_subcharacteristic([lacking], before)


def test_compliance_from_masks_follows_each_members_own_order():
    ids = list(MODEL.ids)
    before = [(tuple(ids), 0b1), (tuple(reversed(ids)), 1 << (len(ids) - 1))]
    rows = compliance_from_masks(before, [(tuple(ids), 0)], names=["a", "b", "c"])
    assert rows[0] == ComplianceRow(ids[0], 1.0, 0.0)
    assert all(row.fraction_no_gap_before == 0.0 for row in rows[1:])


def test_compliance_permutation_invariant():
    before = _cohort({"testability": Gap.LARGE}, {}, {"fairness": Gap.LARGE})
    after = _cohort({}, {"monitoring": Gap.SMALL})
    expected = compliance_by_subcharacteristic(before, after)
    assert compliance_by_subcharacteristic(before[::-1], after[::-1]) == expected


def test_trend_chart_single_system_polyline():
    rows = [row(day=d, score=s, maturity=m) for d, s, m in
            ((1, 60, 1), (10, 75, 1), (20, 98, 3))]
    svg = render_trend_chart(rows)
    assert svg.count("<polyline") == 1
    assert "search / ranker" in svg


def test_trend_chart_two_systems_two_polylines():
    rows = [
        row(system="a", day=1), row(system="a", day=2),
        row(system="b", day=1), row(system="b", day=2),
    ]
    svg = render_trend_chart(rows)
    assert svg.count("<polyline") == 2
    assert "search / a" in svg and "search / b" in svg


def test_trend_chart_marker_changes_with_maturity():
    # the glyph legend always shows all six markers; data points add more
    improving = render_trend_chart([row(day=1, maturity=1), row(day=2, maturity=3)])
    flat = render_trend_chart([row(day=1, maturity=1), row(day=2, maturity=1)])
    assert improving.count("<rect") == flat.count("<rect") + 1  # one square point
    assert flat.count("<circle") == improving.count("<circle") + 1


HISTORY_ROWS = st.lists(
    st.builds(
        HistoryRow,
        team=st.sampled_from(["t", "u"]),
        system=st.sampled_from(["s", "r"]),
        date=st.sampled_from([dt.date(2026, 1, 5), dt.date(2026, 1, 20), dt.date(2026, 2, 3)]),
        quality_score=st.integers(min_value=0, max_value=100),
        maturity=st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=12,
)


@given(HISTORY_ROWS.flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
@example((
    [row(team="t", system="s", day=5, score=40, maturity=1),
     row(team="t", system="s", day=5, score=90, maturity=3)],
    [row(team="t", system="s", day=5, score=90, maturity=3),
     row(team="t", system="s", day=5, score=40, maturity=1)],
))
@settings(max_examples=200)
def test_history_folds_are_permutation_invariant_with_repeated_dates(case):
    rows, permuted = case
    assert score_distribution(permuted) == score_distribution(rows)
    assert render_trend_chart(permuted) == render_trend_chart(rows)


def test_trend_chart_deterministic_and_rejects_empty():
    rows = [row(day=1), row(day=2, score=90)]
    assert render_trend_chart(rows) == render_trend_chart(list(reversed(rows)))
    with pytest.raises(ValueError):
        render_trend_chart([])


def test_compliance_chart_bar_heights_follow_fractions():
    svg = render_compliance_chart(
        [ComplianceRow("testability", 0.5, 1.0)]
    )
    assert svg.count("<rect") >= 2
    assert 'height="130.00"' in svg  # 50% of the 260 plot height
    assert 'height="260.00"' in svg


def test_compliance_chart_renders_all_rows_in_order():
    rows = [ComplianceRow(sub_id, 0.4, 0.8) for sub_id in MODEL.ids]
    svg = render_compliance_chart(rows)
    positions = [svg.index(f">{sub_id}<") for sub_id in MODEL.ids]
    assert positions == sorted(positions)


def test_compliance_chart_equal_fractions_equal_bars():
    svg = render_compliance_chart([ComplianceRow("fairness", 0.75, 0.75)])
    assert svg.count('height="195.00"') == 2


def test_distribution_csv_format():
    text = distribution_csv(score_distribution([row(score=80)]))
    assert text == "period,count,min,p25,median,p75,max\n2026-01,1,80,80,80,80,80\n"


def test_compliance_csv_format():
    text = compliance_csv([ComplianceRow("testability", 0.5, 1.0)])
    assert text == (
        "sub_characteristic,fraction_no_gap_before,fraction_no_gap_after\n"
        "testability,0.500000,1.000000\n"
    )
