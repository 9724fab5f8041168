"""Scoring engine: score, maturity, criticality, colors, recommendations.

The maturity oracle here recomputes satisfaction from scratch with
different code (arithmetic demand check over the full matrix) so the two
paths can disagree if either is wrong.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlquality.scoring
from conftest import make_assessment
from mlquality.errors import GapFileError
from mlquality.model import Characteristic, Gap, default_model
from mlquality.scoring import (
    BusinessCriticality,
    CriticalityLevel,
    FleetStats,
    GapColor,
    SystemUsage,
    characteristic_scores,
    classify_gaps,
    determine_criticality,
    evaluate,
    maturity_level,
    quality_score,
    recommendations,
    required_maturity,
    satisfies_level,
)

MODEL = default_model()

gap_vectors = st.fixed_dictionaries(
    {sub_id: st.sampled_from(MODEL.legal_gaps(sub_id)) for sub_id in MODEL.ids}
)


def oracle_maturity(gaps: dict[str, Gap]) -> int:
    """Independent recomputation: a gap of value g satisfies a demand of
    value d exactly when g + d <= 2."""
    satisfied_levels = []
    for level in (1, 2, 3, 4, 5):
        ok = True
        for sub_id, gap in gaps.items():
            demand = MODEL.matrix[sub_id][level - 1]
            if int(gap) + int(demand) > 2:
                ok = False
        if ok:
            satisfied_levels.append(level)
    if not satisfied_levels:
        return 0
    assert satisfied_levels == list(range(1, len(satisfied_levels) + 1))
    return satisfied_levels[-1]


def oracle_score(gaps: dict[str, Gap]) -> int:
    exact = 100 * (1 - Fraction(sum(int(g) for g in gaps.values()), 2 * len(gaps)))
    assert exact >= 0
    return int(exact)  # int() truncates toward zero, matching the floor


def test_score_anchors(model):
    assert quality_score(make_assessment(model), model) == 100
    all_large = {sub_id: Gap.LARGE for sub_id in model.ids}
    assert quality_score(make_assessment(model, all_large), model) == 0
    one_small = make_assessment(model, {"effectiveness": Gap.SMALL})
    assert quality_score(one_small, model) == 98


@given(gap_vectors)
@settings(max_examples=300)
def test_score_matches_exact_rational_floor(gaps):
    assessment = make_assessment(MODEL, gaps)
    assert quality_score(assessment, MODEL) == oracle_score(gaps)


def test_characteristic_scores_anchors(model):
    perfect = characteristic_scores(make_assessment(model), model)
    assert perfect == {characteristic: 100 for characteristic in Characteristic}
    utility_hit = characteristic_scores(
        make_assessment(model, {"accuracy": Gap.LARGE}), model
    )
    assert utility_hit[Characteristic.UTILITY] == 75
    assert utility_hit[Characteristic.ECONOMY] == 100
    economy_out = characteristic_scores(
        make_assessment(
            model, {"cost_effectiveness": Gap.LARGE, "efficiency": Gap.LARGE}
        ),
        model,
    )
    assert economy_out[Characteristic.ECONOMY] == 0


@given(gap_vectors)
@settings(max_examples=200)
def test_characteristic_scores_match_restricted_oracle(gaps):
    assessment = make_assessment(MODEL, gaps)
    scores = characteristic_scores(assessment, MODEL)
    for characteristic in Characteristic:
        rows = [sub.id for sub in MODEL.rows_of(characteristic)]
        exact = 100 * (
            1 - Fraction(sum(int(gaps[sub_id]) for sub_id in rows), 2 * len(rows))
        )
        assert scores[characteristic] == int(exact)


def test_satisfies_level_examples(model):
    assert satisfies_level(make_assessment(model), 5, model)
    all_large = make_assessment(model, {sub_id: Gap.LARGE for sub_id in model.ids})
    assert not satisfies_level(all_large, 1, model)
    one_small = make_assessment(model, {"effectiveness": Gap.SMALL})
    assert not satisfies_level(one_small, 5, model)
    assert satisfies_level(one_small, 4, model)


def test_satisfies_level_rejects_bad_level(model):
    with pytest.raises(ValueError):
        satisfies_level(make_assessment(model), 0, model)


def test_maturity_anchors(model):
    assert maturity_level(make_assessment(model), model) == 5
    all_large = make_assessment(model, {sub_id: Gap.LARGE for sub_id in model.ids})
    assert maturity_level(all_large, model) == 0
    one_small = make_assessment(model, {"effectiveness": Gap.SMALL})
    assert maturity_level(one_small, model) == 4


@given(gap_vectors)
@settings(max_examples=300)
def test_maturity_matches_oracle(gaps):
    assessment = make_assessment(MODEL, gaps)
    assert maturity_level(assessment, MODEL) == oracle_maturity(gaps)


@given(gap_vectors, st.integers(min_value=0, max_value=24))
@settings(max_examples=300)
def test_lowering_a_gap_never_hurts(gaps, row_index):
    sub_id = MODEL.ids[row_index]
    if gaps[sub_id] is Gap.NO_GAP:
        return
    lowered = dict(gaps)
    lowered[sub_id] = Gap.NO_GAP
    before = make_assessment(MODEL, gaps)
    after = make_assessment(MODEL, lowered)
    assert quality_score(after, MODEL) >= quality_score(before, MODEL)
    assert maturity_level(after, MODEL) >= maturity_level(before, MODEL)


def test_score_and_maturity_consistency(model):
    """Under the default matrix, full score and full maturity coincide."""
    perfect = make_assessment(model)
    assert quality_score(perfect, model) == 100
    assert maturity_level(perfect, model) == 5
    one_small = make_assessment(model, {"effectiveness": Gap.SMALL})
    assert quality_score(one_small, model) < 100
    assert maturity_level(one_small, model) < 5


FLEET = FleetStats(requests_p66=10_000, training_duration_p80=120)


def test_criticality_poc():
    usage = SystemUsage(in_production=False, requests_per_day=999_999, strategic=True)
    criticality = determine_criticality(usage, FLEET)
    assert criticality.level is CriticalityLevel.PROOF_OF_CONCEPT
    assert "experimentation" in criticality.justification


def test_criticality_each_condition_fires_alone():
    base = dict(in_production=True)
    by_traffic = determine_criticality(
        SystemUsage(requests_per_day=10_001, **base), FLEET
    )
    assert by_traffic.level is CriticalityLevel.PRODUCTION_CRITICAL
    assert "66th percentile" in by_traffic.justification

    by_consumers = determine_criticality(
        SystemUsage(dependent_consumers=5, **base), FLEET
    )
    assert by_consumers.level is CriticalityLevel.PRODUCTION_CRITICAL
    assert "dependent teams" in by_consumers.justification

    by_revenue = determine_criticality(
        SystemUsage(revenue_share=0.011, **base), FLEET
    )
    assert by_revenue.level is CriticalityLevel.PRODUCTION_CRITICAL
    assert "revenue share" in by_revenue.justification

    by_strategy = determine_criticality(SystemUsage(strategic=True, **base), FLEET)
    assert by_strategy.level is CriticalityLevel.PRODUCTION_CRITICAL
    assert "strategic" in by_strategy.justification


def test_criticality_boundaries_are_strict():
    usage = SystemUsage(
        in_production=True,
        requests_per_day=10_000,  # exactly p66
        dependent_consumers=4,
        revenue_share=0.01,
        strategic=False,
    )
    criticality = determine_criticality(usage, FLEET)
    assert criticality.level is CriticalityLevel.PRODUCTION_NON_CRITICAL


def test_criticality_justification_names_first_rule():
    usage = SystemUsage(
        in_production=True,
        requests_per_day=10_001,
        dependent_consumers=50,
        revenue_share=0.5,
        strategic=True,
    )
    criticality = determine_criticality(usage, FLEET)
    assert "66th percentile" in criticality.justification


def test_required_maturity_is_the_level():
    for level in CriticalityLevel:
        criticality = BusinessCriticality(level=level, justification="x")
        assert required_maturity(criticality) == int(level)


def test_colors_all_green_when_perfect(model):
    colors = classify_gaps(make_assessment(model), model, required=5)
    assert set(colors.values()) == {GapColor.GREEN}
    assert set(colors) == set(model.ids)


def test_colors_red_for_next_level_blockers(model):
    # testability LARGE fails level 2; adaptability SMALL fails level 4;
    # effectiveness SMALL and cost_effectiveness LARGE fail level 5 only
    gaps = {
        "testability": Gap.LARGE,
        "adaptability": Gap.SMALL,
        "effectiveness": Gap.SMALL,
        "cost_effectiveness": Gap.LARGE,
    }
    assessment = make_assessment(model, gaps)
    assert maturity_level(assessment, model) == 1
    colors = classify_gaps(assessment, model, required=5)
    assert colors["testability"] is GapColor.RED
    assert colors["adaptability"] is GapColor.ORANGE
    assert colors["effectiveness"] is GapColor.ORANGE
    assert colors["cost_effectiveness"] is GapColor.ORANGE
    assert colors["accuracy"] is GapColor.GREEN


def test_colors_yellow_beyond_required_maturity(model):
    # traceability SMALL caps maturity at 3; cost_effectiveness is only
    # demanded at level 5, beyond a required maturity of 3
    gaps = {"traceability": Gap.SMALL, "cost_effectiveness": Gap.LARGE}
    assessment = make_assessment(model, gaps)
    assert maturity_level(assessment, model) == 3
    colors = classify_gaps(assessment, model, required=3)
    assert colors["traceability"] is GapColor.RED
    assert colors["cost_effectiveness"] is GapColor.YELLOW


def test_colors_reject_bad_required(model):
    with pytest.raises(ValueError):
        classify_gaps(make_assessment(model), model, required=2)


def _oracle_first_violated(sub_id: str, gap: Gap, maturity: int) -> int:
    for level in range(maturity + 1, 6):
        if int(gap) + int(MODEL.matrix[sub_id][level - 1]) > 2:
            return level
    raise AssertionError("a gapped row must violate level 5")


@given(gap_vectors, st.sampled_from((1, 3, 5)))
@settings(max_examples=300)
def test_color_rule_matches_oracle(gaps, required):
    assessment = make_assessment(MODEL, gaps)
    maturity = oracle_maturity(gaps)
    colors = classify_gaps(assessment, MODEL, required=required)
    assert set(colors) == set(MODEL.ids)
    for sub_id, gap in gaps.items():
        if gap is Gap.NO_GAP:
            assert colors[sub_id] is GapColor.GREEN
            continue
        first = _oracle_first_violated(sub_id, gap, maturity)
        if first == maturity + 1:
            assert colors[sub_id] is GapColor.RED
        elif first <= required:
            assert colors[sub_id] is GapColor.ORANGE
        else:
            assert colors[sub_id] is GapColor.YELLOW


def test_recommendations_empty_when_all_green(model):
    assessment = make_assessment(model)
    colors = classify_gaps(assessment, model, required=5)
    assert recommendations(assessment, colors, model) == ()


def test_recommendations_ordered_by_severity_then_row(model):
    gaps = {"testability": Gap.LARGE, "scalability": Gap.LARGE}
    assessment = make_assessment(model, gaps)
    assert maturity_level(assessment, model) == 1
    colors = classify_gaps(assessment, model, required=1)
    assert colors["testability"] is GapColor.RED
    assert colors["scalability"] is GapColor.YELLOW
    ordered = recommendations(assessment, colors, model)
    assert [rec.sub_characteristic for rec in ordered] == ["testability", "scalability"]
    assert ordered[0].remediation == model.remediation_texts["testability"]
    assert ordered[0].reason == "reason testability"


def test_recommendations_tie_break_by_row_order(model):
    gaps = {"maintainability": Gap.LARGE, "testability": Gap.LARGE}
    assessment = make_assessment(model, gaps)
    colors = classify_gaps(assessment, model, required=5)
    assert colors["maintainability"] is GapColor.RED
    assert colors["testability"] is GapColor.RED
    ordered = recommendations(assessment, colors, model)
    assert [rec.sub_characteristic for rec in ordered] == [
        "maintainability", "testability",
    ]


def test_evaluate_bundles_everything(model):
    assessment = make_assessment(model, {"monitoring": Gap.SMALL})
    result = evaluate(assessment, model)
    assert result.quality_score == 98
    assert result.maturity == 4
    assert result.required_maturity == 5
    assert result.colors["monitoring"] is GapColor.RED
    assert [rec.sub_characteristic for rec in result.recommendations] == ["monitoring"]
    assert list(result.colors) == list(model.ids)


def test_evaluate_requires_criticality(model):
    assessment = make_assessment(model, criticality_level=None)
    with pytest.raises(ValueError):
        evaluate(assessment, model)


def test_level_error_messages_are_pinned(model):
    with pytest.raises(ValueError, match=r"^level must be in 1\.\.5, got 6$"):
        satisfies_level(make_assessment(model), 6, model)
    with pytest.raises(
        ValueError, match=r"^required maturity must be one of 1, 3, 5, got 2$"
    ):
        classify_gaps(make_assessment(model), model, required=2)


def test_evaluate_checks_totality_once(model, monkeypatch):
    calls = []
    real = mlquality.scoring.check_gaps_total
    monkeypatch.setattr(
        mlquality.scoring,
        "check_gaps_total",
        lambda assessment, model: calls.append(1) or real(assessment, model),
    )
    evaluate(make_assessment(model, {"monitoring": Gap.SMALL}), model)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "ladder_call",
    [
        lambda assessment, model: maturity_level(assessment, model),
        lambda assessment, model: satisfies_level(assessment, 1, model),
        lambda assessment, model: classify_gaps(assessment, model, 5),
        lambda assessment, model: evaluate(assessment, model),
        lambda assessment, model: quality_score(assessment, model),
        lambda assessment, model: characteristic_scores(assessment, model),
    ],
    ids=[
        "maturity_level", "satisfies_level", "classify_gaps",
        "evaluate", "quality_score", "characteristic_scores",
    ],
)
def test_ladder_functions_reject_an_assessment_missing_an_attribute(model, ladder_call):
    complete = make_assessment(model)
    partial = replace(
        complete,
        gaps={sub_id: entry for sub_id, entry in complete.gaps.items() if sub_id != "monitoring"},
    )
    with pytest.raises(GapFileError, match=r"^missing sub-characteristic: monitoring$"):
        ladder_call(partial, model)
