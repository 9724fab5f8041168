"""Maturity, level checks and colours on loaded models, against a per-level
walk.

The walk below asks, level by level, whether every attribute's gap
satisfies that level's demand (`Demand.satisfied_by`), exactly as the
paper's framework is stated. Models are drawn from `matrix` overrides that
`validate_model` accepts, so the scoring code is checked on matrices other
than the built-in one, and on several models alive in one process.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_assessment
from mlquality.model import LEVELS, Demand, Gap, default_model, load_quality_model
from mlquality.scoring import (
    CriticalityLevel,
    GapColor,
    classify_gaps,
    evaluate,
    maturity_level,
    satisfies_level,
)

DEFAULT = default_model()
REQUIRED_LEVELS = tuple(int(level) for level in CriticalityLevel)


def walk_satisfied(model, gaps: dict[str, Gap]) -> list[bool]:
    return [
        all(model.matrix[sub_id][level - 1].satisfied_by(gap) for sub_id, gap in gaps.items())
        for level in LEVELS
    ]


def walk_maturity(model, gaps: dict[str, Gap]) -> int:
    maturity = 0
    for level, satisfied in zip(LEVELS, walk_satisfied(model, gaps)):
        if not satisfied:
            break
        maturity = level
    return maturity


def walk_colors(model, gaps: dict[str, Gap], required: int) -> dict[str, GapColor]:
    maturity = walk_maturity(model, gaps)
    colors = {}
    for sub_id, gap in gaps.items():
        blocked = [
            level
            for level in LEVELS
            if level > maturity and not model.matrix[sub_id][level - 1].satisfied_by(gap)
        ]
        if not blocked:
            colors[sub_id] = GapColor.GREEN
        elif blocked[0] == maturity + 1:
            colors[sub_id] = GapColor.RED
        elif blocked[0] <= required:
            colors[sub_id] = GapColor.ORANGE
        else:
            colors[sub_id] = GapColor.YELLOW
    return colors


def check_against_walk(model, gaps: dict[str, Gap]) -> None:
    for required in REQUIRED_LEVELS:
        assessment = make_assessment(model, gaps, criticality_level=required)
        assert maturity_level(assessment, model) == walk_maturity(model, gaps)
        assert [
            satisfies_level(assessment, level, model) for level in LEVELS
        ] == walk_satisfied(model, gaps)
        colors = walk_colors(model, gaps, required)
        assert classify_gaps(assessment, model, required) == colors
        result = evaluate(assessment, model)
        assert (result.maturity, result.colors) == (walk_maturity(model, gaps), colors)


@st.composite
def matrix_rows(draw, sub_id: str):
    """Five demands that never decrease and end in `full`; `min` only where
    the attribute has a minimal requirement."""
    demands = [Demand.NONE, Demand.FULL]
    if DEFAULT.sub(sub_id).minimal_requirement is not None:
        demands.insert(1, Demand.MINIMAL)
    cells = sorted(draw(st.lists(st.sampled_from(demands), min_size=4, max_size=4)))
    return [demand.token for demand in cells] + [Demand.FULL.token]


@st.composite
def loaded_models(draw):
    overridden = draw(st.lists(st.sampled_from(DEFAULT.ids), unique=True, max_size=25))
    matrix = {sub_id: draw(matrix_rows(sub_id)) for sub_id in overridden}
    document = "matrix:\n" + "".join(
        f"  {sub_id}: {json.dumps(row)}\n" for sub_id, row in matrix.items()
    )
    return load_quality_model(document if matrix else None)


gap_vectors = st.fixed_dictionaries(
    {sub_id: st.sampled_from(DEFAULT.legal_gaps(sub_id)) for sub_id in DEFAULT.ids}
)


@given(loaded_models(), gap_vectors)
@settings(max_examples=150, deadline=None)
def test_loaded_model_agrees_with_a_per_level_walk(model, gaps):
    # the default model is asked in between, so a table shared between the
    # two models would show as a disagreement on one of them
    check_against_walk(DEFAULT, gaps)
    check_against_walk(model, gaps)
    check_against_walk(DEFAULT, gaps)


def test_default_and_overridden_model_keep_their_own_levels():
    strict = load_quality_model('matrix:\n  testability: [full, full, full, full, full]\n')
    lenient = load_quality_model('matrix:\n  testability: ["-", "-", "-", "-", full]\n')
    gaps = {sub_id: Gap.NO_GAP for sub_id in DEFAULT.ids} | {
        "testability": Gap.LARGE,
        "effectiveness": Gap.SMALL,
    }
    assessment = make_assessment(DEFAULT, gaps, criticality_level=3)
    expected = {id(DEFAULT): 1, id(strict): 0, id(lenient): 4}
    for model in (DEFAULT, strict, lenient, DEFAULT, lenient, strict, DEFAULT):
        assert maturity_level(assessment, model) == expected[id(model)]
        result = evaluate(assessment, model)
        assert result.maturity == expected[id(model)]
        assert result.colors == walk_colors(model, gaps, 3)
    check_against_walk(DEFAULT, gaps)
