"""Scoring engine: quality score, maturity level, business criticality,
gap colors and ordered recommendations.

Maturity, level checks and colors all rest on one question per attribute,
which `first_violated_levels` answers: which is the lowest level whose
demand its gap violates (6 when none)? Maturity is the lowest answer minus
one; a level is satisfied when maturity reaches it. A gap is red when its
answer is maturity + 1, orange when it is at most the required level,
yellow above that, and green when there is no violated level.

All functions are pure and operate on immutable inputs, so assessments can
be evaluated in parallel without shared state.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import Collection, Iterable, NamedTuple

from .assessment import Assessment, check_gaps_total
from .model import LEVELS, Characteristic, Gap, QualityModel, SubCharacteristic


class CriticalityLevel(IntEnum):
    """Business criticality classes; the value doubles as the required
    maturity level."""

    PROOF_OF_CONCEPT = 1
    PRODUCTION_NON_CRITICAL = 3
    PRODUCTION_CRITICAL = 5


_REQUIRED_LEVELS = tuple(int(level) for level in CriticalityLevel)


class BusinessCriticality(NamedTuple):
    level: CriticalityLevel
    justification: str


class SystemUsage(NamedTuple):
    """Usage facts feeding the criticality decision."""

    requests_per_day: int = 0
    dependent_consumers: int = 0
    revenue_share: float = 0.0
    strategic: bool = False
    in_production: bool = False


class FleetStats(NamedTuple):
    """Fleet-level thresholds used by the criticality and efficiency rules.

    `requests_p66` is the 66th percentile of daily request volume over
    production systems; `training_duration_p80` the 80th percentile of
    training durations (minutes) over the fleet.
    """

    requests_p66: float
    training_duration_p80: float


class GapColor(Enum):
    """Remediation urgency of a gap relative to the maturity ladder, most
    urgent first."""

    RED = "red"        # blocks the next maturity level
    ORANGE = "orange"  # blocks a later level up to the required one
    YELLOW = "yellow"  # blocks only levels above the required one
    GREEN = "green"    # no gap


_SEVERITY = {color: rank for rank, color in enumerate(GapColor)}


class Recommendation(NamedTuple):
    sub_characteristic: str
    reason: str
    remediation: str


class AssessmentResult(NamedTuple):
    """Everything derived from one assessment, ready for rendering.

    Mapping fields preserve catalog row order (and catalog characteristic
    order for `characteristic_scores`), which is what makes rendering from
    a stored result reproducible without the model at hand.
    """

    assessment: Assessment
    quality_score: int
    characteristic_scores: dict[Characteristic, int]
    maturity: int
    required_maturity: int
    colors: dict[str, GapColor]
    recommendations: tuple[Recommendation, ...]


def gap_score(gaps: Collection[Gap]) -> int:
    """The score of a set of attributes from their gaps, at least one:
    floor(100 * (1 - gap_sum / (2 * gap_count))), in exact integer math."""
    return 100 * (2 * len(gaps) - sum(gaps)) // (2 * len(gaps))


def _floor_score(assessment: Assessment, rows: tuple[SubCharacteristic, ...]) -> int:
    return gap_score([assessment.gap(sub.id) for sub in rows])


def _characteristic_scores(
    assessment: Assessment, model: QualityModel
) -> dict[Characteristic, int]:
    return {c: _floor_score(assessment, model.rows_of(c)) for c in model.characteristics}


def quality_score(assessment: Assessment, model: QualityModel) -> int:
    """Overall quality score in 0..100.

    The score is the floored percentage of gap mass the system does not
    have: 100 means no gaps anywhere, 0 means a large gap on every
    attribute.
    """
    check_gaps_total(assessment, model)
    return _floor_score(assessment, model.sub_characteristics)


def characteristic_scores(
    assessment: Assessment, model: QualityModel
) -> dict[Characteristic, int]:
    """Quality score restricted to each characteristic's own attributes.

    Uses the same floored formula as the overall score, over the rows of
    one characteristic; these are the radar chart axis values.
    """
    check_gaps_total(assessment, model)
    return _characteristic_scores(assessment, model)


def first_violated_levels(assessment: Assessment, model: QualityModel) -> dict[str, int]:
    """Per attribute, the lowest level whose demand its gap violates, or 6
    when it violates none. Raises `GapFileError` unless the assessment
    covers the model exactly."""
    check_gaps_total(assessment, model)
    table = model._first_violated
    return {sub_id: table[sub_id][entry.gap] for sub_id, entry in assessment.gaps.items()}


def satisfies_level(assessment: Assessment, level: int, model: QualityModel) -> bool:
    """True iff every attribute meets the demand this maturity level puts
    on it."""
    if level not in LEVELS:
        raise ValueError(f"level must be in 1..5, got {level}")
    return maturity_level(assessment, model) >= level


def maturity_level(assessment: Assessment, model: QualityModel) -> int:
    """The highest satisfied maturity level, or 0 when even level 1 fails.

    It is one below the lowest level any attribute's gap first violates;
    matrix rows are non-decreasing, so every level below that one is
    satisfied too.
    """
    return min(first_violated_levels(assessment, model).values()) - 1


def determine_criticality(usage: SystemUsage, fleet: FleetStats) -> BusinessCriticality:
    """Classify business criticality from usage facts.

    Systems outside production are proofs of concept. A production system
    is critical when any one condition holds, checked in a fixed order:
    request volume strictly above the fleet's 66th percentile, more than
    four dependent consumers, revenue share strictly above 1%, or strategic
    importance. The justification names the first condition that fired;
    a production system that meets none is non-critical.
    """
    if not usage.in_production:
        return BusinessCriticality(
            level=CriticalityLevel.PROOF_OF_CONCEPT,
            justification="system under experimentation, not in production",
        )
    if usage.requests_per_day > fleet.requests_p66:
        justification = (
            f"requests per day ({usage.requests_per_day}) above the 66th "
            f"percentile of production systems ({fleet.requests_p66})"
        )
    elif usage.dependent_consumers > 4:
        justification = f"more than four dependent teams or products ({usage.dependent_consumers})"
    elif usage.revenue_share > 0.01:
        justification = f"revenue share ({usage.revenue_share:.2%}) above 1% of yearly revenue"
    elif usage.strategic:
        justification = "flagged as strategically important"
    else:
        return BusinessCriticality(
            level=CriticalityLevel.PRODUCTION_NON_CRITICAL,
            justification="production system with no criticality condition met",
        )
    return BusinessCriticality(CriticalityLevel.PRODUCTION_CRITICAL, justification)


def required_maturity(criticality: BusinessCriticality) -> int:
    """The maturity level a system must reach, equal to its criticality."""
    return int(criticality.level)


def classify_gaps(
    assessment: Assessment, model: QualityModel, required: int
) -> dict[str, GapColor]:
    """Color every attribute by how urgently its gap blocks progression.

    With M the current maturity, each attribute is colored by the first
    level its gap violates: none (no gap, or a fully mature system) is
    green; level M+1 is red; a later level up to `required`, orange; only
    a level above `required`, yellow. No gap first violates a level at or
    below M, by the definition of maturity.
    """
    levels = first_violated_levels(assessment, model)
    return _colors(levels, min(levels.values()), required)


def _colors(levels: dict[str, int], next_level: int, required: int) -> dict[str, GapColor]:
    if required not in _REQUIRED_LEVELS:
        raise ValueError(
            "required maturity must be one of "
            f"{', '.join(map(str, _REQUIRED_LEVELS))}, got {required}"
        )
    colors: dict[str, GapColor] = {}
    for sub_id, level in levels.items():
        if level > LEVELS[-1]:
            colors[sub_id] = GapColor.GREEN
        elif level == next_level:
            colors[sub_id] = GapColor.RED
        else:
            colors[sub_id] = GapColor.ORANGE if level <= required else GapColor.YELLOW
    return colors


def recommendations(
    assessment: Assessment,
    colors: dict[str, GapColor],
    model: QualityModel,
) -> tuple[Recommendation, ...]:
    """One remediation entry per non-green attribute.

    Ordered red before orange before yellow, ties broken by the
    assessment's row order (catalog row order, as `parse_assessment` and
    `infer_gaps` build it), so the list is deterministic and is what the
    store derives again from the stored gap rows.
    """
    return tuple(
        Recommendation(
            sub_characteristic=sub_id,
            reason=assessment.reason(sub_id),
            remediation=model.remediation_texts.get(sub_id, ""),
        )
        for sub_id in remediation_order(assessment.gaps, colors)
    )


def remediation_order(ids: Iterable[str], colors: dict[str, GapColor]) -> list[str]:
    """The non-green attributes among `ids`, most urgent color first, ties
    kept in the order of `ids`."""
    gapped = [sub_id for sub_id in ids if colors[sub_id] is not GapColor.GREEN]
    gapped.sort(key=lambda sub_id: _SEVERITY[colors[sub_id]])
    return gapped


def evaluate(assessment: Assessment, model: QualityModel) -> AssessmentResult:
    """Derive the full result bundle for one assessment.

    The assessment must carry its business criticality; use
    `determine_criticality` or supply it manually first.
    """
    if assessment.criticality is None:
        raise ValueError("assessment has no business criticality attached")
    required = required_maturity(assessment.criticality)
    levels = first_violated_levels(assessment, model)
    maturity = min(levels.values()) - 1
    colors = _colors(levels, maturity + 1, required)
    return AssessmentResult(
        assessment=assessment,
        quality_score=_floor_score(assessment, model.sub_characteristics),
        characteristic_scores=_characteristic_scores(assessment, model),
        maturity=maturity,
        required_maturity=required,
        colors=colors,
        recommendations=recommendations(assessment, colors, model),
    )
