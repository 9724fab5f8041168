"""Fixture results for the golden-file reports.

Everything here is fully pinned (identities, dates, reasons), so the
rendered documents are stable across runs and machines.
"""

from __future__ import annotations

import datetime as dt

from mlquality.assessment import Assessment, GapEntry
from mlquality.model import Gap, QualityModel, default_model
from mlquality.scoring import (
    AssessmentResult,
    BusinessCriticality,
    CriticalityLevel,
    evaluate,
)
from mlquality.store import persist_assessment


def _result(
    model: QualityModel,
    gaps: dict[str, tuple[Gap, str]],
    *,
    team: str,
    system_id: str,
    date: dt.date,
    level: CriticalityLevel,
    justification: str,
    family: tuple[str, ...] = (),
) -> AssessmentResult:
    entries = {
        sub_id: GapEntry(*gaps.get(sub_id, (Gap.NO_GAP, "requirement verified")))
        for sub_id in model.ids
    }
    assessment = Assessment(
        team=team,
        system_id=system_id,
        date=date,
        gaps=entries,
        family_members=family,
        criticality=BusinessCriticality(level=level, justification=justification),
    )
    return evaluate(assessment, model)


def all_green_result(model: QualityModel | None = None) -> AssessmentResult:
    """A fully mature system: no gaps anywhere, everything green."""
    return _result(
        model or default_model(),
        {},
        team="search",
        system_id="destination_ranker",
        date=dt.date(2026, 3, 2),
        level=CriticalityLevel.PRODUCTION_CRITICAL,
        justification="more than four dependent teams or products (7)",
        family=("destination_ranker", "destination_ranker_v2"),
    )


def maturity_one_result(model: QualityModel | None = None) -> AssessmentResult:
    """A maturity-1 system: red next-level blockers plus orange gaps."""
    return _result(
        model or default_model(),
        {
            "testability": (Gap.LARGE, "test coverage 5% below the 20% bar"),
            "adaptability": (Gap.SMALL, "retraining is manual"),
            "effectiveness": (Gap.SMALL, "conclusive A/B test not repeated within six months"),
            "cost_effectiveness": (Gap.LARGE, "revenue does not exceed training and inference costs"),
        },
        team="fraud",
        system_id="payment_screener",
        date=dt.date(2026, 3, 2),
        level=CriticalityLevel.PRODUCTION_CRITICAL,
        justification="flagged as strategically important",
    )


def round_trip_results(model: QualityModel | None = None) -> list[AssessmentResult]:
    """Five varied systems for the persist/load/re-render round trip."""
    model = model or default_model()
    date = dt.date(2026, 4, 1)
    return [
        all_green_result(model),
        maturity_one_result(model),
        _result(
            model,
            {sub_id: (Gap.LARGE, "nothing in place") for sub_id in model.ids},
            team="lab",
            system_id="prototype",
            date=date,
            level=CriticalityLevel.PROOF_OF_CONCEPT,
            justification="system under experimentation, not in production",
        ),
        _result(
            model,
            {
                "monitoring": (Gap.SMALL, "only ML performance is monitored"),
                "understandability": (Gap.SMALL, "documentation is partial"),
                "fairness": (Gap.LARGE, "not cleared of undesired biases"),
            },
            team="supply chain",
            system_id="demand/forecaster",
            date=date,
            level=CriticalityLevel.PRODUCTION_NON_CRITICAL,
            justification="production system with no criticality condition met",
        ),
        _result(
            model,
            {
                "efficiency": (Gap.SMALL, "training takes longer than the fleet bar"),
                "explainability": (Gap.LARGE, "predictions are not explainable"),
            },
            team="marketing",
            system_id="uplift_targeter",
            date=date,
            level=CriticalityLevel.PRODUCTION_CRITICAL,
            justification="revenue share (3.00%) above 1% of yearly revenue",
        ),
    ]


# (team, system, date, gaps) of the golden fleet store: maturity 0 to 5 in
# turn, two months, a name needing escaping, a one-point system in each
# cohort only, and no two snapshots of one system on one date
FLEET = (
    ("search", "ranker", dt.date(2026, 1, 5), {"accuracy": Gap.LARGE}),
    ("search", "ranker", dt.date(2026, 1, 20), {"testability": Gap.LARGE}),
    ("search", "ranker", dt.date(2026, 2, 3), {"accuracy": Gap.SMALL}),
    ("search", "ranker", dt.date(2026, 2, 17), {"efficiency": Gap.LARGE}),
    ('R&D "lab\'s"', "<forecast>", dt.date(2026, 2, 10), {"effectiveness": Gap.SMALL}),
    ("fraud", "screener", dt.date(2026, 1, 12), {}),
)
FLEET_BEFORE = dt.date(2026, 1, 31)
FLEET_AFTER = dt.date(2026, 2, 1)


def persist_fleet(root, model: QualityModel | None = None) -> None:
    """Persist the golden fleet store (`FLEET`) under `root`."""
    model = model or default_model()
    for team, system_id, date, gaps in FLEET:
        result = _result(
            model,
            {sub_id: (gap, f"{sub_id} gap") for sub_id, gap in gaps.items()},
            team=team,
            system_id=system_id,
            date=date,
            level=CriticalityLevel.PRODUCTION_CRITICAL,
            justification="flagged as strategically important",
        )
        persist_assessment(root, result, model)
