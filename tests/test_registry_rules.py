"""Characterization of every registry inference rule through `infer_gaps`.

Each case pins the exact (gap, reason) pair one rung of one rule yields,
including the threshold boundaries and the number formatting inside
reasons, so a rewrite of the rule table can be checked byte for byte.
"""

from __future__ import annotations

import dataclasses
import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from mlquality.model import Gap, default_model
from mlquality.registry import (
    AUTOMATION_VALUES,
    DOCUMENTATION_VALUES,
    FULFILLMENT_VALUES,
    LOGGING_VALUES,
    MONITORING_VALUES,
    NO_EVIDENCE,
    NO_HUMAN_REVIEW,
    RETRAINING_VALUES,
    ManualOverrides,
    SystemMetadata,
    check_field,
    infer_gaps,
)
from mlquality.scoring import FleetStats

MODEL = default_model()
DATE = dt.date(2026, 7, 1)
FLEET = FleetStats(requests_p66=10_000, training_duration_p80=120)
NO, SMALL, LARGE = Gap.NO_GAP, Gap.SMALL, Gap.LARGE

FULL_MARKS = dict(
    in_production=True,
    deployed_in_serving_system=True,
    deployed_in_registry=True,
    outperforms_baseline=True,
    input_data_validated=True,
    ab_test_conclusive=True,
    ab_test_repeated_within_6_months=True,
    latency_slo_met=True,
    throughput_slo_met=True,
    sla_met=True,
    revenue=1000.0,
    training_cost=10.0,
    inference_cost=5.0,
    basic_ops_automated=True,
    training_duration=60.0,
    failed_pipeline_ratio_quarter=0.05,
    retraining="scheduled",
    autoscaling_enabled=True,
    pipeline_automation="full",
    monitoring="full",
    code_versioned=True,
    test_coverage=0.9,
    service_deployed=True,
    can_disable_update_revert=True,
    metadata_logging="full",
    documentation="complete",
    explainable=True,
    bias_checked_clean=True,
    owner_team="search",
    compliance_met=True,
    bot_filtering=True,
    requests_per_day=50_000,
    dependent_consumers=2,
    revenue_share=0.002,
    strategic=False,
)

REVIEWED = ManualOverrides(readability="full", modularity="full")

# the registry fields each attribute's rule reads
READS = {
    "accuracy": ("outperforms_baseline", "input_data_validated"),
    "effectiveness": ("ab_test_conclusive", "ab_test_repeated_within_6_months"),
    "responsiveness": ("latency_slo_met", "throughput_slo_met"),
    "usability": ("deployed_in_serving_system",),
    "cost_effectiveness": ("revenue", "training_cost", "inference_cost"),
    "efficiency": ("training_duration", "basic_ops_automated"),
    "availability": ("sla_met",),
    "resilience": ("failed_pipeline_ratio_quarter",),
    "adaptability": ("retraining",),
    "scalability": ("autoscaling_enabled", "deployed_in_serving_system"),
    "repeatability": ("pipeline_automation",),
    "monitoring": ("monitoring",),
    "maintainability": ("code_versioned",),
    "testability": ("test_coverage",),
    "operability": ("can_disable_update_revert", "service_deployed"),
    "discoverability": ("deployed_in_registry",),
    "traceability": ("metadata_logging",),
    "understandability": ("documentation",),
    "explainability": ("explainable",),
    "fairness": ("bias_checked_clean",),
    "ownership": ("owner_team",),
    "standards_compliance": ("compliance_met",),
    "vulnerability": ("bot_filtering",),
}


def record(**changes) -> SystemMetadata:
    values = dict(FULL_MARKS)
    values.update(changes)
    return SystemMetadata(system_id="ranker", team="search", **values)


def pairs(metadata: SystemMetadata, overrides=REVIEWED, fleet=FLEET) -> dict:
    assessment = infer_gaps(metadata, overrides, fleet, MODEL, date=DATE)
    return {sub_id: (e.gap, e.reason) for sub_id, e in assessment.gaps.items()}


TOP = {
    "accuracy": (NO, "outperforms a baseline and input data are validated"),
    "effectiveness": (NO, "conclusive A/B test, repeated within six months"),
    "responsiveness": (NO, "latency and throughput requirements are met"),
    "usability": (NO, "deployed in a serving system"),
    "cost_effectiveness": (NO, "revenue exceeds training and inference costs"),
    "efficiency": (
        NO,
        "basic operations automated and training duration (60 min) within "
        "the fleet 80th percentile (120 min)",
    ),
    "availability": (NO, "deployed service meets its SLAs"),
    "resilience": (NO, "failed pipeline ratio 5% within the 10% bar"),
    "adaptability": (NO, "retraining is scheduled"),
    "scalability": (NO, "deployed in a serving system with autoscaling enabled"),
    "repeatability": (NO, "life-cycle pipeline fully automated"),
    "monitoring": (NO, "performance, feature drift and metrics are monitored"),
    "maintainability": (NO, "code versioned and readability confirmed by human review"),
    "testability": (NO, "test coverage 90% meets the 80% bar"),
    "operability": (NO, "system can be disabled, updated and reverted"),
    "discoverability": (NO, "deployed in an accessible registry"),
    "readability": (NO, "human review: full requirement met"),
    "modularity": (NO, "human review: full requirement met"),
    "traceability": (NO, "life-cycle metadata fully logged"),
    "understandability": (NO, "documentation is complete"),
    "explainability": (NO, "predictions are explainable"),
    "fairness": (NO, "checked against undesired biases, none identified"),
    "ownership": (NO, "owned by team search"),
    "standards_compliance": (NO, "compliance standards are met"),
    "vulnerability": (NO, "bots are filtered from input data"),
}

BOTTOM_RECORD = dict(
    outperforms_baseline=False,
    input_data_validated=False,
    ab_test_conclusive=False,
    ab_test_repeated_within_6_months=False,
    latency_slo_met=False,
    throughput_slo_met=False,
    deployed_in_serving_system=False,
    revenue=0.0,
    basic_ops_automated=False,
    sla_met=False,
    failed_pipeline_ratio_quarter=1.0,
    retraining="none",
    autoscaling_enabled=False,
    pipeline_automation="none",
    monitoring="none",
    code_versioned=False,
    test_coverage=0.0,
    can_disable_update_revert=False,
    service_deployed=False,
    deployed_in_registry=False,
    metadata_logging="none",
    documentation="none",
    explainable=False,
    bias_checked_clean=False,
    compliance_met=False,
    bot_filtering=False,
)

BOTTOM = {
    "accuracy": (LARGE, "does not outperform a simple baseline"),
    "effectiveness": (LARGE, "no conclusive A/B test"),
    "responsiveness": (LARGE, "latency and throughput requirements not met"),
    "usability": (LARGE, "not deployed in a serving system"),
    "cost_effectiveness": (LARGE, "revenue does not exceed training and inference costs"),
    "efficiency": (LARGE, "basic operations are not automated"),
    "availability": (LARGE, "deployed service does not meet its SLAs"),
    "resilience": (LARGE, "failed pipeline ratio 100% above the 30% bar"),
    "adaptability": (LARGE, "no retraining in place"),
    "scalability": (LARGE, "not deployed in a serving system"),
    "repeatability": (LARGE, "life-cycle pipeline not automated"),
    "monitoring": (LARGE, "no monitoring in place"),
    "maintainability": (LARGE, "code is not versioned"),
    "testability": (LARGE, "test coverage 0% below the 20% bar"),
    "operability": (LARGE, "not deployed on a service"),
    "discoverability": (LARGE, "not deployed in an accessible registry"),
    "readability": (LARGE, NO_HUMAN_REVIEW),
    "modularity": (LARGE, NO_HUMAN_REVIEW),
    "traceability": (LARGE, "life-cycle metadata not logged"),
    "understandability": (LARGE, "no documentation"),
    "explainability": (LARGE, "predictions are not explainable"),
    "fairness": (LARGE, "not cleared of undesired biases"),
    "ownership": (LARGE, NO_EVIDENCE),
    "standards_compliance": (LARGE, "compliance standards are not met"),
    "vulnerability": (LARGE, "bots are not filtered from input data"),
}


def test_full_marks_pins_every_top_rung():
    assert pairs(record()) == TOP


def test_worst_record_pins_every_bottom_rung():
    worst = record(owner_team=None, **BOTTOM_RECORD)
    assert pairs(worst, ManualOverrides()) == BOTTOM


# (attribute, field changes on the full-marks record, gap, reason)
RUNGS = [
    # flags: two-field ladders
    ("accuracy", dict(input_data_validated=False), SMALL,
     "outperforms a baseline but input data are not validated"),
    ("accuracy", dict(outperforms_baseline=False), LARGE,
     "does not outperform a simple baseline"),
    ("effectiveness", dict(ab_test_repeated_within_6_months=False), SMALL,
     "conclusive A/B test not repeated within six months"),
    ("effectiveness", dict(ab_test_conclusive=False), LARGE, "no conclusive A/B test"),
    ("effectiveness", dict(ab_test_conclusive=False, ab_test_repeated_within_6_months=False),
     LARGE, "no conclusive A/B test"),
    # responsiveness names what is unmet
    ("responsiveness", dict(latency_slo_met=False), LARGE, "latency requirements not met"),
    ("responsiveness", dict(throughput_slo_met=False), LARGE,
     "throughput requirements not met"),
    ("responsiveness", dict(latency_slo_met=False, throughput_slo_met=False), LARGE,
     "latency and throughput requirements not met"),
    # cost effectiveness: strictly more revenue than cost
    ("cost_effectiveness", dict(revenue=15.0), LARGE,
     "revenue does not exceed training and inference costs"),
    ("cost_effectiveness", dict(revenue=15.01), NO,
     "revenue exceeds training and inference costs"),
    ("cost_effectiveness", dict(revenue=0, training_cost=0, inference_cost=0), LARGE,
     "revenue does not exceed training and inference costs"),
    # efficiency against the fleet p80 of 120 min, numbers via %g
    ("efficiency", dict(training_duration=120.0), NO,
     "basic operations automated and training duration (120 min) within the "
     "fleet 80th percentile (120 min)"),
    ("efficiency", dict(training_duration=120.5), SMALL,
     "basic operations automated but training duration (120.5 min) exceeds the "
     "fleet 80th percentile (120 min)"),
    ("efficiency", dict(training_duration=1234567.0), SMALL,
     "basic operations automated but training duration (1.23457e+06 min) exceeds "
     "the fleet 80th percentile (120 min)"),
    ("efficiency", dict(training_duration=1e-05), NO,
     "basic operations automated and training duration (1e-05 min) within the "
     "fleet 80th percentile (120 min)"),
    ("efficiency", dict(basic_ops_automated=False, training_duration=1.0), LARGE,
     "basic operations are not automated"),
    # resilience: at most 10% no gap, at most 30% small
    ("resilience", dict(failed_pipeline_ratio_quarter=0.0), NO,
     "failed pipeline ratio 0% within the 10% bar"),
    ("resilience", dict(failed_pipeline_ratio_quarter=0.005), NO,
     "failed pipeline ratio 0% within the 10% bar"),
    ("resilience", dict(failed_pipeline_ratio_quarter=0.10), NO,
     "failed pipeline ratio 10% within the 10% bar"),
    ("resilience", dict(failed_pipeline_ratio_quarter=0.1001), SMALL,
     "failed pipeline ratio 10% within the 30% bar only"),
    ("resilience", dict(failed_pipeline_ratio_quarter=0.105), SMALL,
     "failed pipeline ratio 10% within the 30% bar only"),
    ("resilience", dict(failed_pipeline_ratio_quarter=0.30), SMALL,
     "failed pipeline ratio 30% within the 30% bar only"),
    ("resilience", dict(failed_pipeline_ratio_quarter=0.3001), LARGE,
     "failed pipeline ratio 30% above the 30% bar"),
    ("resilience", dict(failed_pipeline_ratio_quarter=0.995), LARGE,
     "failed pipeline ratio 100% above the 30% bar"),
    # testability: at least 80% no gap, at least 20% small
    ("testability", dict(test_coverage=1.0), NO, "test coverage 100% meets the 80% bar"),
    ("testability", dict(test_coverage=0.80), NO, "test coverage 80% meets the 80% bar"),
    ("testability", dict(test_coverage=0.7999), SMALL,
     "test coverage 80% meets only the 20% bar"),
    ("testability", dict(test_coverage=0.25), SMALL,
     "test coverage 25% meets only the 20% bar"),
    ("testability", dict(test_coverage=0.20), SMALL,
     "test coverage 20% meets only the 20% bar"),
    ("testability", dict(test_coverage=0.1999), LARGE,
     "test coverage 20% below the 20% bar"),
    # enum ladders, middle rungs
    ("adaptability", dict(retraining="manual"), SMALL, "retraining is manual"),
    ("repeatability", dict(pipeline_automation="partial"), SMALL,
     "life-cycle pipeline partially automated"),
    ("monitoring", dict(monitoring="performance_only"), SMALL,
     "only ML performance is monitored"),
    ("traceability", dict(metadata_logging="partial"), SMALL,
     "life-cycle metadata partially logged"),
    ("understandability", dict(documentation="partial"), SMALL, "documentation is partial"),
    # scalability: serving first, then autoscaling
    ("scalability", dict(autoscaling_enabled=False), LARGE, "autoscaling is not enabled"),
    ("scalability", dict(deployed_in_serving_system=False), LARGE,
     "not deployed in a serving system"),
    # operability: revertible wins even without a service
    ("operability", dict(service_deployed=False), NO,
     "system can be disabled, updated and reverted"),
    ("operability", dict(can_disable_update_revert=False), SMALL,
     "deployed on a service but cannot be disabled, updated and reverted"),
    ("ownership", dict(owner_team="ML Platform / EU"), NO, "owned by team ML Platform / EU"),
]


@pytest.mark.parametrize(
    "sub_id,changes,gap,reason",
    RUNGS,
    ids=[f"{sub_id}-{'-'.join(f'{k}={v}' for k, v in changes.items())}"
         for sub_id, changes, _, _ in RUNGS],
)
def test_rung(sub_id, changes, gap, reason):
    assert pairs(record(**changes))[sub_id] == (gap, reason)


def test_efficiency_formats_the_fleet_percentile():
    fleet = FleetStats(requests_p66=1, training_duration_p80=0.25)
    assert pairs(record(training_duration=0.3), fleet=fleet)["efficiency"] == (
        SMALL,
        "basic operations automated but training duration (0.3 min) exceeds the "
        "fleet 80th percentile (0.25 min)",
    )
    fleet = FleetStats(requests_p66=1, training_duration_p80=100000.0)
    assert pairs(record(training_duration=45), fleet=fleet)["efficiency"] == (
        NO,
        "basic operations automated and training duration (45 min) within the "
        "fleet 80th percentile (100000 min)",
    )


@pytest.mark.parametrize(
    "readability,expected",
    [
        ("full", (NO, "code versioned and readability confirmed by human review")),
        ("partial", (SMALL, "code versioned but readability full requirement not met")),
        ("none", (SMALL, "code versioned but readability full requirement not met")),
        (None, (SMALL, "code versioned but readability full requirement not met")),
    ],
)
def test_maintainability_follows_readability_review(readability, expected):
    overrides = ManualOverrides(readability=readability, modularity="full")
    assert pairs(record(), overrides)["maintainability"] == expected


@pytest.mark.parametrize(
    "fulfillment,expected",
    [
        ("full", (NO, "human review: full requirement met")),
        ("partial", (SMALL, "human review: only the minimal requirement met")),
        ("none", (LARGE, "human review: requirement not met")),
        (None, (LARGE, NO_HUMAN_REVIEW)),
    ],
)
def test_review_rungs(fulfillment, expected):
    result = pairs(record(), ManualOverrides(readability=fulfillment, modularity=fulfillment))
    assert result["readability"] == expected
    assert result["modularity"] == expected


EVIDENCE_FIELDS = [
    f.name for f in dataclasses.fields(SystemMetadata) if f.name not in ("system_id", "team")
]


@pytest.mark.parametrize("field", EVIDENCE_FIELDS)
def test_missing_field_is_no_evidence_exactly_where_read(field):
    """Dropping a field turns exactly the attributes that read it into
    'no evidence in registry' and leaves every other pair as it was."""
    expected = dict(TOP)
    for sub_id, read in READS.items():
        if field in read:
            expected[sub_id] = (LARGE, NO_EVIDENCE)
    assert pairs(record(**{field: None})) == expected


@pytest.mark.parametrize(
    "sub_id,changes",
    [
        ("efficiency", dict(basic_ops_automated=False, training_duration=None)),
        ("efficiency", dict(basic_ops_automated=None, training_duration=1.0)),
        ("operability", dict(can_disable_update_revert=True, service_deployed=None)),
        ("scalability", dict(autoscaling_enabled=False, deployed_in_serving_system=None)),
        ("accuracy", dict(outperforms_baseline=False, input_data_validated=None)),
        ("responsiveness", dict(latency_slo_met=False, throughput_slo_met=None)),
        ("cost_effectiveness", dict(revenue=0.0, inference_cost=None)),
        ("maintainability", dict(code_versioned=None)),
    ],
)
def test_missing_evidence_wins_over_every_other_field(sub_id, changes):
    assert pairs(record(**changes))[sub_id] == (LARGE, NO_EVIDENCE)


# --- property: records drawn from the validated field domains ---------------

_ENUMS = {
    "retraining": RETRAINING_VALUES,
    "pipeline_automation": AUTOMATION_VALUES,
    "monitoring": MONITORING_VALUES,
    "metadata_logging": LOGGING_VALUES,
    "documentation": DOCUMENTATION_VALUES,
}
_FRACTIONS = ("failed_pipeline_ratio_quarter", "test_coverage", "revenue_share")
_COUNTS = ("requests_per_day", "dependent_consumers")
_AMOUNTS = ("revenue", "training_cost", "inference_cost", "training_duration")


def _domain(name: str):
    if name in _ENUMS:
        return st.sampled_from(_ENUMS[name])
    if name in _FRACTIONS:
        return st.floats(0, 1) | st.sampled_from((0.10, 0.1001, 0.20, 0.30, 0.3001, 0.80))
    if name in _COUNTS:
        return st.integers(0, 10**9)
    if name in _AMOUNTS:
        return st.floats(0, 1e9) | st.integers(0, 10**6)
    if name == "owner_team":
        return st.text(min_size=1, max_size=12).filter(str.strip)
    return st.booleans()


records = st.fixed_dictionaries(
    {name: st.none() | _domain(name) for name in EVIDENCE_FIELDS}
).map(lambda values: SystemMetadata(system_id="s", team="t", **values))
reviews = st.sampled_from((None,) + FULFILLMENT_VALUES)
fleets = st.builds(
    FleetStats,
    requests_p66=st.floats(0, 1e9),
    training_duration_p80=st.floats(0, 1e9) | st.sampled_from((45.0, 60.0, 120.0)),
)


@settings(max_examples=150, deadline=None)
@given(metadata=records, readability=reviews, modularity=reviews, fleet=fleets)
def test_inference_is_total_legal_and_monotone_in_evidence(
    metadata, readability, modularity, fleet
):
    for name in EVIDENCE_FIELDS:
        value = getattr(metadata, name)
        if value is not None:
            assert check_field(name, value, [], name), (name, value)
    overrides = ManualOverrides(readability=readability, modularity=modularity)
    base = infer_gaps(metadata, overrides, fleet, MODEL, date=DATE)
    for sub_id, entry in base.gaps.items():
        assert entry.gap in MODEL.legal_gaps(sub_id), sub_id
        assert entry.reason, sub_id
    for name in EVIDENCE_FIELDS:
        if getattr(metadata, name) is None:
            continue
        weaker = infer_gaps(
            dataclasses.replace(metadata, **{name: None}), overrides, fleet, MODEL, date=DATE
        )
        for sub_id in MODEL.ids:
            assert weaker.gap(sub_id) >= base.gap(sub_id), (name, sub_id)
