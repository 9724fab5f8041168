"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same registry snapshot, overrides file, monthly drift and gaps CSVs, byte
for byte. The program under test only ever sees the files written from
these values.
"""

from __future__ import annotations

import datetime as dt
import json
import random

RETRAINING = ("none", "manual", "scheduled")
AUTOMATION = ("none", "partial", "full")
MONITORING = ("none", "performance_only", "full")
LOGGING = ("none", "partial", "full")
DOCUMENTATION = ("none", "partial", "complete")
FULFILLMENT = ("none", "partial", "full")
ENUMS = {
    "retraining": RETRAINING,
    "pipeline_automation": AUTOMATION,
    "monitoring": MONITORING,
    "metadata_logging": LOGGING,
    "documentation": DOCUMENTATION,
}

# values placed exactly on the inference thresholds (10/30% failed
# pipelines, 20/80% coverage) besides the random ones
PIPELINE_BOUNDARIES = (0.1, 0.3)
COVERAGE_BOUNDARIES = (0.2, 0.8)

# fields dropped, in rotation, from every seventh system: absent evidence
# must turn into a large gap, never into a pass
DROPPABLE = (
    "test_coverage",
    "failed_pipeline_ratio_quarter",
    "monitoring",
    "owner_team",
    "latency_slo_met",
    "training_duration",
    "ab_test_repeated_within_6_months",
)

# the 25 attributes of the built-in quality model, as a gaps CSV names them
ATTRIBUTES = (
    "accuracy", "effectiveness", "responsiveness", "usability", "cost_effectiveness",
    "efficiency", "availability", "resilience", "adaptability", "scalability",
    "repeatability", "monitoring", "maintainability", "modularity", "testability",
    "operability", "discoverability", "readability", "traceability", "understandability",
    "explainability", "fairness", "ownership", "standards_compliance", "vulnerability",
)
# attributes with only a full requirement, so an override may not pin
# them to "small"
FULL_ONLY = (
    "responsiveness", "usability", "cost_effectiveness", "availability",
    "scalability", "discoverability", "explainability", "fairness",
    "ownership", "standards_compliance", "vulnerability",
)
PINNABLE = ("effectiveness", "monitoring", "fairness", "explainability", "testability")


def system_id(index: int) -> str:
    return f"sys-{index:05d}"


def team_of(index: int, teams: int) -> str:
    return f"team-{index % teams:03d}"


def _system(rng: random.Random, index: int, teams: int) -> dict:
    coin = rng.random
    entry = {
        "system_id": system_id(index),
        "team": team_of(index, teams),
        "in_production": index % 4 != 0,
        # coarse grids make ties, so several systems sit exactly on the
        # fleet p66 volume and p80 duration whatever the seed
        "requests_per_day": rng.randrange(100, 100_000, 100),
        "training_duration": float(rng.randrange(5, 600, 5)),
        "deployed_in_serving_system": coin() < 0.8,
        "deployed_in_registry": coin() < 0.8,
        "outperforms_baseline": coin() < 0.7,
        "input_data_validated": coin() < 0.6,
        "ab_test_conclusive": coin() < 0.6,
        "ab_test_repeated_within_6_months": coin() < 0.4,
        "latency_slo_met": coin() < 0.8,
        "throughput_slo_met": coin() < 0.8,
        "sla_met": coin() < 0.8,
        "revenue": rng.randint(0, 10_000),
        "training_cost": rng.randint(0, 2_000),
        "inference_cost": rng.randint(0, 2_000),
        "basic_ops_automated": coin() < 0.7,
        "failed_pipeline_ratio_quarter": round(coin() * 0.5, 2),
        "retraining": rng.choice(RETRAINING),
        "autoscaling_enabled": coin() < 0.6,
        "pipeline_automation": rng.choice(AUTOMATION),
        "monitoring": rng.choice(MONITORING),
        "code_versioned": coin() < 0.9,
        "test_coverage": round(coin(), 2),
        "service_deployed": coin() < 0.8,
        "can_disable_update_revert": coin() < 0.6,
        "metadata_logging": rng.choice(LOGGING),
        "documentation": rng.choice(DOCUMENTATION),
        "explainable": coin() < 0.5,
        "bias_checked_clean": coin() < 0.6,
        "compliance_met": coin() < 0.8,
        "bot_filtering": coin() < 0.7,
        "dependent_consumers": rng.randint(0, 8),
        "revenue_share": round(coin() * 0.05, 3),
        "strategic": coin() < 0.2,
    }
    if coin() < 0.7:
        entry["owner_team"] = entry["team"]
    # the first systems cycle through every enum value and every
    # threshold boundary, so each seed covers them all
    for name, values in ENUMS.items():
        if index < len(values):
            entry[name] = values[index]
    if index < len(PIPELINE_BOUNDARIES):
        entry["failed_pipeline_ratio_quarter"] = PIPELINE_BOUNDARIES[index]
    if index < len(COVERAGE_BOUNDARIES):
        entry["test_coverage"] = COVERAGE_BOUNDARIES[index]
    if index % 7 == 3:
        entry.pop(DROPPABLE[(index // 7) % len(DROPPABLE)], None)
    return entry


def registry(seed: int, count: int, teams: int = 40) -> list[dict]:
    """`count` registry records with unique ids."""
    rng = random.Random(f"registry:{seed}")
    return [_system(rng, index, teams) for index in range(count)]


def registry_yaml(systems: list[dict], snapshot_date: dt.date) -> str:
    """Block-style YAML of a snapshot; scalars are written as JSON, which
    YAML reads back unchanged (floats always keep a decimal point)."""
    lines = ["schema_version: 1", f"snapshot_date: {snapshot_date.isoformat()}", "systems:"]
    for entry in systems:
        lead = "- "
        for name, value in entry.items():
            if isinstance(value, float):
                text = repr(value)
                if "e" in text or "." not in text:
                    raise ValueError(f"float {text} would not read back as a float")
            else:
                text = json.dumps(value)
            lines.append(f"{lead}{name}: {text}")
            lead = "  "
    return "\n".join(lines) + "\n"


def overrides(seed: int, systems: list[dict]) -> dict:
    """Human reviews for about half the systems, plus a few `extra` pins."""
    rng = random.Random(f"overrides:{seed}")
    per_system: dict[str, dict] = {}
    for entry in systems:
        review = {}
        if rng.random() < 0.5:
            review["readability"] = rng.choice(FULFILLMENT)
            review["modularity"] = rng.choice(FULFILLMENT)
        if rng.random() < 0.02:
            sub_id = rng.choice(PINNABLE)
            gap = rng.choice(("no", "large") if sub_id in FULL_ONLY else ("no", "small", "large"))
            review["extra"] = {sub_id: {"gap": gap, "reason": f"pinned by audit {rng.randint(1, 99)}"}}
        if review:
            per_system[entry["system_id"]] = review
    return {"modularity": "partial", "systems": per_system}


def overrides_yaml(document: dict) -> str:
    lines = [f"modularity: {json.dumps(document['modularity'])}", "systems:"]
    for sid, review in document["systems"].items():
        lines.append(f"  {json.dumps(sid)}:")
        for name in ("readability", "modularity"):
            if name in review:
                lines.append(f"    {name}: {json.dumps(review[name])}")
        for sub_id, pinned in review.get("extra", {}).items():
            lines.append("    extra:")
            # quoted: an unquoted `no` would read back as a YAML boolean
            lines.append(f"      {sub_id}: {json.dumps(pinned)}")
    return "\n".join(lines) + "\n"


# ---- history-deep: monthly drift -------------------------------------

# boolean evidence that improving systems gain month by month
IMPROVABLE = (
    "input_data_validated", "ab_test_conclusive", "ab_test_repeated_within_6_months",
    "latency_slo_met", "throughput_slo_met", "sla_met", "basic_ops_automated",
    "autoscaling_enabled", "can_disable_update_revert", "explainable",
    "bias_checked_clean", "compliance_met", "bot_filtering",
)
# evidence a system gets when it enters production
PRODUCTION_EVIDENCE = ("deployed_in_serving_system", "service_deployed", "deployed_in_registry")


def months(count: int, start: dt.date = dt.date(2025, 1, 1)) -> list[dt.date]:
    return [
        dt.date(start.year + (start.month - 1 + k) // 12, (start.month - 1 + k) % 12 + 1, 1)
        for k in range(count)
    ]


def monthly_drift(seed: int, count: int, month_count: int, teams: int = 20):
    """Per month, every system's registry record and human review.

    A seeded share of systems improves month by month (one more piece of
    evidence, a little more coverage, fewer failed pipelines); the rest
    stay put. Another share enters production partway through, which
    changes criticality and the required maturity. Every system has a
    record in every month, so the store holds count x month_count
    snapshots.
    """
    rng = random.Random(f"drift:{seed}")
    state = registry(seed, count, teams)
    reviews = [{"readability": None, "modularity": None} for _ in state]
    improving = [rng.random() < 0.45 for _ in state]
    joins = [rng.randrange(2, month_count) if rng.random() < 0.15 else None for _ in state]
    for index, month in enumerate(joins):
        if month is not None:
            state[index]["in_production"] = False
            for name in PRODUCTION_EVIDENCE:
                state[index][name] = False
    result = []
    for month in range(month_count):
        for index, entry in enumerate(state):
            if joins[index] == month:
                entry["in_production"] = True
                for name in PRODUCTION_EVIDENCE:
                    entry[name] = True
            if month and improving[index]:
                entry[rng.choice(IMPROVABLE)] = True
                if "test_coverage" in entry:
                    entry["test_coverage"] = min(1.0, round(entry["test_coverage"] + 0.05, 2))
                if "failed_pipeline_ratio_quarter" in entry:
                    entry["failed_pipeline_ratio_quarter"] = max(
                        0.0, round(entry["failed_pipeline_ratio_quarter"] - 0.03, 2)
                    )
                if month % 6 == 0:
                    reviews[index]["readability"] = rng.choice(("partial", "full"))
                    reviews[index]["modularity"] = rng.choice(("partial", "full"))
        result.append([(dict(entry), dict(review)) for entry, review in zip(state, reviews)])
    return result


# ---- desk: hand-written gaps CSVs ------------------------------------

def gaps_csv(rng: random.Random, kind: str) -> str:
    """A gaps CSV in shuffled row order; `kind` sets how gappy it is."""
    share = {"none": 0.0, "small": 0.25, "large": 0.8}[kind]
    rows = []
    for sub_id in ATTRIBUTES:
        if rng.random() < share:
            gap = "large" if sub_id in FULL_ONLY or rng.random() < 0.5 else "small"
        else:
            gap = "no"
        reason = f"{sub_id.replace('_', ' ')} reviewed in ticket {rng.randint(100, 9999)}"
        rows.append(f"{sub_id},{gap},{reason}")
    rng.shuffle(rows)
    return "sub_characteristic,gap,reason\n" + "\n".join(rows) + "\n"


def desk_cases(seed: int, count: int) -> list[dict]:
    """One assess + report case per gaps CSV."""
    rng = random.Random(f"desk:{seed}")
    cases = []
    for index in range(count):
        kind = ("none", "small", "large")[index % 3]
        case = {
            "team": f"desk-team-{index % 12:02d}",
            "system": f"desk-sys-{index:04d}",
            "date": dt.date(2026, 1 + index % 12, 1 + index % 28).isoformat(),
            "criticality": (1, 3, 5)[rng.randrange(3)],
            "family": None,
            "csv": gaps_csv(rng, kind),
        }
        if rng.random() < 0.2:
            # a family shares one evaluation and must name the system itself
            case["family"] = ",".join(
                [case["system"]]
                + [f"{case['system']}-{k}" for k in range(1, rng.randint(2, 4))]
            )
        cases.append(case)
    return cases
