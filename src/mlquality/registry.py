"""Fully automated assessment from registry metadata.

A registry snapshot is a YAML document with a `systems` list, one entry
per ML system, carrying whatever evidence the registry has. Gaps are then
inferred per attribute by a fixed rule table. Missing evidence is treated
conservatively: any attribute whose rule needs an absent field gets a
large gap with the reason "no evidence in registry", so an audit prefers a
false alarm over a silent pass.

Readability and modularity cannot be judged from registry data; they come
from human review supplied as manual overrides and default to a large gap
with the reason "no human review".
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path

from .assessment import Assessment, GapEntry
from .errors import OverrideError, SnapshotError
from .model import GAP_ALIASES, Gap, QualityModel
from .percentiles import nearest_rank
from .scoring import FleetStats, SystemUsage
from .yamldoc import load_yaml, read_text

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

NO_EVIDENCE = "no evidence in registry"
NO_HUMAN_REVIEW = "no human review"

RETRAINING_VALUES = ("none", "manual", "scheduled")
AUTOMATION_VALUES = ("none", "partial", "full")
MONITORING_VALUES = ("none", "performance_only", "full")
LOGGING_VALUES = ("none", "partial", "full")
DOCUMENTATION_VALUES = ("none", "partial", "complete")
FULFILLMENT_VALUES = ("none", "partial", "full")


@dataclass(frozen=True)
class SystemMetadata:
    """One system's registry record. None means the registry holds no
    evidence for that field."""

    system_id: str
    team: str
    in_production: bool | None = None
    deployed_in_serving_system: bool | None = None
    deployed_in_registry: bool | None = None
    outperforms_baseline: bool | None = None
    input_data_validated: bool | None = None
    ab_test_conclusive: bool | None = None
    ab_test_repeated_within_6_months: bool | None = None
    latency_slo_met: bool | None = None
    throughput_slo_met: bool | None = None
    sla_met: bool | None = None
    revenue: float | None = None
    training_cost: float | None = None
    inference_cost: float | None = None
    basic_ops_automated: bool | None = None
    training_duration: float | None = None
    failed_pipeline_ratio_quarter: float | None = None
    retraining: str | None = None
    autoscaling_enabled: bool | None = None
    pipeline_automation: str | None = None
    monitoring: str | None = None
    code_versioned: bool | None = None
    test_coverage: float | None = None
    service_deployed: bool | None = None
    can_disable_update_revert: bool | None = None
    metadata_logging: str | None = None
    documentation: str | None = None
    explainable: bool | None = None
    bias_checked_clean: bool | None = None
    owner_team: str | None = None
    compliance_met: bool | None = None
    bot_filtering: bool | None = None
    requests_per_day: int | None = None
    dependent_consumers: int | None = None
    revenue_share: float | None = None
    strategic: bool | None = None


@dataclass(frozen=True)
class RegistrySnapshot:
    snapshot_date: dt.date | None
    systems: tuple[SystemMetadata, ...]


@dataclass(frozen=True)
class ManualOverrides:
    """Human-review inputs for the attributes the registry cannot judge.

    `readability` and `modularity` take a fulfillment token (none, partial
    or full); None means no review happened. `extra` pins arbitrary
    attributes to a fixed gap and reason, winning over any inferred value.
    """

    readability: str | None = None
    modularity: str | None = None
    extra: dict[str, GapEntry] = field(default_factory=dict)


_ENUM_FIELDS = {
    "retraining": RETRAINING_VALUES,
    "pipeline_automation": AUTOMATION_VALUES,
    "monitoring": MONITORING_VALUES,
    "metadata_logging": LOGGING_VALUES,
    "documentation": DOCUMENTATION_VALUES,
}
_FRACTION_FIELDS = ("failed_pipeline_ratio_quarter", "test_coverage", "revenue_share")
_NONNEGATIVE_FIELDS = (
    "revenue",
    "training_cost",
    "inference_cost",
    "training_duration",
    "requests_per_day",
    "dependent_consumers",
)
_COUNT_FIELDS = ("requests_per_day", "dependent_consumers")
_TEXT_FIELDS = ("system_id", "team", "owner_team")


def check_field(name: str, value, problems: list[str], where: str) -> bool:
    """Validate one metadata field; append problems, return acceptance.

    Also validates the usage facts file, whose fields share their names
    with the registry's.
    """
    if name in _ENUM_FIELDS:
        if value not in _ENUM_FIELDS[name]:
            problems.append(
                f"{where}: {name} must be one of {', '.join(_ENUM_FIELDS[name])}, "
                f"got {value!r}"
            )
            return False
        return True
    if name in _TEXT_FIELDS:
        if not isinstance(value, str) or not value.strip():
            problems.append(f"{where}: {name} must be non-empty text, got {value!r}")
            return False
        return True
    if name in _FRACTION_FIELDS or name in _NONNEGATIVE_FIELDS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} must be a number, got {value!r}")
            return False
        if not math.isfinite(value):
            problems.append(f"{where}: {name} must be a finite number, got {value!r}")
            return False
        if value < 0:
            problems.append(f"{where}: {name} must be >= 0, got {value!r}")
            return False
        if name in _FRACTION_FIELDS and value > 1:
            problems.append(f"{where}: {name} must be within 0..1, got {value!r}")
            return False
        if name in _COUNT_FIELDS and value != int(value):
            problems.append(f"{where}: {name} must be an integer, got {value!r}")
            return False
        return True
    # remaining fields are booleans
    if not isinstance(value, bool):
        problems.append(f"{where}: {name} must be a boolean, got {value!r}")
        return False
    return True


def load_registry_snapshot(source: str | Path) -> RegistrySnapshot:
    """Parse a registry snapshot document (YAML text or file path).

    Unknown fields are ignored with a warning; absent fields stay absent
    rather than being defaulted. Duplicate system ids and malformed values
    are hard errors.
    """
    text = read_text(source, SnapshotError) if isinstance(source, Path) else source
    document = load_yaml(text, SnapshotError)
    if not isinstance(document, dict):
        raise SnapshotError("snapshot document must be a mapping")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot must declare schema_version: {SCHEMA_VERSION}, "
            f"got {document.get('schema_version')!r}"
        )
    for key in sorted(set(document) - {"schema_version", "snapshot_date", "systems"}):
        logger.warning("snapshot: ignoring unknown top-level field %r", key)

    snapshot_date = document.get("snapshot_date")
    if isinstance(snapshot_date, str):
        try:
            snapshot_date = dt.date.fromisoformat(snapshot_date)
        except ValueError as exc:
            raise SnapshotError(
                f"snapshot_date must be a date, got {snapshot_date!r}"
            ) from exc
    elif isinstance(snapshot_date, dt.datetime):
        snapshot_date = snapshot_date.date()
    elif snapshot_date is not None and not isinstance(snapshot_date, dt.date):
        raise SnapshotError(f"snapshot_date must be a date, got {snapshot_date!r}")

    entries = document.get("systems")
    if not isinstance(entries, list):
        raise SnapshotError("snapshot must contain a list under 'systems'")

    known = {f.name for f in dataclass_fields(SystemMetadata)}
    problems: list[str] = []
    records: list[SystemMetadata] = []
    seen_ids: set[str] = set()
    for index, entry in enumerate(entries):
        where = f"systems[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: expected a mapping")
            continue
        values = {}
        for name, value in entry.items():
            if name not in known:
                logger.warning("%s: ignoring unknown field %r", where, name)
                continue
            if value is None:
                continue
            if check_field(name, value, problems, where):
                values[name] = value
        if "system_id" not in values or "team" not in values:
            problems.append(f"{where}: system_id and team are required")
            continue
        if values["system_id"] in seen_ids:
            problems.append(f"{where}: duplicate system_id: {values['system_id']}")
            continue
        seen_ids.add(values["system_id"])
        records.append(SystemMetadata(**values))
    if problems:
        raise SnapshotError(problems)
    return RegistrySnapshot(snapshot_date=snapshot_date, systems=tuple(records))


def parse_registry_snapshot(source: str | Path) -> list[SystemMetadata]:
    """The per-system records of a snapshot document."""
    return list(load_registry_snapshot(source).systems)


def fleet_percentiles(records: list[SystemMetadata]) -> FleetStats:
    """Fleet thresholds: request volume p66 over production systems and
    training duration p80 over every record that reports one."""
    volumes = [
        r.requests_per_day
        for r in records
        if r.in_production and r.requests_per_day is not None
    ]
    if not volumes:
        raise SnapshotError(
            "empty production set: no production system reports requests_per_day"
        )
    durations = [r.training_duration for r in records if r.training_duration is not None]
    if not durations:
        raise SnapshotError("no system reports a training_duration")
    return FleetStats(
        requests_p66=nearest_rank(volumes, 66),
        training_duration_p80=nearest_rank(durations, 80),
    )


def usage_from_metadata(record: SystemMetadata) -> SystemUsage:
    """Usage facts for the criticality decision; absent evidence counts as
    zero traffic, zero consumers and not strategic."""
    return SystemUsage(
        requests_per_day=record.requests_per_day or 0,
        dependent_consumers=record.dependent_consumers or 0,
        revenue_share=record.revenue_share or 0.0,
        strategic=bool(record.strategic),
        in_production=bool(record.in_production),
    )


def _num(value: float) -> str:
    return f"{value:g}"


def _missing(*values) -> bool:
    return any(value is None for value in values)


def _no_evidence() -> GapEntry:
    return GapEntry(gap=Gap.LARGE, reason=NO_EVIDENCE)


def _infer_accuracy(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.outperforms_baseline, r.input_data_validated):
        return _no_evidence()
    if r.outperforms_baseline and r.input_data_validated:
        return GapEntry(Gap.NO_GAP, "outperforms a baseline and input data are validated")
    if r.outperforms_baseline:
        return GapEntry(Gap.SMALL, "outperforms a baseline but input data are not validated")
    return GapEntry(Gap.LARGE, "does not outperform a simple baseline")


def _infer_effectiveness(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.ab_test_conclusive, r.ab_test_repeated_within_6_months):
        return _no_evidence()
    if r.ab_test_conclusive and r.ab_test_repeated_within_6_months:
        return GapEntry(Gap.NO_GAP, "conclusive A/B test, repeated within six months")
    if r.ab_test_conclusive:
        return GapEntry(Gap.SMALL, "conclusive A/B test not repeated within six months")
    return GapEntry(Gap.LARGE, "no conclusive A/B test")


def _infer_responsiveness(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.latency_slo_met, r.throughput_slo_met):
        return _no_evidence()
    if r.latency_slo_met and r.throughput_slo_met:
        return GapEntry(Gap.NO_GAP, "latency and throughput requirements are met")
    unmet = [
        name
        for name, met in (("latency", r.latency_slo_met), ("throughput", r.throughput_slo_met))
        if not met
    ]
    return GapEntry(Gap.LARGE, f"{' and '.join(unmet)} requirements not met")


def _infer_usability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.deployed_in_serving_system):
        return _no_evidence()
    if r.deployed_in_serving_system:
        return GapEntry(Gap.NO_GAP, "deployed in a serving system")
    return GapEntry(Gap.LARGE, "not deployed in a serving system")


def _infer_cost_effectiveness(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.revenue, r.training_cost, r.inference_cost):
        return _no_evidence()
    if r.revenue > r.training_cost + r.inference_cost:
        return GapEntry(Gap.NO_GAP, "revenue exceeds training and inference costs")
    return GapEntry(Gap.LARGE, "revenue does not exceed training and inference costs")


def _infer_efficiency(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.training_duration, r.basic_ops_automated):
        return _no_evidence()
    if not r.basic_ops_automated:
        return GapEntry(Gap.LARGE, "basic operations are not automated")
    p80 = fleet.training_duration_p80
    if r.training_duration <= p80:
        return GapEntry(
            Gap.NO_GAP,
            f"basic operations automated and training duration "
            f"({_num(r.training_duration)} min) within the fleet 80th "
            f"percentile ({_num(p80)} min)",
        )
    return GapEntry(
        Gap.SMALL,
        f"basic operations automated but training duration "
        f"({_num(r.training_duration)} min) exceeds the fleet 80th "
        f"percentile ({_num(p80)} min)",
    )


def _infer_availability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.sla_met):
        return _no_evidence()
    if r.sla_met:
        return GapEntry(Gap.NO_GAP, "deployed service meets its SLAs")
    return GapEntry(Gap.LARGE, "deployed service does not meet its SLAs")


def _infer_resilience(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    ratio = r.failed_pipeline_ratio_quarter
    if ratio is None:
        return _no_evidence()
    if ratio <= 0.10:
        return GapEntry(Gap.NO_GAP, f"failed pipeline ratio {ratio:.0%} within the 10% bar")
    if ratio <= 0.30:
        return GapEntry(Gap.SMALL, f"failed pipeline ratio {ratio:.0%} within the 30% bar only")
    return GapEntry(Gap.LARGE, f"failed pipeline ratio {ratio:.0%} above the 30% bar")


def _infer_adaptability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.retraining):
        return _no_evidence()
    if r.retraining == "scheduled":
        return GapEntry(Gap.NO_GAP, "retraining is scheduled")
    if r.retraining == "manual":
        return GapEntry(Gap.SMALL, "retraining is manual")
    return GapEntry(Gap.LARGE, "no retraining in place")


def _infer_scalability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.autoscaling_enabled, r.deployed_in_serving_system):
        return _no_evidence()
    if r.autoscaling_enabled and r.deployed_in_serving_system:
        return GapEntry(Gap.NO_GAP, "deployed in a serving system with autoscaling enabled")
    if not r.deployed_in_serving_system:
        return GapEntry(Gap.LARGE, "not deployed in a serving system")
    return GapEntry(Gap.LARGE, "autoscaling is not enabled")


def _infer_repeatability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.pipeline_automation):
        return _no_evidence()
    if r.pipeline_automation == "full":
        return GapEntry(Gap.NO_GAP, "life-cycle pipeline fully automated")
    if r.pipeline_automation == "partial":
        return GapEntry(Gap.SMALL, "life-cycle pipeline partially automated")
    return GapEntry(Gap.LARGE, "life-cycle pipeline not automated")


def _infer_monitoring(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.monitoring):
        return _no_evidence()
    if r.monitoring == "full":
        return GapEntry(Gap.NO_GAP, "performance, feature drift and metrics are monitored")
    if r.monitoring == "performance_only":
        return GapEntry(Gap.SMALL, "only ML performance is monitored")
    return GapEntry(Gap.LARGE, "no monitoring in place")


def _infer_testability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    coverage = r.test_coverage
    if coverage is None:
        return _no_evidence()
    if coverage >= 0.80:
        return GapEntry(Gap.NO_GAP, f"test coverage {coverage:.0%} meets the 80% bar")
    if coverage >= 0.20:
        return GapEntry(Gap.SMALL, f"test coverage {coverage:.0%} meets only the 20% bar")
    return GapEntry(Gap.LARGE, f"test coverage {coverage:.0%} below the 20% bar")


def _infer_operability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.can_disable_update_revert, r.service_deployed):
        return _no_evidence()
    if r.can_disable_update_revert:
        return GapEntry(Gap.NO_GAP, "system can be disabled, updated and reverted")
    if r.service_deployed:
        return GapEntry(
            Gap.SMALL, "deployed on a service but cannot be disabled, updated and reverted"
        )
    return GapEntry(Gap.LARGE, "not deployed on a service")


def _infer_discoverability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.deployed_in_registry):
        return _no_evidence()
    if r.deployed_in_registry:
        return GapEntry(Gap.NO_GAP, "deployed in an accessible registry")
    return GapEntry(Gap.LARGE, "not deployed in an accessible registry")


def _infer_traceability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.metadata_logging):
        return _no_evidence()
    if r.metadata_logging == "full":
        return GapEntry(Gap.NO_GAP, "life-cycle metadata fully logged")
    if r.metadata_logging == "partial":
        return GapEntry(Gap.SMALL, "life-cycle metadata partially logged")
    return GapEntry(Gap.LARGE, "life-cycle metadata not logged")


def _infer_understandability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.documentation):
        return _no_evidence()
    if r.documentation == "complete":
        return GapEntry(Gap.NO_GAP, "documentation is complete")
    if r.documentation == "partial":
        return GapEntry(Gap.SMALL, "documentation is partial")
    return GapEntry(Gap.LARGE, "no documentation")


def _infer_explainability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.explainable):
        return _no_evidence()
    if r.explainable:
        return GapEntry(Gap.NO_GAP, "predictions are explainable")
    return GapEntry(Gap.LARGE, "predictions are not explainable")


def _infer_fairness(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.bias_checked_clean):
        return _no_evidence()
    if r.bias_checked_clean:
        return GapEntry(Gap.NO_GAP, "checked against undesired biases, none identified")
    return GapEntry(Gap.LARGE, "not cleared of undesired biases")


def _infer_ownership(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if r.owner_team is None:
        return _no_evidence()
    return GapEntry(Gap.NO_GAP, f"owned by team {r.owner_team}")


def _infer_standards_compliance(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.compliance_met):
        return _no_evidence()
    if r.compliance_met:
        return GapEntry(Gap.NO_GAP, "compliance standards are met")
    return GapEntry(Gap.LARGE, "compliance standards are not met")


def _infer_vulnerability(r: SystemMetadata, fleet: FleetStats) -> GapEntry:
    if _missing(r.bot_filtering):
        return _no_evidence()
    if r.bot_filtering:
        return GapEntry(Gap.NO_GAP, "bots are filtered from input data")
    return GapEntry(Gap.LARGE, "bots are not filtered from input data")


_RULES = {
    "accuracy": _infer_accuracy,
    "effectiveness": _infer_effectiveness,
    "responsiveness": _infer_responsiveness,
    "usability": _infer_usability,
    "cost_effectiveness": _infer_cost_effectiveness,
    "efficiency": _infer_efficiency,
    "availability": _infer_availability,
    "resilience": _infer_resilience,
    "adaptability": _infer_adaptability,
    "scalability": _infer_scalability,
    "repeatability": _infer_repeatability,
    "monitoring": _infer_monitoring,
    "testability": _infer_testability,
    "operability": _infer_operability,
    "discoverability": _infer_discoverability,
    "traceability": _infer_traceability,
    "understandability": _infer_understandability,
    "explainability": _infer_explainability,
    "fairness": _infer_fairness,
    "ownership": _infer_ownership,
    "standards_compliance": _infer_standards_compliance,
    "vulnerability": _infer_vulnerability,
}


def _from_review(fulfillment: str | None) -> GapEntry:
    if fulfillment is None:
        return GapEntry(Gap.LARGE, NO_HUMAN_REVIEW)
    if fulfillment == "full":
        return GapEntry(Gap.NO_GAP, "human review: full requirement met")
    if fulfillment == "partial":
        return GapEntry(Gap.SMALL, "human review: only the minimal requirement met")
    return GapEntry(Gap.LARGE, "human review: requirement not met")


def _infer_maintainability(
    r: SystemMetadata, overrides: ManualOverrides, fleet: FleetStats
) -> GapEntry:
    if _missing(r.code_versioned):
        return _no_evidence()
    if not r.code_versioned:
        return GapEntry(Gap.LARGE, "code is not versioned")
    if overrides.readability == "full":
        return GapEntry(Gap.NO_GAP, "code versioned and readability confirmed by human review")
    return GapEntry(Gap.SMALL, "code versioned but readability full requirement not met")


def infer_gaps(
    record: SystemMetadata,
    overrides: ManualOverrides,
    fleet: FleetStats,
    model: QualityModel,
    *,
    date: dt.date,
) -> Assessment:
    """Build an assessment straight from a registry record.

    Inference is deterministic: the same record, overrides and fleet stats
    always yield the same gaps and reason strings. Entries in
    `overrides.extra` win over every inferred value. The returned
    assessment carries no criticality yet; see `usage_from_metadata` and
    `determine_criticality`.
    """
    problems = [
        f"override on unknown sub-characteristic: {sub_id}"
        for sub_id in overrides.extra
        if sub_id not in model
    ]
    if problems:
        raise OverrideError(sorted(problems))

    gaps: dict[str, GapEntry] = {}
    for sub_id in model.ids:
        if sub_id in overrides.extra:
            entry = overrides.extra[sub_id]
        elif sub_id == "readability":
            entry = _from_review(overrides.readability)
        elif sub_id == "modularity":
            entry = _from_review(overrides.modularity)
        elif sub_id == "maintainability":
            entry = _infer_maintainability(record, overrides, fleet)
        elif sub_id in _RULES:
            entry = _RULES[sub_id](record, fleet)
        else:
            # a row this rule table does not know; stay conservative
            entry = GapEntry(Gap.LARGE, "no inference rule for this sub-characteristic")
        if entry.gap not in model.legal_gaps(sub_id):
            raise OverrideError(
                f"{sub_id}: small gap illegal (no minimal requirement)"
            )
        gaps[sub_id] = entry
    return Assessment(
        team=record.team,
        system_id=record.system_id,
        date=date,
        gaps=gaps,
    )


def _parse_overrides_entry(raw: dict, where: str, problems: list[str]) -> ManualOverrides:
    readability = raw.get("readability")
    modularity = raw.get("modularity")
    for name, value in (("readability", readability), ("modularity", modularity)):
        if value is not None and value not in FULFILLMENT_VALUES:
            problems.append(
                f"{where}: {name} must be one of {', '.join(FULFILLMENT_VALUES)}, "
                f"got {value!r}"
            )
    extra: dict[str, GapEntry] = {}
    raw_extra = raw.get("extra") or {}
    if not isinstance(raw_extra, dict):
        problems.append(f"{where}: extra must be a mapping of sub-characteristic to gap")
        raw_extra = {}
    for sub_id, pinned in raw_extra.items():
        if not isinstance(pinned, dict) or "gap" not in pinned:
            problems.append(f"{where}: extra.{sub_id} must be a mapping with a gap")
            continue
        token = pinned["gap"]
        if token is True:
            problems.append(
                f"{where}: extra.{sub_id}: gap reads as the boolean true; "
                'quote the gap token, e.g. gap: "no"'
            )
            continue
        # an unquoted `gap: no` reads as the boolean false
        gap = Gap.NO_GAP if token is False else GAP_ALIASES.get(str(token).lower())
        if gap is None:
            problems.append(f"{where}: extra.{sub_id}: malformed gap token {pinned['gap']!r}")
            continue
        extra[sub_id] = GapEntry(gap=gap, reason=str(pinned.get("reason", "")))
    for key in sorted(set(raw) - {"readability", "modularity", "extra"}):
        problems.append(f"{where}: unknown field {key}")
    return ManualOverrides(readability=readability, modularity=modularity, extra=extra)


@dataclass(frozen=True)
class OverridesDocument:
    """Parsed overrides file: fleet-wide defaults plus per-system entries."""

    defaults: ManualOverrides
    per_system: dict[str, ManualOverrides]

    def for_system(self, system_id: str) -> ManualOverrides:
        specific = self.per_system.get(system_id)
        if specific is None:
            return self.defaults
        return ManualOverrides(
            readability=specific.readability or self.defaults.readability,
            modularity=specific.modularity or self.defaults.modularity,
            extra={**self.defaults.extra, **specific.extra},
        )


def load_overrides(source: str | Path | None) -> OverridesDocument:
    """Parse a manual-overrides document (YAML text or file path).

    Top-level readability/modularity/extra apply to every system; entries
    under `systems` refine them for single systems.
    """
    if source is None:
        return OverridesDocument(defaults=ManualOverrides(), per_system={})
    text = read_text(source, OverrideError) if isinstance(source, Path) else source
    document = load_yaml(text, OverrideError)
    if document is None:
        return OverridesDocument(defaults=ManualOverrides(), per_system={})
    if not isinstance(document, dict):
        raise OverrideError("overrides document must be a mapping")
    problems: list[str] = []
    defaults = _parse_overrides_entry(
        {k: v for k, v in document.items() if k != "systems"}, "overrides", problems
    )
    per_system: dict[str, ManualOverrides] = {}
    raw_systems = document.get("systems") or {}
    if not isinstance(raw_systems, dict):
        problems.append("systems: expected a mapping of system id to overrides")
        raw_systems = {}
    for system_id, raw in raw_systems.items():
        if not isinstance(raw, dict):
            problems.append(f"systems.{system_id}: expected a mapping")
            continue
        per_system[system_id] = _parse_overrides_entry(
            raw, f"systems.{system_id}", problems
        )
    if problems:
        raise OverrideError(problems)
    return OverridesDocument(defaults=defaults, per_system=per_system)
