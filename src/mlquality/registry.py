"""Fully automated assessment from registry metadata.

A registry snapshot is a YAML document with a `systems` list, one entry
per ML system, carrying whatever evidence the registry has. Gaps are then
inferred per attribute by a fixed rule table, `_RULES`. Each rule lists
the registry fields it reads. Most rules are evidence ladders: the
evidence picks a rung and the rung picks the gap (the top rung is no gap,
the bottom rung large, any rung between small). A ladder finds its rung in
one of three ways:

- flags: the number of leading true boolean fields;
- enum: the position of the value among the field's tokens, so the order
  of an enum's tokens (`RETRAINING_VALUES` and its siblings, none first)
  is its rung order;
- threshold: the number of bars the value passes.

The few rules that do not fit a ladder are written out by hand; only
`efficiency` reads the fleet stats. Missing evidence is treated
conservatively, in one place: `infer_gaps` gives any attribute whose rule
reads an absent field a large gap with the reason "no evidence in
registry", before the rule runs, so an audit prefers a false alarm over a
silent pass.

Readability and modularity cannot be judged from registry data; they come
from human review supplied as manual overrides and default to a large gap
with the reason "no human review".
"""

from __future__ import annotations

import datetime as dt
import logging
import operator
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import NamedTuple

from .assessment import Assessment, GapEntry
from .errors import OverrideError, SnapshotError
from .model import GAP_ALIASES, Gap, QualityModel
from .percentiles import nearest_rank
from .scoring import FleetStats, SystemUsage
from .yamldoc import compose_yaml, load_yaml, load_yaml_records, quoted, read_text, sorted_keys

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


def _evidence(kind: str | tuple[str, ...]):
    """A field that defaults to None, no evidence, and holds a `kind` value."""
    return field(default=None, metadata={"kind": kind})


@dataclass(frozen=True, slots=True)
class SystemMetadata:
    """One system's registry record. None means the registry holds no
    evidence for that field.

    Each field declares its kind, which `check_field` checks: an enum's
    tokens, bottom rung first, or "text" (non-empty), "boolean", "amount" (a
    finite number >= 0), "fraction" (within 0..1) or "count" (an integer
    amount)."""

    system_id: str = field(metadata={"kind": "text"})
    team: str = field(metadata={"kind": "text"})
    in_production: bool | None = _evidence("boolean")
    deployed_in_serving_system: bool | None = _evidence("boolean")
    deployed_in_registry: bool | None = _evidence("boolean")
    outperforms_baseline: bool | None = _evidence("boolean")
    input_data_validated: bool | None = _evidence("boolean")
    ab_test_conclusive: bool | None = _evidence("boolean")
    ab_test_repeated_within_6_months: bool | None = _evidence("boolean")
    latency_slo_met: bool | None = _evidence("boolean")
    throughput_slo_met: bool | None = _evidence("boolean")
    sla_met: bool | None = _evidence("boolean")
    revenue: float | None = _evidence("amount")
    training_cost: float | None = _evidence("amount")
    inference_cost: float | None = _evidence("amount")
    basic_ops_automated: bool | None = _evidence("boolean")
    training_duration: float | None = _evidence("amount")
    failed_pipeline_ratio_quarter: float | None = _evidence("fraction")
    retraining: str | None = _evidence(RETRAINING_VALUES)
    autoscaling_enabled: bool | None = _evidence("boolean")
    pipeline_automation: str | None = _evidence(AUTOMATION_VALUES)
    monitoring: str | None = _evidence(MONITORING_VALUES)
    code_versioned: bool | None = _evidence("boolean")
    test_coverage: float | None = _evidence("fraction")
    service_deployed: bool | None = _evidence("boolean")
    can_disable_update_revert: bool | None = _evidence("boolean")
    metadata_logging: str | None = _evidence(LOGGING_VALUES)
    documentation: str | None = _evidence(DOCUMENTATION_VALUES)
    explainable: bool | None = _evidence("boolean")
    bias_checked_clean: bool | None = _evidence("boolean")
    owner_team: str | None = _evidence("text")
    compliance_met: bool | None = _evidence("boolean")
    bot_filtering: bool | None = _evidence("boolean")
    requests_per_day: int | None = _evidence("count")
    dependent_consumers: int | None = _evidence("count")
    revenue_share: float | None = _evidence("fraction")
    strategic: bool | None = _evidence("boolean")


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

    readability: str | None = _evidence(FULFILLMENT_VALUES)
    modularity: str | None = _evidence(FULFILLMENT_VALUES)
    extra: dict[str, GapEntry] = field(default_factory=dict)


# name -> kind, as declared on each record field and on the two reviews; a
# record field declared without a kind fails here, at import
_KINDS = {f.name: f.metadata["kind"] for f in dataclass_fields(SystemMetadata)}
_KNOWN_FIELDS = frozenset(_KINDS)
_KINDS.update((f.name, f.metadata["kind"]) for f in dataclass_fields(ManualOverrides)[:2])


def check_field(name: str, value, problems: list[str], where: str) -> bool:
    """Validate one field of a registry record, a usage facts file (whose
    fields share their names with the registry's) or an override review
    against the kind its field declares; append its problem as `<where>:
    <name> <problem>, got <value>` and return acceptance."""
    kind = _KINDS[name]
    problem = None
    if type(kind) is tuple:  # an enum's tokens
        if value not in kind:
            problem = f"must be one of {', '.join(kind)}"
    elif kind == "text":
        if not isinstance(value, str) or not value.strip():
            problem = "must be non-empty text"
    elif kind == "boolean":
        if not isinstance(value, bool):
            problem = "must be a boolean"
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        problem = "must be a number"
    # unlike math.isfinite, also refuses an integer too large for a float
    elif not abs(value) <= sys.float_info.max:
        problem = "must be a finite number"
    elif value < 0:
        problem = "must be >= 0"
    elif kind == "fraction" and value > 1:
        problem = "must be within 0..1"
    elif kind == "count" and value != int(value):
        problem = "must be an integer"
    if problem is not None:
        problems.append(f"{where}: {name} {problem}, got {quoted(value)}")
    return problem is None


def read_fields(mapping: dict, known, where: str) -> tuple[dict, list[str], list]:
    """The fields of `mapping` named in `known` whose values `check_field`
    accepts as their declared kind, the problems of the others, and the
    names `known` lacks, in the order written. A null value means no
    evidence and is left out."""
    values, problems, unknown = {}, [], []
    for name, value in mapping.items():
        if name not in known:
            unknown.append(name)
        elif value is not None and check_field(name, value, problems, where):
            values[name] = value
    return values, problems, unknown


class _Entry(NamedTuple):
    """One `systems` item as read: its record, None where it lacks a valid
    system_id or team; the problems of its values; the names of the fields
    it holds that a record does not know."""

    record: SystemMetadata | None
    problems: tuple[str, ...]
    unknown: tuple[str, ...]


def _read_entry(index: int, item) -> _Entry:
    """Read the `systems` item at `index`. Neither raises nor logs, so the
    parse can apply it to each item as that item parses."""
    where = f"systems[{index}]"
    if not isinstance(item, dict):
        return _Entry(None, (f"{where}: expected a mapping",), ())
    values, problems, unknown = read_fields(item, _KNOWN_FIELDS, where)
    if "system_id" not in values or "team" not in values:
        problems.append(f"{where}: system_id and team are required")
        return _Entry(None, tuple(problems), tuple(unknown))
    return _Entry(SystemMetadata(**values), tuple(problems), tuple(unknown))


def load_registry_snapshot(source: str | Path) -> RegistrySnapshot:
    """Parse a registry snapshot document (YAML text or file path).

    Unknown fields are ignored with a warning; absent fields stay absent
    rather than being defaulted. Duplicate system ids and malformed values
    are hard errors.
    """
    text = read_text(source, SnapshotError) if isinstance(source, Path) else source
    document = load_yaml_records(text, "systems", SnapshotError, _read_entry)
    if not isinstance(document, dict):
        raise SnapshotError("snapshot document must be a mapping")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot must declare schema_version: {SCHEMA_VERSION}, "
            f"got {quoted(document.get('schema_version'))}"
        )
    for key in sorted_keys(set(document) - {"schema_version", "snapshot_date", "systems"}):
        logger.warning("snapshot: ignoring unknown top-level field %r", key)

    snapshot_date = document.get("snapshot_date")
    if isinstance(snapshot_date, str):
        try:
            snapshot_date = dt.date.fromisoformat(snapshot_date)
        except ValueError as exc:
            raise SnapshotError(
                f"snapshot_date must be a date, got {quoted(snapshot_date)}"
            ) from exc
    elif isinstance(snapshot_date, dt.datetime):
        snapshot_date = snapshot_date.date()
    elif snapshot_date is not None and not isinstance(snapshot_date, dt.date):
        raise SnapshotError(f"snapshot_date must be a date, got {quoted(snapshot_date)}")

    entries = document.get("systems")
    if not isinstance(entries, list):
        raise SnapshotError("snapshot must contain a list under 'systems'")

    problems: list[str] = []
    records: list[SystemMetadata] = []
    seen_ids: set[str] = set()
    for index, (record, entry_problems, unknown) in enumerate(entries):
        for name in unknown:
            logger.warning("systems[%d]: ignoring unknown field %r", index, name)
        problems += entry_problems
        if record is None:
            continue
        if record.system_id in seen_ids:
            problems.append(f"systems[{index}]: duplicate system_id: {record.system_id}")
            continue
        seen_ids.add(record.system_id)
        records.append(record)
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
    """Usage facts for the criticality decision, read from the record's
    fields of the same names. Absent evidence takes `SystemUsage`'s
    default: zero traffic, zero consumers, no revenue, not strategic and
    not in production."""
    return SystemUsage._make(
        getattr(record, name) or default for name, default in SystemUsage._field_defaults.items()
    )


def _num(value: float) -> str:
    return f"{value:g}"


_NO_EVIDENCE = GapEntry(Gap.LARGE, NO_EVIDENCE)


class _Rule(NamedTuple):
    """How one attribute is inferred: the registry fields it reads, a
    reader returning their values as a tuple, and a judge taking those
    values in the same order."""

    fields: tuple[str, ...]
    read: Callable[[SystemMetadata], tuple]
    judge: Callable[..., GapEntry]


def _rule(fields: tuple[str, ...], judge: Callable[..., GapEntry]) -> _Rule:
    get = operator.attrgetter(*fields)
    read = get if len(fields) > 1 else lambda record: (get(record),)
    return _Rule(fields, read, judge)


def _rung_gaps(rungs: int) -> tuple[Gap, ...]:
    """Gap per rung, bottom rung first: large at the bottom, no gap at the
    top, small on any rung between."""
    return (Gap.LARGE,) + (Gap.SMALL,) * (rungs - 2) + (Gap.NO_GAP,)


def _flags(fields: tuple[str, ...], *reasons: str) -> _Rule:
    """Rung = the number of leading true flags; one reason per rung."""
    entries = tuple(map(GapEntry, _rung_gaps(len(reasons)), reasons))

    def judge(*flags) -> GapEntry:
        rung = 0
        for flag in flags:
            if not flag:
                break
            rung += 1
        return entries[rung]

    return _rule(fields, judge)


def _enum(name: str, *reasons: str) -> _Rule:
    """Rung = the position of the value among the tokens its field
    declares; one reason per token."""
    tokens = _KINDS[name]
    by_token = dict(zip(tokens, map(GapEntry, _rung_gaps(len(tokens)), reasons)))
    bottom = by_token[tokens[0]]
    # a token outside the validated set can only come from a hand-built
    # record; like the bottom token it is not evidence of anything better
    return _rule((name,), lambda value: by_token.get(value, bottom))


def _threshold(
    name: str, passes: Callable[[float, float], bool], bars: tuple[float, ...],
    *templates: str,
) -> _Rule:
    """Rung = the number of bars the value passes, loosest bar first; each
    rung's reason is a template filled with the value."""
    rungs = tuple(zip(_rung_gaps(len(templates)), templates))

    def judge(value: float) -> GapEntry:
        rung = 0
        for bar in bars:
            if passes(value, bar):
                rung += 1
        gap, template = rungs[rung]
        return GapEntry(gap, template.format(value))

    return _rule((name,), judge)


def _responsiveness(latency_met: bool, throughput_met: bool) -> GapEntry:
    if latency_met and throughput_met:
        return GapEntry(Gap.NO_GAP, "latency and throughput requirements are met")
    unmet = [
        name
        for name, met in (("latency", latency_met), ("throughput", throughput_met))
        if not met
    ]
    return GapEntry(Gap.LARGE, f"{' and '.join(unmet)} requirements not met")


def _cost_effectiveness(
    revenue: float, training_cost: float, inference_cost: float
) -> GapEntry:
    if revenue > training_cost + inference_cost:
        return GapEntry(Gap.NO_GAP, "revenue exceeds training and inference costs")
    return GapEntry(Gap.LARGE, "revenue does not exceed training and inference costs")


def _efficiency(duration: float, automated: bool, fleet: FleetStats) -> GapEntry:
    if not automated:
        return GapEntry(Gap.LARGE, "basic operations are not automated")
    p80 = fleet.training_duration_p80
    if duration <= p80:
        return GapEntry(
            Gap.NO_GAP,
            f"basic operations automated and training duration "
            f"({_num(duration)} min) within the fleet 80th "
            f"percentile ({_num(p80)} min)",
        )
    return GapEntry(
        Gap.SMALL,
        f"basic operations automated but training duration "
        f"({_num(duration)} min) exceeds the fleet 80th "
        f"percentile ({_num(p80)} min)",
    )


def _scalability(autoscaling: bool, serving: bool) -> GapEntry:
    if autoscaling and serving:
        return GapEntry(Gap.NO_GAP, "deployed in a serving system with autoscaling enabled")
    if not serving:
        return GapEntry(Gap.LARGE, "not deployed in a serving system")
    return GapEntry(Gap.LARGE, "autoscaling is not enabled")


def _operability(revertible: bool, service_deployed: bool) -> GapEntry:
    if revertible:
        return GapEntry(Gap.NO_GAP, "system can be disabled, updated and reverted")
    if service_deployed:
        return GapEntry(
            Gap.SMALL, "deployed on a service but cannot be disabled, updated and reverted"
        )
    return GapEntry(Gap.LARGE, "not deployed on a service")


def _ownership(owner_team: str) -> GapEntry:
    return GapEntry(Gap.NO_GAP, f"owned by team {owner_team}")


def _maintainability(code_versioned: bool, readability: str | None) -> GapEntry:
    if not code_versioned:
        return GapEntry(Gap.LARGE, "code is not versioned")
    if readability == "full":
        return GapEntry(Gap.NO_GAP, "code versioned and readability confirmed by human review")
    return GapEntry(Gap.SMALL, "code versioned but readability full requirement not met")


# One rule per attribute the registry can judge. `efficiency` also gets
# the fleet stats and `maintainability` the readability review.
_RULES: dict[str, _Rule] = {
    "accuracy": _flags(
        ("outperforms_baseline", "input_data_validated"),
        "does not outperform a simple baseline",
        "outperforms a baseline but input data are not validated",
        "outperforms a baseline and input data are validated",
    ),
    "effectiveness": _flags(
        ("ab_test_conclusive", "ab_test_repeated_within_6_months"),
        "no conclusive A/B test",
        "conclusive A/B test not repeated within six months",
        "conclusive A/B test, repeated within six months",
    ),
    "responsiveness": _rule(("latency_slo_met", "throughput_slo_met"), _responsiveness),
    "usability": _flags(
        ("deployed_in_serving_system",),
        "not deployed in a serving system",
        "deployed in a serving system",
    ),
    "cost_effectiveness": _rule(
        ("revenue", "training_cost", "inference_cost"), _cost_effectiveness
    ),
    "efficiency": _rule(("training_duration", "basic_ops_automated"), _efficiency),
    "availability": _flags(
        ("sla_met",),
        "deployed service does not meet its SLAs",
        "deployed service meets its SLAs",
    ),
    "resilience": _threshold(
        "failed_pipeline_ratio_quarter", operator.le, (0.30, 0.10),
        "failed pipeline ratio {:.0%} above the 30% bar",
        "failed pipeline ratio {:.0%} within the 30% bar only",
        "failed pipeline ratio {:.0%} within the 10% bar",
    ),
    "adaptability": _enum(
        "retraining",
        "no retraining in place",
        "retraining is manual",
        "retraining is scheduled",
    ),
    "scalability": _rule(("autoscaling_enabled", "deployed_in_serving_system"), _scalability),
    "repeatability": _enum(
        "pipeline_automation",
        "life-cycle pipeline not automated",
        "life-cycle pipeline partially automated",
        "life-cycle pipeline fully automated",
    ),
    "monitoring": _enum(
        "monitoring",
        "no monitoring in place",
        "only ML performance is monitored",
        "performance, feature drift and metrics are monitored",
    ),
    "maintainability": _rule(("code_versioned",), _maintainability),
    "testability": _threshold(
        "test_coverage", operator.ge, (0.20, 0.80),
        "test coverage {:.0%} below the 20% bar",
        "test coverage {:.0%} meets only the 20% bar",
        "test coverage {:.0%} meets the 80% bar",
    ),
    "operability": _rule(("can_disable_update_revert", "service_deployed"), _operability),
    "discoverability": _flags(
        ("deployed_in_registry",),
        "not deployed in an accessible registry",
        "deployed in an accessible registry",
    ),
    "traceability": _enum(
        "metadata_logging",
        "life-cycle metadata not logged",
        "life-cycle metadata partially logged",
        "life-cycle metadata fully logged",
    ),
    "understandability": _enum(
        "documentation",
        "no documentation",
        "documentation is partial",
        "documentation is complete",
    ),
    "explainability": _flags(
        ("explainable",),
        "predictions are not explainable",
        "predictions are explainable",
    ),
    "fairness": _flags(
        ("bias_checked_clean",),
        "not cleared of undesired biases",
        "checked against undesired biases, none identified",
    ),
    "ownership": _rule(("owner_team",), _ownership),
    "standards_compliance": _flags(
        ("compliance_met",),
        "compliance standards are not met",
        "compliance standards are met",
    ),
    "vulnerability": _flags(
        ("bot_filtering",),
        "bots are not filtered from input data",
        "bots are filtered from input data",
    ),
}


def _from_review(fulfillment: str | None) -> GapEntry:
    if fulfillment is None:
        return GapEntry(Gap.LARGE, NO_HUMAN_REVIEW)
    if fulfillment == "full":
        return GapEntry(Gap.NO_GAP, "human review: full requirement met")
    if fulfillment == "partial":
        return GapEntry(Gap.SMALL, "human review: only the minimal requirement met")
    return GapEntry(Gap.LARGE, "human review: requirement not met")


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
    `overrides.extra` win over every inferred value. Otherwise an
    attribute whose rule reads an absent field gets a large gap with the
    reason "no evidence in registry", whatever its other fields say; this
    is the only place that policy is applied. On an attribute without a
    minimal requirement an inferred or reviewed small gap becomes large,
    keeping its reason, while a small `extra` pin raises OverrideError.
    The returned assessment carries no criticality yet; see
    `usage_from_metadata` and `determine_criticality`.
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
        else:
            _, read, judge = _RULES[sub_id]
            values = read(record)
            if None in values:
                entry = _NO_EVIDENCE
            elif sub_id == "efficiency":
                entry = judge(*values, fleet)
            elif sub_id == "maintainability":
                entry = judge(*values, overrides.readability)
            else:
                entry = judge(*values)
        if entry.gap not in model.legal_gaps(sub_id):
            if sub_id in overrides.extra:
                raise OverrideError(f"{sub_id}: small gap illegal (no minimal requirement)")
            # the model has no middle rung here: only the minimal requirement
            # met is not the full requirement met
            entry = GapEntry(Gap.LARGE, entry.reason)
        gaps[sub_id] = entry
    return Assessment(
        team=record.team,
        system_id=record.system_id,
        date=date,
        gaps=gaps,
    )


def _parse_overrides_entry(raw: dict, where: str, problems: list[str]) -> ManualOverrides:
    readability, modularity = raw.get("readability"), raw.get("modularity")
    for name, value in (("readability", readability), ("modularity", modularity)):
        if value is not None:
            check_field(name, value, problems, where)
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
            problems.append(f"{where}: extra.{sub_id}: malformed gap token {quoted(token)}")
            continue
        reason = "" if pinned.get("reason") is None else pinned["reason"]
        if not isinstance(reason, str):
            problems.append(f"{where}: extra.{sub_id}: reason must be text, got {quoted(reason)}")
            continue
        extra[sub_id] = GapEntry(gap=gap, reason=reason.strip())
    for key in sorted_keys(set(raw) - {"readability", "modularity", "extra"}):
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


def extra_pin_problems(document: OverridesDocument, model: QualityModel) -> list[str]:
    """Every `extra` pin in `document` that `infer_gaps` would reject under
    `model`, top-level and per system, each located by its entry.

    A pin depends only on the overrides and the model, so it can be
    checked before any system is assessed.
    """
    entries = [("overrides", document.defaults)]
    entries += [(f"systems.{system_id}", entry) for system_id, entry in document.per_system.items()]
    problems = []
    for where, entry in entries:
        for sub_id, pinned in entry.extra.items():
            if sub_id not in model:
                problems.append(f"{where}: extra.{sub_id}: unknown sub-characteristic")
            elif pinned.gap not in model.legal_gaps(sub_id):
                problems.append(
                    f"{where}: extra.{sub_id}: small gap illegal (no minimal requirement)"
                )
    return problems


def _systems_keys_as_written(text: str) -> set[str]:
    """The keys of the top-level `systems` mapping, as spelled in `text`."""
    for key, value in compose_yaml(text).value:
        if key.value == "systems" and isinstance(value.value, list):
            return {node.value for node, _ in value.value if isinstance(node.value, str)}
    return set()


def load_overrides(source: str | Path | None) -> OverridesDocument:
    """Parse a manual-overrides document (YAML text or file path).

    Top-level readability/modularity/extra apply to every system; entries
    under `systems` refine them for single systems.
    """
    text = read_text(source, OverrideError) if isinstance(source, Path) else source
    document = None if text is None else load_yaml(text, OverrideError)
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
    written: set[str] | None = None
    for system_id, raw in raw_systems.items():
        if not isinstance(system_id, str):
            # an unquoted `42:` reads as a number, which never matches the
            # registry's text id "42": it is read as written when written
            # in plain decimal; `007:`, `yes:` or `1.0:` must be quoted
            if written is None:
                written = _systems_keys_as_written(text)
            if type(system_id) is not int or str(system_id) not in written:
                problems.append(
                    f"systems.{system_id}: unquoted system id reads as the "
                    f"{type(system_id).__name__} {system_id!r}; quote the system id"
                )
                continue
            system_id = str(system_id)
            if system_id in raw_systems:
                problems.append(f"systems.{system_id}: given both quoted and unquoted")
                continue
        if not isinstance(raw, dict):
            problems.append(f"systems.{system_id}: expected a mapping")
            continue
        per_system[system_id] = _parse_overrides_entry(
            raw, f"systems.{system_id}", problems
        )
    if problems:
        raise OverrideError(problems)
    return OverridesDocument(defaults=defaults, per_system=per_system)
