"""Registry snapshot parsing, fleet percentiles and gap inference."""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import json
import logging
import tracemalloc

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlquality.registry as registry
from mlquality import yamldoc
from mlquality.assessment import GapEntry
from mlquality.errors import OverrideError, SnapshotError
from mlquality.model import Gap, default_model, load_quality_model
from mlquality.registry import (
    ManualOverrides,
    SystemMetadata,
    extra_pin_problems,
    fleet_percentiles,
    infer_gaps,
    load_overrides,
    load_registry_snapshot,
    parse_registry_snapshot,
    usage_from_metadata,
)
from mlquality.scoring import FleetStats

MODEL = default_model()
DATE = dt.date(2026, 7, 1)
FLEET = FleetStats(requests_p66=10_000, training_duration_p80=120)

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


def record(**overrides) -> SystemMetadata:
    values = dict(FULL_MARKS)
    values.update(overrides)
    return SystemMetadata(system_id="ranker", team="search", **values)


def infer(metadata: SystemMetadata, overrides: ManualOverrides = REVIEWED):
    return infer_gaps(metadata, overrides, FLEET, MODEL, date=DATE)


def snapshot_yaml(*entries: str) -> str:
    systems = "\n".join(entries)
    return f"schema_version: 1\nsnapshot_date: 2026-07-01\nsystems:\n{systems}\n"


def test_parse_two_complete_records():
    text = snapshot_yaml(
        "  - {system_id: a, team: t1, in_production: true, requests_per_day: 10}",
        "  - {system_id: b, team: t2, training_duration: 50}",
    )
    records = parse_registry_snapshot(text)
    assert [r.system_id for r in records] == ["a", "b"]
    assert records[0].requests_per_day == 10
    assert records[1].training_duration == 50
    assert records[1].in_production is None


def test_parse_reads_snapshot_date():
    snapshot = load_registry_snapshot(snapshot_yaml("  - {system_id: a, team: t}"))
    assert snapshot.snapshot_date == dt.date(2026, 7, 1)


def test_parse_missing_field_stays_absent_and_infers_large():
    text = snapshot_yaml("  - {system_id: a, team: t}")
    (metadata,) = parse_registry_snapshot(text)
    assert metadata.test_coverage is None
    assessment = infer(metadata)
    assert assessment.gap("testability") is Gap.LARGE
    assert assessment.reason("testability") == "no evidence in registry"


def test_parse_rejects_duplicate_system_id():
    text = snapshot_yaml(
        "  - {system_id: a, team: t}",
        "  - {system_id: a, team: t}",
    )
    with pytest.raises(SnapshotError) as excinfo:
        parse_registry_snapshot(text)
    assert any("duplicate system_id: a" in p for p in excinfo.value.problems)


def test_parse_warns_on_unknown_field(caplog):
    text = snapshot_yaml("  - {system_id: a, team: t, gpu_count: 4}")
    with caplog.at_level(logging.WARNING):
        (metadata,) = parse_registry_snapshot(text)
    assert metadata.system_id == "a"
    assert any("gpu_count" in message for message in caplog.messages)


def test_parse_requires_schema_version():
    with pytest.raises(SnapshotError) as excinfo:
        parse_registry_snapshot("systems: []\n")
    assert "schema_version" in str(excinfo.value)


def test_parse_rejects_bad_enum_value():
    text = snapshot_yaml("  - {system_id: a, team: t, retraining: sometimes}")
    with pytest.raises(SnapshotError) as excinfo:
        parse_registry_snapshot(text)
    assert any("retraining" in p for p in excinfo.value.problems)


def test_parse_rejects_out_of_range_fraction():
    text = snapshot_yaml("  - {system_id: a, team: t, test_coverage: 1.2}")
    with pytest.raises(SnapshotError):
        parse_registry_snapshot(text)


def test_fleet_percentiles_nearest_rank():
    records = [
        SystemMetadata(
            system_id=f"s{i}", team="t", in_production=True,
            requests_per_day=volume, training_duration=duration,
        )
        for i, (volume, duration) in enumerate(
            [(100, 10), (200, 20), (300, 30)]
        )
    ] + [
        SystemMetadata(system_id="s3", team="t", training_duration=40),
        SystemMetadata(system_id="s4", team="t", training_duration=50),
    ]
    stats = fleet_percentiles(records)
    assert stats.requests_p66 == 200  # ceil(0.66 * 3) = 2nd of [100, 200, 300]
    assert stats.training_duration_p80 == 40  # ceil(0.80 * 5) = 4th of 5


def test_fleet_percentiles_singleton():
    records = [
        SystemMetadata(
            system_id="only", team="t", in_production=True,
            requests_per_day=42, training_duration=7,
        )
    ]
    stats = fleet_percentiles(records)
    assert stats.requests_p66 == 42
    assert stats.training_duration_p80 == 7


def test_fleet_percentiles_need_production_systems():
    records = [SystemMetadata(system_id="a", team="t", training_duration=5)]
    with pytest.raises(SnapshotError) as excinfo:
        fleet_percentiles(records)
    assert "empty production set" in str(excinfo.value)


def test_full_marks_record_has_no_gaps():
    assessment = infer(record())
    gapped = {
        sub_id: entry.gap
        for sub_id, entry in assessment.gaps.items()
        if entry.gap is not Gap.NO_GAP
    }
    assert gapped == {}
    assert assessment.team == "search"
    assert assessment.system_id == "ranker"
    assert assessment.date == DATE


@pytest.mark.parametrize(
    "coverage,expected",
    [(0.19, Gap.LARGE), (0.20, Gap.SMALL), (0.79, Gap.SMALL), (0.80, Gap.NO_GAP)],
)
def test_testability_thresholds(coverage, expected):
    assessment = infer(record(test_coverage=coverage))
    assert assessment.gap("testability") is expected


@pytest.mark.parametrize(
    "ratio,expected",
    [(0.31, Gap.LARGE), (0.30, Gap.SMALL), (0.11, Gap.SMALL), (0.10, Gap.NO_GAP)],
)
def test_resilience_thresholds(ratio, expected):
    assessment = infer(record(failed_pipeline_ratio_quarter=ratio))
    assert assessment.gap("resilience") is expected


def test_resilience_example_values():
    assert infer(record(failed_pipeline_ratio_quarter=0.05)).gap("resilience") is Gap.NO_GAP
    small = infer(record(test_coverage=0.25))
    assert small.gap("testability") is Gap.SMALL
    assert "25%" in small.reason("testability")


def test_efficiency_uses_fleet_p80():
    within = infer(record(training_duration=120.0))
    assert within.gap("efficiency") is Gap.NO_GAP
    beyond = infer(record(training_duration=121.0))
    assert beyond.gap("efficiency") is Gap.SMALL
    assert "80th percentile" in beyond.reason("efficiency")
    manual = infer(record(basic_ops_automated=False))
    assert manual.gap("efficiency") is Gap.LARGE


def test_accuracy_partial_evidence_gives_small():
    assessment = infer(record(input_data_validated=False))
    assert assessment.gap("accuracy") is Gap.SMALL
    assert assessment.gap("effectiveness") is Gap.NO_GAP


def test_missing_owner_is_large_without_evidence():
    assessment = infer(record(owner_team=None))
    assert assessment.gap("ownership") is Gap.LARGE
    assert assessment.reason("ownership") == "no evidence in registry"


def test_missing_any_required_field_is_large():
    assessment = infer(record(input_data_validated=None))
    assert assessment.gap("accuracy") is Gap.LARGE
    assert assessment.reason("accuracy") == "no evidence in registry"


def test_unreviewed_code_attributes_default_to_large():
    assessment = infer(record(), ManualOverrides())
    assert assessment.gap("readability") is Gap.LARGE
    assert assessment.reason("readability") == "no human review"
    assert assessment.gap("modularity") is Gap.LARGE
    # maintainability needs the readability review for its full requirement
    assert assessment.gap("maintainability") is Gap.SMALL


def test_review_fulfillment_maps_to_gaps():
    partial = infer(record(), ManualOverrides(readability="partial", modularity="none"))
    assert partial.gap("readability") is Gap.SMALL
    assert partial.gap("modularity") is Gap.LARGE
    assert partial.gap("maintainability") is Gap.SMALL


def test_extra_overrides_win():
    overrides = ManualOverrides(
        readability="full",
        modularity="full",
        extra={"fairness": GapEntry(Gap.LARGE, "bias audit expired")},
    )
    assessment = infer(record(), overrides)
    assert assessment.gap("fairness") is Gap.LARGE
    assert assessment.reason("fairness") == "bias audit expired"


def test_extra_override_unknown_row_rejected():
    overrides = ManualOverrides(extra={"latency": GapEntry(Gap.LARGE, "x")})
    with pytest.raises(OverrideError) as excinfo:
        infer(record(), overrides)
    assert "unknown sub-characteristic: latency" in str(excinfo.value)


def test_extra_override_illegal_small_rejected():
    overrides = ManualOverrides(
        readability="full",
        modularity="full",
        extra={"fairness": GapEntry(Gap.SMALL, "half checked")},
    )
    with pytest.raises(OverrideError) as excinfo:
        infer(record(), overrides)
    assert "small gap illegal" in str(excinfo.value)


NO_MIDDLE_RUNG = load_quality_model(
    "sub_characteristics:\n"
    "  testability: {minimal_requirement: null}\n"
    "  modularity: {minimal_requirement: null}\n"
    "matrix:\n"
    "  testability: ['-', '-', full, full, full]\n"
    "  modularity: ['-', '-', full, full, full]\n"
)


def test_small_gap_without_a_minimal_requirement_is_inferred_large():
    overrides = ManualOverrides(readability="full", modularity="partial")
    assessment = infer_gaps(
        record(test_coverage=0.5), overrides, FLEET, NO_MIDDLE_RUNG, date=DATE
    )
    assert assessment.gaps["testability"] == GapEntry(
        Gap.LARGE, "test coverage 50% meets only the 20% bar"
    )
    assert assessment.gaps["modularity"] == GapEntry(
        Gap.LARGE, "human review: only the minimal requirement met"
    )
    # the default model keeps its middle rung
    assert infer(record(test_coverage=0.5), overrides).gap("testability") is Gap.SMALL
    # a pinned small gap there is still refused
    pinned = ManualOverrides(extra={"testability": GapEntry(Gap.SMALL, "half")})
    with pytest.raises(OverrideError, match="testability: small gap illegal"):
        infer_gaps(record(), pinned, FLEET, NO_MIDDLE_RUNG, date=DATE)


def test_extra_pin_problems_are_what_infer_gaps_rejects():
    document = load_overrides(
        "extra:\n  fairness: {gap: large}\n  accuracy: {gap: small}\n"
        "systems:\n"
        "  a: {extra: {latency: {gap: no}}}\n"
        "  b: {extra: {fairness: {gap: small}}}\n"
    )
    assert extra_pin_problems(document, MODEL) == [
        "systems.a: extra.latency: unknown sub-characteristic",
        "systems.b: extra.fairness: small gap illegal (no minimal requirement)",
    ]
    for system_id in ("a", "b"):
        with pytest.raises(OverrideError):
            infer(record(), document.for_system(system_id))
    infer(record(), document.for_system("c"))


def test_inference_is_deterministic():
    first = infer(record(test_coverage=0.5, documentation="partial"))
    second = infer(record(test_coverage=0.5, documentation="partial"))
    assert first == second


def test_removing_evidence_never_shrinks_gaps():
    """Dropping any one field leaves every gap at least as large."""
    base = infer(record())
    for field in dataclasses.fields(SystemMetadata):
        if field.name in ("system_id", "team"):
            continue
        weaker = infer(record(**{field.name: None}))
        for sub_id in MODEL.ids:
            assert weaker.gap(sub_id) >= base.gap(sub_id), (field.name, sub_id)


def test_usage_from_metadata_defaults():
    usage = usage_from_metadata(SystemMetadata(system_id="a", team="t"))
    assert usage == type(usage)()
    loaded = usage_from_metadata(record(strategic=True))
    assert loaded.requests_per_day == 50_000
    assert loaded.strategic is True
    assert loaded.in_production is True


def test_overrides_document_merging():
    document = load_overrides(
        "readability: full\n"
        "modularity: partial\n"
        "extra:\n"
        "  fairness: {gap: large, reason: audit expired}\n"
        "systems:\n"
        "  forecaster:\n"
        "    modularity: none\n"
    )
    ranker = document.for_system("ranker")
    assert ranker.readability == "full"
    assert ranker.modularity == "partial"
    assert ranker.extra["fairness"].reason == "audit expired"
    forecaster = document.for_system("forecaster")
    assert forecaster.modularity == "none"
    assert forecaster.readability == "full"
    assert "fairness" in forecaster.extra


def test_overrides_document_rejects_bad_fulfillment():
    with pytest.raises(OverrideError) as excinfo:
        load_overrides("readability: excellent\n")
    assert "readability" in str(excinfo.value)


def test_overrides_document_rejects_unknown_field():
    with pytest.raises(OverrideError):
        load_overrides("testability: full\n")


def test_parse_rejects_impossible_quoted_snapshot_date():
    text = snapshot_yaml("  - {system_id: a, team: t}").replace(
        "2026-07-01", '"2026-13-01"'
    )
    with pytest.raises(SnapshotError) as excinfo:
        load_registry_snapshot(text)
    assert "snapshot_date must be a date, got '2026-13-01'" in str(excinfo.value)


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("requests_per_day", ".inf", "inf"),
        ("test_coverage", ".nan", "nan"),
        ("training_duration", "-.inf", "-inf"),
        pytest.param(
            "requests_per_day", str(10**400), "1" + "0" * 36 + "...",
            id="integer too large for a float",
        ),
    ],
)
def test_parse_rejects_non_finite_numbers(field, value, shown):
    text = snapshot_yaml(f"  - {{system_id: a, team: t, {field}: {value}}}")
    with pytest.raises(SnapshotError) as excinfo:
        load_registry_snapshot(text)
    assert excinfo.value.problems == [
        f"systems[0]: {field} must be a finite number, got {shown}"
    ]


def test_overrides_unquoted_no_gap_reads_as_no():
    document = load_overrides("extra:\n  fairness: {gap: no, reason: audited}\n")
    assert document.defaults.extra["fairness"] == GapEntry(Gap.NO_GAP, "audited")


def test_overrides_pin_reason_drops_surrounding_blanks():
    document = load_overrides("extra:\n  fairness: {gap: no, reason: ' audited '}\n")
    assert document.defaults.extra["fairness"] == GapEntry(Gap.NO_GAP, "audited")


def test_overrides_boolean_true_gap_asks_for_quotes():
    with pytest.raises(OverrideError) as excinfo:
        load_overrides("extra:\n  fairness: {gap: yes, reason: audited}\n")
    (problem,) = excinfo.value.problems
    assert problem.startswith("overrides: extra.fairness: gap reads as the boolean true")
    assert "quote the gap token" in problem


# ---- per-record parsing of the systems list ---------------------------


def layout_lines(document: dict) -> list[str]:
    """A snapshot in the layout its generator writes: block items at column
    0, one field per line, every scalar written as JSON."""
    lines = [f"{key}: {json.dumps(value)}" for key, value in document.items() if key != "systems"]
    lines.append("systems:")
    for entry in document["systems"]:
        for index, (name, value) in enumerate(entry.items()):
            lines.append(f"{'- ' if index == 0 else '  '}{name}: {json.dumps(value)}")
    return lines


def test_a_registry_in_the_generators_layout_is_parsed_one_record_at_a_time(monkeypatch):
    systems = [
        {
            "system_id": f"sys-{index:05d}",
            # "&", "*" and "!" in quoted text tie nothing together
            "team": ("R&D", "*ops", "done!", f"team-{index % 7:03d}")[index % 4],
            "in_production": index % 4 != 0,
            "requests_per_day": 100 * index,
            "training_duration": 5.0 * index,
            "test_coverage": round(index / 50, 2),
            "retraining": ("none", "manual", "scheduled")[index % 3],
        }
        for index in range(50)
    ]
    lines = layout_lines({"schema_version": 1, "snapshot_date": "2026-08-01", "systems": systems})
    text = "\n".join(lines) + "\n"
    expected = load_registry_snapshot(text)

    def whole_document(text, error):
        raise AssertionError("the registry was parsed as one document")

    monkeypatch.setattr(yamldoc, "load_yaml", whole_document)
    monkeypatch.setattr(registry, "load_yaml", whole_document)
    parsed = load_registry_snapshot(text)
    assert parsed == expected
    assert [record.system_id for record in parsed.systems] == [s["system_id"] for s in systems]
    assert parsed.snapshot_date == dt.date(2026, 8, 1)


LOADERS = pytest.mark.parametrize("loader", ["default", "pure"])


def use_loader(monkeypatch, loader: str) -> None:
    if loader == "pure":
        monkeypatch.setattr(yamldoc, "LOADER", yaml.SafeLoader)


@LOADERS
def test_items_are_converted_before_a_later_item_parses(monkeypatch, loader):
    use_loader(monkeypatch, loader)
    systems = [{"system_id": f"sys-{index}", "team": "t"} for index in range(5)]
    lines = layout_lines({"schema_version": 1, "systems": systems})
    # the fourth item holds a syntax error
    lines[lines.index('- system_id: "sys-3"') + 1] = '  team: "t" ]'
    converted = []
    with pytest.raises(SnapshotError, match="^invalid YAML: "):
        yamldoc.load_yaml_records(
            "\n".join(lines) + "\n", "systems", SnapshotError,
            lambda index, item: converted.append(index),
        )
    assert converted == [0, 1, 2]


def registry_in_layout(layout: str, note: int, count: int = 2000) -> str:
    """A snapshot of `count` systems, each with a note of `note` characters,
    its items written at column 0, indented or in flow style."""
    items = [
        [f"system_id: s{index:05d}", "team: t", f"note: {'x' * note}"] for index in range(count)
    ]
    if layout == "flow":
        body = ",\n".join(f"  {{{', '.join(fields)}}}" for fields in items)
        return f"schema_version: 1\nsystems: [\n{body}\n]\n"
    indent = "  " if layout == "indented" else ""
    lines = [
        f"{indent}{'  ' if position else '- '}{field}"
        for fields in items
        for position, field in enumerate(fields)
    ]
    return "schema_version: 1\nsystems:\n" + "\n".join(lines) + "\n"


@LOADERS
@pytest.mark.parametrize("layout", ["column 0", "indented", "flow"])
def test_the_list_is_parsed_in_bounded_memory_in_every_layout(monkeypatch, loader, layout):
    """Only one item is held at a time, in 1 MB beside what the reader
    keeps: a whole-document parse holds every item's nodes. libyaml's
    reader keeps a slice at a time, so a UTF-8 copy of the whole text, at
    more than 1 MB, would not fit either; PyYAML's own reader copies the
    text (whose notes are short, as it scans a character at a time)."""
    use_loader(monkeypatch, loader)
    text = registry_in_layout(layout, note=600 if loader == "default" else 20)
    tracemalloc.start()
    try:
        document = yamldoc.load_yaml_records(text, "systems", SnapshotError, lambda i, item: i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert document == {"schema_version": 1, "systems": list(range(2000))}
    if loader == "default":
        assert len(text.encode()) > 1_000_000 > peak
    else:
        assert peak < len(text) + 1_000_000


# values of every YAML type, including text that needs quoting, folding or
# escaping, for known fields (checked) and an unknown one (ignored)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(st.sampled_from(" -:#'\"&*!|>{}[],\\\nax0.é"), max_size=12),
)
FIELDS = ("in_production", "requests_per_day", "test_coverage", "retraining", "owner_team", "note")
RECORDS = st.lists(
    st.builds(
        lambda number, team, fields: {"system_id": f"s{number}", "team": team, **fields},
        st.integers(0, 3),
        st.sampled_from(["search", "ads & growth", "lab: west", "- dash"]),
        st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=4),
    ),
    min_size=1,
    max_size=4,
)
# lines put into the rendered text: comments and blanks, block, folded and
# multi-line quoted scalars (one with a `- ` line inside its quotes),
# anchors, aliases and tags, within an item, across items and written
# twice, their marks inside quotes and comments, and lines that break the
# layout or the document
INSERTS = [
    "# a comment",
    "  # an indented comment",
    "",
    "  note: |\n    first\n    second",
    "  note: >-\n    folded\n    text",
    '  note: "first\n    second"',
    '  note: "first\n- second"',
    "  note: 'it''s\n    split'",
    "  anchored: &a 1",
    "  aliased: *a",
    "- plain item",
    "-",
    "- {system_id: flow, team: t}",
    "later_key: 1",
    "\tnote: tab",
    "  note: {a: 1,\n- b: 2}",
    "---",
    "systems:",
    "  ~",
    "? explicit",
    "- &b {system_id: b, team: t}",
    "  - nested: 1",
    '  note: "R&D"',
    '  note: "done!"',
    '  note: "*ptr"',
    "  # see &x",
    "  note: !!str 5",
    "  anchored: &c 1\n  aliased: *c",
    "- {system_id: x, team: &d t}\n- {system_id: y, team: *d}",
    '- {system_id: x, team: &e t}\n- {system_id: y, team: t, "note":&e u}',
    "  - {system_id: i, team: t}",
    "systems: &s\n- {system_id: z, team: t}\ncopy: *s",
    "systems: !!omap [{system_id: o}, {team: t}]",
    "systems: !!pairs [{system_id: p}, {team: t}]",
    "<<: {systems: [{system_id: m, team: t}]}",
]
FORMS = ("layout", "block", "flow")


def render(document: dict, form: str, width: int) -> list[str]:
    if form == "layout":
        return layout_lines(document)
    dumped = yaml.safe_dump(
        document, default_flow_style=form == "flow", sort_keys=False, width=width,
        allow_unicode=True,
    )
    return dumped.splitlines()


def snapshot_as_one_document(text):
    """`load_registry_snapshot` with the whole document parsed at once and
    then each `systems` item converted."""

    def whole_document(text, key, error, convert):
        document = yamldoc.load_yaml(text, error)
        if isinstance(document, dict) and isinstance(document.get(key), list):
            document[key] = [convert(index, item) for index, item in enumerate(document[key])]
        return document

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(registry, "load_yaml_records", whole_document)
        return load_registry_snapshot(text)


def document_by_records(text):
    return yamldoc.load_yaml_records(text, "systems", SnapshotError, lambda index, item: item)


def document_at_once(text):
    return yamldoc.load_yaml(text, SnapshotError)


@contextlib.contextmanager
def warnings_logged():
    """The messages the registry logs meanwhile, in order."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    registry.logger.addHandler(handler)
    try:
        yield messages
    finally:
        registry.logger.removeHandler(handler)


def outcome_of(load, text):
    """What `load` makes of `text`, and the warnings it logs meanwhile."""
    with warnings_logged() as warnings:
        try:
            return "parsed", repr(load(text)), warnings
        except SnapshotError as exc:
            return "refused", exc.problems, warnings


# unknown fields, bad values and duplicate ids over several records; a
# record with a bad value still takes its id
FAULTY = [
    {"system_id": "s1", "team": "t", "note": "x", "test_coverage": 2},
    {"system_id": "s2", "team": "", "retraining": "weekly", "note": None},
    {"system_id": "s1", "team": "t", "in_production": "maybe"},
    {"system_id": "s3", "team": "t", "note": 1, "requests_per_day": -1},
    {"system_id": "s3", "team": "t"},
]


def test_problems_and_warnings_follow_the_records_order():
    lines = layout_lines({"schema_version": 1, "systems": FAULTY})
    text = "\n".join(["defaults: 1", *lines]) + "\n"
    assert outcome_of(load_registry_snapshot, text) == (
        "refused",
        [
            "systems[0]: test_coverage must be within 0..1, got 2",
            "systems[1]: team must be non-empty text, got ''",
            "systems[1]: retraining must be one of none, manual, scheduled, got 'weekly'",
            "systems[1]: system_id and team are required",
            "systems[2]: in_production must be a boolean, got 'maybe'",
            "systems[2]: duplicate system_id: s1",
            "systems[3]: requests_per_day must be >= 0, got -1",
            "systems[4]: duplicate system_id: s3",
        ],
        [
            "snapshot: ignoring unknown top-level field 'defaults'",
            "systems[0]: ignoring unknown field 'note'",
            "systems[1]: ignoring unknown field 'note'",
            "systems[3]: ignoring unknown field 'note'",
        ],
    )


# how a document is changed after rendering: an anchor in the head, a
# top-level key after `systems`, CRLF line ends, a byte order mark
TEXT_CHANGES = ("anchor", "tail", "crlf", "bom")


@settings(max_examples=300, deadline=None)
@given(
    systems=RECORDS,
    form=st.sampled_from(FORMS),
    width=st.sampled_from([20, 80]),
    inserts=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(INSERTS)), max_size=2),
    changes=st.sets(st.sampled_from(TEXT_CHANGES), max_size=2),
)
@example(systems=[{"system_id": "a", "team": "t"}], form="layout", width=80, inserts=[],
         changes=set())
@example(systems=[{"system_id": "a", "team": "t", "note": "x"}], form="layout", width=80,
         inserts=[(5, '  note: "first\n- second"')], changes=set())
@example(systems=[{"system_id": "a", "team": "t"}] * 2, form="block", width=80,
         inserts=[(5, "  aliased: *a")], changes={"anchor"})
@example(systems=FAULTY, form="layout", width=80, inserts=[(9, "  owner: nobody")],
         changes={"anchor"})
@example(systems=[{"system_id": "a", "team": "t"}] * 2, form="layout", width=80,
         inserts=[(4, "  note: &x 1"), (7, "  note: &x 2")], changes=set())
@example(systems=[{"system_id": "a", "team": "t"}], form="layout", width=80,
         inserts=[(5, '- {system_id: x, team: &e t}\n- {system_id: y, team: t, "note":&e u}')],
         changes=set())
# indented items; `systems` anchored, and aliased under another key;
# `!!omap` and `!!pairs` lists; `systems` written twice; `systems` given by
# a merge key alone (the explicit key is hidden in a flow mapping), and by
# a merge key beside the explicit one
@example(systems=[], form="layout", width=80,
         inserts=[(3, "  - system_id: a\n    team: t\n  - {system_id: b, team: t}")],
         changes=set())
@example(systems=[], form="layout", width=80,
         inserts=[(3, "  &s\n  - system_id: a\n    team: t"), (4, "copy: *s")], changes=set())
@example(systems=[], form="layout", width=80,
         inserts=[(3, "  !!omap [{system_id: a}, {team: t}]")], changes=set())
@example(systems=[], form="layout", width=80,
         inserts=[(3, "  !!pairs\n  - system_id: a\n  - team: t")], changes=set())
@example(systems=[{"system_id": "a", "team": "t"}], form="layout", width=80,
         inserts=[(9, "systems:\n- {system_id: b, team: t}")], changes=set())
@example(systems=[], form="layout", width=80,
         inserts=[(2, "other: {a: 1,"), (4, "}\n<<: {systems: [{system_id: m, team: t}]}")],
         changes=set())
@example(systems=[{"system_id": "a", "team": "t"}], form="layout", width=80,
         inserts=[(0, "<<: {systems: [{system_id: m, team: t}]}")], changes=set())
# an anchored root that an item aliases
@example(systems=[], form="layout", width=80,
         inserts=[(0, "--- &r"), (4, "- {system_id: a, team: t, up: *r}")], changes=set())
def test_per_record_parse_equals_the_whole_document_parse(systems, form, width, inserts, changes):
    """Whatever the layout, `load_registry_snapshot` gives what the
    whole-document parse gives: the same snapshot, or the same message,
    after the same warnings. So does the document itself, key order
    included."""
    lines = render({"schema_version": 1, "snapshot_date": "2026-08-01", "systems": systems},
                   form, width)
    for position, insert in inserts:
        lines.insert(position % (len(lines) + 1), insert)
    if "anchor" in changes:
        lines.insert(0, "defaults: &a {team: shared}")
    if "tail" in changes:
        lines.append("after_systems: true")
    text = "\n".join(lines) + "\n"
    if "crlf" in changes:
        text = text.replace("\n", "\r\n")
    if "bom" in changes:
        text = "\ufeff" + text
    for loader in (yamldoc.LOADER, yaml.SafeLoader):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(yamldoc, "LOADER", loader)
            assert outcome_of(load_registry_snapshot, text) == outcome_of(
                snapshot_as_one_document, text
            )
            assert outcome_of(document_by_records, text) == outcome_of(document_at_once, text)


def pyyaml_outcome(text, loader):
    """What PyYAML's own parse with `loader`, and its own composer, makes of
    `text`: the document's repr, key order included, or a refusal."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, ValueError):
        return "refused"


def walker_outcome(load, text):
    try:
        return repr(load(text))
    except SnapshotError:
        return "refused"


@settings(max_examples=150, deadline=None)
@given(
    systems=RECORDS,
    form=st.sampled_from(FORMS),
    inserts=st.lists(st.tuples(st.integers(0, 40), st.sampled_from(INSERTS)), max_size=2),
)
# an anchored root that an item aliases
@example(systems=[], form="layout", inserts=[(0, "--- &r"), (4, "- {system_id: a, team: t, up: *r}")])
def test_the_walker_builds_what_pyyaml_builds(systems, form, inserts):
    """An independent reference for the walker, streaming or not: the
    document PyYAML's own parse builds, or a refusal by both (their
    messages may differ: libyaml's composer leaves anchor names out)."""
    lines = render({"schema_version": 1, "snapshot_date": "2026-08-01", "systems": systems},
                   form, 80)
    for position, insert in inserts:
        lines.insert(position % (len(lines) + 1), insert)
    text = "\n".join(lines) + "\n"
    for loader in (yamldoc.LOADER, yaml.SafeLoader):
        expected = pyyaml_outcome(text, loader)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(yamldoc, "LOADER", loader)
            assert walker_outcome(document_by_records, text) == expected
            assert walker_outcome(document_at_once, text) == expected
