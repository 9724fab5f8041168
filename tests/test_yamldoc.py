"""YAML parsing: libyaml and the pure-Python fallback agree, and malformed
documents end in the package's own errors with a located message."""

from __future__ import annotations

import functools
import random
import re

import pytest
import yaml

from mlquality import yamldoc
from mlquality.cli import main
from mlquality.errors import ModelConfigError, OverrideError, SnapshotError
from mlquality.model import load_quality_model
from mlquality.registry import load_overrides, load_registry_snapshot
from test_cli import ALL_NO_CSV, OVERRIDES_YAML, REGISTRY_YAML
from test_registry import LOADERS, use_loader

PURE = yaml.SafeLoader


def generated_registry(count: int, seed: int = 20260705) -> str:
    """A registry snapshot of `count` systems in mixed block and flow style,
    using every kind of value a registry record holds."""
    rng = random.Random(seed)
    lines = ["schema_version: 1", "snapshot_date: 2026-07-05", "systems:"]
    for index in range(count):
        fields = {
            "system_id": f"system-{index:05d}",
            "team": rng.choice(["search", "'ads & growth'", '"supply chain"', "lab"]),
            "in_production": rng.choice(["true", "false", "yes", "no", "null"]),
            "requests_per_day": rng.choice(["0", "1_000", "0x1F4", str(rng.randint(1, 999))]),
            "training_duration": rng.choice(["12.5", "3.0e+2", "60", "~"]),
            "test_coverage": f"{rng.random():.3f}",
            "failed_pipeline_ratio_quarter": rng.choice([".1", "0.30", "1.0e-1"]),
            "retraining": rng.choice(["none", "manual", "scheduled"]),
            "monitoring": rng.choice(["none", "performance_only", "'full'"]),
            "owner_team": rng.choice(["search", "ÄÖÜ team", "'quoted: colon'"]),
            "revenue": str(rng.randint(0, 10**5)),
            "sla_met": rng.choice(["true", "False", "ON", "off"]),
        }
        if index % 3 == 0:
            body = ", ".join(f"{key}: {value}" for key, value in fields.items())
            lines.append(f"  - {{{body}}}")
        else:
            items = iter(fields.items())
            key, value = next(items)
            lines.append(f"  - {key}: {value}")
            lines.extend(f"    {key}: {value}" for key, value in items)
            if index % 7 == 0:
                lines.append("    # a comment line")
    return "\n".join(lines) + "\n"


HEAD = "schema_version: 1\n"


def one_system(fields: str = "", date: str = "2026-07-01") -> str:
    """A snapshot of one system `a` of team `t` with extra flow fields."""
    entry = "system_id: a, team: t" + (f", {fields}" if fields else "")
    return f"{HEAD}snapshot_date: {date}\nsystems:\n  - {{{entry}}}\n"


REGISTRY_2K = generated_registry(2000)

ACCEPTED = {
    "cli registry": (load_registry_snapshot, REGISTRY_YAML),
    "2,000 systems": (load_registry_snapshot, REGISTRY_2K),
    "flow entry": (load_registry_snapshot, one_system("strategic: yes")),
    "quoted date": (load_registry_snapshot, one_system(date="'2026-07-01'")),
    "datetime": (load_registry_snapshot, one_system(date="2026-07-01 10:30:00")),
    "cli overrides": (load_overrides, OVERRIDES_YAML),
    "overrides": (
        load_overrides,
        "readability: full\nmodularity: partial\n"
        "extra:\n  fairness: {gap: large, reason: audit expired}\n"
        "  testability: {gap: 1, reason: 'partial: see ticket'}\n"
        "systems:\n  forecaster:\n    modularity: none\n"
        "  ranker:\n    extra:\n      ownership: {gap: no, reason: reviewed}\n",
    ),
    "empty overrides": (load_overrides, ""),
    "matrix": (load_quality_model, "matrix:\n  testability: ['-', '-', min, min, full]\n"),
    "texts": (
        load_quality_model,
        "sub_characteristics:\n  testability:\n"
        "    full_requirement: Coverage above ninety percent\n"
        "    remediation: |\n      Write more tests.\n      Then some more.\n",
    ),
    "comment only": (load_quality_model, "# nothing but a comment\n"),
}

REJECTED = {
    "unbalanced flow": (load_registry_snapshot, HEAD + "systems: [unbalanced\n"),
    "nested colon": (load_registry_snapshot, HEAD + "systems:\n  - system_id: a: b\n"),
    "month 13": (load_registry_snapshot, HEAD + "snapshot_date: 2026-13-01\n"),
    "undefined alias": (load_registry_snapshot, HEAD + "systems: [{team: *nope}]\n"),
    "two documents": (load_registry_snapshot, HEAD + "systems: []\n---\nsystems: []\n"),
    "tab": (load_registry_snapshot, HEAD + "\tsystems: []\n"),
    "control character": (load_registry_snapshot, HEAD + "systems: []\nbell: \x07\n"),
    "bad int tag": (load_registry_snapshot, "schema_version: !!int one\n"),
    "fraction above 1": (load_registry_snapshot, one_system("test_coverage: 1.2")),
    "nan": (load_registry_snapshot, one_system("test_coverage: .nan")),
    "unclosed quote": (load_overrides, "readability: 'unclosed\n"),
    "unbalanced mapping": (load_overrides, "extra:\n  fairness: {gap: large\n"),
    "unhashable key": (load_overrides, "extra:\n  ? [a, b]\n  : {gap: no}\n"),
    "bad fulfillment": (load_overrides, "readability: excellent\n"),
    "model unbalanced": (load_quality_model, "matrix: [unbalanced\n"),
    "python tag": (load_quality_model, "matrix:\n  testability: !!python/tuple [a]\n"),
    "YAML 2.0": (load_quality_model, "%YAML 2.0\n---\nmatrix: {}\n"),
    "wrong arity": (load_quality_model, "matrix:\n  testability: [min, full]\n"),
    # libyaml reads the text a slice at a time: the position is still
    # counted from the start of the whole text
    "lone surrogate": (
        load_registry_snapshot, HEAD + "systems: []\nnote: '" + "x" * 70_000 + "\udcff'\n"
    ),
}

ERRORS = (SnapshotError, OverrideError, ModelConfigError)
MARK = re.compile(r"line (\d+), column (\d+)|position (\d+)")


def outcome(load, text):
    """What a loader makes of a document: the parsed object, or the error
    class with its problems. For YAML errors only the location of the
    problem (the last mark) is kept: libyaml and PyYAML word their messages
    differently, and may add a different context mark before it."""
    try:
        return ("accepted", load(text))
    except ERRORS as exc:
        problems = exc.problems
        if problems[0].startswith("invalid YAML:"):
            assert len(problems) == 1
            return ("invalid YAML", type(exc), MARK.findall(problems[0])[-1:])
        return ("rejected", type(exc), problems)


def test_libyaml_is_used_when_present():
    if getattr(yaml, "__with_libyaml__", False):
        assert yamldoc.LOADER is yaml.CSafeLoader
    else:
        assert yamldoc.LOADER is yaml.SafeLoader


@pytest.mark.parametrize("name", ACCEPTED)
def test_loaders_accept_alike(name, monkeypatch):
    load, text = ACCEPTED[name]
    default = outcome(load, text)
    assert default[0] == "accepted"
    monkeypatch.setattr(yamldoc, "LOADER", PURE)
    assert outcome(load, text) == default


@pytest.mark.parametrize("name", REJECTED)
def test_loaders_reject_alike(name, monkeypatch):
    load, text = REJECTED[name]
    default = outcome(load, text)
    assert default[0] != "accepted"
    if default[0] == "invalid YAML":
        assert default[2], "the message names a line and column or a position"
    monkeypatch.setattr(yamldoc, "LOADER", PURE)
    assert outcome(load, text) == default


def test_generated_registry_round_trips():
    parsed = load_registry_snapshot(REGISTRY_2K)
    assert len(parsed.systems) == 2000
    assert {record.team for record in parsed.systems} == {
        "search", "ads & growth", "supply chain", "lab"
    }


def test_out_of_range_timestamp_is_located(monkeypatch):
    for loader in (yamldoc.LOADER, PURE):
        monkeypatch.setattr(yamldoc, "LOADER", loader)
        with pytest.raises(SnapshotError) as excinfo:
            load_registry_snapshot(HEAD + "snapshot_date: 2026-13-01\n")
        (problem,) = excinfo.value.problems
        assert problem.startswith("invalid YAML: month must be in 1..12")
        assert "line 2, column 16" in problem


def problem_of(text):
    with pytest.raises(SnapshotError) as excinfo:
        load_registry_snapshot(text)
    (problem,) = excinfo.value.problems
    return problem


def items(*entries):
    return HEAD + "systems:\n" + "".join(f"  - {entry}\n" for entry in entries)


@LOADERS
def test_a_syntax_error_wins_over_an_earlier_item_that_cannot_be_built(monkeypatch, loader):
    use_loader(monkeypatch, loader)
    text = items("{system_id: a, team: t, since: 2026-13-01}", "{system_id: b, team: [t}")
    problem = problem_of(text)
    assert not problem.startswith("invalid YAML: month")
    assert MARK.findall(problem)[-1][:2] == ("4", "28")


@LOADERS
def test_a_top_level_value_fault_wins_over_an_items(monkeypatch, loader):
    use_loader(monkeypatch, loader)
    text = items("{system_id: a, team: t, since: 2026-13-01}") + "snapshot_date: 2026-02-30\n"
    problem = problem_of(text)
    assert problem.startswith("invalid YAML: day is out of range for month")
    assert "line 4, column 16" in problem


@LOADERS
def test_the_first_item_that_cannot_be_built_is_named(monkeypatch, loader):
    """The whole-document constructor builds level by level, so it names
    the later item's shallower fault; items are built one by one, so the
    earlier item's deeper fault is named."""
    use_loader(monkeypatch, loader)
    text = items(
        "{system_id: a, team: t, note: {since: 2026-13-01}}",
        "{system_id: b, team: t, since: 2026-02-30}",
    )
    with pytest.raises(ValueError, match="day is out of range for month"):
        yaml.load(text, Loader=yamldoc.LOADER)
    problem = problem_of(text)
    assert problem.startswith("invalid YAML: month must be in 1..12")
    assert "line 3, column 43" in problem


@LOADERS
@pytest.mark.parametrize(
    "text, wording",
    [
        ("a: &x 1\nb: &x 2\n", "found duplicate anchor 'x'"),
        ("a: *nope\n", "found undefined alias 'nope'"),
    ],
)
def test_composer_errors_name_the_anchor(monkeypatch, loader, text, wording):
    use_loader(monkeypatch, loader)
    with pytest.raises(OverrideError, match=f"^invalid YAML: {wording}"):
        load_overrides(text)


@LOADERS
def test_too_deep_a_nesting_is_located(monkeypatch, loader):
    use_loader(monkeypatch, loader)
    problem = problem_of(HEAD + "systems: " + "[" * 5000 + "]" * 5000 + "\n")
    assert problem.startswith("invalid YAML: nested too deeply")
    assert MARK.search(problem)


def nested(depth, wrap, inner):
    return functools.reduce(lambda value, _: wrap(value), range(depth), inner)


@LOADERS
@pytest.mark.parametrize(
    "text, expected",
    [
        ("[" * 400 + "]" * 400, nested(399, lambda value: [value], [])),
        ("{a: " * 400 + "1" + "}" * 400, nested(400, lambda value: {"a": value}, 1)),
    ],
    ids=["list", "mapping"],
)
def test_a_nesting_400_deep_is_parsed(monkeypatch, loader, text, expected):
    """PyYAML's composer takes a stack frame or two per level: a hook that
    added one more to every level would stop short of this depth."""
    use_loader(monkeypatch, loader)
    assert yamldoc.load_yaml(text, SnapshotError) == expected


@LOADERS
def test_keys_that_are_not_text_follow_the_text_ones(monkeypatch, loader, tmp_path, capsys, caplog):
    """The registry warns of each unknown top-level key and goes on; the
    model, overrides and usage files exit 1 naming theirs."""
    use_loader(monkeypatch, loader)
    texts = {
        "registry": REGISTRY_YAML + "1: x\nfoo: y\n",
        "model": "1: 2\nfoo: 3\n",
        "overrides": "readability: full\n1: 2\nfoo: 3\n",
        "usage": "1: 2\nfoo: 3\n",
        "gaps": ALL_NO_CSV,
    }
    path = {name: str(tmp_path / name) for name in texts}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    store = ["--store", str(tmp_path / "store")]
    assert main(["infer", "--registry", path["registry"], *store]) == 0
    assert [message for message in caplog.messages if "top-level" in message] == [
        "snapshot: ignoring unknown top-level field 'foo'",
        "snapshot: ignoring unknown top-level field 1",
    ]
    capsys.readouterr()
    assert main(["validate", "--model", path["model"]]) == 1
    assert main(["infer", "--registry", path["registry"], "--overrides", path["overrides"], *store]) == 1
    assert main([
        "assess", "--gaps", path["gaps"], "--team", "t", "--system", "s", "--date", "2026-01-05",
        "--usage", path["usage"], "--fleet", path["registry"], *store,
    ]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "unknown section: foo",
        "unknown section: 1",
        "overrides: unknown field foo",
        "overrides: unknown field 1",
        f"usage file {path['usage']}: unknown fields: foo, 1",
    ]


def test_quoted_spells_dates_and_collections_as_yaml_writes_them():
    document = yaml.safe_load(
        "a: 2026-01-02\n"
        "b: 2026-01-02T10:30:00\n"
        "c: [2026-01-02, x, 1.5, null, true]\n"
        "d: {k: 2026-01-02}\n"
        "e: &e [*e]\n"
        "f: &f {k: *f}\n"
    )
    assert [yamldoc.quoted(value) for value in document.values()] == [
        "2026-01-02",
        "2026-01-02T10:30:00",
        "[2026-01-02, 'x', 1.5, None, True]",
        "{'k': 2026-01-02}",
        "[[...]]",
        "{'k': {...}}",
    ]
    assert yamldoc.quoted("x" * 50) == repr("x" * 50)[:37] + "..."
