"""Every input field against a fixed list of awkward values, through `mlq`.

Each cell writes one value into one field of one input format and runs the
command that reads that format. What the cell must do comes from the table
of kind x value below, written here and not taken from the code under
test: either the command exits 0 and keeps the value as written, or it
exits 1 with exactly the located message and writes nothing.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import io
import json
import math

import pytest

from mlquality.cli import main
from mlquality.model import default_model, load_quality_model
from mlquality.registry import SystemMetadata, load_registry_snapshot
from mlquality.scoring import FleetStats, SystemUsage, determine_criticality

HUGE = "1" + "0" * 400

# value id -> (as YAML writes it, as a message quotes it, as a CSV cell
# holds it, the value YAML reads)
VALUES = {
    "null": ("null", "None", "", None),
    "empty": ("''", "''", "", ""),
    "blank": ("'  '", "'  '", "  ", "  "),
    "true": ("true", "True", "true", True),
    "zero": ("0", "0", "0", 0),
    "fraction": ("1.5", "1.5", "1.5", 1.5),
    "negative": ("-1", "-1", "-1", -1),
    "inf": (".inf", "inf", ".inf", math.inf),
    "nan": (".nan", "nan", ".nan", math.nan),
    "huge": (HUGE, HUGE[:37] + "...", HUGE, int(HUGE)),
    "date": ("2026-01-01", "2026-01-01", "2026-01-01", dt.date(2026, 1, 1)),
    "timestamp": (
        "2026-01-01T10:30:00", "2026-01-01T10:30:00", "2026-01-01T10:30:00",
        dt.datetime(2026, 1, 1, 10, 30),
    ),
    "list": ("[a, 1]", "['a', 1]", "[a, 1]", ["a", 1]),
    "mapping": ("{a: 1}", "{'a': 1}", "{a: 1}", {"a": 1}),
}

OK = None  # the value is accepted and kept as written

_FINITE = "must be a finite number, got {value}"
_NUMBER = dict.fromkeys(VALUES, "must be a number, got {value}") | {
    "null": OK, "zero": OK, "fraction": OK, "negative": "must be >= 0, got {value}",
    "inf": _FINITE, "nan": _FINITE, "huge": _FINITE,
}
_MODEL_TEXT = dict.fromkeys(VALUES, "expected text") | dict.fromkeys(
    ("null", "empty", "blank"), "cannot be empty"
)

# kind -> value id -> OK or the message after the field's location; {value}
# is the value as a message quotes it, {cell} the stripped CSV cell
ORACLE = {
    # a null registry, usage or review field is absent evidence
    "enum": dict.fromkeys(VALUES, "must be one of {tokens}, got {value}") | {"null": OK},
    "text": dict.fromkeys(VALUES, "must be non-empty text, got {value}") | {"null": OK},
    "boolean": dict.fromkeys(VALUES, "must be a boolean, got {value}")
    | {"null": OK, "true": OK},
    "amount": _NUMBER,
    "fraction": _NUMBER | {"fraction": "must be within 0..1, got {value}"},
    "count": _NUMBER | {"fraction": "must be an integer, got {value}"},
    # an unquoted `gap: 0` is the digit form of no gap
    "pin gap": dict.fromkeys(VALUES, "malformed gap token {value}") | {
        "zero": OK,
        "true": 'gap reads as the boolean true; quote the gap token, e.g. gap: "no"',
    },
    # a null pin reason is the empty reason
    "pin reason": dict.fromkeys(VALUES, "reason must be text, got {value}")
    | dict.fromkeys(("null", "empty", "blank"), OK),
    "model text": _MODEL_TEXT,
    # a null minimal requirement means the attribute has none
    "minimal requirement": _MODEL_TEXT | {"null": OK},
    "csv id": dict.fromkeys(VALUES, "unknown sub-characteristic: {cell}") | {
        "null": "sub_characteristic must be non-empty text, got ''",
        "empty": "sub_characteristic must be non-empty text, got ''",
        "blank": "sub_characteristic must be non-empty text, got '  '",
    },
    "csv gap": dict.fromkeys(VALUES, "malformed gap token: {cell!r}") | {"zero": OK},
    "csv reason": dict.fromkeys(VALUES, OK),
}

ENUM_TOKENS = {
    "retraining": ("none", "manual", "scheduled"),
    "pipeline_automation": ("none", "partial", "full"),
    "monitoring": ("none", "performance_only", "full"),
    "metadata_logging": ("none", "partial", "full"),
    "documentation": ("none", "partial", "complete"),
    "readability": ("none", "partial", "full"),
    "modularity": ("none", "partial", "full"),
}
# the kind of each field by name; every other registry field is a boolean
FIELD_KINDS = {
    **dict.fromkeys(ENUM_TOKENS, "enum"),
    **dict.fromkeys(("system_id", "team", "owner_team"), "text"),
    **dict.fromkeys(("revenue", "training_cost", "inference_cost", "training_duration"), "amount"),
    **dict.fromkeys(
        ("failed_pipeline_ratio_quarter", "test_coverage", "revenue_share"), "fraction"
    ),
    **dict.fromkeys(("requests_per_day", "dependent_consumers"), "count"),
    "gap": "pin gap",
    "reason": "pin reason",
    "minimal_requirement": "minimal requirement",
    **dict.fromkeys(("full_requirement", "reasoning", "remediation"), "model text"),
}
CSV_COLUMNS = ("sub_characteristic", "gap", "reason")
CSV_KINDS = dict(zip(CSV_COLUMNS, ("csv id", "csv gap", "csv reason")))

DATE = "2026-01-05"
# the other system supplies both fleet statistics, so an accepted value in
# system `s` lets `mlq infer` exit 0
OTHER = (
    "{system_id: other, team: t, in_production: true, requests_per_day: 100, "
    "training_duration: 60}"
)
FLEET = FleetStats(requests_p66=100, training_duration_p80=60)
MODEL_ROW = "scalability"  # without a minimal requirement, so a null one is accepted
PINNED = "testability"
# a gaps CSV without its header and the pinned attribute's row
OTHER_ROWS = "".join(
    f"{sub_id},no,verified\n" for sub_id in default_model().ids if sub_id != PINNED
)


def _registry(fields: dict[str, str]) -> str:
    lines = "".join(f"  {name}: {text}\n" for name, text in fields.items())
    return f"schema_version: 1\nsystems:\n- {OTHER}\n-\n{lines}"


def _cells():
    formats = [
        ("registry", [f.name for f in dataclasses.fields(SystemMetadata)]),
        ("usage", list(SystemUsage._fields)),
        ("overrides", ["readability", "modularity"]),
        ("systems.s", ["readability", "modularity"]),
        ("pin", ["gap", "reason"]),
        ("model", ["minimal_requirement", "full_requirement", "reasoning", "remediation"]),
        ("csv", list(CSV_COLUMNS)),
    ]
    for fmt, names in formats:
        for name in names:
            for value in VALUES:
                yield pytest.param(fmt, name, value, id=f"{fmt}-{name}-{value}")


def _stored(store) -> dict:
    """System `s`'s stored snapshot."""
    return json.loads((store / "t" / "s" / DATE / "snapshot.json").read_text())


def _stored_gap(store, sub_id: str) -> tuple[str, str]:
    (row,) = [row for row in _stored(store)["gaps"] if row["sub_characteristic"] == sub_id]
    return row["gap"], row["reason"]


@pytest.mark.parametrize("fmt, name, value", list(_cells()))
def test_every_input_field_is_kept_as_written_or_refused_where_it_is(
    tmp_path, capsys, fmt, name, value
):
    text, spelled, cell, parsed = VALUES[value]
    kind = ORACLE[CSV_KINDS[name] if fmt == "csv" else FIELD_KINDS.get(name, "boolean")]
    problem = kind[value]
    if problem is not None:
        problem = problem.format(
            value=spelled, cell=cell.strip(), tokens=", ".join(ENUM_TOKENS.get(name, ()))
        )
    store, path = tmp_path / "store", tmp_path / "input"
    registry = tmp_path / "registry.yaml"
    registry.write_text(_registry({"system_id": "s", "team": "t"}))
    infer = ["infer", "--registry", str(registry), "--store", str(store), "--date", DATE]
    assess = ["assess", "--team", "t", "--system", "s", "--date", DATE, "--store", str(store)]
    expected = [] if problem is None else [problem]

    if fmt == "registry":
        registry.write_text(_registry({"system_id": "s", "team": "t"} | {name: text}))
        argv = infer
        expected = [f"systems[1]: {name} {line}" for line in expected]
        if name in ("system_id", "team") and (problem is not None or parsed is None):
            expected.append("systems[1]: system_id and team are required")
    elif fmt == "usage":
        path.write_text(f"{name}: {text}\n")
        gaps = tmp_path / "gaps.csv"
        gaps.write_text(f"{','.join(CSV_COLUMNS)}\n{PINNED},no,verified\n{OTHER_ROWS}")
        argv = assess + ["--gaps", str(gaps), "--usage", str(path), "--fleet", str(registry)]
        expected = [f"usage file {path}: {name} {line}" for line in expected]
    elif fmt in ("overrides", "systems.s"):
        entry = f"{name}: {text}\n"
        path.write_text(entry if fmt == "overrides" else f"systems:\n  s:\n    {entry}")
        argv = infer + ["--overrides", str(path)]
        expected = [f"{fmt}: {name} {line}" for line in expected]
    elif fmt == "pin":
        pin = {"gap": "large", "reason": "r"} | {name: text}
        path.write_text(f"extra:\n  {PINNED}: {{gap: {pin['gap']}, reason: {pin['reason']}}}\n")
        argv = infer + ["--overrides", str(path)]
        expected = [f"overrides: extra.{PINNED}: {line}" for line in expected]
    elif fmt == "model":
        path.write_text(f"sub_characteristics:\n  {MODEL_ROW}:\n    {name}: {text}\n")
        argv = ["validate", "--model", str(path)]
        expected = [f"sub_characteristics.{MODEL_ROW}.{name}: {line}" for line in expected]
    else:
        row = dict(zip(CSV_COLUMNS, (PINNED, "large", "r"))) | {name: cell}
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([CSV_COLUMNS, row.values()])
        path.write_text(out.getvalue() + OTHER_ROWS)
        argv = assess + ["--gaps", str(path), "--criticality", "1"]
        # a refused row leaves its attribute without a gap
        expected = [f"line 2: {line}" for line in expected]
        expected += [f"missing sub-characteristic: {PINNED}"] if expected else []

    code = main(argv)
    captured = capsys.readouterr()
    if expected:
        assert (code, captured.err) == (1, "".join(f"{line}\n" for line in expected))
        assert not store.exists()
        return
    assert (code, captured.err) == (0, "")
    if fmt == "registry":
        kept = getattr(load_registry_snapshot(registry).systems[1], name)
        assert type(kept) is type(parsed) and kept == parsed
        assert _stored(store)["identity"]["system"] == "s"
    elif fmt == "usage":
        usage = SystemUsage() if parsed is None else SystemUsage(**{name: parsed})
        criticality = determine_criticality(usage, FLEET)
        assert _stored(store)["criticality"] == {
            "level": int(criticality.level), "justification": criticality.justification,
        }
    elif fmt in ("overrides", "systems.s"):
        assert _stored_gap(store, name) == ("large", "no human review")
    elif fmt == "pin":
        # a reason is kept without its surrounding blanks, as a CSV cell is
        kept = ("no", "r") if name == "gap" else ("large", "" if parsed is None else parsed.strip())
        assert _stored_gap(store, PINNED) == kept
    elif fmt == "model":
        assert load_quality_model(path).sub(MODEL_ROW).minimal_requirement is None
    else:
        kept = ("no", "r") if name == "gap" else ("large", cell.strip())
        assert _stored_gap(store, PINNED) == kept
