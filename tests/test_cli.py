"""Command-line behaviour: flags, exit codes, outputs."""

from __future__ import annotations

import builtins
import contextlib
import csv
import datetime as dt
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlquality
from conftest import make_assessment
from golden_fixtures import FLEET_AFTER, FLEET_BEFORE, persist_fleet
from mlquality.cli import main
from mlquality.errors import OverrideError, SnapshotError, StoreError
from mlquality.model import GAP_ALIASES, Characteristic, Gap, default_model
from mlquality.registry import load_overrides, load_registry_snapshot
from mlquality.scoring import GapColor, SystemUsage, evaluate, gap_score
from mlquality.store import persist_assessment

MODEL = default_model()
GOLDEN_DIR = Path(__file__).parent / "golden"

ALL_NO_CSV = "sub_characteristic,gap,reason\n" + "".join(
    f"{sub_id},no,verified\n" for sub_id in MODEL.ids
)

REGISTRY_YAML = """\
schema_version: 1
snapshot_date: 2026-07-01
systems:
  - system_id: ranker
    team: search
    in_production: true
    deployed_in_serving_system: true
    deployed_in_registry: true
    outperforms_baseline: true
    input_data_validated: true
    ab_test_conclusive: true
    ab_test_repeated_within_6_months: true
    latency_slo_met: true
    throughput_slo_met: true
    sla_met: true
    revenue: 1000
    training_cost: 100
    inference_cost: 50
    basic_ops_automated: true
    training_duration: 45
    failed_pipeline_ratio_quarter: 0.05
    retraining: scheduled
    autoscaling_enabled: true
    pipeline_automation: full
    monitoring: full
    code_versioned: true
    test_coverage: 0.95
    service_deployed: true
    can_disable_update_revert: true
    metadata_logging: full
    documentation: complete
    explainable: true
    bias_checked_clean: true
    owner_team: search
    compliance_met: true
    bot_filtering: true
    requests_per_day: 50000
    dependent_consumers: 6
    revenue_share: 0.002
    strategic: false
  - system_id: forecaster
    team: supply
    in_production: true
    requests_per_day: 100
    training_duration: 300
  - system_id: sandbox
    team: lab
    in_production: false
    training_duration: 10
"""

OVERRIDES_YAML = """\
readability: full
modularity: full
"""


@pytest.fixture()
def gaps_csv(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text(ALL_NO_CSV)
    return path


@pytest.fixture()
def registry(tmp_path):
    path = tmp_path / "snapshot.yaml"
    path.write_text(REGISTRY_YAML)
    return path


def test_assess_happy_path(tmp_path, gaps_csv, capsys):
    store = tmp_path / "store"
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "search",
        "--system", "ranker", "--date", "2026-01-05",
        "--criticality", "5", "--store", str(store),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "score=100 maturity=5 required=5" in out
    assert (store / "search" / "ranker" / "2026-01-05" / "report.html").is_file()


def test_assess_rejects_illegal_small_gap(tmp_path, capsys):
    bad = ALL_NO_CSV.replace("fairness,no,verified", "fairness,small,partial check")
    path = tmp_path / "gaps.csv"
    path.write_text(bad)
    code = main([
        "assess", "--gaps", str(path), "--team", "t", "--system", "s",
        "--date", "2026-01-05", "--criticality", "3",
        "--store", str(tmp_path / "store"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert "small gap illegal for fairness" in err
    assert "line 23" in err


def test_assess_without_criticality_is_usage_error(tmp_path, gaps_csv, capsys):
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
        "--date", "2026-01-05", "--store", str(tmp_path / "store"),
    ])
    assert code == 2
    assert "criticality" in capsys.readouterr().err


def test_assess_derives_criticality_from_usage_and_fleet(
    tmp_path, gaps_csv, registry, capsys
):
    usage = tmp_path / "usage.yaml"
    usage.write_text("in_production: true\ndependent_consumers: 6\n")
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
        "--date", "2026-01-05", "--usage", str(usage), "--fleet", str(registry),
        "--store", str(tmp_path / "store"),
    ])
    assert code == 0
    assert "required=5" in capsys.readouterr().out


def test_assess_records_family(tmp_path, gaps_csv):
    store = tmp_path / "store"
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s1",
        "--family", "s1,s2,s3", "--date", "2026-01-05",
        "--criticality", "1", "--store", str(store),
    ])
    assert code == 0
    payload = json.loads(
        (store / "t" / "s1" / "2026-01-05" / "snapshot.json").read_text()
    )
    assert payload["identity"]["family_members"] == ["s1", "s2", "s3"]


def test_assess_unknown_flag_exits_2(gaps_csv, capsys):
    assert main(["assess", "--gaps", str(gaps_csv), "--frobnicate"]) == 2


def test_missing_gaps_file_is_domain_error(tmp_path, capsys):
    code = main([
        "assess", "--gaps", str(tmp_path / "absent.csv"), "--team", "t",
        "--system", "s", "--date", "2026-01-05", "--criticality", "1",
        "--store", str(tmp_path / "store"),
    ])
    assert code == 1


def test_infer_processes_every_system(tmp_path, registry, capsys):
    store = tmp_path / "store"
    overrides = tmp_path / "overrides.yaml"
    overrides.write_text(OVERRIDES_YAML)
    code = main([
        "infer", "--registry", str(registry), "--overrides", str(overrides),
        "--store", str(store),
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("system=")]
    assert len(lines) == 3
    assert "system=ranker team=search score=100 maturity=5" in out
    assert "criticality=5" in lines[0]  # 6 dependent consumers
    assert "criticality=1" in lines[2]  # not in production
    # snapshot_date from the document names the directories
    assert (store / "search" / "ranker" / "2026-07-01" / "snapshot.json").is_file()


def test_infer_missing_owner_shows_in_report(tmp_path, registry):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    payload = json.loads(
        (store / "supply" / "forecaster" / "2026-07-01" / "snapshot.json").read_text()
    )
    gaps = {row["sub_characteristic"]: row for row in payload["gaps"]}
    assert gaps["ownership"]["gap"] == "large"
    assert gaps["ownership"]["reason"] == "no evidence in registry"
    report = (store / "supply" / "forecaster" / "2026-07-01" / "report.html").read_text()
    assert "no evidence in registry" in report


def test_infer_overrides_mark_readability_clean(tmp_path, registry):
    store = tmp_path / "store"
    overrides = tmp_path / "overrides.yaml"
    overrides.write_text(OVERRIDES_YAML)
    main([
        "infer", "--registry", str(registry), "--overrides", str(overrides),
        "--store", str(store),
    ])
    payload = json.loads(
        (store / "search" / "ranker" / "2026-07-01" / "snapshot.json").read_text()
    )
    gaps = {row["sub_characteristic"]: row for row in payload["gaps"]}
    assert gaps["readability"]["gap"] == "no"
    assert "human review" in gaps["readability"]["reason"]


def test_infer_date_flag_wins_over_snapshot_date(tmp_path, registry):
    store = tmp_path / "store"
    main([
        "infer", "--registry", str(registry), "--store", str(store),
        "--date", "2026-08-01",
    ])
    assert (store / "search" / "ranker" / "2026-08-01").is_dir()


def test_infer_is_idempotent(tmp_path, registry):
    store = tmp_path / "store"
    argv = ["infer", "--registry", str(registry), "--store", str(store)]
    main(argv)
    files = sorted(store.rglob("*.html")) + sorted(store.rglob("*.json"))
    before = {path: path.read_bytes() for path in files}
    main(argv)
    after = {path: path.read_bytes() for path in files}
    assert before == after


def test_report_rerenders_identical_bytes(tmp_path, registry, capsys):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    stored = store / "search" / "ranker" / "2026-07-01" / "report.html"
    original = stored.read_bytes()
    out_file = tmp_path / "again.html"
    code = main([
        "report", "--store", str(store), "--team", "search", "--system", "ranker",
        "--out", str(out_file),
    ])
    assert code == 0
    assert out_file.read_bytes() == original


def test_history_lists_rows(tmp_path, registry, capsys):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    capsys.readouterr()
    code = main(["history", "--store", str(store), "--team", "search"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "team,system,date,quality_score,maturity"
    assert len(lines) == 2
    assert lines[1].startswith("search,ranker,2026-07-01,")


def test_history_rows_read_back_as_csv(tmp_path, gaps_csv, capsys):
    """Names holding a comma, a quote or a line break are quoted."""
    store = tmp_path / "store"
    identities = [("ads, growth", 'say "hi"'), ("line\nbreak", "plain"), ("search", "ranker")]
    for team, system in identities:
        assert main([
            "assess", "--gaps", str(gaps_csv), "--team", team, "--system", system,
            "--date", "2026-01-05", "--criticality", "1", "--store", str(store),
        ]) == 0
    capsys.readouterr()
    assert main(["history", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["team", "system", "date", "quality_score", "maturity"]
    assert sorted(tuple(row) for row in rows[1:]) == sorted(
        (team, system, "2026-01-05", "100", "5") for team, system in identities
    )
    assert out.endswith("\nsearch,ranker,2026-01-05,100,5\n")


def test_assess_history_and_report_round_trip_non_ascii_names(tmp_path, gaps_csv, capsys):
    store = tmp_path / "store"
    identity = ["--team", "équipe", "--system", "système", "--store", str(store)]
    assert main([
        "assess", "--gaps", str(gaps_csv), "--date", "2026-01-05", "--criticality", "1",
        *identity,
    ]) == 0
    report = store / "équipe" / "système" / "2026-01-05" / "report.html"
    assessed = report.read_bytes()
    capsys.readouterr()
    assert main(["history", "--store", str(store)]) == 0
    assert capsys.readouterr().out.endswith("\néquipe,système,2026-01-05,100,5\n")
    assert main(["report", *identity]) == 0
    assert capsys.readouterr().out == f"report: {report}\n"
    assert report.read_bytes() == assessed


def test_report_refuses_a_snapshot_moved_under_another_date(tmp_path, gaps_csv, capsys):
    """A snapshot recording 2026-01-05 moved into 2026-01-01 is not the
    2026-01-01 assessment, and `mlq report` never writes its report into
    the directory of the date it records."""
    store = tmp_path / "store"
    system_dir = store / "t" / "s"
    identity = ["--team", "t", "--system", "s", "--store", str(store)]

    def assess(csv_text):
        gaps_csv.write_text(csv_text)
        assert main([
            "assess", "--gaps", str(gaps_csv), "--date", "2026-01-05", "--criticality", "1",
            *identity,
        ]) == 0

    assess(ALL_NO_CSV)
    (system_dir / "2026-01-05").rename(system_dir / "2026-01-01")
    capsys.readouterr()
    assert main(["report", *identity]) == 1
    assert capsys.readouterr().err == (
        f"not found: {system_dir} holds no assessment of team 't' system 's'\n"
    )
    assert sorted(path.name for path in system_dir.iterdir()) == ["2026-01-01"]

    assess(ALL_NO_CSV.replace(",no,", ",large,"))
    report = system_dir / "2026-01-05" / "report.html"
    assessed = report.read_bytes()
    capsys.readouterr()
    assert main(["report", *identity, "--date", "2026-01-01"]) == 1
    moved = system_dir / "2026-01-01" / "snapshot.json"
    assert capsys.readouterr().err == (
        f"not found: {moved} holds no assessment of team 't' system 's'\n"
    )
    assert report.read_bytes() == assessed


def test_fleet_outputs(tmp_path, registry, capsys):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    out_dir = tmp_path / "fleet"
    code = main([
        "fleet", "--store", str(store), "--out", str(out_dir),
        "--before", "2026-07-01", "--after", "2026-07-01",
    ])
    assert code == 0
    for name in ("distribution.csv", "trend.svg", "compliance.csv", "compliance.svg"):
        assert (out_dir / name).is_file()
    compliance = (out_dir / "compliance.csv").read_text().splitlines()
    assert len(compliance) == 26  # header + 25 rows


def test_fleet_without_cohort_dates_skips_compliance(tmp_path, registry):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    out_dir = tmp_path / "fleet"
    assert main(["fleet", "--store", str(store), "--out", str(out_dir)]) == 0
    assert (out_dir / "distribution.csv").is_file()
    assert (out_dir / "trend.svg").is_file()
    assert not (out_dir / "compliance.csv").exists()


def test_fleet_with_half_a_cohort_is_usage_error(tmp_path, registry, capsys):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    code = main([
        "fleet", "--store", str(store), "--out", str(tmp_path / "fleet"),
        "--before", "2026-07-01",
    ])
    assert code == 2


@pytest.mark.parametrize("flag", ["--before", "--after"])
def test_fleet_with_half_a_cohort_is_refused_before_the_store_is_read(
    tmp_path, monkeypatch, capsys, flag
):
    def no_scan(*args):
        raise AssertionError("the store was read")

    monkeypatch.setattr(mlquality.cli, "fleet_scan", no_scan)
    code = main([
        "fleet", "--store", str(tmp_path / "missing"), "--out", str(tmp_path / "out"),
        flag, "2026-07-01",
    ])
    assert code == 2
    assert capsys.readouterr().err.endswith("--before and --after must be given together\n")
    assert not (tmp_path / "out").exists()


def test_fleet_views_match_the_golden_files(tmp_path, capsys):
    store, out = tmp_path / "store", tmp_path / "fleet"
    persist_fleet(store)
    code = main([
        "fleet", "--store", str(store), "--out", str(out),
        "--before", FLEET_BEFORE.isoformat(), "--after", FLEET_AFTER.isoformat(),
    ])
    assert code == 0
    golden = GOLDEN_DIR / "fleet"
    assert sorted(path.name for path in out.iterdir()) == sorted(
        path.name for path in golden.iterdir()
    )
    for path in golden.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_fleet_empty_store_fails(tmp_path, capsys):
    code = main([
        "fleet", "--store", str(tmp_path / "empty"), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "no assessments" in capsys.readouterr().err


def test_validate_default_model_ok(capsys):
    assert main(["validate"]) == 0
    assert "model OK" in capsys.readouterr().out


def test_validate_broken_model_config(tmp_path, capsys):
    config = tmp_path / "model.yaml"
    config.write_text("matrix:\n  responsiveness: [full, full, min, full, full]\n")
    assert main(["validate", "--model", str(config)]) == 1
    assert "without minimal requirement" in capsys.readouterr().err


def test_validate_checks_gaps_csv(tmp_path, gaps_csv, capsys):
    assert main(["validate", "--gaps", str(gaps_csv)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text(ALL_NO_CSV.replace("fairness,no,verified", "fairness,small,x"))
    assert main(["validate", "--gaps", str(bad)]) == 1


@pytest.mark.parametrize("command", ["assess", "validate"])
def test_gaps_cell_over_the_csv_field_limit_is_located(tmp_path, capsys, command):
    gaps = tmp_path / "gaps.csv"
    gaps.write_text(ALL_NO_CSV.replace("verified", "x" * 200_000, 1))
    store = tmp_path / "store"
    argv = {
        "assess": [
            "assess", "--team", "t", "--system", "s", "--date", "2026-01-05",
            "--criticality", "3", "--store", str(store),
        ],
        "validate": ["validate"],
    }[command]
    assert main([*argv, "--gaps", str(gaps)]) == 1
    assert capsys.readouterr().err == "line 2: field larger than field limit (131072)\n"
    assert not store.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        (
            "sub_characteristics: [testability]\n",
            "sub_characteristics: expected a mapping of row id to fields",
        ),
        (
            "sub_characteristics:\n  testability: text\n",
            "sub_characteristics.testability: expected a mapping",
        ),
        (
            "sub_characteristics:\n  testability:\n    remediation: [x]\n",
            "sub_characteristics.testability.remediation: expected text",
        ),
        (
            "sub_characteristics:\n  testability:\n    full_requirement:\n",
            "sub_characteristics.testability.full_requirement: cannot be empty",
        ),
        ("matrix: [testability]\n", "matrix: expected a mapping of row id to demand tokens"),
        ("- matrix\n", "config document must be a mapping"),
    ],
    ids=["texts not a mapping", "row not a mapping", "field not text", "empty field",
         "matrix not a mapping", "document not a mapping"],
)
def test_validate_locates_model_config_problems(tmp_path, capsys, config, message):
    path = tmp_path / "model.yaml"
    path.write_text(config)
    assert main(["validate", "--model", str(path)]) == 1
    assert capsys.readouterr().err == f"{message}\n"


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            "extra: [testability]\n",
            "overrides: extra must be a mapping of sub-characteristic to gap",
        ),
        (
            "extra:\n  testability: large\n",
            "overrides: extra.testability must be a mapping with a gap",
        ),
        (
            "extra:\n  testability: {gap: huge}\n",
            "overrides: extra.testability: malformed gap token 'huge'",
        ),
        ("systems: [ranker]\n", "systems: expected a mapping of system id to overrides"),
        ("systems:\n  ranker: full\n", "systems.ranker: expected a mapping"),
        ("- extra\n", "overrides document must be a mapping"),
    ],
    ids=["extra not a mapping", "pin without a gap", "pin gap token", "systems not a mapping",
         "system not a mapping", "document not a mapping"],
)
def test_infer_locates_overrides_problems(tmp_path, registry, capsys, overrides, message):
    path = tmp_path / "overrides.yaml"
    path.write_text(overrides)
    store = tmp_path / "store"
    code = main([
        "infer", "--registry", str(registry), "--overrides", str(path), "--store", str(store),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"{message}\n"
    assert not store.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("- systems\n", "snapshot document must be a mapping"),
        (
            "schema_version: 1\nsnapshot_date: [1]\nsystems: []\n",
            "snapshot_date must be a date, got [1]",
        ),
        (
            REGISTRY_YAML.replace("requests_per_day: 50000", "requests_per_day: 1.5"),
            "systems[0]: requests_per_day must be an integer, got 1.5",
        ),
        ("schema_version: 1\nsystems: []\n", "registry snapshot contains no systems"),
    ],
    ids=["document not a mapping", "snapshot_date a list", "fractional count", "no systems"],
)
def test_infer_locates_registry_problems(tmp_path, capsys, text, message):
    path = tmp_path / "registry.yaml"
    path.write_text(text)
    store = tmp_path / "store"
    assert main(["infer", "--registry", str(path), "--store", str(store)]) == 1
    assert capsys.readouterr().err == f"{message}\n"
    assert not store.exists()


@pytest.mark.parametrize(
    "usage, fleet, message",
    [
        (
            "requests_per_day: 100\n",
            "\n".join(line for line in REGISTRY_YAML.splitlines()
                      if not line.lstrip().startswith("training_duration")) + "\n",
            "no system reports a training_duration",
        ),
        (
            "requests_per_day: 1.5\n",
            REGISTRY_YAML,
            "usage file {usage}: requests_per_day must be an integer, got 1.5",
        ),
    ],
    ids=["no training_duration", "fractional count"],
)
def test_assess_locates_usage_and_fleet_problems(
    tmp_path, gaps_csv, capsys, usage, fleet, message
):
    usage_path, fleet_path = tmp_path / "usage.yaml", tmp_path / "fleet.yaml"
    usage_path.write_text(usage)
    fleet_path.write_text(fleet)
    store = tmp_path / "store"
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
        "--date", "2026-01-05", "--usage", str(usage_path), "--fleet", str(fleet_path),
        "--store", str(store),
    ])
    assert code == 1
    assert capsys.readouterr().err == message.format(usage=usage_path) + "\n"
    assert not store.exists()


# per problem `check_field` words, a field and a value as a YAML file writes
# it, with the message that follows `<where>: <field> `
FIELD_PROBLEMS = {
    "enum": ("retraining", "weekly", "must be one of none, manual, scheduled, got 'weekly'"),
    "text": ("owner_team", "' '", "must be non-empty text, got ' '"),
    "number": ("revenue_share", "high", "must be a number, got 'high'"),
    "finite": ("requests_per_day", ".inf", "must be a finite number, got inf"),
    "nonnegative": ("revenue_share", "-0.5", "must be >= 0, got -0.5"),
    "fraction": ("revenue_share", "1.5", "must be within 0..1, got 1.5"),
    "integer": ("dependent_consumers", "2.5", "must be an integer, got 2.5"),
    "boolean": ("strategic", "[1]", "must be a boolean, got [1]"),
}


@pytest.mark.parametrize(
    "caller, field, value, problem",
    [
        *[pytest.param("registry", *case, id=f"registry-{kind}")
          for kind, case in FIELD_PROBLEMS.items()],
        # a usage file holds no enum or text field
        *[pytest.param("usage", *case, id=f"usage-{kind}")
          for kind, case in FIELD_PROBLEMS.items() if case[0] in SystemUsage._fields],
        # a review is an enum
        pytest.param(
            "overrides", "readability", "weekly",
            "must be one of none, partial, full, got 'weekly'", id="overrides-enum",
        ),
        pytest.param(
            "systems.s", "modularity", "[1]",
            "must be one of none, partial, full, got [1]", id="system-overrides-enum",
        ),
    ],
)
def test_every_field_problem_is_framed_alike_in_every_caller(
    tmp_path, gaps_csv, registry, capsys, caller, field, value, problem
):
    message = f"{field} {problem}"
    if caller == "registry":
        with pytest.raises(SnapshotError) as excinfo:
            load_registry_snapshot(
                f"schema_version: 1\nsystems:\n- {{system_id: s, team: t, {field}: {value}}}\n"
            )
        assert excinfo.value.problems == [f"systems[0]: {message}"]
    elif caller == "usage":
        usage = tmp_path / "usage.yaml"
        usage.write_text(f"{field}: {value}\n")
        code = main([
            "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
            "--date", "2026-01-05", "--usage", str(usage), "--fleet", str(registry),
            "--store", str(tmp_path / "store"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"usage file {usage}: {message}\n"
    else:
        text = f"{field}: {value}\n"
        if caller != "overrides":
            text = f"systems:\n  s: {{{text.strip()}}}\n"
        with pytest.raises(OverrideError) as excinfo:
            load_overrides(text)
        assert excinfo.value.problems == [f"{caller}: {message}"]


@pytest.mark.parametrize(
    "flag, text, message",
    [
        (
            "--registry",
            "schema_version: 1\nsnapshot_date: [2026-01-01]\nsystems: []\n",
            "snapshot_date must be a date, got [2026-01-01]",
        ),
        (
            "--registry",
            "schema_version: 1\nsnapshot_date: {day: 2026-01-01T10:30:00}\nsystems: []\n",
            "snapshot_date must be a date, got {'day': 2026-01-01T10:30:00}",
        ),
        (
            "--registry",
            REGISTRY_YAML.replace("retraining: scheduled", "retraining: 2026-01-02"),
            "systems[0]: retraining must be one of none, manual, scheduled, got 2026-01-02",
        ),
        (
            "--overrides",
            "readability: 2026-01-01\n",
            "overrides: readability must be one of none, partial, full, got 2026-01-01",
        ),
        (
            "--overrides",
            "extra:\n  testability: {gap: 2026-01-01T10:30:00}\n",
            "overrides: extra.testability: malformed gap token 2026-01-01T10:30:00",
        ),
        (
            "--model",
            "matrix:\n  testability: [2026-01-01, '-', min, min, full]\n",
            "matrix.testability: bad demand token 2026-01-01 at level 1 "
            "(expected one of -, min, full)",
        ),
    ],
    ids=["date in a list", "timestamp in a mapping", "date as an enum", "date as a review",
         "timestamp as a gap token", "date as a demand token"],
)
def test_infer_spells_dates_in_messages_as_written(tmp_path, registry, capsys, flag, text, message):
    path = tmp_path / "input.yaml"
    path.write_text(text)
    inputs = {"--registry": str(registry), flag: str(path)}
    store = tmp_path / "store"
    argv = ["infer", "--store", str(store)]
    for name, value in inputs.items():
        argv += [name, value]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"{message}\n"
    assert not store.exists()


def test_form_emits_template(tmp_path, capsys):
    out = tmp_path / "form.md"
    assert main(["form", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("- [ ] Full requirement met:") == 25
    first = out.read_bytes()
    assert main(["form", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_store_defaults_to_environment(tmp_path, gaps_csv, monkeypatch, capsys):
    store = tmp_path / "env-store"
    monkeypatch.setenv("MLQ_STORE", str(store))
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
        "--date", "2026-01-05", "--criticality", "1",
    ])
    assert code == 0
    assert (store / "t" / "s" / "2026-01-05" / "snapshot.json").is_file()


def test_missing_store_is_usage_error(tmp_path, gaps_csv, monkeypatch, capsys):
    monkeypatch.delenv("MLQ_STORE", raising=False)
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
        "--date", "2026-01-05", "--criticality", "1",
    ])
    assert code == 2
    assert "--store" in capsys.readouterr().err


def test_assess_family_must_name_the_system(tmp_path, gaps_csv, capsys):
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s1",
        "--family", "s2,s3", "--date", "2026-01-05",
        "--criticality", "1", "--store", str(tmp_path / "store"),
    ])
    assert code == 1
    assert "--family s2,s3 must include --system s1" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "family", ["s1,,s2", "s1,s2,", "s1,s1", "s1,s2,s1", "s1, s2", "s1,s2 ", "s1,\ts2", "s1, "]
)
def test_assess_family_refuses_empty_and_repeated_members(tmp_path, gaps_csv, capsys, family):
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s1",
        "--family", family, "--date", "2026-01-05",
        "--criticality", "1", "--store", str(tmp_path / "store"),
    ])
    assert code == 1
    assert f"--family {family} names an empty or repeated member" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("dependent_consumers: [6\n", "invalid YAML:"),
        ("requests_per_day: .inf\n", "requests_per_day must be a finite number"),
        ("revenue_share: .nan\n", "revenue_share must be a finite number"),
    ],
    ids=["malformed YAML", "infinite count", "NaN share"],
)
def test_assess_rejects_malformed_usage(
    tmp_path, gaps_csv, registry, capsys, text, message
):
    usage = tmp_path / "usage.yaml"
    usage.write_text(text)
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
        "--date", "2026-01-05", "--usage", str(usage), "--fleet", str(registry),
        "--store", str(tmp_path / "store"),
    ])
    assert code == 1
    assert f"usage file {usage}: {message}" in capsys.readouterr().err


def test_a_huge_integer_is_quoted_in_a_short_message(tmp_path, gaps_csv, registry, capsys):
    huge = str(10**400)
    huge_registry = tmp_path / "huge.yaml"
    huge_registry.write_text(REGISTRY_YAML.replace("day: 100\n", f"day: {huge}\n"))
    usage = tmp_path / "usage.yaml"
    usage.write_text(f"in_production: true\nrequests_per_day: {huge}\n")
    for args, where in (
        (["infer", "--registry", str(huge_registry)], "systems[1]"),
        (["assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
          "--date", "2026-01-05", "--usage", str(usage), "--fleet", str(registry)],
         f"usage file {usage}"),
    ):
        capsys.readouterr()
        assert main([*args, "--store", str(tmp_path / "store")]) == 1
        (message,) = capsys.readouterr().err.splitlines()
        assert f"{where}: requests_per_day must be a finite number, got 1000" in message
        assert len(message) < 200


def test_infer_rejects_impossible_snapshot_date(tmp_path, capsys):
    registry = tmp_path / "snapshot.yaml"
    registry.write_text(REGISTRY_YAML.replace("2026-07-01", "2026-13-01"))
    code = main(["infer", "--registry", str(registry), "--store", str(tmp_path / "store")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid YAML: month must be in 1..12")
    assert "line 2, column 16" in err


def _record_snapshot_opens(monkeypatch) -> list[str]:
    """Paths of the `snapshot.json` files opened for reading from now on,
    counted at the builtin `open` as the benchmark's tracer counts them."""
    opened: list[str] = []
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and isinstance(file, (str, os.PathLike)):
            if os.path.basename(os.fspath(file)) == "snapshot.json":
                opened.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    return opened


def test_fleet_opens_each_snapshot_once(tmp_path, registry, monkeypatch):
    store = tmp_path / "store"
    for date in ("2026-06-01", "2026-07-01"):
        main(["infer", "--registry", str(registry), "--store", str(store), "--date", date])
    loads = _record_loads(monkeypatch)
    opened = _record_snapshot_opens(monkeypatch)
    code = main([
        "fleet", "--store", str(store), "--out", str(tmp_path / "fleet"),
        "--before", "2026-07-01", "--after", "2026-06-01",
    ])
    assert code == 0
    assert sorted(opened) == sorted(map(str, store.glob("*/*/*/snapshot.json")))
    assert len(opened) == 6
    assert loads == []
    assert len((tmp_path / "fleet" / "compliance.csv").read_text().splitlines()) == 26


def _record_loads(monkeypatch) -> list[tuple]:
    """Arguments of each `load_assessment` call the store makes from now on."""
    import mlquality.store as store_module

    loads: list[tuple] = []
    real = store_module.load_assessment

    def counting(*args, **kwargs):
        loads.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(store_module, "load_assessment", counting)
    return loads


@pytest.mark.parametrize("how", ["moved", "copied ahead"])
def test_fleet_loads_a_hand_moved_pick_of_both_cohorts_once(
    tmp_path, registry, monkeypatch, capsys, how
):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    ranker = store / "search" / "ranker"
    if how == "moved":
        # read under another date: its own path holds nothing
        (ranker / "2026-07-01").rename(ranker / "2026-06-15")
    else:
        # read first from a directory sorted before its own, so the scan
        # never rebuilds the copy at its own path
        (store / "search" / "aaa").mkdir()
        (ranker / "2026-07-01").rename(store / "search" / "aaa" / "2026-07-01")
        (ranker / "2026-07-01").mkdir()
        shutil.copy(store / "search" / "aaa" / "2026-07-01" / "snapshot.json",
                    ranker / "2026-07-01" / "snapshot.json")
    capsys.readouterr()
    got, expected = _fleet_and_reference(
        store, tmp_path / "fleet", dt.date(2026, 7, 1), dt.date(2026, 7, 1)
    )
    assert got == expected
    code, err, _, views = got
    if how == "moved":
        assert (code, views) == (1, {})
        assert err == f"not found: {ranker / '2026-07-01' / 'snapshot.json'}\n"
    else:
        assert (code, len(views)) == (0, 4)
    loads = _record_loads(monkeypatch)
    assert main([
        "fleet", "--store", str(store), "--out", str(tmp_path / "again"),
        "--before", "2026-07-01", "--after", "2026-07-01",
    ]) == code
    assert loads == [(store, "search", "ranker", dt.date(2026, 7, 1))]


def test_fleet_refuses_a_pick_whose_directory_holds_another_date(tmp_path, gaps_csv):
    """2026-01-01 and 2026-01-05 moved round by hand: the directory named
    2026-01-01 holds the 2026-01-05 snapshot, which the scan read, but
    `load_assessment` gives it for neither date, so neither does the fleet."""
    store = tmp_path / "store"
    for date in ("2026-01-01", "2026-01-05"):
        assert main([
            "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "s",
            "--date", date, "--criticality", "1", "--store", str(store),
        ]) == 0
    system_dir = store / "t" / "s"
    (system_dir / "2026-01-01").rename(system_dir / "2026-01-09")
    (system_dir / "2026-01-05").rename(system_dir / "2026-01-01")
    got, expected = _fleet_and_reference(
        store, tmp_path / "fleet", dt.date(2026, 1, 3), dt.date(2026, 1, 4)
    )
    assert got == expected
    moved = system_dir / "2026-01-01" / "snapshot.json"
    assert got[:2] == (1, f"not found: {moved} holds no assessment of team 't' system 's'\n")


def _mutate_snapshot(path, payload_edit):
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(payload_edit(payload)))


def _rederived(payload):
    """`payload` with its scores and recommendations derived again from its
    gap and color rows, so that an edit of those rows alone stays
    consistent: an attribute the catalog does not hold counts in the
    quality score only, and a recommendation keeps its remediation text."""
    gaps = {row["sub_characteristic"]: GAP_ALIASES[row["gap"]] for row in payload["gaps"]}
    reasons = {row["sub_characteristic"]: row["reason"] for row in payload["gaps"]}
    colors = {row["sub_characteristic"]: GapColor(row["color"]) for row in payload["colors"]}
    parent = {sub.id: sub.characteristic.value for sub in MODEL.sub_characteristics}
    advice = {row["sub_characteristic"]: row["remediation"] for row in payload["recommendations"]}
    gapped = [sub_id for sub_id in gaps if colors[sub_id] is not GapColor.GREEN]
    return {
        **payload,
        "quality_score": gap_score(list(gaps.values())),
        "characteristic_scores": [
            {**row, "score": gap_score(
                [gap for sub_id, gap in gaps.items() if parent.get(sub_id) == row["characteristic"]]
            )}
            for row in payload["characteristic_scores"]
        ],
        "recommendations": [
            {"sub_characteristic": sub_id, "reason": reasons[sub_id],
             "remediation": advice.get(sub_id, "")}
            for sub_id in sorted(gapped, key=lambda sub_id: list(GapColor).index(colors[sub_id]))
        ],
    }


# hand edits that `mlq report` rejects; those in HISTORY_READABLE keep the
# snapshot readable by `mlq history`, the others do not
MALFORMED_EDITS = [
    pytest.param(
        lambda payload: {**payload, "gaps": [{**payload["gaps"][0], "gap": "huge"}]},
        "KeyError: 'huge'",
        id="gap token",
    ),
    pytest.param(
        lambda payload: {**payload, "colors": [{**payload["colors"][0], "color": "mauve"}]},
        "ValueError: 'mauve' is not a valid GapColor",
        id="color token",
    ),
    pytest.param(
        lambda payload: {
            **payload,
            "characteristic_scores": [{"characteristic": "speed", "score": 1}],
        },
        "ValueError: 'speed' is not a valid Characteristic",
        id="characteristic",
    ),
    pytest.param(
        lambda payload: {**payload, "gaps": payload["gaps"][1:]},
        f"ValueError: colors and gaps name different attributes: {MODEL.ids[0]}",
        id="uncolored gap",
    ),
    pytest.param(
        lambda payload: {**payload, "characteristic_scores": payload["characteristic_scores"][1:]},
        "ValueError: characteristic_scores must name each characteristic once",
        id="missing characteristic",
    ),
    pytest.param(
        lambda payload: {
            **payload, "gaps": [{**payload["gaps"][0], "reason": 1}, *payload["gaps"][1:]]
        },
        "TypeError: reason must be text, not int",
        id="numeric reason",
    ),
    pytest.param(
        lambda payload: {
            **payload, "criticality": {**payload["criticality"], "justification": 5}
        },
        "TypeError: justification must be text, not int",
        id="numeric justification",
    ),
    pytest.param(lambda payload: {"snapshot_version": 1}, "KeyError: 'identity'", id="version only"),
    pytest.param(lambda payload: {**payload, "identity": "ranker"}, "TypeError:", id="identity"),
    pytest.param(
        lambda payload: {**payload, "maturity": float("inf")}, "OverflowError:", id="infinite"
    ),
    pytest.param(
        lambda payload: {**payload, "identity": {**payload["identity"], "team": 7}},
        "TypeError: team must be text, not int",
        id="numeric team",
    ),
    pytest.param(
        lambda payload: {**payload, "maturity": 6},
        "ValueError: maturity 6 is not in 0..5",
        id="maturity above the ladder",
    ),
    pytest.param(
        lambda payload: {**payload, "required_maturity": 2},
        "ValueError: required_maturity 2 is not the criticality level ",
        id="required maturity off the ladder",
    ),
    # stored numbers are JSON integers: no text, float or bool passes for one
    pytest.param(
        lambda payload: {**payload, "maturity": str(payload["maturity"])},
        "TypeError: maturity must be an integer, not str",
        id="maturity as text",
    ),
    pytest.param(
        lambda payload: {**payload, "maturity": payload["maturity"] == 1},
        "TypeError: maturity must be an integer, not bool",
        id="maturity as bool",
    ),
    pytest.param(
        lambda payload: {**payload, "quality_score": payload["quality_score"] + 0.9},
        "TypeError: quality_score must be an integer, not float",
        id="fractional score",
    ),
    pytest.param(
        lambda payload: {**payload, "required_maturity": float(payload["required_maturity"])},
        "TypeError: required_maturity must be an integer, not float",
        id="required maturity as float",
    ),
    pytest.param(
        lambda payload: {
            **payload,
            "criticality": {
                **payload["criticality"], "level": str(payload["criticality"]["level"])
            },
        },
        "TypeError: level must be an integer, not str",
        id="criticality level as text",
    ),
    pytest.param(
        lambda payload: {
            **payload,
            "characteristic_scores": [
                {**row, "score": row["score"] + 0.5} for row in payload["characteristic_scores"]
            ],
        },
        "TypeError: score must be an integer, not float",
        id="fractional characteristic score",
    ),
    # each stored list is a list, and names each attribute once
    pytest.param(
        lambda payload: {
            **payload,
            "gaps": [*payload["gaps"], {**payload["gaps"][0], "gap": "large", "reason": "again"}],
        },
        "ValueError: gaps must name at least one attribute, each once",
        id="duplicated gap row",
    ),
    pytest.param(
        lambda payload: {**payload, "gaps": [], "colors": []},
        "ValueError: gaps must name at least one attribute, each once",
        id="no gaps or colors",
    ),
    pytest.param(
        lambda payload: {**payload, "recommendations": {}},
        "TypeError: recommendations must be a list, not dict",
        id="recommendations mapping",
    ),
    pytest.param(
        lambda payload: {**payload, "identity": {**payload["identity"], "family_members": []}},
        "ValueError: family_members must name at least one system",
        id="no family members",
    ),
    # maturity 5 exactly when every color is green, a red color exactly below it
    pytest.param(
        lambda payload: {**payload, "maturity": 5},
        "ValueError: maturity 5 needs every color green",
        id="maturity 5 with gaps",
    ),
    pytest.param(
        lambda payload: {
            **payload,
            "colors": [
                {**row, "color": "orange" if row["color"] == "red" else row["color"]}
                for row in payload["colors"]
            ],
        },
        "ValueError: maturity 1 needs a red color",
        id="maturity below 5 without red",
    ),
    # a snapshot is read back as written: canonical gap tokens and dates only
    pytest.param(
        lambda payload: {**payload, "gaps": [{**row, "gap": "1"} for row in payload["gaps"]]},
        "KeyError: '1'",
        id="gap alias",
    ),
    pytest.param(
        lambda payload: {
            **payload, "identity": {**payload["identity"], "date": "20260701"}
        },
        "ValueError:",
        id="basic date format",
    ),
    # no key the store does not write, at the top level or in a row
    pytest.param(
        lambda payload: {**payload, "extra_field": 1},
        "ValueError: snapshot holds keys the store does not write: 'extra_field'",
        id="added top-level key",
    ),
    pytest.param(
        lambda payload: {
            **payload, "gaps": [{**payload["gaps"][0], "note": "x"}, *payload["gaps"][1:]]
        },
        "ValueError: gaps[0] holds keys the store does not write: 'note'",
        id="added row key",
    ),
    # JSON can escape a lone surrogate, which UTF-8 cannot encode
    pytest.param(
        lambda payload: {**payload, "identity": {**payload["identity"], "team": "\udcff"}},
        "ValueError: team holds a lone surrogate, which UTF-8 cannot encode",
        id="surrogate team",
    ),
    pytest.param(
        lambda payload: {
            **payload,
            "gaps": [{**payload["gaps"][0], "reason": "x\udcff"}, *payload["gaps"][1:]],
        },
        "ValueError: reason holds a lone surrogate, which UTF-8 cannot encode",
        id="surrogate reason",
    ),
    # scores and recommendations follow from the gap and color rows
    pytest.param(
        lambda payload: {**payload, "quality_score": 101},
        "ValueError: quality_score 101 is not in 0..100",
        id="score above 100",
    ),
    pytest.param(
        lambda payload: {
            **payload,
            "characteristic_scores": [
                {**payload["characteristic_scores"][0], "score": 101},
                *payload["characteristic_scores"][1:],
            ],
        },
        "ValueError: score 101 is not in 0..100",
        id="characteristic score above 100",
    ),
    pytest.param(
        lambda payload: {**payload, "quality_score": 3},
        "ValueError: quality_score 3 is not 90, the score of its gaps",
        id="changed score",
    ),
    pytest.param(
        lambda payload: {
            **payload,
            "characteristic_scores": [
                {**payload["characteristic_scores"][0], "score": 3},
                *payload["characteristic_scores"][1:],
            ],
        },
        "ValueError: characteristic_scores utility 3 is not 100, the score of its gaps",
        id="changed characteristic score",
    ),
    pytest.param(
        lambda payload: {**payload, "recommendations": payload["recommendations"][1:]},
        "ValueError: recommendations maintainability, readability are not "
        "modularity, maintainability, readability, the non-green attributes by urgency",
        id="dropped recommendation",
    ),
    pytest.param(
        lambda payload: {**payload, "recommendations": payload["recommendations"][::-1]},
        "ValueError: recommendations readability, maintainability, modularity are not "
        "modularity, maintainability, readability, the non-green attributes by urgency",
        id="reordered recommendations",
    ),
    pytest.param(
        lambda payload: {
            **payload,
            "recommendations": [
                *({**row, "reason": "other"} for row in payload["recommendations"][:1]),
                *payload["recommendations"][1:],
            ],
        },
        "ValueError: recommendations[0] reason 'other' is not its gap's reason 'no human review'",
        id="recommendation reason",
    ),
]
HISTORY_READABLE = {
    "gap token",
    "color token",
    "characteristic",
    "uncolored gap",
    "missing characteristic",
    "numeric reason",
    "numeric justification",
    "required maturity off the ladder",
    "required maturity as float",
    "criticality level as text",
    "fractional characteristic score",
    "duplicated gap row",
    "no gaps or colors",
    "recommendations mapping",
    "no family members",
    "maturity 5 with gaps",
    "maturity below 5 without red",
    "gap alias",
    "added top-level key",
    "added row key",
    "surrogate reason",
    "characteristic score above 100",
    "changed score",
    "changed characteristic score",
    "dropped recommendation",
    "reordered recommendations",
    "recommendation reason",
}


@pytest.mark.parametrize("edit, message", MALFORMED_EDITS)
def test_report_on_malformed_snapshot_exits_1(tmp_path, registry, capsys, edit, message):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    snapshot = store / "search" / "ranker" / "2026-07-01" / "snapshot.json"
    _mutate_snapshot(snapshot, edit)
    capsys.readouterr()
    code = main(["report", "--store", str(store), "--team", "search", "--system", "ranker"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"malformed snapshot {snapshot}: {message}")


@pytest.mark.parametrize(
    "edit, difference",
    [
        (
            lambda rows: [row for row in rows if row["sub_characteristic"] != "accuracy"],
            "lacks accuracy",
        ),
        (
            lambda rows: [*rows, {**rows[-1], "sub_characteristic": "speed"}],
            "adds speed",
        ),
    ],
    ids=["lacks", "adds"],
)
def test_report_with_a_model_the_snapshot_does_not_cover_exits_1(
    tmp_path, registry, capsys, edit, difference
):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    snapshot = store / "search" / "ranker" / "2026-07-01" / "snapshot.json"
    _mutate_snapshot(
        snapshot,
        lambda payload: _rederived(
            {**payload, **{key: edit(payload[key]) for key in ("gaps", "colors")}}
        ),
    )
    model = tmp_path / "model.yaml"
    model.write_text("sub_characteristics: {testability: {remediation: Other text}}\n")
    out = tmp_path / "report.html"
    capsys.readouterr()
    code = main([
        "report", "--store", str(store), "--team", "search", "--system", "ranker",
        "--model", str(model), "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err == (
        f"{snapshot} does not assess the attributes of the given model: {difference}\n"
    )
    assert not out.exists()
    # without the model the snapshot still renders
    assert main([
        "report", "--store", str(store), "--team", "search", "--system", "ranker",
        "--out", str(out),
    ]) == 0


def test_report_on_snapshot_scoring_a_characteristic_without_rows_exits_1(
    tmp_path, registry, capsys
):
    """economy's two rows dropped, the quality score derived again: nothing
    is left to derive economy's score from."""
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    snapshot = store / "search" / "ranker" / "2026-07-01" / "snapshot.json"
    economy = {sub.id for sub in MODEL.rows_of(Characteristic.ECONOMY)}

    def without_economy(payload):
        kept = {
            key: [row for row in payload[key] if row["sub_characteristic"] not in economy]
            for key in ("gaps", "colors")
        }
        scores = [
            row for row in payload["characteristic_scores"] if row["characteristic"] != "economy"
        ]
        rederived = _rederived({**payload, **kept, "characteristic_scores": scores})
        return {**rederived, "characteristic_scores": payload["characteristic_scores"]}

    _mutate_snapshot(snapshot, without_economy)
    capsys.readouterr()
    code = main(["report", "--store", str(store), "--team", "search", "--system", "ranker"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"malformed snapshot {snapshot}: "
        "ValueError: characteristic_scores economy has no gap row to score\n"
    )


def _reference_fleet(store, before, after):
    """Exit code, stderr and views of `mlq fleet --before --after`, from the
    public API: `history()` rows, one `load_assessment` per cohort pick and
    `compliance_by_subcharacteristic`. On exit 1 no view is written."""
    from mlquality.analytics import (
        compliance_by_subcharacteristic,
        compliance_csv,
        distribution_csv,
        render_compliance_chart,
        render_trend_chart,
        score_distribution,
    )
    from mlquality.store import history, load_assessment

    rows = history(store)
    if not rows:
        return 1, f"store {store} contains no assessments\n", {}
    views = {
        "distribution.csv": distribution_csv(score_distribution(rows)),
        "trend.svg": render_trend_chart(rows),
    }

    def cohort(keep):
        newest = {}
        for row in rows:
            if keep(row.date) and row.date >= newest.get((row.team, row.system), row.date):
                newest[row.team, row.system] = row.date
        return [(team, system, date) for (team, system), date in sorted(newest.items())]

    picks = cohort(lambda date: date <= before), cohort(lambda date: date >= after)
    if not all(picks):
        return 1, "before/after dates leave an empty cohort; nothing to compare\n", {}
    try:
        results = {
            key: load_assessment(store, key[0], key[1], date=key[2])
            for key in dict.fromkeys(picks[0] + picks[1])
        }
    except StoreError as exc:
        return 1, f"{exc}\n", {}
    compliance = compliance_by_subcharacteristic(
        *([results[key] for key in cohort] for cohort in picks)
    )
    views["compliance.csv"] = compliance_csv(compliance)
    views["compliance.svg"] = render_compliance_chart(compliance)
    return 0, "", views


@contextlib.contextmanager
def _warnings():
    """Messages the package logs while the block runs."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("mlquality")
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def _fleet_and_reference(store, out, before, after):
    """(exit code, stderr, warnings, views) of `mlq fleet` into the fresh
    directory `out`, and the same from `_reference_fleet`."""
    with _warnings() as warnings, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([
            "fleet", "--store", str(store), "--out", str(out),
            "--before", before.isoformat(), "--after", after.isoformat(),
        ])
    views = {path.name: path.read_text() for path in out.iterdir()} if out.exists() else {}
    with _warnings() as expected_warnings:
        expected_code, expected_err, expected_views = _reference_fleet(store, before, after)
    return (
        (code, err.getvalue(), warnings, views),
        (expected_code, expected_err, expected_warnings, expected_views),
    )


@pytest.fixture()
def three_months(tmp_path, registry):
    """The test registry inferred on three dates; `mlq fleet --before
    2026-06-01 --after 2026-07-01` picks the last two, never 2026-05-01."""
    store = tmp_path / "store"
    for date in ("2026-05-01", "2026-06-01", "2026-07-01"):
        assert main(["infer", "--registry", str(registry), "--store", str(store),
                     "--date", date]) == 0
    return store


@pytest.mark.parametrize("edit, message", MALFORMED_EDITS)
def test_fleet_on_malformed_cohort_pick_exits_1(
    tmp_path, three_months, capsys, request, edit, message
):
    snapshot = three_months / "search" / "ranker" / "2026-07-01" / "snapshot.json"
    _mutate_snapshot(snapshot, edit)
    capsys.readouterr()
    got, expected = _fleet_and_reference(
        three_months, tmp_path / "fleet", dt.date(2026, 6, 1), dt.date(2026, 7, 1)
    )
    assert got == expected
    code, err, warnings, views = got
    if request.node.callspec.id in HISTORY_READABLE:
        assert code == 1
        assert err.startswith(f"malformed snapshot {snapshot}: {message}")
        assert warnings == []
        assert views == {}
    else:
        # `mlq history` cannot read it either, so no cohort picks it
        assert code == 0 and err == ""
        assert [w.startswith(f"skipping corrupted snapshot {snapshot}: ") for w in warnings] == [True]
        assert len(views) == 4


@pytest.mark.parametrize("edit, message", MALFORMED_EDITS)
def test_fleet_ignores_malformed_snapshot_no_cohort_picks(
    tmp_path, three_months, capsys, request, edit, message
):
    snapshot = three_months / "search" / "ranker" / "2026-05-01" / "snapshot.json"
    _mutate_snapshot(snapshot, edit)
    capsys.readouterr()
    got, expected = _fleet_and_reference(
        three_months, tmp_path / "fleet", dt.date(2026, 6, 1), dt.date(2026, 7, 1)
    )
    assert got == expected
    code, err, warnings, views = got
    assert code == 0 and err == "" and len(views) == 4
    assert len(warnings) == (request.node.callspec.id not in HISTORY_READABLE)


@pytest.mark.parametrize(
    "victim, named, difference",
    [
        # ranker lacks an attribute of sandbox, the first cohort member
        ("search/ranker", "search/ranker", "lacks accuracy"),
        # sandbox itself lacks it: the next member is the first to differ
        ("lab/sandbox", "search/ranker", "adds accuracy"),
    ],
)
def test_fleet_rejects_cohort_members_assessing_other_attributes(
    tmp_path, registry, capsys, victim, named, difference
):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])

    def without_accuracy(payload):
        return _rederived({
            **payload,
            **{
                key: [row for row in payload[key] if row["sub_characteristic"] != "accuracy"]
                for key in ("gaps", "colors")
            },
        })

    _mutate_snapshot(store / victim / "2026-07-01" / "snapshot.json", without_accuracy)
    capsys.readouterr()
    code = main([
        "fleet", "--store", str(store), "--out", str(tmp_path / "fleet"),
        "--before", "2026-07-01", "--after", "2026-07-01",
    ])
    assert code == 1
    snapshot = store / named / "2026-07-01" / "snapshot.json"
    first = store / "lab" / "sandbox" / "2026-07-01" / "snapshot.json"
    assert capsys.readouterr().err == (
        f"{snapshot} does not assess the same attributes as {first}: {difference}\n"
    )
    assert not (tmp_path / "fleet" / "compliance.csv").exists()


@pytest.mark.parametrize(
    "failure, before",
    [
        ("malformed pick", "2026-06-01"),
        ("empty cohort", "2026-04-01"),
        ("other attributes", "2026-06-01"),
    ],
)
def test_fleet_exit_1_keeps_the_previous_views(tmp_path, three_months, capsys, failure, before):
    out = tmp_path / "fleet"
    argv = ["fleet", "--store", str(three_months), "--out", str(out), "--after", "2026-07-01"]
    assert main([*argv, "--before", "2026-06-01"]) == 0
    previous = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(previous) == 4
    # a run that would write other views: one more month, and a cohort failure
    snapshot = three_months / "search" / "ranker" / "2026-07-01" / "snapshot.json"
    shutil.copytree(snapshot.parent, snapshot.parent.parent / "2026-08-01")
    if failure == "malformed pick":
        _mutate_snapshot(snapshot, MALFORMED_EDITS[0].values[0])
    elif failure == "other attributes":
        _mutate_snapshot(snapshot, lambda payload: {**payload, "gaps": payload["gaps"][1:]})
    capsys.readouterr()
    assert main([*argv, "--before", before]) == 1
    assert capsys.readouterr().out == ""
    assert {path.name: path.read_bytes() for path in out.iterdir()} == previous


FLEET_DAYS = st.integers(2, 7)


@settings(max_examples=60, deadline=None)
@given(
    snapshots=st.lists(
        st.tuples(
            st.sampled_from(["a b", "a_b"]),
            st.sampled_from(["x", "y z", "y_z"]),
            FLEET_DAYS,
            st.dictionaries(
                st.sampled_from(MODEL.ids), st.sampled_from([Gap.SMALL, Gap.LARGE]), max_size=4
            ),
        ),
        min_size=1,
        max_size=8,
    ),
    # mostly inside the drawn days, so that both cohorts are mostly non-empty
    before=st.integers(3, 8),
    after=st.integers(1, 6),
    moved=st.none() | st.tuples(st.integers(0, 7), st.sampled_from(["system", "date"])),
    edited=st.none() | st.tuples(st.integers(0, 7), st.integers(0, len(MALFORMED_EDITS) - 1)),
)
def test_fleet_equals_history_and_load_assessment(snapshots, before, after, moved, edited):
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        store = root / "store"
        for team, system, day, gaps in snapshots:
            gaps = {
                sub_id: gap if gap in MODEL.legal_gaps(sub_id) else Gap.LARGE
                for sub_id, gap in gaps.items()
            }
            assessment = make_assessment(
                MODEL, gaps, team=team, system_id=system, date=dt.date(2026, 1, day)
            )
            persist_assessment(store, evaluate(assessment, MODEL), MODEL)
        if moved is not None:
            # by hand: into another system's directory, or under another date
            dates = sorted(store.glob("*/*/*"))
            source = dates[moved[0] % len(dates)]
            if moved[1] == "system":
                target = source.parent.parent / "moved" / source.name
            else:
                target = source.parent / "2025-12-31"
            target.parent.mkdir(parents=True, exist_ok=True)
            source.rename(target)
        if edited is not None:
            snapshots_now = sorted(store.glob("*/*/*/snapshot.json"))
            edit = MALFORMED_EDITS[edited[1]].values[0]
            _mutate_snapshot(snapshots_now[edited[0] % len(snapshots_now)], edit)
        got, expected = _fleet_and_reference(
            store, root / "fleet", dt.date(2026, 1, before), dt.date(2026, 1, after)
        )
        assert got == expected


def test_history_skips_snapshot_with_infinite_score(tmp_path, registry, capsys):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    snapshot = store / "search" / "ranker" / "2026-07-01" / "snapshot.json"
    _mutate_snapshot(snapshot, lambda payload: {**payload, "quality_score": float("inf")})
    capsys.readouterr()
    assert main(["history", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "search,ranker" not in out and "supply,forecaster" in out


def test_deeply_nested_snapshot_is_reported_not_raised(tmp_path, registry, capsys, caplog):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    snapshot = store / "search" / "ranker" / "2026-07-01" / "snapshot.json"
    snapshot.write_text("[" * 100_000)
    assert main(["history", "--store", str(store)]) == 0
    assert any("skipping corrupted snapshot" in message for message in caplog.messages)
    capsys.readouterr()
    code = main(["report", "--store", str(store), "--team", "search", "--system", "ranker"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"unreadable snapshot {snapshot}: ")


NOT_UTF8 = "ok\n".encode() * 3 + b"\xff rest\n"


@pytest.mark.parametrize(
    "flag", ["--gaps", "--usage", "--fleet", "--model", "--overrides"],
)
def test_input_that_is_not_utf8_exits_1(tmp_path, gaps_csv, registry, capsys, flag):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    usage = tmp_path / "usage.yaml"
    usage.write_text("requests_per_day: 10\n")
    inputs = {"--gaps": gaps_csv, "--usage": usage, "--fleet": registry, flag: bad}
    if flag == "--overrides":
        argv = ["infer", "--registry", str(registry), "--overrides", str(bad)]
    else:
        argv = ["assess", "--team", "t", "--system", "s", "--date", "2026-01-05"]
        for name, path in inputs.items():
            argv += [name, str(path)]
    code = main(argv + ["--store", str(tmp_path / "store")])
    assert code == 1
    assert capsys.readouterr().err == f"{bad}: not valid UTF-8: byte 0xff at offset 9\n"
    assert not (tmp_path / "store").exists()


def test_registry_that_is_not_utf8_exits_1(tmp_path, capsys):
    bad = tmp_path / "snapshot.yaml"
    bad.write_bytes(REGISTRY_YAML.encode() + b"# \xc3\x28\n")
    code = main(["infer", "--registry", str(bad), "--store", str(tmp_path / "store")])
    assert code == 1
    offset = len(REGISTRY_YAML.encode()) + 2
    assert capsys.readouterr().err == (
        f"{bad}: not valid UTF-8: byte 0xc3 at offset {offset}\n"
    )


def _mlq_process(*argv: str | bytes) -> subprocess.CompletedProcess:
    """`mlq *argv` in a fresh interpreter that decodes its command line as
    UTF-8, so a byte that is not UTF-8 reaches it as a lone surrogate."""
    src = str(Path(mlquality.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONUTF8": "1",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run(
        [sys.executable, "-m", "mlquality.cli", *argv],
        capture_output=True, env=env, check=False,
    )


UNSTORABLE = (
    "cannot store team {team!r} system 's' on 2026-01-05: "
    "'\\udcff' is not encodable as UTF-8\n"
)


def test_assess_with_a_team_that_is_not_utf8_writes_nothing(tmp_path, gaps_csv):
    store = tmp_path / "store"
    child = _mlq_process(
        "assess", "--gaps", str(gaps_csv), "--team", b"\xff", "--system", "s",
        "--date", "2026-01-05", "--criticality", "3", "--store", str(store),
    )
    assert (child.returncode, child.stdout) == (1, b"")
    assert child.stderr.decode() == UNSTORABLE.format(team="\udcff")
    assert not store.exists()


def test_re_assess_with_a_family_that_is_not_utf8_keeps_all_three_files(tmp_path, gaps_csv):
    store = tmp_path / "store"
    argv = [
        "assess", "--team", "t", "--system", "s", "--date", "2026-01-05",
        "--criticality", "3", "--store", str(store),
    ]
    assert main([*argv, "--gaps", str(gaps_csv)]) == 0
    directory = store / "t" / "s" / "2026-01-05"
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    changed = tmp_path / "changed.csv"
    changed.write_text(ALL_NO_CSV.replace("verified", "checked again"))
    child = _mlq_process(*argv, "--gaps", str(changed), "--family", b"s,\xff")
    assert (child.returncode, child.stdout) == (1, b"")
    assert child.stderr.decode() == UNSTORABLE.format(team="t")
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before


def test_report_write_failure_keeps_the_previous_file(tmp_path, registry, monkeypatch, capsys):
    import mlquality.store as store_module

    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    target = tmp_path / "report.html"
    target.write_text("previous report")

    def failing_replace(source, destination):
        raise OSError("disk full")

    monkeypatch.setattr(store_module.os, "replace", failing_replace)
    code = main([
        "report", "--store", str(store), "--team", "search", "--system", "ranker",
        "--out", str(target),
    ])
    assert code == 1
    assert "disk full" in capsys.readouterr().err
    assert target.read_text() == "previous report"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "report.html", "snapshot.yaml", "store",
    ]


def test_report_onto_a_directory_exits_1(tmp_path, registry, capsys):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    out = tmp_path / "out"
    out.mkdir()
    code = main([
        "report", "--store", str(store), "--team", "search", "--system", "ranker",
        "--out", str(out),
    ])
    assert code == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "snapshot.yaml", "store"]
    assert list(out.iterdir()) == []


def test_infer_warns_once_per_unknown_overrides_system(tmp_path, registry, caplog):
    overrides = tmp_path / "overrides.yaml"
    overrides.write_text(
        "systems:\n"
        "  zeta: {readability: full}\n"
        "  ranker: {readability: full}\n"
        "  rankr: {modularity: full}\n"
        "  42: {readability: none}\n"
    )
    code = main([
        "infer", "--registry", str(registry), "--overrides", str(overrides),
        "--store", str(tmp_path / "store"),
    ])
    assert code == 0
    unknown = [message for message in caplog.messages if "names no system" in message]
    assert unknown == [
        "overrides: systems.42 names no system in the registry snapshot",
        "overrides: systems.rankr names no system in the registry snapshot",
        "overrides: systems.zeta names no system in the registry snapshot",
    ]


def test_infer_without_unknown_overrides_systems_warns_nothing(tmp_path, registry, caplog):
    overrides = tmp_path / "overrides.yaml"
    overrides.write_text("systems:\n  ranker: {readability: full}\n  sandbox: {}\n")
    code = main([
        "infer", "--registry", str(registry), "--overrides", str(overrides),
        "--store", str(tmp_path / "store"),
    ])
    assert code == 0
    assert not [message for message in caplog.messages if "names no system" in message]


@pytest.mark.parametrize(
    "view", ["distribution.csv", "trend.svg", "compliance.csv", "compliance.svg"]
)
def test_fleet_write_failure_leaves_no_partial_view(
    tmp_path, registry, monkeypatch, capsys, view
):
    import mlquality.store as store_module

    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    out = tmp_path / "fleet"
    out.mkdir()
    (out / view).write_text("previous view")
    real_replace = store_module.os.replace

    def failing_replace(source, destination):
        if destination.name == view:
            raise OSError("disk full")
        real_replace(source, destination)

    monkeypatch.setattr(store_module.os, "replace", failing_replace)
    code = main([
        "fleet", "--store", str(store), "--out", str(out),
        "--before", "2026-07-01", "--after", "2026-07-01",
    ])
    assert code == 1
    assert "disk full" in capsys.readouterr().err
    assert (out / view).read_text() == "previous view"
    assert not [path.name for path in out.iterdir() if path.name.endswith(".tmp")]


def test_form_write_failure_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    import mlquality.store as store_module

    def failing_replace(source, destination):
        raise OSError("disk full")

    monkeypatch.setattr(store_module.os, "replace", failing_replace)
    code = main(["form", "--out", str(tmp_path / "form.csv")])
    assert code == 1
    assert "disk full" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_infer_reads_an_unquoted_decimal_overrides_id_as_text(tmp_path, capsys, caplog):
    registry = tmp_path / "snapshot.yaml"
    registry.write_text(REGISTRY_YAML.replace("system_id: sandbox", 'system_id: "42"'))
    overrides = tmp_path / "overrides.yaml"
    overrides.write_text("systems:\n  42: {readability: full, modularity: full}\n")
    store = tmp_path / "store"
    code = main([
        "infer", "--registry", str(registry), "--overrides", str(overrides),
        "--store", str(store),
    ])
    assert code == 0
    assert not [message for message in caplog.messages if "names no system" in message]
    snapshot = json.loads((store / "lab" / "42" / "2026-07-01" / "snapshot.json").read_text())
    reasons = {row["sub_characteristic"]: row["reason"] for row in snapshot["gaps"]}
    assert "no human review" not in reasons["readability"]


@pytest.mark.parametrize(
    "key, message",
    [
        ("007", "systems.7: unquoted system id reads as the int 7; quote the system id"),
        ("yes", "systems.True: unquoted system id reads as the bool True; quote the system id"),
        ("1.5", "systems.1.5: unquoted system id reads as the float 1.5; quote the system id"),
        ("2026-01-01", "systems.2026-01-01: unquoted system id reads as the date "
         "datetime.date(2026, 1, 1); quote the system id"),
    ],
    ids=["octal", "bool", "float", "date"],
)
def test_infer_rejects_an_overrides_id_that_is_not_text(
    tmp_path, registry, capsys, key, message
):
    overrides = tmp_path / "overrides.yaml"
    overrides.write_text(f"systems:\n  {key}: {{readability: full}}\n")
    code = main([
        "infer", "--registry", str(registry), "--overrides", str(overrides),
        "--store", str(tmp_path / "store"),
    ])
    assert code == 1
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "store").exists()


def test_infer_rejects_an_overrides_id_given_quoted_and_unquoted(tmp_path, registry, capsys):
    overrides = tmp_path / "overrides.yaml"
    overrides.write_text('systems:\n  "42": {}\n  42: {readability: full}\n')
    code = main([
        "infer", "--registry", str(registry), "--overrides", str(overrides),
        "--store", str(tmp_path / "store"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "systems.42: given both quoted and unquoted\n"


def test_assess_refuses_to_overwrite_another_team_in_a_shared_directory(
    tmp_path, gaps_csv, capsys
):
    store = tmp_path / "store"

    def assess(team, criticality):
        return main([
            "assess", "--gaps", str(gaps_csv), "--team", team, "--system", "ranker",
            "--date", "2026-01-05", "--criticality", criticality, "--store", str(store),
        ])

    assert assess("a b", "5") == 0
    directory = store / "a_b" / "ranker" / "2026-01-05"
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    capsys.readouterr()
    assert assess("a_b", "1") == 1
    assert capsys.readouterr().err == (
        f"{directory / 'snapshot.json'} holds team 'a b' system 'ranker'; "
        "team 'a_b' system 'ranker' maps to the same directory and would overwrite it\n"
    )
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
    assert assess("a b", "5") == 0
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before


def test_assess_replaces_a_snapshot_whose_team_is_not_text(tmp_path, gaps_csv, capsys):
    store = tmp_path / "store"
    args = [
        "--store", str(store), "--team", "a_b", "--system", "x", "--date", "2026-01-05",
    ]
    assess = ["assess", "--gaps", str(gaps_csv), "--criticality", "5", *args]
    assert main(assess) == 0
    snapshot = store / "a_b" / "x" / "2026-01-05" / "snapshot.json"
    _mutate_snapshot(
        snapshot, lambda payload: {**payload, "identity": {**payload["identity"], "team": 7}}
    )
    capsys.readouterr()
    assert main(["report", *args, "--out", str(tmp_path / "broken.html")]) == 1
    assert capsys.readouterr().err.startswith(f"malformed snapshot {snapshot}: ")
    assert main(assess) == 0
    out = tmp_path / "r.html"
    assert main(["report", *args, "--out", str(out)]) == 0
    assert out.read_bytes() == (snapshot.parent / "report.html").read_bytes()


@pytest.mark.parametrize("date", [None, "2026-01-05"])
def test_report_never_renders_another_identity_sharing_the_directory(
    tmp_path, gaps_csv, capsys, date
):
    store = tmp_path / "store"
    assert main([
        "assess", "--gaps", str(gaps_csv), "--team", "a_b", "--system", "s",
        "--date", "2026-01-05", "--criticality", "5", "--store", str(store),
    ]) == 0
    out = tmp_path / "r.html"
    capsys.readouterr()
    code = main([
        "report", "--store", str(store), "--team", "a b", "--system", "s", "--out", str(out),
        *(["--date", date] if date else []),
    ])
    assert code == 1
    place = store / "a_b" / "s"
    if date:
        place = place / date / "snapshot.json"
    assert capsys.readouterr().err == (
        f"not found: {place} holds no assessment of team 'a b' system 's'\n"
    )
    assert not out.exists()
    assert main(["history", "--store", str(store), "--team", "a b"]) == 0
    assert capsys.readouterr().out == "team,system,date,quality_score,maturity\n"


def test_report_without_a_date_takes_the_newest_of_its_own_identity(
    tmp_path, gaps_csv, capsys
):
    store = tmp_path / "store"
    for team, date, criticality in (("a b", "2026-01-05", "5"), ("a_b", "2026-02-05", "1")):
        assert main([
            "assess", "--gaps", str(gaps_csv), "--team", team, "--system", "s",
            "--date", date, "--criticality", criticality, "--store", str(store),
        ]) == 0
    for team, date in (("a b", "2026-01-05"), ("a_b", "2026-02-05")):
        out = tmp_path / f"{team}.html"
        assert main([
            "report", "--store", str(store), "--team", team, "--system", "s", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == (store / "a_b" / "s" / date / "report.html").read_bytes()


def test_fleet_never_picks_another_identity_sharing_the_directory(tmp_path, gaps_csv, capsys):
    store = tmp_path / "store"

    def assess(team, date):
        assert main([
            "assess", "--gaps", str(gaps_csv), "--team", team, "--system", "s",
            "--date", date, "--criticality", "5", "--store", str(store),
        ]) == 0

    assess("a b", "2026-01-05")
    # moved by hand under another date: what `a b`'s own path then holds is `a_b`'s
    directory = store / "a_b" / "s"
    (directory / "2026-01-05").rename(directory / "2026-01-01")
    assess("a_b", "2026-01-05")
    capsys.readouterr()
    day = dt.date(2026, 1, 5)
    got, expected = _fleet_and_reference(store, tmp_path / "fleet", day, day)
    assert got == expected
    code, err, _, views = got
    assert (code, views) == (1, {})
    assert err == (
        f"not found: {directory / '2026-01-05' / 'snapshot.json'} holds no assessment "
        "of team 'a b' system 's'\n"
    )


def test_infer_refuses_to_overwrite_another_system_in_a_shared_directory(tmp_path, capsys):
    registry = tmp_path / "snapshot.yaml"
    registry.write_text(REGISTRY_YAML.replace("system_id: forecaster", 'system_id: "x y"'))
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    registry.write_text(REGISTRY_YAML.replace("system_id: forecaster", "system_id: x_y"))
    capsys.readouterr()
    code = main(["infer", "--registry", str(registry), "--store", str(store)])
    assert code == 1
    assert "holds team 'supply' system 'x y'; team 'supply' system 'x_y'" in (
        capsys.readouterr().err
    )


def _store_files(store) -> dict[str, bytes]:
    if not store.exists():
        return {}
    return {
        str(path.relative_to(store)): path.read_bytes()
        for path in sorted(store.rglob("*"))
        if path.is_file()
    }


def test_infer_refuses_records_sharing_a_directory_before_writing(tmp_path, capsys):
    registry = tmp_path / "snapshot.yaml"
    registry.write_text(
        REGISTRY_YAML.replace(
            "system_id: forecaster\n    team: supply", 'system_id: "a b"\n    team: lab'
        ).replace("system_id: sandbox", "system_id: a_b")
    )
    store = tmp_path / "store"
    code = main(["infer", "--registry", str(registry), "--store", str(store)])
    assert code == 1
    assert capsys.readouterr().err == (
        "systems 'a b' (team 'lab') and 'a_b' (team 'lab') map to the same store "
        f"directory {store / 'lab' / 'a_b' / '2026-07-01'}; rename one\n"
    )
    assert _store_files(store) == {}


def test_infer_checks_every_stored_identity_before_writing(tmp_path, capsys):
    registry = tmp_path / "snapshot.yaml"
    registry.write_text(REGISTRY_YAML.replace("system_id: forecaster", 'system_id: "x y"'))
    store = tmp_path / "store"
    assert main(["infer", "--registry", str(registry), "--store", str(store)]) == 0
    before = _store_files(store)
    # ranker comes first and would now be stored with other gaps; x_y
    # collides with the stored "x y"
    registry.write_text(
        REGISTRY_YAML.replace("system_id: forecaster", "system_id: x_y")
        .replace("test_coverage: 0.95", "test_coverage: 0.10")
    )
    capsys.readouterr()
    code = main(["infer", "--registry", str(registry), "--store", str(store)])
    assert code == 1
    captured = capsys.readouterr()
    assert "holds team 'supply' system 'x y'; team 'supply' system 'x_y'" in captured.err
    assert captured.out == ""
    assert _store_files(store) == before


@pytest.mark.parametrize("name", ["x" * 300, ".."], ids=["too long", "dot dot"])
def test_infer_names_the_record_a_store_directory_cannot_hold_before_writing(
    tmp_path, capsys, name
):
    registry = tmp_path / "snapshot.yaml"
    registry.write_text(REGISTRY_YAML.replace("system_id: forecaster", f'system_id: "{name}"'))
    store = tmp_path / "store"
    code = main(["infer", "--registry", str(registry), "--store", str(store)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"systems[1]: identity component {name!r} is not path-safe\n"
    assert captured.out == ""
    assert not store.exists()


def test_assess_with_a_system_name_too_long_for_a_directory_writes_nothing(
    tmp_path, gaps_csv, capsys
):
    store = tmp_path / "store"
    code = main([
        "assess", "--gaps", str(gaps_csv), "--team", "t", "--system", "x" * 300,
        "--date", "2026-01-05", "--criticality", "3", "--store", str(store),
    ])
    assert code == 1
    assert capsys.readouterr().err == f"identity component {'x' * 300!r} is not path-safe\n"
    assert not store.exists()


@pytest.mark.parametrize("name", ["x" * 300, ".."], ids=["too long", "dot dot"])
def test_history_of_a_system_name_no_directory_can_hold_lists_nothing(
    tmp_path, registry, capsys, name
):
    store = tmp_path / "store"
    assert main(["infer", "--registry", str(registry), "--store", str(store)]) == 0
    capsys.readouterr()
    assert main(["history", "--store", str(store), "--system", name]) == 0
    assert capsys.readouterr() == ("team,system,date,quality_score,maturity\n", "")


def test_infer_checks_every_extra_pin_before_writing(tmp_path, registry, capsys):
    overrides = tmp_path / "overrides.yaml"
    # sandbox comes last: ranker and forecaster would be written before it
    overrides.write_text(
        "extra:\n  latency: {gap: large}\n"
        "systems:\n"
        "  sandbox: {extra: {fairness: {gap: small}, accuracy: {gap: small}}}\n"
        "  retired: {extra: {ownership: {gap: small}}}\n"
    )
    store = tmp_path / "store"
    code = main([
        "infer", "--registry", str(registry), "--overrides", str(overrides),
        "--store", str(store),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"{overrides}: overrides: extra.latency: unknown sub-characteristic\n"
        f"{overrides}: systems.sandbox: extra.fairness: small gap illegal "
        "(no minimal requirement)\n"
        f"{overrides}: systems.retired: extra.ownership: small gap illegal "
        "(no minimal requirement)\n"
    )
    assert captured.out == ""
    assert _store_files(store) == {}


def test_infer_assesses_small_evidence_as_large_without_a_minimal_requirement(
    tmp_path, capsys
):
    model = tmp_path / "model.yaml"
    model.write_text(
        "sub_characteristics: {testability: {minimal_requirement: null}}\n"
        "matrix: {testability: ['-', '-', full, full, full]}\n"
    )
    registry = tmp_path / "snapshot.yaml"
    # the second system's coverage meets only the 20% bar
    registry.write_text(REGISTRY_YAML.replace(
        "    requests_per_day: 100\n", "    requests_per_day: 100\n    test_coverage: 0.5\n"
    ))
    store = tmp_path / "store"
    code = main([
        "infer", "--registry", str(registry), "--store", str(store), "--model", str(model),
    ])
    assert code == 0, capsys.readouterr().err
    assert len(list(store.glob("*/*/*/snapshot.json"))) == 3
    payload = json.loads((store / "supply" / "forecaster" / "2026-07-01" / "snapshot.json")
                         .read_text())
    (testability,) = [row for row in payload["gaps"] if row["sub_characteristic"] == "testability"]
    assert testability == {
        "sub_characteristic": "testability",
        "gap": "large",
        "reason": "test coverage 50% meets only the 20% bar",
    }


def test_history_skips_a_snapshot_whose_team_is_not_text(tmp_path, registry, capsys, caplog):
    store = tmp_path / "store"
    main(["infer", "--registry", str(registry), "--store", str(store)])
    snapshot = store / "search" / "ranker" / "2026-07-01" / "snapshot.json"
    _mutate_snapshot(snapshot, lambda payload: {
        **payload, "identity": {**payload["identity"], "team": 7},
    })
    capsys.readouterr()
    assert main(["history", "--store", str(store)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["lab", "sandbox"], ["supply", "forecaster"]]
    assert [message for message in caplog.messages if "skipping" in message] == [
        f"skipping corrupted snapshot {snapshot}: team must be text, not int"
    ]


BOM_MESSAGE = (
    "line 1: file starts with a UTF-8 byte order mark; save it as UTF-8 without one\n"
)


def test_gaps_csv_with_a_byte_order_mark_is_named(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    path.write_bytes(b"\xef\xbb\xbf" + ALL_NO_CSV.encode())
    store = tmp_path / "store"
    code = main([
        "assess", "--gaps", str(path), "--team", "t", "--system", "s",
        "--date", "2026-01-05", "--criticality", "3", "--store", str(store),
    ])
    assert code == 1
    assert capsys.readouterr().err == BOM_MESSAGE
    assert not store.exists()
    assert main(["validate", "--gaps", str(path)]) == 1
    assert capsys.readouterr().err == BOM_MESSAGE
