"""What each command imports, and the public names that resolve on first
use: `mlquality.X` and the `mlquality.cli` bindings a tracer wraps."""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from enum import Enum
from pathlib import Path

import pytest

import mlquality
from mlquality.cli import main
from mlquality.model import default_model

SRC = Path(mlquality.__file__).resolve().parents[1]
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

GAPS_CSV = "sub_characteristic,gap,reason\n" + "".join(
    f"{sub_id},no,verified\n" for sub_id in default_model().ids
)
REGISTRY_YAML = """\
schema_version: 1
snapshot_date: 2026-07-01
systems:
  - {system_id: ranker, team: search, in_production: true, requests_per_day: 500}
  - {system_id: sandbox, team: lab, in_production: false, training_duration: 10}
"""
# modules neither `mlq assess --criticality` nor `mlq report` runs, and
# two they need not load: `html` (its `html.entities` table) to escape
# five characters, and OpenSSL (`_hashlib`) to hash one string
NOT_FOR_DESK = {
    "yaml", "mlquality.registry", "mlquality.analytics", "mlquality.form", "html",
    "_hashlib",
}


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True, text=True, env=env, check=False,
    )


def _modules_loaded_by(*commands: list[str]) -> set[str]:
    """Modules a fresh interpreter loads to import the CLI and run
    `commands` through `main`, beyond those loaded at start-up."""
    child = _run(
        """
        import json, sys
        started = set(sys.modules)
        from mlquality.cli import main
        for argv in json.loads(sys.argv[1]):
            if main(argv) != 0:
                sys.exit(f"mlq {argv[0]} failed")
        print(json.dumps(sorted(set(sys.modules) - started)))
        """,
        json.dumps(commands),
    )
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


@pytest.fixture()
def desk_store(tmp_path):
    """A gaps CSV and a store holding one assessment of search/ranker."""
    gaps = tmp_path / "gaps.csv"
    gaps.write_text(GAPS_CSV)
    store = tmp_path / "store"
    assert main(_assess(gaps, store, "2026-01-05")) == 0
    return gaps, store


def _assess(gaps: Path, store: Path, date: str) -> list[str]:
    return ["assess", "--gaps", str(gaps), "--team", "search", "--system", "ranker",
            "--date", date, "--criticality", "3", "--store", str(store)]


def test_assess_loads_no_yaml_registry_analytics_or_form(desk_store):
    gaps, store = desk_store
    loaded = _modules_loaded_by(_assess(gaps, store, "2026-02-01"))
    assert "mlquality.store" in loaded
    assert loaded & NOT_FOR_DESK == set()


def test_report_loads_no_yaml_registry_analytics_form_or_hashlib(desk_store):
    _, store = desk_store
    loaded = _modules_loaded_by(
        ["report", "--team", "search", "--system", "ranker", "--store", str(store)]
    )
    assert "mlquality.report" in loaded
    assert loaded & (NOT_FOR_DESK | {"hashlib"}) == set()


def test_infer_and_fleet_load_what_they_run(tmp_path):
    registry = tmp_path / "snapshot.yaml"
    registry.write_text(REGISTRY_YAML)
    store = tmp_path / "store"
    loaded = _modules_loaded_by(
        ["infer", "--registry", str(registry), "--store", str(store)],
        ["fleet", "--store", str(store), "--out", str(tmp_path / "fleet"),
         "--before", "2026-07-01", "--after", "2026-07-01"],
    )
    assert {"yaml", "mlquality.registry", "mlquality.analytics"} <= loaded
    assert "_hashlib" not in loaded
    assert "mlquality.form" not in loaded
    assert len((tmp_path / "fleet" / "compliance.csv").read_text().splitlines()) == 26


def test_every_public_name_resolves_and_is_listed():
    listed = dir(mlquality)
    for name in mlquality.__all__:
        assert name in listed
        value = getattr(mlquality, name)
        module = importlib.import_module(f"mlquality.{mlquality._MODULE_OF[name]}")
        assert value is getattr(module, name)
    assert mlquality.__all__ == sorted(mlquality.__all__)
    assert len(mlquality.__all__) == 59


def test_records_on_the_desk_path_are_named_tuples():
    """`@dataclass` generates and compiles each class's methods at import,
    so every record `mlq assess` and `mlq report` import is a NamedTuple,
    except the two whose construction checks or derives: `Assessment` and
    `QualityModel`."""
    records = {}
    for name in ("model", "assessment", "scoring", "report", "store"):
        module = importlib.import_module(f"mlquality.{name}")
        for attribute, value in vars(module).items():
            if (inspect.isclass(value) and value.__module__ == module.__name__
                    and not attribute.startswith("_")
                    and not issubclass(value, (Enum, Exception))):
                records[attribute] = value
    others = {
        name for name, cls in records.items()
        if not (issubclass(cls, tuple) and hasattr(cls, "_fields"))
    }
    assert others == {"Assessment", "QualityModel"}
    assert len(records) == 12


def test_star_import_and_from_import_behave_as_eager_exports():
    child = _run(
        """
        import sys
        import mlquality
        assert "mlquality.registry" not in sys.modules
        namespace = {}
        exec("from mlquality import *", namespace)
        missing = set(mlquality.__all__) - set(namespace)
        assert not missing, missing
        from mlquality import SystemMetadata, cli, evaluate
        assert cli.main and SystemMetadata.__module__ == "mlquality.registry"
        assert mlquality.evaluate is evaluate
        try:
            mlquality.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
        """
    )
    assert child.returncode == 0, child.stderr


def _tracer_targets() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return list(spans.TARGETS)


def test_every_traced_binding_resolves_in_a_fresh_process():
    targets = _tracer_targets()
    assert len(targets) == 18
    child = _run(
        """
        import importlib, json, sys
        missing = [
            (module, name)
            for module, name, _ in json.loads(sys.argv[1])
            if not callable(getattr(importlib.import_module(module), name, None))
        ]
        assert not missing, missing
        """,
        json.dumps(targets),
    )
    assert child.returncode == 0, child.stderr


def test_doubles_bound_before_the_first_command_are_kept(tmp_path):
    registry = tmp_path / "snapshot.yaml"
    registry.write_text(REGISTRY_YAML)
    store = tmp_path / "store"
    child = _run(
        """
        import sys
        import mlquality.cli as cli
        from mlquality.analytics import render_trend_chart

        calls = []

        def double(name, real):
            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted

        # replaced without being read first, before analytics is bound
        cli.render_trend_chart = double("render_trend_chart", render_trend_chart)
        # as a tracer does: read the binding, then replace it
        for name in ("load_registry_snapshot", "infer_gaps", "score_distribution"):
            setattr(cli, name, double(name, getattr(cli, name)))
        registry, store, out = sys.argv[1:]
        assert cli.main(["infer", "--registry", registry, "--store", store]) == 0
        assert cli.main(["fleet", "--store", store, "--out", out]) == 0
        print(",".join(calls))
        """,
        str(registry), str(store), str(tmp_path / "fleet"),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == (
        "load_registry_snapshot,infer_gaps,infer_gaps,score_distribution,render_trend_chart"
    )
