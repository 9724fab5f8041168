"""Every `mlq` command ends in exit code 0, 1 or 2 on malformed input.

Two properties: byte mutations of each input file (gaps CSV, registry
snapshot, overrides, model and usage file) run through every command that
reads it, and JSON-aware edits of a stored `snapshot.json` run through the
commands that read the store. Neither may raise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlquality.cli import main
from mlquality.model import default_model

MODEL = default_model()

# the second system meets only the 20% test coverage bar, which this model
# has no rung for
INPUTS = {
    "gaps.csv": "sub_characteristic,gap,reason\n" + "".join(
        f"{sub_id},{'large' if index % 3 else 'no'},reason {index}\n"
        for index, sub_id in enumerate(MODEL.ids)
    ),
    "registry.yaml": """\
schema_version: 1
snapshot_date: 2026-07-01
systems:
  - system_id: ranker
    team: search
    in_production: true
    requests_per_day: 50000
    training_duration: 45
    test_coverage: 0.95
    owner_team: search
  - system_id: forecaster
    team: supply
    in_production: true
    requests_per_day: 100
    training_duration: 300
    test_coverage: 0.5
""",
    "overrides.yaml": """\
readability: full
systems:
  ranker:
    modularity: partial
    extra:
      fairness: {gap: large, reason: audit expired}
""",
    "model.yaml": """\
sub_characteristics:
  testability: {minimal_requirement: null}
matrix:
  testability: ["-", "-", full, full, full]
""",
    "usage.yaml": "requests_per_day: 5000\nin_production: true\ndependent_consumers: 2\n",
}

# every command, reading whichever input it names from `d`
COMMANDS = [
    ["assess", "--gaps", "{d}/gaps.csv", "--team", "t", "--system", "s", "--date", "2026-07-01",
     "--usage", "{d}/usage.yaml", "--fleet", "{d}/registry.yaml", "--model", "{d}/model.yaml",
     "--store", "{d}/store"],
    ["infer", "--registry", "{d}/registry.yaml", "--overrides", "{d}/overrides.yaml",
     "--model", "{d}/model.yaml", "--store", "{d}/store"],
    ["validate", "--gaps", "{d}/gaps.csv", "--model", "{d}/model.yaml"],
    ["form", "--model", "{d}/model.yaml", "--out", "{d}/form.csv"],
    ["report", "--team", "t", "--system", "s", "--model", "{d}/model.yaml", "--store", "{d}/store"],
    ["history", "--store", "{d}/store"],
    ["fleet", "--store", "{d}/store", "--out", "{d}/fleet",
     "--before", "2026-07-01", "--after", "2026-07-01"],
]


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
    return code


def _mutate_bytes(data: bytes, edits) -> bytes:
    for operation, position, chunk in edits:
        at = position % (len(data) + 1)
        if operation == "replace":
            data = data[:at] + chunk + data[at + len(chunk):]
        elif operation == "insert":
            data = data[:at] + chunk + data[at:]
        else:
            data = data[:at] + data[at + len(chunk) + 1:]
    return data


BYTE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 4096),
        st.binary(min_size=1, max_size=4) | st.sampled_from([b"\n", b":", b"-", b",", b"'"]),
    ),
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(target=st.sampled_from(sorted(INPUTS)), edits=BYTE_EDITS)
# unmutated: the model without a testability rung once stopped `mlq infer`
# after the first system
@example(target="model.yaml", edits=[])
# a count too large for a float
@example(
    target="registry.yaml",
    edits=[("insert", INPUTS["registry.yaml"].index("50000"), b"9" * 400)],
)
def test_no_command_raises_on_mutated_input_files(target, edits):
    with tempfile.TemporaryDirectory() as directory:
        for name, text in INPUTS.items():
            data = text.encode()
            Path(directory, name).write_bytes(_mutate_bytes(data, edits) if name == target else data)
        codes = [_run([arg.format(d=directory) for arg in argv]) for argv in COMMANDS]
        if not edits:
            assert codes == [0] * len(COMMANDS)


@pytest.fixture(scope="module")
def store_template(tmp_path_factory):
    """The test registry inferred on two dates; `--before 2026-07-01
    --after 2026-06-01` picks search/ranker's 2026-07-01 snapshot twice."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "registry.yaml").write_text(INPUTS["registry.yaml"])
    for date in ("2026-06-01", "2026-07-01"):
        assert _run(["infer", "--registry", str(directory / "registry.yaml"),
                     "--store", str(directory / "store"), "--date", date]) == 0
    return directory / "store"


# a JSON value of each type, for a swapped leaf; 10**400 is too large for a float
LEAVES = [None, True, 0, 7, -1, 1.5, 10**30, 10**400, "", "x", "2026-07-01", [], {}]
STORE_COMMANDS = [
    ["report", "--team", "search", "--system", "ranker"],
    ["report", "--team", "search", "--system", "ranker", "--model", "{d}/model.yaml"],
    ["history"],
    ["history", "--team", "search", "--system", "ranker"],
    ["fleet", "--out", "{d}/fleet", "--before", "2026-07-01", "--after", "2026-06-01"],
]


def _edit_json(payload, path: list[int], operation: str, leaf):
    """Walk `path` down `payload` (each step an index into a list or into a
    mapping's sorted keys, modulo its size), then drop the child reached,
    swap it for `leaf`, or insert `leaf` beside it: under the new key
    `inserted` in a mapping, before it in a list. Stops early at a leaf or
    an empty container."""
    parent, key = None, None
    node = payload
    for step in path:
        if not isinstance(node, (list, dict)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, list(keys)[step % len(node)]
        node = node[key]
    if parent is None:
        return leaf if operation == "swap" else {}
    if operation == "swap":
        parent[key] = leaf
    elif operation == "insert" and isinstance(parent, dict):
        parent["inserted"] = leaf
    elif operation == "insert":
        parent.insert(key, leaf)
    else:
        del parent[key]
    return payload


# the snapshot's top-level keys, sorted: characteristic_scores 0, colors 1,
# criticality 2, gaps 3, identity 4, ...; rows' keys sorted likewise
@settings(max_examples=80, deadline=None)
@given(
    path=st.lists(st.integers(0, 30), min_size=1, max_size=4),
    operation=st.sampled_from(["drop", "swap"]),
    leaf=st.sampled_from(LEAVES),
)
@example(path=[3, 0], operation="drop", leaf=None)  # gaps lack an attribute colors name
@example(path=[0, 0], operation="drop", leaf=None)  # a characteristic without a score
@example(path=[3, 0, 1], operation="swap", leaf=7)  # a number as a gap's reason
@example(path=[2, 0], operation="swap", leaf=7)  # a number as the justification
@example(path=[4, 3], operation="swap", leaf=7)  # a number as the team
@example(path=[7], operation="swap", leaf=10**400)  # a quality score too large for a float
@example(path=[0, 0, 1], operation="swap", leaf=10**400)  # a characteristic score likewise
def test_no_command_raises_on_an_edited_snapshot(store_template, path, operation, leaf):
    with tempfile.TemporaryDirectory() as directory:
        store = Path(directory, "store")
        shutil.copytree(store_template, store)
        snapshot = store / "search" / "ranker" / "2026-07-01" / "snapshot.json"
        payload = _edit_json(json.loads(snapshot.read_text()), path, operation, leaf)
        snapshot.write_text(json.dumps(payload))
        Path(directory, "model.yaml").write_text(INPUTS["model.yaml"])
        for argv in STORE_COMMANDS:
            _run([arg.format(d=directory) for arg in argv] + ["--store", str(store)])
