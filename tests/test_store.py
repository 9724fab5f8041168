"""Versioned store: layout, reproducibility, history."""

from __future__ import annotations

import builtins
import copy
import datetime as dt
import errno
import io
import json
import logging
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlquality.store as store
from conftest import DATE, make_assessment
from test_cli_fuzz import LEAVES, _edit_json
from mlquality.assessment import Assessment, GapEntry
from mlquality.errors import StoreError
from mlquality.model import Gap, default_model, load_quality_model
from mlquality.report import render_report
from mlquality.scoring import BusinessCriticality, CriticalityLevel, GapColor, evaluate
from mlquality.store import (
    HistoryRow,
    check_identity,
    history,
    load_assessment,
    model_fingerprint,
    persist_assessment,
    sanitize_component,
    write_text_atomic,
)


def _persist(model, tmp_path, gaps=None, **identity):
    result = evaluate(make_assessment(model, gaps, **identity), model)
    return result, persist_assessment(tmp_path, result, model)


def test_layout_and_files(model, tmp_path):
    _, stored = _persist(model, tmp_path, team="search", system_id="ranker")
    assert stored.directory == tmp_path / "search" / "ranker" / "2026-01-05"
    assert stored.gaps_csv.name == "gaps.csv"
    assert stored.snapshot.name == "snapshot.json"
    assert stored.report.name == "report.html"
    for path in (stored.gaps_csv, stored.snapshot, stored.report):
        assert path.is_file()


def test_persist_twice_is_byte_identical(model, tmp_path):
    result, stored = _persist(model, tmp_path, gaps={"monitoring": Gap.SMALL})
    before = {path: path.read_bytes() for path in stored.directory.iterdir()}
    persist_assessment(tmp_path, result, model)
    after = {path: path.read_bytes() for path in stored.directory.iterdir()}
    assert before == after


def test_identity_sanitization_keeps_original_names(model, tmp_path):
    _, stored = _persist(model, tmp_path, team="a/b", system_id="my system")
    assert stored.directory == tmp_path / "a_b" / "my_system" / "2026-01-05"
    payload = json.loads(stored.snapshot.read_text())
    assert payload["identity"]["team"] == "a/b"
    assert payload["identity"]["system"] == "my system"
    loaded = load_assessment(tmp_path, "a/b", "my system")
    assert loaded.assessment.team == "a/b"


def test_sanitize_component_rejects_unsafe_names():
    assert sanitize_component("a/b") == "a_b"
    assert sanitize_component("two  words") == "two_words"
    for bad in ("", "   ", ".", ".."):
        with pytest.raises(StoreError):
            sanitize_component(bad)


def test_load_round_trips_the_result(model, tmp_path):
    result, _ = _persist(
        model, tmp_path, gaps={"testability": Gap.LARGE, "monitoring": Gap.SMALL}
    )
    loaded = load_assessment(tmp_path, "search", "ranker", date=dt.date(2026, 1, 5))
    assert loaded == result


def test_load_then_render_matches_stored_report(model, tmp_path):
    _, stored = _persist(model, tmp_path, gaps={"adaptability": Gap.SMALL})
    loaded = load_assessment(tmp_path, "search", "ranker")
    assert render_report(loaded).html == stored.report.read_text()


def test_load_without_date_picks_latest(model, tmp_path):
    _persist(model, tmp_path, date=dt.date(2026, 1, 5))
    newer = evaluate(
        make_assessment(model, {"monitoring": Gap.SMALL}, date=dt.date(2026, 3, 1)),
        model,
    )
    persist_assessment(tmp_path, newer, model)
    loaded = load_assessment(tmp_path, "search", "ranker")
    assert loaded.assessment.date == dt.date(2026, 3, 1)


def test_load_missing_directory_names_path(model, tmp_path):
    with pytest.raises(StoreError) as excinfo:
        load_assessment(tmp_path, "nobody", "nothing")
    assert "not found" in str(excinfo.value)
    assert "nobody" in str(excinfo.value)


def test_load_warns_on_model_fingerprint_mismatch(model, tmp_path, caplog):
    result, _ = _persist(model, tmp_path)
    other = load_quality_model(
        "sub_characteristics:\n  testability:\n    remediation: Different text\n"
    )
    assert model_fingerprint(other) != model_fingerprint(model)
    with caplog.at_level(logging.WARNING):
        loaded = load_assessment(tmp_path, "search", "ranker", model=other)
    assert loaded == result
    assert any("different model" in message for message in caplog.messages)


def test_history_empty_root(tmp_path):
    assert history(tmp_path / "missing") == []


def test_history_sorted_and_filtered(model, tmp_path):
    for team, system, day in (
        ("search", "ranker", 5),
        ("search", "ranker", 3),
        ("ads", "bidder", 1),
        ("search", "suggest", 2),
    ):
        result = evaluate(
            make_assessment(
                model, team=team, system_id=system, date=dt.date(2026, 1, day)
            ),
            model,
        )
        persist_assessment(tmp_path, result, model)
    rows = history(tmp_path)
    assert [(row.team, row.system, row.date.day) for row in rows] == [
        ("ads", "bidder", 1),
        ("search", "ranker", 3),
        ("search", "ranker", 5),
        ("search", "suggest", 2),
    ]
    assert all(row.quality_score == 100 and row.maturity == 5 for row in rows)
    only_ranker = history(tmp_path, team="search", system="ranker")
    assert len(only_ranker) == 2


def test_history_skips_corrupted_snapshot(model, tmp_path, caplog):
    for day in (1, 2, 3):
        result = evaluate(make_assessment(model, date=dt.date(2026, 1, day)), model)
        persist_assessment(tmp_path, result, model)
    victim = tmp_path / "search" / "ranker" / "2026-01-02" / "snapshot.json"
    victim.write_text("{ not json")
    with caplog.at_level(logging.WARNING):
        rows = history(tmp_path)
    assert [row.date.day for row in rows] == [1, 3]
    assert any("corrupted" in message for message in caplog.messages)


def test_deleting_a_date_removes_exactly_one_row(model, tmp_path):
    import shutil

    for day in (1, 2):
        result = evaluate(make_assessment(model, date=dt.date(2026, 1, day)), model)
        persist_assessment(tmp_path, result, model)
    assert len(history(tmp_path)) == 2
    shutil.rmtree(tmp_path / "search" / "ranker" / "2026-01-01")
    rows = history(tmp_path)
    assert rows == [
        HistoryRow(
            team="search",
            system="ranker",
            date=dt.date(2026, 1, 2),
            quality_score=100,
            maturity=5,
        )
    ]


def test_gaps_csv_uses_canonical_word_tokens(model, tmp_path):
    _, stored = _persist(model, tmp_path, gaps={"testability": Gap.LARGE})
    lines = stored.gaps_csv.read_text().splitlines()
    assert lines[0] == "sub_characteristic,gap,reason"
    assert len(lines) == 26
    assert any(line.startswith("testability,large,") for line in lines)


def test_snapshot_is_canonical_json(model, tmp_path):
    _, stored = _persist(model, tmp_path)
    text = stored.snapshot.read_text()
    assert text.endswith("\n")
    payload = json.loads(text)
    rebuilt = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert rebuilt == text
    assert payload["snapshot_version"] == 1
    assert payload["model_fingerprint"] == model_fingerprint(model)


def _persist_identities(model, root, identities):
    for team, system, day in identities:
        result = evaluate(
            make_assessment(model, team=team, system_id=system, date=dt.date(2026, 1, day)),
            model,
        )
        persist_assessment(root, result, model)


def _record_reads(monkeypatch) -> list[Path]:
    """Paths of the snapshots opened for reading from now on, counted at
    the builtin `open`, whatever store function opens them."""
    reads: list[Path] = []
    real_open = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if "r" in mode and isinstance(file, (str, os.PathLike)):
            if os.path.basename(os.fspath(file)) == store.SNAPSHOT_FILE:
                reads.append(Path(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    return reads


def _identities(rows):
    return [(row.team, row.system, row.date.day) for row in rows]


SCOPED_STORE = (
    ("search", "ranker", 1),
    ("search", "ranker", 2),
    ("search", "suggest", 1),
    ("ads", "ranker", 3),
    ("ads", "bidder", 1),
)


@pytest.mark.parametrize(
    "team, system, expected, directories",
    [
        (
            "search", None,
            [("search", "ranker", 1), ("search", "ranker", 2), ("search", "suggest", 1)],
            {"search/ranker", "search/suggest"},
        ),
        (
            None, "ranker",
            [("ads", "ranker", 3), ("search", "ranker", 1), ("search", "ranker", 2)],
            {"ads/ranker", "search/ranker"},
        ),
        (
            "search", "ranker",
            [("search", "ranker", 1), ("search", "ranker", 2)],
            {"search/ranker"},
        ),
        ("nobody", None, [], set()),
        (None, "nothing", [], set()),
    ],
    ids=["team", "system", "team+system", "unknown team", "unknown system"],
)
def test_history_scope_reads_only_matching_directories(
    model, tmp_path, monkeypatch, team, system, expected, directories
):
    _persist_identities(model, tmp_path, SCOPED_STORE)
    reads = _record_reads(monkeypatch)
    rows = history(tmp_path, team=team, system=system)
    assert _identities(rows) == expected
    assert {path.parent.parent.relative_to(tmp_path).as_posix() for path in reads} == directories
    assert len(reads) == len(expected)


@pytest.mark.parametrize("name", ["team[1]", "*", "?", "t[!x]"])
def test_history_scope_reads_glob_metacharacters_literally(
    model, tmp_path, monkeypatch, name
):
    # each name, read as a pattern, would match one of the other directories
    others = ("team1", "tx", "tt", "x")
    _persist_identities(
        model,
        tmp_path,
        [(name, "s", 1), (name, "s", 2)]
        + [(other, "s", 1) for other in others]
        + [("t", name, 1)]
        + [("t", other, 1) for other in others],
    )
    reads = _record_reads(monkeypatch)
    assert _identities(history(tmp_path, team=name)) == [(name, "s", 1), (name, "s", 2)]
    assert _identities(history(tmp_path, team=name, system="s")) == [
        (name, "s", 1),
        (name, "s", 2),
    ]
    assert _identities(history(tmp_path, system=name)) == [("t", name, 1)]
    assert _identities(history(tmp_path, team="t", system=name)) == [("t", name, 1)]
    assert len(reads) == 6
    assert load_assessment(tmp_path, name, "s").assessment.date == dt.date(2026, 1, 2)
    assert load_assessment(tmp_path, "t", name).assessment.system_id == name


def test_history_scope_keeps_exact_identity_in_a_shared_directory(model, tmp_path):
    # "a b" and "a_b" both live under a_b/; each lookup returns its own rows
    _persist_identities(
        model, tmp_path, [("a b", "s", 1), ("a_b", "s", 2), ("t", "x y", 3), ("t", "x_y", 4)]
    )
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a_b", "t"]
    assert sorted(path.name for path in (tmp_path / "t").iterdir()) == ["x_y"]
    assert _identities(history(tmp_path, team="a b")) == [("a b", "s", 1)]
    assert _identities(history(tmp_path, team="a_b")) == [("a_b", "s", 2)]
    assert _identities(history(tmp_path, team="t", system="x y")) == [("t", "x y", 3)]
    assert _identities(history(tmp_path, system="x_y")) == [("t", "x_y", 4)]


@pytest.mark.parametrize("name", ["..", ".", "", "   "])
def test_history_scope_with_unsafe_name_is_empty(model, tmp_path, name):
    _persist_identities(model, tmp_path, [("search", "ranker", 1)])
    assert history(tmp_path, team=name) == []
    assert history(tmp_path, system=name) == []
    assert history(tmp_path, team="search", system=name) == []


def test_history_scope_skips_other_systems_corrupted_snapshot(model, tmp_path, caplog):
    _persist_identities(
        model, tmp_path, [("search", "ranker", 1), ("search", "suggest", 1), ("ads", "x", 1)]
    )
    for team, system in (("search", "suggest"), ("ads", "x")):
        (tmp_path / team / system / "2026-01-01" / "snapshot.json").write_text("{ not json")
    with caplog.at_level(logging.WARNING):
        rows = history(tmp_path, team="search", system="ranker")
    assert _identities(rows) == [("search", "ranker", 1)]
    assert caplog.messages == []
    with caplog.at_level(logging.WARNING):
        history(tmp_path, team="search")
    assert len(caplog.messages) == 1 and "suggest" in caplog.messages[0]


NAMES = ["a b", "a_b", "t[1]", "t1", "*", "?", "x"]


@settings(max_examples=40, deadline=None)
@given(
    identities=st.lists(
        st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES), st.integers(1, 3)),
        max_size=6,
    ),
    team=st.sampled_from(NAMES + [None, "..", "", "zz"]),
    system=st.sampled_from(NAMES + [None, "..", "", "zz"]),
)
def test_history_scope_equals_filtered_full_listing(identities, team, system):
    model = default_model()
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        _persist_identities(model, root, identities)
        everything = history(root)
        assert history(root, team=team, system=system) == [
            row
            for row in everything
            if (team is None or row.team == team)
            and (system is None or row.system == system)
        ]


def test_atomic_write_leaves_another_writers_temp_file_alone(tmp_path):
    target = tmp_path / "report.html"
    theirs = tmp_path / "report.html.tmp"
    theirs.write_text("another writer, mid-write")
    write_text_atomic(target, "mine\n")
    assert target.read_text(encoding="utf-8") == "mine\n"
    assert theirs.read_text() == "another writer, mid-write"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "report.html", "report.html.tmp",
    ]


def test_atomic_write_uses_a_fresh_temp_name_per_call(tmp_path, monkeypatch):
    moved = []
    replace = store.os.replace

    def recording_replace(source, destination):
        moved.append(Path(source))
        replace(source, destination)

    monkeypatch.setattr(store.os, "replace", recording_replace)
    target = tmp_path / "snapshot.json"
    write_text_atomic(target, "one")
    write_text_atomic(target, "two")
    assert len(set(moved)) == 2
    assert all(path.parent == tmp_path for path in moved)
    assert [path.name for path in tmp_path.iterdir()] == ["snapshot.json"]


def test_atomic_write_keeps_the_plain_file_mode(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    atomic = tmp_path / "atomic.txt"
    write_text_atomic(atomic, "x")
    assert atomic.stat().st_mode == plain.stat().st_mode


def test_check_identity_refuses_another_identity_in_the_same_directory(model, tmp_path):
    _, stored = _persist(model, tmp_path, team="a b", system_id="x y")
    for team, system in (("a_b", "x y"), ("a b", "x_y"), ("a_b", "x_y")):
        with pytest.raises(StoreError) as caught:
            check_identity(tmp_path, make_assessment(model, team=team, system_id=system))
        assert str(caught.value) == (
            f"{stored.snapshot} holds team 'a b' system 'x y'; "
            f"team {team!r} system {system!r} maps to the same directory and would "
            "overwrite it"
        )


def test_check_identity_allows_the_same_identity_and_other_dates(model, tmp_path):
    _persist(model, tmp_path, team="a b", system_id="x")
    for team, date, family in (
        ("a b", DATE, ()),
        ("a b", DATE, ("x", "y")),
        ("a_b", dt.date(2026, 2, 1), ()),
        ("new", DATE, ()),
    ):
        assessment = make_assessment(
            model, team=team, system_id="x", date=date, family=family
        )
        check_identity(tmp_path, assessment)


@pytest.mark.parametrize(
    "content",
    [
        "{ not json",
        '{"snapshot_version": 1}',
        "[]",
        '{"snapshot_version": 1, "identity": {"team": 7, "system": "x"}}',
    ],
)
def test_check_identity_lets_an_unreadable_snapshot_be_replaced(model, tmp_path, content):
    _, stored = _persist(model, tmp_path, team="a b", system_id="x")
    stored.snapshot.write_text(content)
    check_identity(tmp_path, make_assessment(model, team="a_b", system_id="x"))


WRITE_ORDER = ["gaps.csv", "report.html", "snapshot.json"]


def _fail_kth_write(monkeypatch, k: int) -> list[str]:
    """Make the k-th `write_text_atomic` call of the store raise; returns
    the names of the files it was asked to write, in order."""
    asked: list[str] = []
    real = store.write_text_atomic

    def failing(path, content):
        asked.append(path.name)
        if len(asked) == k:
            raise OSError(f"injected failure writing {path.name}")
        real(path, content)

    monkeypatch.setattr(store, "write_text_atomic", failing)
    return asked


def _report_exit(root, capsys) -> tuple[int, str]:
    from mlquality.cli import main

    capsys.readouterr()
    code = main(["report", "--store", str(root), "--team", "search", "--system", "ranker"])
    return code, capsys.readouterr().err


def test_interrupted_first_persist_leaves_nothing_readers_see(
    model, tmp_path, monkeypatch, capsys
):
    result = evaluate(make_assessment(model, {"monitoring": Gap.SMALL}), model)
    for k in (1, 2, 3):
        root = tmp_path / f"fail-{k}"
        asked = _fail_kth_write(monkeypatch, k)
        with pytest.raises(OSError, match="injected"):
            persist_assessment(root, result, model)
        monkeypatch.undo()
        assert asked == WRITE_ORDER[:k]
        directory = root / "search" / "ranker" / DATE.isoformat()
        assert sorted(path.name for path in directory.iterdir()) == WRITE_ORDER[: k - 1]
        assert history(root) == []
        assert _report_exit(root, capsys) == (
            1, f"not found: no assessments under {root / 'search' / 'ranker'}\n"
        )


def test_interrupted_re_persist_keeps_the_previous_result(
    model, tmp_path, monkeypatch, capsys
):
    previous = evaluate(make_assessment(model, {"monitoring": Gap.SMALL}), model)
    replacement = evaluate(
        make_assessment(model, {"monitoring": Gap.LARGE, "accuracy": Gap.LARGE}), model
    )
    assert replacement.quality_score != previous.quality_score
    for k in (1, 2, 3):
        root = tmp_path / f"fail-{k}"
        stored = persist_assessment(root, previous, model)
        before = {path.name: path.read_bytes() for path in stored.directory.iterdir()}
        asked = _fail_kth_write(monkeypatch, k)
        with pytest.raises(OSError, match="injected"):
            persist_assessment(root, replacement, model)
        monkeypatch.undo()
        assert asked == WRITE_ORDER[:k]
        assert stored.snapshot.read_bytes() == before["snapshot.json"]
        assert history(root) == [
            HistoryRow("search", "ranker", DATE, previous.quality_score, previous.maturity)
        ]
        # the report re-rendered from the snapshot is the previous one again
        assert _report_exit(root, capsys) == (0, "")
        assert stored.report.read_bytes() == before["report.html"]
        assert sorted(path.name for path in stored.directory.iterdir()) == sorted(WRITE_ORDER)


# --- the store walk against the glob it replaces -----------------------------

WALK_NAMES = ["a", "a b", "a_b", ".dot", "*", "t[1]", "t1", "snapshot.json"]
WALK_DATES = ["2026-01-01", "2026-01-02", ".x", "*"]
# what a date directory holds: a snapshot (readable, corrupt, or of an
# identity filed elsewhere), nothing, or something that is not a file
DATE_KINDS = [
    "snapshot", "snapshot", "elsewhere", "corrupt", "empty",
    "snapshot_directory", "broken_link", "link_loop",
]
# a file (or broken symlink) where a team, system or date directory belongs
NOT_DIRECTORY_KINDS = ["file_team", "file_system", "file_date", "link_date"]


def _glob_snapshots(root: Path, team: str | None, system: str | None) -> list[Path]:
    """Sorted snapshot paths as a pathlib glob over the store finds them,
    with Python 3.11's glob semantics: from 3.12 on, a literal last segment
    also matches a broken symlink, which 3.11 skipped."""
    tail = f"*/{store.SNAPSHOT_FILE}"
    if system is not None:
        system_name = sanitize_component(system)
        teams = [root / sanitize_component(team)] if team is not None else root.glob("*")
        found = (path for team_dir in teams for path in (team_dir / system_name).glob(tail))
    elif team is not None:
        found = (root / sanitize_component(team)).glob(f"*/{tail}")
    else:
        found = root.glob(f"*/*/{tail}")
    return sorted(path for path in found if path.exists())


def _glob_history(root: Path, team: str | None, system: str | None):
    """Rows and warnings of `history` computed over `_glob_snapshots`."""
    rows, warnings = [], []
    try:
        snapshots = _glob_snapshots(root, team, system)
    except StoreError:
        return rows, warnings
    for snapshot in snapshots:
        try:
            payload = store._read_snapshot(snapshot)
            identity = payload["identity"]
            row = HistoryRow(
                team=identity["team"],
                system=identity["system"],
                date=dt.date.fromisoformat(identity["date"]),
                quality_score=int(payload["quality_score"]),
                maturity=int(payload["maturity"]),
            )
        except (StoreError, KeyError, TypeError, ValueError, OverflowError) as exc:
            warnings.append(f"skipping corrupted snapshot {snapshot}: {exc}")
            continue
        if (team is None or row.team == team) and (system is None or row.system == system):
            rows.append(row)
    rows.sort(key=lambda row: (row.team, row.system, row.date))
    return rows, warnings


def _glob_latest(root: Path, team: str, system: str) -> str:
    """What `load_assessment` without a date gives over `_glob_snapshots`:
    the newest snapshot that records this team and system as text, or one
    whose team or system is not text."""
    try:
        system_dir = root / sanitize_component(team) / sanitize_component(system)
        candidates = _glob_snapshots(root, team, system)
        if not candidates:
            raise StoreError(f"not found: no assessments under {system_dir}")
        for candidate in reversed(candidates):
            if not candidate.is_file():
                raise StoreError(f"not found: {candidate}")
            payload = store._read_snapshot(candidate)
            identity = payload.get("identity")
            stored = [identity.get(key) for key in ("team", "system")] if isinstance(
                identity, dict
            ) else None
            if stored is None or stored == [team, system] or not all(
                isinstance(name, str) for name in stored
            ):
                return repr(store._result_from_payload(payload))
        raise StoreError(
            f"not found: {system_dir} holds no assessment of team {team!r} system {system!r}"
        )
    except (StoreError, KeyError, TypeError, ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _build_tree(root: Path, entries, template: dict) -> None:
    for kind, team, system, date in entries:
        date_dir = root / team / system / date
        try:
            if kind in NOT_DIRECTORY_KINDS:
                target = {"file_team": root / team, "file_system": root / team / system}.get(
                    kind, date_dir
                )
                target.parent.mkdir(parents=True, exist_ok=True)
                if kind == "link_date":
                    target.symlink_to("nowhere")
                else:
                    target.write_text("not a directory")
                continue
            date_dir.mkdir(parents=True, exist_ok=True)
            snapshot = date_dir / store.SNAPSHOT_FILE
            if kind == "snapshot_directory":
                snapshot.mkdir()
            elif kind == "broken_link":
                snapshot.symlink_to("nowhere")
            elif kind == "link_loop":
                snapshot.symlink_to(store.SNAPSHOT_FILE)
            elif kind == "corrupt":
                snapshot.write_text("{ not json")
            elif kind != "empty":
                identity = {
                    "team": team if kind == "snapshot" else f"{team} moved",
                    "system": system,
                    "family_members": [system],
                    "date": date if date.startswith("2026") else "2026-03-01",
                }
                snapshot.write_text(json.dumps({**template, "identity": identity}))
        except OSError:
            # the path is taken by an earlier entry of another kind
            continue


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from(DATE_KINDS + NOT_DIRECTORY_KINDS),
            st.sampled_from(WALK_NAMES),
            st.sampled_from(WALK_NAMES),
            st.sampled_from(WALK_DATES),
        ),
        min_size=2,
        max_size=14,
    ),
    team=st.none() | st.sampled_from(WALK_NAMES + [".."]),
    system=st.none() | st.sampled_from(WALK_NAMES + [".."]),
)
def test_store_walk_reads_exactly_what_the_glob_found(entries, team, system):
    model = default_model()
    template = store._snapshot_payload(evaluate(make_assessment(model), model), model)
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        root = Path(directory) / "store"
        root.mkdir()
        _build_tree(root, entries, template)
        try:
            snapshots = _glob_snapshots(root, team, system)
        except StoreError:
            snapshots = []
        expected = _glob_history(root, team, system)

        # snapshots history reads: an open that finds no file reads none
        opened: list[Path] = []
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            snapshot = os.path.basename(os.fspath(file)) == store.SNAPSHOT_FILE
            try:
                handle = real_open(file, mode, *args, **kwargs)
            except OSError as exc:
                if snapshot and exc.errno not in (errno.ENOENT, errno.ELOOP):
                    opened.append(Path(file))
                raise
            if snapshot:
                opened.append(Path(file))
            return handle

        patch.setattr(builtins, "open", recording_open)
        patch.setattr(io, "open", recording_open)
        warnings: list[str] = []
        handler = logging.Handler()
        handler.emit = lambda record: warnings.append(record.getMessage())
        logging.getLogger("mlquality").addHandler(handler)
        try:
            rows = history(root, team=team, system=system)
        finally:
            logging.getLogger("mlquality").removeHandler(handler)
            patch.undo()
        assert opened == snapshots
        assert (rows, warnings) == expected
        for named in {(team, system), *((t, s) for _, t, s, _ in entries)}:
            if None in named:
                continue
            try:
                latest = repr(load_assessment(root, *named))
            except StoreError as exc:
                latest = f"{type(exc).__name__}: {exc}"
            assert latest == _glob_latest(root, *named)


@pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
def test_read_snapshot_takes_only_the_integer_version(tmp_path, version):
    snapshot = tmp_path / store.SNAPSHOT_FILE
    snapshot.write_text(f'{{"snapshot_version": {version}}}')
    with pytest.raises(StoreError, match="unsupported snapshot version"):
        store._read_snapshot(snapshot)


ORACLE_MODEL = default_model()
# no gap at all (maturity 5), and a gap of every color (maturity 1, required 3)
ORACLE_PAYLOADS = [
    store._snapshot_payload(
        evaluate(make_assessment(ORACLE_MODEL, gaps, criticality_level=level), ORACLE_MODEL),
        ORACLE_MODEL,
    )
    for gaps, level in (
        (None, 5),
        (
            {
                "maintainability": Gap.LARGE,
                "usability": Gap.LARGE,
                "scalability": Gap.LARGE,
                "monitoring": Gap.SMALL,
            },
            3,
        ),
    )
]
# the JSON leaves of the snapshot fuzz test, and numbers and text that equal
# a stored integer, gap token or date in Python but are not written so
ORACLE_EDITS = st.lists(
    st.tuples(
        st.lists(st.integers(0, 30), min_size=1, max_size=4),
        st.sampled_from(["drop", "swap", "insert"]),
        st.sampled_from([*LEAVES, False, 3.0, "3", "1", "20260701"]),
    ),
    min_size=1,
    max_size=3,
)


# top-level keys, sorted: characteristic_scores 0, colors 1, criticality 2,
# gaps 3, identity 4, maturity 5, model_fingerprint 6, quality_score 7,
# recommendations 8, required_maturity 9, snapshot_version 10
@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, len(ORACLE_PAYLOADS) - 1), edits=ORACLE_EDITS)
@example(which=1, edits=[([5], "swap", "3")])  # maturity as text
@example(which=1, edits=[([5], "swap", True)])  # maturity as a bool
@example(which=0, edits=[([7], "swap", 3.0)])  # a float score
@example(which=0, edits=[([10], "swap", True)])  # a bool version
@example(which=1, edits=[([9], "swap", 3.0)])  # a float required maturity
@example(which=1, edits=[([2, 1], "swap", 3.0)])  # a float criticality level
@example(which=0, edits=[([0, 0, 1], "swap", 3.0)])  # a float characteristic score
@example(which=1, edits=[([8], "swap", {})])  # recommendations as a mapping
@example(which=0, edits=[([4, 1], "swap", [])])  # no family members
@example(which=0, edits=[([3], "swap", []), ([1], "swap", [])])  # no gaps, no colors
@example(which=0, edits=[([5], "swap", 0)])  # maturity 0, every color green
# maturity 1, its one red attribute dropped from gaps and colors
@example(which=1, edits=[([3, 12], "drop", None), ([1, 12], "drop", None)])
@example(which=0, edits=[([3, 0, 0], "swap", "1")])  # a gap alias
@example(which=0, edits=[([4, 0], "swap", "20260701")])  # a date in basic format
@example(which=0, edits=[([5], "insert", 1)])  # a top-level key the store does not write
@example(which=1, edits=[([3, 0, 0], "insert", "x")])  # a key in a gap row
@example(which=1, edits=[([4, 0], "insert", None)])  # a key in the identity
def test_every_snapshot_read_is_written_back_unchanged(which, edits):
    """A payload `_result_from_payload` accepts is the one `_snapshot_payload`
    writes for its result, model fingerprint aside, compared as JSON text
    (`True == 1` in Python), and its maturity agrees with its colors."""
    payload = copy.deepcopy(ORACLE_PAYLOADS[which])
    for path, operation, leaf in edits:
        payload = _edit_json(payload, path, operation, leaf)
    with tempfile.TemporaryDirectory() as directory:
        snapshot = Path(directory, store.SNAPSHOT_FILE)
        snapshot.write_text(json.dumps(payload))
        try:
            payload = store._read_snapshot(snapshot)
        except StoreError:
            return  # refused by the version check
    try:
        result = store._result_from_payload(payload)
    except (KeyError, TypeError, ValueError, OverflowError):
        return  # `mlq report` exits 1 with `malformed snapshot`
    written = store._snapshot_payload(result, ORACLE_MODEL)
    for side in (written, payload):
        side.pop("model_fingerprint", None)
    assert json.dumps(written, sort_keys=True) == json.dumps(payload, sort_keys=True)
    shades = set(result.colors.values())
    assert (shades == {GapColor.GREEN}) == (result.maturity == 5)
    assert (GapColor.RED in shades) == (result.maturity < 5)


def test_written_keys_are_the_keys_the_store_writes():
    """The key table the decoder refuses others by is what `_snapshot_payload`
    writes, at every level."""
    for payload in ORACLE_PAYLOADS:
        assert store._WRITTEN_KEYS["snapshot"] == payload.keys()
        for key in ("identity", "criticality"):
            assert store._WRITTEN_KEYS[key] == payload[key].keys()
        for key in ("characteristic_scores", "gaps", "colors", "recommendations"):
            assert all(store._WRITTEN_KEYS[key] == row.keys() for row in payload[key])
    assert ORACLE_PAYLOADS[1]["recommendations"], "a payload with a row of every list"


# --- the snapshot's fixed layout against json.dumps ---------------------------

# every category, lone surrogates among them, and the characters JSON
# escapes or that need care: quotes, backslashes, controls, line separators,
# astral characters
SNAPSHOT_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029",
                         "\udcff", "\ud800", "\U0001f600", "\U0010ffff"]),
    ),
    max_size=8,
)


@st.composite
def stored_payloads(draw) -> dict:
    """What `_snapshot_payload` builds for a generated result: any text in
    every free-text field, families of several members, and all-green
    results, which recommend nothing."""
    model = ORACLE_MODEL
    system = draw(SNAPSHOT_TEXT)
    others = draw(st.lists(SNAPSHOT_TEXT.filter(lambda name: name != system), max_size=3))
    if draw(st.booleans()):
        gaps = {sub_id: Gap.NO_GAP for sub_id in model.ids}
    else:
        gaps = {sub_id: draw(st.sampled_from(model.legal_gaps(sub_id))) for sub_id in model.ids}
    assessment = Assessment(
        team=draw(SNAPSHOT_TEXT),
        system_id=system,
        date=draw(st.dates(dt.date(1, 1, 1), dt.date(9999, 12, 31))),
        gaps={
            sub_id: GapEntry(gap=gap, reason=draw(SNAPSHOT_TEXT))
            for sub_id, gap in gaps.items()
        },
        family_members=(*others, system) if others else (),
        criticality=BusinessCriticality(
            level=draw(st.sampled_from(CriticalityLevel)),
            justification=draw(SNAPSHOT_TEXT),
        ),
    )
    return store._snapshot_payload(evaluate(assessment, model), model)


def _dumped(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("quote", ["c", "python"])
@settings(max_examples=150, deadline=None)
@given(payload=stored_payloads())
@example(payload=ORACLE_PAYLOADS[0])  # all green, no recommendations
@example(payload=ORACLE_PAYLOADS[1])  # a gap of every color
def test_snapshot_text_is_what_json_dumps_writes(payload, quote):
    """Byte for byte, with the C string escaping of `_json` and with the
    pure-Python fallback used where `_json` is not built."""
    if quote == "c":
        assert store._quote is json.encoder.encode_basestring
        assert store._snapshot_text(payload) == _dumped(payload)
        return
    fallback = json.encoder.py_encode_basestring
    with mock.patch.object(json.encoder, "encode_basestring", fallback), \
            mock.patch.object(store, "_quote", fallback):
        assert store._snapshot_text(payload) == _dumped(payload)


# every place the layout writes an integer: the path to it in the payload
INTEGER_SLOTS = [
    ("snapshot_version",), ("quality_score",), ("maturity",), ("required_maturity",),
    ("criticality", "level"), ("characteristic_scores", 3, "score"),
]


@pytest.mark.parametrize("slot", INTEGER_SLOTS)
@pytest.mark.parametrize("number", [float, bool])
def test_snapshot_text_refuses_a_number_that_is_not_an_int(slot, number):
    """json.dumps writes `3.0` or `true` there; the layout raises instead
    of writing text that differs from it."""
    payload = copy.deepcopy(ORACLE_PAYLOADS[1])
    *parents, key = slot
    mapping = payload
    for parent in parents:
        mapping = mapping[parent]
    mapping[key] = number(mapping[key])
    with pytest.raises(TypeError, match=f"not {number.__name__}"):
        store._snapshot_text(payload)
