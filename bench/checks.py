"""Output checks and digests. Each check returns a list of problems; an
empty list means the check passed."""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

STORE_FILES = {"gaps.csv", "snapshot.json", "report.html"}
INFER_LINE = re.compile(
    r"system=(?P<system>\S+) team=(?P<team>\S+) score=(?P<score>\d+) "
    r"maturity=(?P<maturity>\d+) required=(?P<required>\d+) criticality=(?P<criticality>\d+)"
)
ASSESS_LINE = re.compile(r"score=(\d+) maturity=(\d+) required=(\d+)")


def store_layout(store: Path, expected: dict[tuple[str, str], set[str]]) -> list[str]:
    """Each (team, system) has exactly the expected dates, and each date
    directory holds exactly one gaps.csv, snapshot.json and report.html."""
    problems = []
    found: dict[tuple[str, str], set[str]] = {}
    for team_dir in sorted(store.iterdir()) if store.is_dir() else ():
        for system_dir in sorted(team_dir.iterdir()):
            dates = found.setdefault((team_dir.name, system_dir.name), set())
            for date_dir in sorted(system_dir.iterdir()):
                dates.add(date_dir.name)
                names = {entry.name for entry in date_dir.iterdir()}
                if names != STORE_FILES:
                    problems.append(f"{date_dir.relative_to(store)}: holds {sorted(names)}")
    if found != expected:
        missing = sorted(set(expected) - set(found))
        extra = sorted(set(found) - set(expected))
        wrong = sorted(key for key in set(found) & set(expected) if found[key] != expected[key])
        problems.append(
            f"store systems differ: {len(missing)} missing, {len(extra)} unexpected, "
            f"{len(wrong)} with other dates than expected"
        )
    return problems


def read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def snapshot(store: Path, team: str, system: str, date: str) -> dict | None:
    """A stored snapshot, or None when it is missing or unreadable."""
    try:
        return json.loads((store / team / system / date / "snapshot.json").read_bytes())
    except (OSError, ValueError):
        return None


def _scores(stored: dict | None) -> tuple | None:
    if stored is None:
        return None
    return (stored["quality_score"], stored["maturity"], stored["required_maturity"],
            stored["criticality"]["level"])


def infer_scores(log: str, store: Path, date: str, expected_count: int) -> list[str]:
    """The scores `mlq infer` printed equal the stored snapshots."""
    problems = []
    lines = [m for m in map(INFER_LINE.fullmatch, log.splitlines()) if m]
    if len(lines) != expected_count:
        problems.append(f"infer printed {len(lines)} score lines, expected {expected_count}")
    for match in lines:
        printed = (int(match["score"]), int(match["maturity"]), int(match["required"]),
                   int(match["criticality"]))
        kept = _scores(snapshot(store, match["team"], match["system"], date))
        if printed != kept:
            problems.append(f"{match['system']}: printed {printed}, stored {kept}")
    return problems


def assess_score(output: str, stored: dict | None) -> list[str]:
    """The score line `mlq assess` printed equals its stored snapshot."""
    match = ASSESS_LINE.search(output)
    kept = _scores(stored)
    if match is None or kept is None or tuple(map(int, match.groups())) != kept[:3]:
        return [f"assess printed {output.strip()!r}, stored {kept}"]
    return []


def rerendered(store: Path, rerender: Path, sample: list[list[str]]) -> list[str]:
    """`mlq report --out` wrote the stored report.html byte for byte."""
    problems = []
    for team, system, date in sample:
        again = rerender / team / system / date / "report.html"
        kept = store / team / system / date / "report.html"
        if read_bytes(again) is None or read_bytes(again) != read_bytes(kept):
            problems.append(f"{team}/{system}/{date}: re-rendered report differs")
    return problems


def fleet_views(views: Path, month_counts: dict[str, int]) -> list[str]:
    """compliance.csv has a header plus one line per attribute (26), and
    the distribution counts match the systems assessed each month."""
    problems = []
    compliance = views / "compliance.csv"
    lines = compliance.read_text(encoding="utf-8").splitlines() if compliance.is_file() else []
    if len(lines) != 26:
        problems.append(f"compliance.csv has {len(lines)} lines, expected 26")
    distribution = views / "distribution.csv"
    counts = {}
    if distribution.is_file():
        for line in distribution.read_text(encoding="utf-8").splitlines()[1:]:
            period, count = line.split(",")[:2]
            counts[period] = int(count)
    if counts != month_counts:
        problems.append(f"distribution counts {counts} != systems per month {month_counts}")
    for name in ("trend.svg", "compliance.svg"):
        if not (views / name).is_file():
            problems.append(f"{name} missing")
    return problems


def history_rows(output: str, store: Path, expected_rows: int) -> list[str]:
    """A `mlq history` listing has the expected rows, each equal to its
    stored snapshot."""
    lines = output.splitlines()
    if not lines or lines[0] != "team,system,date,quality_score,maturity":
        return ["history output has no header"]
    problems = []
    if len(lines) - 1 != expected_rows:
        problems.append(f"history listed {len(lines) - 1} rows, expected {expected_rows}")
    for line in lines[1:]:
        team, system, date, score, maturity = line.split(",")
        kept = _scores(snapshot(store, team, system, date))
        if kept is None or (int(score), int(maturity)) != kept[:2]:
            problems.append(f"history row {line} differs from its snapshot")
    return problems


def digest(*roots: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under `roots`."""
    sha = hashlib.sha256()
    for root in roots:
        for directory, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                path = Path(directory) / name
                sha.update(f"{root.name}/{path.relative_to(root).as_posix()}\0".encode())
                sha.update(path.read_bytes())
                sha.update(b"\0")
    return sha.hexdigest()


def store_size(store: Path) -> tuple[int, int]:
    """Files and bytes under the store."""
    files = size = 0
    for directory, _, names in os.walk(store):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(directory, name))
    return files, size
