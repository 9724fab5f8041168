"""Versioned on-disk storage of assessment results.

Each evaluation lands in `<root>/<team>/<system>/<date>/` with three
files: the gaps CSV, the rendered HTML report and a canonical JSON snapshot
of the full result, written in that order. The snapshot alone is enough to
reproduce the report byte for byte, so results can be re-derived long after
the input files are gone. Snapshot bytes are canonical (sorted keys, fixed
indentation, UTF-8, newline-terminated), which is what makes re-persisting
a no-op.

The snapshot marks a complete directory: it is written last, and history,
fleet views and reports read nothing else. A persist that stops early
leaves a new directory without a snapshot, which no reader sees, and
leaves a re-persisted directory showing its previous complete result.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .assessment import Assessment, GapEntry, serialize_assessment
from .errors import StoreError
from .model import GAP_ALIASES, Characteristic, QualityModel
from .report import render_report
from .scoring import (
    AssessmentResult,
    BusinessCriticality,
    CriticalityLevel,
    GapColor,
    Recommendation,
)

logger = logging.getLogger(__name__)

SNAPSHOT_VERSION = 1
GAPS_FILE = "gaps.csv"
SNAPSHOT_FILE = "snapshot.json"
REPORT_FILE = "report.html"


@dataclass(frozen=True)
class StoredAssessment:
    team: str
    system: str
    date: dt.date
    directory: Path
    gaps_csv: Path
    snapshot: Path
    report: Path


@dataclass(frozen=True)
class HistoryRow:
    team: str
    system: str
    date: dt.date
    quality_score: int
    maturity: int


def sanitize_component(name: str) -> str:
    """Make an identity component safe to use as a directory name.

    Path separators and whitespace runs become single underscores; the
    original name is preserved inside the snapshot.
    """
    cleaned = re.sub(r"[\s/\\]+", "_", name.strip())
    if not cleaned or cleaned in (".", "..") or "\x00" in cleaned:
        raise StoreError(f"identity component {name!r} is not path-safe")
    return cleaned


def model_fingerprint(model: QualityModel) -> str:
    """Content hash of everything in the model that affects results.

    Computed once per model and kept on it.
    """
    return model.fingerprint


def _snapshot_payload(result: AssessmentResult, model: QualityModel) -> dict:
    assessment = result.assessment
    criticality = assessment.criticality
    if criticality is None:
        raise StoreError("cannot persist a result without business criticality")
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "model_fingerprint": model_fingerprint(model),
        "identity": {
            "team": assessment.team,
            "system": assessment.system_id,
            "family_members": list(assessment.family_members),
            "date": assessment.date.isoformat(),
        },
        "criticality": {
            "level": int(criticality.level),
            "justification": criticality.justification,
        },
        "quality_score": result.quality_score,
        "maturity": result.maturity,
        "required_maturity": result.required_maturity,
        "characteristic_scores": [
            {"characteristic": characteristic.value, "score": score}
            for characteristic, score in result.characteristic_scores.items()
        ],
        "gaps": [
            {"sub_characteristic": sub_id, "gap": entry.gap.token, "reason": entry.reason}
            for sub_id, entry in assessment.gaps.items()
        ],
        "colors": [
            {"sub_characteristic": sub_id, "color": color.value}
            for sub_id, color in result.colors.items()
        ],
        "recommendations": [
            {
                "sub_characteristic": rec.sub_characteristic,
                "reason": rec.reason,
                "remediation": rec.remediation,
            }
            for rec in result.recommendations
        ],
    }


def _result_from_payload(payload: dict) -> AssessmentResult:
    identity = payload["identity"]
    criticality = BusinessCriticality(
        level=CriticalityLevel(payload["criticality"]["level"]),
        justification=payload["criticality"]["justification"],
    )
    gaps = {
        row["sub_characteristic"]: GapEntry(
            gap=GAP_ALIASES[row["gap"]], reason=row["reason"]
        )
        for row in payload["gaps"]
    }
    assessment = Assessment(
        team=identity["team"],
        system_id=identity["system"],
        date=dt.date.fromisoformat(identity["date"]),
        gaps=gaps,
        family_members=tuple(identity["family_members"]),
        criticality=criticality,
    )
    return AssessmentResult(
        assessment=assessment,
        quality_score=int(payload["quality_score"]),
        characteristic_scores={
            Characteristic(row["characteristic"]): int(row["score"])
            for row in payload["characteristic_scores"]
        },
        maturity=int(payload["maturity"]),
        required_maturity=int(payload["required_maturity"]),
        colors={
            row["sub_characteristic"]: GapColor(row["color"])
            for row in payload["colors"]
        },
        recommendations=tuple(
            Recommendation(
                sub_characteristic=row["sub_characteristic"],
                reason=row["reason"],
                remediation=row["remediation"],
            )
            for row in payload["recommendations"]
        ),
    )


def write_text_atomic(path: Path, content: str) -> None:
    """Write UTF-8 text to a temporary file, then move it into place, so
    that a reader never sees a half-written file.

    Each call creates its own temporary name next to `path`, exclusively,
    so concurrent writers never overwrite or move each other's temporary
    file. It is created with the mode a plain open would give it.
    """
    tmp = path.parent / f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    descriptor = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _date_directory(root: str | Path, assessment: Assessment) -> Path:
    return (
        Path(root)
        / sanitize_component(assessment.team)
        / sanitize_component(assessment.system_id)
        / assessment.date.isoformat()
    )


def check_identity(root: str | Path, assessment: Assessment) -> None:
    """Raise StoreError if persisting `assessment` would overwrite the
    snapshot of another team or system.

    Names that differ only where `sanitize_component` maps them alike,
    such as `a b` and `a_b`, share a directory; a snapshot already in the
    target date directory that records another identity is refused rather
    than replaced. A snapshot that cannot be read records no identity and
    may be replaced. Costs one stat when the directory holds no snapshot.
    """
    snapshot = _date_directory(root, assessment) / SNAPSHOT_FILE
    if not snapshot.is_file():
        return
    try:
        identity = _read_snapshot(snapshot)["identity"]
        stored = (identity["team"], identity["system"])
    except (StoreError, KeyError, TypeError):
        return
    if stored != (assessment.team, assessment.system_id):
        raise StoreError(
            f"{snapshot} holds team {stored[0]!r} system {stored[1]!r}; "
            f"team {assessment.team!r} system {assessment.system_id!r} maps to "
            "the same directory and would overwrite it"
        )


def persist_assessment(
    root: str | Path, result: AssessmentResult, model: QualityModel
) -> StoredAssessment:
    """Write one result into the store, overwriting the same identity+date.

    All three files are deterministic functions of the result and model,
    so persisting the same inputs twice leaves identical bytes on disk.
    The snapshot is written last, once the other two are in place.
    Whatever the target directory holds is replaced; `check_identity`
    first refuses a directory holding another team's or system's result.
    """
    assessment = result.assessment
    directory = _date_directory(root, assessment)
    payload = _snapshot_payload(result, model)
    directory.mkdir(parents=True, exist_ok=True)

    gaps_csv = directory / GAPS_FILE
    snapshot = directory / SNAPSHOT_FILE
    report = directory / REPORT_FILE
    write_text_atomic(gaps_csv, serialize_assessment(assessment, model))
    write_text_atomic(report, render_report(result, model).html)
    # last: the snapshot is what marks the directory complete
    write_text_atomic(
        snapshot,
        json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
    )
    return StoredAssessment(
        team=assessment.team,
        system=assessment.system_id,
        date=assessment.date,
        directory=directory,
        gaps_csv=gaps_csv,
        snapshot=snapshot,
        report=report,
    )


def _read_snapshot(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise StoreError(f"unreadable snapshot {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("snapshot_version") != SNAPSHOT_VERSION:
        raise StoreError(f"unsupported snapshot version in {path}")
    return payload


def _snapshot_files(
    root: Path, team: str | None = None, system: str | None = None
) -> list[Path]:
    """Sorted snapshot paths under `root/<team>/<system>/<date>/`.

    A given team or system is joined onto the path as a literal directory
    name, so a name such as `team[1]` or `*` is never read as a pattern;
    only the levels left open are matched with `*`. Raises StoreError when
    a given name is not path-safe.
    """
    tail = f"*/{SNAPSHOT_FILE}"
    if system is not None:
        system_name = sanitize_component(system)
        teams = [root / sanitize_component(team)] if team is not None else root.glob("*")
        found = (path for team_dir in teams for path in (team_dir / system_name).glob(tail))
    elif team is not None:
        found = (root / sanitize_component(team)).glob(f"*/{tail}")
    else:
        found = root.glob(f"*/*/{tail}")
    return sorted(found)


def load_assessment(
    root: str | Path,
    team: str,
    system: str,
    date: dt.date | None = None,
    model: QualityModel | None = None,
) -> AssessmentResult:
    """Load a stored result; with no date, the latest one.

    When a model is supplied its fingerprint is compared against the one
    recorded in the snapshot; a mismatch logs a warning but still loads,
    since the snapshot is self-contained.
    """
    system_dir = Path(root) / sanitize_component(team) / sanitize_component(system)
    if date is None:
        candidates = _snapshot_files(Path(root), team, system)
        if not candidates:
            raise StoreError(f"not found: no assessments under {system_dir}")
        snapshot = candidates[-1]
    else:
        snapshot = system_dir / date.isoformat() / SNAPSHOT_FILE
    if not snapshot.is_file():
        raise StoreError(f"not found: {snapshot}")
    payload = _read_snapshot(snapshot)
    if model is not None:
        recorded = payload.get("model_fingerprint")
        current = model_fingerprint(model)
        if recorded != current:
            logger.warning(
                "snapshot %s was produced with a different model "
                "(stored %s, supplied %s)",
                snapshot,
                recorded,
                current,
            )
    try:
        return _result_from_payload(payload)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StoreError(
            f"malformed snapshot {snapshot}: {type(exc).__name__}: {exc}"
        ) from exc


def history(
    root: str | Path,
    team: str | None = None,
    system: str | None = None,
) -> list[HistoryRow]:
    """All stored evaluations, optionally filtered by team and system.

    Reads only snapshots and never recomputes scores. A team or system
    filter reads only that team's or system's directory, since
    `persist_assessment` always writes to `<team>/<system>/<date>/`; a
    snapshot moved by hand out of its directory is therefore not found by a
    filtered lookup, just as `load_assessment` misses it. Rows still match
    the filter exactly: `a b` and `a_b` share a directory but not rows.
    A corrupted snapshot is reported with a warning and skipped; the rest
    of the history is still returned. Rows are sorted by team, system,
    then date ascending.
    """
    root = Path(root)
    rows: list[HistoryRow] = []
    if not root.is_dir():
        return rows
    try:
        snapshots = _snapshot_files(root, team, system)
    except StoreError:
        # a name that is not path-safe was never stored
        return rows
    for snapshot in snapshots:
        try:
            payload = _read_snapshot(snapshot)
            identity = payload["identity"]
            row = HistoryRow(
                team=identity["team"],
                system=identity["system"],
                date=dt.date.fromisoformat(identity["date"]),
                quality_score=int(payload["quality_score"]),
                maturity=int(payload["maturity"]),
            )
        except (StoreError, KeyError, TypeError, ValueError, OverflowError) as exc:
            logger.warning("skipping corrupted snapshot %s: %s", snapshot, exc)
            continue
        if team is not None and row.team != team:
            continue
        if system is not None and row.system != system:
            continue
        rows.append(row)
    rows.sort(key=lambda row: (row.team, row.system, row.date))
    return rows
