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

Readers walk `<team>/<system>/<date>` by directory listings alone, sorted
by name, with no `stat` per snapshot, and open each `snapshot.json` once;
a date directory without one is skipped silently, a corrupted one with a
warning. `fleet_scan` gives `mlq fleet` its history rows and its cohorts,
each pick's no-gap mask, from that one read, and raises every store
failure the command reports.
"""

from __future__ import annotations

import datetime as dt
import errno
import json
import logging
import os
import re
import sys
from pathlib import Path
from typing import Collection, Iterator, NamedTuple, Sequence

from . import catalog
from .assessment import Assessment, GapEntry, serialize_assessment
from .errors import StoreError
from .model import LEVELS, Characteristic, Gap, QualityModel
from .report import render_report
from .scoring import (
    AssessmentResult,
    BusinessCriticality,
    CriticalityLevel,
    GapColor,
    Recommendation,
    gap_score,
    remediation_order,
)

logger = logging.getLogger(__name__)

SNAPSHOT_VERSION = 1
GAPS_FILE = "gaps.csv"
SNAPSHOT_FILE = "snapshot.json"
REPORT_FILE = "report.html"


class StoredAssessment(NamedTuple):
    team: str
    system: str
    date: dt.date
    directory: Path
    gaps_csv: Path
    snapshot: Path
    report: Path


class HistoryRow(NamedTuple):
    team: str
    system: str
    date: dt.date
    quality_score: int
    maturity: int


def sanitize_component(name: str) -> str:
    """Make an identity component safe to use as a directory name.

    Path separators and whitespace runs become single underscores; the
    original name is preserved inside the snapshot. A name longer than 255
    bytes in UTF-8, the most a file system on Linux or macOS takes for one
    directory name, is refused.
    """
    cleaned = re.sub(r"[\s/\\]+", "_", name.strip())
    if (
        not cleaned
        or cleaned in (".", "..")
        or "\x00" in cleaned
        or len(cleaned.encode("utf-8", "surrogatepass")) > 255
    ):
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


# the text json.dumps(sort_keys=True, indent=2) lays a payload out as: one
# template per row kind, one for the rest
_SCORE_ROW = '{\n      "characteristic": %s,\n      "score": %s\n    }'
_COLOR_ROW = '{\n      "color": %s,\n      "sub_characteristic": %s\n    }'
_GAP_ROW = '{\n      "gap": %s,\n      "reason": %s,\n      "sub_characteristic": %s\n    }'
_ADVICE_ROW = '{\n      "reason": %s,\n      "remediation": %s,\n      "sub_characteristic": %s\n    }'
_SNAPSHOT_LAYOUT = (
    '{\n  "characteristic_scores": %s,\n  "colors": %s,\n  "criticality": {\n'
    '    "justification": %s,\n    "level": %s\n  },\n  "gaps": %s,\n  "identity": {\n'
    '    "date": %s,\n    "family_members": %s,\n    "system": %s,\n    "team": %s\n  },\n'
    '  "maturity": %s,\n  "model_fingerprint": %s,\n  "quality_score": %s,\n'
    '  "recommendations": %s,\n  "required_maturity": %s,\n  "snapshot_version": %s\n}\n'
)
# a string as json.dumps(ensure_ascii=False) writes it: C `_json`'s, where built
_quote = json.encoder.encode_basestring


def _json_int(value: int) -> str:
    """`value` as json writes an int; a bool, a float or any other type
    raises TypeError rather than be written otherwise."""
    if type(value) is not int:
        raise TypeError(f"snapshot numbers must be int, not {type(value).__name__}")
    return int.__repr__(value)


def _json_list(items: list[str], depth: int = 1) -> str:
    """Laid-out `items` as a list `depth` levels deep."""
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * depth}]" if items else "[]"


def _snapshot_text(payload: dict) -> str:
    """The snapshot file of a payload `_snapshot_payload` built, laid out
    directly: `json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"`, byte for byte."""
    q, identity, criticality = _quote, payload["identity"], payload["criticality"]
    return _SNAPSHOT_LAYOUT % (
        _json_list([_SCORE_ROW % (q(row["characteristic"]), _json_int(row["score"]))
                    for row in payload["characteristic_scores"]]),
        _json_list([_COLOR_ROW % (q(row["color"]), q(row["sub_characteristic"]))
                    for row in payload["colors"]]),
        q(criticality["justification"]), _json_int(criticality["level"]),
        _json_list([_GAP_ROW % (q(row["gap"]), q(row["reason"]), q(row["sub_characteristic"]))
                    for row in payload["gaps"]]),
        q(identity["date"]), _json_list([q(name) for name in identity["family_members"]], 2),
        q(identity["system"]), q(identity["team"]),
        _json_int(payload["maturity"]), q(payload["model_fingerprint"]),
        _json_int(payload["quality_score"]),
        _json_list([
            _ADVICE_ROW % (q(row["reason"]), q(row["remediation"]), q(row["sub_characteristic"]))
            for row in payload["recommendations"]
        ]),
        _json_int(payload["required_maturity"]), _json_int(payload["snapshot_version"]),
    )


# the keys `_snapshot_payload` writes: in the snapshot itself, in its two
# nested mappings, and in each row of its four lists
_WRITTEN_KEYS = {
    "snapshot": frozenset({
        "snapshot_version", "model_fingerprint", "identity", "criticality", "quality_score",
        "maturity", "required_maturity", "characteristic_scores", "gaps", "colors",
        "recommendations",
    }),
    "identity": frozenset({"team", "system", "family_members", "date"}),
    "criticality": frozenset({"level", "justification"}),
    "characteristic_scores": frozenset({"characteristic", "score"}),
    "gaps": frozenset({"sub_characteristic", "gap", "reason"}),
    "colors": frozenset({"sub_characteristic", "color"}),
    "recommendations": frozenset({"sub_characteristic", "reason", "remediation"}),
}


def _only_written_keys(payload: dict) -> None:
    """Refuse a payload holding a key `_snapshot_payload` does not write
    there, naming where. Run once the rest is decoded: every nested mapping
    and row then holds each key written there, so it holds another key
    exactly when it holds more keys than that."""
    if not payload.keys() <= _WRITTEN_KEYS["snapshot"]:
        _refuse_keys(payload, "snapshot", _WRITTEN_KEYS["snapshot"])
    for key in ("identity", "criticality"):
        if len(payload[key]) > len(_WRITTEN_KEYS[key]):
            _refuse_keys(payload[key], key, _WRITTEN_KEYS[key])
    for key in ("characteristic_scores", "gaps", "colors", "recommendations"):
        written = _WRITTEN_KEYS[key]
        for index, row in enumerate(payload[key]):
            if len(row) > len(written):
                _refuse_keys(row, f"{key}[{index}]", written)


def _refuse_keys(mapping: dict, where: str, written: frozenset[str]) -> None:
    unknown = ", ".join(map(repr, sorted(mapping.keys() - written)))
    raise ValueError(f"{where} holds keys the store does not write: {unknown}")


def _text(mapping: dict, key: str) -> str:
    return _as_text(mapping[key], key)


def _as_text(value, what: str) -> str:
    """`value`, if it is text that UTF-8, which reports are written in, can encode."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be text, not {type(value).__name__}")
    if not value.isascii() and re.search("[\ud800-\udfff]", value):
        raise ValueError(f"{what} holds a lone surrogate, which UTF-8 cannot encode")
    return value


def _integer(mapping: dict, key: str) -> int:
    value = mapping[key]
    int(value)  # an infinity raises OverflowError before the type test
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {type(value).__name__}")
    return value


def _bounded(mapping: dict, key: str, top: int) -> int:
    value = _integer(mapping, key)
    if not 0 <= value <= top:
        raise ValueError(f"{key} {value} is not in 0..{top}")
    return value


def _rows(payload: dict, key: str) -> list:
    rows = payload[key]
    if not isinstance(rows, list):
        raise TypeError(f"{key} must be a list, not {type(rows).__name__}")
    return rows


def _by_attribute(payload: dict, key: str, decode) -> dict:
    """`decode` of each row of the list `payload[key]`, by the attribute it
    names; each attribute once, and at least one."""
    rows = _rows(payload, key)
    decoded = {_text(row, "sub_characteristic"): decode(row) for row in rows}
    if not decoded or len(decoded) != len(rows):
        raise ValueError(f"{key} must name at least one attribute, each once")
    return decoded


_GAP_BY_TOKEN = {gap.token: gap for gap in Gap}


def _history_row(payload: dict) -> HistoryRow:
    """The five fields `mlq history` lists, decoded and checked: the only
    decoder of a snapshot's identity, date, score and maturity."""
    identity = payload["identity"]
    row = HistoryRow(
        team=_text(identity, "team"),
        system=_text(identity, "system"),
        date=dt.date.fromisoformat(identity["date"]),
        quality_score=_bounded(payload, "quality_score", 100),
        maturity=_bounded(payload, "maturity", LEVELS[-1]),
    )
    if row.date.isoformat() != identity["date"]:
        raise ValueError(f"date {identity['date']!r} is not written as YYYY-MM-DD")
    return row


# each catalog attribute's characteristic, which no model config can change
_CHARACTERISTIC_OF = {row[0]: Characteristic(row[1]) for row in catalog.DEFAULT_ROWS}


def _check_derived(
    quality_score: int,
    scores: dict[Characteristic, int],
    gaps: dict[str, GapEntry],
    colors: dict[str, GapColor],
    recommendations: tuple[Recommendation, ...],
) -> None:
    """Refuse scores and recommendations that do not follow from the gap
    rows: `gap_score` over all rows and over each characteristic's rows (an
    attribute the catalog does not hold is in none), and `remediation_order`
    of the rows, each with its gap's reason. Remediation texts go unchecked."""
    rows: dict[Characteristic, list[Gap]] = {characteristic: [] for characteristic in scores}
    for sub_id, entry in gaps.items():
        if sub_id in _CHARACTERISTIC_OF:
            rows[_CHARACTERISTIC_OF[sub_id]].append(entry.gap)
    stated = [("quality_score", quality_score, [entry.gap for entry in gaps.values()])]
    stated += [
        (f"characteristic_scores {characteristic.value}", score, rows[characteristic])
        for characteristic, score in scores.items()
    ]
    for field, score, values in stated:
        if not values:
            raise ValueError(f"{field} has no gap row to score")
        if score != gap_score(values):
            raise ValueError(f"{field} {score} is not {gap_score(values)}, the score of its gaps")
    listed = [rec.sub_characteristic for rec in recommendations]
    order = remediation_order(gaps, colors)
    if listed != order:
        raise ValueError(
            f"recommendations {', '.join(listed) or 'none'} are not "
            f"{', '.join(order) or 'none'}, the non-green attributes by urgency"
        )
    for index, rec in enumerate(recommendations):
        reason = gaps[rec.sub_characteristic].reason
        if rec.reason != reason:
            raise ValueError(
                f"recommendations[{index}] reason {rec.reason!r} is not its gap's reason {reason!r}"
            )


def _result_from_payload(payload: dict) -> AssessmentResult:
    listed = _history_row(payload)
    family = _rows(payload["identity"], "family_members")
    for name in family:
        _as_text(name, "family_members")
    if not family:
        raise ValueError("family_members must name at least one system")
    criticality = BusinessCriticality(
        level=CriticalityLevel(_integer(payload["criticality"], "level")),
        justification=_text(payload["criticality"], "justification"),
    )
    gaps = _by_attribute(
        payload,
        "gaps",
        lambda row: GapEntry(gap=_GAP_BY_TOKEN[row["gap"]], reason=_text(row, "reason")),
    )
    colors = _by_attribute(payload, "colors", lambda row: GapColor(row["color"]))
    if colors.keys() != gaps.keys():
        differ = sorted(colors.keys() ^ gaps.keys())
        raise ValueError(f"colors and gaps name different attributes: {', '.join(differ)}")
    # maturity is 5 exactly when every color is green, and below 5 exactly
    # when a color is red: the red ones block the next level
    shades, top = list(colors.values()), listed.maturity == LEVELS[-1]
    if (shades.count(GapColor.GREEN) == len(shades)) != top or (GapColor.RED in shades) == top:
        needs = "every color green" if top else "a red color"
        raise ValueError(f"maturity {listed.maturity} needs {needs}")
    rows = _rows(payload, "characteristic_scores")
    scores = {Characteristic(row["characteristic"]): _bounded(row, "score", 100) for row in rows}
    if len(scores) != len(rows) or len(scores) != len(Characteristic):
        raise ValueError("characteristic_scores must name each characteristic once")
    required = _integer(payload, "required_maturity")
    if required != criticality.level:
        raise ValueError(
            f"required_maturity {required} is not the criticality level {int(criticality.level)}"
        )
    recommendations = tuple(
        Recommendation(
            sub_characteristic=_text(row, "sub_characteristic"),
            reason=_text(row, "reason"),
            remediation=_text(row, "remediation"),
        )
        for row in _rows(payload, "recommendations")
    )
    _only_written_keys(payload)
    _check_derived(listed.quality_score, scores, gaps, colors, recommendations)
    assessment = Assessment(
        team=listed.team,
        system_id=listed.system,
        date=listed.date,
        gaps=gaps,
        family_members=tuple(family),
        criticality=criticality,
    )
    return AssessmentResult(
        assessment=assessment,
        quality_score=listed.quality_score,
        characteristic_scores=scores,
        maturity=listed.maturity,
        required_maturity=required,
        colors=colors,
        recommendations=recommendations,
    )


def write_text_atomic(path: Path, content: str | bytes) -> None:
    """Write text as UTF-8, or bytes as they are, to a temporary file, then
    move it into place, so that a reader never sees a half-written file.

    Each call creates its own temporary name next to `path`, exclusively,
    so concurrent writers never overwrite or move each other's temporary
    file. It is created with the mode a plain open would give it. Text
    that UTF-8 cannot encode raises before the temporary file is made.
    """
    data = content.encode("utf-8") if isinstance(content, str) else content
    tmp = path.parent / f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    descriptor = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def date_directory(root: str | Path, team: str, system: str, date: dt.date) -> Path:
    """The store directory of one identity and date, `<root>/<team>/<system>/<date>`,
    with team and system made path-safe by `sanitize_component`: where
    `persist_assessment` writes and every reader looks. Names that sanitize
    alike, such as `a b` and `a_b`, share it."""
    return Path(snapshot_path(root, team, system, date)).parent


def check_identity(root: str | Path, assessment: Assessment) -> None:
    """Raise StoreError if persisting `assessment` would overwrite the
    snapshot of another team or system.

    Names that differ only where `sanitize_component` maps them alike,
    such as `a b` and `a_b`, share a directory; a snapshot already in the
    target date directory that records another identity is refused rather
    than replaced. A snapshot that cannot be read, or whose team or system
    is not text, records no identity (`_records`, which unlike
    `load_assessment` does not ask for the directory's date) and may be
    replaced. Costs one failed open when the directory holds no snapshot.
    """
    snapshot = snapshot_path(root, assessment.team, assessment.system_id, assessment.date)
    try:
        payload = _read_snapshot(snapshot, absent_ok=True)
    except StoreError:
        return
    if payload is not None and not _records(payload, assessment.team, assessment.system_id):
        stored = payload["identity"]
        raise StoreError(
            f"{snapshot} holds team {stored['team']!r} system {stored['system']!r}; "
            f"team {assessment.team!r} system {assessment.system_id!r} maps to "
            "the same directory and would overwrite it"
        )


def persist_assessment(
    root: str | Path, result: AssessmentResult, model: QualityModel
) -> StoredAssessment:
    """Write one result into the store, overwriting the same identity+date.

    All three files are deterministic functions of the result and model,
    so persisting the same inputs twice leaves identical bytes on disk.
    All three are built and encoded first: text UTF-8 cannot encode (a lone
    surrogate, from a command line that is not UTF-8) raises StoreError
    before the directory is made. The snapshot is written last, once the
    other two are in place. Whatever the target directory holds is
    replaced; `check_identity` first refuses a directory holding another
    team's or system's result.
    """
    assessment = result.assessment
    directory = date_directory(root, assessment.team, assessment.system_id, assessment.date)
    texts = [
        (GAPS_FILE, serialize_assessment(assessment, model)),
        (REPORT_FILE, render_report(result, model).html),
        # last: the snapshot is what marks the directory complete
        (SNAPSHOT_FILE, _snapshot_text(_snapshot_payload(result, model))),
    ]
    try:
        files = [(directory / name, text.encode("utf-8")) for name, text in texts]
    except UnicodeEncodeError as exc:
        raise StoreError(
            f"cannot store team {assessment.team!r} system {assessment.system_id!r} "
            f"on {assessment.date}: {exc.object[exc.start:exc.end]!r} is not encodable as UTF-8"
        ) from None
    directory.mkdir(parents=True, exist_ok=True)
    for path, content in files:
        write_text_atomic(path, content)
    (gaps_csv, _), (report, _), (snapshot, _) = files
    return StoredAssessment(
        assessment.team, assessment.system_id, assessment.date, directory, gaps_csv, snapshot, report
    )


# what a glob takes for "no such file": such a snapshot is skipped
# silently, as a glob over the store never yielded it
_ABSENT = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP})


def _read_snapshot(path: str | Path, absent_ok: bool = False) -> dict | None:
    """The payload of one snapshot file; with `absent_ok`, None when there
    is no file to read."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        if absent_ok and exc.errno in _ABSENT:
            return None
        raise StoreError(f"unreadable snapshot {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise StoreError(f"unreadable snapshot {path}: {exc}") from exc
    version = payload.get("snapshot_version") if isinstance(payload, dict) else None
    if type(version) is not int or version != SNAPSHOT_VERSION:
        raise StoreError(f"unsupported snapshot version in {path}")
    return payload


def _root_prefix(root: str | Path) -> str:
    """`root` as the string prefix of the paths under it, spelled as `Path`
    spells them ("" for the current directory)."""
    base = os.fspath(Path(root))
    return "" if base == os.curdir else base


def _subdirectories(path: str) -> list[str]:
    """Sorted names of the directories in `path`, symlinks followed as a
    glob follows them; none when `path` is not a directory. The entry types
    come with the listing, so this costs no stat per entry."""
    try:
        with os.scandir(path or os.curdir) as entries:
            return sorted(entry.name for entry in entries if entry.is_dir())
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


def _system_directories(
    root: str | Path, team: str | None = None, system: str | None = None
) -> list[tuple[str, list[str]]]:
    """Each `<team>/<system>` directory under `root` with the sorted names
    of its date directories, sorted by (team, system) directory name.

    A given team or system is joined onto the path as a literal directory
    name, so a name such as `team[1]` or `*` never matches another one;
    only the levels left open are listed. Raises StoreError when a given
    name is not path-safe.
    """
    prefix = _root_prefix(root)
    teams = [sanitize_component(team)] if team is not None else None
    systems = [sanitize_component(system)] if system is not None else None
    found = []
    for team_name in _subdirectories(prefix) if teams is None else teams:
        team_dir = os.path.join(prefix, team_name)
        for system_name in _subdirectories(team_dir) if systems is None else systems:
            system_dir = os.path.join(team_dir, system_name)
            found.append((system_dir, _subdirectories(system_dir)))
    return found


def snapshot_path(root: str | Path, team: str, system: str, date: dt.date) -> str:
    """The snapshot file in `date_directory(root, team, system, date)`,
    spelled as the store walk spells it; a plain string, as the walk
    builds no `Path` per snapshot."""
    return os.path.join(
        _root_prefix(root),
        sanitize_component(team),
        sanitize_component(system),
        date.isoformat(),
        SNAPSHOT_FILE,
    )


def _readable_snapshots(
    system_dir: str, dates: list[str]
) -> Iterator[tuple[str, dict, HistoryRow]]:
    """Path, payload and history row of each snapshot in one `<team>/<system>`
    directory that history can read, in date directory order. Any other
    snapshot is skipped with a warning; a date directory without one is
    skipped silently."""
    prefix = os.path.join(system_dir, "")
    for date in dates:
        path = f"{prefix}{date}{os.sep}{SNAPSHOT_FILE}"
        try:
            payload = _read_snapshot(path, absent_ok=True)
            if payload is None:
                continue
            row = _history_row(payload)
        except (StoreError, KeyError, TypeError, ValueError, OverflowError) as exc:
            logger.warning("skipping corrupted snapshot %s: %s", path, exc)
            continue
        yield path, payload, row


def _history_order(row: HistoryRow) -> tuple[str, str, dt.date]:
    return row.team, row.system, row.date


def load_assessment(
    root: str | Path,
    team: str,
    system: str,
    date: dt.date | None = None,
    model: QualityModel | None = None,
) -> AssessmentResult:
    """Load the stored result of this team and system; with no date, the
    latest one. A snapshot recording another team or system, as one of
    `a_b` may in the directory of `a b`, or another date than its date
    directory's name, as one moved there by hand may, is not theirs; one
    whose team or system is not text, or whose date is not written as
    YYYY-MM-DD, is, so that its fault is reported.

    When a model is supplied its fingerprint is compared against the one
    recorded in the snapshot; a mismatch logs a warning but still loads,
    since the snapshot is self-contained. A snapshot that does not assess
    exactly the model's attributes raises StoreError.
    """
    if date is None:
        # one directory, as team and system are both given; newest first
        ((place, dates),) = _system_directories(root, team, system)
        found = [(os.path.join(place, name, SNAPSHOT_FILE), name) for name in reversed(dates)]
        found = [(path, name) for path, name in found if os.path.exists(path)]
        if not found:
            raise StoreError(f"not found: no assessments under {place}")
    else:
        place = snapshot_path(root, team, system, date)
        found = [(place, date.isoformat())]
    for snapshot, name in found:
        if not os.path.isfile(snapshot):
            raise StoreError(f"not found: {snapshot}")
        payload = _read_snapshot(snapshot)
        if _records(payload, team, system, name):
            break
    else:
        raise StoreError(
            f"not found: {place} holds no assessment of team {team!r} system {system!r}"
        )
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
    result = _checked_result(snapshot, payload)
    if model is not None and set(result.colors) != set(model.ids):
        raise StoreError(
            f"{snapshot} does not assess the attributes of the given model: "
            + attribute_differences(model.ids, result.colors)
        )
    return result


def _records(payload: dict, team: str, system: str, date: str | None = None) -> bool:
    """False only where `payload` records, as text, another team or system,
    or, given the name of its date directory, another date written as
    YYYY-MM-DD; a date written otherwise is left for the decoder to report."""
    try:
        identity = payload["identity"]
        if (_text(identity, "team"), _text(identity, "system")) != (team, system):
            return False
        if date is None:
            return True
        recorded = identity["date"]
        return recorded == date or dt.date.fromisoformat(recorded).isoformat() != recorded
    except (KeyError, TypeError, ValueError):
        return True


def attribute_differences(expected: Sequence[str], found: Collection[str]) -> str:
    """The attribute ids `found` lacks and adds against `expected`, in the
    order of each, as `lacks a, b; adds c`."""
    missing = [sub_id for sub_id in expected if sub_id not in found]
    extra = [sub_id for sub_id in found if sub_id not in expected]
    return "; ".join(
        f"{label} {', '.join(ids)}" for label, ids in (("lacks", missing), ("adds", extra)) if ids
    )


def _checked_result(snapshot: str | Path, payload: dict) -> AssessmentResult:
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

    Reads each snapshot once and never recomputes scores. The store is
    walked as `<team>/<system>/<date>/snapshot.json` by directory listings
    alone, with no stat per snapshot. A team or system filter reads only
    that team's or system's directory, since `persist_assessment` always
    writes to `<team>/<system>/<date>/`; a snapshot moved by hand out of
    its directory is therefore not found by a filtered lookup, just as
    `load_assessment` misses it. Rows still match the filter exactly: `a b`
    and `a_b` share a directory but not rows. A corrupted snapshot is
    reported with a warning and skipped; the rest of the history is still
    returned. Rows are sorted by team, system, then date ascending.
    """
    try:
        directories = _system_directories(root, team, system)
    except StoreError:
        # a name that is not path-safe was never stored
        return []
    rows: list[HistoryRow] = []
    for directory in directories:
        for _, _, row in _readable_snapshots(*directory):
            if (team is None or row.team == team) and (system is None or row.system == system):
                rows.append(row)
    rows.sort(key=_history_order)
    return rows


# the attribute ids of one assessment in its own order, and a bit per
# attribute, set when it has no gap
GapMask = tuple[tuple[str, ...], int]


def no_gap_mask(assessment: Assessment) -> GapMask:
    """Which attributes of `assessment` have no gap, as a bit mask over its
    attribute order.

    The ids are interned: a mask outlives the snapshot they were parsed
    from, and would otherwise keep that snapshot's copies of them alive.
    """
    mask = 0
    for bit, entry in enumerate(assessment.gaps.values()):
        if entry.gap is Gap.NO_GAP:
            mask |= 1 << bit
    return tuple(map(sys.intern, assessment.gaps)), mask


def fleet_scan(
    root: str | Path, before: dt.date | None = None, after: dt.date | None = None
) -> tuple[list[HistoryRow], tuple[list[GapMask], list[GapMask], list[str]] | None]:
    """`history(root)`, plus the `mlq fleet` cohorts, reading each snapshot once.

    The cohorts are None unless both dates are given, else (before masks,
    after masks, paths): per identity, in team/system order, the no-gap
    mask of its newest snapshot dated on or before `before`, and of its
    newest dated on or after `after` (the first read of equal dates), with
    the path of each pick, before then after. Each pick is what
    `load_assessment` makes of `snapshot_path(root, team, system, date)`.
    Only the directory being read keeps payloads: when it is done, those
    still some identity's newest are rebuilt, and the outcome is kept by
    identity, date and path. A pick read elsewhere (moved by hand, say) is
    loaded after the scan; each path is rebuilt at most once per identity.

    Raises StoreError, in this order, when the store holds no assessment,
    when a cohort is empty, and for the first pick, before then after, that
    `load_assessment` refuses.
    """
    rows: list[HistoryRow] = []
    cohorts = before is not None and after is not None
    # per (cohort, team, system): the date and path of its newest snapshot so far
    newest: dict[tuple[bool, str, str], tuple[dt.date, str]] = {}
    # by team, system, date and path: a path may hold another identity's
    # snapshot, or one recording another date
    outcomes: dict[tuple[str, str, dt.date, str], GapMask | StoreError] = {}
    for directory in _system_directories(root):
        # the payloads of this directory's candidates, by the key they lead
        fresh: dict[tuple[bool, str, str], tuple[str, dict]] = {}
        for path, payload, row in _readable_snapshots(*directory):
            rows.append(row)
            if not cohorts:
                continue
            for key, member in (
                ((False, row.team, row.system), row.date <= before),
                ((True, row.team, row.system), row.date >= after),
            ):
                if member and (key not in newest or row.date > newest[key][0]):
                    newest[key] = row.date, path
                    fresh[key] = path, payload
        for key, (path, payload) in fresh.items():
            held = (key[1], key[2], newest[key][0], path)
            if held not in outcomes:
                try:
                    outcomes[held] = no_gap_mask(_checked_result(path, payload).assessment)
                except StoreError as exc:
                    outcomes[held] = exc
    rows.sort(key=_history_order)
    if not rows:
        raise StoreError(f"store {root} contains no assessments")
    if not cohorts:
        return rows, None
    keys = sorted(newest)  # the before cohort, then the after one
    split = sum(not key[0] for key in keys)
    if not 0 < split < len(keys):
        raise StoreError("before/after dates leave an empty cohort; nothing to compare")
    masks, paths = [], []
    for key in keys:
        _, team, system = key
        date = newest[key][0]
        # a name that is not path-safe raises: it was never stored as this identity
        path = snapshot_path(root, team, system, date)
        outcome = outcomes.get((team, system, date, path))
        if outcome is None:
            outcome = no_gap_mask(load_assessment(root, team, system, date).assessment)
            outcomes[team, system, date, path] = outcome
        if isinstance(outcome, StoreError):
            raise outcome
        masks.append(outcome)
        paths.append(path)
    return rows, (masks[:split], masks[split:], paths)
