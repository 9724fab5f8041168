"""Assessments: one system's gap per quality attribute, plus identity.

The on-disk exchange format is a small CSV with header
`sub_characteristic,gap,reason`, one row per attribute in any order. Gap
tokens may be words (no/small/large) or digits (0/1/2); the word form is
canonical on output.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import GapFileError
from .model import GAP_ALIASES, Gap, QualityModel

if TYPE_CHECKING:
    from .scoring import BusinessCriticality

CSV_HEADER = ("sub_characteristic", "gap", "reason")


class GapEntry(NamedTuple):
    gap: Gap
    reason: str


@dataclass(frozen=True)
class Assessment:
    """One evaluation of an ML system (or family of systems).

    `gaps` is keyed by attribute id in catalog row order and must be total
    over the model it is evaluated against. `family_members` lists every
    system covered by this single evaluation; `system_id` is always one of
    them.
    """

    team: str
    system_id: str
    date: dt.date
    gaps: dict[str, GapEntry]
    family_members: tuple[str, ...] = ()
    criticality: BusinessCriticality | None = None

    def __post_init__(self):
        if not self.family_members:
            object.__setattr__(self, "family_members", (self.system_id,))
        if self.system_id not in self.family_members:
            raise ValueError(
                f"system_id {self.system_id!r} not in family_members "
                f"{self.family_members!r}"
            )

    def gap(self, sub_id: str) -> Gap:
        return self.gaps[sub_id].gap

    def reason(self, sub_id: str) -> str:
        return self.gaps[sub_id].reason


def check_gaps_total(assessment: Assessment, model: QualityModel) -> None:
    """Raise if the assessment does not cover the model exactly."""
    have = set(assessment.gaps)
    want = set(model.ids)
    missing = sorted(want - have)
    extra = sorted(have - want)
    problems = [f"missing sub-characteristic: {sub_id}" for sub_id in missing]
    problems += [f"unknown sub-characteristic: {sub_id}" for sub_id in extra]
    if problems:
        raise GapFileError(problems)


def parse_assessment(
    csv_text: str,
    model: QualityModel,
    *,
    team: str,
    system_id: str,
    date: dt.date,
    family_members: tuple[str, ...] = (),
    criticality: BusinessCriticality | None = None,
) -> Assessment:
    """Parse a gaps CSV into an Assessment.

    Every problem is reported with its 1-based line number; all problems in
    the file are collected before raising a single GapFileError. A "small"
    gap is rejected on attributes that only have a full requirement.
    """
    problems: list[str] = []
    seen: dict[str, GapEntry] = {}

    if csv_text.startswith("\ufeff"):
        raise GapFileError(
            "line 1: file starts with a UTF-8 byte order mark; "
            "save it as UTF-8 without one"
        )
    reader = csv.reader(io.StringIO(csv_text))
    rows = list(reader)
    if not rows or tuple(cell.strip() for cell in rows[0]) != CSV_HEADER:
        raise GapFileError(
            "line 1: expected header 'sub_characteristic,gap,reason'"
        )
    for line, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            problems.append(f"line {line}: expected 3 columns, got {len(row)}")
            continue
        sub_id, token, reason = (cell.strip() for cell in row)
        if sub_id not in model:
            problems.append(f"line {line}: unknown sub-characteristic: {sub_id}")
            continue
        if sub_id in seen:
            problems.append(f"line {line}: duplicate sub-characteristic: {sub_id}")
            continue
        gap = GAP_ALIASES.get(token.lower())
        if gap is None:
            problems.append(f"line {line}: malformed gap token: {token!r}")
            continue
        if gap is Gap.SMALL and model.sub(sub_id).minimal_requirement is None:
            problems.append(
                f"line {line}: small gap illegal for {sub_id} "
                "(no minimal requirement)"
            )
            continue
        seen[sub_id] = GapEntry(gap=gap, reason=reason)

    for sub_id in model.ids:
        if sub_id not in seen:
            problems.append(f"missing sub-characteristic: {sub_id}")
    if problems:
        raise GapFileError(problems)

    ordered = {sub_id: seen[sub_id] for sub_id in model.ids}
    return Assessment(
        team=team,
        system_id=system_id,
        date=date,
        gaps=ordered,
        family_members=family_members,
        criticality=criticality,
    )


def serialize_assessment(assessment: Assessment, model: QualityModel) -> str:
    """Render the canonical gaps CSV: catalog row order, word gap tokens."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for sub_id in model.ids:
        entry = assessment.gaps[sub_id]
        writer.writerow([sub_id, entry.gap.token, entry.reason])
    return out.getvalue()
