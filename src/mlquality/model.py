"""Quality model vocabulary: characteristics, attributes, gaps, demands and
the per-level requirement matrix.

The default model is compiled in from `mlquality.catalog`, so the tool runs
with zero configuration. A YAML configuration document may override
requirement texts, remediation texts and matrix cells; the set of rows is
fixed in this schema version.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .errors import ModelConfigError
from .yamldoc import load_yaml, quoted, read_text, sorted_keys

LEVELS = (1, 2, 3, 4, 5)


class Characteristic(Enum):
    """Top-level quality characteristic, in canonical catalog order."""

    UTILITY = "utility"
    ECONOMY = "economy"
    ROBUSTNESS = "robustness"
    PRODUCTIONIZABILITY = "productionizability"
    MODIFIABILITY = "modifiability"
    COMPREHENSIBILITY = "comprehensibility"
    RESPONSIBILITY = "responsibility"

    @property
    def display_name(self) -> str:
        return self.value.capitalize()


class Gap(IntEnum):
    """How far an attribute is from its requirements.

    NO_GAP: the full requirement is met. SMALL: only the minimal
    requirement is met. LARGE: nothing is met. The numeric values feed the
    quality score directly.
    """

    NO_GAP = 0
    SMALL = 1
    LARGE = 2

    @property
    def token(self) -> str:
        return _GAP_TOKENS[self]


_GAP_TOKENS = {Gap.NO_GAP: "no", Gap.SMALL: "small", Gap.LARGE: "large"}

# Tokens accepted in gaps CSV files; the word form is canonical on output.
GAP_ALIASES: dict[str, Gap] = {
    "no": Gap.NO_GAP,
    "small": Gap.SMALL,
    "large": Gap.LARGE,
    "0": Gap.NO_GAP,
    "1": Gap.SMALL,
    "2": Gap.LARGE,
}


class Demand(IntEnum):
    """What a maturity level asks of an attribute.

    Ordered NONE < MINIMAL < FULL; matrix rows must be non-decreasing in
    the level.
    """

    NONE = 0
    MINIMAL = 1
    FULL = 2

    def satisfied_by(self, gap: Gap) -> bool:
        if self is Demand.NONE:
            return True
        if self is Demand.MINIMAL:
            return gap <= Gap.SMALL
        return gap == Gap.NO_GAP

    @property
    def token(self) -> str:
        return _DEMAND_TOKENS[self]


_DEMAND_TOKENS = {Demand.NONE: "-", Demand.MINIMAL: "min", Demand.FULL: "full"}
DEMAND_ALIASES: dict[str, Demand] = {v: k for k, v in _DEMAND_TOKENS.items()}


class SubCharacteristic(NamedTuple):
    """One quality attribute: an id, its parent characteristic and texts.

    `minimal_requirement` is None for essential attributes, which only
    carry a full requirement.
    """

    id: str
    characteristic: Characteristic
    minimal_requirement: str | None
    full_requirement: str
    reasoning: str

    @property
    def display_name(self) -> str:
        return self.id.replace("_", " ").capitalize()


@dataclass(frozen=True)
class QualityModel:
    """The attribute catalog plus the per-level requirement matrix.

    `matrix` maps attribute id to its five demands for levels 1..5;
    `remediation_texts` maps attribute id to the standard recommendation
    emitted when the attribute has a gap.

    A model is never changed after construction: the derived views below
    (ids, rows per characteristic, fingerprint, first violated levels) are
    built once and kept.
    """

    sub_characteristics: tuple[SubCharacteristic, ...]
    matrix: dict[str, tuple[Demand, Demand, Demand, Demand, Demand]]
    remediation_texts: dict[str, str]
    characteristic_descriptions: dict[Characteristic, str]

    def __post_init__(self):
        subs = self.sub_characteristics
        rows: dict[Characteristic, list[SubCharacteristic]] = {}
        for sub in subs:
            rows.setdefault(sub.characteristic, []).append(sub)
        object.__setattr__(self, "_by_id", {sub.id: sub for sub in subs})
        object.__setattr__(self, "_ids", tuple(sub.id for sub in subs))
        object.__setattr__(self, "_characteristics", tuple(rows))
        object.__setattr__(
            self, "_rows", {key: tuple(members) for key, members in rows.items()}
        )

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def characteristics(self) -> tuple[Characteristic, ...]:
        return self._characteristics

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of everything in the model that affects results."""
        # CPython's built-in SHA-256: hashlib's digest without loading OpenSSL
        try:
            if sys.version_info >= (3, 12):
                from _sha2 import sha256
            else:
                from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

        payload = {
            "sub_characteristics": [
                {
                    "id": sub.id,
                    "characteristic": sub.characteristic.value,
                    "minimal_requirement": sub.minimal_requirement,
                    "full_requirement": sub.full_requirement,
                    "reasoning": sub.reasoning,
                    "remediation": self.remediation_texts.get(sub.id, ""),
                    "demands": [demand.token for demand in self.matrix[sub.id]],
                }
                for sub in self.sub_characteristics
            ]
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()

    @cached_property
    def _first_violated(self) -> dict[str, tuple[int, ...]]:
        """Per attribute, indexed by gap: the lowest level whose demand the
        gap violates, or 6 when it violates none."""
        return {
            sub_id: tuple(
                next((level for level in LEVELS if not row[level - 1].satisfied_by(gap)), 6)
                for gap in Gap
            )
            for sub_id, row in self.matrix.items()
        }

    def sub(self, sub_id: str) -> SubCharacteristic:
        return self._by_id[sub_id]

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._by_id

    def demand(self, sub_id: str, level: int) -> Demand:
        return self.matrix[sub_id][level - 1]

    def rows_of(self, characteristic: Characteristic) -> tuple[SubCharacteristic, ...]:
        return self._rows.get(characteristic, ())

    def legal_gaps(self, sub_id: str) -> tuple[Gap, ...]:
        """Gap values an attribute may take; SMALL needs a minimal requirement."""
        if self.sub(sub_id).minimal_requirement is None:
            return (Gap.NO_GAP, Gap.LARGE)
        return (Gap.NO_GAP, Gap.SMALL, Gap.LARGE)


def default_model() -> QualityModel:
    """Build the built-in model from the compiled-in catalog."""
    from . import catalog

    subs = []
    matrix: dict[str, tuple[Demand, ...]] = {}
    remediation: dict[str, str] = {}
    for sub_id, parent, minimal, full, reasoning, demands, fix in catalog.DEFAULT_ROWS:
        subs.append(
            SubCharacteristic(
                id=sub_id,
                characteristic=Characteristic(parent),
                minimal_requirement=minimal,
                full_requirement=full,
                reasoning=reasoning,
            )
        )
        matrix[sub_id] = tuple(DEMAND_ALIASES[token] for token in demands)
        remediation[sub_id] = fix
    descriptions = {
        Characteristic(name): text
        for name, text in catalog.CHARACTERISTIC_DESCRIPTIONS.items()
    }
    return QualityModel(
        sub_characteristics=tuple(subs),
        matrix=matrix,  # type: ignore[arg-type]
        remediation_texts=remediation,
        characteristic_descriptions=descriptions,
    )


def validate_model(model: QualityModel) -> list[str]:
    """Check structural invariants; returns violations, empty when valid.

    Violations are ordered by catalog row, then by level, so the output is
    deterministic. Violations are data, not exceptions: a model under
    construction may legitimately be broken.
    """
    violations: list[str] = []
    for sub in model.sub_characteristics:
        row = model.matrix.get(sub.id)
        if row is None:
            violations.append(f"{sub.id}: missing matrix row")
            continue
        if len(row) != len(LEVELS):
            violations.append(
                f"{sub.id}: expected {len(LEVELS)} cells, got {len(row)}"
            )
            continue
        for level in LEVELS:
            demand = row[level - 1]
            if demand is Demand.MINIMAL and sub.minimal_requirement is None:
                violations.append(
                    f"{sub.id}: minimal demand at level {level} on "
                    "sub-characteristic without minimal requirement"
                )
        for level in LEVELS[:-1]:
            if row[level] < row[level - 1]:
                violations.append(
                    f"{sub.id}: demand decreases from level {level} "
                    f"to level {level + 1}"
                )
        if row[-1] is not Demand.FULL:
            violations.append(f"{sub.id}: demand at level 5 must be full")
    known = set(model.ids)
    for sub_id in model.matrix:
        if sub_id not in known:
            violations.append(f"{sub_id}: matrix row for unknown sub-characteristic")
    return violations


_TEXT_FIELDS = ("minimal_requirement", "full_requirement", "reasoning", "remediation")


def load_quality_model(source: str | Path | None = None) -> QualityModel:
    """Load the quality model, applying overrides from a YAML document.

    `source` may be None (pure default model), a Path to a config file, or
    the document text itself. The document has two optional sections:

      sub_characteristics:          # per-row text overrides
        testability:
          full_requirement: "..."
          remediation: "..."
      matrix:                       # per-row demand overrides
        testability: ["-", "-", "min", "min", "full"]

    Demand tokens are "-", "min" and "full". Raises ModelConfigError on
    schema problems or when the resulting model violates its invariants.
    """
    model = default_model()
    if source is None:
        return model
    text = read_text(source, ModelConfigError) if isinstance(source, Path) else source
    document = load_yaml(text, ModelConfigError)
    if document is None:
        return model
    if not isinstance(document, dict):
        raise ModelConfigError("config document must be a mapping")

    problems: list[str] = []
    unknown = set(document) - {"sub_characteristics", "matrix"}
    for key in sorted_keys(unknown):
        problems.append(f"unknown section: {key}")

    subs = {sub.id: sub for sub in model.sub_characteristics}
    remediation = dict(model.remediation_texts)
    text_overrides = document.get("sub_characteristics") or {}
    if not isinstance(text_overrides, dict):
        problems.append("sub_characteristics: expected a mapping of row id to fields")
        text_overrides = {}
    for sub_id, fields in text_overrides.items():
        if sub_id not in subs:
            problems.append(f"sub_characteristics.{sub_id}: unknown sub-characteristic")
            continue
        if not isinstance(fields, dict):
            problems.append(f"sub_characteristics.{sub_id}: expected a mapping")
            continue
        where, parent = f"sub_characteristics.{sub_id}", subs[sub_id].characteristic.value
        for field, value in fields.items():
            if field == "parent":
                if value != parent:
                    problems.append(f"{where}.parent: cannot be changed (fixed to {parent})")
            elif field not in _TEXT_FIELDS:
                problems.append(f"{where}: unknown field {field}")
            elif value is not None and not isinstance(value, str):
                problems.append(f"{where}.{field}: expected text")
            elif field == "remediation":
                remediation[sub_id] = value or ""
            elif value is None and field != "minimal_requirement":
                problems.append(f"{where}.{field}: cannot be empty")
            else:
                subs[sub_id] = subs[sub_id]._replace(**{field: value})

    matrix = dict(model.matrix)
    matrix_overrides = document.get("matrix") or {}
    if not isinstance(matrix_overrides, dict):
        problems.append("matrix: expected a mapping of row id to demand tokens")
        matrix_overrides = {}
    for sub_id, tokens in matrix_overrides.items():
        if sub_id not in subs:
            problems.append(f"matrix.{sub_id}: unknown sub-characteristic")
            continue
        if not isinstance(tokens, list) or len(tokens) != len(LEVELS):
            problems.append(f"matrix.{sub_id}: expected a list of 5 demand tokens")
            continue
        row = tuple(DEMAND_ALIASES.get(str(token)) for token in tokens)
        if None in row:
            level = row.index(None) + 1
            problems.append(
                f"matrix.{sub_id}: bad demand token {quoted(tokens[level - 1])} at level "
                f"{level} (expected one of -, min, full)"
            )
        else:
            matrix[sub_id] = row

    if problems:
        raise ModelConfigError(problems)

    candidate = QualityModel(
        sub_characteristics=tuple(subs[sub_id] for sub_id in model.ids),
        matrix=matrix,  # type: ignore[arg-type]
        remediation_texts=remediation,
        characteristic_descriptions=dict(model.characteristic_descriptions),
    )
    violations = validate_model(candidate)
    if violations:
        raise ModelConfigError(violations)
    return candidate
