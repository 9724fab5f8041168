"""Model catalog, validation and configuration loading."""

from __future__ import annotations

import hashlib
import json
import random
import sys

import pytest

from conftest import make_assessment
from mlquality.errors import ModelConfigError
from mlquality.model import (
    Characteristic,
    Demand,
    Gap,
    default_model,
    load_quality_model,
    validate_model,
)
from mlquality.scoring import satisfies_level

FULL_ONLY_ROWS = {
    "responsiveness",
    "usability",
    "cost_effectiveness",
    "availability",
    "scalability",
    "discoverability",
    "explainability",
    "fairness",
    "ownership",
    "standards_compliance",
    "vulnerability",
}


def test_default_catalog_shape(model):
    assert len(model.ids) == 25
    assert len(model.characteristics) == 7
    assert model.characteristics == tuple(Characteristic)
    grouped = {
        characteristic: [sub.id for sub in model.rows_of(characteristic)]
        for characteristic in model.characteristics
    }
    assert grouped[Characteristic.UTILITY] == [
        "accuracy", "effectiveness", "responsiveness", "usability",
    ]
    assert grouped[Characteristic.ECONOMY] == ["cost_effectiveness", "efficiency"]
    assert grouped[Characteristic.ROBUSTNESS] == [
        "availability", "resilience", "adaptability", "scalability",
    ]
    assert grouped[Characteristic.PRODUCTIONIZABILITY] == ["repeatability", "monitoring"]
    assert grouped[Characteristic.MODIFIABILITY] == [
        "maintainability", "modularity", "testability", "operability",
    ]
    assert grouped[Characteristic.COMPREHENSIBILITY] == [
        "discoverability", "readability", "traceability", "understandability",
    ]
    assert grouped[Characteristic.RESPONSIBILITY] == [
        "explainability", "fairness", "ownership", "standards_compliance",
        "vulnerability",
    ]


def test_minimal_requirement_absent_exactly_for_full_only_rows(model):
    without_minimal = {
        sub.id for sub in model.sub_characteristics if sub.minimal_requirement is None
    }
    assert without_minimal == FULL_ONLY_ROWS


def test_legal_gaps_exclude_small_on_full_only_rows(model):
    for sub_id in model.ids:
        legal = model.legal_gaps(sub_id)
        if sub_id in FULL_ONLY_ROWS:
            assert legal == (Gap.NO_GAP, Gap.LARGE)
        else:
            assert legal == (Gap.NO_GAP, Gap.SMALL, Gap.LARGE)


def test_default_model_is_valid(model):
    assert validate_model(model) == []


def test_every_row_demands_full_at_level_5(model):
    for sub_id in model.ids:
        assert model.demand(sub_id, 5) is Demand.FULL


def test_monotonicity_violation_detected(model):
    broken = dict(model.matrix)
    broken["testability"] = (
        Demand.NONE, Demand.FULL, Demand.MINIMAL, Demand.MINIMAL, Demand.FULL,
    )
    candidate = type(model)(
        sub_characteristics=model.sub_characteristics,
        matrix=broken,
        remediation_texts=model.remediation_texts,
        characteristic_descriptions=model.characteristic_descriptions,
    )
    violations = validate_model(candidate)
    assert violations == ["testability: demand decreases from level 2 to level 3"]


def test_missing_level_5_full_detected(model):
    broken = dict(model.matrix)
    broken["scalability"] = (
        Demand.NONE, Demand.NONE, Demand.NONE, Demand.NONE, Demand.NONE,
    )
    candidate = type(model)(
        sub_characteristics=model.sub_characteristics,
        matrix=broken,
        remediation_texts=model.remediation_texts,
        characteristic_descriptions=model.characteristic_descriptions,
    )
    assert validate_model(candidate) == ["scalability: demand at level 5 must be full"]


@pytest.mark.parametrize(
    "edit, violation",
    [
        (lambda matrix: matrix.pop("testability"), "testability: missing matrix row"),
        (
            lambda matrix: matrix.update(speed=matrix["accuracy"]),
            "speed: matrix row for unknown sub-characteristic",
        ),
        (
            lambda matrix: matrix.update(testability=matrix["testability"][:4]),
            "testability: expected 5 cells, got 4",
        ),
    ],
    ids=["missing row", "unknown row", "wrong arity"],
)
def test_matrix_shape_violations_detected(model, edit, violation):
    matrix = dict(model.matrix)
    edit(matrix)
    candidate = type(model)(
        sub_characteristics=model.sub_characteristics,
        matrix=matrix,
        remediation_texts=model.remediation_texts,
        characteristic_descriptions=model.characteristic_descriptions,
    )
    assert validate_model(candidate) == [violation]


def test_load_without_config_equals_default(model):
    loaded = load_quality_model(None)
    assert loaded == model
    assert loaded.matrix == model.matrix


def test_load_single_cell_override(model):
    loaded = load_quality_model(
        "matrix:\n  testability: ['-', '-', min, min, full]\n"
    )
    assert loaded.demand("testability", 2) is Demand.NONE
    for sub_id in model.ids:
        for level in range(1, 6):
            if (sub_id, level) == ("testability", 2):
                continue
            assert loaded.demand(sub_id, level) is model.demand(sub_id, level)


def test_load_rejects_minimal_demand_without_minimal_requirement():
    with pytest.raises(ModelConfigError) as excinfo:
        load_quality_model(
            "matrix:\n  responsiveness: [full, full, min, full, full]\n"
        )
    assert any("without minimal requirement" in p for p in excinfo.value.problems)


def test_load_rejects_unknown_row():
    with pytest.raises(ModelConfigError) as excinfo:
        load_quality_model("matrix:\n  latency: ['-', '-', '-', '-', full]\n")
    assert any("matrix.latency" in p for p in excinfo.value.problems)


def test_load_rejects_bad_demand_token():
    with pytest.raises(ModelConfigError) as excinfo:
        load_quality_model("matrix:\n  testability: ['-', '-', min, maybe, full]\n")
    assert any("bad demand token" in p and "level 4" in p for p in excinfo.value.problems)


def test_load_rejects_wrong_arity():
    with pytest.raises(ModelConfigError) as excinfo:
        load_quality_model("matrix:\n  testability: [min, full]\n")
    assert any("5 demand tokens" in p for p in excinfo.value.problems)


def test_load_text_override(model):
    loaded = load_quality_model(
        "sub_characteristics:\n"
        "  testability:\n"
        "    full_requirement: Coverage above ninety percent\n"
        "    remediation: Write more tests\n"
    )
    assert loaded.sub("testability").full_requirement == "Coverage above ninety percent"
    assert loaded.remediation_texts["testability"] == "Write more tests"
    assert loaded.sub("accuracy") == model.sub("accuracy")


def test_load_rejects_parent_change():
    with pytest.raises(ModelConfigError) as excinfo:
        load_quality_model(
            "sub_characteristics:\n  testability:\n    parent: utility\n"
        )
    assert any("parent" in p for p in excinfo.value.problems)


@pytest.mark.parametrize(
    "config, problems",
    [
        (
            "sub_characteristics:\n"
            "  testability:\n"
            "    parent: utility\n"
            "    minimal_requirement:\n"
            "    owner: qa\n"
            "    reasoning: 7\n"
            "    full_requirement:\n",
            [
                "sub_characteristics.testability.parent: cannot be changed "
                "(fixed to modifiability)",
                "sub_characteristics.testability: unknown field owner",
                "sub_characteristics.testability.reasoning: expected text",
                "sub_characteristics.testability.full_requirement: cannot be empty",
            ],
        ),
        (
            "matrix:\n  testability: ['-', often, min, 7, full]\n",
            [
                "matrix.testability: bad demand token 'often' at level 2 "
                "(expected one of -, min, full)",
            ],
        ),
    ],
    ids=["row fields", "two bad tokens"],
)
def test_load_lists_every_problem_in_order(config, problems):
    with pytest.raises(ModelConfigError) as excinfo:
        load_quality_model(config)
    assert excinfo.value.problems == problems


def test_load_rejects_unknown_section():
    with pytest.raises(ModelConfigError) as excinfo:
        load_quality_model("weights:\n  testability: 3\n")
    assert any("unknown section" in p for p in excinfo.value.problems)


def test_load_rejects_invalid_yaml():
    with pytest.raises(ModelConfigError):
        load_quality_model("matrix: [unbalanced\n")


def test_higher_levels_accept_fewer_gap_vectors(model):
    """Satisfying level L+1 implies satisfying level L, sampled randomly."""
    rng = random.Random(20260105)
    for _ in range(300):
        gaps = {
            sub_id: rng.choice(model.legal_gaps(sub_id)) for sub_id in model.ids
        }
        assessment = make_assessment(model, gaps)
        satisfied = [
            satisfies_level(assessment, level, model) for level in range(1, 6)
        ]
        for lower, higher in zip(satisfied, satisfied[1:]):
            assert lower or not higher


def _reference_fingerprint(model) -> str:
    """hashlib's SHA-256 of the model's canonical JSON, built here from the
    model's public fields."""
    rows = [
        {
            "id": sub.id,
            "characteristic": sub.characteristic.value,
            "minimal_requirement": sub.minimal_requirement,
            "full_requirement": sub.full_requirement,
            "reasoning": sub.reasoning,
            "remediation": model.remediation_texts.get(sub.id, ""),
            "demands": [demand.token for demand in model.matrix[sub.id]],
        }
        for sub in model.sub_characteristics
    ]
    canonical = json.dumps(
        {"sub_characteristics": rows}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


MODEL_CONFIG = (
    "sub_characteristics:\n"
    "  testability:\n"
    "    full_requirement: Coverage above ninety percent \u2014 \u00e9t\u00e9\n"
    "    remediation: Write more tests\n"
    "matrix:\n"
    "  testability: ['-', '-', min, min, full]\n"
)


def test_fingerprint_is_hashlibs_sha256_of_the_canonical_model(tmp_path):
    config = tmp_path / "model.yaml"
    config.write_text(MODEL_CONFIG, encoding="utf-8")
    default, configured = default_model(), load_quality_model(config)
    assert default.fingerprint == _reference_fingerprint(default)
    assert configured.fingerprint == _reference_fingerprint(configured)
    assert configured.fingerprint != default.fingerprint


def test_fingerprint_falls_back_to_hashlib(monkeypatch):
    # a None entry makes the import fail, as where the module is not built
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    model = default_model()
    assert model.fingerprint == _reference_fingerprint(model)
