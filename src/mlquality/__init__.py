"""Quality scoring, maturity grading and remediation reporting for ML
systems.

The package evaluates one system per assessment: a gap per quality
attribute feeds a 0..100 quality score, a maturity level derived from a
per-level requirement matrix, a business-criticality class with its
required maturity, color-coded remediation priorities and a
self-contained HTML report. Assessments can be written by hand (gaps CSV),
collected through a questionnaire, or inferred automatically from registry
metadata; results are stored versioned on disk and aggregated into fleet
views.

The public names below are importable from the package itself, but each
submodule is imported only when one of its names is first asked for, so
a command that never parses YAML or aggregates a fleet does not pay for
loading that code.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "analytics": (
        "ComplianceRow",
        "DistributionSummary",
        "compliance_by_subcharacteristic",
        "render_compliance_chart",
        "render_trend_chart",
        "score_distribution",
    ),
    "assessment": ("Assessment", "GapEntry", "parse_assessment", "serialize_assessment"),
    "errors": (
        "GapFileError",
        "MlQualityError",
        "ModelConfigError",
        "OverrideError",
        "SnapshotError",
        "StoreError",
    ),
    "form": ("questionnaire_template",),
    "model": (
        "Characteristic",
        "Demand",
        "Gap",
        "QualityModel",
        "SubCharacteristic",
        "default_model",
        "load_quality_model",
        "validate_model",
    ),
    "registry": (
        "ManualOverrides",
        "RegistrySnapshot",
        "SystemMetadata",
        "fleet_percentiles",
        "infer_gaps",
        "load_overrides",
        "load_registry_snapshot",
        "parse_registry_snapshot",
        "usage_from_metadata",
    ),
    "report": ("ReportDocument", "render_radar", "render_report"),
    "scoring": (
        "AssessmentResult",
        "BusinessCriticality",
        "CriticalityLevel",
        "FleetStats",
        "GapColor",
        "Recommendation",
        "SystemUsage",
        "characteristic_scores",
        "classify_gaps",
        "determine_criticality",
        "evaluate",
        "maturity_level",
        "quality_score",
        "recommendations",
        "required_maturity",
        "satisfies_level",
    ),
    "store": (
        "HistoryRow",
        "StoredAssessment",
        "history",
        "load_assessment",
        "model_fingerprint",
        "persist_assessment",
    ),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
