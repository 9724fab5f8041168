"""Span recorder for the traced benchmark run.

The program is traced from outside: `install` replaces public functions at
the binding their caller looks them up through (`mlquality.cli.<name>`,
since cli.py imports names directly, plus `render_report` and
`model_fingerprint` as seen from `mlquality.store`). Each call becomes a
span (name, start, end, parent). Opening a `snapshot.json` for reading is
recorded as an event under the innermost open span, which counts snapshot
reads however the store is implemented. Everything stays in memory until
`dump` writes it once at the end.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name); the span name is `<layer>.<function>`
TARGETS = (
    ("mlquality.cli", "load_registry_snapshot", "registry.load_registry_snapshot"),
    ("mlquality.cli", "load_overrides", "registry.load_overrides"),
    ("mlquality.cli", "fleet_percentiles", "registry.fleet_percentiles"),
    ("mlquality.cli", "infer_gaps", "registry.infer_gaps"),
    ("mlquality.cli", "determine_criticality", "scoring.determine_criticality"),
    ("mlquality.cli", "evaluate", "scoring.evaluate"),
    ("mlquality.cli", "parse_assessment", "assessment.parse_assessment"),
    ("mlquality.cli", "load_quality_model", "model.load_quality_model"),
    ("mlquality.cli", "render_report", "report.render_report"),
    ("mlquality.store", "render_report", "report.render_report"),
    ("mlquality.cli", "persist_assessment", "store.persist_assessment"),
    ("mlquality.store", "model_fingerprint", "store.model_fingerprint"),
    ("mlquality.cli", "history", "store.history"),
    ("mlquality.cli", "load_assessment", "store.load_assessment"),
    ("mlquality.cli", "score_distribution", "analytics.score_distribution"),
    ("mlquality.cli", "render_trend_chart", "analytics.render_trend_chart"),
    ("mlquality.cli", "compliance_by_subcharacteristic", "analytics.compliance_by_subcharacteristic"),
    ("mlquality.cli", "render_compliance_chart", "analytics.render_compliance_chart"),
)
SNAPSHOT_FILE = "snapshot.json"


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, result size or None]
        self.spans: list[list] = []
        # one parent span index per snapshot.json opened for reading
        self.snapshot_reads: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if isinstance(result, list):
                self.spans[index][4] = len(result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            if hasattr(module, attribute):
                original = getattr(module, attribute)
                self._undo.append((module, attribute, original))
                setattr(module, attribute, self.wrap(name, original))
        real_open = io.open

        def counting_open(file, mode="r", *args, **kwargs):
            if (
                "r" in mode
                and isinstance(file, (str, os.PathLike))
                and os.path.basename(os.fspath(file)) == SNAPSHOT_FILE
            ):
                self.snapshot_reads.append(self._stack[-1] if self._stack else -1)
            return real_open(file, mode, *args, **kwargs)

        for module in (io, builtins):
            self._undo.append((module, "open", real_open))
            module.open = counting_open

    def uninstall(self) -> None:
        while self._undo:
            module, attribute, original = self._undo.pop()
            setattr(module, attribute, original)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "snapshot_reads": self.snapshot_reads}, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def ancestor(spans: list[list], index: int, name: str) -> int:
    """Index of the nearest span called `name` enclosing `index`, or -1."""
    while index >= 0 and spans[index][0] != name:
        index = spans[index][3]
    return index


def layer_metrics(
    spans: list[list], snapshot_reads: list[int], commands: dict[str, int], snapshots: int
) -> dict:
    """Per-layer figures of one traced pass.

    `_us`/`_ms` figures are mean self time per call; `.calls` figures are
    calls per pass; `commands` is the number of `mlq` commands of each
    kind in the pass, keyed by kind, to turn totals into per-command means;
    `snapshots` is the number of snapshots in the store.
    """
    own = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for span, seconds in zip(spans, own):
        by_name.setdefault(span[0], []).append(seconds)

    def mean(name: str, scale: float) -> float:
        values = by_name.get(name, [])
        return sum(values) / len(values) * scale if values else 0.0

    def per_command(names: tuple[str, ...], kind: str, scale: float) -> float:
        count = commands.get(kind, 0)
        total = sum(sum(by_name.get(name, [])) for name in names)
        return total / count * scale if count else 0.0

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    # history calls: snapshots each one read, and rows each one returned
    scanned: dict[int, int] = {}
    reads_in_fleet = 0
    for parent in snapshot_reads:
        call = ancestor(spans, parent, "store.history")
        if call >= 0:
            scanned[call] = scanned.get(call, 0) + 1
        if ancestor(spans, parent, "cli.fleet") >= 0:
            reads_in_fleet += 1
    history_calls = [i for i, span in enumerate(spans) if span[0] == "store.history"]
    per_call_scanned = [scanned.get(i, 0) for i in history_calls]
    per_call_rows = [spans[i][4] or 0 for i in history_calls]
    median_scanned = statistics.median(per_call_scanned) if history_calls else 0
    median_rows = statistics.median(per_call_rows) if history_calls else 0

    return {
        "registry.load_registry_snapshot_s": mean("registry.load_registry_snapshot", 1),
        "registry.load_overrides_ms": mean("registry.load_overrides", 1e3),
        "registry.infer_gaps_us": mean("registry.infer_gaps", 1e6),
        "registry.infer_gaps.calls": calls("registry.infer_gaps"),
        "registry.fleet_percentiles_ms": mean("registry.fleet_percentiles", 1e3),
        "scoring.evaluate_us": mean("scoring.evaluate", 1e6),
        "scoring.evaluate.calls": calls("scoring.evaluate"),
        "scoring.determine_criticality_us": mean("scoring.determine_criticality", 1e6),
        "assessment.parse_assessment_us": mean("assessment.parse_assessment", 1e6),
        "model.load_quality_model_ms": mean("model.load_quality_model", 1e3),
        "report.render_report_us": mean("report.render_report", 1e6),
        "report.render_report.calls": calls("report.render_report"),
        "store.persist_assessment_us": mean("store.persist_assessment", 1e6),
        "store.model_fingerprint_us": mean("store.model_fingerprint", 1e6),
        "store.model_fingerprint.calls": calls("store.model_fingerprint"),
        "store.history_s": mean("store.history", 1),
        "store.history.snapshots_scanned": median_scanned,
        "store.history.rows_returned": median_rows,
        "store.history.rows_per_scanned": median_rows / median_scanned if median_scanned else 0.0,
        "store.load_assessment_us": mean("store.load_assessment", 1e6),
        "store.load_assessment.calls": calls("store.load_assessment"),
        "store.snapshot_reads_per_snapshot": (
            reads_in_fleet / commands["fleet"] / snapshots
            if commands.get("fleet") and snapshots else 0.0
        ),
        "analytics.score_distribution_ms": per_command(
            ("analytics.score_distribution",), "fleet", 1e3
        ),
        "analytics.render_trend_chart_ms": per_command(
            ("analytics.render_trend_chart",), "fleet", 1e3
        ),
        "analytics.compliance_ms": per_command(
            ("analytics.compliance_by_subcharacteristic", "analytics.render_compliance_chart"),
            "fleet",
            1e3,
        ),
    }
