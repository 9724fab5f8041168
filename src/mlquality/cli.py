"""Command-line entry point.

Subcommands: assess (score a gaps CSV), infer (automated assessment from a
registry snapshot), report (re-render from a stored snapshot), history,
fleet (aggregate views), validate and form (questionnaire template).

Exit codes: 0 success, 1 validation or domain error, 2 usage error. All
output is plain text and files; there are no interactive prompts, so every
command can run from a scheduler.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import importlib
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .assessment import Assessment, parse_assessment
from .errors import (
    GapFileError,
    MlQualityError,
    ModelConfigError,
    MultiProblemError,
    OverrideError,
    StoreError,
)
from .model import QualityModel, load_quality_model
from .report import render_report
from .scoring import (
    BusinessCriticality,
    CriticalityLevel,
    SystemUsage,
    determine_criticality,
    evaluate,
)
from .store import (
    REPORT_FILE,
    HistoryRow,
    check_identity,
    date_directory,
    fleet_scan,
    history,
    load_assessment,
    persist_assessment,
    write_text_atomic,
)
from .yamldoc import load_yaml, read_text, sorted_keys

# Names used only by some commands, bound as globals of this module by the
# command that runs them (`_bind`): importing registry, analytics or form
# would cost `mlq assess` and `mlq report` start-up time for code they
# never run (PyYAML waits for the first parse). Looked up from outside, as
# `mlquality.cli.<name>`, they are bound on first access.
_DEFERRED = {
    "registry": (
        "extra_pin_problems",
        "fleet_percentiles",
        "infer_gaps",
        "load_overrides",
        "load_registry_snapshot",
        "read_fields",
        "usage_from_metadata",
    ),
    "analytics": (
        # not run by any command; bound for tracers that wrap it here
        "compliance_by_subcharacteristic",
        "compliance_csv",
        "compliance_from_masks",
        "distribution_csv",
        "render_compliance_chart",
        "render_trend_chart",
        "score_distribution",
    ),
    "form": ("questionnaire_template",),
}


def _bind(module: str) -> None:
    """Import `module` and bind the names this module uses from it.

    A name already bound is kept, so a replacement set from outside (a
    tracing wrapper, a test double) stays in place.
    """
    source = importlib.import_module(f".{module}", __package__)
    for name in _DEFERRED[module]:
        globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2."""


def _load_model(args) -> QualityModel:
    return load_quality_model(Path(args.model) if args.model else None)


def _read_text(path: str) -> str:
    try:
        return read_text(Path(path), MlQualityError)
    except OSError as exc:
        raise MlQualityError(f"cannot read {path}: {exc}") from exc


def _load_usage(path: str) -> SystemUsage:
    where = f"usage file {path}"
    document = load_yaml(
        _read_text(path), lambda message: MlQualityError(f"{where}: {message}")
    )
    if not isinstance(document, dict):
        raise MlQualityError(f"{where} must be a mapping")
    # as in a registry record, null means no evidence: the default applies
    values, problems, unknown = read_fields(document, SystemUsage._fields, where)
    if unknown:
        raise MlQualityError(f"{where}: unknown fields: {', '.join(map(str, sorted_keys(unknown)))}")
    if problems:
        raise MultiProblemError(problems)
    return SystemUsage(**values)


def _store_root(args) -> Path:
    if not args.store:
        raise UsageError("--store is required (or set MLQ_STORE)")
    return Path(args.store)


def cmd_assess(args) -> int:
    model = _load_model(args)
    if args.criticality is not None:
        criticality = BusinessCriticality(
            level=CriticalityLevel(args.criticality),
            justification="provided on the command line",
        )
    elif args.usage and args.fleet:
        _bind("registry")
        fleet = fleet_percentiles(load_registry_snapshot(Path(args.fleet)).systems)
        criticality = determine_criticality(_load_usage(args.usage), fleet)
    else:
        raise UsageError(
            "business criticality is undetermined: pass --criticality, "
            "or both --usage and --fleet"
        )
    family = tuple(args.family.split(",")) if args.family else ()
    blank = any(not name or name != name.strip() for name in family)
    if blank or len(set(family)) < len(family):
        raise MlQualityError(f"--family {args.family} names an empty or repeated member")
    if family and args.system not in family:
        raise MlQualityError(
            f"--family {args.family} must include --system {args.system}"
        )
    assessment = parse_assessment(
        _read_text(args.gaps),
        model,
        team=args.team,
        system_id=args.system,
        date=args.date,
        family_members=family,
        criticality=criticality,
    )
    store = _store_root(args)
    check_identity(store, assessment)
    result = evaluate(assessment, model)
    stored = persist_assessment(store, result, model)
    print(
        f"score={result.quality_score} maturity={result.maturity} "
        f"required={result.required_maturity}"
    )
    print(f"stored: {stored.directory}")
    return 0


def _check_store_directories(store: Path, records, date: dt.date) -> None:
    """Refuse, before anything is written, records that would share a store
    directory with each other or with another identity already stored."""
    owners = {}
    for index, record in enumerate(records):
        try:
            directory = date_directory(store, record.team, record.system_id, date)
        except StoreError as exc:
            raise StoreError(f"systems[{index}]: {exc}") from None
        other = owners.setdefault(directory, record)
        if other is not record:
            raise MlQualityError(
                f"systems {other.system_id!r} (team {other.team!r}) and "
                f"{record.system_id!r} (team {record.team!r}) map to the same store "
                f"directory {directory}; rename one"
            )
        # identity only: the gaps are inferred after every record passed
        check_identity(
            store,
            Assessment(team=record.team, system_id=record.system_id, date=date, gaps={}),
        )


def cmd_infer(args) -> int:
    _bind("registry")
    model = _load_model(args)
    snapshot = load_registry_snapshot(Path(args.registry))
    overrides = load_overrides(Path(args.overrides) if args.overrides else None)
    pins = extra_pin_problems(overrides, model)
    if pins:
        raise OverrideError([f"{args.overrides}: {problem}" for problem in pins])
    date = args.date or snapshot.snapshot_date or dt.date.today()
    records = list(snapshot.systems)
    if not records:
        raise MlQualityError("registry snapshot contains no systems")
    fleet = fleet_percentiles(records)
    # a typo here would silently read as "no human review"
    known = {record.system_id for record in records}
    for system_id in sorted(set(overrides.per_system) - known):
        logger.warning(
            "overrides: systems.%s names no system in the registry snapshot", system_id
        )
    store = _store_root(args)
    _check_store_directories(store, records, date)
    for record in records:
        assessment = infer_gaps(
            record, overrides.for_system(record.system_id), fleet, model, date=date
        )
        criticality = determine_criticality(usage_from_metadata(record), fleet)
        result = evaluate(replace(assessment, criticality=criticality), model)
        persist_assessment(store, result, model)
        print(
            f"system={record.system_id} team={record.team} "
            f"score={result.quality_score} maturity={result.maturity} "
            f"required={result.required_maturity} "
            f"criticality={int(criticality.level)}"
        )
    return 0


def cmd_report(args) -> int:
    model = load_quality_model(Path(args.model)) if args.model else None
    store = _store_root(args)
    result = load_assessment(store, args.team, args.system, date=args.date, model=model)
    document = render_report(result, model)
    if args.out:
        target = Path(args.out)
    else:
        directory = date_directory(store, args.team, args.system, result.assessment.date)
        target = directory / REPORT_FILE
    target.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(target, document.html)
    print(f"report: {target}")
    return 0


def cmd_history(args) -> int:
    rows = history(_store_root(args), team=args.team, system=args.system)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(HistoryRow._fields)
    writer.writerows(rows)
    return 0


def cmd_fleet(args) -> int:
    _bind("analytics")
    if (args.before is None) != (args.after is None):
        raise UsageError("--before and --after must be given together")
    rows, cohorts = fleet_scan(_store_root(args), args.before, args.after)
    views = {
        "distribution.csv": distribution_csv(score_distribution(rows)),
        "trend.svg": render_trend_chart(rows),
    }
    if cohorts is not None:
        compliance = compliance_from_masks(*cohorts)
        views["compliance.csv"] = compliance_csv(compliance)
        views["compliance.svg"] = render_compliance_chart(compliance)
    # written only once every check has passed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in views.items():
        write_text_atomic(out / name, content)
    for name in views:
        print(f"wrote: {out / name}")
    return 0


def cmd_validate(args) -> int:
    problems: list[str] = []
    model = None
    try:
        model = _load_model(args)
        print(
            f"model OK: {len(model.ids)} sub-characteristics, "
            f"{len(model.characteristics)} characteristics"
        )
    except ModelConfigError as exc:
        problems.extend(exc.problems)
    if args.gaps:
        if model is None:
            problems.append("gaps CSV not checked: model invalid")
        else:
            try:
                parse_assessment(
                    _read_text(args.gaps),
                    model,
                    team="unchecked",
                    system_id="unchecked",
                    date=dt.date(1970, 1, 1),
                )
                print("gaps CSV OK")
            except GapFileError as exc:
                problems.extend(exc.problems)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def cmd_form(args) -> int:
    _bind("form")
    model = _load_model(args)
    target = Path(args.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(target, questionnaire_template(model))
    print(f"form: {target}")
    return 0


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=os.environ.get("MLQ_STORE"),
        help="assessment store root (default: $MLQ_STORE)",
    )


def _add_model_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model", help="quality model config file (default: built-in model)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlq",
        description="Quality and maturity assessment for ML systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    assess = sub.add_parser("assess", help="score a gaps CSV and store the result")
    assess.add_argument("--gaps", required=True, help="gaps CSV file")
    assess.add_argument("--team", required=True)
    assess.add_argument("--system", required=True)
    assess.add_argument("--date", required=True, type=dt.date.fromisoformat)
    assess.add_argument("--family", help="comma-separated system ids sharing this assessment")
    assess.add_argument(
        "--criticality", type=int, choices=(1, 3, 5), help="business criticality level"
    )
    assess.add_argument("--usage", help="usage facts file, to derive criticality")
    assess.add_argument("--fleet", help="registry snapshot, to derive fleet percentiles")
    _add_store_flag(assess)
    _add_model_flag(assess)
    assess.set_defaults(func=cmd_assess)

    infer = sub.add_parser(
        "infer", help="assess every system in a registry snapshot automatically"
    )
    infer.add_argument("--registry", required=True, help="registry snapshot file")
    infer.add_argument("--overrides", help="manual overrides file")
    infer.add_argument(
        "--date",
        type=dt.date.fromisoformat,
        help="assessment date (default: snapshot_date from the document, else today)",
    )
    _add_store_flag(infer)
    _add_model_flag(infer)
    infer.set_defaults(func=cmd_infer)

    report = sub.add_parser("report", help="re-render a report from a stored snapshot")
    report.add_argument("--team", required=True)
    report.add_argument("--system", required=True)
    report.add_argument("--date", type=dt.date.fromisoformat)
    report.add_argument("--out", help="write the report here instead of into the store")
    _add_store_flag(report)
    _add_model_flag(report)
    report.set_defaults(func=cmd_report)

    hist = sub.add_parser("history", help="list stored evaluations")
    hist.add_argument("--team")
    hist.add_argument("--system")
    _add_store_flag(hist)
    hist.set_defaults(func=cmd_history)

    fleet = sub.add_parser("fleet", help="aggregate stored assessments into fleet views")
    fleet.add_argument("--out", required=True, help="output directory")
    fleet.add_argument(
        "--before", type=dt.date.fromisoformat, help="cohort cut-off for 'before'"
    )
    fleet.add_argument(
        "--after", type=dt.date.fromisoformat, help="cohort cut-off for 'after'"
    )
    _add_store_flag(fleet)
    fleet.set_defaults(func=cmd_fleet)

    validate = sub.add_parser("validate", help="validate a model config or gaps CSV")
    validate.add_argument("--gaps", help="gaps CSV to check against the model")
    _add_model_flag(validate)
    validate.set_defaults(func=cmd_validate)

    form = sub.add_parser("form", help="emit a blank questionnaire template")
    form.add_argument("--out", required=True, help="output file")
    _add_model_flag(form)
    form.set_defaults(func=cmd_form)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MlQualityError as exc:
        for problem in getattr(exc, "problems", [str(exc)]):
            print(problem, file=sys.stderr)
        return 1
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
