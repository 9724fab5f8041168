"""In-process half of the benchmark: runs `mlquality.cli.main` and the
public API inside one fresh interpreter.

Usage: python3 bench/worker.py SPEC.json

The spec names a task and its inputs; the result goes to the JSON file
named by `spec["result"]`. Paths in the spec are relative to the working
directory the orchestrator (run.py) starts this process in, so the
program's outputs never contain a checkout path.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import gen
from spans import Tracer, layer_metrics


def run_command(cli, argv: list[str], log: Path, tracer: Tracer | None = None) -> int:
    """One `mlq` command in process, its stdout and stderr appended to `log`.

    A traceback counts as a failed command, not as a crash of the benchmark.
    """
    with open(log, "a", encoding="utf-8") as handle:
        with contextlib.redirect_stdout(handle), contextlib.redirect_stderr(handle):
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            with span:
                try:
                    return cli.main(argv)
                except Exception:
                    traceback.print_exc()
                    return -1


def timed(cli, argv, log, tracer=None) -> tuple[int, float]:
    started = time.perf_counter()
    code = run_command(cli, argv, log, tracer)
    return code, time.perf_counter() - started


# the host's speed drifts over seconds to minutes; two passes per run
# halve the part of that drift a single pass would carry
MIN_PASSES = 2


def passes(spec: dict, one_pass) -> tuple[list, dict]:
    """Run untraced passes until `seconds` have passed, at least
    MIN_PASSES; in a traced run, one untraced and then one traced pass."""
    results = []
    if spec["trace"]:
        results.append(one_pass(None))
        tracer = Tracer()
        tracer.install()
        try:
            results.append(one_pass(tracer))
        finally:
            tracer.uninstall()
        tracer.dump(Path(spec["spans"]))
        return results, {"tracer": tracer}
    started = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - started < spec["seconds"]:
        results.append(one_pass(None))
    return results, {}


def settle() -> None:
    """Flush earlier writes, so that a timed pass does not wait on the
    write-back of files the benchmark wrote before it."""
    os.sync()


def set_aside(*paths: str) -> None:
    """Rename earlier outputs out of the way instead of deleting them:
    freeing thousands of files right before a timed pass slows it down.
    run.py deletes them with the rest of the work directory."""
    for path in paths:
        if os.path.exists(path):
            os.rename(path, f"{path}.old-{time.monotonic_ns()}")


def snapshots_in(store: str) -> int:
    return sum(1 for _ in Path(store).glob("*/*/*/snapshot.json"))


def nightly(spec: dict) -> dict:
    from mlquality import cli

    store, views = spec["store"], spec["views"]

    def one_pass(tracer):
        set_aside(store, views)
        Path(spec["infer_log"]).write_text("")
        settle()
        infer = timed(
            cli,
            ["infer", "--registry", spec["registry"], "--overrides", spec["overrides"],
             "--store", store],
            Path(spec["infer_log"]),
            tracer,
        )
        fleet = timed(
            cli,
            ["fleet", "--store", store, "--out", views,
             "--before", spec["date"], "--after", spec["date"]],
            Path(spec["log"]),
            tracer,
        )
        return {"codes": [infer[0], fleet[0]], "infer_s": infer[1], "fleet_s": fleet[1]}

    results, extra = passes(spec, one_pass)
    out = {"passes": results, "rerender_codes": rerender(cli, spec)}
    if "tracer" in extra:
        out["layers"] = traced_layers(extra["tracer"], {"infer": 1, "fleet": 1}, store)
    return out


def rerender(cli, spec: dict) -> list[int]:
    """`mlq report --out` for the sampled systems; not timed."""
    codes = []
    for team, system, date in spec["sample"]:
        argv = ["report", "--store", spec["store"], "--team", team, "--system", system,
                "--date", date,
                "--out", str(Path(spec["rerender"]) / team / system / date / "report.html")]
        codes.append(run_command(cli, argv, Path(spec["log"])))
    return codes


def traced_layers(tracer: Tracer, commands: dict[str, int], store: str) -> dict:
    return layer_metrics(tracer.spans, tracer.snapshot_reads, commands, snapshots_in(store))


def history_build(spec: dict) -> dict:
    """Build the history-deep store through the public API."""
    from mlquality import (
        default_model,
        determine_criticality,
        evaluate,
        fleet_percentiles,
        infer_gaps,
        persist_assessment,
        usage_from_metadata,
    )
    from mlquality.registry import ManualOverrides, SystemMetadata

    model = default_model()
    drift = gen.monthly_drift(spec["seed"], spec["systems"], spec["months"])
    for month, rows in zip(gen.months(spec["months"]), drift):
        records = [SystemMetadata(**entry) for entry, _ in rows]
        fleet = fleet_percentiles(records)
        for record, (_, review) in zip(records, rows):
            assessment = infer_gaps(record, ManualOverrides(**review), fleet, model, date=month)
            criticality = determine_criticality(usage_from_metadata(record), fleet)
            result = evaluate(replace(assessment, criticality=criticality), model)
            persist_assessment(spec["store"], result, model)
    return {"snapshots": snapshots_in(spec["store"])}


def history_session(spec: dict) -> dict:
    from mlquality import cli

    store, views, outputs = spec["store"], spec["views"], Path(spec["outputs"])

    def one_pass(tracer):
        shutil.rmtree(views, ignore_errors=True)
        shutil.rmtree(outputs, ignore_errors=True)
        outputs.mkdir(parents=True)
        settle()
        fleet = timed(
            cli,
            ["fleet", "--store", store, "--out", views,
             "--before", spec["before"], "--after", spec["after"]],
            Path(spec["log"]),
            tracer,
        )
        listing = timed(cli, ["history", "--store", store], outputs / "history.csv", tracer)
        lookups = [
            timed(
                cli,
                ["history", "--store", store, "--team", team, "--system", system],
                outputs / f"lookup-{index:03d}.csv",
                tracer,
            )
            for index, (team, system) in enumerate(spec["lookups"])
        ]
        return {
            "codes": [fleet[0], listing[0]] + [code for code, _ in lookups],
            "fleet_s": fleet[1],
            "history_s": listing[1],
            "lookup_s": [seconds for _, seconds in lookups],
        }

    results, extra = passes(spec, one_pass)
    out = {"passes": results, "rerender_codes": rerender(cli, spec)}
    if "tracer" in extra:
        commands = {"fleet": 1, "history": 1 + len(spec["lookups"])}
        out["layers"] = traced_layers(extra["tracer"], commands, store)
    return out


def desk_inproc(spec: dict) -> dict:
    """The desk commands in process: one untraced and one traced pass."""
    from mlquality import cli

    cases = json.loads(Path(spec["cases"]).read_text(encoding="utf-8"))
    log = Path(spec["log"])

    def one_pass(tracer):
        store = spec["store"]
        shutil.rmtree(store, ignore_errors=True)
        settle()
        assess, report, codes = [], [], []
        for case in cases:
            code, seconds = timed(cli, assess_argv(case, store), log, tracer)
            codes.append(code)
            assess.append(seconds)
            code, seconds = timed(cli, report_argv(case, store), log, tracer)
            codes.append(code)
            report.append(seconds)
        return {"codes": codes, "assess_s": assess, "report_s": report}

    results, extra = passes(spec, one_pass)
    out = {"passes": results}
    if "tracer" in extra:
        out["layers"] = traced_layers(
            extra["tracer"], {"assess": len(cases), "report": len(cases)}, spec["store"]
        )
    return out


def assess_argv(case: dict, store: str) -> list[str]:
    argv = ["assess", "--gaps", case["path"], "--team", case["team"],
            "--system", case["system"], "--date", case["date"],
            "--criticality", str(case["criticality"]), "--store", store]
    if case["family"]:
        argv += ["--family", case["family"]]
    return argv


def report_argv(case: dict, store: str) -> list[str]:
    return ["report", "--team", case["team"], "--system", case["system"], "--store", store]


TASKS = {
    "nightly": nightly,
    "history-build": history_build,
    "history-session": history_session,
    "desk-inproc": desk_inproc,
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = TASKS[spec["task"]](spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
