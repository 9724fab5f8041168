"""Benchmark of the `mlq` command-line tool.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {nightly-2k,history-deep,desk} \
        --seed N --seconds S --trace {0,1}

Builds seeded inputs, runs the workload against the sources in `src/`,
checks every output, and prints as its last line one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` they are the
per-layer ones of a traced pass (see bench/README.md). All files go to
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import gen
from worker import assess_argv, report_argv, settle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# set-up runs several times and reports its median, except on
# history-deep, where one set-up writes 3,600 assessments (8-18 s) and a
# second would lengthen every run by as much again
SETUP_REPEATS = 5
# a run must end within 180 s; the alarm stops a hung program before that
DEADLINE_S = 170
MLQ = "import sys; from mlquality.cli import main; sys.exit(main())"

END_TO_END = {
    "session_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "registry.load_registry_snapshot_s": "s",
    "registry.input_bytes": "bytes",
    "registry.load_overrides_ms": "ms",
    "registry.infer_gaps_us": "us",
    "registry.infer_gaps.calls": "count",
    "registry.fleet_percentiles_ms": "ms",
    "scoring.evaluate_us": "us",
    "scoring.evaluate.calls": "count",
    "scoring.determine_criticality_us": "us",
    "assessment.parse_assessment_us": "us",
    "model.load_quality_model_ms": "ms",
    "report.render_report_us": "us",
    "report.render_report.calls": "count",
    "store.persist_assessment_us": "us",
    "store.model_fingerprint_us": "us",
    "store.model_fingerprint.calls": "count",
    "store.bytes_written_per_system": "bytes",
    "store.files_written_per_system": "count",
    "store.history_s": "s",
    "store.history.snapshots_scanned": "count",
    "store.history.rows_returned": "count",
    "store.history.rows_per_scanned": "ratio",
    "store.load_assessment_us": "us",
    "store.load_assessment.calls": "count",
    "store.snapshot_reads_per_snapshot": "ratio",
    "analytics.score_distribution_ms": "ms",
    "analytics.render_trend_chart_ms": "ms",
    "analytics.compliance_ms": "ms",
    "cli.python_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.assess_inproc_ms": "ms",
    "cli.report_inproc_ms": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_infer_s": "s",
    "trace.overhead_fleet_s": "s",
}


class Deadline(Exception):
    pass


class Child(NamedTuple):
    code: int
    seconds: float
    rss_kb: int  # peak resident set
    output: str  # stdout and stderr


def percentile(values: list[float], percent: int) -> float:
    """Nearest rank: at p90 of 100 samples, 10 lie beyond."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


class Run:
    """One benchmark run: its work directory, child processes and tally."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = WORK / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        settle()
        self.work.mkdir(parents=True)
        env = dict(os.environ)
        # warm bytecode caches are part of an installed tool
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []
        self.child: subprocess.Popen | None = None

    def commands(self, codes: list[int]) -> None:
        self.attempted += len(codes)
        bad = [code for code in codes if code != 0]
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{len(bad)} commands failed, exit codes {sorted(set(bad))}")

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    def spawn(self, argv: list[str]) -> Child:
        """Run a child to completion."""
        started = time.perf_counter()
        self.child = subprocess.Popen(
            argv, cwd=self.work, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        output = self.child.stdout.read()
        _, status, usage = os.wait4(self.child.pid, 0)
        seconds = time.perf_counter() - started
        self.child.returncode = os.waitstatus_to_exitcode(status)
        self.child.stdout.close()
        code, self.child = self.child.returncode, None
        return Child(code, seconds, usage.ru_maxrss, output)

    def mlq(self, argv: list[str]) -> Child:
        return self.spawn([sys.executable, "-c", MLQ, *argv])

    def worker(self, spec: dict) -> tuple[dict | None, int]:
        """Run a worker task: its result (None when it failed) and peak
        RSS in KiB."""
        name = spec["task"]
        spec = {**spec, "result": f"{name}.result.json", "trace": self.trace,
                "seconds": self.seconds, "log": f"{name}.log", "spans": f"{name}.spans.json"}
        (self.work / f"{name}.spec.json").write_text(json.dumps(spec), encoding="utf-8")
        child = self.spawn([sys.executable, str(BENCH / "worker.py"), f"{name}.spec.json"])
        self.commands([child.code])
        if child.code != 0:
            self.problems.append(f"worker {name} failed: {child.output[-2000:]}")
            return None, child.rss_kb
        return json.loads((self.work / spec["result"]).read_text(encoding="utf-8")), child.rss_kb

    def info(self, name: str, value: float, unit: str, samples: int) -> None:
        self.lines.append(f"metric {name} {value} {unit} (n={samples})")

    def kill_child(self) -> None:
        if self.child is not None:
            self.child.kill()
            self.child.wait()


def timed_setup(step) -> float:
    """Median wall time of SETUP_REPEATS runs of `step`."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        step()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def store_counts(store: Path, systems: int) -> dict:
    files, size = checks.store_size(store)
    return {
        "store.files_written_per_system": files / systems,
        "store.bytes_written_per_system": size / systems,
    }


# ---- nightly-2k -------------------------------------------------------

NIGHTLY_SYSTEMS = 2000
NIGHTLY_DATE = dt.date(2026, 8, 1)
RERENDER_SAMPLE = 20


def nightly_2k(run: Run) -> tuple[dict, dict]:
    work = run.work
    systems: list[dict] = []

    def setup():
        systems[:] = gen.registry(run.seed, NIGHTLY_SYSTEMS)
        (work / "registry.yaml").write_text(gen.registry_yaml(systems, NIGHTLY_DATE))
        (work / "overrides.yaml").write_text(gen.overrides_yaml(gen.overrides(run.seed, systems)))

    setup_s = timed_setup(setup)
    date = NIGHTLY_DATE.isoformat()
    picked = random.Random(f"sample:{run.seed}").sample(systems, RERENDER_SAMPLE)
    sample = [[entry["team"], entry["system_id"], date] for entry in picked]
    result, rss = run.worker({
        "task": "nightly", "registry": "registry.yaml", "overrides": "overrides.yaml",
        "store": "store", "views": "views", "date": date, "infer_log": "infer.log",
        "sample": sample, "rerender": "rerender",
    })
    if result is None:
        return {}, {}
    store, views = work / "store", work / "views"
    for one in result["passes"]:
        run.commands(one["codes"])
    run.commands(result["rerender_codes"])
    run.check(checks.store_layout(
        store, {(entry["team"], entry["system_id"]): {date} for entry in systems}
    ))
    run.check(checks.infer_scores(
        (work / "infer.log").read_text(encoding="utf-8"), store, date, NIGHTLY_SYSTEMS
    ))
    run.check(checks.rerendered(store, work / "rerender", sample))
    run.check(checks.fleet_views(views, {date[:7]: NIGHTLY_SYSTEMS}))
    run.lines.append(f"digest nightly-2k {checks.digest(store, views)}")

    plain = result["passes"][:1] if run.trace else result["passes"]
    infer = [one["infer_s"] for one in plain]
    fleet = [one["fleet_s"] for one in plain]
    run.info("infer_s", statistics.median(infer), "s", len(infer))
    run.info("fleet_s", statistics.median(fleet), "s", len(fleet))
    end_to_end = {
        "session_s": statistics.median(a + b for a, b in zip(infer, fleet)),
        "setup_s": setup_s,
        "peak_rss_mb": rss / 1024,
    }
    layers = {}
    if run.trace:
        plain_pass, traced = result["passes"]
        layers = {
            **result["layers"],
            **store_counts(store, NIGHTLY_SYSTEMS),
            "registry.input_bytes": (work / "registry.yaml").stat().st_size,
            "trace.overhead_infer_s": traced["infer_s"] - plain_pass["infer_s"],
            "trace.overhead_fleet_s": traced["fleet_s"] - plain_pass["fleet_s"],
            "trace.overhead_s": traced["infer_s"] + traced["fleet_s"]
            - plain_pass["infer_s"] - plain_pass["fleet_s"],
        }
    return end_to_end, layers


# ---- history-deep -----------------------------------------------------

HISTORY_SYSTEMS = 200
HISTORY_MONTHS = 18
HISTORY_TEAMS = 20
LOOKUPS = 20


def history_deep(run: Run) -> tuple[dict, dict]:
    work = run.work
    months = gen.months(HISTORY_MONTHS)
    # one set-up only: see SETUP_REPEATS
    started = time.perf_counter()
    built, _ = run.worker({
        "task": "history-build", "seed": run.seed, "systems": HISTORY_SYSTEMS,
        "months": HISTORY_MONTHS, "store": "store",
    })
    setup_s = time.perf_counter() - started
    if built is None:
        return {}, {}
    rng = random.Random(f"lookups:{run.seed}")
    ids = [(gen.team_of(i, HISTORY_TEAMS), gen.system_id(i)) for i in range(HISTORY_SYSTEMS)]
    lookups = rng.sample(ids, LOOKUPS)
    sample = [[team, system, rng.choice(months).isoformat()] for team, system in lookups[:10]]
    result, rss = run.worker({
        "task": "history-session", "store": "store", "views": "views",
        "outputs": "outputs", "before": months[5].isoformat(),
        "after": months[-1].isoformat(), "lookups": lookups, "sample": sample,
        "rerender": "rerender",
    })
    if result is None:
        return {}, {}
    store, views, outputs = work / "store", work / "views", work / "outputs"
    for one in result["passes"]:
        run.commands(one["codes"])
    run.commands(result["rerender_codes"])
    all_months = {month.isoformat() for month in months}
    run.check(checks.store_layout(store, {key: all_months for key in ids}))
    run.check(checks.history_rows(
        (outputs / "history.csv").read_text(encoding="utf-8"),
        store, HISTORY_SYSTEMS * HISTORY_MONTHS,
    ))
    for index in range(LOOKUPS):
        run.check(checks.history_rows(
            (outputs / f"lookup-{index:03d}.csv").read_text(encoding="utf-8"),
            store, HISTORY_MONTHS,
        ))
    run.check(checks.rerendered(store, work / "rerender", sample))
    run.check(checks.fleet_views(
        views, {month.isoformat()[:7]: HISTORY_SYSTEMS for month in months}
    ))
    run.lines.append(f"digest history-deep {checks.digest(store, views, outputs)}")

    plain = result["passes"][:1] if run.trace else result["passes"]

    def session(one):
        return one["fleet_s"] + one["history_s"] + sum(one["lookup_s"])

    lookup_ms = [seconds * 1e3 for one in plain for seconds in one["lookup_s"]]
    run.info("fleet_s", statistics.median(one["fleet_s"] for one in plain), "s", len(plain))
    run.info("history_s", statistics.median(one["history_s"] for one in plain), "s", len(plain))
    run.info("lookup_ms_p50", statistics.median(lookup_ms), "ms", len(lookup_ms))
    end_to_end = {
        "session_s": statistics.median(session(one) for one in plain),
        "setup_s": setup_s,
        "peak_rss_mb": rss / 1024,
    }
    layers = {}
    if run.trace:
        plain_pass, traced = result["passes"]
        layers = {
            **result["layers"],
            "trace.overhead_fleet_s": traced["fleet_s"] - plain_pass["fleet_s"],
            "trace.overhead_s": session(traced) - session(plain_pass),
        }
    return end_to_end, layers


# ---- desk -------------------------------------------------------------

DESK_CASES = 100
BARE_STARTS = 10


def desk(run: Run) -> tuple[dict, dict]:
    work = run.work
    cases: list[dict] = []

    def setup():
        shutil.rmtree(work / "cases", ignore_errors=True)
        shutil.rmtree(work / "warm-store", ignore_errors=True)
        (work / "cases").mkdir()
        cases[:] = gen.desk_cases(run.seed, DESK_CASES)
        for index, case in enumerate(cases):
            case["path"] = f"cases/gaps-{index:04d}.csv"
            (work / case["path"]).write_text(case.pop("csv"), encoding="utf-8")
        # one untimed assess and report fill the bytecode caches
        run.commands([run.mlq(assess_argv(cases[0], "warm-store")).code,
                      run.mlq(report_argv(cases[0], "warm-store")).code])

    setup_s = timed_setup(setup)
    (work / "cases.json").write_text(json.dumps(cases), encoding="utf-8")

    store = work / "store"
    assess_ms, report_ms, sessions, peak = [], [], [], 0
    started = time.perf_counter()
    while not sessions or time.perf_counter() - started < run.seconds:
        shutil.rmtree(store, ignore_errors=True)
        settle()
        session = 0.0
        for case in cases:
            assess = run.mlq(assess_argv(case, "store"))
            date_dir = store / case["team"] / case["system"] / case["date"]
            stored = checks.snapshot(store, case["team"], case["system"], case["date"])
            run.check(checks.assess_score(assess.output, stored))
            kept = checks.read_bytes(date_dir / "report.html")
            report = run.mlq(report_argv(case, "store"))
            again = checks.read_bytes(date_dir / "report.html")
            run.check([] if kept is not None and again == kept
                      else [f"{case['system']}: re-rendered report differs"])
            run.commands([assess.code, report.code])
            assess_ms.append(assess.seconds * 1e3)
            report_ms.append(report.seconds * 1e3)
            session += assess.seconds + report.seconds
            peak = max(peak, assess.rss_kb, report.rss_kb)
        sessions.append(session)
    run.check(checks.store_layout(
        store, {(case["team"], case["system"]): {case["date"]} for case in cases}
    ))
    run.lines.append(f"digest desk {checks.digest(store)}")
    for name, values in (("assess", assess_ms), ("report", report_ms)):
        run.info(f"{name}_ms_p50", statistics.median(values), "ms", len(values))
        run.info(f"{name}_ms_p90", percentile(values, 90), "ms", len(values))
    end_to_end = {
        "session_s": statistics.median(sessions),
        "setup_s": setup_s,
        "peak_rss_mb": peak / 1024,
    }
    layers = {}
    if run.trace:
        layers = desk_layers(run, cases, store)
    return end_to_end, layers


def desk_layers(run: Run, cases: list[dict], store: Path) -> dict:
    starts = [run.spawn([sys.executable, "-c", "pass"]).seconds * 1e3
              for _ in range(BARE_STARTS)]
    imports = []
    for _ in range(BARE_STARTS):
        child = run.spawn([
            sys.executable, "-c",
            "import time; t = time.perf_counter(); import mlquality.cli; "
            "print(time.perf_counter() - t)",
        ])
        run.commands([child.code])
        if child.code == 0:
            imports.append(float(child.output.split()[-1]) * 1e3)
    result, _ = run.worker({"task": "desk-inproc", "cases": "cases.json",
                            "store": "inproc-store"})
    if result is None or not imports:
        return {}
    plain, traced = result["passes"]
    run.commands(plain["codes"] + traced["codes"])
    return {
        **result["layers"],
        **store_counts(store, len(cases)),
        "cli.python_start_ms": statistics.median(starts),
        "cli.import_ms": statistics.median(imports),
        "cli.assess_inproc_ms": statistics.median(plain["assess_s"]) * 1e3,
        "cli.report_inproc_ms": statistics.median(plain["report_s"]) * 1e3,
        "trace.overhead_s": sum(traced["assess_s"]) + sum(traced["report_s"])
        - sum(plain["assess_s"]) - sum(plain["report_s"]),
    }


WORKLOADS = {"nightly-2k": nightly_2k, "history-deep": history_deep, "desk": desk}


def environment() -> str:
    try:
        import yaml

        pyyaml = f"pyyaml={yaml.__version__} libyaml={yaml.__with_libyaml__}"
    except ImportError:
        pyyaml = "pyyaml=absent"
    return f"env cpus={os.cpu_count()} python={sys.version.split()[0]} {pyyaml}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "mlquality" / "cli.py").is_file():
        print(f"no mlquality sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    run = Run(args)

    def expire(signum, frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        end_to_end, layers = WORKLOADS[args.workload](run)
    except Deadline:
        run.kill_child()
        print(f"{args.workload}: gave up after {DEADLINE_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    if not end_to_end or (run.trace and not layers):
        for problem in run.problems:
            print(problem, file=sys.stderr)
        print(f"{args.workload}: the run did not complete", file=sys.stderr)
        return 1

    end_to_end["success_rate"] = (run.attempted - run.failed) / run.attempted
    if run.trace:
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(environment())
    for line in run.lines:
        print(line)
    for problem in run.problems:
        print(f"problem {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
