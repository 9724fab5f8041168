"""The benchmark's own test: deterministic counts repeat exactly.

Usage: python3 bench/selfcheck.py [--seed N] [--workload NAME ...]

Runs each workload's traced run twice with the same seed and fails unless
every count, the output digest and the number of attempted operations
are identical between the two runs. It also prints each count next to
the value recorded when the benchmark was written (BASELINE); a
difference there is reported, not failed, since an optimisation may move
a count on purpose. Takes a few minutes; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("nightly-2k", "history-deep", "desk")
COUNTS = (
    "registry.input_bytes",
    "registry.infer_gaps.calls",
    "scoring.evaluate.calls",
    "report.render_report.calls",
    "store.model_fingerprint.calls",
    "store.bytes_written_per_system",
    "store.files_written_per_system",
    "store.history.snapshots_scanned",
    "store.history.rows_returned",
    "store.history.rows_per_scanned",
    "store.load_assessment.calls",
    "store.snapshot_reads_per_snapshot",
)
BASELINE = {
    "nightly-2k": {
        "registry.infer_gaps.calls": 2000,
        "scoring.evaluate.calls": 2000,
        "report.render_report.calls": 2000,
        "store.model_fingerprint.calls": 2000,
        "store.files_written_per_system": 3.0,
        "store.history.snapshots_scanned": 2000,
        "store.history.rows_returned": 2000,
        "store.history.rows_per_scanned": 1.0,
        "store.load_assessment.calls": 4000,
        "store.snapshot_reads_per_snapshot": 3.0,
    },
    "history-deep": {
        "store.history.snapshots_scanned": 3600,
        "store.history.rows_returned": 18,
        "store.history.rows_per_scanned": 18 / 3600,
        "store.load_assessment.calls": 400,
        "store.snapshot_reads_per_snapshot": 4000 / 3600,
    },
    "desk": {
        "scoring.evaluate.calls": 100,
        "report.render_report.calls": 200,
        "store.model_fingerprint.calls": 100,
        "store.files_written_per_system": 3.0,
        "store.load_assessment.calls": 100,
    },
}


def traced_run(workload: str, seed: int) -> tuple[dict, str, int]:
    """Counts, output digest and attempted operations of one traced run."""
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: outputs failed their checks:\n{completed.stdout}")
    digest = next(line for line in lines if line.startswith("digest "))
    counts = {name: result["metrics"][name]["value"] for name in COUNTS}
    return counts, digest, result["attempted"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args()
    failures = 0
    for workload in args.workload:
        first = traced_run(workload, args.seed)
        second = traced_run(workload, args.seed)
        same = first == second
        failures += not same
        print(f"{workload}: {'repeats exactly' if same else 'DIFFERS between runs'}")
        for name, value in first[0].items():
            again = second[0][name]
            baseline = BASELINE[workload].get(name)
            note = "" if baseline is None or baseline == value else f"  (baseline {baseline})"
            mark = "" if value == again else f"  second run {again}"
            print(f"  {name} = {value}{mark}{note}")
        print(f"  {first[1]}  attempted={first[2]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
