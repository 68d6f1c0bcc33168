"""Run every benchmark workload briefly and fail unless each job is correct.

    python scripts/bench_smoke.py

Run from the repository root.  Each workload that BENCHMARK.json names runs
once, in its own process, as

    python perfbench/run.py --workload W --seed 0 --seconds 1

perfbench checks every job's result against perfbench/reference.json, and
the last stdout line is its result object: a workload passes when that line
reads ``"correct": true`` with ``failed`` 0.  One line per workload goes to
stdout; the exit code is 0 when all pass and 1 otherwise.  The four
workloads take about 22 s in all on 2 vCPUs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def check(workload: str) -> tuple[bool, str]:
    """Whether one short run of ``workload`` is correct, and what it said."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return False, f"exit {done.returncode}, no result line: {done.stderr.strip()[-400:]}"
    ok = done.returncode == 0 and result.get("correct") is True and result.get("failed") == 0
    counts = f"correct {result.get('correct')}, failed {result.get('failed')}"
    return ok, f"{counts} of {result.get('attempted')}"


def main() -> int:
    workloads = [w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]]
    failures = 0
    for workload in workloads:
        ok, said = check(workload)
        failures += not ok
        print(f"{workload}: {'ok' if ok else 'FAILED'} ({said})", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
