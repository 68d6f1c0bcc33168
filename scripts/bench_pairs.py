"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python scripts/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        --pairs N --out FILE [--seed S] [--seconds 20]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds X``
once in each checkout (from its root, with its own perfbench), one after
the other; even pairs run PARENT first and odd pairs CHANGE first, so a
drift of the machine's speed falls on both sides alike.  FILE gets, per
workload and per end-to-end metric of PARENT's BENCHMARK.json, each side's
runs, median and quartiles, how many pairs CHANGE won and tied, the
change of the median relative to PARENT's, and whether that change stays
within the metric's bound.  It also records the Python and numpy versions
and the core count (both sides run under this interpreter), and the commit
and source digest each side reported.  Once FILE is written, stdout gets
one line per workload and metric:

    threshold wall_s: 0.02515 -> 0.01549 s (-38.4%), change won 10/10, within_bound true
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    report_line, result_line = done.stdout.strip().splitlines()[-2:]
    return {**json.loads(result_line), "report": json.loads(report_line)["report"]}


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower_is_better = metric["better"] == "lower"
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    before, after = side_summary(parent), side_summary(change)
    relative = after["median"] / before["median"] - 1.0 if before["median"] else 0.0
    worse_by = relative if lower_is_better else -relative
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": before,
        "change": after,
        "change_wins": wins,
        "ties": ties,
        "relative_change": relative,
        "within_bound": worse_by <= metric["bound"],
        "parent_iqr": before["q3"] - before["q1"],
    }


def bench_workload(parent: Path, change: Path, workload: str, args, metrics: list[dict]) -> dict:
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            runs[side].append(run_once(checkout, workload, args.seed, args.seconds))
        print(f"{workload}: pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    return {
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "code": {
            side: {k: rs[0]["report"]["environment"][k] for k in ("commit", "source_sha256")}
            for side, rs in runs.items()
        },
        "metrics": {
            m["name"]: compare(
                m,
                [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]],
            )
            for m in metrics
        },
    }


def summary_lines(result: dict) -> list[str]:
    """One line per workload and metric: medians, relative change, wins, bound."""
    return [
        f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
        f"{m['unit']} ({m['relative_change']:+.1%}), change won "
        f"{m['change_wins']}/{result['pairs']}, within_bound {json.dumps(m['within_bound'])}"
        for workload, record in result["workloads"].items()
        for name, m in record["metrics"].items()
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 for quartiles")

    parent, change = args.parent.resolve(), args.change.resolve()
    benchmark = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": {
            w: bench_workload(parent, change, w, args, benchmark["end_to_end"])
            for w in args.workload
        },
    }
    result["environment"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print("\n".join(summary_lines(result)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
