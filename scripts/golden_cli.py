"""Run a fixed set of primopt command lines and record what each one prints.

    python scripts/golden_cli.py OUT_DIR [CHECKOUT]

Each line runs as ``python -m primopt ...`` against ``CHECKOUT/src``
(default: the checkout holding this script), in an empty scratch working
directory.  OUT_DIR gets one file per line with the argument line, the exit
code, stdout and stderr.  Run times (``runtime_ms`` in JSON, ``runtime:`` in
text) and the checkout path are masked, so two checkouts that behave alike
give identical directories:

    python scripts/golden_cli.py /tmp/golden-a /path/to/checkout-a
    python scripts/golden_cli.py /tmp/golden-b /path/to/checkout-b
    diff -r /tmp/golden-a /tmp/golden-b

The 115 lines cover every argument line of tests/test_cli.py, each of the
19 subcommands, the three certify-large ``verify-tbest`` instances of
perfbench, ``suite`` at seeds 0 and 1 with and without ``--quick``, one
clamped tie at t = 8 through ``verify-tbest`` and ``oracle``, where the
optimum has more than one member set, t whose n^-t weights underflow to 0
in every command that weighs by n^-t, an infinite Brun bound, the
three twin-scan commands at a limit past the sieve's first wheel segment
(whose last value is 6 * 2^19 + 1 = 3,145,729) and again past the twin
kernel's first one-mask segment (6 * 2^20 + 1 = 6,291,457), two sieves past
the sieve budget, one level past the level budget, three kmax lines past
the h_all budget and two exact ``hk`` lines past the digit budget, refused
with exit 4, three certifications on which the tree bound stays open,
so that Dinic runs: one where the roots are still optimal, and one through
both ``verify-tbest`` and ``oracle`` where they are not, and four commands
on universes built as int64 columns: a ``universe`` listing, a
``verify-erdos`` run over the twin primes in (3, 1000], the brute force on
28 elements, and an ``oracle`` run at t = 0.05 whose scaled weights total
66 bits, past int64.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PRIMES = ["--primes", "2,3"]
CAPS = ["--max-omega", "2", "--max-value", "100"]
ORACLE = ["oracle", *PRIMES, *CAPS]
DEEP = ["--primes", "2,3,5,7", "--k", "1", "--max-omega", "22",
        "--max-value", "4611686018427387904"]
TIE = ["--primes", "5,103,331", "--max-omega", "5", "--max-value", "1000"]

LINES = [
    ["prime-zeta", "--t", "2", "--radius", "1e-8"],
    ["zeta", "--s", "4", "--radius", "1e-10"],
    ["tau", "--radius", "1e-6"],
    ["tau"],
    ["check-condition", "--primes", "2", "--t", "1"],
    ["check-condition", "--primes-below", "100", "--t", "1"],
    ["check-condition", "--all-primes", "--t", "1.05"],
    ["check-condition", "--twins-below", "1000", "--t", "1"],
    ["hk", *PRIMES, "--t", "1", "--kmax", "2", "--exact"],
    ["hk", *PRIMES, "--kmax", "2"],
    ["schur", "--weights", "0.5,0.3,0.2", "--kmax", "6"],
    ["chain", "--primes", "2,3,5", "--t", "1.5", "--kmax", "8"],
    ["identity", "--primes-below", "50", "--t", "1.3"],
    ["decompose", *PRIMES, "--ell", "2", "--s", "6"],
    ["decompose", "--primes-below", "10000", "--ell", "1", "--s", "2"],
    ["universe", *PRIMES, "--k-lo", "1", *CAPS],
    [*ORACLE, "--k-lo", "1", "--t", "1"],
    [*ORACLE, "--k-lo", "1", "--t", "1", "--brute-force"],
    ["verify-tbest", "--primes", "2,3,5", "--t", "1.5", "--k", "1",
     "--max-omega", "5", "--max-value", "100000"],
    ["verify-erdos", "--primes", "5,7,11,13", "--k", "1",
     "--max-omega", "4", "--max-value", "1000000"],
    ["twin", "--below", "15"],
    ["brun", "--limit", "13"],
    ["corollary", "--brun-bound", "2.347", "--brun-source", "proven", "--limit", "100000"],
    ["corollary", "--brun-bound", "2.347", "--with-three", "--limit", "1000000"],
    ["erdos-sum", "--members", "4,6,9"],
    ["bridge", "--members", "2,3,5", "--tolerance", "1e-4"],
    ["prime-zeta", "--t", "2", "--out", "missing-dir/report.json"],
    ["check-condition", "--primes", "2", "--t", "1", "--format", "text"],
    ["no-such-command"],
    ["prime-zeta", "--bogus"],
    ["zeta", "--s", "0.5"],
    ["check-condition", "--t", "1"],
    *([*ORACLE, "--t", t, *brute] for t in ("0", "-1") for brute in ([], ["--brute-force"])),
    ["chain", *PRIMES, "--kmax", "1", "--t", "2"],
    *(["bridge", "--members", "2,3,5", "--tolerance", tol]
      for tol in ("0", "-1", "nan", "inf")),
    *(line for limit in ("0", "-1") for line in (
        ["universe", *PRIMES, *CAPS, "--max-elements", limit],
        [*ORACLE, "--t", "1", "--max-elements", limit],
    )),
    *(["zeta", "--s", s] for s in ("nan", "inf")),
    *([*argv, "--t", t] for argv in (
        ["prime-zeta"],
        ["check-condition", *PRIMES],
        ["check-condition", "--all-primes"],
        ["hk", *PRIMES, "--kmax", "2"],
        ["hk", *PRIMES, "--kmax", "2", "--exact"],
        ["chain", *PRIMES, "--kmax", "2"],
        ORACLE,
        [*ORACLE, "--brute-force"],
        ["verify-tbest", *PRIMES, "--k", "1", *CAPS],
    ) for t in ("nan", "inf")),
    *([*argv, "--radius", r] for argv in (
        ["zeta", "--s", "2"],
        ["prime-zeta", "--t", "2"],
        ["check-condition", "--all-primes", "--t", "2"],
        ["tau"],
    ) for r in ("nan", "inf")),
    ["oracle", "--primes", "2", "--k-lo", "0", "--max-omega", "60",
     "--max-value", "9223372036854775807", "--t", "1.5"],
    ["zeta", "--s", "1.01", "--radius", "1e-14"],
    ["universe", "--primes", "2,3,5", "--k-lo", "1", "--max-omega", "12",
     "--max-value", "1000000", "--max-elements", "50"],
    ["verify-tbest", "--primes-below", "1000", "--t", "1.5", "--k", "2",
     "--max-omega", "3", "--max-value", "1000000"],
    ["verify-tbest", *DEEP, "--t", "1.5"],
    ["verify-tbest", *DEEP, "--t", "8"],
    *(["suite", *quick, "--seed", seed] for quick in ([], ["--quick"]) for seed in ("0", "1")),
    # both weights clamp to one 2^-50 quantum, so 125 and 625 tie in the flow
    ["verify-tbest", *TIE, "--k", "3", "--t", "8"],
    ["oracle", *TIE, "--k-lo", "3", "--t", "8"],
    # n^-t underflows to 0.0 for a valid t
    ["verify-tbest", *DEEP, "--t", "40"],
    ["oracle", *PRIMES, "--k-lo", "1", "--max-omega", "3", "--max-value", "100", "--t", "1e308"],
    ["corollary", "--brun-bound", "inf", "--limit", "1000"],
    *([*argv, *PRIMES, "--t", "1e308"] for argv in (
        ["hk", "--kmax", "2"], ["chain", "--kmax", "2"], ["schur", "--kmax", "2"], ["identity"],
    )),
    # every term of the sum underflows, and the enclosure still holds it
    ["check-condition", *PRIMES, "--t", "1e308"],
    # only the primes' weights underflow: 877^-110 is the first to reach 0
    ["verify-tbest", "--primes-below", "1000", "--k", "1", "--max-omega", "2",
     "--max-value", "100", "--t", "110"],
    # every twin scan across the first wheel segment boundary
    ["twin", "--below", "3200000"],
    ["brun", "--limit", "3200000"],
    ["corollary", "--brun-bound", "2.0959621", "--with-three", "--limit", "3200000"],
    # past the sieve budget: refused before anything is allocated
    ["check-condition", "--primes-below", "1000000000000000000", "--t", "2"],
    ["twin", "--below", "100000000000"],
    # C(1234, 6) products: refused before any is formed
    ["decompose", "--primes-below", "10000", "--ell", "6", "--s", "64"],
    # every twin scan across the twin kernel's first segment boundary
    ["twin", "--below", "6300000"],
    ["brun", "--limit", "6300000"],
    ["corollary", "--brun-bound", "2.0959621", "--with-three", "--limit", "6300000"],
    # kmax * max(1, weights) past the h_all budget: refused before the row exists
    ["hk", *PRIMES, "--kmax", "100000000"],
    ["chain", *PRIMES, "--kmax", "10000000"],
    ["schur", "--weights", "0.5,0.25", "--kmax", "100000000"],
    # exact sums whose digits pass Python's int-to-string limit: refused
    # before the DP and before the weights
    ["hk", *PRIMES, "--t", "1", "--kmax", "6000", "--exact"],
    ["hk", *PRIMES, "--t", "1000000", "--kmax", "1", "--exact"],
    # the tree bound stays open: Dinic runs, and its optimum is the roots
    ["verify-tbest", "--primes-below", "1000", "--t", "1.2", "--k", "1",
     "--max-omega", "2", "--max-value", "100000"],
    # the tree bound stays open and the optimum is Dinic's cut
    *([*argv, "--primes-below", "300", "--t", "1.02", "--max-omega", "2",
       "--max-value", "90000"] for argv in (["verify-tbest", "--k", "1"], ["oracle", "--k-lo", "1"])),
    # built as int64 columns: min(comb(m + J, m), max_value) reaches 300
    ["universe", "--primes-below", "100", "--k-lo", "2", "--max-omega", "3",
     "--max-value", "100000"],
    ["verify-erdos", "--twins-below", "1000", "--k", "1", "--max-omega", "3",
     "--max-value", "1000000"],
    ["oracle", "--primes", "7,11,13,17,19,23,29,31,37,41,43", "--k-lo", "2",
     "--max-omega", "3", "--max-value", "400", "--t", "1", "--brute-force"],
    # the scaled weights total 66 bits: sums run on Python ints
    ["oracle", "--primes-below", "1000", "--k-lo", "1", "--max-omega", "3",
     "--max-value", "1000000", "--t", "0.05"],
]

_RUNTIME = re.compile(r'("runtime_ms": |runtime: )\d+')


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    here = Path(__file__).resolve().parents[1]
    checkout = Path(argv[1]).resolve() if len(argv) > 1 else here
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    for number, line in enumerate(LINES, 1):
        with tempfile.TemporaryDirectory() as cwd:
            done = subprocess.run(
                [sys.executable, "-m", "primopt", *line],
                capture_output=True, text=True, env=env, cwd=cwd, timeout=600,
            )
        record = (
            f"argv: {' '.join(line)}\nexit: {done.returncode}\n"
            f"--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        )
        record = _RUNTIME.sub(r"\1<masked>", record).replace(str(checkout), "<checkout>")
        (out_dir / f"{number:03d}-{line[0]}.txt").write_text(record)
        print(f"{number:03d} exit {done.returncode}: {' '.join(line)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
