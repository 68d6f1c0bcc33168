"""Run a fixed set of primopt command lines and record what each one prints.

    python scripts/golden_cli.py OUT_DIR [CHECKOUT]

``run`` runs one line in-process through ``primopt.cli.main``, in a fresh
empty working directory, with ``COLUMNS=80`` (argparse wraps usage lines at
the terminal width) and warnings raised as errors, as pytest raises them.  It
returns the line's record: the argument line, the exit code, stdout and
stderr, with run times (``runtime_ms``) masked.  An exception that escapes
``main`` escapes ``run`` too, so a crash fails the run instead of being
recorded.

``main`` imports primopt from ``CHECKOUT/src`` (default: the checkout holding
this script), refuses a primopt imported from anywhere else, and writes one
file per line to OUT_DIR.  Two checkouts that behave alike give identical
directories:

    python scripts/golden_cli.py /tmp/golden-a /path/to/checkout-a
    python scripts/golden_cli.py /tmp/golden-b /path/to/checkout-b
    diff -r /tmp/golden-a /tmp/golden-b

The snapshot of this checkout's outputs is committed under tests/golden, one
file per entry of LINES and no other.  Tier-1's
``tests/test_cli.py::test_golden_lines_replay_byte_for_byte`` compares
``run`` of every line with that snapshot and checks that every line exits
0-4; a change that alters an output rewrites tests/golden in the same commit:

    python scripts/golden_cli.py tests/golden
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

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
    ["bridge", "--members", "2,3,5"],
    # the report goes to stdout only: --out is no option
    ["prime-zeta", "--t", "2", "--out", "missing-dir/report.json"],
    # no command takes --format: a usage error
    ["check-condition", "--primes", "2", "--t", "1", "--format", "text"],
    ["no-such-command"],
    ["prime-zeta", "--bogus"],
    ["zeta", "--s", "0.5"],
    ["check-condition", "--t", "1"],
    *([*ORACLE, "--t", t, *brute] for t in ("0", "-1") for brute in ([], ["--brute-force"])),
    ["chain", *PRIMES, "--kmax", "1", "--t", "2"],
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
    # the suite has no --quick: the last two are usage errors
    *(["suite", *quick, "--seed", seed] for quick in ([], ["--quick"]) for seed in ("0", "1")),
    # on one grid 625^-8 weighs 5^-8 of 125^-8, and the tree bound closes on 125
    ["verify-tbest", *TIE, "--k", "3", "--t", "8"],
    ["oracle", *TIE, "--k-lo", "3", "--t", "8"],
    # 123451776^-40 underflows to 0.0, but the level-sum test decides from
    # the prime weights, and only level 1's are formed
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
    # the tree bound would stay open, but level 1 is whole and the level-sum
    # test holds: neither the tree pass nor Dinic runs
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
    # 80,581 weights near 1: the grid keeps their scaled total below 2^61
    ["oracle", "--primes-below", "1000", "--k-lo", "1", "--max-omega", "3",
     "--max-value", "1000000", "--t", "0.05"],
    # a flag that would be ignored is refused
    ["check-condition", "--primes", "2", "--include-three", "--t", "1"],
    ["schur", "--weights", "0.5,0.25", "--primes", "2,3", "--kmax", "2"],
    ["schur", "--weights", "", "--kmax", "2"],
    # an Omega cap past every element's: the universe holds the six powers
    # of 2 up to the value cap
    ["verify-tbest", "--primes", "2", "--t", "1.5", "--k", "1", "--max-omega", "1000000000",
     "--max-value", "100"],
    # flags a command would ignore are refused, by name
    ["schur", "--weights", "0.5,0.25", "--t", "3", "--kmax", "2"],
    ["check-condition", "--all-primes", "--primes", "2", "--t", "1.5"],
    ["check-condition", "--primes", "2", "--t", "1.5", "--radius", "1e-3"],
    # a malformed comma-list entry is refused, by the flag's name
    ["schur", "--weights", "0.5,", "--kmax", "2"],
    ["erdos-sum", "--members", "4,x"],
    # at t = 30, 25^-30 is below half a quantum of the grid that 5^-30 sets
    ["oracle", "--primes", "5,7", "--k-lo", "1", "--max-omega", "2", "--max-value", "100",
     "--t", "30"],
    ["verify-tbest", "--primes", "5,11,13", "--t", "16", "--k", "1", "--max-omega", "4",
     "--max-value", "2000"],
    # 2^-1000 sets a grid of 2^-1060: 2.0**shift would overflow
    ["oracle", "--primes", "2", "--k-lo", "1", "--max-omega", "1", "--max-value", "10",
     "--t", "1000"],
    # the members weighed are a set: echoed distinct and ascending
    ["erdos-sum", "--members", "9,4,4,6"],
    ["bridge", "--members", "3,2,3"],
    # h_1 < h_2, with the level sums past 1.3e154: the hypothesis still fails
    ["chain", "--primes-below", "1000", "--t", "0.0001", "--kmax", "431"],
    # h_4381 overflows binary64
    *([argv, "--primes-below", "1000", "--t", "0.0001", "--kmax", "4381"]
      for argv in ("hk", "chain")),
    # n^-t underflows to 0.0 for a valid t: the oracle weighs every element
    ["oracle", "--primes", "2,3,5,7", "--k-lo", "1", "--max-omega", "22",
     "--max-value", "4611686018427387904", "--t", "40"],
    # the level-sum test is left open, a few ulps above the root of h_2 - h_1:
    # the claim keeps to the truncation
    ["verify-tbest", "--primes-below", "100", "--t", "1.0156227079501332", "--k", "1",
     "--max-omega", "2", "--max-value", "10000"],
    # h_1100 = 2^-1100 rounds to 0.0, and the radius still holds it
    ["hk", "--primes", "2", "--t", "1", "--kmax", "1100"],
    # the level-sum test proves level 2 though the k = 1 condition fails: a
    # proved report carries no conjecture note
    ["verify-tbest", "--primes-below", "200", "--t", "1.01", "--k", "2",
     "--max-omega", "2", "--max-value", "40000"],
    # h_444 h_446 overflows binary64
    ["schur", "--primes-below", "1000", "--t", "0.0001", "--kmax", "460"],
]

_RUNTIME = re.compile(r'("runtime_ms": )\d+')


def file_name(number: int, line: list[str]) -> str:
    """The snapshot file of the ``number``-th entry of LINES, from 1."""
    return f"{number:03d}-{line[0]}.txt"


def record(line: list[str], code: int, out: str, err: str) -> str:
    """What ``line`` printed, laid out as its snapshot file holds it, with
    the run time masked."""
    text = f"argv: {' '.join(line)}\nexit: {code}\n--- stdout\n{out}--- stderr\n{err}"
    return _RUNTIME.sub(r"\1<masked>", text)


def run(line: list[str]) -> str:
    """Run ``primopt`` on ``line`` in-process and return its record."""
    from primopt import cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with (
        tempfile.TemporaryDirectory() as cwd,
        mock.patch.dict(os.environ, COLUMNS="80"),
        warnings.catch_warnings(),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("error")
        os.chdir(cwd)
        try:
            code = cli.main(line)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(here)
    return record(line, code, out.getvalue(), err.getvalue())


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    checkout = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import primopt

    if Path(primopt.__file__).resolve().parent != src / "primopt":
        print(f"golden_cli: primopt imported from {primopt.__file__}, not {src}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    for number, line in enumerate(LINES, 1):
        name, text = file_name(number, line), run(line)
        (out_dir / name).write_text(text)
        print(name, text.splitlines()[1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
