"""The four workloads: job lists made from a seed, and checks against reference.json.

A job is a call into primopt plus a check of what it returned.  Each job
looks its function up on the module when it runs, so the spans that
``spans.Tracer`` installs see every call.  The seed picks one entry from
each stratum of the reference table and shuffles the job order (the three
fixed certify-large instances keep theirs, certify-small always runs the
larger entry of its largest stratum, and the suite passes the seed on);
every seed therefore runs the same mix of job kinds and sizes, and every
job has a reference answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOADS = ("certify-large", "certify-small", "threshold", "suite")
# The calibration probe (calibrate.py) whose kind of code does most of a
# workload's work: the interpreted flow oracle, or numpy's zeta power sums
# and sieve.
PROBE_KIND = {
    "certify-large": "interpreted",
    "certify-small": "interpreted",
    "threshold": "numpy",
    "suite": "numpy",
}

OK, WRONG, UNCERTIFIED = "ok", "wrong", "uncertified"
_DEFINITE = ("holds", "fails")


@dataclass(frozen=True)
class Job:
    """One call into primopt and the check of its result.

    ``beyond_cap`` marks a radius the 3e7-term direct zeta summation cannot
    reach: the job fails until the zeta kernel changes, and its failure is
    counted like any other but does not make the run incorrect.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str]
    beyond_cap: bool = False


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def make_jobs(workload: str, seed: int, reference: dict) -> list[Job]:
    """The job list of one pass.  Imports primopt, so callers time this as set-up."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), reference, seed)


# -- checks ------------------------------------------------------------------


def encloses(value, radius, reference: str) -> bool:
    """Whether [value - radius, value + radius] holds the 30-digit reference, exactly."""
    with localcontext() as ctx:
        ctx.prec = 80
        return abs(Decimal(value) - Decimal(reference)) <= Decimal(radius)


def _check_enclosure(row):
    def check(result):
        if not encloses(result.value, result.radius, row["value"]):
            return WRONG
        return OK if result.radius <= row["radius"] else UNCERTIFIED

    return check


def _check_verdict(got, expected):
    if got == expected:
        return OK
    return WRONG if got in _DEFINITE else UNCERTIFIED


def _check_report(row, optimum_key):
    def check(report):
        if report.universe_size != row["universe_size"]:
            return WRONG
        if abs(report.optimum_weight - row[optimum_key]) > 2e-9:
            return WRONG
        return _check_verdict(report.verdict, row["verdict"])

    return check


def _verify_call(oracle, row, prime_set):
    if row.get("kind", "tbest") == "tbest":
        return lambda: oracle.verify_tbest(
            prime_set, row["t"], row["k"], row["max_omega"], row["max_value"]
        )
    return lambda: oracle.verify_erdos_best(prime_set, row["k"], row["max_omega"], row["max_value"])


def _zeta_call(analytic, kind, row):
    if kind == "prime_zeta":
        return lambda: analytic.prime_zeta(row["t"], row["radius"])
    return lambda: analytic.riemann_zeta(row["s"], row["radius"])


# -- certify-large -----------------------------------------------------------


def _primes_below(limit: int) -> list[int]:
    mask = bytearray([1]) * (limit + 1)
    mask[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = bytearray(len(mask[p * p :: p]))
    return [n for n, is_p in enumerate(mask) if is_p]


def _certify_large(rng, reference, seed):
    # Fixed order: a verify_tbest run is slower after the others than
    # before them (heap state), so shuffling would add order noise.
    from primopt import oracle, primes

    jobs = []
    for row in reference["certify_large"]:
        prime_set = primes.PrimeSet(row.get("primes") or _primes_below(row["primes_below"]))
        call = _verify_call(oracle, row, prime_set)
        jobs.append(Job(f"verify-tbest:{row['name']}", call, _check_report(row, "level_weight")))
    return jobs


# -- certify-small -----------------------------------------------------------


def _certify_small(rng, reference, seed):
    from primopt import oracle, primes

    jobs = []
    for pair in reference["certify_small"]["flow"]:
        row = rng.choice(pair)
        prime_set = primes.PrimeSet(row["primes"])

        def call(row=row, prime_set=prime_set):
            universe = oracle.build_universe(
                prime_set, row["k"], row["max_omega"], row["max_value"]
            )
            _, flow = oracle.max_weight_antichain_flow(universe, row["t"])
            _, brute = oracle.max_weight_antichain_bruteforce(universe, row["t"])
            return len(universe), flow, brute

        def check(result, row=row):
            size, flow, brute = result
            opt = row["optimum"]
            if size != row["universe_size"] or abs(flow - opt) > 1e-9 or abs(brute - opt) > 1e-9:
                return WRONG
            return OK

        jobs.append(Job("flow+bruteforce", call, check))

    *seeded, largest = reference["certify_small"]["verify"]
    # The largest stratum is not seeded: its larger entry, the slowest job
    # of every pass by about 10%, is the job job_max_ms times on every seed.
    # Its two entries differ by 20% in cost.
    chosen = [rng.choice(pair) for pair in seeded]
    chosen.append(max(largest, key=lambda row: row["universe_size"]))
    for row in chosen:
        call = _verify_call(oracle, row, primes.PrimeSet(row["primes"]))
        jobs.append(Job(f"verify-{row['kind']}", call, _check_report(row, "optimum")))
    rng.shuffle(jobs)
    return jobs


# -- threshold ---------------------------------------------------------------


def _threshold(rng, reference, seed):
    from primopt import analytic

    table = reference["analytic"]
    tau = table["tau"]
    jobs = [Job("tau_root", lambda: analytic.tau_root(tau["radius"]), _check_enclosure(tau))]

    for kind in ("prime_zeta", "riemann_zeta"):
        for stratum in table[kind]:
            row = rng.choice(stratum)
            jobs.append(Job(kind, _zeta_call(analytic, kind, row), _check_enclosure(row)))
    for stratum in table["condition"]:
        row = rng.choice(stratum)

        def check(verdict, row=row):
            lhs, rhs = verdict.lhs, verdict.rhs
            if not (encloses(lhs.value, lhs.radius, row["lhs"])
                    and encloses(rhs.value, rhs.radius, row["rhs"])):
                return WRONG
            return _check_verdict(verdict.verdict, row["verdict"])

        jobs.append(
            Job("check_condition_allprimes",
                lambda row=row: analytic.check_condition_allprimes(row["t"], row["radius"]),
                check)
        )
    for row in table["beyond_cap"]:
        call = _zeta_call(analytic, row["kind"], row)
        jobs.append(Job(f"{row['kind']}:beyond-cap", call, _check_enclosure(row), beyond_cap=True))
    rng.shuffle(jobs)
    return jobs


# -- suite -------------------------------------------------------------------


def _suite(rng, reference, seed):
    from primopt import cli

    expected = reference["suite"]
    argv = ["suite", "--seed", str(seed)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        doc = json.loads(text)
        rows = doc["detail"]["checks"]
        if len(rows) != expected["checks"]:
            return WRONG
        for verdict in [doc["verdict"]] + [r["verdict"] for r in rows]:
            status = _check_verdict(verdict, expected["verdict"])
            if status != OK:
                return status
        return OK if code == 0 else WRONG

    return [Job("cli suite", call, check)]


_BUILDERS = {
    "certify-large": _certify_large,
    "certify-small": _certify_small,
    "threshold": _threshold,
    "suite": _suite,
}
