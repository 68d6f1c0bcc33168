"""The reference table, recomputed by other routes than the ones that made it.

    python3 -m pytest perfbench -q

make_reference.py takes P(t) from mpmath.primezeta and tau from Anderson's
root finder; here P(t) comes from the Moebius series
sum_m mu(m)/m * log zeta(m t) and tau from bisection.  Small maximum
antichain weights, made with a min cut, are recomputed by exhaustive search.
"""

import json
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
ANALYTIC = TABLE["analytic"]
TAU_PREFIX = "1.14036595918"


@pytest.fixture(autouse=True)
def working_precision():
    with mp.workdps(45):
        yield


def agree(table_value: str, computed) -> bool:
    """30-digit table entries must match to 28 significant digits."""
    ref = mp.mpf(table_value)
    return abs(ref - computed) <= mp.mpf(10) ** -28 * abs(ref)


def mobius(m: int) -> int:
    mu, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if m > 1 else mu


def prime_zeta_series(t) -> object:
    """P(t) = sum_m mu(m)/m log zeta(m t); the tail after m is below 2^(1-mt)."""
    t = mp.mpf(t)
    total, m = mp.mpf(0), 1
    while mp.mpf(2) ** (1 - m * t) > mp.mpf(10) ** -40:
        mu = mobius(m)
        if mu:
            total += mp.mpf(mu) / m * mp.log(mp.zeta(m * t))
        m += 1
    return total


def margin(t):
    return 1 + mp.sqrt(1 - mp.primezeta(2 * t)) - mp.primezeta(t)


def test_tau_by_bisection():
    lo, hi = mp.mpf("1.13"), mp.mpf("1.15")
    assert margin(lo) < 0 < margin(hi)
    while hi - lo > mp.mpf(10) ** -34:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if margin(mid) < 0 else (lo, mid)
    tau = ANALYTIC["tau"]["value"]
    assert tau.startswith(TAU_PREFIX)
    assert agree(tau, (lo + hi) / 2)


def _prime_zeta_rows():
    rows = [row for stratum in ANALYTIC["prime_zeta"] for row in stratum]
    return rows + [r for r in ANALYTIC["beyond_cap"] if r["kind"] == "prime_zeta"]


def test_prime_zeta_grid_by_moebius_series():
    rows = _prime_zeta_rows()
    assert all(1.01 < row["t"] < 3.0 for row in rows)
    bad = [row["t"] for row in rows if not agree(row["value"], prime_zeta_series(row["t"]))]
    assert bad == []


def test_riemann_zeta_rows():
    rows = [row for stratum in ANALYTIC["riemann_zeta"] for row in stratum]
    rows += [r for r in ANALYTIC["beyond_cap"] if r["kind"] == "riemann_zeta"]
    bad = [row["s"] for row in rows if not agree(row["value"], mp.zeta(mp.mpf(row["s"])))]
    assert bad == []


def test_condition_rows_sit_on_the_right_side_of_tau():
    tau = float(ANALYTIC["tau"]["value"])
    rows = [row for stratum in ANALYTIC["condition"] for row in stratum]
    assert {row["verdict"] for row in rows} == {"holds", "fails"}
    for row in rows:
        assert row["verdict"] == ("holds" if row["t"] > tau else "fails")
        assert agree(row["lhs"], prime_zeta_series(row["t"]))
        assert agree(row["rhs"], 1 + mp.sqrt(1 - prime_zeta_series(2 * row["t"])))


def _exhaustive_optimum(values, t):
    weights = [float(n) ** (-t) for n in values]
    best = 0.0

    def search(i, chosen, acc):
        nonlocal best
        if i == len(values):
            best = max(best, acc)
            return
        search(i + 1, chosen, acc)
        if all(values[i] % c and c % values[i] for c in chosen):
            search(i + 1, chosen + [values[i]], acc + weights[i])

    search(0, [], 0.0)
    return best


def _universe(primes, k_lo, max_omega, max_value):
    found, frontier = [], [(1, 0, 0)]
    while frontier:
        value, om, start = frontier.pop()
        if om >= k_lo:
            found.append(value)
        for i in range(start, len(primes)):
            if om < max_omega and value * primes[i] <= max_value:
                frontier.append((value * primes[i], om + 1, i))
    return sorted(found)


def test_small_flow_optima_by_exhaustive_search():
    rows = [row for pair in TABLE["certify_small"]["flow"] for row in pair]
    checked = 0
    for row in rows:
        values = _universe(row["primes"], row["k"], row["max_omega"], row["max_value"])
        assert len(values) == row["universe_size"]
        if len(values) <= 12:
            assert abs(_exhaustive_optimum(values, row["t"]) - row["optimum"]) <= 1e-12
            checked += 1
    assert checked >= 500


def test_certify_large_universe_sizes():
    sizes = {row["name"]: row["universe_size"] for row in TABLE["certify_large"]}
    assert sizes == {"wide": 80413, "deep": 14949, "deep-clamped": 14949}
