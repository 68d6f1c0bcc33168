"""Regenerate perfbench/reference.json, the benchmark's reference table.

    python3 perfbench/make_reference.py

The table is computed without primopt:

* analytic values (tau, P(t), zeta(s), both sides of the all-primes
  condition) with mpmath at 40 working digits, stored to 30 significant
  digits;
* truncated universes by an enumeration of its own;
* maximum antichain weights by Fulkerson's reduction on the transitive
  closure of divisibility (weight minus a min cut in the split bipartite
  graph), solved with networkx on integer capacities, while primopt runs a
  min flow over covering edges only;
* the expected verdict of a certification from that optimum and the
  level weight.  The three certify-large instances are too big for the
  bipartite solver; their expected verdict is "holds" because each prime
  set satisfies the optimality condition at its t (checked here with
  mpmath), so Banks and Martin's theorem applies.

Needs mpmath and networkx; the benchmark run itself needs neither.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath
import networkx as nx
from mpmath import mp

mp.dps = 40
DIGITS = 30
GEN_SEED = 20130104
OUT = Path(__file__).resolve().parent / "reference.json"

_FLOW_SCALE = 1 << 60
SMALL_POOL = 2200  # pairs -> 1100 flow/brute-force jobs per pass
VERIFY_POOL = 240  # pairs -> 120 verify jobs per pass


def s30(x) -> str:
    return mpmath.nstr(x, DIGITS, min_fixed=-1, max_fixed=1)


def pz(t: float):
    return mp.primezeta(mp.mpf(t))


def margin(t):
    return 1 + mp.sqrt(1 - mp.primezeta(2 * t)) - mp.primezeta(t)


def tau():
    return mp.findroot(margin, (mp.mpf("1.13"), mp.mpf("1.15")), solver="anderson")


def strata(lo: float, hi: float, count: int, per: int) -> list[list[float]]:
    """count equal-width strata of (lo, hi), each holding per points spaced
    width/20 apart around its centre: a seed's pick changes the input but
    hardly its cost, so every seed runs the same mix of cheap and dear jobs."""
    width = (hi - lo) / count
    return [
        [round(lo + width * (i + 0.5 + (j - (per - 1) / 2) / 20), 6) for j in range(per)]
        for i in range(count)
    ]


def small_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def enumerate_universe(primes, k_lo, max_omega, max_value, cap=None):
    """(n, Omega(n)) for products of the primes with k_lo <= Omega <= max_omega,
    n <= max_value, sorted; None once more than cap members are found."""
    out = []
    frontier = [(1, 0, 0)]  # value, omega, index of the smallest allowed prime
    while frontier:
        value, om, start = frontier.pop()
        if om >= k_lo:
            out.append((value, om))
            if cap is not None and len(out) > cap:
                return None
        if om == max_omega:
            continue
        for i in range(start, len(primes)):
            nxt = value * primes[i]
            if nxt > max_value:
                break
            frontier.append((nxt, om + 1, i))
    out.sort()
    return out


def _divisors_in(n, primes, members):
    divs = [1]
    rest = n
    for p in primes:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            divs = [d * p**i for d in divs for i in range(e + 1)]
    return [d for d in divs if d != n and d in members]


def max_antichain(values, primes, weight):
    """Independent maximum-weight antichain: Fulkerson's split graph, min cut."""
    members = set(values)
    graph = nx.DiGraph()
    scaled = {n: max(1, round(weight(n) * _FLOW_SCALE)) for n in values}
    for n in values:
        graph.add_edge("s", ("L", n), capacity=scaled[n])
        graph.add_edge(("R", n), "t", capacity=scaled[n])
        for d in _divisors_in(n, primes, members):
            graph.add_edge(("L", d), ("R", n))  # uncapacitated
    _, (source_side, _) = nx.minimum_cut(graph, "s", "t")
    chosen = sorted(n for n in values if ("L", n) in source_side and ("R", n) not in source_side)
    for a in chosen:
        for b in chosen:
            if a < b and b % a == 0:
                raise AssertionError("cut side is not an antichain")
    return chosen, math.fsum(weight(n) for n in chosen)


def power_weight(t):
    return lambda n: float(n) ** (-t)


def erdos_weight(n):
    return 1.0 / (n * math.log(n))


def analytic_tables():
    tau_value = tau()
    # Denser on (2, 3), where an evaluation costs well under a millisecond:
    # the median job then falls inside one cluster of near-equal cost.  On
    # (1.01, 2) successive strata differ by about 35% in cost, and a median
    # there would jump from cluster to cluster with the seed.
    prime_zeta = [
        [{"t": t, "radius": 1e-8, "value": s30(pz(t))} for t in stratum]
        for stratum in strata(1.01, 2.0, 20, 4) + strata(2.0, 3.0, 120, 4)
    ]
    riemann = [
        [{"s": s, "radius": 1e-8, "value": s30(mp.zeta(mp.mpf(s)))} for s in stratum]
        for stratum in strata(1.04, 1.34, 12, 4)
    ]
    condition = []
    for lo, hi in ((1.02, 1.12), (1.16, 2.0)):
        for stratum in strata(lo, hi, 8, 4):
            rows = []
            for t in stratum:
                m = margin(mp.mpf(t))
                rows.append(
                    {
                        "t": t,
                        "radius": 1e-8,
                        "verdict": "holds" if m > 0 else "fails",
                        "lhs": s30(pz(t)),
                        "rhs": s30(1 + mp.sqrt(1 - pz(2 * t))),
                    }
                )
            condition.append(rows)
    beyond_cap = [
        {"kind": "prime_zeta", "t": 1.14, "radius": 1e-10, "value": s30(pz(1.14))},
        {"kind": "riemann_zeta", "s": 1.5, "radius": 1e-12, "value": s30(mp.zeta(mp.mpf(1.5)))},
    ]
    return {
        "tau": {"radius": 1e-8, "value": s30(tau_value)},
        "prime_zeta": prime_zeta,
        "riemann_zeta": riemann,
        "condition": condition,
        "beyond_cap": beyond_cap,
    }


def level_weight(universe, k, weight):
    return math.fsum(weight(n) for n, om in universe if om == k)


def condition_holds(primes, t) -> bool:
    s1 = mp.fsum(mp.mpf(p) ** (-mp.mpf(t)) for p in primes)
    s2 = mp.fsum(mp.mpf(p) ** (-2 * mp.mpf(t)) for p in primes)
    return s1 <= 1 + mp.sqrt(1 - s2)


def certify_large():
    deep = [2, 3, 5, 7]
    instances = [
        ("wide", small_primes(1000), 2, 3, 10**6, 1.5),
        ("deep", deep, 1, 22, 2**62, 1.5),
        ("deep-clamped", deep, 1, 22, 2**62, 8.0),
    ]
    rows = []
    for name, primes, k, max_omega, max_value, t in instances:
        if not condition_holds(primes, t):
            raise AssertionError(f"{name}: condition fails, theorem does not apply")
        universe = enumerate_universe(primes, k, max_omega, max_value)
        alphabet = {"primes_below": 1000} if name == "wide" else {"primes": primes}
        rows.append(
            {"name": name, **alphabet, "k": k, "max_omega": max_omega,
             "max_value": max_value, "t": t, "verdict": "holds",
             "universe_size": len(universe),
             "level_weight": level_weight(universe, k, power_weight(t))}
        )
    return rows


def _paired(pool, key):
    pool.sort(key=key)
    return [pool[i : i + 2] for i in range(0, len(pool), 2)]


def certify_small(rng):
    alphabet = [2, 3, 5, 7, 11, 13]
    flow = []
    while len(flow) < SMALL_POOL:
        primes = sorted(rng.sample(alphabet, rng.randint(1, len(alphabet))))
        k = rng.randint(1, 3)
        max_omega = rng.randint(k, k + 5)
        max_value = int(10 ** rng.uniform(1.0, 3.7))
        universe = enumerate_universe(primes, k, max_omega, max_value, cap=40)
        if not universe:
            continue
        t = round(rng.uniform(1.05, 3.0), 3)
        values = [n for n, _ in universe]
        _, optimum = max_antichain(values, primes, power_weight(t))
        flow.append(
            {"primes": primes, "k": k, "max_omega": max_omega, "max_value": max_value,
             "t": t, "universe_size": len(universe), "optimum": optimum}
        )

    verify_alphabet = small_primes(23)
    verify = []
    while len(verify) < VERIFY_POOL:
        kind = "tbest" if len(verify) % 2 == 0 else "erdos"
        primes = sorted(rng.sample(verify_alphabet, rng.randint(2, len(verify_alphabet))))
        k = rng.randint(1, 3)
        max_omega = rng.randint(k + 1, k + 8)
        max_value = int(10 ** rng.uniform(2.0, 7.0))
        universe = enumerate_universe(primes, k, max_omega, max_value, cap=2000)
        if universe is None or len(universe) < 41:
            continue
        t = round(rng.uniform(1.1, 3.0), 3) if kind == "tbest" else None
        weight = power_weight(t) if kind == "tbest" else erdos_weight
        _, optimum = max_antichain([n for n, _ in universe], primes, weight)
        level = level_weight(universe, k, weight)
        if optimum <= level * (1 + 1e-12):
            verdict = "holds"
        elif optimum > level + 1e-6:
            verdict = "fails"
        else:
            continue  # within the engine's tie tolerance: no stable expectation
        verify.append(
            {"kind": kind, "primes": primes, "k": k, "max_omega": max_omega,
             "max_value": max_value, "t": t, "universe_size": len(universe),
             "optimum": optimum, "verdict": verdict}
        )
    return {
        "flow": _paired(flow, key=lambda r: (r["universe_size"], r["t"])),
        "verify": _paired(verify, key=lambda r: (r["kind"], r["universe_size"])),
    }


def _nested(value) -> bool:
    return isinstance(value, dict) or (
        isinstance(value, list) and bool(value) and isinstance(value[0], (dict, list))
    )


def _dumps(obj, indent: str = "") -> str:
    """JSON with one line per table row: containers of rows are broken up,
    rows (dicts of scalars and scalar lists) stay on one line."""
    inner = indent + " "
    if isinstance(obj, dict) and any(_nested(v) for v in obj.values()):
        body = ",\n".join(f"{inner}{json.dumps(k)}: {_dumps(v, inner)}" for k, v in obj.items())
        return "{\n" + body + "\n" + indent + "}"
    if _nested(obj) and isinstance(obj, list):
        body = ",\n".join(inner + _dumps(v, inner) for v in obj)
        return "[\n" + body + "\n" + indent + "]"
    return json.dumps(obj)


def main():
    rng = random.Random(GEN_SEED)
    table = {
        "about": "Reference values for perfbench; regenerate with perfbench/make_reference.py.",
        "digits": DIGITS,
        "analytic": analytic_tables(),
        "certify_large": certify_large(),
        "certify_small": certify_small(rng),
        "suite": {"verdict": "holds", "checks": 10},
    }
    OUT.write_text(_dumps(table) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
