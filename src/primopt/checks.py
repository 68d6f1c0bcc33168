"""The paper's certified statements as one table of checks.

Each row holds a claim, the expected outcome as text, the runtime budget the
acceptance tests pin, and ``run(rng) -> (computed, ok)``.  This table
is the single source for both ``primopt suite`` and
``tests/test_acceptance.py``; a row asserts every condition either of them
ever checked for its claim.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from . import analytic, erdos, oracle, symfunc, twin
from .analytic import FAILS, HOLDS
from .errors import SizeLimitError
from .primes import PrimeSet, sieve_primes


class Check(NamedTuple):
    name: str
    claim: str
    expected: str
    budget_s: float
    run: Callable[[random.Random], tuple[object, bool]]


CHECKS: list[Check] = []


def _check(name: str, claim: str, expected: str, budget_s: float):
    def register(run):
        CHECKS.append(Check(name, claim, expected, budget_s, run))
        return run

    return register


@_check("prime_zeta_at_two", "prime zeta at 2", "0.45224742 +- 1e-7", 1.0)
def _prime_zeta_at_two(rng):
    p2 = analytic.prime_zeta(2.0, 1e-8)
    return p2.value, abs(p2.value - 0.45224742) <= 1e-7


@_check("condition_right_side", "all-primes condition right side at t=1",
        "1.74010308 +- 1e-7", 1.0)
def _condition_right_side(rng):
    rhs = analytic.condition_rhs_from_square_sum(analytic.prime_zeta(2.0, 1e-8))
    return rhs.value, abs(rhs.value - 1.74010308) <= 1e-7


@_check("threshold_root_and_margin_signs", "threshold root and margin signs",
        "1.1403659 +- 1e-6, margin(1.05)<0<margin(1.5)", 30.0)
def _threshold_root_and_margin_signs(rng):
    tau = analytic.tau_root(1e-6)
    low = analytic.condition_margin(1.05, 1e-7)
    high = analytic.condition_margin(1.5, 1e-7)
    ok = (
        abs(tau.value - 1.1403659) <= 1e-6
        and tau.radius <= 1e-6
        and low.upper() < 0.0 < high.lower()
    )
    return tau.value, ok


@_check("twin_chain_with_proven_bound", "twin chain with proven Brun bound", HOLDS, 30.0)
def _twin_chain_with_proven_bound(rng):
    # B - 1/3 - 1/5 < 1.814 < 1.9428 < 1 + sqrt(8/9), and square sum < 1/9
    report = twin.corollary_check(twin.BrunInput(2.347, "proven bound"), 10**6)
    ok = (
        report.holds()
        and report.quantities["reciprocal_bound"].upper() < 1.814
        and report.quantities["square_bound"].upper() < 1.0 / 9.0
    )
    return report.verdict, ok


@_check("twin_with_three_conditional", "twin-with-3 condition at limit 100000000",
        "holds/fails", 60.0)
def _twin_with_three_conditional(rng):
    # one square-sum enclosure, judged against both Brun bounds
    limit = 10**8
    square = twin.twin_square_bound(limit, include_three=True)
    hold_report = twin.full_twin_verdict(twin.BrunInput(2.0959621, "required bound"), limit, square)
    fail_report = twin.full_twin_verdict(twin.BrunInput(2.347, "proven bound"), limit, square)
    ok = hold_report.holds() and fail_report.verdict == FAILS
    return f"{hold_report.verdict}/{fail_report.verdict}", ok


@_check("flow_equals_bruteforce", "flow vs brute-force agreement",
        ">=100 agree to 1e-9", 60.0)
def _flow_equals_bruteforce(rng):
    instances = 0
    agree = True
    for _ in range(10**6):
        if instances >= 120:
            break
        subset = [p for p in (2, 3, 5, 7) if rng.random() < 0.6]
        if not subset:
            continue
        prime_set = PrimeSet(subset, validate=False)
        k = rng.choice((1, 2))
        max_omega = rng.randint(k, 5)
        max_value = rng.choice((20, 60, 200, 600))
        try:
            u = oracle.build_universe(prime_set, k, max_omega, max_value)
        except SizeLimitError:
            continue
        if not 1 <= len(u) <= 40:
            continue
        t = rng.choice((1.2, 1.5, 2.0))
        _, w_flow = oracle.max_weight_antichain_flow(u, t)
        _, w_brute = oracle.max_weight_antichain_bruteforce(u, t)
        agree = agree and abs(w_flow - w_brute) <= 1e-9
        instances += 1
    return f"{instances} instances", agree and instances >= 100


@_check("theorem_instances", "theorem-instance certifications", HOLDS, 60.0)
def _theorem_instances(rng):
    # the optimum must be attained by the level set itself
    ok = True
    for k in (1, 2, 3):
        r = oracle.verify_tbest(PrimeSet([2, 3, 5]), 1.5, k, k + 3, 10**6)
        level = symfunc.level_elements(PrimeSet([2, 3, 5]), k)
        ok = ok and r.holds() and list(r.optimum_members.members) == level
    r = oracle.verify_erdos_best(PrimeSet([5, 7, 11, 13]), 1, 4, 10**6)
    ok = ok and r.holds() and r.optimum_members.members == (5, 7, 11, 13)
    return "holds" if ok else "fails", ok


@_check("level_two_overtakes_near_one", "level-2 sum beats the prime sum at t=1.02",
        "level 2 heavier", 30.0)
def _level_two_overtakes_near_one(rng):
    primes_1e5 = sieve_primes(10**5)
    s1 = analytic.sigma_t(primes_1e5, 1.02)
    h2 = symfunc.sigma_nk(primes_1e5, 1.02, 2)
    return f"{h2.value:.6f} > {s1.value:.6f}", h2.lower() > s1.upper()


@_check("identity_suite", "identity suite (random and exhaustive)", "all pass", 60.0)
def _identity_suite(rng):
    # square identity (100 random), log-concavity (1000 random), gcd-block
    # partitions (exhaustive over subsets of {2,3,5,7}), exact h values
    ok = True
    base = sieve_primes(1000).as_list()
    for _ in range(100):
        prime_set = PrimeSet(rng.sample(base, rng.randint(1, 40)), validate=False)
        t = rng.uniform(1.0, 3.0)
        ok = ok and symfunc.square_identity_check(prime_set, t).verdict == HOLDS
    for _ in range(1000):
        xs = [rng.uniform(1e-6, 1.0 - 1e-6) for _ in range(rng.randint(1, 10))]
        good, _ = symfunc.schur_check(xs, rng.randint(1, 8))
        ok = ok and good
    for subset_mask in range(1, 16):
        subset = [p for i, p in enumerate((2, 3, 5, 7)) if subset_mask >> i & 1]
        prime_set = PrimeSet(subset, validate=False)
        for ell in range(1, 5):
            for s in symfunc.level_elements(prime_set, ell):
                ok = ok and symfunc.decomposition_partition_check(prime_set, ell, s)
    exact = symfunc.h_all([Fraction(1, 2), Fraction(1, 3)], 2)
    ok = ok and exact == [1, Fraction(5, 6), Fraction(19, 36)]
    return "all pass" if ok else "violation", ok


@_check("integral_bridge", "integral bridge residuals", "within tolerance", 10.0)
def _integral_bridge(rng):
    # each enclosure holds the direct sum, with a radius within the bound
    cases = (([2], 1e-6), ([2, 3, 5], 1e-4), ([4, 6, 9], 1e-4))
    bridges = [(erdos.integral_bridge_check(m), bound) for m, bound in cases]
    ok = all(check.verdict == HOLDS and check.rhs.value <= bound for check, bound in bridges)
    return "within tolerance" if ok else "exceeded", ok
