import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primopt import symfunc
from primopt.analytic import ErrBoundReal
from primopt.errors import SizeLimitError
from primopt.primes import PrimeSet, sieve_primes
from primopt.symfunc import (
    chain_check,
    decomposition_partition_check,
    exact_weights_from_primes,
    h_all,
    level_elements,
    power_weights,
    quadratic_equivalence_check,
    schur_check,
    sigma_nk,
    square_identity_check,
)


def h_bruteforce(xs, k):
    """Independent oracle: enumerate all multisets of size k explicitly."""
    total = 0 * xs[0] if xs else 0
    for combo in itertools.combinations_with_replacement(range(len(xs)), k):
        term = 1
        for i in combo:
            term = term * xs[i]
        total = total + term
    return total


def test_h_all_examples():
    assert h_all([Fraction(1, 2), Fraction(1, 3)], 2) == [1, Fraction(5, 6), Fraction(19, 36)]
    x = 0.37
    assert h_all([x], 3) == [1, x, x * x, x * x * x]
    assert h_all([0.2, 0.9], 0) == [1]
    assert h_all([], 4) == [1, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        h_all([0.5], -1)


@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(63, 64), max_denominator=64),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_h_all_matches_multiset_enumeration_exactly(xs, kmax):
    rows = h_all(xs, kmax)
    for k in range(kmax + 1):
        assert rows[k] == h_bruteforce(xs, k)


def test_sigma_nk_examples():
    assert sigma_nk(PrimeSet([2]), 1, 3) == 0.125
    assert abs(sigma_nk(PrimeSet([2, 3]), 1, 2) - 19.0 / 36.0) < 1e-15
    assert sigma_nk(PrimeSet([2, 3, 5]), 1.7, 0) == 1
    assert h_all(exact_weights_from_primes(PrimeSet([2, 3]), 1), 2)[2] == Fraction(19, 36)


def test_sigma_nk_agrees_with_level_enumeration():
    for primes in ([2, 3], [2, 3, 5], [3, 7, 11]):
        P = PrimeSet(primes)
        for t in (1.0, 1.31, 2.0):
            for k in range(5):
                direct = math.fsum(n ** (-t) for n in level_elements(P, k))
                via_h = sigma_nk(P, t, k)
                assert abs(direct - via_h) <= 1e-12 * max(1.0, abs(direct))


def test_exact_mode_guards():
    with pytest.raises(ValueError):
        exact_weights_from_primes(PrimeSet([2]), 1.5)


def test_schur_single_variable_is_equality():
    xs = [Fraction(3, 7)]
    h = h_all(xs, 8)
    for k in range(7):
        assert h[k + 1] * h[k + 1] == h[k] * h[k + 2]
    assert schur_check([0.43], 7) == (True, None)


def test_schur_examples():
    assert schur_check([1 / 2, 1 / 3, 1 / 5], 6) == (True, None)
    with pytest.raises(ValueError):
        schur_check([0.5], 0)
    with pytest.raises(ValueError):
        schur_check([1.5], 3)


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=150, deadline=None)
def test_schur_never_negative_on_positive_weights(xs, kmax):
    ok, witness = schur_check(xs, kmax)
    assert ok and witness is None


_UNIT = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
# products of these reach the subnormals, or underflow to 0
_TINY = st.one_of(st.floats(1e-300, 1e-298), st.floats(1e-170, 1e-150))


@given(
    st.one_of(
        st.lists(_UNIT, min_size=1, max_size=10),
        st.tuples(_UNIT, st.integers(1, 10)).map(lambda pair: [pair[0]] * pair[1]),
        st.lists(_TINY, min_size=1, max_size=6),
        st.lists(st.one_of(_TINY, _UNIT), min_size=1, max_size=6),
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_determinant_slack_bounds_its_rounding(xs, kmax):
    # each binary64 determinant, formed as schur_check forms it, is within
    # its slack of the exact determinant of the same binary64 weights
    h, g, tiny = symfunc._level_sums(xs, kmax + 1)
    exact = h_all([Fraction(x) for x in xs], kmax + 1)
    for k in range(kmax):
        a, b = h[k + 1] * h[k + 1], h[k] * h[k + 2]
        det = exact[k + 1] * exact[k + 1] - exact[k] * exact[k + 2]
        assert abs(Fraction(a - b) - det) <= Fraction(g * (a + b) + tiny)


@given(
    st.lists(st.sampled_from(sieve_primes(300).as_list()), min_size=1, max_size=15, unique=True),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=100, deadline=None)
def test_chain_slack_bounds_each_level_sum(primes, t, kmax):
    # at an integer t the true weights p^-t are Fractions: every binary64 h_k
    # is within half the step slack of the exact level sum, so a step that
    # chain_check calls a rise is one
    prime_set = PrimeSet(primes)
    h, g, tiny = symfunc._level_sums(power_weights(prime_set, t), kmax, 2 + t)
    exact = h_all([Fraction(1, p**t) for p in primes], kmax)
    for k in range(kmax + 1):
        assert abs(Fraction(h[k]) - exact[k]) <= Fraction(g * h[k] + tiny) / 2
    for k in range(1, kmax):
        if h[k] < h[k + 1] * (1.0 - g) - tiny:
            assert exact[k] < exact[k + 1]


def test_chain_check_monotone_case():
    report = chain_check(PrimeSet([2, 3, 5]), 1.5, 10)
    assert report.verdict == "holds"
    h = report.quantities["h"]
    assert all(h[k] >= h[k + 1] for k in range(1, 10))


def test_chain_check_single_prime_powers():
    report = chain_check(PrimeSet([2]), 1.0, 10)
    assert report.verdict == "holds"
    assert report.quantities["h"][1:4] == [0.5, 0.25, 0.125]


def test_chain_check_hypothesis_failure_reports_no_claim():
    report = chain_check(sieve_primes(10**5), 1.02, 3)
    assert report.verdict == "inconclusive"
    h = report.quantities["h"]
    assert h[2] > h[1]
    assert any("hypothesis" in note for note in report.notes)


def test_log_concavity_transfers_to_long_chains():
    # whenever h_1 >= h_2 the whole chain through k=20 must be monotone
    for primes, t in (([2, 3, 5, 7], 1.4), ([2, 3], 1.0), ([5, 7, 11, 13], 1.0)):
        report = chain_check(PrimeSet(primes), t, 20)
        assert report.verdict == "holds"


def test_square_identity_exact_rational():
    # (5/6)^2 == 2*(19/36) - (1/4 + 1/9), exactly
    xs = exact_weights_from_primes(PrimeSet([2, 3]), 1)
    s1 = sum(xs)
    s2 = sum(x * x for x in xs)
    h2 = h_all(xs, 2)[2]
    assert s1 * s1 - (2 * h2 - s2) == 0
    assert s1 * s1 == Fraction(25, 36)


def test_square_identity_examples():
    # exact on the binary64 weights: the residual is 0, against a bound of 0
    first100 = sieve_primes(541)
    assert len(first100) == 100
    for prime_set, t in ((PrimeSet([2, 3]), 1.0), (PrimeSet([2]), 2.0), (first100, 1.3)):
        check = square_identity_check(prime_set, t)
        assert check.verdict == "holds"
        assert check.lhs == check.rhs == ErrBoundReal.exact(0.0)


def test_quadratic_equivalence_examples():
    assert quadratic_equivalence_check(PrimeSet([2, 3, 5]), 1.0)
    assert quadratic_equivalence_check(PrimeSet([2]), 1.0)
    # both sides false simultaneously for a big alphabet near t=1
    big = sieve_primes(10**5)
    xs = power_weights(big, 1.02)
    s1 = math.fsum(xs)
    s2 = math.fsum(x * x for x in xs)
    h = h_all(xs, 2)
    assert h[1] < h[2] and s1 > 1.0 + math.sqrt(1.0 - s2)
    assert quadratic_equivalence_check(big, 1.02)
    assert _fraction_equivalence(big, 1.02) == (True, False)


def _fraction_equivalence(prime_set, t):
    """Reference: the equivalence decided on the Fractions of the binary64
    weights, as (its outcome, whether h_1 >= h_2), or None where S_2 >= 1."""
    xs = [Fraction(x) for x in power_weights(prime_set, t)]
    s1 = sum(xs)
    s2 = sum(x * x for x in xs)
    if s2 >= 1:
        return None
    h = h_all(xs, 2)
    if not s2 < s1:
        return False, h[1] >= h[2]
    return (h[1] >= h[2]) == (s1 <= 1 or (s1 - 1) ** 2 <= 1 - s2), h[1] >= h[2]


def test_quadratic_equivalence_matches_its_fraction_form():
    # the integer sums over one power-of-two scale decide as the Fractions
    # do: 300 sets at t in [1, 3], and 100 of the first 100 primes at t in
    # [0.4, 1.2], where h_1 < h_2 and S_2 >= 1 occur too
    rng = random.Random(1301)
    pool = sieve_primes(2000).as_list()
    outcomes = set()
    for primes, low, high in [(pool, 1.0, 3.0)] * 300 + [(pool[:100], 0.4, 1.2)] * 100:
        prime_set = PrimeSet(rng.sample(primes, rng.randint(1, 60)))
        t = rng.uniform(low, high)
        reference = _fraction_equivalence(prime_set, t)
        outcomes.add(reference if reference is None else reference[1])
        if reference is None:
            with pytest.raises(ValueError, match="squared-weight sum must stay below 1"):
                quadratic_equivalence_check(prime_set, t)
        else:
            assert quadratic_equivalence_check(prime_set, t) == reference[0]
    assert outcomes == {True, False, None}


def _root_gap(prime_set, t):
    """S_1 - 1 - sqrt(1 - S_2) at p^-t in binary64, +inf where S_2 >= 1: it
    falls as t grows, and its zero is the root t of the equivalence."""
    xs = power_weights(prime_set, t)
    s2 = math.fsum(x * x for x in xs)
    return math.fsum(xs) - 1.0 - math.sqrt(1.0 - s2) if s2 < 1.0 else math.inf


@given(
    st.lists(st.sampled_from(sieve_primes(1000).as_list()), min_size=1, max_size=60, unique=True),
    st.floats(1.0, 3.0),
    st.integers(-3, 3),
)
@settings(max_examples=60, deadline=None)
def test_quadratic_equivalence_holds_exactly_near_the_root(primes, t, ulps):
    # a theorem, so on exact sums it holds at every t, also within a few
    # ulps of the root, where the binary64 sums of both sides may disagree
    prime_set = PrimeSet(primes)
    assert quadratic_equivalence_check(prime_set, t)
    lo, hi = 0.01, 3.0
    if _root_gap(prime_set, lo) <= 0.0:
        return  # one prime: S_1 < 1 + sqrt(1 - S_2) at every t
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _root_gap(prime_set, mid) > 0.0 else (lo, mid)
    near = hi
    for _ in range(abs(ulps)):
        near = math.nextafter(near, math.copysign(math.inf, ulps))
    assert quadratic_equivalence_check(prime_set, near)


def test_level_elements_counts_and_membership():
    P = PrimeSet([2, 3, 5])
    for k in range(6):
        level = level_elements(P, k)
        assert len(level) == math.comb(k + 2, 2)
        assert level == sorted(level)
    assert level_elements(PrimeSet([2, 3]), 2) == [4, 6, 9]
    assert level_elements(P, 3) == [8, 12, 18, 20, 27, 30, 45, 50, 75, 125]
    assert level_elements(PrimeSet([]), 0) == [1]
    assert level_elements(PrimeSet([]), 2) == []
    # 1229 primes: more than the interpreter's recursion limit
    primes = sieve_primes(10**4)
    assert level_elements(primes, 1) == primes.as_list()


def test_level_elements_refuses_a_level_past_its_budget(monkeypatch):
    monkeypatch.setattr(symfunc, "_LEVEL_BUDGET", 10)
    P = PrimeSet([2, 3, 5])
    assert len(level_elements(P, 3)) == 10
    with pytest.raises(SizeLimitError, match="level 4 of 3 primes has 15 elements"):
        level_elements(P, 4)


def test_h_all_refuses_sums_past_its_budget(monkeypatch):
    monkeypatch.setattr(symfunc, "_H_ALL_BUDGET", 10)
    assert h_all([0.5, 0.25], 5)[5] == pytest.approx(sum(0.5**i * 0.25 ** (5 - i) for i in range(6)))
    assert h_all([], 10) == [1] + [0] * 10
    with pytest.raises(SizeLimitError, match="h_0..h_6 over 2 weights takes 12 steps"):
        h_all([0.5, 0.25], 6)
    with pytest.raises(SizeLimitError, match="past the h_all budget of 10"):
        h_all([], 11)


def test_decomposition_examples():
    assert decomposition_partition_check(PrimeSet([2, 3]), 2, 6)
    assert decomposition_partition_check(PrimeSet([2]), 3, 8)
    assert decomposition_partition_check(PrimeSet([2, 3, 5]), 3, 30)


def test_decomposition_domain_errors():
    with pytest.raises(ValueError):
        decomposition_partition_check(PrimeSet([2, 3]), 2, 10)  # 5 outside alphabet
    with pytest.raises(ValueError):
        decomposition_partition_check(PrimeSet([2, 3]), 2, 12)  # Omega mismatch


def test_decomposition_exhaustive_small_alphabets():
    for r in (1, 2, 3):
        for primes in itertools.combinations((2, 3, 5, 7), r):
            P = PrimeSet(primes)
            for ell in (1, 2, 3):
                for s in level_elements(P, ell):
                    assert decomposition_partition_check(P, ell, s)


def test_weights_validation():
    with pytest.raises(ValueError):
        power_weights(PrimeSet([2]), 0.0)
    assert power_weights(PrimeSet([2, 3]), 1.0) == [0.5, 1 / 3]
