import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primopt.primes import (
    _SEGMENT_N,
    PrimeSet,
    is_prime,
    omega,
    sieve_primes,
    twin_pair_lower_members,
    twin_primes,
)


def trial_division_primes(limit):
    """Independent oracle: primality by trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def test_sieve_small_examples():
    assert sieve_primes(10).as_list() == [2, 3, 5, 7]
    assert sieve_primes(2).as_list() == [2]


def test_sieve_100_against_trial_division():
    primes = sieve_primes(100).as_list()
    assert primes == trial_division_primes(100)
    assert len(primes) == 25
    assert primes[-1] == 97


@pytest.mark.parametrize("limit", [2, 3, 4, 541, 1000, 65521, 65536, 65537, 70000])
def test_sieve_matches_trial_division_across_segment_boundary(limit):
    assert sieve_primes(limit).as_list() == trial_division_primes(limit)


@pytest.mark.parametrize("limit", [8_388_609, 8_388_611, 8_388_700])
def test_sieve_across_first_segment_boundary(limit):
    # the first segment holds the odd numbers 3 .. 2^23 + 1
    primes = sieve_primes(limit).as_array()
    assert int(np.searchsorted(primes, 1 << 23, side="right")) == 564_163
    tail = [n for n in range(limit - 499, limit + 1) if is_prime(n)]
    assert primes[primes > limit - 500].tolist() == tail


def test_wheel_outputs_match_trial_division_at_every_small_limit():
    primes = trial_division_primes(402)
    prime_set = set(primes)
    for limit in range(2, 401):
        assert sieve_primes(limit).as_list() == [p for p in primes if p <= limit], limit
    for limit in range(5, 401):
        lower = [p for p in primes if p <= limit and p + 2 in prime_set]
        twins = [p for p in primes if p <= limit and (p - 2 in prime_set or p + 2 in prime_set)]
        assert twin_pair_lower_members(limit).tolist() == lower, limit
        assert twin_primes(limit, include_three=True).as_list() == twins, limit
        assert twin_primes(limit).as_list() == twins[1:], limit


def test_wheel_across_its_first_segment_boundary():
    # the first wheel segment holds n = 1 .. _SEGMENT_N, the values 5 .. last
    last = 6 * _SEGMENT_N + 1
    limit = last + 500
    window = range(last - 499, limit + 1)
    primes = sieve_primes(limit).as_array()
    assert primes[primes >= window[0]].tolist() == [n for n in window if is_prime(n)]
    lower = twin_pair_lower_members(limit)
    assert lower[lower >= window[0]].tolist() == [
        n for n in window if is_prime(n) and is_prime(n + 2)
    ]


def test_twin_kernel_across_its_first_segment_boundary():
    # the one-mask twin scan's first segment holds n = 1 .. 2 * _SEGMENT_N,
    # whose last pair is (6,291,455, 6,291,457)
    last = 6 * 2 * _SEGMENT_N + 1
    assert last == 6_291_457
    window = range(last - 600, last + 601)
    expected = [n for n in window if is_prime(n) and is_prime(n + 2)]
    for limit in (last - 2, last, last + 600):
        lower = twin_pair_lower_members(limit)
        assert lower[lower >= window[0]].tolist() == [n for n in expected if n <= limit]
        twins = twin_primes(limit).as_array()
        assert twins[twins >= window[0]].tolist() == [
            n for n in window
            if n <= limit and is_prime(n) and (is_prime(n - 2) or is_prime(n + 2))
        ]


def test_counts_at_ten_million():
    assert len(sieve_primes(10**7)) == 664_579
    assert len(twin_pair_lower_members(10**7)) == 58_980
    assert len(twin_primes(10**7, include_three=True)) == 117_959


def test_sieve_rejects_small_limits():
    with pytest.raises(ValueError):
        sieve_primes(1)


@given(st.integers(min_value=2, max_value=3000), st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_sieve_prefix_property(lo, extra):
    hi = lo + extra
    small = sieve_primes(lo).as_list()
    large = sieve_primes(hi).as_list()
    assert large[: len(small)] == small


def test_twin_examples():
    assert twin_primes(15).as_list() == [5, 7, 11, 13]
    assert twin_primes(15, include_three=True).as_list() == [3, 5, 7, 11, 13]


def test_twins_against_trial_division_scan():
    primes = set(trial_division_primes(200))
    expected = sorted(p for p in primes if p > 3 and (p - 2 in primes or p + 2 in primes))
    twins = twin_primes(100).as_list()
    assert twins == [p for p in expected if p <= 100]
    assert twins[:8] == [5, 7, 11, 13, 17, 19, 29, 31]


def test_twin_upper_member_may_exceed_limit():
    # 17 is a twin via 19 even though 19 > 17
    assert 17 in twin_primes(17).as_list()


def test_twins_subset_of_primes():
    twins = twin_primes(5000)
    primes = set(sieve_primes(5000).as_list())
    prime_lookup = set(sieve_primes(5010).as_list())
    for p in twins:
        assert p in primes and p > 3
        assert (p - 2 in prime_lookup) or (p + 2 in prime_lookup)


def test_twin_pair_lower_members():
    assert twin_pair_lower_members(13).tolist() == [3, 5, 11]
    assert twin_pair_lower_members(5).tolist() == [3, 5]


def test_omega_examples():
    P = PrimeSet([2, 3])
    assert omega(12, P) == 3
    assert omega(1, P) == 0
    assert omega(10, P) is None


def test_omega_rejects_nonpositive():
    with pytest.raises(ValueError):
        omega(0, PrimeSet([2]))


@given(st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=0, max_size=8),
       st.lists(st.sampled_from([2, 3, 5, 7, 11]), min_size=0, max_size=8))
@settings(max_examples=100, deadline=None)
def test_omega_completely_additive(factors_m, factors_n):
    P = PrimeSet([2, 3, 5, 7, 11])
    m = int(np.prod([1] + factors_m))
    n = int(np.prod([1] + factors_n))
    assert omega(m, P) == len(factors_m)
    assert omega(m * n, P) == omega(m, P) + omega(n, P)


def test_prime_set_validates_user_input():
    with pytest.raises(ValueError):
        PrimeSet([2, 4])
    with pytest.raises(ValueError):
        PrimeSet([1])
    assert PrimeSet([5, 3, 2]).as_list() == [2, 3, 5]  # sorted, re-ordering invariant
    assert PrimeSet([3, 3, 2]).as_list() == [2, 3]


def test_prime_set_empty_allowed():
    empty = PrimeSet([])
    assert len(empty) == 0
    assert list(empty) == []


def test_prime_set_json_roundtrip():
    ps = PrimeSet([2, 3, 5])
    assert ps.to_json() == [2, 3, 5]
    assert PrimeSet(ps.to_json()) == ps


def test_is_prime_spot_checks():
    # 341 = 11*31 is a base-2 Fermat pseudoprime; 561 is Carmichael
    assert not is_prime(341)
    assert not is_prime(561)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    for n in range(-3, 200):
        assert is_prime(n) == (n in set(trial_division_primes(200)))


def test_sieve_count_at_one_million():
    # pi(10^6) = 78498 (classical value)
    assert len(sieve_primes(10**6)) == 78498
