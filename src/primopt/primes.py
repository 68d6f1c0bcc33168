"""Prime generation, twin-prime enumeration, and factorization over a fixed alphabet.

Everything here is exact integer arithmetic.  The sieve is a segmented,
odd-only Eratosthenes on numpy bool masks, so limits up to 1e9 stay within
a few MB of working memory.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

import numpy as np

# Odd numbers per sieve segment (~4 MB of bool mask).
_SEGMENT_ODDS = 1 << 22

# Fixed witness set: deterministic Miller-Rabin for all n < 3.3e24,
# which covers the 64-bit range used throughout.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_ELEMENT = (1 << 63) - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n <= 2**63 - 1."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeSet:
    """Sorted, duplicate-free set of primes: the restriction alphabet.

    Iteration yields Python ints (safe for unbounded multiplication);
    bulk numeric work should go through :meth:`as_array`.
    An empty set is allowed (vacuous subset iteration); otherwise every
    element must be a prime >= 2.
    """

    __slots__ = ("_values", "_member_set")

    def __init__(self, values: Iterable[int], *, validate: bool = True):
        arr = np.asarray(sorted({int(v) for v in values}), dtype=np.int64)
        if arr.size and arr[0] < 2:
            raise ValueError("prime set elements must be >= 2")
        if validate:
            for v in arr:
                if not is_prime(int(v)):
                    raise ValueError(f"{int(v)} is not prime")
        self._values = arr
        self._member_set: Optional[frozenset] = None

    @classmethod
    def _trusted(cls, sorted_array: np.ndarray) -> "PrimeSet":
        # Internal: elements already sorted, distinct and prime by construction.
        obj = cls.__new__(cls)
        obj._values = np.asarray(sorted_array, dtype=np.int64)
        obj._member_set = None
        return obj

    def as_array(self) -> np.ndarray:
        return self._values

    def as_list(self) -> list[int]:
        return [int(v) for v in self._values]

    def __len__(self) -> int:
        return int(self._values.size)

    def __iter__(self) -> Iterator[int]:
        return (int(v) for v in self._values)

    def __contains__(self, n: int) -> bool:
        if self._member_set is None:
            self._member_set = frozenset(self.as_list())
        return n in self._member_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeSet):
            return NotImplemented
        return self.as_list() == other.as_list()

    def __hash__(self) -> int:
        return hash(tuple(self.as_list()))

    def __repr__(self) -> str:
        inner = self.as_list()
        if len(inner) > 8:
            shown = ", ".join(map(str, inner[:4]))
            return f"PrimeSet([{shown}, ... {len(inner)} primes ... {inner[-1]}])"
        return f"PrimeSet({inner})"

    def subset(self, keep) -> "PrimeSet":
        """Subset of primes p for which keep(p) is true."""
        return PrimeSet._trusted(
            np.asarray([p for p in self if keep(p)], dtype=np.int64)
        )

    def to_json(self) -> list[int]:
        return self.as_list()


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.array([], dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _sieve_array(limit: int) -> np.ndarray:
    """All primes <= limit, odd-only segmented sieve."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    base = _simple_sieve(math.isqrt(limit))
    base_odd = base[base > 2]
    chunks = [np.array([2], dtype=np.int64)]
    low = 3
    while low <= limit:
        high = min(low + 2 * _SEGMENT_ODDS, limit + 1)  # exclusive
        count = (high - low + 1) // 2
        mask = np.ones(count, dtype=bool)
        for p in base_odd:
            p = int(p)
            start = max(p * p, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            if start >= high:
                continue
            mask[(start - low) // 2 :: p] = False
        chunks.append(low + 2 * np.flatnonzero(mask).astype(np.int64))
        low = high
    return np.concatenate(chunks)


def sieve_primes(limit: int) -> PrimeSet:
    """All primes <= limit, sorted ascending.

    limit must be >= 2.
    """
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if limit > MAX_ELEMENT:
        raise ValueError("sieve limit exceeds the 64-bit element range")
    return PrimeSet._trusted(_sieve_array(limit))


def _twin_lower_members(limit: int) -> np.ndarray:
    """Lower members p <= limit of twin pairs (p, p+2), ascending."""
    primes = _sieve_array(limit + 2)
    lower = primes[:-1][np.diff(primes) == 2]
    return lower[lower <= limit]


def twin_pair_lower_members(limit: int) -> np.ndarray:
    """Lower members p of twin pairs (p, p+2), for all pairs with p <= limit.

    The upper member p+2 may exceed limit; that matches the pair-by-pair
    truncation used for partial sums of the twin-pair reciprocal series.
    """
    return _twin_lower_members(limit)


def twin_primes(limit: int, include_three: bool = False) -> PrimeSet:
    """Primes p <= limit with p-2 or p+2 prime; p=3 included iff include_three."""
    if limit < 5:
        raise ValueError("twin-prime limit must be >= 5")
    # the pairs are (3, 5), (5, 7), (11, 13), ...: 5 is the only prime in
    # two of them, so the pairs from (5, 7) on hold every twin but 3
    lower = _twin_lower_members(limit)[1:]
    twins = np.column_stack((lower, lower + 2)).ravel()
    if include_three:
        twins = np.concatenate(([3], twins))
    return PrimeSet._trusted(twins[twins <= limit])


def omega(n: int, prime_set: PrimeSet) -> Optional[int]:
    """Number of prime factors of n counted with multiplicity, over the alphabet.

    Returns None (explicit not-in-semigroup marker, not an exception) when n
    has a prime factor outside the set.  omega(1) == 0.
    """
    if n < 1:
        raise ValueError("omega requires n >= 1")
    count = 0
    for p in prime_set:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            count += 1
    if n > 1:
        if n in prime_set:
            return count + 1
        return None
    return count
