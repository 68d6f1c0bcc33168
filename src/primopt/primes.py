"""Prime generation, twin-prime enumeration, and factorization over a fixed alphabet.

Everything here is exact integer arithmetic.  The sieve is a segmented
Eratosthenes on the mod-6 wheel: every prime p >= 5 is 6n - 1 or 6n + 1, so
a segment is one numpy bool mask over n with a column per residue, and
limits up to 1e9 stay within a few MB of working memory.  The prime list is
read from that mask in order.  The twin scan crosses both residues off one
column, so an n left standing is a pair (6n - 1, 6n + 1); it never builds
the prime list.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import SizeLimitError

# Wheel indices n per sieve segment: a two-column bool mask of 2^20 bytes
# (1 MB, so it fits in a 2 MB L2 cache), covering the 6n +- 1 values from
# 6 n0 - 1 to 6 (n0 + 2^19) - 5.  The twin scan's one column spans 2^20
# indices in the same 1 MB, so its first segment ends at 6 * 2^20 + 1 =
# 6,291,457.
_SEGMENT_N = 1 << 19

# Fixed witness set: deterministic Miller-Rabin for all n < 3.3e24,
# which covers the 64-bit range used throughout.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_ELEMENT = (1 << 63) - 1

# Largest limit any sieve runs to.  On 2 vCPUs the two-column wheel segments
# to 1e9 take 2.6 s (0.17 s to 1e8) and the one-mask twin segments 1.7 s
# (0.11 s to 1e8); sieve_primes(1e9) returns 50.8 million primes, 407 MB as
# int64, and 1e10 would take about 25 s and 3.6 GB.
_SIEVE_BUDGET = 10**9


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
        ints = sorted({int(v) for v in values})
        if ints and ints[0] < 2:
            raise ValueError("prime set elements must be >= 2")
        if ints and ints[-1] > MAX_ELEMENT:
            raise ValueError(f"prime set elements must be <= MAX_ELEMENT = {MAX_ELEMENT}")
        if validate:
            for v in ints:
                if not is_prime(v):
                    raise ValueError(f"{v} is not prime")
        self._values = np.asarray(ints, dtype=np.int64)
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
        return self._values.tolist()

    def __len__(self) -> int:
        return int(self._values.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values.tolist())

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


def _wheel_segments(limit: int, twin: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Primality of every 6n - 1 and 6n + 1 up to limit, one segment at a time.

    Yields ``(n0, mask)`` per segment, for n0 + i = 1, 2, ... up to the last
    n with 6n - 1 <= limit: row i of the (count, 2) bool mask says whether
    6(n0 + i) - 1 and whether 6(n0 + i) + 1 is prime, so the mask read in
    order runs through those values ascending.  Values above limit read
    False.  Every prime p >= 5 crosses off one residue class of n (stride p)
    in each column, from its first multiple at or above p * p.

    With ``twin``, the mask is one column that takes both classes: its entry
    i then says whether 6(n0 + i) - 1 and 6(n0 + i) + 1 are both prime.  It
    takes the cache of the two columns, so a twin segment holds 2 *
    ``_SEGMENT_N`` indices.
    """
    n_top = (limit + 1) // 6
    if n_top < 1:
        return
    base = [int(p) for p in _simple_sieve(math.isqrt(limit)) if p > 3]
    # first n of each class holding a multiple p * q, q >= p: p * p is
    # 1 mod 6, and the least q >= p with p * q = -1 mod 6 is p + 4 or p + 2
    stride = np.array(base, dtype=np.int64)
    first_plus = np.array([(p * p - 1) // 6 for p in base], dtype=np.int64)
    first_minus = np.array(
        [(p * (p + 4 if p % 6 == 1 else p + 2) + 1) // 6 for p in base], dtype=np.int64
    )
    span = 2 * _SEGMENT_N if twin else _SEGMENT_N
    for n0 in range(1, n_top + 1, span):
        count = min(span, n_top + 1 - n0)
        mask = np.ones(count if twin else (count, 2), dtype=bool)
        minus, plus = (mask, mask) if twin else (mask[:, 0], mask[:, 1])
        at_minus = np.where(first_minus >= n0, first_minus - n0, (first_minus - n0) % stride)
        at_plus = np.where(first_plus >= n0, first_plus - n0, (first_plus - n0) % stride)
        for p, a, b in zip(base, at_minus.tolist(), at_plus.tolist()):
            minus[a::p] = False
            plus[b::p] = False
        if 6 * (n0 + count - 1) + 1 > limit:
            plus[-1] = False
        yield n0, mask


def _sieve_array(limit: int) -> np.ndarray:
    """All primes <= limit: 2 and 3, then the 6n +- 1 wheel in order."""
    chunks = [np.array([p for p in (2, 3) if p <= limit], dtype=np.int64)]
    for n0, mask in _wheel_segments(limit):
        # row i of the mask is (6(n0 + i) - 1, 6(n0 + i) + 1), so the
        # flattened index j names 6 n0 - 1 + 3 j - (j & 1)
        j = np.flatnonzero(mask)
        chunks.append(6 * n0 - 1 + 3 * j - (j & 1))
    return np.concatenate(chunks)


def sieve_primes(limit: int) -> PrimeSet:
    """All primes <= limit, sorted ascending.

    limit must be >= 2.
    """
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if limit > MAX_ELEMENT:
        raise ValueError("sieve limit exceeds the 64-bit element range")
    _check_sieve_budget(limit)
    return PrimeSet._trusted(_sieve_array(limit))


def _check_sieve_budget(limit: int) -> None:
    """Refuse a sieve past ``_SIEVE_BUDGET`` before anything is allocated."""
    if limit > _SIEVE_BUDGET:
        raise SizeLimitError(
            f"sieve limit {limit} exceeds the sieve budget of {_SIEVE_BUDGET}"
        )


def twin_pair_lower_members(limit: int) -> np.ndarray:
    """Lower members p <= limit of twin pairs (p, p+2), ascending.

    The upper member p+2 may exceed limit; that matches the pair-by-pair
    truncation used for partial sums of the twin-pair reciprocal series.
    Past (3, 5) every pair is (6n - 1, 6n + 1), so the pairs are the n where
    the one twin mask of a wheel sieve to limit + 2 reads True.
    """
    if limit > MAX_ELEMENT - 2:
        # refused before any mask is allocated
        raise ValueError(f"twin limit must be <= {MAX_ELEMENT - 2}: the scan sieves to limit + 2")
    _check_sieve_budget(limit + 2)
    chunks = [np.array([3] if limit >= 3 else [], dtype=np.int64)]
    for n0, both in _wheel_segments(limit + 2, twin=True):
        chunks.append(6 * (n0 + np.flatnonzero(both)) - 1)
    return np.concatenate(chunks)


def twin_primes(limit: int, include_three: bool = False) -> PrimeSet:
    """Primes p <= limit with p-2 or p+2 prime; p=3 included iff include_three."""
    if limit < 5:
        raise ValueError("twin-prime limit must be >= 5")
    # the pairs are (3, 5), (5, 7), (11, 13), ...: 5 is the only prime in
    # two of them, so the pairs from (5, 7) on hold every twin but 3
    lower = twin_pair_lower_members(limit)[1:]
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
