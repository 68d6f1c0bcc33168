"""Complete homogeneous symmetric sums over prime weights, and the identity
checks tying them to level sets of the restricted semigroup.

The degree-k sum over weights (x_1..x_m) equals the weighted sum over the
set of semigroup elements with exactly k prime factors, at x_i = p_i^-t.
Everything is a finite positive sum, so the rolling-row DP is numerically
stable.  The polynomial identities are decided exactly, on the binary64
weights as integers over one power-of-two scale, as is the level-sum step
h_{k+1} <= h_k, on integer bounds of the true weights; the gcd-block
partition by exact set equality; the Schur and chain checks compare floats
against a slack derived from the roundings each performs (the note above
``_level_sums``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

import numpy as np

from .analytic import (
    HOLDS, INCONCLUSIVE, FAILS, ConditionVerdict, ErrBoundReal, VerificationReport, _gamma,
)
from .errors import PrecisionError, SizeLimitError
from .primes import PrimeSet, omega

Number = Union[float, Fraction]

# Most elements level_elements enumerates.  On 2 vCPUs a level takes about
# 0.7 us and 60 bytes per element: 1.35 million (200 primes, k = 3) took
# 0.98 s and 84 MB, 4.4 million (100 primes, k = 4) 3.7 s and 266 MB.
_LEVEL_BUDGET = 10**6

# Most DP steps, kmax * max(1, weights), h_all takes.  On 2 vCPUs a float
# step takes 130-240 ns and the row 32 bytes per entry: 10^7 steps took
# 1.3 s over 168 weights and 2.4 s over one, and a row of kmax = 10^6 held
# 32 MB.  The budget keeps a call near one second and its row near 160 MB.
_H_ALL_BUDGET = 5 * 10**6

# Most decimal digits an exact sum's numerator or denominator may have:
# Python's default limit on converting an int to a string, which printing a
# Fraction does.  On 2 vCPUs h_0..h_5000 over {1/2, 1/3}, 3,891 digits at
# most, took 2 s.
_DIGIT_BUDGET = 4300


def _check_weights(xs: Sequence[Number]) -> None:
    for x in xs:
        if not (0 < x < 1):
            raise ValueError(f"weight {x} outside (0, 1)")


def power_weights(values: Union[PrimeSet, Sequence[int], np.ndarray], t: float):
    """The weights n^-t of primes or of semigroup elements, in their order:
    a float64 column for an int64 column, else a list of Python floats.

    t must be finite and positive, and no weight may underflow to 0: a zero
    weight would drop its element from every sum it enters.  An int64
    column is cast to float64, which rounds each value as ``float`` does.
    """
    if not (t > 0) or not math.isfinite(t):
        raise ValueError("weights need a finite t > 0")
    # Both forms compute float(n) ** -t by libm's pow.  np.float_power's
    # float64 loop calls that same pow per element, as Python's float **
    # does, so the column has the list's bits.  np.power stays out: numpy
    # 2.4's AVX-512 kernel differed from Python's ** in 86,010 of 1,623,384
    # weights on a 2-vCPU Xeon VM, and would change reported optima in
    # their last bits.
    if isinstance(values, np.ndarray):
        weights = np.float_power(values.astype(np.float64), -t)
    else:
        weights = [float(n) ** (-t) for n in values]
    if 0.0 in weights:  # the least such n, whatever the order of the values
        n = min(n for n, w in zip(values, weights) if w == 0.0)
        raise PrecisionError(f"weight {n}^-{t} underflows to 0 in binary64")
    return weights


# The weight w = float(p) ** -t against p^-t.  libm's pow errs by under one
# ulp (glibc documents 0.52), and 2 ulps are allowed: |w - float(p)^-t| <=
# 2^-51 w + 2^-1073, the first term for a normal w (ulp(w) <= 2^-52 w), the
# second, two ulps of 0, for a subnormal or zero one.  Up to 2^53 the cast
# float(p) is exact; above it float(p) = p (1 + e), |e| <= u = 2^-53, so p^-t
# = float(p)^-t (1 + e)^t, and with x = t u <= 1/4, (1 + u)^t <= exp(x) <=
# 1 + 2x and (1 - u)^t >= 1 - u t / (1 - u) >= 1 - 2x.  Together p^-t lies
# in [(w - z)(1 - r), (w + z)(1 + r)], z = 2^-1073, with r = 2^-50 (which
# holds (1 + 2^-51)(1 + 2x) - 1 for x = 0) plus 3x once a p passes 2^53.
# Past x = 1/4 such a p has p^-t < 2^(-53 * 2^51), far below z, so r = 1
# serves.  On the grid d = 2^s each bound is rounded outward: d w r rounds
# down by under one quantum, and d z (1 + r) <= 2 d z is at most 2^(s - 1072)
# quanta, or 1.  s puts every nonzero w at 2^62 quanta or more (so d w is an
# integer), which keeps the rounding far below r.
_POW_PAD = 2**14  # 2^-50 over 2^64


def power_bounds(
    values: Union[PrimeSet, Sequence[int]], t: float
) -> tuple[int, list[int], list[int]]:
    """(d, lo, hi): d a power of two and integers lo_i <= d p_i^-t <= hi_i,
    around the weights ``power_weights`` gives (the note above).

    The weights may underflow: a zero weight gets lo 0 and a positive hi.
    """
    if not (t > 0) or not math.isfinite(t):
        raise ValueError("weights need a finite t > 0")
    weights = [float(p) ** (-t) for p in values]
    smallest = min(filter(None, weights), default=0.0)
    s = 63 - math.frexp(smallest)[1] if smallest else 1074
    if max(values, default=0) <= 2**53:
        r = _POW_PAD
    elif t <= 2**51:
        num, den = t.as_integer_ratio()
        r = _POW_PAD - (-num * 3 * 2**11 // den)  # 2^-50 + 3 t u over 2^64, rounded up
    else:
        r = 1 << 64
    rounding = 1 + (1 << max(0, s - 1072))
    lo, hi = [], []
    for w in weights:
        num, den = w.as_integer_ratio()
        scaled = num << (s + 1 - den.bit_length())
        pad = (scaled * r >> 64) + rounding
        lo.append(max(0, scaled - pad))
        hi.append(scaled + pad)
    return 1 << s, lo, hi


def exact_weights_from_primes(prime_set: PrimeSet, t: int, kmax: int = 1) -> list[Fraction]:
    """The weights p^-t as Fractions, for sums up to h_kmax.

    h_k's denominator divides D^k, D = prod p^t, and h_k <= (sum p^-t)^k,
    so neither part of h_k has more than floor(k * log10(D * max(1, sum
    p^-t))) + 1 digits.  Past ``_DIGIT_BUDGET`` digits for k = max(1, kmax)
    the weights are refused before any is formed.
    """
    if not (t >= 1) or not math.isfinite(t) or int(t) != t:
        raise ValueError("exact weights need a positive integer t")
    log_d = t * math.fsum(math.log10(p) for p in prime_set)
    log_sum = math.log10(max(1.0, math.fsum(float(p) ** -t for p in prime_set)))
    digits = max(1, kmax) * (log_d + log_sum)
    if digits >= _DIGIT_BUDGET:
        raise SizeLimitError(
            f"exact sums h_0..h_{kmax} at t={t} may reach {digits + 1:.4g} digits, "
            f"past the digit budget of {_DIGIT_BUDGET}"
        )
    return [Fraction(1, p ** int(t)) for p in prime_set]


def h_all(xs: Sequence[Number], kmax: int) -> list[Number]:
    """h_0..h_kmax of the weight vector: h_k sums all degree-k monomials
    with non-decreasing indices.

    Rolling-row DP over variables: after processing i variables the row
    holds the sums restricted to those variables.  O(m * kmax) time,
    O(kmax) memory.  Works on floats and Fractions alike.  Past
    ``_H_ALL_BUDGET`` steps the sums are refused before the row exists; a
    float sum past binary64 is refused once the row is done.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    steps = kmax * max(1, len(xs))
    if steps > _H_ALL_BUDGET:
        raise SizeLimitError(
            f"h_0..h_{kmax} over {len(xs)} weights takes {steps} steps, "
            f"past the h_all budget of {_H_ALL_BUDGET}"
        )
    row: list[Number] = [1] + [0] * kmax
    for x in xs:
        for k in range(1, kmax + 1):
            row[k] = row[k] + x * row[k - 1]
    if math.inf in row:
        raise PrecisionError(f"level sum h_{row.index(math.inf)} overflows binary64")
    return row


def sigma_nk(prime_set: PrimeSet, t: float, k: int) -> float:
    """Weighted sum over the level-k slice of the semigroup: h_k at p^-t."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return h_all(power_weights(prime_set, t), k)[k]


# Slack of the float checks below, counted from the operations each does.  A
# binary64 add, multiply or cast gives x (1 + d), |d| <= u = 2^-53, or x + e,
# |e| <= ulp(0) / 2, for a product that underflows (a sum that underflows is
# exact).  A weight float(n) ** -t carries w = 2 + ceil(t) factors 1 + d
# (libm's pow errs by under one ulp, the cast by (1 + d)^-t), and n such
# factors lie within 1 +- gamma(n).  h_all's update passes each monomial of
# h_k over m positive weights through m + 2k - 1 roundings (by induction), so
# h_k carries gamma(m + (2 + w) k).
#
# Underflows add to that.  The product that weight i adds at row[j] may
# underflow, once per (i, j); its e reaches h_k times at most h_{k-j} <= S,
# S the row's sum.  So h_k is off by at most ulp(0) / 2 m S, which the
# per-level bound E = ulp(0) (1 + m S) holds twice over, the factor 2 taking
# the roundings of S, E and the carried e.  E is finite where S is: ulp(0) m
# is exact, and times S it stays below 1.
#
# A chain step h_k against h_{k+1} then errs by g = gamma(2 (m + (2 + w) K) +
# 4) of its terms, K the row's last k, with the comparison and the slack's own
# roundings, plus E on each side: its slack is g h_{k+1} + 2E.  A determinant
# h_{k+1}^2 - h_k h_{k+2} errs by g of a + b, its two products, plus what the
# levels' E carry through them, at most E (2 h_{k+1} + h_k + h_{k+2} + 2E)
# before two roundings, plus ulp(0) <= E where a or b underflows itself: all
# within 2E (1 + 2 h_{k+1} + h_k + h_{k+2}).  Each slack scales with the
# levels it compares, so a large h_K cannot hide the rise from h_1 to h_2
# that the chain's hypothesis reads.  A level sum, S, a or b that is not
# finite would make a slack that passes every comparison, so each is refused
# with a PrecisionError: by h_all, here, or at the determinant.


def _level_sums(xs: Sequence[Number], kmax: int, w: int = 0) -> tuple[list, float, float]:
    """h_0..h_kmax over weights of w roundings, their relative slack g, and
    2E, a chain step's absolute slack (the note above)."""
    h = h_all(xs, kmax)
    g = _gamma(2 * (len(xs) + (2 + w) * kmax) + 4)
    s = sum(h)  # inf past binary64, where math.fsum raises
    if s == math.inf:
        raise PrecisionError(f"the sum of h_0..h_{kmax} overflows binary64")
    return h, g, 2.0 * (math.ulp(0.0) + math.ulp(0.0) * len(xs) * s)


def schur_check(xs: Sequence[Number], kmax: int) -> tuple[bool, Optional[int]]:
    """Log-concavity of the h-sequence: h_{k+1}^2 - h_k h_{k+2} >= 0 (up to
    its derived rounding slack) for 0 <= k < kmax.

    Returns (ok, first violating k or None).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    _check_weights(xs)
    h, g, tiny = _level_sums(xs, kmax + 1)
    for k in range(kmax):
        a, b = h[k + 1] * h[k + 1], h[k] * h[k + 2]
        slack = g * (a + b) + tiny * (1.0 + 2.0 * h[k + 1] + h[k] + h[k + 2])
        if not math.isfinite(slack):
            raise PrecisionError(f"determinant at k={k} overflows binary64")
        if a - b < -slack:
            return False, k
    return True, None


def chain_check(prime_set: PrimeSet, t: float, kmax: int) -> VerificationReport:
    """If h_1 >= h_2 at p^-t, the whole sequence h_k must be non-increasing.

    Verdict: holds when the hypothesis and the full chain both check out,
    fails if the hypothesis holds but some later step rises (which would
    contradict log-concavity), inconclusive when h_2 > h_1 so no chain is
    claimed.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2: the hypothesis compares h_1 with h_2")
    h, g, tiny = _level_sums(power_weights(prime_set, t), kmax, 2 + math.ceil(t))
    rise = next((k for k in range(1, kmax) if h[k] < h[k + 1] * (1.0 - g) - tiny), None)
    if rise is None:
        verdict, notes = HOLDS, []
    elif rise == 1:
        verdict, notes = INCONCLUSIVE, ["hypothesis h_1 >= h_2 fails; no chain claim"]
    else:
        verdict = FAILS
        notes = [f"chain breaks at k={rise}: h_{rise}={h[rise]} < h_{rise + 1}={h[rise + 1]}"]
    return VerificationReport(
        claim=f"level sums non-increasing from k=1 for t={t}",
        verdict=verdict,
        quantities={"t": t, "h": list(h)},
        notes=notes,
    )


def _scaled_sums(xs: Sequence[float]) -> tuple[int, int, int, int]:
    """(d, d S_1, d^2 S_2, d^2 h_2) over the binary64 weights, d their largest denominator."""
    ratios = [x.as_integer_ratio() for x in xs]
    d = max((den for _, den in ratios), default=1)
    ints = [num * (d // den) for num, den in ratios]
    return d, sum(ints), sum(x * x for x in ints), h_all(ints, 2)[2]


def square_identity_check(prime_set: PrimeSet, t: float) -> ConditionVerdict:
    """(sum p^-t)^2 = 2 h_2(p^-t) - sum p^-2t on the binary64 weights: it
    holds iff the integer residual of ``_scaled_sums`` is 0 (lhs, against rhs 0)."""
    d, s1, s2, h2 = _scaled_sums(power_weights(prime_set, t))
    residual = abs(s1 * s1 - (2 * h2 - s2))
    lhs, rhs = ErrBoundReal.exact(residual / (d * d)), ErrBoundReal.exact(0.0)
    return ConditionVerdict(FAILS if residual else HOLDS, lhs, rhs)


def quadratic_equivalence_check(prime_set: PrimeSet, t: float) -> bool:
    """h_1 >= h_2 iff the weight sum S_1 stays below the upper root
    1 + sqrt(1 - S_2), given that it always sits above the lower root.

    Exact on the binary64 weights, by the integer sums of ``_scaled_sums``;
    the root side is squared: S_1 <= 1 or (S_1 - 1)^2 <= 1 - S_2.  The lower
    root 1 - sqrt(1 - S_2) is at most S_2 for every S_2 in [0, 1), so the
    chain below S_1 needs only S_2 < S_1.
    """
    d, s1, s2, h2 = _scaled_sums(power_weights(prime_set, t))
    if s2 >= d * d:
        raise ValueError("squared-weight sum must stay below 1")
    if not s2 < s1 * d:
        return False
    return (s1 * d >= h2) == (s1 <= d or (s1 - d) ** 2 <= d * d - s2)


def level_sum_check(prime_set: PrimeSet, t: float, k: int) -> str:
    """Whether level k is t-best over all of N_{>=k}(P): HOLDS when h_{k+1}
    <= h_k at the true weights p^-t, FAILS when h_{k+1} > h_k, INCONCLUSIVE
    when the weights' enclosures leave the sign open.

    N(P) under divisibility is the product of one chain per prime, chain p
    weighing p^-at at rank a, and n^-t is the product weight.  By Harper's
    product theorem (L. H. Harper, "The morphology of partially ordered
    sets", JCTA 17 (1974); K. Engel, *Sperner Theory* (1997), ch. 4) such a
    product of chains with log-concave rank weights has the LYM property
    for its rank sums, the level sums h_j: an antichain A of N_{>=k}(P)
    has sum_j w(A_j) / h_j <= 1, so w(A) <= max_{j>=k} h_j.  (h_j) is
    log-concave, a convolution of geometric sequences, so h_{k+1} <= h_k
    makes h_k that maximum, and level k, itself an antichain, is t-best;
    otherwise level k + 1 outweighs it.  For k = 1 this is
    ``quadratic_equivalence_check``'s h_2 <= h_1.

    Exact on the integer bounds of ``power_bounds`` over d, since h_j rises
    in every weight: HOLDS iff h_{k+1}(hi) <= d h_k(lo), FAILS iff
    h_{k+1}(lo) > d h_k(hi).  Both sums go through ``h_all``, so its budget
    holds.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d, lo, hi = power_bounds(prime_set, t)
    low, high = h_all(lo, k + 1), h_all(hi, k + 1)
    if high[k + 1] <= d * low[k]:
        return HOLDS
    if low[k + 1] > d * high[k]:
        return FAILS
    return INCONCLUSIVE


def level_elements(prime_set: PrimeSet, k: int) -> list[int]:
    """All semigroup elements with exactly k prime factors, sorted.

    The count is C(k + m - 1, m - 1); past ``_LEVEL_BUDGET`` the level is
    refused before any product is formed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    m = len(prime_set)
    count = math.comb(k + m - 1, m - 1) if m else int(k == 0)
    if count > _LEVEL_BUDGET:
        raise SizeLimitError(
            f"level {k} of {m} primes has {count} elements, "
            f"past the level budget of {_LEVEL_BUDGET}"
        )
    return sorted(
        math.prod(c) for c in itertools.combinations_with_replacement(prime_set.as_list(), k)
    )


def decomposition_partition_check(prime_set: PrimeSet, ell: int, s: int) -> bool:
    """Partition of the level-ell slice by gcd with a fixed member s.

    For every divisor d of s, the block {n : gcd(n, s) = d} must equal
    d * (level (ell - Omega(d)) of the primes not dividing s/d), as sets of
    integers.  Each n = d m then has n^-t = d^-t m^-t, so the weighted sums
    telescope, sum n^-t = sum_d d^-t h_(ell - Omega(d)), at every t.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    om = omega(s, prime_set)
    if om is None:
        raise ValueError(f"{s} is not in the semigroup of {prime_set}")
    if om != ell:
        raise ValueError(f"Omega({s}) = {om} != ell = {ell}")

    divisor_blocks = gcd_blocks(prime_set, s)
    blocks: dict[int, list[int]] = {d: [] for d, _, _ in divisor_blocks}
    for n in level_elements(prime_set, ell):
        blocks[gcd(n, s)].append(n)
    # every level is sorted, so each block and each d * level is too
    return all(
        blocks[d] == [d * m for m in level_elements(q_d, ell - om_d)]
        for d, q_d, om_d in divisor_blocks
    )


def gcd_blocks(prime_set: PrimeSet, s: int) -> list[tuple[int, PrimeSet, int]]:
    """(d, primes not dividing s/d, Omega(d)) for each divisor d of the
    semigroup member s, ascending in d.

    The block {n : gcd(n, s) = d} of a level-ell slice is d times the
    level-(ell - Omega(d)) slice over the primes not dividing s/d.
    """
    factors: list[tuple[int, int]] = []
    rest = s
    for p in prime_set:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e:
            factors.append((p, e))
    divs = [1]
    for p, e in factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return [
        (d, prime_set.subset(lambda p, c=s // d: c % p != 0), omega(d, prime_set))
        for d in sorted(divs)
    ]
