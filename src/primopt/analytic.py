"""Error-bounded evaluation of zeta, the prime zeta series, and the condition check.

All quantities that are not exact integer arithmetic travel as
:class:`ErrBoundReal` pairs (value, radius).  Radii are propagated
conservatively: monotone maps (sqrt, log) use exact interval images, products
carry the cross term, and every operation adds a 4-ulp rounding pad (for
sqrt and log, ulps of the larger end of the image).  This is
at least as wide as first-order propagation with a x4 safety factor and keeps
enclosures honest at the 1e-6..1e-10 scale this package targets; it is not
directed-rounding interval arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction


import numpy as np

from .errors import PrecisionError
from .primes import PrimeSet

_EPS = sys.float_info.epsilon

# Direct-summation cutoff for zeta; beyond this the truncation radius is
# whatever it is and the caller's tolerance decides whether to accept.
_ZETA_TERM_CAP = 30_000_000
_CHUNK = 1 << 20

# Bisection bracket for the condition-margin root.  Both endpoints
# sign-check numerically; the root is unique in between (located, not proved).
TAU_BRACKET = (1.01, 1.5)


def _pad(value: float) -> float:
    return 4.0 * _EPS * abs(value)


@dataclass(frozen=True)
class ErrBoundReal:
    """A real value with an absolute error radius: the true value lies in
    [value - radius, value + radius]."""

    value: float
    radius: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("radius must be finite and >= 0")

    @classmethod
    def exact(cls, x: float) -> "ErrBoundReal":
        return cls(float(x), 0.0)

    # -- arithmetic combinators ------------------------------------------

    def __add__(self, other) -> "ErrBoundReal":
        other = _coerce(other)
        v = self.value + other.value
        return ErrBoundReal(v, self.radius + other.radius + _pad(v))

    __radd__ = __add__

    def __neg__(self) -> "ErrBoundReal":
        return ErrBoundReal(-self.value, self.radius)

    def __sub__(self, other) -> "ErrBoundReal":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ErrBoundReal":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "ErrBoundReal":
        other = _coerce(other)
        v = self.value * other.value
        r = (
            abs(self.value) * other.radius
            + abs(other.value) * self.radius
            + self.radius * other.radius
            + _pad(v)
        )
        return ErrBoundReal(v, r)

    __rmul__ = __mul__

    def sqrt(self) -> "ErrBoundReal":
        lo = self.value - self.radius
        if lo < 0.0:
            raise PrecisionError(
                "sqrt argument interval reaches below zero "
                f"({self.value} +- {self.radius})"
            )
        slo, shi = math.sqrt(lo), math.sqrt(self.value + self.radius)
        v = 0.5 * (slo + shi)
        return ErrBoundReal(v, 0.5 * (shi - slo) + _pad(shi))

    def log(self) -> "ErrBoundReal":
        lo = self.value - self.radius
        if lo <= 0.0:
            raise PrecisionError(
                "log argument interval reaches zero "
                f"({self.value} +- {self.radius})"
            )
        llo, lhi = math.log(lo), math.log(self.value + self.radius)
        v = 0.5 * (llo + lhi)
        # pad by the larger end: the midpoint of an image straddling 0 is
        # far smaller than the rounding of its ends
        return ErrBoundReal(v, 0.5 * (lhi - llo) + _pad(max(-llo, lhi)))

    # -- interval queries -------------------------------------------------

    def lower(self) -> float:
        return self.value - self.radius

    def upper(self) -> float:
        return self.value + self.radius

    def definitely_le(self, other: "ErrBoundReal") -> bool:
        return self.upper() <= _coerce(other).lower()

    def definitely_gt(self, other: "ErrBoundReal") -> bool:
        return self.lower() > _coerce(other).upper()

    def to_json(self) -> dict:
        return {"value": self.value, "radius": self.radius}


def _coerce(x) -> ErrBoundReal:
    if isinstance(x, ErrBoundReal):
        return x
    return ErrBoundReal.exact(x)


HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConditionVerdict:
    """Three-way comparison of two enclosures: holds / fails / inconclusive."""

    verdict: str
    lhs: ErrBoundReal
    rhs: ErrBoundReal

    @classmethod
    def compare(cls, lhs: ErrBoundReal, rhs: ErrBoundReal) -> "ConditionVerdict":
        if lhs.definitely_le(rhs):
            v = HOLDS
        elif lhs.definitely_gt(rhs):
            v = FAILS
        else:
            v = INCONCLUSIVE
        return cls(v, lhs, rhs)

    def to_json(self) -> dict:
        return jsonable(vars(self))


@dataclass
class VerificationReport:
    """Structured verdict with every intermediate quantity that produced it."""

    claim: str
    verdict: str
    quantities: dict
    notes: list[str]

    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_json(self) -> dict:
        return jsonable(vars(self))


def jsonable(x):
    """Plain-JSON form of a report value: objects with ``to_json`` use it,
    Fractions print exactly, and dicts, lists and tuples are walked."""
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# zeta and the prime zeta series
# ---------------------------------------------------------------------------


def _power_sum(n_terms: int, s: float) -> tuple[float, float]:
    """(sum_{n<=N} n^-s, rounding radius).  Chunked pairwise summation."""
    total = 0.0
    lo = 1
    chunks = 0
    while lo <= n_terms:
        hi = min(lo + _CHUNK, n_terms + 1)
        block = np.arange(lo, hi, dtype=np.float64)
        total += float(np.sum(block ** (-s)))
        chunks += 1
        lo = hi
    # pairwise within chunks, sequential across; a few ulps per level
    rounding = _EPS * total * (math.log2(max(n_terms, 2)) + chunks + 6)
    return total, rounding


def _zeta_sum(s: float, target_radius: float) -> tuple[float, float, int]:
    """(value, radius, N) of zeta(s), s > 1: N direct terms plus the centred
    integral tail, with N chosen for the target radius up to the term cap.

    The tail sum_{n>N} n^-s lies between the integrals from N+1 and from N of
    x^-s, so centering on the bracket gives truncation radius <= N^-s / 2.
    """
    n = max(16, math.ceil(target_radius ** (-1.0 / s)))
    n = min(n, _ZETA_TERM_CAP)
    partial, rounding = _power_sum(n, s)
    tail_hi = n ** (1.0 - s) / (s - 1.0)
    tail_lo = (n + 1.0) ** (1.0 - s) / (s - 1.0)
    return partial + 0.5 * (tail_hi + tail_lo), 0.5 * (tail_hi - tail_lo) + rounding, n


def riemann_zeta(s: float, target_radius: float = 1e-10) -> ErrBoundReal:
    """zeta(s) for s > 1 by direct summation plus the integral tail enclosure."""
    if not (s > 1.0) or not math.isfinite(s):
        raise ValueError("zeta evaluated only for finite s > 1")
    if target_radius <= 0.0:
        raise ValueError("target_radius must be positive")
    value, radius, n = _zeta_sum(s, target_radius)
    radius = radius + _pad(value)
    if radius > target_radius:
        raise PrecisionError(
            f"zeta({s}) radius {radius:.3e} exceeds target {target_radius:.3e} "
            f"at the {n}-term cutoff"
        )
    return ErrBoundReal(value, radius)


def _mobius(m: int) -> int:
    if m == 1:
        return 1
    mu = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    if m > 1:
        mu = -mu
    return mu


def prime_zeta(t: float, target_radius: float = 1e-10) -> ErrBoundReal:
    """P(t) = sum over primes of p^-t, via sum_m mu(m)/m * log zeta(t*m).

    The series is truncated at M with tail radius 2*2^(-tM)/M, valid once
    t*M >= 2 (log zeta(s) <= 2*2^-s there).  Half the budget goes to the
    tail, the rest is split across the zeta evaluations; each evaluation's
    own target exploits zeta(s) >= max(1, 1/(s-1)) since the log divides
    the zeta radius by the zeta value.
    """
    if not (t > 1.0) or not math.isfinite(t):
        raise ValueError("prime zeta evaluated only for finite t > 1")
    if target_radius <= 0.0:
        raise ValueError("target_radius must be positive")

    m_trunc = max(1, math.ceil(2.0 / t))
    while 2.0 * 2.0 ** (-t * m_trunc) / m_trunc >= target_radius / 2.0:
        m_trunc += 1
        if m_trunc > 512:
            raise PrecisionError("prime zeta truncation did not converge")
    tail = 2.0 * 2.0 ** (-t * m_trunc) / m_trunc

    terms = [m for m in range(1, m_trunc + 1) if _mobius(m) != 0]
    budget_each = target_radius / (2.0 * len(terms))

    total = ErrBoundReal.exact(0.0)
    for m in terms:
        s = t * m
        zeta_floor = max(1.0, 1.0 / (s - 1.0))
        z_value, z_radius, _ = _zeta_sum(s, budget_each * m * zeta_floor)
        z = ErrBoundReal(z_value, z_radius)
        total = total + z.log() * (_mobius(m) / m)

    result = ErrBoundReal(total.value, total.radius + tail + _pad(total.value))
    if result.radius > target_radius:
        raise PrecisionError(
            f"prime zeta({t}) radius {result.radius:.3e} exceeds target "
            f"{target_radius:.3e}"
        )
    return result


def sum_with_rounding(terms: np.ndarray) -> ErrBoundReal:
    """numpy (pairwise) sum of a float array, with a rounding-only radius."""
    value = float(np.sum(terms))
    rounding = _EPS * abs(value) * (math.log2(max(terms.size, 2)) + 8)
    return ErrBoundReal(value, rounding)


def sigma_t(prime_set: PrimeSet, t: float) -> ErrBoundReal:
    """Exact finite sum of p^-t over the set, with a rounding-only radius."""
    return sum_with_rounding(prime_set.as_array().astype(np.float64) ** (-t))


# ---------------------------------------------------------------------------
# the optimality condition
# ---------------------------------------------------------------------------


def condition_rhs_from_square_sum(square_sum: ErrBoundReal) -> ErrBoundReal:
    """1 + sqrt(1 - S) for an enclosure S of the squared-weight sum."""
    if square_sum.upper() >= 1.0:
        raise PrecisionError(
            "squared-weight sum interval reaches 1; condition right-hand side "
            "is not certifiable"
        )
    return ErrBoundReal.exact(1.0) + (ErrBoundReal.exact(1.0) - square_sum).sqrt()


def condition_rhs(prime_set: PrimeSet, t: float = 1.0) -> ErrBoundReal:
    """1 + sqrt(1 - sum p^-2t) over the finite set."""
    return condition_rhs_from_square_sum(sigma_t(prime_set, 2.0 * t))


def check_condition(prime_set: PrimeSet, t: float = 1.0) -> ConditionVerdict:
    """Is sum p^-t <= 1 + sqrt(1 - sum p^-2t) for this finite set?

    t = 1 is the reciprocal-weight condition; t > 1 the power-weight one.
    """
    if not (t >= 1.0) or not math.isfinite(t):
        raise ValueError("condition is checked for finite t >= 1")
    return ConditionVerdict.compare(sigma_t(prime_set, t), condition_rhs(prime_set, t))


def check_condition_allprimes(t: float, target_radius: float = 1e-8) -> ConditionVerdict:
    """The condition for the full set of primes: P(t) vs 1 + sqrt(1 - P(2t))."""
    if not (t > 1.0) or not math.isfinite(t):
        raise ValueError("all-primes condition needs a finite t > 1")
    lhs = prime_zeta(t, target_radius)
    rhs = condition_rhs_from_square_sum(prime_zeta(2.0 * t, target_radius))
    return ConditionVerdict.compare(lhs, rhs)


def condition_margin(t: float, target_radius: float = 1e-8) -> ErrBoundReal:
    """Margin 1 + sqrt(1 - P(2t)) - P(t); positive iff the all-primes
    condition holds at t.  Its unique sign change on (1, 1.5] is the
    threshold below which the condition fails for the full prime set."""
    sides = check_condition_allprimes(t, target_radius)
    return sides.rhs - sides.lhs


def tau_root(target_radius: float = 1e-6) -> ErrBoundReal:
    """Threshold tau: the zero of the condition margin, by bisection.

    The bracket endpoints must sign-certify (margin < 0 at the left end,
    > 0 at the right end); each midpoint evaluation is refined until its
    sign is determined, so the returned bracket is a true enclosure and
    the radius is its half-width.
    """
    if target_radius <= 0.0:
        raise ValueError("target_radius must be positive")
    a, b = TAU_BRACKET

    def signed(t: float, width: float) -> int:
        eval_radius = max(3e-9, min(1e-6, width / 64.0))
        for _ in range(4):
            g = condition_margin(t, eval_radius)
            if g.upper() < 0.0:
                return -1
            if g.lower() > 0.0:
                return 1
            if eval_radius <= 3e-9:
                break
            eval_radius = max(3e-9, eval_radius / 16.0)
        raise PrecisionError(
            f"condition margin sign at t={t} undetermined at working precision"
        )

    if signed(a, 1e-4) >= 0 or signed(b, 1e-4) <= 0:
        raise PrecisionError("bisection bracket endpoints do not sign-check")

    while 0.5 * (b - a) > target_radius:
        mid = 0.5 * (a + b)
        if signed(mid, b - a) < 0:
            a = mid
        else:
            b = mid
    return ErrBoundReal(0.5 * (a + b), 0.5 * (b - a))
