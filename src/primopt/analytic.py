"""Error-bounded evaluation of zeta, the prime zeta series, and the condition check.

All quantities that are not exact integer arithmetic travel as
:class:`ErrBoundReal` pairs (value, radius).  Radii are propagated
conservatively: monotone maps (sqrt, log) use exact interval images, products
carry the cross term, and every operation adds a rounding pad of 4 ulps of the
larger of its result and its radius (for sqrt and log, of the larger end of
the image) plus the smallest subnormal.  This is at least as wide as
first-order propagation with a x4 safety factor; it is not directed-rounding
interval arithmetic.

zeta(s) is one fixed-cost Euler-Maclaurin sum, exact to binary64 rounding for
every real s > 1, so P(t) budgets only its Moebius truncation, and the
bisection for tau evaluates the condition margin once per step at the
coarsest radius that can settle its sign, once more at 1e-12 only when that
leaves it open.  P(t) carries its Moebius terms as bare (value, radius) float
pairs under the ErrBoundReal rules: ``_log_pair`` and ``_mul_pair`` are the
one copy of the log and product rules, which ``ErrBoundReal.log`` and ``*``
also call, so each term has the bits it would have as an ErrBoundReal, and
only the sum is made one.  The all-primes condition sums P(t) and P(2t) from
one table of log zeta pairs, since 2t * m is t * 2m in floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

import numpy as np

from .errors import PrecisionError
from .primes import PrimeSet

_EPS = sys.float_info.epsilon

# Euler-Maclaurin cut for zeta, and B_2k / (2k)! for k = 1..11: the first ten
# are the corrections, the eleventh bounds the remainder.
_EM_CUT = 16
_B2K = "1/6 -1/30 1/42 -1/30 5/66 -691/2730 7/6 -3617/510 43867/798 -174611/330 854513/138"
_EM_COEFFS = tuple(
    float(Fraction(b) / math.factorial(2 * k)) for k, b in enumerate(_B2K.split(), 1)
)
# the float bases 1..N-1 of the direct sum, and (B_2k/(2k)!, 2k) per correction
_EM_BASES = tuple(float(k) for k in range(1, _EM_CUT))
_EM_STEPS = tuple((coeff, float(2 * k)) for k, coeff in enumerate(_EM_COEFFS[:-1], 1))

# The most Moebius terms P(t) sums, and mu(m) for m <= that, by a sieve.
_MOEBIUS_CAP = 512


def _moebius_table(n: int) -> tuple[int, ...]:
    mu = [1] * (n + 1)
    mu[0] = 0
    sieved = bytearray(n + 1)
    for p in range(2, n + 1):
        if sieved[p]:
            continue
        for k in range(p, n + 1, p):
            sieved[k] = 1
            mu[k] = -mu[k]
        for k in range(p * p, n + 1, p * p):
            mu[k] = 0
    return tuple(mu)


_MOEBIUS = _moebius_table(_MOEBIUS_CAP)

# Bisection bracket for the condition-margin root.  Both endpoints
# sign-check numerically; the root is unique in between (located, not proved).
TAU_BRACKET = (1.01, 1.5)


def _pad(value: float) -> float:
    return 4.0 * _EPS * abs(value) + math.ulp(0.0)


def _gamma(n: int) -> float:
    """n u / (1 - n u), u = 2^-53: a product of n factors 1 + d, |d| <= u,
    lies within 1 +- gamma(n), and gamma(i) + gamma(j) <= gamma(i + j)."""
    return n * 0.5 * _EPS / (1.0 - n * 0.5 * _EPS)


def _log_pair(value: float, radius: float) -> tuple[float, float]:
    """(value, radius) of the log of the enclosure (value, radius)."""
    lo = value - radius
    if lo <= 0.0:
        raise PrecisionError(
            "log argument interval reaches zero "
            f"({value} +- {radius})"
        )
    llo, lhi = math.log(lo), math.log(value + radius)
    v = 0.5 * (llo + lhi)
    # pad by the larger end: the midpoint of an image straddling 0 is
    # far smaller than the rounding of its ends
    return v, 0.5 * (lhi - llo) + _pad(max(-llo, lhi))


def _mul_pair(av: float, ar: float, bv: float, br: float) -> tuple[float, float]:
    """(value, radius) of the product of the enclosures (av, ar) and (bv, br)."""
    v = av * bv
    r = abs(av) * br + abs(bv) * ar + ar * br
    return v, r + _pad(max(abs(v), r))


def _check_radius(target_radius: float) -> None:
    if not (target_radius > 0.0) or not math.isfinite(target_radius):
        raise ValueError("target_radius must be finite and > 0")


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
        r = self.radius + other.radius
        return ErrBoundReal(v, r + _pad(max(abs(v), r)))

    __radd__ = __add__

    def __neg__(self) -> "ErrBoundReal":
        return ErrBoundReal(-self.value, self.radius)

    def __sub__(self, other) -> "ErrBoundReal":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ErrBoundReal":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "ErrBoundReal":
        other = _coerce(other)
        return ErrBoundReal(*_mul_pair(self.value, self.radius, other.value, other.radius))

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
        return ErrBoundReal(*_log_pair(self.value, self.radius))

    # -- interval queries -------------------------------------------------

    def lower(self) -> float:
        return self.value - self.radius

    def upper(self) -> float:
        return self.value + self.radius

    def definitely_le(self, other: "ErrBoundReal") -> bool:
        return self.upper() <= _coerce(other).lower()

    def definitely_gt(self, other: "ErrBoundReal") -> bool:
        return self.lower() > _coerce(other).upper()


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


@dataclass
class VerificationReport:
    """Structured verdict with every intermediate quantity that produced it."""

    claim: str
    verdict: str
    quantities: dict
    notes: list[str]

    def holds(self) -> bool:
        return self.verdict == HOLDS


# The most members a JSON report lists.
MEMBERS_SHOWN = 1000


def jsonable(x):
    """Plain-JSON form of a report value: objects with ``to_json`` use it,
    dataclass instances become their fields in declaration order, Fractions
    print exactly, and dicts, lists and tuples are walked."""
    if hasattr(x, "to_json"):
        return x.to_json()
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: jsonable(getattr(x, f.name)) for f in fields(x)}
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


def _zeta_sum(s: float) -> tuple[float, float]:
    """(value, radius) of zeta(s), s > 1, by Euler-Maclaurin summation at N = 16:

        zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
                  + sum_{k=1..10} B_2k/(2k)! (s)_(2k-1) N^(1-s-2k) + R,

    (s)_j being the rising factorial.  For real s > 1 every even derivative of
    x^-s is positive (x^-s is completely monotone), so R has the sign of the
    first omitted correction, k = 11, and is no larger (Olver, Asymptotics and
    Special Functions, ch. 8 sec. 3; Johansson, Numer. Algorithms 69 (2015),
    Thm. 1 bounds the complex case).  That term is at most 1.3e-24 for s > 1.

    Rounding: each of the 17 leading pieces is within 3 ulps (pow, and for the
    tail s - 1 and one division; for s > 2 the rounded exponent 1 - s adds
    under 0.1 ulp of the value), the corrections total under 1e-3 of the
    value, and fsum rounds once, so 4 ulps of the value cover it.
    """
    n = _EM_CUT
    neg_s = -s
    pieces = [k ** neg_s for k in _EM_BASES]
    pieces += [n ** (1.0 - s) / (s - 1.0), 0.5 * n ** neg_s]
    rising = s * n ** (neg_s - 1.0)  # (s)_(2k-1) N^(1-s-2k) at k = 1
    for coeff, two_k in _EM_STEPS:
        pieces.append(coeff * rising)
        s_2k = s + two_k
        rising = rising * (s_2k - 1.0) / n * s_2k / n
    value = math.fsum(pieces)
    return value, abs(_EM_COEFFS[-1]) * rising + _pad(value)


def riemann_zeta(s: float, target_radius: float = 1e-10) -> ErrBoundReal:
    """zeta(s) for s > 1 from the Euler-Maclaurin kernel ``_zeta_sum``.

    The radius is truncation below 1e-23 plus about 4 ulps of zeta(s), so
    PrecisionError is raised only when rounding alone exceeds the target,
    e.g. zeta(1.01) ~ 100.6 at 1e-14.
    """
    if not (s > 1.0) or not math.isfinite(s):
        raise ValueError("zeta evaluated only for finite s > 1")
    _check_radius(target_radius)
    result = ErrBoundReal(*_zeta_sum(s))
    if result.radius > target_radius:
        raise PrecisionError(
            f"zeta({s}) radius {result.radius:.3e} exceeds target {target_radius:.3e}"
        )
    return result


def prime_zeta(t: float, target_radius: float = 1e-10) -> ErrBoundReal:
    """P(t) = sum over primes of p^-t, via sum_m mu(m)/m * log zeta(t*m).

    The series is truncated at the least M with t*M >= 2 whose tail radius
    2*2^(-tM)/M is below half the target (log zeta(s) <= 2*2^-s once s >= 2).
    Every zeta is exact to binary64 rounding (see ``_zeta_sum``), so the
    other half of the target only has to cover rounding.

    Each term is a bare (value, radius) pair under ErrBoundReal's log and
    product rules (``_log_pair``, ``_mul_pair``), bit for bit
    ErrBoundReal(zeta).log() * (mu/m); only the sum becomes an ErrBoundReal,
    whose check catches a term that was not finite.
    """
    if not (t > 1.0) or not math.isfinite(t):
        raise ValueError("prime zeta evaluated only for finite t > 1")
    _check_radius(target_radius)
    return _prime_zeta_sum(t, target_radius, {})


def _prime_zeta_sum(
    t: float, target_radius: float, log_zetas: dict[float, tuple[float, float]]
) -> ErrBoundReal:
    """``prime_zeta``'s series for checked arguments.  log_zetas maps s to
    the pair ``_log_pair(*_zeta_sum(s))``; the sum reads the pairs it holds
    and adds those it computes, so sums that share it share their terms."""
    m_trunc = max(1, math.ceil(2.0 / t))
    while 2.0 * 2.0 ** (-t * m_trunc) / m_trunc >= target_radius / 2.0:
        m_trunc += 1
        if m_trunc > _MOEBIUS_CAP:
            raise PrecisionError("prime zeta truncation did not converge")
    tail = 2.0 * 2.0 ** (-t * m_trunc) / m_trunc

    values, radii = [], []
    for m in range(1, m_trunc + 1):
        mu = _MOEBIUS[m]
        if mu:
            s = t * m
            log_zeta = log_zetas.get(s)
            if log_zeta is None:
                log_zeta = log_zetas[s] = _log_pair(*_zeta_sum(s))
            v, r = _mul_pair(*log_zeta, mu / m, 0.0)
            values.append(v)
            radii.append(r)
    # fsum rounds each sum once, so one pad per sum covers it
    value = math.fsum(values)
    radius = math.fsum(radii) + tail
    result = ErrBoundReal(value, radius + _pad(value) + _pad(radius))
    if result.radius > target_radius:
        raise PrecisionError(
            f"prime zeta({t}) radius {result.radius:.3e} exceeds target "
            f"{target_radius:.3e}"
        )
    return result


def sum_with_rounding(terms: np.ndarray) -> ErrBoundReal:
    """numpy (pairwise) sum of a float array, with a rounding-only radius.

    Relative rounding misses terms that underflowed to 0 or to a subnormal,
    so each term also adds one ulp of 0.0 to the radius.
    """
    value = float(np.sum(terms))
    rounding = _EPS * abs(value) * (math.log2(max(terms.size, 2)) + 8)
    return ErrBoundReal(value, rounding + terms.size * math.ulp(0.0))


def sigma_t(prime_set: PrimeSet, t: float) -> ErrBoundReal:
    """Exact finite sum of p^-t over the set, with a rounding-only radius.

    Each p^-t is float(p) ** -t by libm's pow (np.float_power, as
    ``symfunc.power_weights``), not np.power, whose SIMD kernel can differ
    from it in the last bit.  A term that underflows is 0.
    """
    return sum_with_rounding(np.float_power(prime_set.as_array().astype(np.float64), -t))


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
    """The condition for the full set of primes: P(t) vs 1 + sqrt(1 - P(2t)).

    Both sides are ``prime_zeta``'s enclosures, bit for bit, summed from one
    table of log zeta pairs: doubling is exact, so P(2t)'s term at m needs
    zeta at the same float s = (2t) * m = t * (2m) as P(t)'s term at 2m,
    and that zeta is summed once.
    """
    if not (t > 1.0) or not math.isfinite(t):
        raise ValueError("all-primes condition needs a finite t > 1")
    _check_radius(target_radius)
    log_zetas: dict[float, tuple[float, float]] = {}
    lhs = _prime_zeta_sum(t, target_radius, log_zetas)
    two_t = 2.0 * t
    if math.isfinite(two_t):
        square_sum = _prime_zeta_sum(two_t, target_radius, log_zetas)
    else:
        # P(s) <= 2 * 2^-s for s >= 2 (the tail bound of prime_zeta), far
        # below the least subnormal once s overflows
        square_sum = ErrBoundReal(0.0, math.ulp(0.0))
    rhs = condition_rhs_from_square_sum(square_sum)
    return ConditionVerdict.compare(lhs, rhs)


def condition_margin(t: float, target_radius: float = 1e-8) -> ErrBoundReal:
    """Margin 1 + sqrt(1 - P(2t)) - P(t); positive iff the all-primes
    condition holds at t.  Its unique sign change on (1, 1.5] is the
    threshold below which the condition fails for the full prime set."""
    sides = check_condition_allprimes(t, target_radius)
    return sides.rhs - sides.lhs


def tau_root(target_radius: float = 1e-6) -> ErrBoundReal:
    """Threshold tau: the zero of the condition margin, by bisection.

    Each bracket end and midpoint gets its margin at radius r = 1/16 of the
    current bracket width, clipped to [1e-12, 1e-3], which settles the sign
    of all but points very near tau, and once more at 1e-12 if r leaves the
    sign open.  The ends must sign-certify (margin < 0 at the left end, > 0
    at the right end) and a point whose sign 1e-12 leaves open raises
    PrecisionError, so the returned bracket is a true enclosure and the
    radius is its half-width.  A certified sign is the true sign, so the
    radius of a step changes neither the path nor the bracket.  The margin
    rises with slope about 6.5 through tau, so only targets near or below
    1e-12 can meet an open sign.
    """
    _check_radius(target_radius)
    a, b = TAU_BRACKET

    def sign_at(t: float, radius: float) -> int:
        g = condition_margin(t, radius)
        if g.upper() < 0.0:
            return -1
        if g.lower() > 0.0:
            return 1
        return 0

    def signed(t: float) -> int:
        radius = min(max((b - a) / 16.0, 1e-12), 1e-3)
        sign = sign_at(t, radius)
        if not sign and radius > 1e-12:
            sign = sign_at(t, 1e-12)
        if not sign:
            raise PrecisionError(f"condition margin sign at t={t} undetermined")
        return sign

    if signed(a) >= 0 or signed(b) <= 0:
        raise PrecisionError("bisection bracket endpoints do not sign-check")

    while 0.5 * (b - a) > target_radius:
        mid = 0.5 * (a + b)
        if signed(mid) < 0:
            a = mid
        else:
            b = mid
    return ErrBoundReal(0.5 * (a + b), 0.5 * (b - a))
