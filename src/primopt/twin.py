"""Twin-prime sums, Brun-constant arithmetic, and the twin-prime condition chains.

The Brun constant here is always an asserted input, never a computed total:
partial sums converge far too slowly to certify anything, and the package
keeps the distinction between the proven bound (2.347) and the believed
value (1.90216...) explicit via the input's source label.  Pair convention
follows the displayed expansion (1/3+1/5) + (1/5+1/7) + (1/11+1/13) + ...,
so the sum over all twin primes including 3 is B - 1/5 (the prime 5 sits in
two pairs) and the sum over twins exceeding 3 is B - 1/3 - 1/5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    HOLDS,
    FAILS,
    ConditionVerdict,
    ErrBoundReal,
    VerificationReport,
    condition_rhs_from_square_sum,
    sum_with_rounding,
)
from .primes import twin_pair_lower_members, twin_primes

# Proven unconditional upper bound on the Brun constant; anything smaller
# is conditional on unproven estimates.
PROVEN_BRUN_BOUND = 2.347


@dataclass(frozen=True)
class BrunInput:
    """An asserted upper bound on the Brun constant, with its provenance."""

    upper_bound_B: float
    source_label: str = "unspecified"

    def __post_init__(self):
        if not (1.9 < self.upper_bound_B < math.inf):
            raise ValueError(
                "Brun bound must be finite and exceed 1.9 (partial sums already pass that)"
            )

    def is_conditional(self) -> bool:
        return self.upper_bound_B < PROVEN_BRUN_BOUND


def _conditional_notes(brun: BrunInput) -> list[str]:
    if not brun.is_conditional():
        return []
    return [f"conditional on believed B<{brun.upper_bound_B} ({brun.source_label})"]


def brun_partial(limit: int) -> ErrBoundReal:
    """Partial Brun sum over twin pairs (p, p+2) with p <= limit."""
    if limit < 5:
        raise ValueError("limit must be >= 5")
    lower = twin_pair_lower_members(limit).astype(np.float64)
    return sum_with_rounding(np.concatenate([1.0 / lower, 1.0 / (lower + 2.0)]))


def twin_reciprocal_bound(brun: BrunInput) -> ErrBoundReal:
    """Upper bound on the reciprocal sum over twins exceeding 3: B - 1/3 - 1/5."""
    return ErrBoundReal.exact(brun.upper_bound_B) - ErrBoundReal.exact(1.0 / 3.0) - ErrBoundReal.exact(0.2)


def six_n_square_tail(limit: int) -> float:
    """Telescoping bound for the squared reciprocals of all integers 6n+-1
    beyond the limit: full pairs from the first n with 6n-1 > limit give
    (1/9) / (2n-1), plus the stray upper member of the preceding pair when
    it alone exceeds the limit.  At limit < 5 this is exactly 1/9."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    n0 = (limit + 1) // 6 + 1
    tail = (1.0 / 9.0) / (2 * n0 - 1)
    if n0 >= 2:
        stray = 6 * (n0 - 1) + 1
        if stray > limit:
            tail += 1.0 / (stray * stray)
    return tail


def twin_square_bound(limit: int, include_three: bool = False) -> ErrBoundReal:
    """Enclosure of the squared-reciprocal sum over twins exceeding 3, or over
    the full twin set with include_three: exact partial sum up to the limit,
    plus the 6n+-1 telescoping tail.  Without 3 its upper edge is a rigorous
    bound and stays below 1/9."""
    if limit < 5:
        raise ValueError("limit must be >= 5")
    twins = twin_primes(limit, include_three=include_three).as_array().astype(np.float64)
    partial = sum_with_rounding(1.0 / (twins * twins))
    tail = six_n_square_tail(limit)
    return partial + ErrBoundReal(0.5 * tail, 0.5 * tail)


def corollary_check(brun: BrunInput, limit: int = 10**6) -> VerificationReport:
    """The full numeric chain certifying the twins-exceeding-3 condition:

        B - 1/3 - 1/5 < 1.814 < 1.9428 < 1 + sqrt(1 - 1/9),

    together with the computed squared sum staying below 1/9.
    """
    reciprocal = twin_reciprocal_bound(brun)
    square = twin_square_bound(limit)
    one_ninth = ErrBoundReal.exact(1.0 / 9.0)

    links = {
        "reciprocal_below_1.814": ConditionVerdict.compare(
            reciprocal, ErrBoundReal.exact(1.814)
        ),
        "1.814_below_1.9428": ConditionVerdict.compare(
            ErrBoundReal.exact(1.814), ErrBoundReal.exact(1.9428)
        ),
        "1.9428_below_rhs_at_1/9": ConditionVerdict.compare(
            ErrBoundReal.exact(1.9428),
            condition_rhs_from_square_sum(one_ninth),
        ),
        "square_sum_below_1/9": ConditionVerdict.compare(square, one_ninth),
    }
    verdict = HOLDS if all(v.verdict == HOLDS for v in links.values()) else FAILS

    notes = _conditional_notes(brun)
    failing = [name for name, v in links.items() if v.verdict != HOLDS]
    if failing:
        notes.append("failing links: " + ", ".join(failing))

    return VerificationReport(
        claim="twins exceeding 3 satisfy the reciprocal-weight condition",
        verdict=verdict,
        quantities={
            "brun_bound": brun.upper_bound_B,
            "brun_source": brun.source_label,
            "limit": limit,
            "reciprocal_bound": reciprocal,
            "square_bound": square,
            "links": links,
        },
        notes=notes,
    )


# Published bracket for the squared sum over all twin primes including 3;
# the computed enclosure is checked for consistency against it, not
# reproduced digit-for-digit.
FULL_TWIN_SQUARE_BRACKET = (0.19725177, 0.19725181)


def full_twin_check(brun: BrunInput, limit: int = 10**8) -> VerificationReport:
    """Condition check for the full twin set including 3.

    The reciprocal sum over that set is B - 1/5 (5 is counted twice in B),
    so the condition reads B - 1/5 <= 1 + sqrt(1 - S) with S the squared
    sum; holds exactly when B stays below 1.2 + sqrt(1 - S) ~ 2.09596...
    S does not depend on B: it is computed once per limit, by
    ``twin_square_bound(limit, include_three=True)``, and a caller judging
    several Brun bounds at one limit passes it to :func:`full_twin_verdict`.
    """
    return full_twin_verdict(brun, limit, twin_square_bound(limit, include_three=True))


def full_twin_verdict(brun: BrunInput, limit: int, square: ErrBoundReal) -> VerificationReport:
    """The full-twin condition for one Brun bound, against the enclosure
    ``square`` of S over the twins up to limit, including 3."""
    lhs = ErrBoundReal.exact(brun.upper_bound_B) - ErrBoundReal.exact(0.2)
    rhs = condition_rhs_from_square_sum(square)
    comparison = ConditionVerdict.compare(lhs, rhs)

    notes = _conditional_notes(brun)
    lo, hi = square.lower(), square.upper()
    if hi < FULL_TWIN_SQUARE_BRACKET[0] or lo > FULL_TWIN_SQUARE_BRACKET[1]:
        notes.append(
            "computed square-sum enclosure is inconsistent with the published "
            f"bracket {FULL_TWIN_SQUARE_BRACKET}"
        )
    else:
        notes.append(
            "computed square-sum enclosure consistent with the published bracket"
        )

    return VerificationReport(
        claim="all twin primes (including 3) satisfy the reciprocal-weight condition",
        verdict=comparison.verdict,
        quantities={
            "brun_bound": brun.upper_bound_B,
            "brun_source": brun.source_label,
            "limit": limit,
            "square_bound": square,
            "critical_brun_threshold": 1.2 + math.sqrt(1.0 - square.upper()),
            "comparison": comparison,
        },
        notes=notes,
    )
