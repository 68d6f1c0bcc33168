"""Reciprocal-log weights 1/(n log n) and their integral bridge to power weights.

``erdos_weights`` is the one kernel for the weight, in the form of its
input and with the same bits in either; ``erdos_sum`` sums it, and the
oracle's ``verify_erdos_best`` certifies under it.

For a finite set, the reciprocal-log sum equals the integral over t in
(1, inf) of the power-weight sum: each term integrates to n^-1/log n.  The
bridge check integrates numerically (adaptive Simpson on (1, 50], exact
geometric tail beyond) and compares against the direct sum, which is what
lets power-weight dominance transfer to reciprocal-log dominance.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .analytic import ConditionVerdict, ErrBoundReal
from .errors import PrecisionError

_SPLIT_POINT = 50.0
_MAX_DEPTH = 40


def erdos_weights(values: Union[Sequence[int], np.ndarray]):
    """The weights 1/(n log n) of integers >= 2, in their order: a float64
    column for an int64 column, else a list of Python floats.

    Both forms compute 1.0 / (x * math.log(x)) with x = float(n).  An int64
    column is cast to float64, which rounds each value as int * float and
    ``math.log`` do; its logs come from ``math.log`` one by one, and numpy's
    float64 multiply and divide round as Python's do, so the column has the
    list's bits.  np.log stays out: numpy 2.4's SIMD log differed from
    ``math.log`` in 81 of 2 * 10^6 values, and would change reported optima
    in their last bits.
    """
    if isinstance(values, np.ndarray):
        col = values.astype(np.float64)
        logs = np.fromiter(map(math.log, col.tolist()), np.float64, len(col))
        return 1.0 / (col * logs)
    return [1.0 / (n * math.log(n)) for n in values]


def erdos_sum(members: Sequence[int]) -> float:
    """Sum of 1/(n log n) over a finite set of integers >= 2."""
    values = sorted(set(int(n) for n in members))
    if not values:
        raise ValueError("sum is defined for nonempty sets")
    if values[0] < 2:
        raise ValueError("weights 1/(n log n) need every element >= 2")
    return math.fsum(erdos_weights(values))


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth >= _MAX_DEPTH:
            raise PrecisionError("adaptive quadrature did not converge")
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(a, m, fa, flm, fm, left, tol / 2.0, depth + 1) + rec(
            m, b, fm, frm, fb, right, tol / 2.0, depth + 1
        )

    return rec(a, b, fa, fm, fb, whole, tol, 0)


def integral_bridge_check(
    members: Sequence[int], quad_tolerance: float = 1e-6
) -> ConditionVerdict:
    """The residual between the integral of the power-weight sum over (1, inf)
    and the direct reciprocal-log sum, against the quadrature tolerance.

    The integral splits at t = 50: adaptive Simpson below, and the exact
    per-term value n^-50 / log n above (the integrand decays geometrically).
    """
    if not (quad_tolerance > 0.0) or not math.isfinite(quad_tolerance):
        raise ValueError("quad_tolerance must be a finite number > 0")
    values = sorted(set(int(n) for n in members))
    if not values or values[0] < 2:
        raise ValueError("bridge check needs a nonempty set of integers >= 2")
    floats = [float(n) for n in values]

    def power_sum(t: float) -> float:
        return math.fsum(x ** (-t) for x in floats)

    integral = _adaptive_simpson(power_sum, 1.0, _SPLIT_POINT, quad_tolerance / 4.0)
    tail = math.fsum(x ** (-_SPLIT_POINT) / math.log(x) for x in floats)
    residual = ErrBoundReal.exact(abs(integral + tail - erdos_sum(values)))
    return ConditionVerdict.compare(residual, ErrBoundReal.exact(quad_tolerance))
