"""Reciprocal-log weights 1/(n log n) and their integral bridge to power weights.

``erdos_weights`` is the one kernel for the weight, in the form of its
input and with the same bits in either; ``erdos_sum`` encloses its sum,
and the oracle's ``verify_erdos_best`` certifies under it.

For a finite set, the reciprocal-log sum equals the integral over t in
(1, inf) of the power-weight sum: each term integrates to n^-1/log n.  The
bridge check encloses that integral (midpoint and trapezoid sums on a fixed
grid over [1, 50], which bound it from both sides because the power-weight
sum is convex in t, and the exact tail beyond) and compares the enclosure
against the direct sum, which is what lets power-weight dominance transfer
to reciprocal-log dominance.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .analytic import ConditionVerdict, ErrBoundReal, _gamma, _pad

_SPLIT_POINT = 50.0

# Cells of the bridge's grid t = 1 + 49 s^3 over s = 0, 1/N, ..., 1, dense
# near t = 1, where the power-weight sum curves most.  At 4,096 cells the
# enclosure's radius was 3.0e-7, 5.7e-7 and 2.4e-7 on {2}, {2, 3, 5} and
# {4, 6, 9}, and a bridge cost about 0.2 ms per member (0.11 s for 500; 2
# vCPUs, raw).
_CELLS = 4096


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


def _members(members: Sequence[int]) -> list[int]:
    """The distinct members, ascending; refused unless nonempty and >= 2."""
    values = sorted(set(int(n) for n in members))
    if not values or values[0] < 2:
        raise ValueError("weights 1/(n log n) need a nonempty set of integers >= 2")
    return values


def erdos_sum(members: Sequence[int]) -> ErrBoundReal:
    """An enclosure of the sum of 1/(n log n) over a finite set of integers
    >= 2.  A term carries 6 roundings (cast, log, product, divide) and the
    fsum one more, within ``_pad``'s 8 u."""
    direct = math.fsum(erdos_weights(_members(members)))
    return ErrBoundReal(direct, _pad(direct))


def _bridge_integral(xs: list[float]) -> ErrBoundReal:
    """An enclosure of the integral of f(t) = sum x^-t over t in (1, inf).

    f is convex, so on each cell of the grid the midpoint rule bounds its
    integral from below and the trapezoid rule from above; beyond t = 50 the
    tail is exactly sum x^-50 / log x.  Roundings, counted as in ``symfunc``:
    a node value is M terms of 52 (pow, and the cast at t <= 50) summed by
    M - 1 adds, a cell 2 more, the cells N - 1; a tail term 57 (log 4,
    divide 1), the fsum 1.  A midpoint is off by 2^-48 at most, which moves
    f by |f'| <= log(max x) f times that; an underflowed term errs by ulp(0).
    """
    ends = 1.0 + (_SPLIT_POINT - 1.0) * (np.arange(_CELLS + 1) / _CELLS) ** 3
    nodes = np.concatenate([ends, 0.5 * (ends[:-1] + ends[1:])])
    f = np.zeros_like(nodes)
    for x in xs:  # one member at a time: memory stays O(cells)
        f += np.float_power(x, -nodes)
    widths = np.diff(ends)  # exact: neighbouring nodes are within a factor 2
    lower = float(np.sum(widths * f[_CELLS + 1 :]))
    upper = 0.5 * float(np.sum(widths * (f[:_CELLS] + f[1 : _CELLS + 1])))
    rel = _gamma(len(xs) + _CELLS + 52) + math.log(max(xs)) * 2.0**-48
    mid = 0.5 * (lower + upper)
    radius = 0.5 * (upper - lower) + rel * upper + math.ulp(0.0) * (50 * len(xs) + _CELLS)
    tail = math.fsum(x ** (-_SPLIT_POINT) / math.log(x) for x in xs)
    return ErrBoundReal(mid, radius + _pad(max(mid, radius))) + ErrBoundReal(
        tail, _gamma(58) * tail + len(xs) * math.ulp(0.0)
    )


def integral_bridge_check(members: Sequence[int]) -> ConditionVerdict:
    """The enclosed integral of the power-weight sum over (1, inf) against
    the direct reciprocal-log sum: lhs is |integral - erdos_sum|, rhs the
    radius of that difference, so it holds iff the two enclosures meet."""
    values = _members(members)
    difference = _bridge_integral([float(n) for n in values]) - erdos_sum(values)
    return ConditionVerdict.compare(
        ErrBoundReal.exact(abs(difference.value)), ErrBoundReal.exact(difference.radius)
    )
