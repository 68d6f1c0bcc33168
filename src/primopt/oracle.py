"""Exact maximum-weight antichains over truncated multiplicative semigroups.

The divisibility order on a truncation (an Omega band intersected with a
value cap) is generated by the multiply-by-one-prime covering edges: any
intermediate divisor of a member is itself a member, so reachability along
those edges is exactly divisibility.

The truncation is enumerated level by level, Omega = 1, 2, ..., from a
frontier of values and, per value, the index of its largest prime.  A value
v whose largest prime has index i extends by the primes from index i up to
max_value // v, so each multiset of primes appears once and no product
passes the cap; the value a row extends is its parent in the tree below.
The universe keeps that order, level order, so each level is a run of
rows, and ``levels`` (one tuple of Python ints in either form) holds the
row each run starts at.  Values are sorted only where they are reported or
searched.  The edges come the same way: element n at Omega below the cap
covers n * p for exactly the primes p <= max_value // n, and each n * p is
found through one argsort of the elements.  The edges are one (E, 2)
index array (a ragged repeat, one searchsorted for all of them).  The
levels are numpy columns too (a ragged repeat per level) from
``_COLUMNS_FROM`` elements on, and the same loops over Python lists below
it, where numpy's per-call overhead would cost more than the loops.  No level may pass ``max_elements``: the
column path sizes each level before it allocates it, and the list path's
levels, which hold fewer than ``_COLUMNS_FROM`` rows, are checked once
built.  A universe keeps the form it was built in, int64 arrays or tuples,
and so does its certification: the weights, their integer quanta, the tree
bound, the level sets and the member sums run on numpy columns or on
Python lists.

``verify_tbest`` first asks the level sums.  Under n^-t, N(P) is a product
of chains with log-concave rank weights, so by Harper's product theorem no
antichain of N_{>=k}(P) outweighs the largest h_j, j >= k, and h_{k+1} <=
h_k makes that h_k: ``symfunc.level_sum_check`` decides it exactly, on
integer bounds of the m prime weights.  When the test holds and the value
cap leaves level k whole, the claim is over all of N_{>=k}(P), whose
antichains include the truncation's, and only the level's own weights are
formed, for its fsum; no weight is scaled, and no tree pass, covering edge
or Dinic run follows.  Every other report claims the truncation only: a
test that fails or is left open, a level the cap cuts, and the Erdos
weights of ``verify_erdos_best`` go to the optimizer below.

The optimizer first tries a bound from Erdos's tree.  Every element above
level k_lo has the parent n / P(n), P(n) its largest prime, which is itself
a member (one level lower, smaller value); the level-k_lo elements are the
roots.  An ancestor in this forest divides its descendant, so every
divisibility antichain is an antichain of the forest too, and the heaviest
forest antichain bounds the optimum from above.  In a forest it is the sum
over roots r of max(w(r), arriving(r)), where arriving(v) is the sum over
v's children c of max(w(c), arriving(c)): one pass over the elements in
descending level order (one Omega level at a time on columns), exact in
integers on the scaled weights.  When
arriving(r) <= w(r) at every root, that bound is the weight of level k_lo,
itself a divisibility antichain, so the roots are optimal and no edge is
built.  Under n^-t weights with sum p^-t < 1, each element outweighs its
children together, so the bound closes unless rounding to the scaling
quantum breaks that inequality.  Closed or not, the pass hands on the
roots and their integer weight, and nothing else looks for level k_lo.

Otherwise the optimizer runs weighted Dilworth duality.  The network has a
split arc v_in -> v_out with lower bound w(v) per element, and unbounded
arcs source -> v_in, v_out -> sink and v_out -> u_in per covering edge.
Each unit of flow runs along a chain, which crosses an antichain at most
once, so every feasible flow is worth at least every antichain's weight: a
flow and an antichain of equal value are both optimal, and the minimum flow
equals the maximum antichain weight.

The flow starts as each element's own path source -> v_in -> v_out ->
sink carrying w(v), which meets every lower bound and is worth the total
weight.  One max-flow from sink to source over its residual network
cancels ``rest`` units, the minimum flow is the total weight minus
``rest``, and the optimal antichain is the split arcs crossing the final
reachability cut.  The set reachable from the max-flow's source in the
final residual graph is the same for every maximum flow, so those members
do not depend on the order of the arcs.  They win only when the optimum
is greater than the roots' weight; on a tie the roots are returned.

The max-flow is Dinic's algorithm with an iterative blocking-flow search
(no step recurses), over arc ends paired as e and e ^ 1 and grouped by
tail with one stable argsort.  The flow core sees only element indices and
integer weights.  Its callers evaluate each element's weight once, aligned
with ``universe.elements`` and in its form: a list of Python floats, or a
float64 column with the same bits (``power_weights`` by ``np.float_power``,
which calls libm's pow as Python's float ** does; ``erdos_weights`` by
``math.log`` and numpy's correctly rounded multiply and divide; np.power
and np.log stay out, as their SIMD kernels differ in the last bits).
``_scaled_weights`` is the one step to integers: each value rounded to a
grid sized by the weights, whose quantum 2^-shift puts n times the largest
weight just below 2^61, so every sum fits int64 (Python ints for a list,
an int64 column for a column).  ``_gather`` reads either form back as
Python numbers, and the float weights of the returned members are
re-summed by fsum; the verdict's tolerance is n quanta of that grid.

An optimum is checked to be an antichain before it is returned.  When its
members share one Omega the check is free: if a | b with a != b in the
semigroup, b / a is a product of at least one prime, so Omega(b) >
Omega(a), and no two members of one level divide each other.  One bisect
of ``levels`` tells whether the members' rows lie in one run; other
members go through ``is_primitive``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .analytic import HOLDS, FAILS, MEMBERS_SHOWN, ConditionVerdict, check_condition
from .erdos import erdos_weights
from .errors import SizeLimitError
from .primes import MAX_ELEMENT, PrimeSet
from .symfunc import h_all, level_sum_check, power_weights

# Element indices: a list, or an int64 array for a columnar universe.
Indices = Union[list[int], np.ndarray]

DEFAULT_MAX_ELEMENTS = 200_000
_BRUTE_FORCE_CAP = 40
_ONE_IS_NO_ANTICHAIN = ("{1} is not an antichain here: 1 divides every element, "
                        "so k_lo must be >= 1")
# Bound on the element count (see build_universe) from which the universe
# is built as numpy columns rather than Python lists.  Per call of the
# level-order build and its n^-t weights, on 460 seeded universes of 1 to
# 2,000 elements under value caps of 10^4-10^6 (2 vCPUs, Python 3.11, numpy
# 2.4, medians), lists won below a bound of 300 (10 against 48 us below 50,
# 52 against 81 us at 200-299) and columns from there (110 against 93 us at
# 300-499, 157 against 109 us at 1,000-4,999).  Covering edges are always
# columns; below 50 elements that costs about 8 us per call over a list
# loop, paid only where the tree bound stays open.  The optimizer follows
# the build: with every universe on columns, certify-small's flow jobs, all
# built as lists, took 225 against 143 ms per pass.
_COLUMNS_FROM = 300


def _ragged(counts: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """Row r repeated counts[r] times, beside starts[r], starts[r] + 1, ...,
    starts[r] + counts[r] - 1: the (rows, positions) columns."""
    rows = np.repeat(np.arange(len(counts)), counts)
    return rows, np.arange(len(rows)) + (starts - np.cumsum(counts) + counts)[rows]


@dataclass(frozen=True)
class TruncatedUniverse:
    """A finite slice of the semigroup: k_lo <= Omega(n) <= max_omega and
    n <= max_value, ordered by divisibility.

    ``elements`` are in level order, as both builders generate them: Omega
    ascends from k_lo, and each level lists the children of the level below
    parent by parent, each parent's by ascending prime.  ``parents[c]`` is
    the index of elements[c] // P(elements[c]), P being the largest prime
    factor, or -1 on level k_lo; a parent lies on the level below, so
    parents[c] < c.  The two columns are tuples of Python ints when the
    universe was built by lists, and int64 arrays when it was built by
    columns (``columnar``); the optimizer keeps to that choice throughout.
    ``levels``, a tuple of Python ints in both forms, has levels[j] the
    first row of level k_lo + j and levels[-1] == len(elements); no level
    up to the top one, Omega k_lo + len(levels) - 2, is empty.
    The prime set and the caps determine the columns, so universes compare
    and hash by those alone.
    """

    prime_set: PrimeSet
    k_lo: int
    max_omega: int
    max_value: int
    elements: Union[tuple[int, ...], np.ndarray] = field(compare=False)
    parents: Union[tuple[int, ...], np.ndarray] = field(compare=False)
    levels: tuple[int, ...] = field(compare=False)
    columnar: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a plain attribute: every step of the optimizer reads it, and a
        # property costs a small list-built flow about 5%
        object.__setattr__(self, "columnar", isinstance(self.elements, np.ndarray))

    def __len__(self) -> int:
        return len(self.elements)

    def covering_edges(self) -> np.ndarray:
        """The (E, 2) int64 array of the index pairs (i, j) with
        elements[j] = elements[i] * p for a prime p, in ascending order of
        (i, p); its ``len`` is the edge count E.

        Every n * p <= max_value of an element below the Omega cap is itself
        a member, so each element pairs with exactly the primes up to
        max_value // n, and elements at the cap (the top run of ``levels``)
        have no covers.  The pairs are one ragged repeat of the element
        indices, and each product's index is found by one searchsorted
        through one argsort of the values, which level order leaves unsorted.
        """
        primes = self.prime_set.as_array()
        values = np.asarray(self.elements, dtype=np.int64)
        counts = np.searchsorted(primes, self.max_value // values, "right")
        if self.k_lo + len(self.levels) - 2 == self.max_omega:
            counts[self.levels[-2] :] = 0
        lower, position = _ragged(counts, 0)
        order = np.argsort(values)
        higher = order[np.searchsorted(values, values[lower] * primes[position], sorter=order)]
        return np.column_stack((lower, higher))


def _check_level_size(size: int, max_elements: int) -> None:
    """Refuse a level of the enumeration whose rows, with those of the band
    levels before it when it lies in the band, pass ``max_elements``."""
    if size > max_elements:
        raise SizeLimitError(
            f"universe exceeds {max_elements} elements; raise max_elements to proceed"
        )


def _list_levels(
    primes: list[int], k_lo: int, max_omega: int, max_value: int, max_elements: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The Omega levels k_lo..max_omega as value and parent tuples, in level
    order, and their ``levels`` offsets, by Python loops over a frontier of
    (value, position of its parent among the kept rows or -1 on level k_lo,
    index of its largest prime).  A level is checked once built; by the
    path's bound it has fewer than ``_COLUMNS_FROM`` rows."""
    frontier = [(1, -1, 0)]
    found = frontier[:] if k_lo == 0 else []
    levels = [0, 1] if k_lo == 0 else [0]
    for om in range(1, max_omega + 1):
        level = []
        first = len(found) - len(frontier)  # the level below is the last one kept
        for row, (value, _, last) in enumerate(frontier):
            cap = max_value // value
            parent = first + row if om > k_lo else -1
            for i in range(last, len(primes)):
                if primes[i] > cap:
                    break
                level.append((value * primes[i], parent, i))
        if not level:
            break
        if om >= k_lo:
            found += level
            levels.append(len(found))
        _check_level_size(len(found) if om >= k_lo else len(level), max_elements)
        frontier = level
    values, parents = list(zip(*found))[:2] or [(), ()]
    return values, parents, tuple(levels)


def _column_levels(
    primes: np.ndarray, k_lo: int, max_omega: int, max_value: int, max_elements: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The Omega levels k_lo..max_omega as value and parent columns, by
    numpy, in level order, and their ``levels``.  Each level is a ragged
    repeat of the rows of the level below, so a parent is its row's position
    among the kept rows, and the kept levels are concatenated as they are."""
    values = np.ones(1, dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    levels = [0, 1] if k_lo == 0 else [0]
    kept_values = [values[: levels[-1]]]
    kept_parents = [np.full(levels[-1], -1, dtype=np.int64)]
    for om in range(1, max_omega + 1):
        counts = np.searchsorted(primes, max_value // values, "right") - last
        np.maximum(counts, 0, out=counts)
        count = int(counts.sum())
        _check_level_size(count + (levels[-1] if om >= k_lo else 0), max_elements)
        if not count:
            break
        rows, last = _ragged(counts, last)
        if om > k_lo:  # the level below is the last one kept
            kept_parents.append(rows + (levels[-1] - len(values)))
        elif om == k_lo:
            kept_parents.append(np.full(count, -1, dtype=np.int64))
        values = values[rows] * primes[last]
        if om >= k_lo:
            kept_values.append(values)
            levels.append(levels[-1] + count)
    return np.concatenate(kept_values), np.concatenate(kept_parents), tuple(levels)


def build_universe(
    prime_set: PrimeSet,
    k_lo: int,
    max_omega: int,
    max_value: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> TruncatedUniverse:
    """Exhaustive enumeration of the truncation, in level order (see
    ``TruncatedUniverse``).

    Built level by level from the frontier of the level below; a level
    (in the band or below it) that would pass ``max_elements`` raises
    ``SizeLimitError``.  The truncation holds at most
    comb(m + J, m) multisets of at most J of the m primes, J = Omega's cap
    (a value's Omega is below its bit length), and at most max_value values:
    from ``_COLUMNS_FROM`` on by that bound, the levels are numpy columns,
    and the universe keeps them as int64 arrays.
    """
    if max_omega < k_lo:
        raise ValueError("max_omega must be >= k_lo")
    if k_lo < 0:
        raise ValueError("k_lo must be >= 0")
    if max_value < 2:
        raise ValueError("max_value must be >= 2")
    if max_value > MAX_ELEMENT:
        raise ValueError("max_value exceeds the 64-bit element range")
    if max_elements < 1:
        raise ValueError("max_elements must be >= 1")

    m = len(prime_set)
    bound = min(math.comb(m + min(max_omega, max_value.bit_length()), m), max_value)
    if bound >= _COLUMNS_FROM:
        columns = _column_levels(prime_set.as_array(), k_lo, max_omega, max_value, max_elements)
    else:
        columns = _list_levels(prime_set.as_list(), k_lo, max_omega, max_value, max_elements)
    return TruncatedUniverse(prime_set, k_lo, max_omega, max_value, *columns)


def is_primitive(members) -> bool:
    """No member divides a distinct member, and the set is not just {1}.

    Each member m is checked against every larger member, whichever way is
    shorter: by looking up its multiples 2m, 3m, ... up to the largest member
    in a set, or by one numpy modulo over the larger members.
    """
    present = {int(n) for n in members}
    values = sorted(present)
    if not values:
        raise ValueError("primitivity is defined for nonempty sets")
    if values == [1]:
        return False
    if values[0] < 1:
        raise ValueError("members must be positive integers")
    top = values[-1]
    arr = np.asarray(values, dtype=np.int64)
    for i, m in enumerate(values[:-1]):
        if top // m - 1 < len(values) - 1 - i:
            if not present.isdisjoint(range(2 * m, top + 1, m)):
                return False
        elif (arr[i + 1 :] % m == 0).any():
            return False
    return True


@dataclass(frozen=True)
class Antichain:
    """A pairwise non-divisible subset of a truncated universe.

    ``_one_level`` says that the members share one Omega; they are then an
    antichain by counting and skip the divisibility scan.
    """

    members: tuple[int, ...]
    _one_level: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        if self.members == (1,):
            raise ValueError(_ONE_IS_NO_ANTICHAIN)
        if not self._one_level and not is_primitive(self.members):
            raise ValueError("members are not pairwise non-divisible")

    def to_json(self) -> list[int]:
        return list(self.members[:MEMBERS_SHOWN])


# ---------------------------------------------------------------------------
# max-weight antichain: min flow with lower bounds, then one max-flow
# ---------------------------------------------------------------------------


def _rows(keys, count: int) -> tuple[memoryview, memoryview]:
    """Positions of ``keys`` grouped by key in 0..count-1: those with key u
    are order[start[u]:start[u+1]], ascending."""
    keys = np.asarray(keys, dtype=np.int64)
    start = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=count))))
    return memoryview(start), memoryview(np.argsort(keys, kind="stable"))


class _Dinic:
    """Dinic max-flow on exact integer capacities over a fixed arc set.

    The arcs (tails[a] -> heads[a], caps[a]) are given at once.  Arc a has
    two ends: end 2a leaves tails[a] for to[2a] = heads[a] with residual
    capacity cap[2a], and end 2a + 1 runs back with cap[2a + 1] = 0, so the
    partner of end e is e ^ 1.  The ends leaving node u are
    order[start[u]:start[u+1]], in arc order.  ``start``, ``order`` and
    ``to`` are memoryviews of int64 arrays, which index to Python ints
    without a copy; ``cap`` is a list of Python ints, so capacities of any
    size stay exact.

    Each phase builds BFS levels and then a blocking flow by an iterative DFS
    with current-arc pointers; a node found to be a dead end leaves the level
    graph for the rest of the phase.  No step recurses, so depth is bounded by
    memory, not by the interpreter stack.
    """

    def __init__(self, n: int, tails, heads, caps: list[int]):
        ends = np.empty((len(tails), 2), dtype=np.int64)  # ravel()[e]: the node e leaves
        ends[:, 0] = tails
        ends[:, 1] = heads
        self.n = n
        self.start, self.order = _rows(ends.ravel(), n)
        self.to = memoryview(ends[:, ::-1].ravel())
        del ends  # freed before cap is built, which lowers the peak memory
        self.cap = [0] * (2 * len(tails))
        self.cap[0::2] = caps

    def max_flow(self, source: int, sink: int) -> tuple[int, list[int]]:
        """The maximum flow value, and the BFS levels of the final residual
        graph from source: level >= 0 marks the source side of the cut."""
        start, order, to, cap = self.start, self.order, self.to, self.cap
        flow = 0
        while True:
            level = self.levels_from(source, sink)
            if level[sink] < 0:
                return flow, level
            current = start.tolist()
            path: list[int] = []  # ends from source to u
            u = source
            while True:
                if u == sink:
                    bottleneck = min(cap[e] for e in path)
                    flow += bottleneck
                    saturated = -1
                    for k, e in enumerate(path):
                        cap[e] -= bottleneck
                        cap[e ^ 1] += bottleneck
                        if saturated < 0 and cap[e] == 0:
                            saturated = k
                    # resume from the tail of the first saturated arc
                    del path[saturated:]
                    u = to[path[-1]] if path else source
                    continue
                i, end, want = current[u], start[u + 1], level[u] + 1
                while i < end and (cap[e := order[i]] == 0 or level[to[e]] != want):
                    i += 1
                current[u] = i
                if i < end:
                    path.append(e)
                    u = to[e]
                    continue
                # dead end: no path to the sink through u in this phase
                level[u] = -1
                if not path:
                    break
                u = to[path.pop() ^ 1]
                current[u] += 1

    def levels_from(self, source: int, sink: int) -> list[int]:
        """BFS depth of each node over arcs with residual capacity, -1 if not
        reached.  The search stops once sink is reached: by then every node
        nearer than sink has its depth, and nodes no nearer than sink lie on
        no shortest path to it."""
        start, order, to, cap = self.start, self.order, self.to, self.cap
        level = [-1] * self.n
        level[source] = 0
        queue = [source]
        for u in queue:
            depth = level[u] + 1
            for e in order[start[u] : start[u + 1]]:
                if cap[e]:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = depth
                        if v == sink:
                            return level
                        queue.append(v)
        return level


def _scaled_weights(weights):
    """Float weights in whole quanta of 2^-shift, and that quantum: an int64
    column for a float64 column, Python ints for a list.

    shift is the largest integer with n * max(weights) * 2^shift < 2^61, n
    the weight count, found exactly from the maximum's mantissa, so every
    sum of rounded weights stays below 2^61 + n / 2 and fits int64, and a
    list and a column of the same weights land on the same grid.  np.ldexp
    scales exactly for any shift (2.0**shift overflows past 1023), and
    np.rint rounds half to even as ``round`` does; a weight below half a
    quantum rounds to 0.
    """
    column = isinstance(weights, np.ndarray)
    top = float(weights.max(initial=0.0)) if column else max(weights, default=0.0)
    mantissa, exponent = math.frexp(top)  # top = mantissa * 2^exponent, 0.5 <= mantissa < 1
    digits = len(weights) * int(math.ldexp(mantissa, 53))
    shift = 114 - exponent - digits.bit_length()
    scaled = np.rint(np.ldexp(weights, shift)).astype(np.int64)
    return (scaled if column else scaled.tolist()), math.ldexp(1.0, -shift)


def _gather(column, indices: Indices) -> list:
    """The entries of ``column`` at ``indices`` as a list of Python numbers,
    from a list or tuple, or from a numpy column."""
    if isinstance(column, np.ndarray):
        return column[indices].tolist()
    return [column[i] for i in indices]


def _tree_optimum(universe: TruncatedUniverse, scaled) -> tuple[Indices, int, bool]:
    """The indices of the roots (no parent: level k_lo, the first
    levels[1] rows), ascending, their integer weight, and whether the
    largest-prime-factor forest proves them a maximum-weight antichain.

    Children come after their parents, so one pass in descending order,
    down to the rows above the roots, gives each node the weight
    ``arriving`` of the heaviest antichains of its children's subtrees.  A
    columnar universe takes the pass one Omega level at a time, top down,
    since a node's children all lie on the level above it: each level is
    one run of ``levels``, with one maximum and one scatter-add per level.
    """
    parents, levels = universe.parents, universe.levels
    top = levels[1]  # one past the last root
    if universe.columnar:
        arriving = np.zeros_like(scaled)
        for lo, hi in zip(levels[-2:0:-1], levels[:1:-1]):
            np.add.at(arriving, parents[lo:hi], np.maximum(scaled[lo:hi], arriving[lo:hi]))
        own = scaled[:top]
        return np.arange(top), int(own.sum()), bool((arriving[:top] <= own).all())
    arriving = [0] * len(scaled)
    for c in range(len(scaled) - 1, top - 1, -1):
        below, own = arriving[c], scaled[c]
        arriving[parents[c]] += own if own > below else below
    own = scaled[:top]
    return list(range(top)), sum(own), all(a <= w for a, w in zip(arriving, own))


def _flow_optimum(universe: TruncatedUniverse, scaled) -> tuple[Indices, int, Indices, bool]:
    """A maximum-weight antichain under the integer weights ``scaled``,
    aligned with ``universe.elements``: its member indices, ascending, its
    weight, the roots and whether the members are the roots.  Dinic runs
    only when the tree bound stays open, and its members win only when its
    optimum is greater than the roots' weight."""
    if len(universe) == 0:
        raise ValueError("universe is empty")
    roots, weight, closed = _tree_optimum(universe, scaled)
    if not closed:
        listed = _gather(scaled, range(len(universe)))
        members, rest = _residual_optimum(listed, universe.covering_edges())
        optimum = sum(listed) - rest
        if optimum > weight:
            return members, optimum, roots, False
    return roots, weight, roots, True


def _residual_optimum(scaled: list[int], edges: np.ndarray) -> tuple[list[int], int]:
    """One max-flow from the flow that runs each element's own path, over the
    (E, 2) covering edges: the member indices of a maximum-weight antichain,
    ascending, and the flow cancelled.  Node 0 is the source, 1 the sink, and
    element i splits into v_in = 2 + 2i and v_out = 3 + 2i."""
    count = len(scaled)
    # Exceeds any flow, so an unbounded arc never saturates: only whether a
    # residual is positive matters, and one shared object costs no memory
    # per arc.
    infinite = sum(scaled) + 1

    source, sink = 0, 1
    node_in = np.arange(2, 2 + 2 * count, 2)
    node_out = node_in + 1

    # Reduction network: max-flow from sink to source through the residual
    # of the start flow, which carries w(v) along source -> v_in -> v_out ->
    # sink.  That flow can be cancelled by w(v) on the source and sink arcs,
    # and by nothing on the split arcs (their flow is the lower bound) or
    # the poset arcs (no flow), so every arc's reverse end starts at 0.  The
    # unbounded arcs out of the source and into the sink are left out: no
    # augmenting path from the sink uses them, and they add nothing to the
    # set reachable from the sink.  Arc groups: cancel s -> v_in, cancel
    # v_out -> t, raise the split arc, raise each poset arc.
    tails = np.concatenate((node_in, np.full(count, sink), node_in, 3 + 2 * edges[:, 0]))
    heads = np.concatenate((np.full(count, source), node_out, node_out, 2 + 2 * edges[:, 1]))
    caps = scaled + scaled + [infinite] * (count + len(edges))
    rest, level = _Dinic(2 + 2 * count, tails, heads, caps).max_flow(sink, source)
    members = [i for i in range(count) if level[3 + 2 * i] >= 0 and level[2 + 2 * i] < 0]
    return members, rest


def _optimum(
    universe: TruncatedUniverse, weights
) -> tuple[Indices, float, Indices, bool, float]:
    """The member indices of a maximum-weight antichain under ``weights``,
    aligned with ``universe.elements``, the fsum of their weights, the
    roots, whether the members are the roots, and the scaling quantum."""
    scaled, quantum = _scaled_weights(weights)
    members, _, roots, on_roots = _flow_optimum(universe, scaled)
    return members, math.fsum(_gather(weights, members)), roots, on_roots, quantum


def max_weight_antichain_flow(universe: TruncatedUniverse, t: float) -> tuple[Antichain, float]:
    """Exact maximum of sum n^-t over antichains of the universe (k_lo >= 1)."""
    if universe.k_lo < 1:
        raise ValueError(_ONE_IS_NO_ANTICHAIN)
    members, weight, _, _, _ = _optimum(universe, power_weights(universe.elements, t))
    return _antichain_at(universe, members), weight


def _antichain_at(universe: TruncatedUniverse, members: Indices) -> Antichain:
    """The antichain of the elements at the ascending indices ``members``,
    ordered by value.  They are one level when the last lies below the
    start of the level after the first's."""
    levels = universe.levels
    one_level = int(members[-1]) < levels[bisect_right(levels, int(members[0]))]
    if universe.columnar:
        members = np.asarray(members)[np.argsort(universe.elements[members])]
    else:
        members = sorted(members, key=universe.elements.__getitem__)
    return Antichain(tuple(_gather(universe.elements, members)), _one_level=one_level)


def max_weight_antichain_bruteforce(
    universe: TruncatedUniverse, t: float
) -> tuple[Antichain, float]:
    """Independent exhaustive optimum (universe capped at 40 elements, k_lo >= 1)."""
    if universe.k_lo < 1:
        raise ValueError(_ONE_IS_NO_ANTICHAIN)
    weights = power_weights(universe.elements, t)
    count = len(universe)
    if count == 0:
        raise ValueError("universe is empty")
    if count > _BRUTE_FORCE_CAP:
        raise SizeLimitError(
            f"brute force capped at {_BRUTE_FORCE_CAP} elements, got {count}"
        )

    # descending weight order maximizes pruning
    order = sorted(range(count), key=lambda i: -weights[i])
    values = _gather(universe.elements, order)
    weights = _gather(weights, order)

    # the values are distinct, so only the smaller of a pair can divide
    incompatible = [0] * count
    for a in range(count):
        x = values[a]
        for b in range(a + 1, count):
            y = values[b]
            if (y % x if x < y else x % y) == 0:
                incompatible[a] |= 1 << b
                incompatible[b] |= 1 << a

    suffix = [0.0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    # Depth-first over (free, chosen, weight so far), where free holds the
    # undecided indices that nothing chosen blocks.  Each node branches on
    # its lowest free index i, taking it before leaving it out, so the
    # inclusion branch goes on the stack last.  A branch is pruned when it
    # is popped, against the best weight found by then.
    best_weight = -1.0
    best_set = 0
    stack = [((1 << count) - 1, 0, 0.0)]
    while stack:
        free, chosen, acc = stack.pop()
        if not free:
            if acc > best_weight:
                best_weight = acc
                best_set = chosen
            continue
        i = (free & -free).bit_length() - 1
        if acc + suffix[i] <= best_weight:
            continue
        rest = free & (free - 1)
        stack.append((rest, chosen, acc))
        stack.append((rest & ~incompatible[i], chosen | (1 << i), acc + weights[i]))
    members = sorted(order[i] for i in range(count) if (best_set >> i) & 1)
    return _antichain_at(universe, members), best_weight


# ---------------------------------------------------------------------------
# theorem-instance certification
# ---------------------------------------------------------------------------


@dataclass
class OptimalityReport:
    """Outcome of one certification, its scope in ``claim``; fields in JSON key order."""

    claim: str
    verdict: str
    optimum_weight: float
    reference_weight: float
    universe_size: int
    optimum_members: Antichain
    condition_verdict: ConditionVerdict
    notes: list[str] = field(default_factory=list)

    def holds(self) -> bool:
        return self.verdict == HOLDS


def _level_complete(universe: TruncatedUniverse) -> bool:
    """Whether the value cap leaves level k_lo whole: all comb(k_lo + m - 1,
    m - 1) multisets of k_lo of the m primes are members."""
    m, levels = len(universe.prime_set), universe.levels
    return len(levels) > 1 and levels[1] == math.comb(universe.k_lo + m - 1, m - 1)


def _certify(
    universe: TruncatedUniverse,
    weights,
    reference_full: Optional[float],
    condition: ConditionVerdict,
    claim: str,
    proved: bool = False,
) -> OptimalityReport:
    """The report on level k_lo.  When ``proved``, level k_lo is already
    known to be optimal and ``weights`` are its own; else they cover the
    universe and the tree pass, then Dinic, find the optimum, and a condition
    short of HOLDS marks the report a conjecture instance."""
    if proved:
        members = np.arange(len(weights)) if universe.columnar else range(len(weights))
        on_roots, quantum = True, 0.0
        optimum = math.fsum(_gather(weights, members))
    else:
        members, optimum, roots, on_roots, quantum = _optimum(universe, weights)
    # fsum rounds the exact sum once, so the same members weigh the same
    level_weight = optimum if on_roots else math.fsum(_gather(weights, roots))

    # Each weight rounds to its quantum by half a quantum at most, so an
    # antichain's integer weight is within n / 2 quanta of its float weight,
    # and the members are within n quanta of the heaviest antichain.
    tol = len(universe) * quantum
    notes = []
    if abs(optimum - level_weight) <= tol and not on_roots:
        notes.append("optimum ties the level set within scaling tolerance")

    # the truncated level is part of the full one, so this bounds both
    verdict = HOLDS if optimum <= level_weight + tol else FAILS

    if condition.verdict != HOLDS and not proved:
        notes.append(
            "condition not certified for this prime set: conjecture instance, "
            "not theorem instance (empirical evidence only)"
        )
    if not _level_complete(universe):
        notes.append("level set is truncated by the value cap")

    return OptimalityReport(
        claim=claim,
        verdict=verdict,
        optimum_weight=optimum,
        reference_weight=level_weight if reference_full is None else reference_full,
        universe_size=len(universe),
        optimum_members=_antichain_at(universe, members),
        condition_verdict=condition,
        notes=notes,
    )


def verify_tbest(
    prime_set: PrimeSet,
    t: float,
    k: int,
    max_omega: int,
    max_value: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> OptimalityReport:
    """Certify that level k is the heaviest antichain under n^-t weights:
    over all of N_{>=k}(P) where the level-sum test holds and the value cap
    leaves level k whole, else over the truncated Omega >= k universe."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (t > 1.0) or not math.isfinite(t):
        raise ValueError("t-best certification needs a finite t > 1")
    universe = build_universe(prime_set, k, max_omega, max_value, max_elements)
    condition = check_condition(prime_set, t)
    reference_full = h_all(power_weights(prime_set, t), k)[k]
    # Level k is t-best over all of N_{>=k}(P) when the level-sum test
    # holds, and so over the truncation once the value cap leaves it whole:
    # only the level's own weights are needed
    proved = _level_complete(universe) and level_sum_check(prime_set, t, k) == HOLDS
    weighed = universe.elements[: universe.levels[1]] if proved else universe.elements
    scope = f"N_{{>={k}}}(P)" if proved else "the truncation"
    return _certify(
        universe,
        power_weights(weighed, t),
        reference_full=reference_full,
        condition=condition,
        claim=f"level {k} is t-best (t={t}) over {scope}",
        proved=proved,
    )


def verify_erdos_best(
    prime_set: PrimeSet,
    k: int,
    max_omega: int,
    max_value: int,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> OptimalityReport:
    """Same certification under the 1/(n log n) weight; the claim is over
    the truncation only."""
    if k < 1:
        raise ValueError("k must be >= 1")
    universe = build_universe(prime_set, k, max_omega, max_value, max_elements)
    condition = check_condition(prime_set, 1.0)
    return _certify(
        universe,
        erdos_weights(universe.elements),
        reference_full=None,
        condition=condition,
        claim=f"level {k} is reciprocal-log-best over the truncation",
    )
