import gc
import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from primopt import oracle
from primopt.analytic import jsonable
from primopt.erdos import erdos_sum, erdos_weights
from primopt.errors import SizeLimitError
from primopt.oracle import (
    DEFAULT_MAX_ELEMENTS,
    Antichain,
    _Dinic,
    _antichain_at,
    _flow_optimum,
    _residual_optimum,
    _scaled_weights,
    _tree_optimum,
    build_universe,
    is_primitive,
    max_weight_antichain_bruteforce,
    max_weight_antichain_flow,
    verify_erdos_best,
    verify_tbest,
)
from primopt.primes import MAX_ELEMENT, PrimeSet, omega, sieve_primes
from primopt.symfunc import power_weights, sigma_nk


def semigroup_filter(primes, k_lo, max_omega, max_value):
    """Independent membership oracle: scan every integer up to the cap."""
    out = []
    for n in range(2, max_value + 1):
        m, count = n, 0
        for p in primes:
            while m % p == 0:
                m //= p
                count += 1
        if m == 1 and k_lo <= count <= max_omega:
            out.append(n)
    return out


def antichains(universe):
    """Independent oracle: every nonempty antichain, as index tuples, found
    by trying every subset (universe must be tiny)."""
    elements = universe.elements
    assert len(elements) <= 14
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(range(len(elements)), r):
            if all(
                elements[b] % elements[a] for a, b in itertools.combinations(combo, 2)
            ):
                yield combo


def exhaustive_optimum(universe, weights):
    return max(math.fsum(weights[i] for i in combo) for combo in antichains(universe))


def level_members(universe, k):
    return [n for n, om in zip(universe.elements, universe.omegas) if om == k]


# _COLUMNS_FROM at these values builds every universe of these tests as
# int64 columns, or as Python lists
COLUMNS, LISTS = 0, 10**9


def built(columns_from, *args):
    """build_universe(*args) with the column cutoff at ``columns_from``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_COLUMNS_FROM", columns_from)
        return build_universe(*args)


def both_regimes(universe):
    """The same truncation built as Python lists, then as int64 columns."""
    args = (universe.prime_set, universe.k_lo, universe.max_omega, universe.max_value)
    lists, columns = built(LISTS, *args), built(COLUMNS, *args)
    assert not lists.columnar and columns.columnar
    return lists, columns


def as_list(column):
    """A column of Python ints as a list: indices, elements or scaled weights."""
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def scaled_for(universe, weights):
    """The integer weights the optimizer runs on the universe: a numpy
    column for a columnar universe, as ``oracle._optimum`` makes them."""
    return _scaled_weights(np.array(weights) if universe.columnar else weights)


def test_build_universe_examples():
    u = build_universe(PrimeSet([2, 3]), 1, 2, 100)
    assert u.elements == (2, 3, 4, 6, 9)
    chain = build_universe(PrimeSet([2]), 1, 4, 100)
    assert chain.elements == (2, 4, 8, 16)
    u3 = build_universe(PrimeSet([2, 3, 5]), 2, 3, 1000)
    assert len(u3) == 16
    assert len(level_members(u3, 2)) == 6


@pytest.mark.parametrize(
    "primes,k_lo,max_omega,max_value",
    [((2, 3), 1, 3, 200), ((2, 3, 5), 2, 4, 500), ((5, 7), 1, 5, 9999), ((2,), 0, 10, 1024),
     # bound min(comb(28, 3), 10^5) = 3276: built as numpy columns
     (tuple(sieve_primes(100)), 2, 3, 10**5)],
)
def test_build_universe_matches_integer_scan(primes, k_lo, max_omega, max_value):
    u = build_universe(PrimeSet(primes), k_lo, max_omega, max_value)
    expected = semigroup_filter(primes, k_lo, max_omega, max_value)
    if k_lo == 0:
        expected = [1] + expected
    assert list(u.elements) == expected
    for n, om in zip(u.elements, u.omegas):
        assert omega(n, u.prime_set) == om


def test_universes_compare_by_their_truncation():
    lists, columns = both_regimes(build_universe(sieve_primes(100), 2, 3, 10**5))
    assert lists == columns and hash(lists) == hash(columns)
    assert columns != build_universe(columns.prime_set, 2, 3, 10**5 - 1)


def test_build_universe_guards():
    with pytest.raises(ValueError):
        build_universe(PrimeSet([2]), 2, 1, 100)
    with pytest.raises(ValueError):
        build_universe(PrimeSet([2]), 1, 2, 1)
    with pytest.raises(SizeLimitError):
        build_universe(PrimeSet([2, 3, 5]), 1, 12, 10**6, max_elements=50)
    # above the column cutoff: 2,504 elements, refused at one fewer
    wide = (sieve_primes(100), 2, 3, 10**5)
    assert len(build_universe(*wide, max_elements=2504)) == 2504
    with pytest.raises(SizeLimitError):
        build_universe(*wide, max_elements=2503)
    # the band {25, 35, ..., 95} has 9 elements, but the level-1 frontier
    # below it holds 23 primes, and no level may pass max_elements
    below_band = (PrimeSet(sieve_primes(100).as_list()[2:]), 2, 2, 100)
    assert len(build_universe(*below_band, max_elements=23)) == 9
    with pytest.raises(SizeLimitError):
        build_universe(*below_band, max_elements=22)
    with pytest.raises(ValueError):
        build_universe(PrimeSet([2, 3]), 1, 2, 100, max_elements=0)
    with pytest.raises(ValueError):
        build_universe(PrimeSet([2]), 1, 3, 2**63)


# primes on either side of sqrt(2**63 - 1), so products of two land near the cap
_ROOT_PRIMES = (3037000453, 3037000493, 3037000507)


@st.composite
def truncations(draw):
    primes = draw(st.lists(
        st.sampled_from((2, 3, 5, 7, 11, 13) + _ROOT_PRIMES),
        min_size=1, max_size=4, unique=True,
    ))
    k_lo = draw(st.integers(0, 2))
    max_omega = draw(st.integers(max(k_lo, 1), 5))
    near_top = MAX_ELEMENT - draw(st.integers(0, max(primes)))
    max_value = draw(st.one_of(st.integers(2, 10**5), st.just(near_top)))
    return tuple(sorted(primes)), k_lo, max_omega, max_value


def _on_path(columns_from, prime_set, k_lo, max_omega, max_value, max_elements):
    """The universe's elements, Omegas and parents as tuples of Python ints,
    and the optimizer's outcome under n^-t weights at t = 0.5 and 1.5, built
    with the column cutoff at ``columns_from``, or the SizeLimitError
    message.  The columns are int64 arrays on the column path and tuples of
    Python ints on the list path.  Each parent is checked against the
    largest prime factor on the way, and the optimizer's roots and their
    weight against level k_lo."""
    try:
        u = built(columns_from, prime_set, k_lo, max_omega, max_value, max_elements)
    except SizeLimitError as exc:
        return str(exc)
    columns = (u.elements, u.omegas, u.parents)
    assert u.columnar == (columns_from == COLUMNS)
    if u.columnar:
        assert all(column.dtype == np.int64 and column.shape == (len(u),) for column in columns)
        columns = tuple(tuple(column.tolist()) for column in columns)
    assert all(type(column) is tuple for column in columns)
    assert all(type(n) is int for column in columns for n in column)
    elements, omegas, parents = columns
    for n, om, parent in zip(elements, omegas, parents):
        if om == k_lo:
            assert parent == -1
        else:
            largest = max(p for p in prime_set if n % p == 0)
            assert elements[parent] * largest == n
    return columns + tuple(_optimum_on(u, t) for t in (0.5, 1.5) if len(u))


def _optimum_on(universe, t):
    """The tree bound's and the flow's outcome under n^-t weights, checked:
    the roots are level k_lo and weigh their integer sum whether or not the
    tree closes, and the flow reports the members as the roots exactly when
    its optimum is that weight."""
    scaled = _scaled_weights(power_weights(universe.elements, t))
    roots, weight, closed = _tree_optimum(universe, scaled)
    members, optimum, flow_roots, on_roots = _flow_optimum(universe, scaled)
    roots, flow_roots, scaled = as_list(roots), as_list(flow_roots), as_list(scaled)
    assert roots == flow_roots == [c for c, om in enumerate(universe.omegas) if om == universe.k_lo]
    assert weight == sum(scaled[c] for c in roots) and type(weight) is int
    assert on_roots == (optimum == weight) and (on_roots or not closed)
    assert on_roots == (as_list(members) == roots)
    return closed, optimum, on_roots, as_list(members)


@given(truncations(), st.one_of(st.just(DEFAULT_MAX_ELEMENTS), st.integers(1, 60)))
@settings(max_examples=200, deadline=None)
@example(((2,), 0, 63, MAX_ELEMENT), DEFAULT_MAX_ELEMENTS)
@example(((3037000493,), 1, 2, 3037000493**2), DEFAULT_MAX_ELEMENTS)
@example(((2, 3, 5, 7), 2, 2, 10**5), 3)  # the level-1 frontier is refused
def test_column_and_list_paths_agree(case, max_elements):
    primes, k_lo, max_omega, max_value = case
    args = (PrimeSet(primes), k_lo, max_omega, max_value, max_elements)
    assert _on_path(COLUMNS, *args) == _on_path(LISTS, *args)


@pytest.mark.parametrize("columns_from", [0, math.inf])
def test_build_universe_leaves_no_cyclic_garbage(monkeypatch, columns_from):
    monkeypatch.setattr(oracle, "_COLUMNS_FROM", columns_from)
    gc.collect()
    gc.disable()
    try:
        build_universe(PrimeSet([2, 3]), 1, 2, 100).covering_edges()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bruteforce_leaves_no_cyclic_garbage():
    universe = build_universe(PrimeSet([2, 3]), 1, 2, 100)
    gc.collect()
    gc.disable()
    try:
        max_weight_antichain_bruteforce(universe, 1.5)
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(truncations())
@settings(max_examples=100, deadline=None)
@example(((2, 3), 1, 4, 200))
@example(((2,), 0, 63, MAX_ELEMENT))  # 2^62 is covered by nothing below the cap
@example(((3037000493,), 1, 2, 3037000493**2))  # cap is exactly n * p
@example(((3037000493,), 1, 2, 3037000493**2 - 1))  # one below it
def test_covering_edges_generate_divisibility(case):
    primes, k_lo, max_omega, max_value = case
    for u in both_regimes(build_universe(PrimeSet(primes), k_lo, max_omega, max_value)):
        elements = as_list(u.elements)
        idx = {n: i for i, n in enumerate(elements)}
        naive = {
            (i, idx[n * p]) for i, n in enumerate(elements) for p in primes if n * p in idx
        }
        edges = u.covering_edges()
        assert edges.dtype == np.int64 and edges.shape == (len(naive), 2)
        pairs = [tuple(pair) for pair in edges.tolist()]
        assert len(edges) == len(naive) and set(pairs) == naive
        # reachability along the edges is divisibility; edges point to larger
        # elements, so one descending pass closes the reach sets
        reach = [0] * len(u)
        for i, j in sorted(pairs, reverse=True):
            reach[i] |= (1 << j) | reach[j]
        for a, b in itertools.combinations(range(len(u)), 2):
            divides = elements[b] % elements[a] == 0
            assert bool(reach[a] >> b & 1) == divides


def test_dinic_max_flow_on_a_long_path():
    # one augmenting path through 6000 nodes: far deeper than the
    # interpreter's recursion limit
    n = 6000
    caps = [3 + i % 5 for i in range(n - 1)]
    caps[n // 2] = 2
    dinic = _Dinic(n, list(range(n - 1)), list(range(1, n)), caps)
    flow, level = dinic.max_flow(0, n - 1)
    assert flow == 2
    assert all(level[v] >= 0 for v in range(n // 2 + 1))
    assert all(level[v] < 0 for v in range(n // 2 + 1, n))


def test_dinic_capacities_stay_exact_beyond_int64():
    # 0 -> 1 -> 3 and 0 -> 2 -> 3, each path limited by a capacity above 2^63
    big = 1 << 80
    dinic = _Dinic(4, [0, 0, 1, 2], [1, 2, 3, 3], [big + 1, big + 7, big, big + 5])
    flow, level = dinic.max_flow(0, 3)
    assert flow == 2 * big + 5
    assert level[3] < 0


@st.composite
def networks(draw):
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    cap = st.one_of(st.integers(0, 3), st.integers(2**63 - 2, 2**90))
    return n, draw(st.lists(st.tuples(node, node, cap), max_size=16))


@given(networks())
@settings(max_examples=300, deadline=None)
# parallel, antiparallel and self-loop arcs, capacities past 2^63
@example((3, [(0, 1, 5), (0, 1, 2**64), (1, 0, 3), (1, 1, 7), (1, 2, 2**64 + 1),
              (2, 1, 2**70)]))
# the first augmenting path 0-1-2-5 must be partly cancelled by 0-3-2-1-4-5
@example((6, [(0, 1, 1), (1, 2, 1), (2, 5, 1), (0, 3, 1), (3, 2, 1), (1, 4, 1), (4, 5, 1)]))
def test_dinic_flow_equals_min_cut_on_general_networks(case):
    n, arcs = case
    tails, heads, caps = (list(column) for column in zip(*arcs)) if arcs else ([],) * 3
    sink = n - 1

    def cut(side):
        return sum(c for u, v, c in arcs if side >> u & 1 and not side >> v & 1)

    best = min(cut(side) for side in range(1 << n) if side & 1 and not side >> sink & 1)
    dinic = _Dinic(n, tails, heads, caps)
    flow, level = dinic.max_flow(0, sink)
    assert flow == best
    side = sum(1 << v for v in range(n) if level[v] >= 0)
    assert side & 1 and not side >> sink & 1
    assert cut(side) == flow
    # ends 2a and 2a + 1 share arc a: what one gained the other lost, and
    # the net flows they carry are conserved at every node but the terminals
    net = [0] * n
    for a, (u, v) in enumerate(zip(tails, heads)):
        assert dinic.cap[2 * a] + dinic.cap[2 * a + 1] == caps[a]
        net[u] -= caps[a] - dinic.cap[2 * a]
        net[v] += caps[a] - dinic.cap[2 * a]
    assert net[0] == -flow and net[sink] == flow
    assert not any(net[1:sink])


def test_is_primitive_examples():
    assert is_primitive([4, 6, 9])
    assert not is_primitive([2, 6])
    assert not is_primitive([1])
    assert not is_primitive([1, 7])
    assert is_primitive([5])
    with pytest.raises(ValueError):
        is_primitive([])


@st.composite
def candidate_sets(draw):
    """Sets where both ways of is_primitive run: members up to top // 64 have
    more multiples up to the top than larger members (numpy modulo), and the
    member just below the top, in (top/2, top), has none (set lookups)."""
    top = draw(st.one_of(st.integers(64, 10**4), st.integers(64, MAX_ELEMENT)))
    small = draw(st.lists(st.integers(max(1, top // 128), top // 64), min_size=1, max_size=8))
    mid = draw(st.lists(st.integers(top // 8, top // 2), max_size=8))
    high = draw(st.integers(top // 2 + 1, top - 1))
    # multiples of drawn members, so that some sets are not primitive
    factors = draw(st.lists(st.integers(2, 9), max_size=4))
    multiples = [m * f for m, f in zip(small + mid, factors) if m * f < top]
    return small + mid + multiples + [high, top]


@given(candidate_sets())
@settings(max_examples=300, deadline=None)
@example([2, 3, 50, 64])  # 50 takes the set branch with nothing to find
@example([3, 25, 50, 64])  # only 25 divides anything, found in the set
@example([1, 40, 64])  # 1 divides everything
def test_is_primitive_matches_pairwise_check(values):
    distinct = sorted(set(values))
    top = distinct[-1]
    branches = {top // m - 1 < len(distinct) - 1 - i for i, m in enumerate(distinct[:-1])}
    assert branches == {True, False}
    naive = distinct != [1] and all(b % a for a, b in itertools.combinations(distinct, 2))
    assert is_primitive(values) == naive


def test_antichain_validates():
    with pytest.raises(ValueError):
        Antichain((2, 6))


def test_one_level_optimum_skips_the_divisibility_scan(monkeypatch):
    def scan(members):
        raise AssertionError("one Omega level needs no scan")

    monkeypatch.setattr(oracle, "is_primitive", scan)
    u = build_universe(PrimeSet([2, 3]), 2, 3, 1000)
    antichain, _ = max_weight_antichain_flow(u, 1.0)
    assert antichain == Antichain((4, 6, 9), _omegas=(2, 2, 2))
    antichain, _ = max_weight_antichain_bruteforce(u, 1.0)
    assert antichain.members == (4, 6, 9) and antichain._omegas == (2, 2, 2)
    assert verify_tbest(PrimeSet([2, 3, 5]), 1.5, 1, 6, 10**6).optimum_members.members == (2, 3, 5)


def test_mixed_omega_members_are_still_scanned():
    u = build_universe(PrimeSet([2, 3]), 1, 2, 100)
    assert u.elements == (2, 3, 4, 6, 9)
    with pytest.raises(ValueError, match="not pairwise non-divisible"):
        _antichain_at(u, [0, 3])  # 2 divides 6
    assert _antichain_at(u, [1, 2]).members == (3, 4)  # mixed, but an antichain
    with pytest.raises(ValueError, match="not pairwise non-divisible"):
        Antichain((2, 6), _omegas=(1, 2))
    with pytest.raises(ValueError, match="k_lo must be >= 1"):
        Antichain((1,), _omegas=(0,))


@given(st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=50))
@settings(max_examples=300, deadline=None)
@example([0.5 * 2**-50, 1.5 * 2**-50, 2.5 * 2**-50, 2**-51, 2**-60, 1.0, 5e-324])
def test_scaled_weights_round_half_to_even_like_round(weights):
    expected = [max(1, round(w * 2**50)) for w in weights]
    assert _scaled_weights(weights) == expected
    column = _scaled_weights(np.array(weights, dtype=np.float64))
    assert column.dtype == np.int64 and column.tolist() == expected


def test_flow_on_chain_picks_max_weight_element():
    chain = build_universe(PrimeSet([2]), 1, 4, 100)
    antichain, weight = max_weight_antichain_flow(chain, 1.0)
    assert antichain.members == (2,)
    assert weight == 0.5
    brute, bweight = max_weight_antichain_bruteforce(chain, 1.0)
    assert brute.members == (2,) and bweight == 0.5


def test_flow_small_example():
    u = build_universe(PrimeSet([2, 3]), 1, 2, 100)
    antichain, weight = max_weight_antichain_flow(u, 1.0)
    assert antichain.members == (2, 3)
    assert abs(weight - 5.0 / 6.0) < 1e-15


def test_bruteforce_level_slice_example():
    u = build_universe(PrimeSet([2, 3]), 2, 3, 1000)
    assert u.elements == (4, 6, 8, 9, 12, 18, 27)
    antichain, weight = max_weight_antichain_bruteforce(u, 1.0)
    assert antichain.members == (4, 6, 9)
    assert abs(weight - 19.0 / 36.0) < 1e-15


def test_bruteforce_size_guard():
    u = build_universe(PrimeSet([2, 3, 5, 7]), 1, 4, 10**4)
    with pytest.raises(SizeLimitError):
        max_weight_antichain_bruteforce(u, 1.5)


def test_flow_equals_exhaustive_subset_search():
    rng = random.Random(7)
    cases = [
        ((2, 3), 1, 3, 70),
        ((2, 3), 2, 4, 200),
        ((2, 5), 1, 3, 180),
        ((3, 5, 7), 1, 2, 120),
        ((2, 3, 5), 2, 3, 70),
        ((2, 7), 1, 4, 300),
    ]
    for primes, k_lo, max_omega, max_value in cases:
        lists, columns = both_regimes(build_universe(PrimeSet(primes), k_lo, max_omega, max_value))
        assert len(lists) <= 14
        for t in (1.0, 1.3, rng.uniform(1.0, 2.5)):
            expected = exhaustive_optimum(lists, [float(n) ** (-t) for n in lists.elements])
            for u in (lists, columns):
                _, flow_w = max_weight_antichain_flow(u, t)
                _, brute_w = max_weight_antichain_bruteforce(u, t)
                assert abs(flow_w - expected) <= 1e-9
                assert abs(brute_w - expected) <= 1e-9


@st.composite
def weighted_small_universes(draw):
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1, max_size=3,
                           unique=True))
    k_lo = draw(st.integers(1, 2))
    max_omega = draw(st.integers(k_lo, 4))
    u = build_universe(PrimeSet(sorted(primes)), k_lo, max_omega, draw(st.integers(2, 400)))
    assume(1 <= len(u) <= 14)
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(u), max_size=len(u)))
    return u, dict(zip(u.elements, weights))


@given(weighted_small_universes())
@settings(max_examples=300, deadline=None)
@example((  # 4 and 14 outweigh 2 together, so the tree bound stays open
    build_universe(PrimeSet([2, 7]), 1, 3, 239),
    {2: 0.97, 4: 0.1, 7: 0.54, 8: 0.08, 14: 0.56, 28: 0.45, 49: 0.96, 98: 0.16},
))
def test_flow_matches_exhaustive_under_arbitrary_weights(case):
    universe, by_element = case
    weights = [by_element[n] for n in universe.elements]
    expected = exhaustive_optimum(universe, weights)
    for universe in both_regimes(universe):
        members, optimum_scaled, _, _ = _flow_optimum(universe, scaled_for(universe, weights))
        members = as_list(members)
        assert is_primitive([as_list(universe.elements)[i] for i in members])
        assert abs(math.fsum(weights[i] for i in members) - expected) <= 1e-12
        assert abs(optimum_scaled / 2**50 - expected) <= 1e-12


@given(weighted_small_universes(), st.integers(2, 2**40))
@settings(max_examples=200, deadline=None)
@example((  # 49, 133 and 217 outweigh 7 together, so Dinic runs
    build_universe(PrimeSet([7, 19, 31]), 1, 4, 300),
    {7: 1.0, 19: 1e-3, 31: 1e-3, 49: 0.5, 133: 0.5, 217: 0.5},
), 3)
@example((  # Dinic runs on sums far past 2^63
    build_universe(PrimeSet([7, 19, 31]), 1, 4, 300),
    {7: 1.0, 19: 1e-3, 31: 1e-3, 49: 0.5, 133: 0.5, 217: 0.5},
), 2**40)
@example((  # the tree bound closes, on sums far past 2^63
    build_universe(PrimeSet([2, 3]), 1, 2, 100),
    {2: 0.5, 3: 0.4, 4: 0.2, 6: 0.1, 9: 0.1},
), 2**40)
def test_flow_core_scales_with_integer_weights(case, c):
    # the core sees only integers: c times every weight is c times the
    # optimum, with the same members, also where the sums pass 2^63 and a
    # columnar universe runs them as Python ints in a numpy column
    universe, by_element = case
    for universe in both_regimes(universe):
        scaled = scaled_for(universe, [by_element[n] for n in universe.elements])
        members, optimum_scaled, _, on_roots = _flow_optimum(universe, scaled)
        members = as_list(members)
        big = [c * w for w in as_list(scaled)]
        big_members, big_optimum, _, big_on_roots = _flow_optimum(
            universe, np.array(big, dtype=object) if universe.columnar else big
        )
        assert (as_list(big_members), big_optimum, big_on_roots) == (
            members, c * optimum_scaled, on_roots
        )
        assert type(big_optimum) is int


@given(weighted_small_universes())
@settings(max_examples=300, deadline=None)
# 6 and 4 hang under 2 (6 // 3 = 2), 9 under 3: the bound closes
@example((build_universe(PrimeSet([2, 3]), 1, 2, 100), {2: 0.5, 3: 0.4, 4: 0.2, 6: 0.1, 9: 0.1}))
# 4 and 6 outweigh 2, so the bound stays open
@example((build_universe(PrimeSet([2, 3]), 1, 2, 100), {2: 0.1, 3: 0.4, 4: 0.2, 6: 0.1, 9: 0.1}))
def test_tree_bound_closes_only_on_an_optimum(case):
    universe, by_element = case
    closed = []
    for universe in both_regimes(universe):
        scaled = scaled_for(universe, [by_element[n] for n in universe.elements])
        roots, weight, tree_closed = _tree_optimum(universe, scaled)
        closed.append(tree_closed)
        roots, scaled = as_list(roots), as_list(scaled)
        assert roots == [i for i, om in enumerate(universe.omegas) if om == universe.k_lo]
        assert sum(scaled[r] for r in roots) == weight and type(weight) is int
        if tree_closed:
            best = max(sum(scaled[i] for i in combo) for combo in antichains(universe))
            assert weight == best
    assert closed[0] == closed[1]


def test_flow_finds_the_cut_where_the_tree_stays_open():
    # 49, 133 and 217 all hang under 7 and outweigh it together, so the
    # tree bound stays open, and the cut picks the level-2 elements
    weights = [1.0, 1e-3, 1e-3, 0.5, 0.5, 0.5]
    for universe in both_regimes(build_universe(PrimeSet([7, 19, 31]), 1, 4, 300)):
        assert as_list(universe.elements) == [7, 19, 31, 49, 133, 217]
        scaled = scaled_for(universe, weights)
        assert not _tree_optimum(universe, scaled)[2]
        members, optimum_scaled, _, on_roots = _flow_optimum(universe, scaled)
        members = as_list(members)
        assert not on_roots
        assert [as_list(universe.elements)[i] for i in members] == [49, 133, 217]
        assert optimum_scaled == sum(as_list(scaled)[3:])
        weight = math.fsum(weights[i] for i in members)
        assert weight == 1.5 == exhaustive_optimum(universe, weights)


_WEIGHT_KINDS = (1.01, 1.1, 1.5, 2.0, 3.0, 8.0, "erdos", "arbitrary")


def seeded_universes(count):
    """``count`` universes of 1 to 400 elements from a fixed seed, each with
    a weight kind: a t of n^-t, "erdos" for 1/(n log n), or "arbitrary",
    and with weights drawn for that kind as a list aligned with the
    elements."""
    rng = random.Random(1301)
    pool = sieve_primes(400).as_list()
    universes = 0
    while universes < count:
        primes = sorted(rng.sample(pool[: rng.choice((6, 25, 78))], rng.randint(1, 5)))
        k_lo = rng.randint(1, 3)
        universe = build_universe(
            PrimeSet(primes), k_lo, k_lo + rng.randint(0, 3), rng.choice((10**3, 10**4, 10**5))
        )
        if not 1 <= len(universe) <= 400:
            continue
        universes += 1
        kind = _WEIGHT_KINDS[universes % len(_WEIGHT_KINDS)]
        if kind == "erdos":
            weights = [1.0 / (n * math.log(n)) for n in universe.elements]
        elif kind == "arbitrary":
            weights = [rng.uniform(1e-6, 1.0) for _ in universe.elements]
        else:
            weights = [float(n) ** (-kind) for n in universe.elements]
        yield universe, kind, weights


def test_tree_bound_matches_dinic_on_seeded_universes():
    # A differential of _flow_optimum, which tries the tree bound first,
    # against Dinic run on every universe, in both regimes.  Closed or not,
    # the tree bound gives the roots (level k_lo) and their integer weight.
    # Where it closes, the members are the roots and Dinic reaches their
    # weight.  Where it stays open, the optimum is Dinic's, and the members
    # are the roots when they weigh that much, else Dinic's cut; the flow
    # reports the members as the roots exactly when its optimum is their weight.
    closed = {True: 0, False: 0}
    overruled = 0  # tree-open universes where the roots win over a different cut
    for universe, _, weights in seeded_universes(1040):
        trees = []
        for universe in both_regimes(universe):
            roots, weight, tree_closed = _tree_optimum(universe, scaled_for(universe, weights))
            members, optimum_scaled, flow_roots, on_roots = _flow_optimum(
                universe, scaled_for(universe, weights)
            )
            roots, flow_roots = as_list(roots), as_list(flow_roots)
            members, scaled = as_list(members), as_list(scaled_for(universe, weights))
            level = [i for i, om in enumerate(universe.omegas) if om == universe.k_lo]
            assert roots == flow_roots == level
            assert weight == sum(scaled[i] for i in roots) and type(weight) is int
            trees.append((roots, weight, tree_closed))
            cut_members, rest = _residual_optimum(scaled, universe.covering_edges())
            assert sum(scaled) - rest == optimum_scaled
            assert on_roots == (optimum_scaled == weight)
            if tree_closed or optimum_scaled == weight:
                assert on_roots and members == roots
                overruled += not tree_closed and cut_members != roots
            else:
                assert members == cut_members
        assert trees[0] == trees[1]
        closed[trees[0][2]] += 1
    # both paths ran often enough to mean something, and the roots rule bit
    assert min(closed.values()) >= 50, closed
    assert overruled, overruled


def test_flow_picks_the_roots_on_a_clamped_tie():
    # 125^-8 = 1.7e-17 and 625^-8 = 4.3e-23 both clamp to one 2^-50 quantum,
    # so {125} and {625} tie in the flow; Dinic's minimal cut names 625, and
    # the roots rule keeps 125
    weights = [125.0**-8, 625.0**-8]
    for universe in both_regimes(build_universe(PrimeSet([5, 103, 331]), 3, 5, 1000)):
        assert as_list(universe.elements) == [125, 625]
        scaled = scaled_for(universe, weights)
        assert as_list(scaled) == [1, 1]
        assert _residual_optimum(as_list(scaled), np.array([[0, 1]])) == ([1], 1)
        members, optimum, roots, on_roots = _flow_optimum(universe, scaled)
        assert (as_list(members), optimum, as_list(roots), on_roots) == ([0], 1, [0], True)
        assert max_weight_antichain_flow(universe, 8.0) == (Antichain((125,)), 125.0**-8)
    report = verify_tbest(PrimeSet([5, 103, 331]), 8.0, 3, 5, 1000)
    assert report.holds() and report.optimum_members.members == (125,)


def test_scaled_weights_are_int64_only_while_every_sum_fits():
    fits = _scaled_weights(np.full(4095, 1.0))
    assert fits.dtype == np.int64 and fits.sum() == 4095 * 2**50
    # a total of 2^62 might round below 2^63 while a sum passes it: Python ints
    wide = _scaled_weights(np.full(4096, 1.0))
    assert wide.dtype == object and type(wide[0]) is int
    assert type(wide.sum()) is int and wide.sum() == 2**62
    # 2^90 and 2^64 + 2^12 quanta pass 2^63: each float reaches its Python int exactly
    huge = _scaled_weights(np.array([2.0**40, 2.0**-60, 2.0**14 + 2.0**-38]))
    assert huge.dtype == object and all(type(q) is int for q in huge)
    assert huge.tolist() == [2**90, 1, 2**64 + 2**12]
    assert _scaled_weights([1.0] * 4096) == [2**50] * 4096


def _json_in(columns_from, call):
    """The JSON of call()'s result, or its error, with the column cutoff at
    ``columns_from``; json.dumps refuses a numpy integer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_COLUMNS_FROM", columns_from)
        try:
            return json.dumps(jsonable(call()))
        except (ValueError, ArithmeticError) as exc:
            return f"{type(exc).__name__}: {exc}"


def assert_same_in_both_regimes(call):
    assert _json_in(LISTS, call) == _json_in(COLUMNS, call)


def test_regimes_give_identical_reports_on_seeded_universes():
    for universe, kind, _ in seeded_universes(1040):
        args = (universe.prime_set, universe.k_lo, universe.max_omega, universe.max_value)
        if kind == "erdos":
            assert_same_in_both_regimes(lambda: verify_erdos_best(*args))
        elif kind != "arbitrary":
            assert_same_in_both_regimes(lambda: verify_tbest(args[0], kind, *args[1:]))
            assert_same_in_both_regimes(
                lambda: max_weight_antichain_flow(build_universe(*args), kind)
            )


# values up to 2^62, so most of them are not binary64 numbers
_DEEP = (PrimeSet([2, 3, 5, 7]), 1, 22, 2**62)


@pytest.mark.parametrize("call", [
    *(lambda t=t: verify_tbest(_DEEP[0], t, *_DEEP[1:]) for t in (1.5, 8.0, 40.0)),
    lambda: verify_erdos_best(*_DEEP),
    lambda: max_weight_antichain_flow(build_universe(*_DEEP), 1.5),
    # the tree bound stays open and Dinic decides: the roots are optimal
    lambda: verify_tbest(sieve_primes(1000), 1.2, 1, 2, 10**5),
    # the tree bound stays open and the optimum is Dinic's cut
    lambda: verify_tbest(sieve_primes(300), 1.02, 1, 2, 90000),
    lambda: max_weight_antichain_flow(build_universe(sieve_primes(300), 1, 2, 90000), 1.02),
], ids=["deep-1.5", "deep-8", "deep-underflow", "deep-erdos", "deep-flow",
        "open-roots", "open-cut", "open-cut-flow"])
def test_regimes_give_identical_reports(call):
    assert_same_in_both_regimes(call)


def test_column_weights_are_python_float_weights_bit_for_bit():
    universe = built(COLUMNS, *_DEEP)
    assert universe.columnar
    column = np.concatenate((universe.elements, [2**53 + 1, 2**62 + 1, 3**39, MAX_ELEMENT]))
    values = column.tolist()
    # above 2^53 float(n) rounds, and the cast must round the same way
    assert sum(n > 2**53 and float(n) != n for n in values) > 100
    for t in (0.05, 1.02, 1.5, 8.0):
        weights = power_weights(column, t)
        assert isinstance(weights, np.ndarray) and weights.dtype == np.float64
        assert [w.hex() for w in weights.tolist()] == [(float(n) ** -t).hex() for n in values]
        listed = power_weights(values, t)
        assert all(type(w) is float for w in listed) and listed == weights.tolist()
    erdos = erdos_weights(column)
    assert isinstance(erdos, np.ndarray) and erdos.dtype == np.float64
    assert [w.hex() for w in erdos.tolist()] == [(1.0 / (n * math.log(n))).hex() for n in values]
    listed = erdos_weights(values)
    assert all(type(w) is float for w in listed) and listed == erdos.tolist()


@pytest.mark.parametrize("args", [
    (PrimeSet([5, 7, 11, 13]), 1, 4, 10**6),
    (sieve_primes(100), 2, 3, 10**5),
    _DEEP,
], ids=["small", "wide", "deep"])
def test_erdos_optimum_weight_is_erdos_sum_bit_for_bit(args):
    for columns_from in (LISTS, COLUMNS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_COLUMNS_FROM", columns_from)
            report = verify_erdos_best(*args)
        members = report.optimum_members.members
        assert len(members) > 1
        assert report.optimum_weight.hex() == erdos_sum(members).hex()


def test_dinic_is_built_only_where_the_tree_stays_open(monkeypatch):
    built = []
    covered = []

    class CountingDinic(_Dinic):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    covering_edges = oracle.TruncatedUniverse.covering_edges

    def counting_edges(universe):
        covered.append(len(universe))
        return covering_edges(universe)

    monkeypatch.setattr(oracle, "_Dinic", CountingDinic)
    monkeypatch.setattr(oracle.TruncatedUniverse, "covering_edges", counting_edges)
    assert verify_tbest(PrimeSet([2, 3, 5]), 1.5, 1, 6, 10**6).holds()
    assert verify_erdos_best(PrimeSet([5, 7, 11, 13]), 1, 4, 10**6).holds()
    # 14,909 of these 14,949 weights clamp to one quantum, and still no network
    assert verify_tbest(PrimeSet([2, 3, 5, 7]), 8.0, 1, 22, 2**62).holds()
    # the other two certify-large instances of perfbench: wide and deep
    assert verify_tbest(sieve_primes(1000), 1.5, 2, 3, 10**6).holds()
    assert verify_tbest(PrimeSet([2, 3, 5, 7]), 1.5, 1, 22, 2**62).holds()
    assert built == [] and covered == []
    report = verify_tbest(sieve_primes(300), 1.02, 1, 2, 300**2)
    assert report.verdict == "fails"
    assert len(built) == 1 and len(covered) == 1


def test_flow_equals_bruteforce_on_exhaustive_grid():
    # every prime subset of {2,3,5,7}, k, Omega cap, value cap and t whose
    # universe has 1..40 elements: 1548 instances
    started = time.monotonic()
    instances = 0
    ok = True
    subsets = itertools.chain.from_iterable(
        itertools.combinations((2, 3, 5, 7), r) for r in (1, 2, 3, 4)
    )
    for primes in subsets:
        prime_set = PrimeSet(primes, validate=False)
        for k in (1, 2):
            for max_omega in range(k, 6):
                for max_value in (20, 60, 200, 600):
                    universe = build_universe(prime_set, k, max_omega, max_value)
                    if not 1 <= len(universe) <= 40:
                        continue
                    for t in (1.2, 1.5, 2.0):
                        _, flow_w = max_weight_antichain_flow(universe, t)
                        _, brute_w = max_weight_antichain_bruteforce(universe, t)
                        ok = ok and abs(flow_w - brute_w) <= 1e-9
                        instances += 1
    ok = ok and instances >= 100
    assert ok, f"flow optimum differs from brute force on {instances} instances"
    assert time.monotonic() - started < 60.0


def test_flow_output_is_primitive_and_within_universe():
    for primes, k_lo, max_omega, max_value, t in (
        ((2, 3, 5), 1, 4, 4000, 1.2),
        ((2, 3, 5, 7), 2, 4, 2500, 1.02),
        ((5, 7, 11), 1, 3, 10**5, 1.0),
    ):
        u = build_universe(PrimeSet(primes), k_lo, max_omega, max_value)
        antichain, weight = max_weight_antichain_flow(u, t)
        assert is_primitive(antichain.members)
        assert set(antichain.members) <= set(u.elements)
        assert weight == pytest.approx(
            math.fsum(float(n) ** (-t) for n in antichain.members)
        )


def test_monotone_truncation_never_decreases_optimum():
    P = PrimeSet([2, 3, 5])
    previous = 0.0
    for max_omega in (1, 2, 3, 4, 5):
        u = build_universe(P, 1, max_omega, 10**4)
        _, w = max_weight_antichain_flow(u, 1.1)
        assert w >= previous - 1e-12
        previous = w
    previous = 0.0
    for max_value in (10, 100, 1000, 10**4):
        u = build_universe(P, 1, 4, max_value)
        _, w = max_weight_antichain_flow(u, 1.1)
        assert w >= previous - 1e-12
        previous = w


def test_verify_tbest_certifies_small_alphabet():
    report = verify_tbest(PrimeSet([2, 3, 5]), 1.5, 1, 6, 10**6)
    assert report.holds()
    assert report.optimum_members.members == (2, 3, 5)
    assert report.condition_verdict.verdict == "holds"
    assert report.tail_bound is not None and report.tail_bound < 0.2
    assert "level set is truncated by the value cap" not in report.notes


def test_verify_tbest_single_prime_chain():
    for k in (1, 2, 4):
        report = verify_tbest(PrimeSet([2]), 1.25, k, k + 4, 10**6)
        assert report.holds()
        assert report.optimum_members.members == (2**k,)


def test_verify_tbest_detects_level_two_overtaking():
    # near t=1 a dense alphabet makes the level-2 slice heavier than the primes
    primes = sieve_primes(300)
    report = verify_tbest(primes, 1.02, 1, 2, 300**2)
    assert report.verdict == "fails"
    assert report.optimum_weight > report.reference_weight
    assert report.condition_verdict.verdict == "fails"
    assert any("conjecture instance" in note for note in report.notes)
    # the optimum over that truncation is the full level-2 slice
    assert report.optimum_weight == pytest.approx(
        float(sigma_nk(primes, 1.02, 2)), abs=1e-9
    )


def test_verify_tbest_level_weights_respect_chain_when_condition_holds():
    P = PrimeSet([2, 3, 5])
    u = build_universe(P, 1, 6, 10**6)
    weights = [
        math.fsum(float(n) ** -1.5 for n in level_members(u, k)) for k in range(1, 7)
    ]
    assert all(weights[i] >= weights[i + 1] for i in range(len(weights) - 1))


def test_verify_erdos_best_examples():
    report = verify_erdos_best(PrimeSet([5, 7, 11, 13]), 1, 4, 10**6)
    assert report.holds()
    assert report.optimum_members.members == (5, 7, 11, 13)

    chain = verify_erdos_best(PrimeSet([2]), 2, 6, 10**6)
    assert chain.holds()
    assert chain.optimum_members.members == (4,)
    assert chain.optimum_weight == pytest.approx(1.0 / (4 * math.log(4)))

    both = verify_erdos_best(PrimeSet([2, 3]), 1, 5, 10**6)
    assert both.condition_verdict.verdict == "holds"
    assert both.holds()
    assert both.optimum_members.members == (2, 3)


def test_verify_erdos_tail_unavailable_for_heavy_alphabet():
    primes = PrimeSet([2, 3, 5, 7, 11])  # reciprocal sum > 1
    report = verify_erdos_best(primes, 1, 3, 3000)
    assert report.tail_bound is None
    assert any("restricted to the truncation" in note for note in report.notes)


def test_sigma_nk_matches_oracle_level_enumeration():
    # when the truncation holds the whole level, the symmetric-function value
    # and the direct sum over the enumerated slice must agree
    for primes, t, k in (((2, 3), 1.0, 3), ((2, 3, 5), 1.4, 2), ((5, 7, 11), 2.0, 4)):
        P = PrimeSet(primes)
        u = build_universe(P, k, k, max(primes) ** k + 1)
        level = level_members(u, k)
        assert len(level) == math.comb(k + len(primes) - 1, len(primes) - 1)
        direct = math.fsum(float(n) ** (-t) for n in level)
        assert abs(direct - float(sigma_nk(P, t, k))) <= 1e-12 * max(1.0, direct)


def test_optimum_respects_reference_plus_tail_when_condition_holds():
    for primes, t, k in (((2, 3, 5), 1.5, 1), ((3, 5, 7), 1.2, 2), ((2,), 1.1, 3)):
        report = verify_tbest(PrimeSet(primes), t, k, k + 3, 10**6)
        assert report.condition_verdict.verdict == "holds"
        assert report.tail_bound is not None
        assert report.optimum_weight <= report.reference_weight + report.tail_bound + 1e-9


def test_optimality_report_json_shape():
    report = verify_tbest(PrimeSet([2, 3]), 1.5, 1, 4, 10**4)
    payload = jsonable(report)
    assert list(payload) == [
        "claim",
        "verdict",
        "optimum_weight",
        "reference_weight",
        "tail_bound",
        "universe_size",
        "optimum_members",
        "condition_verdict",
        "notes",
    ]
    assert payload["optimum_members"] == [2, 3]
    assert list(payload["condition_verdict"]) == ["verdict", "lhs", "rhs"]
