import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primopt import analytic
from primopt.analytic import (
    _MOEBIUS,
    _MOEBIUS_CAP,
    ConditionVerdict,
    ErrBoundReal,
    check_condition,
    check_condition_allprimes,
    condition_margin,
    condition_rhs,
    condition_rhs_from_square_sum,
    jsonable,
    prime_zeta,
    riemann_zeta,
    sigma_t,
    tau_root,
)
from primopt.errors import PrecisionError
from primopt.primes import PrimeSet, sieve_primes

finite_values = st.floats(min_value=-1e6, max_value=1e6)
radii = st.floats(min_value=0.0, max_value=10.0)
offsets = st.floats(min_value=-1.0, max_value=1.0)


def _point_inside(x: ErrBoundReal, offset: float) -> float:
    """A representative true value inside the enclosure."""
    return x.value + offset * x.radius


def _exact_point_inside(x: ErrBoundReal, offset: float) -> Fraction:
    return Fraction(x.value) + Fraction(offset) * Fraction(x.radius)


def _encloses_exactly(x: ErrBoundReal, truth: Fraction) -> bool:
    return abs(Fraction(x.value) - truth) <= Fraction(x.radius)


@given(finite_values, radii, finite_values, radii, offsets, offsets)
@settings(max_examples=200, deadline=None)
# the product radius 3 * vb rounds below its exact value unless padded
@example(va=0.0, ra=3.0, vb=2.1171663187197208e-91, rb=0.0, oa=1.0, ob=0.0)
def test_enclosure_propagates_through_add_sub_mul(va, ra, vb, rb, oa, ob):
    a, b = ErrBoundReal(va, ra), ErrBoundReal(vb, rb)
    ta, tb = _exact_point_inside(a, oa), _exact_point_inside(b, ob)
    for op, truth in (
        (a + b, ta + tb),
        (a - b, ta - tb),
        (a * b, ta * tb),
    ):
        assert _encloses_exactly(op, truth)


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=0, max_value=1.0),
       offsets)
@settings(max_examples=200, deadline=None)
@example(v=1.0, rel=0.3125, offset=1.0)  # log image straddles 0
def test_enclosure_propagates_through_sqrt_log(v, rel, offset):
    x = ErrBoundReal(v, 0.5 * rel * v)
    truth = _point_inside(x, offset)
    s = x.sqrt()
    assert s.value - s.radius <= math.sqrt(truth) <= s.value + s.radius
    l = x.log()
    assert l.value - l.radius <= math.log(truth) <= l.value + l.radius


def test_errboundreal_rejects_bad_fields():
    with pytest.raises(ValueError):
        ErrBoundReal(float("nan"), 0.0)
    with pytest.raises(ValueError):
        ErrBoundReal(1.0, -1e-9)
    with pytest.raises(ValueError):
        ErrBoundReal(1.0, float("inf"))


def test_sqrt_log_domain_guards():
    with pytest.raises(PrecisionError):
        ErrBoundReal(0.1, 0.2).sqrt()
    with pytest.raises(PrecisionError):
        ErrBoundReal(0.1, 0.1).log()


def test_zeta_closed_forms():
    z2 = riemann_zeta(2.0, 1e-10)
    assert abs(z2.value - math.pi**2 / 6) <= z2.radius <= 1e-10
    z4 = riemann_zeta(4.0, 1e-10)
    assert abs(z4.value - math.pi**4 / 90) <= z4.radius <= 1e-10


def test_zeta_near_one():
    z = riemann_zeta(1.14, 1e-8)
    assert 7.0 < z.value < 8.0
    assert z.radius <= 1e-8


def test_zeta_domain_and_precision_errors():
    with pytest.raises(ValueError):
        riemann_zeta(1.0, 1e-8)
    for bad in (0.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            riemann_zeta(2.0, bad)
        with pytest.raises(ValueError):
            prime_zeta(2.0, bad)
    with pytest.raises(PrecisionError):
        riemann_zeta(1.01, 1e-14)


def test_prime_zeta_at_two_matches_published_digits():
    p2 = prime_zeta(2.0, 1e-8)
    assert p2.radius <= 1e-8
    assert abs(p2.value - 0.45224742) <= 1e-7


def test_prime_zeta_at_four_against_direct_prime_sum():
    # independent oracle: direct summation over primes below 10^6 plus the
    # integer tail bound beyond
    primes = sieve_primes(10**6).as_array().astype(np.float64)
    direct = float(np.sum(primes**-4.0))
    tail = (10.0**6) ** (-3.0) / 3.0
    p4 = prime_zeta(4.0, 1e-10)
    assert direct <= p4.value + p4.radius
    assert p4.value - p4.radius <= direct + tail
    assert abs(p4.value - 0.0769931) <= 1e-7


def test_prime_zeta_large_t_dominated_by_first_term():
    p = prime_zeta(40.0, 1e-12)
    assert abs(p.value - 2.0**-40) <= 2.0 * 3.0**-40 + p.radius


@pytest.mark.parametrize(
    "call,value_hex,radius_hex",
    [
        (lambda: riemann_zeta(1.5, 1e-12), "0x1.4e6250bfbd89ep+1", "0x1.4e6250c2a2247p-49"),
        (lambda: prime_zeta(2.0, 1e-8), "0x1.cf19f29587dedp-2", "0x1.3b13d299e53afp-29"),
        (lambda: prime_zeta(1.14, 1e-10), "0x1.d0d9b37ccf79ap+0", "0x1.61766f9ca7828p-35"),
        (lambda: tau_root(1e-8), "0x1.23ef0600a3d71p+0", "0x1.f5c28f0000000p-28"),
        (lambda: condition_margin(1.05, 1e-7), "-0x1.f245bfa27d7f0p-1", "0x1.052abf47c08d8p-24"),
        (lambda: tau_root(1e-6), "0x1.23ef0fae147aep+0", "0x1.f5c28f5c00000p-21"),
        (lambda: tau_root(1e-10), "0x1.23ef060450a3dp+0", "0x1.f5c2800000000p-35"),
        (lambda: tau_root(1e-12), "0x1.23ef06042875cp+0", "0x1.f5c0000000000p-41"),
    ],
    ids=[
        "zeta-1.5", "prime-zeta-2", "prime-zeta-1.14", "tau", "margin-1.05",
        "tau-1e-6", "tau-1e-10", "tau-1e-12",
    ],
)
def test_analytic_bits_pinned(call, value_hex, radius_hex):
    # the bits these enclosures had while each Moebius term was an ErrBoundReal
    # and every tau step evaluated its margin at radius 1e-12
    x = call()
    assert (x.value.hex(), x.radius.hex()) == (value_hex, radius_hex)


def test_tau_root_falls_back_to_the_finest_radius(monkeypatch):
    # a margin that settles no sign above radius 1e-12 sends every step to
    # the fallback, which must still bisect to the pinned bracket
    margin = analytic.condition_margin
    radii = []

    def open_above_finest(t, radius):
        radii.append(radius)
        g = margin(t, radius)
        return g if radius <= 1e-12 else ErrBoundReal(g.value, abs(g.value) + 1.0)

    monkeypatch.setattr(analytic, "condition_margin", open_above_finest)
    x = tau_root(1e-8)
    assert (x.value.hex(), x.radius.hex()) == ("0x1.23ef0600a3d71p+0", "0x1.f5c28f0000000p-28")
    # 2 ends and 25 midpoints, each coarse and then at 1e-12
    coarse, fine = radii[0::2], radii[1::2]
    assert len(coarse) == len(fine) == 27
    assert min(coarse) > 1e-12 and set(fine) == {1e-12}


def test_tau_root_raises_where_the_finest_radius_leaves_a_sign_open():
    with pytest.raises(PrecisionError) as info:
        tau_root(1e-13)
    assert str(info.value) == "condition margin sign at t=1.1403659591823725 undetermined"


def _trial_division_mobius(m: int) -> int:
    mu, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if m > 1 else mu


def test_moebius_table_matches_trial_division():
    assert len(_MOEBIUS) == _MOEBIUS_CAP + 1
    assert [_MOEBIUS[m] for m in range(1, _MOEBIUS_CAP + 1)] == [
        _trial_division_mobius(m) for m in range(1, _MOEBIUS_CAP + 1)
    ]


def _composed_prime_zeta(t: float, target: float) -> ErrBoundReal:
    """prime_zeta's series with every term an ErrBoundReal: public zeta, log
    and product, then the same truncation, fsums and padding."""
    m_trunc = max(1, math.ceil(2.0 / t))
    while 2.0 * 2.0 ** (-t * m_trunc) / m_trunc >= target / 2.0:
        m_trunc += 1
        if m_trunc > _MOEBIUS_CAP:
            raise PrecisionError("truncation")
    tail = 2.0 * 2.0 ** (-t * m_trunc) / m_trunc
    terms = [
        riemann_zeta(t * m, 1e300).log() * (mu / m)
        for m in range(1, m_trunc + 1)
        if (mu := _trial_division_mobius(m))
    ]
    value = math.fsum(term.value for term in terms)
    radius = math.fsum(term.radius for term in terms) + tail

    def pad(x):
        return 4.0 * sys.float_info.epsilon * abs(x) + math.ulp(0.0)

    result = ErrBoundReal(value, radius + pad(value) + pad(radius))
    if result.radius > target:
        raise PrecisionError("target")
    return result


def _outcome(fn, t, target):
    try:
        x = fn(t, target)
    except PrecisionError:
        return "PrecisionError"
    return x.value.hex(), x.radius.hex()


def test_prime_zeta_equals_errboundreal_composition_on_seeded_grid():
    # t in (1.0001, 60] at radii 1e-13..1e-6, and 100 more points at radii
    # 1e-16..1e-13, where rounding alone can exceed the target
    rng = random.Random(1301)
    grid = [
        (1.0 + 10.0 ** rng.uniform(-4.0, math.log10(59.0)), 10.0 ** rng.uniform(lo, hi))
        for lo, hi, count in ((-13.0, -6.0, 400), (-16.0, -13.0, 100))
        for _ in range(count)
    ]
    outcomes = [_outcome(prime_zeta, t, r) for t, r in grid]
    assert outcomes == [_outcome(_composed_prime_zeta, t, r) for t, r in grid]
    assert "PrecisionError" not in outcomes[:400]
    assert 0 < outcomes.count("PrecisionError") < 100


def _hexes(x: ErrBoundReal) -> tuple[str, str]:
    return x.value.hex(), x.radius.hex()


def _condition_sides(t, target):
    try:
        sides = check_condition_allprimes(t, target)
    except PrecisionError as exc:
        return str(exc)
    return _hexes(sides.lhs), _hexes(sides.rhs)


def _separate_sides(t, target):
    try:
        lhs = prime_zeta(t, target)
        rhs = condition_rhs_from_square_sum(prime_zeta(2.0 * t, target))
    except PrecisionError as exc:
        return str(exc)
    return _hexes(lhs), _hexes(rhs)


def test_condition_sides_equal_separate_prime_zetas_on_seeded_grid():
    # P(t) and P(2t) share their log zeta pairs inside the condition; each
    # side must keep the bits of its own prime_zeta.  t near 1, in (1, 60]
    # and up to 1e3; 1e-14 adds points where rounding exceeds the target.
    rng = random.Random(25)
    draws = (
        lambda: 1.0 + 10.0 ** rng.uniform(-6.0, 2.5),
        lambda: rng.uniform(1.0, 60.0),
        lambda: rng.uniform(1.0, 1e3),
    )
    radii = (1e-3, 1e-7, 1e-8, 1e-10, 1e-12, 1e-14)
    grid = [(draw(), r) for draw in draws for _ in range(70) for r in radii]
    outcomes = [_condition_sides(t, r) for t, r in grid]
    assert outcomes == [_separate_sides(t, r) for t, r in grid]
    errors = [r for (t, r), got in zip(grid, outcomes) if isinstance(got, str)]
    assert errors and set(errors) == {1e-14}


def test_tau_root_and_condition_zeta_work_is_bounded(monkeypatch):
    # counted, not timed: 881 zeta sums when every step summed P(t) and
    # P(2t) apart at radius 1e-12, 326 with coarse radii and shared terms
    count = [0]
    zeta_sum = analytic._zeta_sum

    def counted(s):
        count[0] += 1
        return zeta_sum(s)

    monkeypatch.setattr(analytic, "_zeta_sum", counted)
    tau_root(1e-8)
    assert count[0] <= 400

    count[0] = 0
    check_condition_allprimes(1.14, 1e-12)
    shared = count[0]
    count[0] = 0
    prime_zeta(1.14, 1e-12)
    prime_zeta(2.28, 1e-12)
    assert shared < count[0]


def test_prime_zeta_domain_errors():
    with pytest.raises(ValueError):
        prime_zeta(1.0, 1e-8)
    with pytest.raises(ValueError):
        prime_zeta(2.0, -1.0)


@pytest.mark.parametrize(
    "t1,t2",
    [(1.02, 1.03), (1.2, 1.5), (2.0, 2.01), (3.0, 5.0)],
)
def test_prime_zeta_strictly_decreasing(t1, t2):
    a = prime_zeta(t1, 1e-9)
    b = prime_zeta(t2, 1e-9)
    assert a.value - a.radius > b.value + b.radius


@pytest.mark.parametrize("t", [1.5, 2.0])
def test_sigma_t_converges_upward_to_prime_zeta(t):
    target = prime_zeta(t, 1e-10)
    previous = 0.0
    for n in (10, 100, 1000, 10**4, 10**5):
        partial = sigma_t(sieve_primes(n), t)
        assert partial.value >= previous
        previous = partial.value
        gap = target.value - partial.value
        integer_tail = n ** (1.0 - t) / (t - 1.0)
        assert -1e-12 <= gap <= integer_tail + target.radius


def test_sigma_t_examples():
    assert abs(sigma_t(PrimeSet([2, 3]), 1.0).value - 5.0 / 6.0) < 1e-15
    assert sigma_t(PrimeSet([2]), 2.0).value == 0.25
    first25 = sigma_t(sieve_primes(100), 1.0)
    oracle = math.fsum(1.0 / p for p in sieve_primes(100))
    assert abs(first25.value - oracle) <= first25.radius + 1e-15
    assert abs(first25.value - 1.8028) < 1e-4
    assert sigma_t(PrimeSet([]), 1.0).value == 0.0


def test_sigma_t_weighs_by_libm_pow():
    # each term is Python's float ** (libm's pow), whatever SIMD kernel
    # numpy's own power would dispatch to on this CPU
    rng = random.Random(23)
    primes = sieve_primes(10**5).as_list()
    for _ in range(300):
        chosen = sorted(rng.sample(primes, rng.randint(1, 2000)))
        t = rng.uniform(1.0, 3.0)
        terms = np.array([float(p) ** -t for p in chosen])
        assert sigma_t(PrimeSet(chosen, validate=False), t).value == float(np.sum(terms))


def test_condition_rhs_examples():
    single = condition_rhs(PrimeSet([2]), 1.0)
    assert abs(single.value - (1.0 + math.sqrt(0.75))) < 1e-12
    allp = condition_rhs_from_square_sum(prime_zeta(2.0, 1e-9))
    assert abs(allp.value - 1.74010308) <= 1e-7
    # the twin-prime bound path: square sum replaced by its 1/9 bound
    twin_path = condition_rhs_from_square_sum(ErrBoundReal.exact(1.0 / 9.0))
    assert twin_path.value - twin_path.radius >= 1.9428


def test_condition_rhs_guards_against_interval_reaching_one():
    with pytest.raises(PrecisionError):
        condition_rhs_from_square_sum(ErrBoundReal(0.999999, 1e-5))


def test_check_condition_examples():
    assert check_condition(PrimeSet([2]), 1.0).verdict == "holds"
    assert check_condition(sieve_primes(100), 1.0).verdict == "fails"
    assert check_condition(PrimeSet([5, 7, 11, 13]), 1.0).verdict == "holds"
    with pytest.raises(ValueError):
        check_condition(PrimeSet([2]), 0.5)


def test_check_condition_order_invariant():
    a = check_condition(PrimeSet([13, 5, 11, 7]), 1.0)
    b = check_condition(PrimeSet([5, 7, 11, 13]), 1.0)
    assert a.verdict == b.verdict
    assert a.lhs.value == b.lhs.value


def test_condition_verdict_semantics():
    tight = ErrBoundReal(1.0, 1e-12)
    assert ConditionVerdict.compare(tight, ErrBoundReal(2.0, 1e-12)).verdict == "holds"
    assert ConditionVerdict.compare(ErrBoundReal(2.0, 1e-12), tight).verdict == "fails"
    wide = ErrBoundReal(1.0, 0.5)
    assert ConditionVerdict.compare(wide, ErrBoundReal(1.2, 0.5)).verdict == "inconclusive"


def test_check_condition_allprimes():
    assert check_condition_allprimes(2.0).verdict == "holds"
    assert check_condition_allprimes(1.2).verdict == "holds"
    assert check_condition_allprimes(1.05).verdict == "fails"
    with pytest.raises(ValueError):
        check_condition_allprimes(1.0)


def test_condition_margin_signs_stable():
    for _ in range(2):
        assert condition_margin(1.05, 1e-7).upper() < 0.0
        assert condition_margin(1.5, 1e-7).lower() > 0.0


def test_tau_root_encloses_published_digits():
    tau = tau_root(1e-6)
    assert tau.radius <= 1e-6
    assert abs(tau.value - 1.1403659) <= 1e-6
    # tighter run stays inside the coarse enclosure
    fine = tau_root(1e-7)
    assert abs(fine.value - tau.value) <= tau.radius + fine.radius


def test_tau_root_rejects_bad_target():
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            tau_root(bad)


# -- mpmath as an independent oracle -----------------------------------------

near_one = st.floats(min_value=-6.0, max_value=2.5).map(lambda u: 1.0 + 10.0**u)
targets = st.floats(min_value=-13.0, max_value=-2.0).map(lambda u: 10.0**u)


def _encloses_mp(x: ErrBoundReal, fn, arg) -> bool:
    """Whether x holds fn(arg), computed by mpmath at 40 digits."""
    with mpmath.workdps(40):
        return abs(mpmath.mpf(x.value) - fn(mpmath.mpf(arg))) <= mpmath.mpf(x.radius)


@given(near_one, targets)
@settings(max_examples=300, deadline=None)
def test_zeta_encloses_mpmath(s, target):
    try:
        z = riemann_zeta(s, target)
    except PrecisionError:
        # allowed only where rounding, 4 ulps of zeta(s) < s/(s-1), exceeds the target
        assert target < 5.0 * np.finfo(float).eps * s / (s - 1.0)
        return
    assert z.radius <= target
    assert _encloses_mp(z, mpmath.zeta, s)


@given(near_one, targets)
@settings(max_examples=100, deadline=None)
def test_prime_zeta_encloses_mpmath(t, target):
    try:
        p = prime_zeta(t, target)
    except PrecisionError:
        # rounding alone is below 9e-14 for t >= 1 + 1e-6, and the truncation
        # takes less than half the target
        assert target < 2e-13
        return
    assert p.radius <= target
    assert _encloses_mp(p, mpmath.primezeta, t)


def test_tight_enclosures_against_mpmath():
    z = riemann_zeta(1.5, 1e-12)
    assert z.radius <= 1e-12 and _encloses_mp(z, mpmath.zeta, 1.5)
    p = prime_zeta(1.14, 1e-10)
    assert p.radius <= 1e-10 and _encloses_mp(p, mpmath.primezeta, 1.14)
    for t in (1.000001, 1.01):
        p = prime_zeta(t, 1e-13)
        assert p.radius <= 1e-13 and _encloses_mp(p, mpmath.primezeta, t)
    tau = tau_root(1e-10)
    assert tau.radius <= 1e-10 and _encloses_mp(tau, mpmath.mpf, "1.14036595918233")


@pytest.mark.parametrize("t", [1070.5, 1e308])
def test_sigma_t_encloses_mpmath_where_terms_underflow(t):
    # 2^-1070.5 is subnormal and 3^-1070.5 rounds to 0; at 1e308 both do
    s = sigma_t(PrimeSet([2, 3]), t)
    assert _encloses_mp(s, lambda x: mpmath.mpf(2) ** -x + mpmath.mpf(3) ** -x, t)


def test_to_json_shapes():
    assert list(jsonable(riemann_zeta(2.0, 1e-8))) == ["value", "radius"]
    verdict = jsonable(check_condition(PrimeSet([2]), 1.0))
    assert list(verdict) == ["verdict", "lhs", "rhs"]
