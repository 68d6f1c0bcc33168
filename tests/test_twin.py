import math
import random
from fractions import Fraction

import pytest

from primopt import checks, primes
from primopt.analytic import ErrBoundReal, jsonable
from primopt.twin import (
    BrunInput,
    PROVEN_BRUN_BOUND,
    FULL_TWIN_SQUARE_BRACKET,
    brun_partial,
    corollary_check,
    six_n_square_tail,
    full_twin_check,
    full_twin_verdict,
    twin_reciprocal_bound,
    twin_square_bound,
)


def trial_twin_pairs(limit):
    def prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    return [p for p in range(3, limit + 1) if prime(p) and prime(p + 2)]


def test_brun_input_validation():
    with pytest.raises(ValueError):
        BrunInput(1.8)
    assert BrunInput(2.347, "proven").is_conditional() is False
    assert BrunInput(1.90216, "believed").is_conditional() is True


def test_brun_partial_pair_convention():
    # pairs (3,5), (5,7), (11,13): 5 is counted in both of its pairs
    exact = Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 5) + Fraction(1, 7) \
        + Fraction(1, 11) + Fraction(1, 13)
    got = brun_partial(13)
    assert abs(got.value - float(exact)) <= got.radius + 1e-15
    first_two = brun_partial(5)
    assert abs(first_two.value - float(Fraction(1, 3) + Fraction(2, 5) + Fraction(1, 7))) < 1e-15


def test_brun_partial_against_trial_division():
    pairs = trial_twin_pairs(10**4)
    oracle = math.fsum(1.0 / p + 1.0 / (p + 2) for p in pairs)
    got = brun_partial(10**4)
    assert abs(got.value - oracle) < 1e-12


def test_brun_partial_monotone_and_below_accepted_bounds():
    values = [brun_partial(n).value for n in (10, 100, 10**4, 10**6)]
    assert values == sorted(values)
    assert values[-1] < 1.9  # far below any accepted Brun input
    assert abs(values[-1] - 1.71) < 5e-3


def test_brun_partial_domain():
    with pytest.raises(ValueError):
        brun_partial(4)


def test_twin_reciprocal_bound_values():
    assert twin_reciprocal_bound(BrunInput(2.347, "proven")).value == pytest.approx(
        2.347 - 1 / 3 - 0.2
    )
    assert twin_reciprocal_bound(BrunInput(2.347, "proven")).value < 1.814
    assert twin_reciprocal_bound(BrunInput(2.0959621, "x")).value == pytest.approx(1.5626287666)
    assert twin_reciprocal_bound(BrunInput(1.90216, "believed")).value == pytest.approx(1.3688266666)


def test_six_n_tail_closed_form():
    # started from the very beginning the telescoping collapses to 1/9
    assert six_n_square_tail(4) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert six_n_square_tail(5) == pytest.approx(1.0 / 27.0 + 1.0 / 49.0, abs=1e-15)
    assert six_n_square_tail(7) == pytest.approx(1.0 / 27.0, abs=1e-15)
    # the tail really does dominate the series it bounds
    for limit in (5, 11, 100):
        direct = sum(
            1.0 / m**2
            for m in range(limit + 1, 10**6)
            if m % 6 in (1, 5)
        )
        assert direct < six_n_square_tail(limit)


def test_twin_square_bound_is_enclosure_below_one_ninth():
    pairs = trial_twin_pairs(10**4)
    members = sorted({q for p in pairs for q in (p, p + 2) if q > 3})
    truth_partial = math.fsum(1.0 / q**2 for q in members)
    bound = twin_square_bound(10**4)
    assert bound.lower() <= truth_partial
    assert bound.upper() < 1.0 / 9.0
    # the true (infinite) sum is below the upper edge: partial plus real tail
    assert truth_partial + six_n_square_tail(10**4) >= bound.upper() - 1e-12


def test_twin_square_bound_decreasing_limit_loosens():
    uppers = [twin_square_bound(n).upper() for n in (5, 100, 10**4, 10**6)]
    assert uppers == sorted(uppers, reverse=True)
    assert all(u < 1.0 / 9.0 for u in uppers)


def test_twin_square_bound_low_limit():
    bound = twin_square_bound(5)
    assert bound.lower() == pytest.approx(1.0 / 25.0, abs=1e-12)
    assert bound.upper() == pytest.approx(1.0 / 25.0 + 1.0 / 27.0 + 1.0 / 49.0, abs=1e-12)
    with pytest.raises(ValueError):
        twin_square_bound(4)


def test_corollary_chain_with_proven_bound():
    report = corollary_check(BrunInput(2.347, "proven"), 10**6)
    assert report.holds()
    assert report.notes == []
    links = report.quantities["links"]
    assert all(v.verdict == "holds" for v in links.values())


def test_corollary_chain_fails_beyond_first_link():
    report = corollary_check(BrunInput(2.50, "hypothetical"), 10**5)
    assert report.verdict == "fails"
    assert report.quantities["links"]["reciprocal_below_1.814"].verdict == "fails"


def test_corollary_chain_flags_believed_value():
    report = corollary_check(BrunInput(1.90216, "believed value"), 10**5)
    assert report.holds()
    assert any("conditional" in note for note in report.notes)


def test_full_twin_verdicts_at_moderate_limit():
    holds = full_twin_check(BrunInput(2.0959621, "required"), 10**7)
    assert holds.verdict == "holds"
    assert any("conditional" in n for n in holds.notes)
    fails = full_twin_check(BrunInput(2.347, "proven"), 10**7)
    assert fails.verdict == "fails"


def test_full_twin_square_enclosure_consistent_with_published_bracket():
    report = full_twin_check(BrunInput(2.0959621, "required"), 10**7)
    square = report.quantities["square_bound"]
    lo, hi = FULL_TWIN_SQUARE_BRACKET
    assert square.lower() <= hi and square.upper() >= lo
    assert any("consistent" in n for n in report.notes)
    threshold = report.quantities["critical_brun_threshold"]
    assert threshold == pytest.approx(1.2 + math.sqrt(1 - square.upper()), abs=1e-12)


def test_twin_with_three_row_sieves_once(monkeypatch):
    scans = []

    def counting_wheel(limit, *args, **kwargs):
        scans.append(limit)
        return wheel(limit, *args, **kwargs)

    wheel = primes._wheel_segments
    monkeypatch.setattr(primes, "_wheel_segments", counting_wheel)
    row = next(c for c in checks.CHECKS if c.name == "twin_with_three_conditional")
    assert row.run(random.Random(0)) == ("holds/fails", True)
    assert scans == [10**8 + 2]


def test_full_twin_check_report_at_ten_million():
    # the enclosure, threshold and verdicts the check gave when it still
    # computed S once per Brun bound, the radius since ErrBoundReal's
    # addition pads the tail term; the tolerance allows for numpy's
    # summation order on another CPU, a few ulps of binary64
    close = dict(rel=1e-14, abs=0.0)
    square = twin_square_bound(10**7, include_three=True)
    assert square.value == pytest.approx(0.19725179233496232, **close)
    assert square.radius == pytest.approx(1.6666669596834956e-08, **close)
    for bound, verdict in ((2.0959621, "holds"), (2.347, "fails")):
        brun = BrunInput(bound, "pinned")
        report = full_twin_check(brun, 10**7)
        assert report.verdict == verdict
        threshold = report.quantities["critical_brun_threshold"]
        assert threshold == pytest.approx(2.095962159356279, **close)
        assert report.quantities["comparison"].rhs.value == pytest.approx(1.8959621686572696, **close)
        assert jsonable(report) == jsonable(full_twin_verdict(brun, 10**7, square))


def test_full_twin_verdict_notes_an_enclosure_outside_the_published_bracket():
    report = full_twin_verdict(BrunInput(2.0, "x"), 10**4, ErrBoundReal(0.1, 1e-9))
    assert report.notes[-1] == (
        "computed square-sum enclosure is inconsistent with the published "
        f"bracket {FULL_TWIN_SQUARE_BRACKET}"
    )


def _sieve_flags(n):
    flags = bytearray([1]) * (n + 1)
    flags[:2] = b"\0\0"
    for d in range(2, math.isqrt(n) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, n + 1, d)))
    return flags


@pytest.mark.parametrize("limit", [10**4, 10**5])
@pytest.mark.parametrize("include_three", [False, True])
def test_twin_square_bound_encloses_exact_partial_sum(limit, include_three):
    # exact rational sum over twins found by a plain bytearray sieve; the
    # enclosure less its tail term must still hold it
    flags = _sieve_flags(limit + 2)
    twins = [
        p for p in range(3 if include_three else 5, limit + 1)
        if flags[p] and (flags[p - 2] or flags[p + 2])
    ]
    exact = sum(Fraction(1, p * p) for p in twins)
    bound = twin_square_bound(limit, include_three=include_three)
    tail = Fraction(six_n_square_tail(limit))
    assert Fraction(bound.lower()) <= exact <= Fraction(bound.upper()) - tail


def test_square_bound_with_three_includes_one_ninth_term():
    with_three = twin_square_bound(10**4, include_three=True)
    without = twin_square_bound(10**4)
    assert with_three.value - without.value == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_proven_bound_constant():
    assert PROVEN_BRUN_BOUND == 2.347
