import math
from fractions import Fraction

import pytest

from primopt.twin import (
    BrunInput,
    PROVEN_BRUN_BOUND,
    FULL_TWIN_SQUARE_BRACKET,
    brun_partial,
    corollary_check,
    six_n_square_tail,
    full_twin_check,
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


def test_square_bound_with_three_includes_one_ninth_term():
    with_three = twin_square_bound(10**4, include_three=True)
    without = twin_square_bound(10**4)
    assert with_three.value - without.value == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_proven_bound_constant():
    assert PROVEN_BRUN_BOUND == 2.347
