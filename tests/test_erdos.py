import math
import random

import mpmath
import pytest
from scipy.integrate import quad

from primopt import erdos
from primopt.erdos import erdos_sum, integral_bridge_check


def test_erdos_sum_examples():
    assert erdos_sum([2]) == pytest.approx(1.0 / (2.0 * math.log(2.0)))
    assert erdos_sum([2, 3, 5]) == pytest.approx(
        sum(1.0 / (n * math.log(n)) for n in (2, 3, 5))
    )
    assert erdos_sum([2, 3, 5]) == pytest.approx(1.1490276, abs=1e-7)
    assert erdos_sum([4, 6, 9]) == pytest.approx(0.3239242, abs=1e-7)


def test_erdos_sum_domain_errors():
    # one refusal, with one message, for the sum and the bridge
    for members in ([], [1, 2]):
        for check in (erdos_sum, integral_bridge_check):
            with pytest.raises(ValueError, match="need a nonempty set of integers >= 2"):
                check(members)


def test_bridge_closed_form_single_element():
    check = integral_bridge_check([2])
    assert check.verdict == "holds" and check.lhs.value <= check.rhs.value <= 1e-6


@pytest.mark.parametrize("members", [[2, 3, 5], [4, 6, 9]])
def test_bridge_small_sets(members):
    check = integral_bridge_check(members)
    assert check.verdict == "holds" and check.lhs.value <= check.rhs.value <= 1e-6


def test_bridge_agrees_with_scipy_quadrature():
    for members in ([2], [2, 3, 5], [4, 6, 9], [8, 12, 18, 27]):
        target, _ = quad(lambda t: sum(float(n) ** -t for n in members), 1.0, 200.0)
        assert target == pytest.approx(erdos_sum(members), abs=1e-9)
        check = integral_bridge_check(members)
        assert check.verdict == "holds" and check.lhs.value <= check.rhs.value <= 1e-6


def _seeded_members(seed):
    """Up to 20 members below 10^6 and up to 3 above 2^53, or 500 below 10^6."""
    rng = random.Random(seed)
    if seed == 0:
        return sorted(set(rng.sample(range(2, 10**6), 500)))
    small = {rng.randrange(2, 10**6) for _ in range(rng.randint(1, 20))}
    return sorted(small | {rng.randrange(2**53 + 1, 2**63) for _ in range(rng.randint(0, 3))})


@pytest.mark.parametrize("seed", range(6))
def test_bridge_enclosure_holds_the_reciprocal_log_sum(seed):
    # mpmath's 50-digit sum of 1/(n log n) over the exact integers lies in the
    # enclosed integral, and the direct sum meets it
    members = _seeded_members(seed)
    with mpmath.workdps(50):
        exact = mpmath.fsum(1 / (mpmath.mpf(n) * mpmath.log(n)) for n in members)
        integral = erdos._bridge_integral([float(n) for n in members])
        assert integral.lower() <= exact <= integral.upper()
    check = integral_bridge_check(members)
    assert check.verdict == "holds" and check.rhs.value <= 1e-4


def test_bridge_rejects_bad_sets():
    with pytest.raises(ValueError):
        integral_bridge_check([1, 2])
    with pytest.raises(ValueError):
        integral_bridge_check([])
