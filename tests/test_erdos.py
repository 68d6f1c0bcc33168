import math

import pytest
from scipy.integrate import quad

from primopt.erdos import erdos_sum, integral_bridge_check


def test_erdos_sum_examples():
    assert erdos_sum([2]) == pytest.approx(1.0 / (2.0 * math.log(2.0)))
    assert erdos_sum([2, 3, 5]) == pytest.approx(
        sum(1.0 / (n * math.log(n)) for n in (2, 3, 5))
    )
    assert erdos_sum([2, 3, 5]) == pytest.approx(1.1490276, abs=1e-7)
    assert erdos_sum([4, 6, 9]) == pytest.approx(0.3239242, abs=1e-7)


def test_erdos_sum_domain_errors():
    with pytest.raises(ValueError):
        erdos_sum([])
    with pytest.raises(ValueError):
        erdos_sum([1, 2])


def test_bridge_closed_form_single_element():
    check = integral_bridge_check([2], 1e-6)
    assert check.verdict == "holds" and check.lhs.value <= 1e-6 and check.rhs.value == 1e-6


@pytest.mark.parametrize("members", [[2, 3, 5], [4, 6, 9]])
def test_bridge_small_sets(members):
    check = integral_bridge_check(members, 1e-4)
    assert check.verdict == "holds" and check.lhs.value <= 1e-4 and check.rhs.value == 1e-4


def test_bridge_agrees_with_scipy_quadrature():
    for members in ([2], [2, 3, 5], [4, 6, 9], [8, 12, 18, 27]):
        target, _ = quad(lambda t: sum(float(n) ** -t for n in members), 1.0, 200.0)
        assert target == pytest.approx(erdos_sum(members), abs=1e-9)
        check = integral_bridge_check(members, 1e-5)
        assert check.verdict == "holds" and check.lhs.value <= 1e-5 and check.rhs.value == 1e-5


def test_bridge_rejects_bad_sets():
    with pytest.raises(ValueError):
        integral_bridge_check([1, 2])
    with pytest.raises(ValueError):
        integral_bridge_check([])
