"""Optimality certificates for primitive sets over restricted prime alphabets.

A primitive set contains no element dividing another.  This package computes
the analytic quantities governing when the generating primes (or a fixed
prime-factor-count slice) are the heaviest primitive subset of their
multiplicative semigroup, and certifies those optimality statements on
finite truncations with an exact max-weight-antichain oracle.
"""

from types import ModuleType as _ModuleType

from .analytic import (
    ConditionVerdict,
    ErrBoundReal,
    VerificationReport,
    check_condition,
    check_condition_allprimes,
    condition_margin,
    condition_rhs,
    prime_zeta,
    riemann_zeta,
    sigma_t,
    tau_root,
)
from .erdos import erdos_sum, integral_bridge_check
from .errors import PrecisionError, SizeLimitError
from .oracle import (
    Antichain,
    OptimalityReport,
    TruncatedUniverse,
    build_universe,
    is_primitive,
    max_weight_antichain_bruteforce,
    max_weight_antichain_flow,
    verify_erdos_best,
    verify_tbest,
)
from .primes import PrimeSet, is_prime, omega, sieve_primes, twin_primes
from .symfunc import (
    chain_check,
    decomposition_partition_check,
    h_all,
    quadratic_equivalence_check,
    schur_check,
    sigma_nk,
    square_identity_check,
)
from .twin import (
    BrunInput,
    brun_partial,
    corollary_check,
    full_twin_check,
    full_twin_verdict,
    twin_reciprocal_bound,
    twin_square_bound,
)

# public: every name imported above, and none of the submodules
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
