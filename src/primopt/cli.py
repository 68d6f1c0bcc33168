"""Command-line front end: one subcommand per operation plus a one-shot suite.

Every invocation writes a single JSON document to stdout, wrapped in a
stable envelope: claim, verdict, lhs, rhs, runtime_ms, detail.  Exit codes:
0 holds, 1 fails, 2 inconclusive or precision-limited, 3 usage/domain
error, 4 resource limit.

The suite's checks are not defined here: ``primopt suite`` runs the table in
:mod:`primopt.checks`, the single source it shares with the acceptance tests.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import analytic, erdos, oracle, symfunc, twin
from .analytic import HOLDS, FAILS, INCONCLUSIVE, MEMBERS_SHOWN, ErrBoundReal, jsonable
from .checks import CHECKS
from .errors import PrecisionError, SizeLimitError
from .primes import PrimeSet, sieve_primes, twin_primes

_EXIT_BY_VERDICT = {HOLDS: 0, FAILS: 1, INCONCLUSIVE: 2}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _prime_set_sources(args) -> list[str]:
    """The prime-set source flags given, in the order of the parser."""
    given = {"--primes": args.primes, "--primes-below": args.primes_below,
             "--twins-below": args.twins_below}
    return [flag for flag, value in given.items() if value is not None]


def _refuse_beside(flag: str, args, *also: str) -> None:
    """Refuse a prime-set flag, or any of the flags ``also``, given beside ``flag``."""
    beside = [*_prime_set_sources(args), *["--include-three"] * args.include_three, *also]
    if beside:
        raise ValueError(f"{flag} and {beside[0]} are exclusive")


def _comma_list(flag: str, text: str, kind: type, noun: str) -> list:
    """The entries of ``flag``'s comma-separated value, each read by ``kind``."""
    if not text:
        raise ValueError(f"{flag} needs at least one {noun}")
    entries = []
    for entry in text.split(","):
        try:
            entries.append(kind(entry))
        except ValueError:
            raise ValueError(f"{flag} has a malformed entry {entry!r}") from None
    return entries


def _prime_set(args) -> PrimeSet:
    if len(_prime_set_sources(args)) != 1:
        raise ValueError(
            "exactly one of --primes / --primes-below / --twins-below is required"
        )
    if args.include_three and args.twins_below is None:
        raise ValueError("--include-three applies only to --twins-below")
    if args.primes is not None:
        return PrimeSet(_comma_list("--primes", args.primes, int, "prime"))
    if args.primes_below is not None:
        return sieve_primes(args.primes_below)
    return twin_primes(args.twins_below, include_three=args.include_three)


def _add_truncation_args(p: _Parser, *level_flag, **level_opts) -> None:
    """The Omega floor (``level_flag``) and the caps of a truncated universe."""
    p.add_argument(*level_flag, type=int, **level_opts)
    p.add_argument("--max-omega", type=int, required=True)
    p.add_argument("--max-value", type=int, required=True)
    p.add_argument("--max-elements", type=int, default=oracle.DEFAULT_MAX_ELEMENTS)


def _envelope(claim, verdict, lhs=None, rhs=None, **detail) -> dict:
    return {
        "claim": claim,
        "verdict": verdict,
        "lhs": jsonable(lhs),
        "rhs": jsonable(rhs),
        "runtime_ms": None,  # filled in by main
        "detail": jsonable(detail),
    }


def _report_envelope(report, lhs=None, rhs=None) -> dict:
    """Envelope of a report: its claim and verdict, the rest of its JSON as detail."""
    body = jsonable(report)
    return _envelope(body.pop("claim"), body.pop("verdict"), lhs=lhs, rhs=rhs, **body)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns an envelope dict
# ---------------------------------------------------------------------------


def _cmd_prime_zeta(args):
    value = analytic.prime_zeta(args.t, args.radius)
    return _envelope(f"prime zeta at t={args.t}", HOLDS, lhs=value, rhs=None)


def _cmd_zeta(args):
    value = analytic.riemann_zeta(args.s, args.radius)
    return _envelope(f"zeta at s={args.s}", HOLDS, lhs=value, rhs=None)


def _cmd_tau(args):
    value = analytic.tau_root(args.radius)
    return _envelope("condition-margin threshold root", HOLDS, lhs=value, rhs=None)


def _cmd_check_condition(args):
    if args.all_primes:
        _refuse_beside("--all-primes", args)
        radius = 1e-8 if args.radius is None else args.radius
        verdict = analytic.check_condition_allprimes(args.t, radius)
        claim = f"all-primes condition at t={args.t}"
    else:
        if args.radius is not None:
            raise ValueError("--radius applies only to --all-primes")
        prime_set = _prime_set(args)
        verdict = analytic.check_condition(prime_set, args.t)
        claim = f"condition at t={args.t} for {len(prime_set)} primes"
    return _envelope(claim, verdict.verdict, lhs=verdict.lhs, rhs=verdict.rhs)


def _cmd_hk(args):
    prime_set = _prime_set(args)
    if args.exact:
        xs = symfunc.exact_weights_from_primes(prime_set, args.t, args.kmax)
    else:
        xs = symfunc.power_weights(prime_set, args.t)
    h = symfunc.h_all(xs, args.kmax)
    return _envelope(
        f"level sums h_0..h_{args.kmax} at t={args.t}",
        HOLDS,
        lhs=ErrBoundReal.exact(float(h[-1])),
        h=[str(v) if args.exact else float(v) for v in h],
    )


def _cmd_schur(args):
    if args.weights is None:
        xs = symfunc.power_weights(_prime_set(args), 1.0 if args.t is None else args.t)
    else:
        _refuse_beside("--weights", args, *["--t"] * (args.t is not None))
        xs = _comma_list("--weights", args.weights, float, "weight")
    ok, witness = symfunc.schur_check(xs, args.kmax)
    return _envelope(
        f"log-concavity determinants up to k={args.kmax}",
        HOLDS if ok else FAILS,
        first_violation=witness,
    )


def _cmd_chain(args):
    return _report_envelope(symfunc.chain_check(_prime_set(args), args.t, args.kmax))


def _cmd_identity(args):
    prime_set = _prime_set(args)
    identity = symfunc.square_identity_check(prime_set, args.t)
    equivalent = symfunc.quadratic_equivalence_check(prime_set, args.t)
    return _envelope(
        f"square identity and quadratic equivalence at t={args.t}",
        HOLDS if identity.verdict == HOLDS and equivalent else FAILS,
        lhs=identity.lhs,
        rhs=identity.rhs,
        quadratic_equivalence=equivalent,
    )


def _cmd_decompose(args):
    ok = symfunc.decomposition_partition_check(_prime_set(args), args.ell, args.s)
    return _envelope(
        f"gcd-block partition of level {args.ell} by s={args.s}",
        HOLDS if ok else FAILS,
    )


def _universe(args) -> oracle.TruncatedUniverse:
    return oracle.build_universe(
        _prime_set(args), args.k_lo, args.max_omega, args.max_value, args.max_elements
    )


def _cmd_universe(args):
    u = _universe(args)
    return _envelope(
        "truncated universe enumeration",
        HOLDS,
        size=len(u),
        elements=sorted(map(int, u.elements))[:MEMBERS_SHOWN],
    )


def _cmd_oracle(args):
    u = _universe(args)
    if args.brute_force:
        antichain, weight = oracle.max_weight_antichain_bruteforce(u, args.t)
    else:
        antichain, weight = oracle.max_weight_antichain_flow(u, args.t)
    return _envelope(
        f"maximum-weight antichain at t={args.t}",
        HOLDS,
        lhs=ErrBoundReal.exact(weight),
        universe_size=len(u),
        members=antichain,
    )


def _cmd_verify(args):
    prime_set = _prime_set(args)
    level_and_caps = (args.k, args.max_omega, args.max_value, args.max_elements)
    if args.command == "verify-tbest":
        report = oracle.verify_tbest(prime_set, args.t, *level_and_caps)
    else:
        report = oracle.verify_erdos_best(prime_set, *level_and_caps)
    return _report_envelope(
        report,
        lhs=ErrBoundReal.exact(report.optimum_weight),
        rhs=ErrBoundReal.exact(report.reference_weight),
    )


def _cmd_twin(args):
    twins = twin_primes(args.below, include_three=args.include_three)
    return _envelope(
        f"twin primes up to {args.below}",
        HOLDS,
        count=len(twins),
        members=twins.as_array()[:MEMBERS_SHOWN].tolist(),
    )


def _cmd_brun(args):
    value = twin.brun_partial(args.limit)
    return _envelope(f"partial Brun sum to {args.limit}", HOLDS, lhs=value)


def _cmd_corollary(args):
    brun_input = twin.BrunInput(args.brun_bound, args.brun_source)
    if args.with_three:
        report = twin.full_twin_check(brun_input, args.limit)
    else:
        report = twin.corollary_check(brun_input, args.limit)
    return _report_envelope(report)


def _members(args) -> list[int]:
    """The distinct entries of ``--members``, ascending: the set weighed."""
    return sorted(set(_comma_list("--members", args.members, int, "member")))


def _cmd_erdos_sum(args):
    members = _members(args)
    return _envelope(
        "reciprocal-log weight sum",
        HOLDS,
        lhs=ErrBoundReal.exact(erdos.erdos_sum(members)),
        members=members,
    )


def _cmd_bridge(args):
    members = _members(args)
    bridge = erdos.integral_bridge_check(members)
    return _envelope(
        "integral bridge between power and reciprocal-log weights",
        bridge.verdict,
        lhs=bridge.lhs,
        rhs=bridge.rhs,
        members=members,
    )


# ---------------------------------------------------------------------------
# the one-shot suite: every row of primopt.checks
# ---------------------------------------------------------------------------


def _cmd_suite(args):
    rng = random.Random(args.seed)
    rows = []
    for check in CHECKS:
        started = time.monotonic()
        computed, ok = check.run(rng)
        elapsed_ms = int((time.monotonic() - started) * 1000)
        rows.append(
            {
                "claim": check.claim,
                "computed": computed,
                "expected": check.expected,
                "verdict": HOLDS if ok else FAILS,
                "runtime_ms": elapsed_ms,
            }
        )
    all_hold = all(row["verdict"] == HOLDS for row in rows)
    return _envelope(
        "verification suite", HOLDS if all_hold else FAILS, checks=rows
    )


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    prime_set_args = argparse.ArgumentParser(add_help=False)
    prime_set_args.add_argument("--primes", help="comma-separated primes, e.g. 2,3,5")
    prime_set_args.add_argument("--primes-below", type=int, help="all primes <= N")
    prime_set_args.add_argument("--twins-below", type=int, help="twin primes <= N")
    prime_set_args.add_argument(
        "--include-three", action="store_true", help="include 3 with --twins-below"
    )

    parser = _Parser(prog="primopt")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, *parents):
        p = sub.add_parser(name, parents=parents)
        p.set_defaults(handler=handler)
        return p

    p = add_parser("prime-zeta", _cmd_prime_zeta)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--radius", type=float, default=1e-8)

    p = add_parser("zeta", _cmd_zeta)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--radius", type=float, default=1e-10)

    p = add_parser("tau", _cmd_tau)
    p.add_argument("--radius", type=float, default=1e-6)

    p = add_parser("check-condition", _cmd_check_condition, prime_set_args)
    p.add_argument("--all-primes", action="store_true")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--radius", type=float, help="all-primes only; default 1e-8")

    p = add_parser("hk", _cmd_hk, prime_set_args)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--exact", action="store_true")

    p = add_parser("schur", _cmd_schur, prime_set_args)
    p.add_argument("--weights", help="comma-separated weights in (0,1)")
    p.add_argument("--t", type=float, help="prime weights only; default 1")
    p.add_argument("--kmax", type=int, required=True)

    p = add_parser("chain", _cmd_chain, prime_set_args)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--kmax", type=int, required=True)

    p = add_parser("identity", _cmd_identity, prime_set_args)
    p.add_argument("--t", type=float, default=1.0)

    p = add_parser("decompose", _cmd_decompose, prime_set_args)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s", type=int, required=True)

    p = add_parser("universe", _cmd_universe, prime_set_args)
    _add_truncation_args(p, "--k-lo", default=1)

    p = add_parser("oracle", _cmd_oracle, prime_set_args)
    _add_truncation_args(p, "--k-lo", default=1)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--brute-force", action="store_true")

    p = add_parser("verify-tbest", _cmd_verify, prime_set_args)
    p.add_argument("--t", type=float, required=True)
    _add_truncation_args(p, "--k", required=True)

    p = add_parser("verify-erdos", _cmd_verify, prime_set_args)
    _add_truncation_args(p, "--k", required=True)

    p = add_parser("twin", _cmd_twin)
    p.add_argument("--below", type=int, required=True)
    p.add_argument("--include-three", action="store_true")

    p = add_parser("brun", _cmd_brun)
    p.add_argument("--limit", type=int, required=True)

    p = add_parser("corollary", _cmd_corollary)
    p.add_argument("--brun-bound", type=float, required=True)
    p.add_argument("--brun-source", default="unspecified")
    p.add_argument("--limit", type=int, default=10**6)
    p.add_argument(
        "--with-three", action="store_true",
        help="check the full twin set including 3 instead",
    )

    p = add_parser("erdos-sum", _cmd_erdos_sum)
    p.add_argument("--members", required=True)

    p = add_parser("bridge", _cmd_bridge)
    p.add_argument("--members", required=True)

    p = add_parser("suite", _cmd_suite)
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:
        report = args.handler(args)
    except PrecisionError as exc:
        report = _envelope(str(exc), INCONCLUSIVE)
    except (SizeLimitError, MemoryError) as exc:
        # out of memory is a resource limit too; as a traceback it would
        # exit 1, which reads as a failed claim
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    report["runtime_ms"] = int((time.monotonic() - started) * 1000)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return _EXIT_BY_VERDICT.get(report["verdict"], 0)


if __name__ == "__main__":
    raise SystemExit(main())
