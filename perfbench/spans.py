"""Layer spans recorded from outside the package.

``Tracer.install`` replaces every public function of every ``primopt``
module with a timing wrapper, on every module that binds the name (so
``oracle.check_condition`` and ``twin.twin_primes`` are wrapped as well as
their home modules), plus the ``TruncatedUniverse.covering_edges`` method.
A span is named after the function's home module, e.g.
``analytic.prime_zeta`` or ``oracle.TruncatedUniverse.covering_edges``.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.

Each span records its inclusive time, its self time (inclusive minus the
spans it directly encloses) and its call count.  A few spans also add
counts taken from their arguments or results (see ``_COUNTERS``), and the
first span an exception of a counted type leaves is charged with it.
``layer_metrics`` folds these into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "primopt"
_METHODS = (("oracle", "TruncatedUniverse", "covering_edges"),)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# span name -> (counter name, function of (args, kwargs, result) -> amount)
_COUNTERS = {
    "oracle.TruncatedUniverse.covering_edges": ("oracle.covering_edges", lambda a, k, r: len(r)),
    "oracle.build_universe": ("oracle.universe_elements", lambda a, k, r: len(r)),
    "primes.sieve_primes": ("primes.sieved_numbers", lambda a, k, r: _first_arg(a, k, "limit")),
    "primes.twin_primes": ("primes.sieved_numbers", lambda a, k, r: _first_arg(a, k, "limit") + 2),
    "primes.twin_pair_lower_members": (
        "primes.sieved_numbers", lambda a, k, r: _first_arg(a, k, "limit") + 2,
    ),
}

# exception class name -> (module whose spans it is charged to, counter name)
_ERROR_COUNTERS = {
    "PrecisionError": ("analytic", "analytic.precision_errors"),
    "SizeLimitError": ("oracle", "oracle.size_limit_errors"),
}


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name):
        self.name = name
        self.child = 0.0


class Tracer:
    """Span recorder for one process; holds the totals of every span."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_level = 0.0
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_level = 0.0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        module = name.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._charge_error(module, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame.child
                self.calls[name] += 1
                if stack:
                    stack[-1].child += elapsed
                else:
                    self.top_level += elapsed
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def _charge_error(self, module, exc):
        entry = _ERROR_COUNTERS.get(type(exc).__name__)
        if entry is None or entry[0] != module or getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        self.counts[entry[1]] += 1

    def install(self):
        """Wrap every public primopt function on every module binding it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if id(obj) not in wrappers:
                    span = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(span, obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for mod_name, cls_name, meth in _METHODS:
            cls = getattr(modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{mod_name}.{cls_name}.{meth}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reading -------------------------------------------------------------

    def sum_total(self, *names):
        return sum(self.total.get(n, 0.0) for n in names)

    def sum_self(self, predicate):
        return sum(v for n, v in self.self_time.items() if predicate(n))

    def sum_calls(self, *names):
        return sum(self.calls.get(n, 0) for n in names)


_FLOW_ENTRY = ("oracle.verify_tbest", "oracle.verify_erdos_best", "oracle.max_weight_antichain_flow")
_SIEVES = ("primes.sieve_primes", "primes.twin_primes", "primes.twin_pair_lower_members")

# name -> (unit, function of the tracer).  Order matches BENCHMARK.json.
LAYER_METRICS = {
    "oracle.covering_edges_s": ("s", lambda t: t.sum_total("oracle.TruncatedUniverse.covering_edges")),
    "oracle.covering_edges": ("count", lambda t: t.counts["oracle.covering_edges"]),
    "oracle.flow_self_s": ("s", lambda t: t.sum_self(lambda n: n in _FLOW_ENTRY)),
    "oracle.build_universe_s": ("s", lambda t: t.sum_total("oracle.build_universe")),
    "oracle.universe_elements": ("count", lambda t: t.counts["oracle.universe_elements"]),
    "oracle.is_primitive_s": ("s", lambda t: t.sum_total("oracle.is_primitive")),
    "oracle.bruteforce_s": ("s", lambda t: t.sum_total("oracle.max_weight_antichain_bruteforce")),
    "oracle.bruteforce_calls": ("count", lambda t: t.sum_calls("oracle.max_weight_antichain_bruteforce")),
    "oracle.size_limit_errors": ("count", lambda t: t.counts["oracle.size_limit_errors"]),
    "analytic.prime_zeta_s": ("s", lambda t: t.sum_total("analytic.prime_zeta")),
    "analytic.prime_zeta_calls": ("count", lambda t: t.sum_calls("analytic.prime_zeta")),
    "analytic.riemann_zeta_s": ("s", lambda t: t.sum_total("analytic.riemann_zeta")),
    "analytic.riemann_zeta_calls": ("count", lambda t: t.sum_calls("analytic.riemann_zeta")),
    "analytic.tau_root_s": ("s", lambda t: t.sum_total("analytic.tau_root")),
    "analytic.condition_margin_calls": ("count", lambda t: t.sum_calls("analytic.condition_margin")),
    "analytic.precision_errors": ("count", lambda t: t.counts["analytic.precision_errors"]),
    "primes.sieve_s": ("s", lambda t: t.sum_total(*_SIEVES)),
    "primes.sieve_calls": ("count", lambda t: t.sum_calls(*_SIEVES)),
    "primes.sieved_numbers": ("count", lambda t: t.counts["primes.sieved_numbers"]),
    "twin.check_self_s": ("s", lambda t: t.sum_self(lambda n: n.startswith("twin."))),
    "symfunc.h_all_s": ("s", lambda t: t.sum_total("symfunc.h_all")),
    "symfunc.h_all_calls": ("count", lambda t: t.sum_calls("symfunc.h_all")),
    "symfunc.identity_s": (
        "s", lambda t: t.sum_self(lambda n: n.startswith("symfunc.") and n != "symfunc.h_all"),
    ),
    "erdos.bridge_s": ("s", lambda t: t.sum_total("erdos.integral_bridge_check")),
    "erdos.bridge_calls": ("count", lambda t: t.sum_calls("erdos.integral_bridge_check")),
    "cli.self_s": ("s", lambda t: t.sum_self(lambda n: n.startswith("cli."))),
}


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass means of every layer metric, in the output's metric format."""
    return {
        name: {"value": fn(tracer) / passes, "unit": unit}
        for name, (unit, fn) in LAYER_METRICS.items()
    }
