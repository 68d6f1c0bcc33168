"""Span wiring: every layer metric must be fed by a span that really fires.

    python3 -m pytest perfbench -q

A rename or re-binding in primopt that a wrapper no longer reaches shows up
here as a failing test instead of as a layer metric that silently reads 0.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import primopt  # noqa: E402
from primopt import analytic, cli, oracle, primes, twin  # noqa: E402
from calibrate import Probe  # noqa: E402
from run import Tally, _end_to_end, _traced  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import OK, Job  # noqa: E402

NOOP = Job("noop", lambda: None, lambda result: OK)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally(Probe("numpy"))
    tally.run_pass([NOOP])
    end_to_end, _ = _end_to_end(tally, 1, [{"setup_s": 0.1, "raw_setup_s": 0.1}])
    per_layer = _traced(Tally(Probe("numpy")), [NOOP], 0.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in {**end_to_end, **per_layer}.items())


def test_wrappers_cover_every_binding_and_come_off(tracer):
    wrapped = lambda fn: hasattr(fn, "__wrapped_by_perfbench__")  # noqa: E731
    assert wrapped(oracle.check_condition) and oracle.check_condition is analytic.check_condition
    assert wrapped(oracle.h_all) and wrapped(twin.twin_primes) and wrapped(cli.sieve_primes)
    assert primopt.verify_tbest is oracle.verify_tbest
    assert wrapped(oracle.TruncatedUniverse.covering_edges)
    tracer.uninstall()
    assert not wrapped(analytic.check_condition) and not wrapped(oracle.check_condition)
    assert not wrapped(oracle.TruncatedUniverse.covering_edges)


def test_verify_tbest_encloses_its_layers(tracer):
    prime_set = primes.PrimeSet([2, 3, 5])  # validation calls the is_prime span
    tracer.reset()
    oracle.verify_tbest(prime_set, 1.5, 1, 4, 200)
    assert tracer.calls["oracle.build_universe"] == 1
    assert tracer.calls["oracle.TruncatedUniverse.covering_edges"] == 1
    assert tracer.calls["analytic.check_condition"] == 1
    assert tracer.counts["oracle.covering_edges"] > 0
    flow_self = tracer.self_time["oracle.verify_tbest"]
    assert 0 < flow_self < tracer.total["oracle.verify_tbest"]
    assert tracer.top_level == pytest.approx(tracer.total["oracle.verify_tbest"])


def test_every_layer_metric_fires_on_tiny_inputs(tracer):
    small = primes.PrimeSet([2, 3, 5])
    oracle.verify_erdos_best(small, 1, 4, 200)
    analytic.riemann_zeta(2.0, 1e-6)
    with pytest.raises(primopt.PrecisionError):
        analytic.riemann_zeta(1.5, 1e-12)
    with pytest.raises(primopt.SizeLimitError):
        oracle.build_universe(small, 1, 10, 10**6, max_elements=10)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["suite", "--quick", "--seed", "0"]) == 0

    metrics = layer_metrics(tracer, passes=1)
    assert [name for name, m in metrics.items() if not m["value"] > 0] == []
    assert metrics["analytic.precision_errors"]["value"] == 1
    assert metrics["oracle.size_limit_errors"]["value"] == 1
