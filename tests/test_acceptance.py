"""Acceptance criteria: one test per row of ``primopt.checks``, the single
source of the paper's certified statements that ``primopt suite`` also runs.

Each row carries its claim, its expected outcome and its pinned runtime
budget; the tests run every row as the suite does.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion PASS/FAIL
lines as they complete.
"""

import random
import time

from primopt.checks import CHECKS

_SEED = 20260809


def _acceptance_test(number, check):
    def test():
        started = time.monotonic()
        computed, ok = check.run(random.Random(_SEED))
        elapsed = time.monotonic() - started
        in_budget = elapsed < check.budget_s
        status = "PASS" if (ok and in_budget) else "FAIL"
        print(
            f"[{status}] criterion {number}: {check.claim}: {computed} "
            f"(expected {check.expected}) ({elapsed:.2f}s / {check.budget_s:.0f}s)"
        )
        assert ok, f"criterion {number} failed: {check.claim}"
        assert in_budget, (
            f"criterion {number} overran its {check.budget_s}s budget ({elapsed:.2f}s)"
        )

    return test


for _number, _check in enumerate(CHECKS, start=1):
    globals()[f"test_criterion_{_number:02d}_{_check.name}"] = _acceptance_test(
        _number, _check
    )
