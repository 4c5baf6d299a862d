"""Run the differential harness: ≥ 50 randomized program/geometry cases.

The case list is fixed by seed, so these are regression tests, not flaky
statistical ones: the same programs, layouts, samples and outcomes are
produced on every run.
"""

import pytest

from tests.harness.differential import (
    Case,
    DifferentialSummary,
    check_estimate,
    check_find,
    generate_cases,
    run_differential,
)

CASE_COUNT = 60


@pytest.fixture(scope="module")
def cases() -> list[Case]:
    return generate_cases(CASE_COUNT)


class TestFindLeg:
    def test_serial_against_simulator(self, cases):
        failures = [msg for case in cases for msg in check_find(case)]
        assert not failures, "\n".join(failures)

    def test_exact_and_conservative_families_both_present(self, cases):
        kinds = {case.exact for case in cases}
        assert kinds == {True, False}


class TestEstimateLeg:
    def test_confidence_interval_containment(self, cases):
        summary = DifferentialSummary()
        for case in cases:
            check_estimate(case, summary)
        assert not summary.failures, "\n".join(summary.failures)
        # Enough references must actually exercise the sampling path.
        assert summary.sampled_refs >= 50
        # At c = 95% about 5% of intervals may nominally miss; the case
        # list is seeded, so this rate is a deterministic regression value.
        assert summary.containment_rate >= 0.90


class TestWholeRun:
    def test_run_differential_summary(self, cases):
        summary = run_differential(cases[:12])
        assert summary.ok, "\n".join(summary.failures)
        assert summary.cases == 12
        assert summary.containment_rate >= 0.85
