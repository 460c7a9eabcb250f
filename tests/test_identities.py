"""Consistency-suite checks: every registered identity holds on its grid.

The suites themselves compare closed forms against independently summed
references, so a green run here certifies both the formulas and the
reference paths over the full parameter grids.
"""

import time

import pytest

from annurates import (
    fixed_identity_suite,
    identities,
    moments,
    run_identity_suites,
    specialization_suite,
    stochastic_identity_suite,
)


FIXED_NAMES = {
    "discount-identities",
    "level-evaluators",
    "increasing-evaluators",
    "increasing-squared-evaluators",
    "increasing-squared-relation",
    "decreasing-evaluators",
    "arithmetic-evaluators",
    "arithmetic-specializations",
    "geometric-specializations",
    "geometric-evaluators",
    "growth-identity",
    "decreasing-complement",
    "increasing-shift",
    "increasing-squared-shift",
    "level-squared",
    "increasing-squared-identity",
}

STOCHASTIC_NAMES = {
    "arithmetic-mean-closed-vs-recursive",
    "arithmetic-second-moment-closed-vs-recursive",
    "arithmetic-variance-closed-vs-recursive",
    "arithmetic-decomposition",
    "variance-nonnegative",
    "geometric-mean-closed-vs-recursive",
    "geometric-second-moment-closed-vs-recursive",
    "geometric-variance-closed-vs-recursive",
    "geometric-decomposition",
    "mean-ignores-rate-variance",
    "variance-monotone-in-rate-variance",
}

SPECIAL_NAMES = {
    "level-special-vs-general",
    "increasing-special-vs-general",
    "decreasing-special-vs-general",
    "growth-special-vs-general",
}


def _assert_all_pass(results, expected_names):
    assert {r.name for r in results} == expected_names
    for r in results:
        assert r.cases > 0, r.name
        assert r.max_rel_dev <= r.tol, (
            f"{r.name}: deviation {r.max_rel_dev:.3e} exceeds {r.tol:.0e}"
        )
        assert r.passed


class TestFixedSuite:
    def test_all_identities_hold(self):
        _assert_all_pass(fixed_identity_suite(), FIXED_NAMES)

    def test_runs_quickly(self):
        start = time.perf_counter()
        fixed_identity_suite()
        assert time.perf_counter() - start < 2.0

    def test_perturbed_formula_is_detected(self, perturbed_level):
        # sanity check on the suite itself: a deliberately perturbed
        # formula must produce a breach in every check that reads it
        breached = [r for r in fixed_identity_suite() if not r.passed]
        assert {r.name for r in breached} == {
            "level-evaluators",
            "arithmetic-specializations",
            "geometric-specializations",
        }
        for r in breached:
            assert 5e-7 < r.max_rel_dev < 2e-6, r

    def test_custom_grid(self, monkeypatch):
        monkeypatch.setattr(identities, "FIXED_J_GRID", (0.02, 0.13))
        monkeypatch.setattr(identities, "FIXED_K_MAX", 8)
        results = fixed_identity_suite()
        _assert_all_pass(results, FIXED_NAMES)
        # 2 rates: three discount identities each, one shift case per year 1..8
        cases = {r.name: r.cases for r in results}
        assert (cases["discount-identities"], cases["increasing-shift"]) == (2 * 3, 2 * 8)


class TestStochasticSuite:
    def test_all_identities_hold(self):
        _assert_all_pass(stochastic_identity_suite(), STOCHASTIC_NAMES)

    def test_comfortable_margin(self):
        # closed moment formulas should sit well inside their tolerances,
        # not scrape them
        for r in stochastic_identity_suite():
            assert r.max_rel_dev <= 0.5 * r.tol, r


class TestSpecializationSuite:
    def test_all_identities_hold(self):
        _assert_all_pass(specialization_suite(), SPECIAL_NAMES)

    def test_reads_each_family_column_once(self, monkeypatch):
        # 108 (plan, rate) pairs: each family's column runs one recursion
        # pass, which its band rows, its settlement and the comparison share,
        # where a call per year ran one to that year (2,808 passes)
        calls = []
        recursion = moments._recursion

        def counting(*args):
            calls.append(args)
            return recursion(*args)

        monkeypatch.setattr(moments, "_recursion", counting)
        results = specialization_suite()
        assert len(calls) == 108
        assert sum(r.cases for r in results) == 6480


class TestCombinedRunner:
    def test_runs_every_suite(self):
        results = run_identity_suites()
        assert {r.name for r in results} == (
            FIXED_NAMES | STOCHASTIC_NAMES | SPECIAL_NAMES
        )
        assert all(r.passed for r in results)

    def test_perturbed_formula_breaches_fixed_checks_only(self, perturbed_level):
        results = run_identity_suites()
        assert any(not r.passed for r in results)
        # the perturbation only touches the fixed-rate formulas
        for r in results:
            if not r.passed:
                assert r.name in FIXED_NAMES


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
