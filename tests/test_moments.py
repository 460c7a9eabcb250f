"""Stochastic moments: recursions, closed forms, and specialized families.

Frozen expected values come from the exact rational oracles in oracles.py
(two-point path enumeration and the exact-rational moment recursion);
test_recursions_match_rational_oracle re-derives a grid at run time.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracles
from annurates import fixed, moments
from annurates import (
    DomainError,
    NumericalFailureError,
    PaymentPlan,
    PaymentPositivityError,
    decreasing_moments,
    geometric_aux,
    growth_moments,
    increasing_moments,
    level_moments,
    mean_closed,
    mean_series,
    mean_squared_closed,
    moment_series,
    second_moment_closed,
    second_moment_cross,
    second_moment_diagonal,
    second_moment_series,
    stochastic_rate,
    variance_closed,
    variance_series,
)

SPEC = stochastic_rate(0.1, 0.04)


def _assert_moments(plan, k, mean, second, var, rel=1e-12):
    spec = SPEC
    assert mean_closed(plan, spec, k) == pytest.approx(mean, rel=rel)
    assert second_moment_closed(plan, spec, k) == pytest.approx(second, rel=rel)
    assert variance_closed(plan, spec, k) == pytest.approx(var, rel=1e-9)
    assert mean_series(plan, spec)[k - 1] == pytest.approx(mean, rel=rel)
    assert second_moment_series(plan, spec)[k - 1] == pytest.approx(second, rel=rel)
    assert variance_series(plan, spec)[k - 1] == pytest.approx(var, rel=1e-9)


class TestTwoPointAnchors:
    """j=0.1, s2=0.04, k=2: exact values from 4-path enumeration."""

    def test_level(self):
        _assert_moments(PaymentPlan.level(2), 2, 2.31, 5.5625, 0.2264)

    def test_increasing(self):
        _assert_moments(PaymentPlan.increasing(2), 2, 3.41, 12.0625, 0.4344)

    def test_decreasing(self):
        _assert_moments(PaymentPlan.decreasing(2), 2, 3.52, 13.0, 0.6096)

    def test_geometric(self):
        _assert_moments(PaymentPlan.geometric(1.0, 1.2, 2), 2, 2.53, 6.6625, 0.2616)

    def test_level_three_years(self):
        _assert_moments(PaymentPlan.level(3), 3, 3.641, 13.978125, 0.721244)


class TestRationalOracleGrid:
    @pytest.mark.parametrize(
        "family, p, q",
        [
            ("arithmetic", 1, 0),
            ("arithmetic", 1, 1),
            ("arithmetic", 2, 3),
            ("arithmetic", 5, -1),
            ("geometric", 1, Fraction(6, 5)),
            ("geometric", 2, Fraction(9, 10)),
        ],
    )
    @pytest.mark.parametrize("j, s2", [(Fraction(1, 10), Fraction(1, 25)), (Fraction(1, 100), 0), (Fraction(1, 5), Fraction(1, 400))])
    def test_recursions_match_rational_oracle(self, family, p, q, j, s2):
        n = 15
        if family == "arithmetic":
            payments = oracles.arithmetic_payments(p, q, n)
        else:
            payments = oracles.geometric_payments(p, q, n)
        want_mean, want_second = oracles.moment_recursion(payments, j, s2)
        plan = PaymentPlan(family=family, p=float(p), q=float(q), n=n, strict=False)
        spec = stochastic_rate(float(j), float(s2))
        got_mean = mean_series(plan, spec)
        got_second = second_moment_series(plan, spec)
        for i in range(n):
            assert got_mean[i] == pytest.approx(float(want_mean[i]), rel=1e-12)
            assert got_second[i] == pytest.approx(float(want_second[i]), rel=1e-12)


class TestClosedForms:
    @pytest.mark.parametrize(
        "plan",
        [
            PaymentPlan.arithmetic(2.0, 0.5, 25),
            PaymentPlan.arithmetic(1.0, -0.2, 25, strict=False),
            PaymentPlan.geometric(1.5, 1.05, 25),
            PaymentPlan.geometric(1.0, 0.9, 25),
        ],
        ids=["arith-up", "arith-down", "geom-up", "geom-down"],
    )
    @pytest.mark.parametrize("s2", [0.0, 0.0025, 0.04])
    def test_closed_matches_recursion(self, plan, s2):
        spec = stochastic_rate(0.08, s2)
        mean_r = mean_series(plan, spec)
        second_r = second_moment_series(plan, spec)
        var_r = variance_series(plan, spec)
        for k in range(1, plan.n + 1):
            i = k - 1
            assert mean_closed(plan, spec, k) == pytest.approx(mean_r[i], rel=1e-10)
            assert second_moment_closed(plan, spec, k) == pytest.approx(
                second_r[i], rel=1e-10
            )
            assert variance_closed(plan, spec, k) == pytest.approx(
                var_r[i], rel=1e-9, abs=1e-12
            )

    def test_decomposition(self):
        # the second moment splits into a squared-payment part and a cross part
        for plan in (PaymentPlan.arithmetic(2.0, 1.0, 20), PaymentPlan.geometric(1.0, 1.1, 20)):
            spec = stochastic_rate(0.06, 0.01)
            second_r = second_moment_series(plan, spec)
            for k in range(1, plan.n + 1):
                diag = second_moment_diagonal(plan, spec, k)
                cross = second_moment_cross(plan, spec, k)
                assert diag + 2.0 * cross == pytest.approx(second_r[k - 1], rel=1e-10)

    def test_mean_squared(self):
        for plan in (PaymentPlan.arithmetic(3.0, 0.5, 18), PaymentPlan.geometric(2.0, 1.15, 18)):
            spec = stochastic_rate(0.07, 0.02)
            for k in (1, 5, 12, 18):
                mean = mean_closed(plan, spec, k)
                assert mean_squared_closed(plan, spec, k) == pytest.approx(
                    mean * mean, rel=1e-9
                )

    def test_mean_ignores_rate_variance(self):
        plan = PaymentPlan.geometric(1.0, 1.05, 12)
        base = mean_series(plan, stochastic_rate(0.05, 0.0))
        bumped = mean_series(plan, stochastic_rate(0.05, 0.09))
        assert np.allclose(base, bumped, rtol=1e-13, atol=0)

    def test_variance_grows_with_rate_variance(self):
        plan = PaymentPlan.increasing(15)
        lo = variance_series(plan, stochastic_rate(0.05, 0.0025))
        hi = variance_series(plan, stochastic_rate(0.05, 0.04))
        assert (hi >= lo).all()

    def test_degenerate_variance_is_exactly_zero(self):
        plan = PaymentPlan.arithmetic(2.0, 1.0, 30)
        spec = stochastic_rate(0.1, 0.0)
        assert (variance_series(plan, spec) == 0.0).all()
        for k in (1, 10, 30):
            assert variance_closed(plan, spec, k) == 0.0

    @pytest.mark.parametrize(
        "closed_form",
        [
            mean_closed,
            second_moment_closed,
            second_moment_cross,
            mean_squared_closed,
            lambda plan, spec, k: moment_series(plan, spec, "closed"),
        ],
        ids=["mean", "second", "cross", "mean_squared", "series"],
    )
    def test_geometric_overflow_is_numerical_failure(self, closed_form):
        # the geometric annuity values raised a raw OverflowError here
        plan = PaymentPlan.geometric(1.0, 0.5, 600)
        spec = stochastic_rate(3.0, 0.01)
        with pytest.raises(NumericalFailureError, match="largest horizon that fits is 511$"):
            closed_form(plan, spec, 600)


class TestMomentSeries:
    def test_series_shape_and_accessors(self):
        plan = PaymentPlan.geometric(1.0, 1.2, 8)
        series = moment_series(plan, SPEC, "recursive")
        assert series.horizon == 8
        assert series.mean_at(2) == pytest.approx(2.53, rel=1e-12)
        assert series.second_moment_at(2) == pytest.approx(6.6625, rel=1e-12)
        assert series.variance_at(2) == pytest.approx(0.2616, rel=1e-9)
        with pytest.raises(DomainError):
            series.mean_at(9)

    def test_closed_and_recursive_methods_agree(self):
        plan = PaymentPlan.arithmetic(1.0, 0.5, 20)
        closed = moment_series(plan, SPEC, "closed")
        recursive = moment_series(plan, SPEC, "recursive")
        assert np.allclose(closed.mean, recursive.mean, rtol=1e-10)
        assert np.allclose(closed.second_moment, recursive.second_moment, rtol=1e-10)
        assert np.allclose(closed.variance, recursive.variance, rtol=1e-9)

    def test_rejects_unknown_method(self):
        with pytest.raises(DomainError):
            moment_series(PaymentPlan.level(3), SPEC, "fastest")

    @pytest.mark.parametrize(
        "plan, j",
        [
            (PaymentPlan.arithmetic(2.0, 0.3, 25), 0.05),
            (PaymentPlan.arithmetic(2.5, -0.2, 25, strict=False), 0.01),
            (PaymentPlan.arithmetic(2.0, 0.3, 25), 0.0),
            (PaymentPlan.geometric(1.0, 1.2, 25), 0.1),
            (PaymentPlan.geometric(1.0, 1.1, 25), 0.1),
        ],
    )
    @pytest.mark.parametrize("s2", [0.0, 1e-6, 0.04])
    def test_per_year_functions_equal_series_entries(self, plan, j, s2):
        spec = stochastic_rate(j, s2)
        series = moment_series(plan, spec, "closed")
        forms = moments._ClosedForms(plan, spec, plan.n)
        for k in range(1, plan.n + 1):
            i = k - 1
            assert mean_closed(plan, spec, k) == series.mean[i]
            assert second_moment_closed(plan, spec, k) == series.second_moment[i]
            assert second_moment_diagonal(plan, spec, k) == series.diagonal[i]
            assert second_moment_cross(plan, spec, k) == series.cross[i]
            assert variance_closed(plan, spec, k) == series.variance[i]
            assert mean_squared_closed(plan, spec, k) == forms.mean_squared(k)

    @pytest.mark.parametrize("j", [0.05, 0.0, 5e-10])
    def test_closed_arithmetic_series_is_one_pass(self, monkeypatch, j):
        # annuity values come from the tables, and one recursion pass settles
        # the variances and, inside the singular band, gives the moments
        calls = {"_accumulate": 0, "_recursion": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(fixed, "_accumulate")
        counting(moments, "_recursion")
        moment_series(PaymentPlan.arithmetic(2.0, 0.3, 40), stochastic_rate(j, 0.04), "closed")
        assert calls == {"_accumulate": 0, "_recursion": 1}

    @pytest.mark.parametrize("q", [0.0, 0.001])
    def test_mean_squared_closed_near_double_range(self, q):
        # at k = 7200 the increasing values at j up to 2k still fit, but the
        # squared-increasing ones, which no closed form reads at j, do not
        plan = PaymentPlan.arithmetic(1.0, q, 7200)
        spec = stochastic_rate(0.05, 1e-12)
        got = mean_squared_closed(plan, spec, 7200)
        mean = mean_closed(plan, spec, 7200)
        assert got == pytest.approx(mean * mean, rel=1e-11)

    @pytest.mark.parametrize(
        "p, q", [(2.0, -0.2), (2.3, 0.07), (1.5, 0.1), (5.0, -0.3), (2.5, -0.007)]
    )
    @pytest.mark.parametrize("j", [0.0, 1e-10, -5e-10])
    def test_singular_band_means_agree_exactly(self, p, q, j):
        # inside |j| < 1e-9 the closed mean is the moment recursion's, not
        # arithmetic_due's, whose recursion adds p and (i-1)q separately
        plan = PaymentPlan.arithmetic(p, q, 30, strict=False)
        for s2 in (0.0, 0.04):
            spec = stochastic_rate(j, s2)
            closed = moment_series(plan, spec, "closed")
            recursive = moment_series(plan, spec, "recursive")
            assert np.array_equal(closed.mean, recursive.mean)


class TestSpecializedFamilies:
    """Dedicated mean/variance formulas against the general path."""

    def test_level_anchor(self):
        lm = level_moments(SPEC, 2)
        assert lm.mean == pytest.approx(2.31, rel=1e-12)
        assert lm.variance == pytest.approx(0.2264, rel=1e-10)

    def test_increasing_anchor(self):
        im = increasing_moments(SPEC, 2)
        assert im.mean == pytest.approx(3.41, rel=1e-12)
        assert im.second_moment == pytest.approx(12.0625, rel=1e-12)
        assert im.variance == pytest.approx(0.4344, rel=1e-10)
        assert im.diagonal + 2.0 * im.cross == pytest.approx(12.0625, rel=1e-11)

    def test_decreasing_anchor(self):
        dm = decreasing_moments(SPEC, 2, 2)
        assert dm.mean == pytest.approx(3.52, rel=1e-12)
        assert dm.variance == pytest.approx(0.6096, rel=1e-10)

    def test_growth_matches_geometric_plan(self):
        spec = stochastic_rate(0.1, 0.04)
        aux = geometric_aux(spec, 0.2)
        plan = PaymentPlan.growth(0.2, 10)
        mean_r = mean_series(plan, spec)
        var_r = variance_series(plan, spec)
        for k in (1, 4, 10):
            gm = growth_moments(spec, aux, k)
            assert gm.mean == pytest.approx(mean_r[k - 1], rel=1e-11)
            assert gm.variance == pytest.approx(var_r[k - 1], rel=1e-10)

    def test_growth_rejects_mismatched_aux(self):
        aux = geometric_aux(stochastic_rate(0.05, 0.01), 0.2)
        with pytest.raises(DomainError):
            growth_moments(SPEC, aux, 3)

    def test_specialized_horizon_zero(self):
        assert level_moments(SPEC, 0).mean == 0.0
        assert increasing_moments(SPEC, 0).variance == 0.0
        assert decreasing_moments(SPEC, 5, 0).mean == 0.0


class TestPaymentPlan:
    def test_payment_schedules(self):
        arith = PaymentPlan.arithmetic(2.0, 3.0, 4)
        assert list(arith.payments()) == [2.0, 5.0, 8.0, 11.0]
        geom = PaymentPlan.geometric(2.0, 0.5, 4)
        assert list(geom.payments()) == [2.0, 1.0, 0.5, 0.25]
        decr = PaymentPlan.decreasing(4)
        assert list(decr.payments()) == [4.0, 3.0, 2.0, 1.0]

    def test_strict_positivity(self):
        with pytest.raises(PaymentPositivityError):
            PaymentPlan.arithmetic(1.0, -0.5, 5)
        with pytest.raises(PaymentPositivityError):
            PaymentPlan.geometric(1.0, -1.2, 3)
        PaymentPlan.arithmetic(1.0, -0.5, 5, strict=False)

    def test_rejects_bad_horizon(self):
        with pytest.raises(DomainError):
            PaymentPlan.level(0)
        with pytest.raises(DomainError):
            PaymentPlan.arithmetic(1.0, 0.0, 2.5)

    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            PaymentPlan(family="fibonacci", p=1.0, q=1.0, n=3)

    def test_growth_plan_is_geometric(self):
        plan = PaymentPlan.growth(0.07, 6)
        assert plan.family == "geometric"
        assert plan.q == pytest.approx(1.07, rel=1e-15)

    def test_horizon_bound_checks(self):
        plan = PaymentPlan.level(5)
        with pytest.raises(DomainError):
            mean_closed(plan, SPEC, 6)
        with pytest.raises(DomainError):
            variance_closed(plan, SPEC, -1)
