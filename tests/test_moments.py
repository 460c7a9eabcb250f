"""Stochastic moments: recursions, closed forms, and specialized families.

Frozen expected values come from the exact rational oracles in oracles.py
(two-point path enumeration and the exact-rational moment recursion);
test_recursions_match_rational_oracle re-derives a grid at run time.
"""

import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from annurates import fixed, moments
from annurates import (
    DomainError,
    FormulaAuditError,
    NumericalFailureError,
    PaymentPlan,
    PaymentPositivityError,
    arithmetic_due,
    decreasing_moments,
    geometric_aux,
    geometric_due,
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
SPEC_GROWTH = stochastic_rate(0.5, 0.01)
SPEC_OVERFLOW = stochastic_rate(0.05, 0.01)


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

    @pytest.mark.parametrize("j", [1e-3, 1e-5, 1e-7])
    def test_mean_squared_at_small_j(self, j):
        # near the band a form divided by d^2 loses u/d^2; the closed mean
        # squared keeps the mean's accuracy
        plan = PaymentPlan.increasing(30)
        spec = stochastic_rate(j, 0.01)
        payments = [Fraction(plan.payment(i)) for i in range(1, plan.n + 1)]
        means, _ = oracles.moment_recursion(payments, spec.j, spec.s2)
        for k in (1, 2, 3, 10, 30):
            exact = means[k - 1] ** 2
            error = abs(Fraction(mean_squared_closed(plan, spec, k)) - exact)
            assert error <= Fraction(1e-8) * exact

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

    @pytest.mark.parametrize(
        "p, failing, first",
        [
            (1e154, [second_moment_closed, second_moment_diagonal, mean_squared_closed], 2),
            (1e200, [second_moment_closed, second_moment_diagonal, second_moment_cross,
                     mean_squared_closed], 1),
        ],
    )
    def test_arithmetic_overflow_is_numerical_failure(self, p, failing, first):
        # the second moment leaves double range by year 2, where the per-year
        # functions returned inf or raised a raw OverflowError ((p - q) ** 2)
        # or ValueError (inf - inf in fsum); the series names the first year
        plan = PaymentPlan.arithmetic(p, 0.0, 3)
        spec = stochastic_rate(0.05, 0.01)
        quantities = {
            second_moment_closed: "second moment",
            second_moment_diagonal: "diagonal part",
            second_moment_cross: "cross part",
            mean_squared_closed: "squared mean",
            variance_closed: "second moment",
        }
        for function in failing + [variance_closed]:
            message = f"^closed {quantities[function]} leaves double range at year 2$"
            with pytest.raises(NumericalFailureError, match=message):
                function(plan, spec, 2)
        assert mean_closed(plan, spec, 2) == pytest.approx(p * 1.05 * 2.05, rel=1e-15)
        message = f"^closed second moment leaves double range at year {first}$"
        with pytest.raises(NumericalFailureError, match=message):
            moment_series(plan, spec, "closed")


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

    @pytest.mark.parametrize("k", [2.0, 2.5, "2", True, None])
    @pytest.mark.parametrize("accessor", ["mean_at", "second_moment_at", "variance_at"])
    def test_accessors_take_integer_years_only(self, accessor, k):
        # raw IndexError, TypeError or year 1 for True before
        series = moment_series(PaymentPlan.geometric(1.0, 1.2, 8), SPEC, "recursive")
        with pytest.raises(DomainError, match="k must be an integer"):
            getattr(series, accessor)(k)

    @pytest.mark.parametrize("k", [0, 9, -1])
    def test_accessor_range_message(self, k):
        series = moment_series(PaymentPlan.level(8), SPEC, "recursive")
        with pytest.raises(DomainError, match=f"^k must be in 1..8, got {k}$"):
            series.variance_at(k)

    def test_accessors_read_the_arrays(self):
        series = moment_series(PaymentPlan.arithmetic(1.0, 0.5, 6), SPEC, "closed")
        for k in range(1, 7):
            for name in ("mean", "second_moment", "variance"):
                value = getattr(series, f"{name}_at")(np.int64(k))
                assert value.hex() == float(getattr(series, name)[k - 1]).hex()

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
        for k in range(1, plan.n + 1):
            i = k - 1
            assert mean_closed(plan, spec, k) == series.mean[i]
            assert second_moment_closed(plan, spec, k) == series.second_moment[i]
            assert second_moment_diagonal(plan, spec, k) == series.diagonal[i]
            assert second_moment_cross(plan, spec, k) == series.cross[i]
            assert variance_closed(plan, spec, k) == series.variance[i]
            # the squared mean is the closed mean squared, in the bands too
            assert mean_squared_closed(plan, spec, k) == mean_closed(plan, spec, k) ** 2

    @pytest.mark.parametrize("j", [0.05, 0.0, 5e-10])
    def test_closed_arithmetic_series_is_one_pass(self, monkeypatch, j):
        # annuity values come from the tables, and one recursion pass settles
        # the variances and, inside the singular band, gives the second moment
        # and cross part; the band mean is arithmetic_due's recursion
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
        # at k = 7200 the squared mean still fits
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
        plan = PaymentPlan.arithmetic(p, q, 30, strict=False)
        for s2 in (0.0, 0.04):
            spec = stochastic_rate(j, s2)
            closed = moment_series(plan, spec, "closed")
            recursive = moment_series(plan, spec, "recursive")
            assert np.array_equal(closed.mean, recursive.mean)
            for k in (1, 17, 30):
                assert arithmetic_due(p, q, k, j, strict=False) == mean_closed(plan, spec, k)

    @pytest.mark.parametrize("j", [0.05, 0.0, -0.1])
    def test_closed_geometric_series_in_the_band_is_one_pass(self, monkeypatch, j):
        # inside the band q = 1+j the closed mean is geometric_due's closed
        # quotient, not a fresh sum from year 1 at every k
        calls = []
        original = fixed._accumulate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fixed, "_accumulate", counting)
        spec = stochastic_rate(j, 0.01)
        plan = PaymentPlan.geometric(1.0, spec.mu, 200)
        closed = moment_series(plan, spec, "closed")
        assert calls == []
        assert closed.mean.tolist() == [geometric_due(1.0, spec.mu, k, j) for k in range(1, 201)]

    def test_closed_geometric_series_takes_each_quotient_once_per_year(self, monkeypatch):
        # mean, second, diagonal and cross share one value of each accumulator
        # per year: at j, at r and at f.  That holds where q = 1+r or
        # q^2 = 1+f too, and no year sums afresh
        spec = stochastic_rate(0.04, 0.02)
        n = 300
        for q in (1.07, 1.0 + spec.r, math.sqrt(1.0 + spec.f)):
            calls = {"_power_diff_quotient": 0, "_accumulate": 0}
            with monkeypatch.context() as patch:
                for name in calls:
                    counting = functools.partial(_counted, calls, name, getattr(fixed, name))
                    patch.setattr(fixed, name, counting)
                moment_series(PaymentPlan.geometric(1.3, q, n), spec, "closed")
            assert 0 < calls["_power_diff_quotient"] <= 3 * n, q
            assert calls["_accumulate"] == 0, q

    def test_per_year_closed_functions_evaluate_their_own_years(self, monkeypatch):
        # a public per-year function evaluates each geometric accumulator at
        # its year alone, not over every year up to k
        years = []
        original = fixed._power_diff_quotient

        def counting(g, q, ks):
            years.append(len(ks))
            return original(g, q, ks)

        monkeypatch.setattr(fixed, "_power_diff_quotient", counting)
        plan = PaymentPlan.geometric(1.0, 1.05, 1000)
        spec = stochastic_rate(0.07, 0.02)
        mean_closed(plan, spec, 1000)
        assert years == [1]
        years.clear()
        variance_closed(plan, spec, 1000)
        assert years == [1, 1, 1]

    def test_closed_series_raises_what_the_first_year_to_raise_raises(self):
        # the closed second moment is inf from year 874, and the accumulator
        # at f raises from year 876: the first year, in order, that raises or
        # is not finite decides, as when each year is evaluated alone
        plan = PaymentPlan.geometric(1.0, 1.5, 1300, strict=False)
        spec = stochastic_rate(0.05, 0.0)
        message = "^closed second moment leaves double range at year 874$"
        with pytest.raises(NumericalFailureError, match=message):
            moment_series(plan, spec, "closed")
        with pytest.raises(NumericalFailureError, match=message):
            second_moment_closed(plan, spec, 874)

    def test_recursive_series_raise_where_their_column_leaves_double_range(self):
        # each series checks the columns it reads, as variance_series does:
        # the second moment is inf from year 1290 and the mean from year 2700
        spec = stochastic_rate(0.3, 0.04)
        second = "^second moment overflows double range at year 1290$"
        for series in (second_moment_series, variance_series):
            with pytest.raises(NumericalFailureError, match=second):
                series(PaymentPlan.level(2000), spec)
        assert np.isfinite(mean_series(PaymentPlan.level(2000), spec)).all()
        mean = "^mean overflows double range at year 2700$"
        with pytest.raises(NumericalFailureError, match=mean):
            mean_series(PaymentPlan.level(3000), spec)


def _counted(calls, name, original, *args):
    """original(*args), counted in calls[name]."""
    calls[name] += 1
    return original(*args)


def _exact_variances(plan, spec):
    """Per-year variances of the plan's float payments at spec's j and s2, exactly."""
    payments = [Fraction(plan.payment(i)) for i in range(1, plan.n + 1)]
    means, seconds = oracles.moment_recursion(payments, spec.j, spec.s2)
    return [second - mean * mean for mean, second in zip(means, seconds)]


def _within(values, exact, rel, floor=0.0):
    """Whether every value is within rel of its exact variance, relative to it, plus floor."""
    return all(abs(Fraction(v) - e) <= rel * e + Fraction(floor) for v, e in zip(values, exact))


@st.composite
def variance_cases(draw):
    """(plan, spec): either family, signed payments, band ratios q = 1+j, n <= 40."""
    j = draw(st.one_of(
        st.floats(min_value=-0.5, max_value=1.0, exclude_min=True),
        st.sampled_from([0.0, 1e-10, 1e-8, 0.05]),
    ))
    s2 = draw(st.one_of(st.just(0.0), st.floats(min_value=-14.0, max_value=-1.0).map(
        lambda e: 10.0**e)))
    spec = stochastic_rate(j, s2)
    family = draw(st.sampled_from(["arithmetic", "geometric"]))
    p = draw(st.floats(min_value=-5.0, max_value=5.0))
    if family == "arithmetic":
        q = draw(st.floats(min_value=-1.0, max_value=2.0))
    else:
        q = draw(st.one_of(st.just(spec.mu), st.floats(min_value=-1.5, max_value=2.0)))
    n = draw(st.integers(min_value=1, max_value=40))
    return PaymentPlan(family=family, p=p, q=q, n=n, strict=False), spec


@st.composite
def domain_cases(draw):
    """(family, p, q, n, j, s2) over the documented domain, strict mode off.

    p and q are 0, +-m 10^e for e in [-300, 300], or within 1e-6 of 1+j.
    """
    j = draw(st.floats(min_value=-1.0, max_value=50.0, exclude_min=True))
    s2 = draw(st.floats(min_value=0.0, max_value=1.0))
    parameter = st.one_of(
        st.just(0.0),
        st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from([1.0, -1.0]),
                  st.floats(min_value=1.0, max_value=9.99), st.integers(-300, 300)),
        st.floats(min_value=-1e-6, max_value=1e-6).map(lambda x: (1.0 + j) * (1.0 + x)),
    )
    family = draw(st.sampled_from(["arithmetic", "geometric"]))
    p, q = draw(parameter), draw(parameter)
    return family, p, q, draw(st.integers(min_value=1, max_value=400)), j, s2


class TestRecursiveDomain:
    """The recursive method returns finite columns or raises a documented error."""

    @given(domain_cases())
    # p^2 underflows, so the second moment reads 0.0 while the variance
    # leaves double range at year 272
    @example(("geometric", 3.978717242863592e-288, 0.0, 300, 42.82917668779616,
              3.9018401193598134e-09))
    @settings(max_examples=300, deadline=None)
    def test_columns_are_finite_or_a_documented_error(self, case):
        family, p, q, n, j, s2 = case
        try:
            plan = PaymentPlan(family=family, p=p, q=q, n=n, strict=False)
            series = moment_series(plan, stochastic_rate(j, s2), "recursive")
        except (DomainError, NumericalFailureError):
            return
        for name in ("mean", "second_moment", "variance", "diagonal", "cross"):
            assert np.isfinite(getattr(series, name)).all(), name


class TestVarianceRecursion:
    """The variance carried by its own recursion, against the exact rational one."""

    @given(variance_cases())
    @settings(max_examples=300, deadline=None)
    def test_variances_match_the_exact_recursion(self, case):
        plan, spec = case
        recursive = moment_series(plan, spec, "recursive").variance.tolist()
        closed = moment_series(plan, spec, "closed").variance.tolist()
        if spec.s2 == 0.0:
            assert recursive == closed == [0.0] * plan.n
            return
        exact = _exact_variances(plan, spec)
        # a rounding below the normal range errs by up to 2^-1075 absolute,
        # at most three a year, each grown by m a year after it
        floor = plan.n * max(1.0, spec.m) ** plan.n * 2.0**-1072
        assert _within(recursive, exact, 1e-12, floor)
        assert _within(closed, exact, 3e-11, floor)

    def test_signed_plan_at_a_tiny_rate_variance(self):
        # m_k - mu_k^2 left the recursion 2.6% off and the closed value 31%
        # off here, and the settlement kept the closed value
        plan = PaymentPlan.arithmetic(2.3, -0.07, 30, strict=False)
        spec = stochastic_rate(0.05, 1e-14)
        exact = _exact_variances(plan, spec)[0]
        assert float(exact) == pytest.approx(5.29e-14, rel=1e-3)
        assert _within([variance_series(plan, spec)[0]], [exact], 1e-13)
        assert _within([variance_closed(plan, spec, 1)], [exact], 1e-13)
        assert _within([moment_series(plan, spec, "closed").variance[0]], [exact], 1e-13)

    def test_decreasing_variance_at_a_tiny_rate_variance(self):
        # the specialized variance was audited against a reference that
        # cancelled, and a FormulaAuditError was raised for a right value
        spec = stochastic_rate(0.1, 1e-8)
        exact = _exact_variances(PaymentPlan.decreasing(33), spec)[29]
        assert _within([decreasing_moments(spec, 33, 30).variance], [exact], 1e-13)


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

    @pytest.mark.parametrize("j, s2", [(0.05, 0.01), (0.1, 0.04), (0.05, 0.0)])
    def test_increasing_cross_part_at_year_one_is_zero(self, j, s2):
        # the cross part sums c_i mu_{i-1} m^{k-i+1}, and mu_0 = 0
        spec = stochastic_rate(j, s2)
        assert increasing_moments(spec, 1).cross == 0.0
        assert second_moment_cross(PaymentPlan.increasing(1), spec, 1) == 0.0

    @pytest.mark.parametrize(
        "family, args, message",
        [
            (level_moments, (stochastic_rate(9.0, 0.0), 308),
             "annuity values at rate 99.0 overflow double range; "
             "the largest horizon that fits is 154"),
            (decreasing_moments, (stochastic_rate(1.0, 1e-4), 520, 520),
             "annuity values at rate 3.0000999999999998 overflow double range; "
             "the largest horizon that fits is 511"),
            (growth_moments, (SPEC_GROWTH, geometric_aux(SPEC_GROWTH, 0.3), 900),
             "annuity values at rate 1.2599999999999998 overflow double range; "
             "the largest horizon that fits is 868"),
        ],
        ids=["level", "decreasing", "growth"],
    )
    def test_power_overflow_is_numerical_failure(self, family, args, message):
        # each raised a raw OverflowError from g ** (...); the second moment's
        # annuity values at f now leave double range first
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(message)}$"):
            family(*args)

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                # every field fits: the second moment, 6.5e305, sums its terms
                # before one division by d^2; here, its exact value
                lambda: increasing_moments(stochastic_rate(14.306583842752229, 0.0), 129),
                oracles.moment_recursion(range(1, 130), 14.306583842752229, 0.0)[1][-1],
            ),
            (
                lambda: level_moments(stochastic_rate(14.306583842752229, 0.01), 300),
                "annuity values at rate 14.306583842752229 overflow double range; "
                "the largest horizon that fits is 260",
            ),
            (
                lambda: decreasing_moments(stochastic_rate(5.0, 0.01), 400, 400),
                "annuity values at rate 5.0 overflow double range; "
                "the largest horizon that fits is 392",
            ),
            (
                # the mean's quotient reads q^k = 13^k
                lambda: growth_moments(SPEC_OVERFLOW, geometric_aux(SPEC_OVERFLOW, 12.0), 400),
                "annuity values at rate 0.05 overflow double range; "
                "the largest horizon that fits is 276",
            ),
        ],
        ids=["increasing", "level", "decreasing", "growth"],
    )
    def test_overflow_names_the_first_quantity_to_leave_double_range(self, call, message):
        # the mean comes first, then each term in the order it is written
        if isinstance(message, Fraction):
            # no quantity leaves double range
            second = Fraction(call().second_moment)
            assert abs(second - message) <= Fraction(1e-14) * message
            return
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("j", [0.0, 1e-10, 1e-3, 0.05, -0.3])
    @pytest.mark.parametrize("s2", [0.0, 0.0025, 0.04])
    def test_increasing_is_the_closed_series_of_its_plan(self, j, s2):
        # the moments command prints that series for --family increasing
        spec, n = stochastic_rate(j, s2), 30
        series = moment_series(PaymentPlan.increasing(n), spec, "closed")
        for k in (1, 2, 7, n):
            got = increasing_moments(spec, k)
            columns = (series.mean, series.diagonal, series.cross, series.second_moment,
                       series.variance)
            want = [float(column[k - 1]) for column in columns]
            assert list(map(float.hex, got)) == list(map(float.hex, want)), k

    def test_a_variance_that_cancels_at_zero_rate_variance_is_zero(self):
        # the closed growth variance cancelled to -8.9e24 where the recursion's
        # is exactly 0, and its audit raised FormulaAuditError; the mean is the
        # geometric quotient, 8.0e-17 from exact
        spec = stochastic_rate(-0.9955542931099941, 0.0)
        got = growth_moments(spec, geometric_aux(spec, 1.0099323678873517), 68)
        assert got == moments.GrowthMoments(mean=9.163454923042491e+17, variance=0.0)

    @pytest.mark.parametrize("j", [0.0, 1e-10, 0.05])
    @pytest.mark.parametrize("s2", [0.0, 1e-6, 0.04])
    def test_per_year_functions_equal_column_entries(self, j, s2):
        # every route: the band |j| < 1e-9, s2 = 0 and the band q = 1+j at u = j
        spec = stochastic_rate(j, s2)
        n = 25
        partial = functools.partial
        cases = [
            ("level", PaymentPlan.level(n), partial(level_moments, spec)),
            ("increasing", PaymentPlan.increasing(n), partial(increasing_moments, spec)),
            ("decreasing", PaymentPlan.decreasing(n), partial(decreasing_moments, spec, n)),
        ]
        for u in (0.03, j):
            per_year = partial(growth_moments, spec, geometric_aux(spec, u))
            cases.append(("growth", PaymentPlan.growth(u, n), per_year))
        for family, plan, per_year in cases:
            column = getattr(moments._ClosedForms(plan, spec, n), family)()
            for k in range(1, n + 1):
                got, want = per_year(k), column[k - 1]
                assert type(got) is type(want), family
                assert list(map(float.hex, got)) == list(map(float.hex, want)), (family, k)

    @given(
        st.one_of(st.just(0.0), st.floats(min_value=-0.9, max_value=2.0)),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=20),
        # None is u = j, the band q = 1+j
        st.one_of(st.none(), st.floats(min_value=-0.9, max_value=2.0)),
    )
    @example(j=0.0, s2=0.0, k=5, extra=3, u=None)
    @example(j=0.05, s2=0.0, k=5, extra=3, u=None)
    @example(j=0.05, s2=0.01, k=30, extra=0, u=0.1)
    @settings(max_examples=200, deadline=None)
    def test_families_are_year_k_of_their_plans_closed_series(self, j, s2, k, extra, u):
        # the moments command prints those series for --family level,
        # decreasing and growth
        spec = stochastic_rate(j, s2)
        u = j if u is None else u
        n = k + extra
        cases = [
            (lambda: level_moments(spec, k), PaymentPlan.level(k)),
            (lambda: decreasing_moments(spec, n, k), PaymentPlan.decreasing(n)),
            (lambda: growth_moments(spec, geometric_aux(spec, u), k), PaymentPlan.growth(u, k)),
        ]
        for call, plan in cases:
            try:
                series = moment_series(plan, spec, "closed")
            except (DomainError, NumericalFailureError):
                continue
            want = [float(series.mean[k - 1]), float(series.variance[k - 1])]
            assert list(map(float.hex, call())) == list(map(float.hex, want)), plan

    @given(
        st.floats(min_value=-1.0, max_value=20.0, exclude_min=True),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=-1.0, max_value=5.0, exclude_min=True),
    )
    # 1+u a few ulps above 0 rounded geometric_aux's t to -1, and its w
    # raised a raw ZeroDivisionError
    @example(j=3.0, s2=0.0, k=1, extra=0, u=-0.9999999999999998)
    @example(j=1.0, s2=0.0, k=1, extra=0, u=-0.9999999999999999)
    @example(j=19.0, s2=0.0, k=1, extra=0, u=-1.0 + 2.0**-50)
    @settings(max_examples=300, deadline=None)
    def test_fields_are_finite_or_a_documented_error(self, j, s2, k, extra, u):
        spec = stochastic_rate(j, s2)
        calls = [
            lambda: level_moments(spec, k),
            lambda: increasing_moments(spec, k),
            lambda: decreasing_moments(spec, k + extra, k),
            lambda: growth_moments(spec, geometric_aux(spec, u), k),
        ]
        for call in calls:
            try:
                fields = call()
            except (DomainError, NumericalFailureError):
                continue
            assert all(map(math.isfinite, fields)), fields


def _perturb_last_square(monkeypatch):
    """Scale the squared-increasing value at kmax of every table _ClosedForms reads by 1+1e-6."""
    sum_tables = moments._sum_tables

    def perturbed(rate, kmax, columns=3, rows=None):
        tables = sum_tables(rate, kmax, columns, rows)
        if columns == 3:
            tables[2][kmax] *= 1.0 + 1e-6
        return tables

    monkeypatch.setattr(moments, "_sum_tables", perturbed)


class TestFormulaAudit:
    """A closed form that drifts from its reference path raises FormulaAuditError."""

    @pytest.mark.parametrize(
        "call, label",
        [
            (lambda: second_moment_diagonal(PaymentPlan.increasing(10), SPEC, 10), "diagonal part"),
            (lambda: increasing_moments(SPEC, 10), "diagonal part"),
        ],
        ids=["diagonal", "increasing"],
    )
    def test_a_perturbed_table_entry_fails_the_audit(self, monkeypatch, call, label):
        # the diagonal part's offset form reads Q at year k-1 only, and the
        # increasing family reads the same diagonal part
        call()  # unperturbed, it passes the audit
        _perturb_last_square(monkeypatch)
        with pytest.raises(FormulaAuditError, match=f"^{label} disagrees with the reference path: "):
            call()


# j = -1 + 2^-53 and j = -1 + 1e-10 round m = (1+j)^2 + s2 to within 2^-53 of 0,
# so f = m - 1 rounds to -1; s2 = 1e300 overflows s2/(1+j) to inf, while the
# tables at f still fit at year 1
_TINY_MU = stochastic_rate(-1.0 + 2.0**-53, 0.0)
_NEAR_POLE = stochastic_rate(-1.0 + 1e-10, 0.0)
_HUGE_S2 = stochastic_rate(-1.0 + 1e-10, 1e300)


class TestDerivedRates:
    """A derived rate that rounds out of (-1, inf) at a valid j and s2 is a numerical failure."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: second_moment_closed(PaymentPlan.arithmetic(2.0, 0.5, 30), _TINY_MU, 5),
                "derived rate f = -1.0 is outside (-1, inf) at j = -0.9999999999999999, s2 = 0.0",
            ),
            (
                lambda: level_moments(_NEAR_POLE, 3),
                "derived rate f = -1.0 is outside (-1, inf) at j = -0.9999999999, s2 = 0.0",
            ),
            (
                lambda: growth_moments(_NEAR_POLE, geometric_aux(_NEAR_POLE, 1.0), 3),
                "derived rate f = -1.0 is outside (-1, inf) at j = -0.9999999999, s2 = 0.0",
            ),
            (
                lambda: second_moment_closed(PaymentPlan.increasing(3), _HUGE_S2, 1),
                "derived rate r = inf is outside (-1, inf) at j = -0.9999999999, s2 = 1e+300",
            ),
            (
                # at year 1 the annuity values at f still fit
                lambda: decreasing_moments(_HUGE_S2, 3, 1),
                "derived rate r = inf is outside (-1, inf) at j = -0.9999999999, s2 = 1e+300",
            ),
            (
                # year 1's cross part is 0.0 without a table, but its
                # accumulators at r and f are built first
                lambda: second_moment_cross(PaymentPlan.geometric(1.0, 1.5, 3), _TINY_MU, 1),
                "derived rate f = -1.0 is outside (-1, inf) at j = -0.9999999999999999, s2 = 0.0",
            ),
        ],
        ids=["second-moment-f", "level-f", "growth-f", "second-moment-r", "decreasing-r",
             "cross-year-one-f"],
    )
    def test_names_the_rate_and_the_inputs(self, call, message):
        # each raised fixed_rate's DomainError, which names no input
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(message)}$"):
            call()

    def test_quantities_that_read_no_derived_rate_keep_their_values(self):
        plan = PaymentPlan.arithmetic(2.0, 0.5, 30)
        assert mean_closed(plan, _TINY_MU, 5) == 4.440892098500627e-16
        assert moment_series(plan, _TINY_MU, "recursive").second_moment_at(5) == 1.97215226305253e-31


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

    @pytest.mark.parametrize("family", ["arithmetic", "geometric"])
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "p, q", [(math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_rejects_non_finite_payment_parameters(self, family, strict, p, q):
        with pytest.raises(DomainError, match="^payment parameters must be finite$"):
            PaymentPlan(family=family, p=p, q=q, n=3, strict=strict)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PaymentPlan.arithmetic(10**400, 0, 3),
            lambda: PaymentPlan.arithmetic(1, -(10**400), 3, strict=False),
            lambda: PaymentPlan.geometric(1, 10**400, 3),
            lambda: PaymentPlan.decreasing(10**400),
            lambda: decreasing_moments(SPEC, 10**400, 1),
        ],
        ids=["arithmetic-p", "arithmetic-q", "geometric-q", "decreasing", "decreasing-moments"],
    )
    def test_integer_payment_parameters_past_double_range_are_not_finite(self, make):
        # float() of such an int raised a raw OverflowError here
        with pytest.raises(DomainError, match="^payment parameters must be finite$"):
            make()

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

    @pytest.mark.parametrize("i", [2.0, 2.5, "2", True, None])
    def test_payment_takes_integer_indices_only(self, i):
        # payment(2.5) was p + 1.5q and payment(True) year 1's payment
        with pytest.raises(DomainError, match="payment index must be an integer"):
            PaymentPlan.arithmetic(1.0, 2.0, 4).payment(i)

    @pytest.mark.parametrize("i", [0, 5])
    def test_payment_range_message(self, i):
        with pytest.raises(DomainError, match=f"^payment index must be in 1..4, got {i}$"):
            PaymentPlan.geometric(1.0, 1.5, 4).payment(i)

    def test_payment_past_double_range_is_numerical_failure(self):
        # q^(i-1) raised a raw OverflowError here
        plan = PaymentPlan.geometric(1.0, 1.5, 1800)
        assert plan.payment(1751) == 1.5**1750
        with pytest.raises(NumericalFailureError, match="at year 1752$"):
            plan.payment(1752)
        with pytest.raises(NumericalFailureError, match="at year 1752$"):
            moment_series(plan, stochastic_rate(0.05, 0.01), "recursive")

    @pytest.mark.parametrize("q", [1.5, -1.5])
    @pytest.mark.parametrize("j", [0.05, 0.5, -0.1])
    def test_zero_payments_stay_zero_past_double_range(self, j, q):
        plan = PaymentPlan.geometric(0.0, q, 1800, strict=False)
        assert plan.payment(1800) == 0.0
        for method in ("closed", "recursive"):
            series = moment_series(plan, stochastic_rate(j, 0.01), method)
            for column in (series.mean, series.second_moment, series.variance):
                assert [float(x).hex() for x in column] == ["0x0.0p+0"] * 1800, method
