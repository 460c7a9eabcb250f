"""Accumulators built once and called at many k, against the public functions.

A builder in fixed (_arithmetic, _increasing_squared, _geometric) settles the
mode, the route, the strict rule and every k-free factor once and returns the
accumulator as a function of the years ks, evaluated as one column; the
level, increasing and decreasing annuities are _arithmetic at (p, q) =
(1, 0), (1, 1) and (n, -1).  The CLI's tables and the closed moment series
call one such function over all their years, where a public function builds
its own at one k.  These properties draw parameters over the whole domain,
the edges of the singular bands and horizons past double range, and require
each value to carry the public function's bits, or the call to raise exactly
what the public function raises at the first year that fails.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from annurates import (
    PaymentPlan,
    arithmetic_due,
    decreasing_due,
    fixed_rate,
    geometric_due,
    increasing_due,
    increasing_squared_due,
    level_due,
    mean_closed,
    moment_series,
    second_moment_closed,
    second_moment_cross,
    second_moment_diagonal,
    stochastic_rate,
    variance_closed,
)
from annurates import cli, fixed, moments
from annurates.fixed import _arithmetic, _geometric
from annurates.rates import SINGULARITY_EPS


def outcome(fn, *args):
    """The bits of fn(*args), or the type and message of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # the comparison is the point: any type counts
        return type(exc), str(exc)
    return float(value).hex()


def at(kernel):
    """The column function kernel as a function of one year."""
    return lambda k: kernel(range(k, k + 1))[0]


def column_outcome(kernel, ks):
    """The bits of kernel(ks), or the type and message of what it raised."""
    try:
        return [float(value).hex() for value in kernel(ks)]
    except Exception as exc:
        return type(exc), str(exc)


def first_failure(outcomes):
    """The first raised outcome among per-year outcomes, else all of them."""
    return next((o for o in outcomes if isinstance(o, tuple)), outcomes)


# rates over the domain, with the edges of |j| < 1e-9 and rates whose
# annuity values leave double range within a few thousand years
rates = st.one_of(
    st.floats(min_value=-0.99, max_value=1.0),
    st.sampled_from([0.0, 1e-9, -1e-9, 0.999e-9, 1.001e-9, 1e-10, 0.5, -0.1, 0.9]),
)
payments = st.one_of(st.floats(min_value=-5.0, max_value=5.0), st.sampled_from([0.0, 1.0]))
horizons = st.one_of(
    st.integers(min_value=1, max_value=5000),
    st.sampled_from([1, 2, 1745, 1746, 1747, 1748, 1800, 3000]),
)
# a geometric ratio: anywhere, or at a multiple of the band's half-width
# from the gross rate 1+j (|m| = 1 is the band's edge)
band_offsets = st.sampled_from([0.0, 0.5, -0.999, 0.999, -1.001, 1.001, -10.0, 10.0])


def ratio(data, g: float) -> float:
    if data.draw(st.booleans()):
        return data.draw(st.floats(min_value=-2.0, max_value=3.0))
    return g + data.draw(band_offsets) * SINGULARITY_EPS * max(1.0, g)


class TestFixedKernels:
    @given(st.data(), rates, payments, horizons, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_fixed_command_kernels_are_the_accumulators(self, data, j, p, k, strict):
        rate = fixed_rate(j)
        q_arith = data.draw(payments)
        q_geom = ratio(data, 1.0 + j)
        n = k + data.draw(st.integers(min_value=0, max_value=3))
        public = {
            "level": lambda k: level_due(k, rate),
            "increasing": lambda k: increasing_due(k, rate),
            "increasing_sq": lambda k: increasing_squared_due(k, rate),
            "decreasing": lambda k: decreasing_due(n, k, rate),
            "arithmetic": lambda k: arithmetic_due(p, q_arith, k, rate, strict=strict),
            "geometric": lambda k: geometric_due(p, q_geom, k, rate, strict=strict),
        }
        kernels = cli._fixed_kernels(rate, n, p, q_arith, q_geom, strict)
        assert kernels.keys() == public.keys()
        # each function is called at two horizons and over a column of
        # years ending at k, which raises what the first failing year raises
        for name, kernel in kernels.items():
            for h in (k, 1):
                assert outcome(at(kernel), h) == outcome(public[name], h), name
            ks = range(max(1, k - 3), k + 1)
            expected = first_failure([outcome(public[name], h) for h in ks])
            assert column_outcome(kernel, ks) == expected, name

    @given(
        st.data(),
        rates,
        horizons,
        st.sampled_from(["auto", "closed", "recursive", "sum", "relation", "invalid"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_level_increasing_and_decreasing_are_arithmetic(self, data, j, k, mode):
        # (p, q) = (1, 0), (1, 1) and (n, -1), in every mode and past double
        # range; an n beyond 2^53 that is not a double pays as float(n)
        rate = fixed_rate(j)
        n = data.draw(
            st.one_of(
                st.integers(min_value=k, max_value=k + 3),
                st.sampled_from([2**53 + 1, 2**53 + 3, 2**60 + 3]),
            )
        )
        arithmetic = lambda p, q: outcome(arithmetic_due, p, q, k, rate, mode, False)
        assert outcome(level_due, k, rate, mode) == arithmetic(1.0, 0.0)
        assert outcome(increasing_due, k, rate, mode) == arithmetic(1.0, 1.0)
        assert outcome(decreasing_due, n, k, rate, mode) == arithmetic(n, -1.0)

    @given(st.data(), rates, st.floats(min_value=0.0, max_value=1.0), payments, horizons)
    @settings(max_examples=300, deadline=None)
    def test_moment_kernels_are_the_accumulators(self, data, j, s2, p, k):
        spec = stochastic_rate(j, s2)
        rj, rr, rf = (fixed_rate(x) for x in (spec.j, spec.r, spec.f))
        q = ratio(data, spec.mu)
        geometric = PaymentPlan(family="geometric", p=p, q=q, n=k, strict=False)
        forms = moments._ClosedForms(geometric, spec, k)
        # inside the band too, and for a plan that pays nothing, the closed
        # mean is geometric_due's closed quotient
        assert outcome(at(forms.mean), k) == outcome(geometric_due, p, q, k, rj, "auto", False)
        assert outcome(at(forms.geometric_r), k) == outcome(
            geometric_due, p, q, k, rr, "auto", False
        )
        assert outcome(at(forms.geometric_f), k) == outcome(
            geometric_due, p * p, q * q, k, rf, "auto", False
        )
        q = data.draw(payments)
        kernel = _arithmetic(p, q, rj, "auto", False)
        assert outcome(at(kernel), k) == outcome(arithmetic_due, p, q, k, rj, "auto", False)
        strict = _arithmetic(p, q, rj, "auto", True)
        assert outcome(at(strict), k) == outcome(arithmetic_due, p, q, k, rj)
        strict = _geometric(p, q, rj, "auto", True)
        assert outcome(at(strict), k) == outcome(geometric_due, p, q, k, rj)

    @given(
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True),
        payments,
        payments,
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_fixed_recursion_is_the_moment_recursions_mean(self, j, p, q, k, extra):
        # both step value = (1+j)(value + c) over the same payments c
        spec = stochastic_rate(j, 0.0)
        arithmetic = PaymentPlan.arithmetic(p, q, k, strict=False)
        mean = moments._recursion(arithmetic, spec).mean[k - 1]
        assert arithmetic_due(p, q, k, j, "recursive", strict=False) == mean
        n = k + extra
        mean = moments._recursion(PaymentPlan.decreasing(n), spec, k).mean[k - 1]
        assert decreasing_due(n, k, j, "recursive") == mean

    @given(
        st.data(),
        st.sampled_from(["arithmetic", "geometric"]),
        st.one_of(st.floats(min_value=-0.5, max_value=1.0), rates),
        st.sampled_from([0.0, 1e-12, 1e-6, 0.04, 0.5]),
        st.one_of(st.floats(min_value=0.1, max_value=5.0), st.just(0.0)),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_series_entries_are_the_per_year_values(self, data, family, j, s2, p, n):
        # the band edges of j, and ratios in and around the geometric band
        # at 1+j, reach the recursion rows as well as the closed terms
        if data.draw(st.booleans()):
            q = ratio(data, 1.0 + j)
        else:
            q = data.draw(st.floats(min_value=-0.5, max_value=2.0))
        plan = PaymentPlan(family=family, p=p, q=q, n=n, strict=False)
        spec = stochastic_rate(j, s2)
        try:
            series = moment_series(plan, spec, "closed")
        except ArithmeticError:
            # a series that leaves double range raises before reporting a row
            return
        columns = {
            mean_closed: series.mean,
            second_moment_closed: series.second_moment,
            second_moment_diagonal: series.diagonal,
            second_moment_cross: series.cross,
            variance_closed: series.variance,
        }
        for k in range(1, n + 1):
            for function, column in columns.items():
                assert outcome(function, plan, spec, k) == float(column[k - 1]).hex()


def test_closed_geometric_series_calls_no_public_accumulator(monkeypatch):
    calls = []
    original = fixed.geometric_due

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fixed, "geometric_due", counting)
    plan = PaymentPlan.geometric(1.0, 1.05, 120)
    series = moment_series(plan, stochastic_rate(0.07, 0.02), "closed")
    assert calls == []
    assert np.all(np.isfinite(series.variance))


def test_kernel_past_double_range_raises_what_the_accumulator_raises():
    rate = fixed_rate(0.3)
    kernel = _geometric(1.0, 1.5, rate, "auto", False)
    assert kernel((1745,)) == [geometric_due(1.0, 1.5, 1745, rate)]
    failure = outcome(at(kernel), 1746)
    assert failure == outcome(geometric_due, 1.0, 1.5, 1746, rate)
    assert failure[1].endswith("the largest horizon that fits is 1745")
    # a column through year 1746 raises the same error
    assert column_outcome(kernel, range(1, 2001)) == failure
