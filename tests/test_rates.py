"""Rate containers: derived quantities and input validation."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from annurates import (
    SINGULARITY_EPS,
    DomainError,
    NumericalFailureError,
    PaymentPlan,
    fixed_rate,
    geometric_aux,
    geometric_due,
    growth_due,
    level_due,
    stochastic_rate,
)
from annurates.identities import _fixed_tables
from annurates.moments import _ClosedForms
from annurates.rates import _derived_rate, geometric_singular, singular

# j at the center and on both sides of both edges of the band |j| < 1e-9
BAND_J = (0.0, 0.999e-9, -0.999e-9, 1.001e-9, -1.001e-9)
# geometric ratios at these multiples of the band's half-width from 1+j
BAND_OFFSETS = (0.0, 0.5, -0.999, 0.999, -1.001, 1.001, -10.0, 10.0)


class TestFixedRate:
    def test_basic_quantities(self):
        rate = fixed_rate(0.1)
        assert rate.j == 0.1
        assert rate.d == pytest.approx(1.0 / 11.0, rel=1e-15)
        assert rate.v == pytest.approx(10.0 / 11.0, rel=1e-15)

    def test_zero_rate(self):
        rate = fixed_rate(0.0)
        assert rate.d == 0.0
        assert rate.v == 1.0

    def test_negative_rate(self):
        # j = -0.5 discounts at v = 2, d = -1
        rate = fixed_rate(-0.5)
        assert rate.v == 2.0
        assert rate.d == -1.0

    @pytest.mark.parametrize("bad", [-1.0, -1.5, math.inf, math.nan])
    def test_rejects_unusable_rates(self, bad):
        with pytest.raises(DomainError):
            fixed_rate(bad)

    @given(st.floats(min_value=-0.99, max_value=5.0))
    @settings(max_examples=200)
    def test_discount_identities(self, j):
        rate = fixed_rate(j)
        # v + d cancels at the scale of v, not of 1, when j is near -1
        scale = max(1.0, abs(rate.v) + abs(rate.d))
        assert rate.v + rate.d == pytest.approx(1.0, abs=1e-15 * scale)
        assert (1.0 + j) * rate.v == pytest.approx(1.0, rel=1e-15)
        assert rate.d == pytest.approx(j * rate.v, rel=1e-13, abs=1e-15)


class TestStochasticRateSpec:
    def test_derived_moments(self):
        # exact rationals: mu=11/10, m=5/4, f=1/4, r=3/22, ell=4/121
        spec = stochastic_rate(0.1, 0.04)
        assert spec.mu == pytest.approx(1.1, rel=1e-15)
        assert spec.m == pytest.approx(1.25, rel=1e-15)
        assert spec.f == pytest.approx(0.25, rel=1e-14)
        assert spec.r == pytest.approx(3.0 / 22.0, rel=1e-14)
        assert spec.ell == pytest.approx(4.0 / 121.0, rel=1e-14)

    def test_zero_mean_rate(self):
        spec = stochastic_rate(0.0, 0.01)
        assert spec.f == pytest.approx(0.01, rel=1e-15)
        assert spec.r == pytest.approx(0.01, rel=1e-15)
        assert spec.ell == pytest.approx(0.01, rel=1e-15)

    def test_degenerate_variance(self):
        spec = stochastic_rate(0.05, 0.0)
        assert spec.m == pytest.approx(1.05**2, rel=1e-15)
        assert spec.ell == 0.0

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            stochastic_rate(0.1, -1e-9)

    def test_rejects_bad_mean(self):
        with pytest.raises(DomainError):
            stochastic_rate(-1.0, 0.01)

    @given(
        st.floats(min_value=-0.9, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_moment_consistency(self, j, s2):
        spec = stochastic_rate(j, s2)
        mu = 1.0 + j
        assert spec.m == pytest.approx(mu * mu + s2, rel=1e-14)
        assert 1.0 + spec.f == pytest.approx(spec.m, rel=1e-14)
        assert 1.0 + spec.r == pytest.approx((1.0 + spec.f) / mu, rel=1e-13)
        assert spec.ell == pytest.approx(s2 / (mu * mu), rel=1e-13, abs=1e-300)
        assert spec.ell >= 0.0


class TestGeometricAux:
    def test_reference_values(self):
        # j=0.1, s2=0.04, u=0.2: t=1/11, h=-19/144, w=-7/132
        spec = stochastic_rate(0.1, 0.04)
        aux = geometric_aux(spec, 0.2)
        assert aux.t == pytest.approx(1.0 / 11.0, rel=1e-14)
        assert aux.h == pytest.approx(-19.0 / 144.0, rel=1e-13)
        assert aux.w == pytest.approx(-7.0 / 132.0, rel=1e-13)

    def test_growth_matching_rate_mean(self):
        # u = j makes the deflated growth rate vanish
        spec = stochastic_rate(0.1, 0.0)
        aux = geometric_aux(spec, 0.1)
        assert aux.t == pytest.approx(0.0, abs=1e-16)
        assert aux.h == pytest.approx(0.0, abs=1e-15)
        assert aux.w == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_growth(self):
        spec = stochastic_rate(0.1, 0.04)
        with pytest.raises(DomainError):
            geometric_aux(spec, -1.0)

    @pytest.mark.parametrize(
        "u, message",
        [
            (-1.0, "growth rate must exceed -1, got -1.0"),
            (float("-inf"), "growth rate must exceed -1, got -inf"),
            (float("nan"), "growth rate must exceed -1, got nan"),
            (float("inf"), "growth rate must be finite, got inf"),
        ],
    )
    def test_bad_growth_reported_as_growth_due_reports_it(self, u, message):
        spec = stochastic_rate(0.1, 0.04)
        for call in (
            lambda: geometric_aux(spec, u),
            lambda: growth_due(u, 3, 0.1),
            lambda: PaymentPlan.growth(u, 3),
        ):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()

    @pytest.mark.parametrize(
        "j, u", [(3.0, -0.9999999999999998), (1.0, -0.9999999999999999), (19.0, -1.0 + 2.0**-50)]
    )
    def test_t_rounded_to_minus_one_is_a_numerical_failure(self, j, u):
        # (1+u)/(1+j) is so small that t = (1+u)/(1+j) - 1 rounds to -1, and w divides by 1+t
        with pytest.raises(NumericalFailureError, match="^deflated growth rate t = .* rounds to -1"):
            geometric_aux(stochastic_rate(j, 0.0), u)

    @given(
        st.floats(min_value=-0.6, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.25),
        st.floats(min_value=-0.6, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_aux_definitions(self, j, s2, u):
        spec = stochastic_rate(j, s2)
        aux = geometric_aux(spec, u)
        gj, gu = 1.0 + j, 1.0 + u
        assert 1.0 + aux.t == pytest.approx(gu / gj, rel=1e-13)
        assert 1.0 + aux.h == pytest.approx((1.0 + spec.f) / (gu * gu), rel=1e-12)
        assert 1.0 + aux.w == pytest.approx(
            (1.0 + spec.f) / (gj * gj * (1.0 + aux.t)), rel=1e-12
        )


class TestDerivedRate:
    def test_valid_rates_are_their_fixed_rates(self):
        spec = stochastic_rate(0.05, 0.01)
        for name in ("f", "r"):
            assert _derived_rate(spec, name) == fixed_rate(getattr(spec, name))

    @pytest.mark.parametrize(
        "j, s2, name, value",
        [
            # m = (1+j)^2 rounds to within 2^-53 of 0, so f = m - 1 to -1
            (-1.0 + 2.0**-53, 0.0, "f", "-1.0"),
            # (1+j)^2 overflows m, and so f, to inf
            (1e200, 0.0, "f", "inf"),
            # s2/(1+j) overflows r to inf
            (-1.0 + 1e-10, 1e300, "r", "inf"),
        ],
    )
    def test_out_of_domain_is_a_numerical_failure(self, j, s2, name, value):
        spec = stochastic_rate(j, s2)
        message = f"derived rate {name} = {value} is outside (-1, inf) at j = {j!r}, s2 = {s2!r}"
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(message)}$"):
            _derived_rate(spec, name)


class TestSingularBands:
    """fixed, moments and the identity suites route by the predicates in rates."""

    def test_band_edges(self):
        assert [singular(j) for j in BAND_J] == [True, True, True, False, False]
        g = 1.05
        inside = [geometric_singular(g, g + m * SINGULARITY_EPS * g) for m in BAND_OFFSETS]
        assert inside == [True, True, True, True, False, False, False, False]

    @pytest.mark.parametrize("j", BAND_J)
    def test_closed_level_is_rejected_exactly_in_the_band(self, j):
        if singular(j):
            with pytest.raises(DomainError, match="closed form is singular for"):
                level_due(1, j, "closed")
        else:
            assert level_due(1, j, "closed") == pytest.approx(1.0 + j, rel=1e-12)
        assert level_due(5, j) == level_due(5, j, "recursive" if singular(j) else "closed")

    @pytest.mark.parametrize("j", BAND_J + (0.05,))
    @pytest.mark.parametrize("offset", BAND_OFFSETS)
    def test_geometric_due_sums_exactly_in_the_band(self, j, offset):
        # mode "auto" is the closed quotient at every ratio, in the band too,
        # and stays within a few units of roundoff of the exact value
        g = 1.0 + j
        q = g + offset * SINGULARITY_EPS * max(1.0, g)
        value = geometric_due(2.0, q, 7, j)
        assert value == geometric_due(2.0, q, 7, j, "closed")
        exact = oracles.fixed_value(oracles.geometric_payments(2.0, q, 7), Fraction(g) - 1)
        assert abs(Fraction(value) - exact) <= 4 * 2**-53 * exact

    @pytest.mark.parametrize("j", BAND_J + (0.05,))
    @pytest.mark.parametrize("offset", BAND_OFFSETS)
    def test_closed_moments_follow_the_predicates(self, j, offset):
        spec = stochastic_rate(j, 0.01)
        arithmetic = PaymentPlan.arithmetic(1.0, 0.5, 3)
        assert _ClosedForms(arithmetic, spec, 3).singular == singular(j)
        q = spec.mu + offset * SINGULARITY_EPS * max(1.0, spec.mu)
        geometric = PaymentPlan.geometric(1.0, q, 3)
        assert _ClosedForms(geometric, spec, 3).singular == geometric_singular(spec.mu, q)

    @pytest.mark.parametrize("j", BAND_J + (0.05,))
    def test_identity_tables_follow_the_predicates(self, j):
        evaluators, _ = _fixed_tables(fixed_rate(j))
        closed_named = {
            "level-evaluators": "closed",
            "increasing-evaluators": "closed",
            "increasing-squared-evaluators": "closed",
            "increasing-squared-relation": "relation",
        }
        geometric = 0
        for name, evaluate, modes in evaluators:
            if name == "geometric-evaluators":
                # the closed geometric quotient has no band: q = 1+j included
                assert "closed" in modes, evaluate.args[1]
                geometric += 1
            elif name in closed_named:
                assert (closed_named[name] in modes) == (not singular(j)), name
        assert geometric == 5
