"""Fixed-rate accumulated values: anchors, evaluator agreement, identities.

Anchor values were computed with the exact rational oracle in oracles.py
and frozen here; test_matches_rational_oracle re-derives a whole grid at
run time.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from annurates import (
    DomainError,
    NumericalFailureError,
    PaymentPositivityError,
    arithmetic_due,
    decreasing_due,
    fixed_rate,
    geometric_due,
    growth_due,
    increasing_due,
    increasing_squared_due,
    level_due,
)
from annurates.fixed import _sum_tables

R10 = fixed_rate(0.1)

rates = st.floats(min_value=-0.6, max_value=1.0).filter(lambda j: abs(j) > 1e-6)
# the twice-divided-by-d closed forms lose ~eps/d^2, so hold them to tight
# tolerances only at rates of everyday magnitude
solid_rates = st.floats(min_value=-0.6, max_value=1.0).filter(lambda j: abs(j) >= 0.01)
horizons = st.integers(min_value=0, max_value=40)


class TestAnchors:
    """Frozen values, all derived with the Fraction oracle."""

    @pytest.mark.parametrize("k, expected", [(1, 1.1), (2, 2.31), (3, 3.641)])
    def test_level(self, k, expected):
        assert level_due(k, R10) == pytest.approx(expected, rel=1e-12)

    def test_level_long_horizon(self):
        assert level_due(10, R10) == pytest.approx(17.5311670611, rel=1e-12)

    def test_increasing(self):
        assert increasing_due(3, R10) == pytest.approx(7.051, rel=1e-12)

    def test_increasing_squared(self):
        assert increasing_squared_due(3, R10) == pytest.approx(16.071, rel=1e-12)

    def test_decreasing(self):
        assert decreasing_due(3, 3, R10) == pytest.approx(7.513, rel=1e-12)

    def test_arithmetic(self):
        assert arithmetic_due(2.0, 3.0, 3, R10) == pytest.approx(17.512, rel=1e-12)

    def test_geometric(self):
        assert geometric_due(1.0, 1.2, 3, R10) == pytest.approx(4.367, rel=1e-12)

    def test_growth(self):
        assert growth_due(0.1, 3, R10) == pytest.approx(3.993, rel=1e-12)


class TestTrivialCases:
    def test_zero_interest_increasing(self):
        rate = fixed_rate(0.0)
        assert [increasing_due(k, rate) for k in (1, 2, 3)] == [1.0, 3.0, 6.0]

    def test_zero_interest_level_counts_payments(self):
        rate = fixed_rate(0.0)
        for k in range(0, 20):
            assert level_due(k, rate) == pytest.approx(float(k), abs=1e-12)

    def test_zero_horizon_is_zero_everywhere(self):
        assert level_due(0, R10) == 0.0
        assert increasing_due(0, R10) == 0.0
        assert increasing_squared_due(0, R10) == 0.0
        assert decreasing_due(5, 0, R10) == 0.0
        assert arithmetic_due(2.0, 1.0, 0, R10) == 0.0
        assert geometric_due(1.0, 1.2, 0, R10) == 0.0
        assert growth_due(0.05, 0, R10) == 0.0

    def test_single_payment(self):
        assert level_due(1, R10) == pytest.approx(1.1, rel=1e-15)
        assert geometric_due(3.0, 1.7, 1, R10) == pytest.approx(3.3, rel=1e-15)


class TestRationalOracleGrid:
    """Package values against the exact rational oracle."""

    @pytest.mark.parametrize("j_num, j_den", [(-1, 20), (0, 1), (1, 100), (1, 10), (1, 4)])
    def test_matches_rational_oracle(self, j_num, j_den):
        from fractions import Fraction

        j = Fraction(j_num, j_den)
        rate = fixed_rate(float(j))
        n = 12
        for k in range(0, n + 1):
            cases = [
                (level_due(k, rate), oracles.level_payments(k)),
                (increasing_due(k, rate), oracles.increasing_payments(k)),
                (increasing_squared_due(k, rate), oracles.squares_payments(k)),
                (decreasing_due(n, k, rate), oracles.decreasing_payments(n, k)),
                (
                    arithmetic_due(2.0, 3.0, k, rate),
                    oracles.arithmetic_payments(2, 3, k),
                ),
                (
                    geometric_due(1.0, 1.2, k, rate),
                    oracles.geometric_payments(1, Fraction(6, 5), k),
                ),
            ]
            for got, payments in cases:
                want = float(oracles.fixed_value(payments, j))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestEvaluatorAgreement:
    @given(rates, horizons)
    @settings(max_examples=150, deadline=None)
    def test_level_paths_agree(self, j, k):
        rate = fixed_rate(j)
        reference = level_due(k, rate, mode="sum")
        for mode in ("auto", "closed", "recursive"):
            got = level_due(k, rate, mode=mode)
            assert got == pytest.approx(reference, rel=1e-11, abs=1e-11)

    @given(solid_rates, horizons)
    @settings(max_examples=150, deadline=None)
    def test_increasing_squared_paths_agree(self, j, k):
        rate = fixed_rate(j)
        reference = increasing_squared_due(k, rate, mode="sum")
        for mode in ("auto", "closed", "recursive", "relation"):
            got = increasing_squared_due(k, rate, mode=mode)
            assert got == pytest.approx(reference, rel=1e-10, abs=1e-10)

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            level_due(3, R10, mode="magic")
        with pytest.raises(DomainError):
            increasing_due(3, R10, mode="relation")


class TestStructuralIdentities:
    @given(rates, st.integers(min_value=1, max_value=40))
    @settings(max_examples=150, deadline=None)
    def test_increasing_shift(self, j, k):
        rate = fixed_rate(j)
        lhs = increasing_due(k - 1, rate, mode="sum")
        rhs = increasing_due(k, rate, mode="sum") - level_due(k, rate, mode="sum")
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(rates, st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10))
    @settings(max_examples=150, deadline=None)
    def test_increasing_decreasing_complement(self, j, k, extra):
        # the two ramps of payments tile an (n+1) x k block of level payments
        n = k + extra
        rate = fixed_rate(j)
        lhs = increasing_due(k, rate, mode="sum") + decreasing_due(n, k, rate, mode="sum")
        assert lhs == pytest.approx((n + 1) * level_due(k, rate, mode="sum"), rel=1e-12)

    @given(rates, st.integers(min_value=1, max_value=25))
    @settings(max_examples=150, deadline=None)
    def test_growth_deflates_to_level(self, j, k):
        rate = fixed_rate(j)
        u = 0.07
        t = (1.0 + u) / (1.0 + j) - 1.0
        expected = (1.0 + j) ** k * level_due(k, fixed_rate(t)) / (1.0 + t)
        assert growth_due(u, k, rate) == pytest.approx(expected, rel=1e-11)

    def test_arithmetic_combines_level_and_increasing(self):
        for j in (-0.05, 0.04, 0.25):
            rate = fixed_rate(j)
            for k in range(0, 15):
                want = 2.0 * level_due(k, rate) + 1.5 * increasing_due(k, rate)
                got = arithmetic_due(3.5, 1.5, k, rate)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestGeometricSingularity:
    def test_ratio_equals_gross_rate(self):
        # q = 1+j collapses the closed form; value is p * k * (1+j)^k
        value = geometric_due(2.0, 1.1, 4, R10)
        assert value == pytest.approx(11.7128, rel=1e-12)
        assert value == pytest.approx(2.0 * 4 * 1.1**4, rel=1e-12)

    def test_continuity_across_the_band(self):
        center = geometric_due(1.0, 1.1, 8, R10)
        for bump in (-1e-10, -1e-12, 1e-12, 1e-10):
            assert geometric_due(1.0, 1.1 + bump, 8, R10) == pytest.approx(
                center, rel=1e-8
            )

    def test_recursion_overflows_to_inf(self):
        # the recursion builds q^i by repeated multiplication, which runs to
        # inf where q**i would raise OverflowError
        assert geometric_due(2.0, 1e10, 40, R10, mode="recursive") == math.inf

    @given(st.floats(min_value=0.1, max_value=2.5), st.integers(min_value=1, max_value=30))
    @settings(max_examples=150, deadline=None)
    def test_closed_matches_sum_away_from_band(self, q, k):
        if abs(1.1 - q) < 1e-6:
            q += 0.01
        got = geometric_due(1.5, q, k, R10, mode="closed")
        want = geometric_due(1.5, q, k, R10, mode="sum")
        assert got == pytest.approx(want, rel=1e-11)


class TestSumTables:
    @pytest.mark.parametrize("j", [-0.9, -0.3, 0.0, 1e-9, 1e-3, 0.07, 0.25, 3.0])
    def test_entries_are_correctly_rounded_sums(self, j):
        kmax = 200
        rate = fixed_rate(j)
        level, inc, sq = _sum_tables(rate, kmax)
        assert len(level) == len(inc) == len(sq) == kmax + 1
        assert level[0] == inc[0] == sq[0] == 0.0
        # g^e as the accumulators build it: iterated multiplication
        powers = itertools.accumulate(itertools.repeat(1.0 + j, kmax), operator.mul)
        # payment k - e earns g^(e+1); with S_n the sum over e < k of
        # e^n g^(e+1), the exact sums are k S_0 - S_1 and k^2 S_0 - 2k S_1 + S_2
        s0 = s1 = s2 = Fraction(0)
        for k, x in enumerate(map(Fraction, powers), 1):
            e = k - 1
            s0, s1, s2 = s0 + x, s1 + e * x, s2 + e * e * x
            assert level[k] == level_due(k, rate, mode="sum")
            assert inc[k] == float(k * s0 - s1)
            assert sq[k] == float(k * k * s0 - 2 * k * s1 + s2)

    @pytest.mark.parametrize("j", [-0.3, 0.0, 0.07, 3.0])
    def test_within_an_ulp_of_the_per_year_sums(self, j):
        rate = fixed_rate(j)
        tables = _sum_tables(rate, 60)
        reference = [
            [f(k, rate, mode="sum") for k in range(61)]
            for f in (level_due, increasing_due, increasing_squared_due)
        ]
        assert tables[0] == reference[0]
        for column, ref_column in zip(tables[1:], reference[1:]):
            for got, want in zip(column, ref_column):
                assert abs(got - want) <= math.ulp(want)

    def test_without_squares_returns_the_first_two_lists(self):
        level, inc, _ = _sum_tables(R10, 50)
        assert _sum_tables(R10, 50, squares=False) == (level, inc)

    def test_only_the_returned_lists_limit_the_horizon(self):
        # the squared-increasing values leave double range 76 years before
        # the increasing ones
        rate = fixed_rate(0.05)
        with pytest.raises(NumericalFailureError, match="fits is 14346$"):
            _sum_tables(rate, 14400)
        level, inc = _sum_tables(rate, 14400, squares=False)
        assert math.isfinite(inc[-1])
        with pytest.raises(NumericalFailureError, match="fits is 14422$"):
            _sum_tables(rate, 14423, squares=False)

    def test_overflow_names_the_largest_horizon_that_fits(self):
        with pytest.raises(NumericalFailureError, match="largest horizon that fits is") as err:
            _sum_tables(R10, 10_000)
        fits = int(str(err.value).rsplit(" ", 1)[1])
        _sum_tables(R10, fits)
        with pytest.raises(NumericalFailureError):
            _sum_tables(R10, fits + 1)

    def test_level_closed_overflow_names_the_largest_horizon_that_fits(self):
        rate = fixed_rate(0.5)
        with pytest.raises(NumericalFailureError, match="fits is 1747$"):
            level_due(2000, rate, mode="closed")
        assert math.isfinite(level_due(1747, rate, mode="closed"))
        with pytest.raises(NumericalFailureError):
            level_due(1748, rate, mode="closed")


# every accumulator in mode "auto", as a function of (p, q, k, rate)
AUTO_MODE = {
    "level": lambda p, q, k, rate: level_due(k, rate),
    "increasing": lambda p, q, k, rate: increasing_due(k, rate),
    "increasing_squared": lambda p, q, k, rate: increasing_squared_due(k, rate),
    "decreasing": lambda p, q, k, rate: decreasing_due(max(k, 1), k, rate),
    "arithmetic": lambda p, q, k, rate: arithmetic_due(p, q, k, rate, strict=False),
    "geometric": lambda p, q, k, rate: geometric_due(p, q, k, rate, strict=False),
    "growth": lambda p, q, k, rate: growth_due(q, k, rate),
}


class TestDoubleRange:
    @given(
        st.sampled_from(sorted(AUTO_MODE)),
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True),
        st.integers(min_value=0, max_value=10_000),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=400, deadline=None)
    def test_auto_mode_is_finite_or_a_documented_error(self, name, j, k, p, q):
        try:
            value = AUTO_MODE[name](p, q, k, fixed_rate(j))
        except (DomainError, NumericalFailureError):
            return
        assert math.isfinite(value)

    @pytest.mark.parametrize(
        "name, fits",
        [("level", 1747), ("increasing", 1745), ("increasing_squared", 1741), ("geometric", 1747)],
    )
    def test_closed_overflow_names_the_largest_horizon_that_fits(self, name, fits):
        # geometric with p = q = 1 is the level annuity
        rate = fixed_rate(0.5)
        value = functools.partial(AUTO_MODE[name], 1.0, 1.0, rate=rate)
        with pytest.raises(NumericalFailureError, match=f"fits is {fits}$"):
            value(2000)
        assert math.isfinite(value(fits))
        with pytest.raises(NumericalFailureError, match=f"fits is {fits}$"):
            value(fits + 1)

    def test_geometric_power_overflow_is_numerical_failure(self):
        # q**(k-1) raises OverflowError inside the closed form
        with pytest.raises(NumericalFailureError, match="fits is 1745$"):
            geometric_due(1.0, 1.5, 2000, fixed_rate(0.3))

    def test_explicit_modes_are_unchecked(self):
        rate = fixed_rate(0.5)
        assert increasing_due(1800, rate, mode="recursive") == math.inf
        with pytest.raises(NumericalFailureError):
            increasing_due(1800, rate, mode="closed")


class TestValidation:
    def test_rejects_negative_horizon(self):
        with pytest.raises(DomainError):
            level_due(-1, R10)

    def test_rejects_non_integer_horizon(self):
        with pytest.raises(DomainError):
            level_due(2.5, R10)
        with pytest.raises(DomainError):
            level_due(True, R10)

    def test_decreasing_needs_k_at_most_n(self):
        with pytest.raises(DomainError):
            decreasing_due(3, 4, R10)

    def test_strict_positivity(self):
        with pytest.raises(PaymentPositivityError):
            arithmetic_due(1.0, -1.0, 5, R10)
        with pytest.raises(PaymentPositivityError):
            geometric_due(1.0, -0.5, 3, R10)
        # the same schedules are fine when positivity is waived
        arithmetic_due(1.0, -1.0, 5, R10, strict=False)
        geometric_due(1.0, -0.5, 3, R10, strict=False)

    def test_growth_rate_bound(self):
        with pytest.raises(DomainError):
            growth_due(-1.0, 3, R10)

    def test_accepts_plain_float_rate(self):
        assert level_due(3, 0.1) == level_due(3, R10)

