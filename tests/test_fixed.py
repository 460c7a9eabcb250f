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
    SINGULARITY_EPS,
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
from annurates import fixed
from annurates.fixed import _annuity, _geometric, _sum_tables

R10 = fixed_rate(0.1)
# u, the unit roundoff of a double
ROUNDOFF = Fraction(2) ** -53
# ratios at multiples of the half-width SINGULARITY_EPS from 1.1, the gross rate of R10
BAND_RATIOS = [1.1 + m * SINGULARITY_EPS * 1.1 for m in (0.0, 0.5, -0.999, 0.999, -1.001, 1.001)]

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

    @given(
        st.floats(min_value=0.1, max_value=2.5) | st.sampled_from(BAND_RATIOS),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_closed_matches_sum(self, q, k):
        got = geometric_due(1.5, q, k, R10, mode="closed")
        want = geometric_due(1.5, q, k, R10, mode="sum")
        assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("k", [1746, 1800])
    def test_auto_is_within_one_roundoff_at_a_long_horizon(self, k):
        # q is the double 1+j: the sum of k rounded terms drifts by about
        # 45 u here, and the closed limit k g^k stays within one.  Each
        # payment q^(i-1) grows to g^k, so the exact value is k g^k, which
        # equals the oracle's year-by-year value (checked at k = 60); the
        # oracle itself takes seconds at these horizons
        j, q = 1e-10, 1.0000000001
        g = Fraction(1.0 + j)
        assert g == Fraction(q)
        assert 60 * g**60 == oracles.fixed_value(oracles.geometric_payments(1.0, q, 60), g - 1)
        exact = k * g**k
        assert abs(Fraction(geometric_due(1.0, q, k, j)) - exact) <= ROUNDOFF * exact

    @given(
        st.floats(min_value=-0.5, max_value=1.0),
        st.sampled_from([0.0, 0.5, -0.999, 0.999]),
        st.integers(min_value=1, max_value=400),
        st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_auto_is_accurate_in_the_band(self, j, offset, k, p):
        g = 1.0 + j
        q = g + offset * SINGULARITY_EPS * max(1.0, g)
        exact = oracles.fixed_value(oracles.geometric_payments(p, q, k), Fraction(g) - 1)
        assert abs(Fraction(geometric_due(p, q, k, j)) - exact) <= 8 * ROUNDOFF * exact

    def test_band_table_takes_no_sum(self, monkeypatch):
        # q = 1+j: a table of n rows takes the closed quotient at each k,
        # not n sums of up to n terms
        calls = []
        monkeypatch.setattr(fixed, "_accumulate", lambda *args: calls.append(args))
        kernel = _geometric(1.0, 1.0, fixed_rate(0.0), "auto", True)
        table = kernel(range(1, 1001))
        assert calls == []
        assert table[:3] == [1.0, 2.0, 3.0] and table[-1] == 1000.0


class TestBandTables:
    @pytest.mark.parametrize("j", [0.0, 1e-10, -5e-10])
    def test_band_table_runs_the_recursion_over_linear_payments(self, j):
        # inside |j| < 1e-9 a table's recursion keeps the values of one pass,
        # so n rows ask for O(n) payments, not n(n+1)/2 from a rerun per row
        n = 1000
        rate = fixed_rate(j)
        asked = []

        def payments(h):
            asked.append(h)
            return range(1, h + 1)

        increasing = _annuity(rate, "auto", None, payments)
        table = increasing(range(1, n + 1))
        assert sum(asked) <= 4 * n
        # each row carries the bits of a recursion run to its horizon alone
        for k in (1, 2, 3, 500, n):
            assert table[k - 1] == increasing_due(k, rate, "recursive")
        assert increasing((7,)) == [increasing_due(7, rate)]


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
        assert _sum_tables(R10, 50, columns=2) == (level, inc)
        assert _sum_tables(R10, 50, columns=1) == (level,)

    def test_only_the_returned_lists_limit_the_horizon(self):
        # the squared-increasing values leave double range 76 years before
        # the increasing ones
        rate = fixed_rate(0.05)
        with pytest.raises(NumericalFailureError, match="fits is 14346$"):
            _sum_tables(rate, 14400)
        level, inc = _sum_tables(rate, 14400, columns=2)
        assert math.isfinite(inc[-1])
        with pytest.raises(NumericalFailureError, match="fits is 14422$"):
            _sum_tables(rate, 14423, columns=2)

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

    # a table is rounded by float(s) * 2^(1-top) while that is exact, else by
    # s / 2^(top-1): j near -1 makes the powers subnormal (top > 1023), and
    # up to 1745, the largest horizon whose increasing value fits at j = 0.5,
    # float(s) overflows
    tables = st.one_of(
        st.tuples(st.floats(min_value=-0.999999, max_value=-0.9), st.integers(1, 400)),
        st.tuples(st.floats(min_value=-0.5, max_value=3.0), st.integers(1, 300)),
        st.tuples(st.just(0.5), st.integers(1690, 1745)),
    )

    @given(tables, st.data())
    @settings(max_examples=40, deadline=None)
    def test_entries_are_the_exact_sums_correctly_rounded(self, table, data):
        j, kmax = table
        exact = _exact_sum_tables(j, kmax)
        rate = fixed_rate(j)
        # the squared entries at 0.5 leave double range
        columns = 3 if kmax <= 1500 or j != 0.5 else 2
        got = _sum_tables(rate, kmax, columns)
        assert [list(map(float.hex, c)) for c in got] == [
            [float(x).hex() for x in c] for c in exact[: len(got)]
        ]
        # the dicts of chosen rows hold the same entries
        rows = data.draw(st.lists(st.integers(0, kmax), min_size=1, max_size=4, unique=True))
        assert _sum_tables(rate, kmax, columns, rows) == tuple(
            {k: column[k] for k in rows} for column in got
        )

    @pytest.mark.parametrize(
        "j, kmax, route", [(0.07, 50, "product"), (-0.999999, 300, "top"), (0.5, 1700, "float")]
    )
    def test_drawn_tables_take_every_rounding_route(self, j, kmax, route):
        powers = list(itertools.accumulate(itertools.repeat(1.0 + j, kmax), operator.mul))
        top, _ = fixed._scaled(powers)
        # the largest increasing entry, as the integer float() would convert
        largest = _exact_sum_tables(j, kmax)[1][-1] * 2 ** (top - 1)
        assert largest.denominator == 1
        if route == "top":
            assert top > 1023
        else:
            assert top <= 1023 and (largest >= 2**1024) == (route == "float")


def _exact_sum_tables(j, kmax):
    """The exact level, increasing and squared-increasing sums for k = 0..kmax, as Fractions."""
    powers = itertools.accumulate(itertools.repeat(1.0 + j, kmax), operator.mul)
    level = increasing = squares = Fraction(0)
    columns = [[level], [increasing], [squares]]
    for x in map(Fraction, powers):
        level += x
        increasing += level
        squares += 2 * increasing - level
        for column, value in zip(columns, (level, increasing, squares)):
            column.append(value)
    return columns


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

    @pytest.mark.parametrize("k, value", [(1800, 1.56e-82), (3000, 1.9e-137)])
    def test_geometric_value_survives_an_underflowing_power(self, k, value):
        # q^(k-1) underflows and, at k = 3000, expm1(k log1p(delta)) overflows,
        # while the value itself is a normal double
        rate = fixed_rate(-0.1)
        got = geometric_due(1.0, 0.65, k, rate)
        assert got == pytest.approx(geometric_due(1.0, 0.65, k, rate, mode="sum"), rel=1e-12)
        assert got == pytest.approx(value, rel=0.01)

    @pytest.mark.parametrize("q", [0.65, 0.9])
    def test_geometric_closed_tracks_sum_where_powers_are_subnormal(self, q):
        rate = fixed_rate(-0.1)
        for k in range(1500, 4001, 50):
            want = geometric_due(1.0, q * 0.95, k, rate, mode="sum")
            assert geometric_due(1.0, q * 0.95, k, rate) == pytest.approx(want, rel=1e-12)

    def test_arithmetic_zero_step_fits_as_long_as_the_level_annuity(self):
        rate = fixed_rate(0.5)
        assert arithmetic_due(1.0, 0.0, 1746, rate) == level_due(1746, rate)
        assert arithmetic_due(1.0, 0.0, 1747, rate) == level_due(1747, rate)
        with pytest.raises(NumericalFailureError, match="fits is 1747$"):
            arithmetic_due(1.0, 0.0, 1748, rate)
        # p = q leaves only the increasing term
        assert arithmetic_due(1.0, 1.0, 1745, rate) == increasing_due(1745, rate)

    @pytest.mark.parametrize(
        "value, fits",
        [
            # fsum's partial sums overflow
            (functools.partial(level_due, 1800, 0.5, "sum"), 1747),
            # the terms reach inf of both signs, which fsum rejects
            (functools.partial(geometric_due, 1.0, -0.5, 1800, 0.5, "sum", False), 1750),
        ],
        ids=["level", "geometric-alternating"],
    )
    def test_sum_mode_overflow_is_numerical_failure(self, value, fits):
        with pytest.raises(NumericalFailureError, match=f"fits is {fits}$"):
            value()

    @pytest.mark.parametrize(
        "fn, args, modes",
        [
            # q^i and the closed quotient overflow; the payments are all zero
            (geometric_due, (0.0, 1.5, 1800, 0.05), ("recursive", "auto", "closed", "sum")),
            # g^i overflows where every payment is zero
            (geometric_due, (0.0, 0.0, 1800, 0.5), ("auto", "sum")),
            (arithmetic_due, (0.0, 0.0, 1800, 0.5), ("sum",)),
        ],
        ids=["geometric-q-overflows", "geometric-zero", "arithmetic-zero"],
    )
    def test_zero_payments_stay_zero_past_double_range(self, fn, args, modes):
        for mode in modes:
            value = fn(*args, mode, strict=False)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0, mode

    @pytest.mark.parametrize(
        "fn, args, expected",
        [
            (arithmetic_due, (10**400, 0, 1, 0.05), (NumericalFailureError, "fits is 0$")),
            # as for q = inf: the strict rule at k = 1 reads p alone
            (arithmetic_due, (1, 10**400, 1, 0.05, "recursive"), 1.05),
            (arithmetic_due, (-(10**400), 0, 2, 0.05, "sum", False), (NumericalFailureError, "0$")),
            (arithmetic_due, (-(10**400), 0, 2, 0.05, "recursive", False), -math.inf),
            (geometric_due, (10**400, 1, 1, 0.05), (NumericalFailureError, "fits is 0$")),
            (geometric_due, (1, 10**400, 2, 0.05, "recursive"), math.inf),
            (decreasing_due, (10**400, 1, 0.05, "recursive"), math.inf),
        ],
        ids=["p", "q-strict", "p-sum", "p-recursive", "geometric-p", "geometric-q", "decreasing"],
    )
    def test_integer_payment_past_double_range_is_its_infinity(self, fn, args, expected):
        # float() of such an int raised a raw OverflowError here; it now
        # gives what a payment parameter of the same signed infinity gives
        if isinstance(expected, tuple):
            with pytest.raises(expected[0], match=expected[1]):
                fn(*args)
        else:
            assert fn(*args) == expected

    @pytest.mark.parametrize("q", [math.inf, -math.inf])
    def test_infinite_q_pays_p_first(self, q):
        # the first payment p + 0*q was NaN, and so was every value after it
        due = functools.partial(arithmetic_due, 1, q, rate=0.05, strict=False)
        assert due(1, mode="recursive") == 1.05
        assert due(2, mode="recursive") == 1.05 * q
        assert due(1, mode="sum") == 1.05
        with pytest.raises(NumericalFailureError, match="the largest horizon that fits is 1$"):
            due(2, mode="sum")

    def test_strict_rule_at_one_year_reads_p_alone(self):
        # p + 0*inf is NaN, which raised a false PaymentPositivityError
        assert arithmetic_due(1, math.inf, 1, 0.05, "recursive") == 1.05
        with pytest.raises(PaymentPositivityError, match=r"q=inf, k=1\)"):
            arithmetic_due(-1, math.inf, 1, 0.05, "recursive")
        with pytest.raises(PaymentPositivityError, match=r"q=-inf, k=2\)"):
            arithmetic_due(1, -math.inf, 2, 0.05, "recursive")

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

    def test_decreasing_needs_a_positive_n(self):
        with pytest.raises(DomainError, match="^n must be at least 1, got 0$"):
            decreasing_due(0, 0, 0.05)

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

    def test_infinite_growth_rate_is_invalid_input(self):
        # not a NumericalFailureError about the largest horizon that fits
        with pytest.raises(DomainError, match="growth rate must be finite, got inf"):
            growth_due(float("inf"), 5, 0.05)
        with pytest.raises(DomainError, match="growth rate must exceed -1, got -inf"):
            growth_due(float("-inf"), 5, 0.05)

    def test_accepts_plain_float_rate(self):
        assert level_due(3, 0.1) == level_due(3, R10)

