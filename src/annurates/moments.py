"""Means, second moments and variances of accumulated values under random rates.

Annual rates are i.i.d. with mean j and variance s2.  With payments c_1..c_n
made at the start of each year, the accumulated value evolves as

    C_k = (1 + i_k) (C_{k-1} + c_k),  C_0 = 0,

so its mean, second moment and variance satisfy exact one-step recursions
driven by mu = 1+j and m = (1+j)^2 + s2.  The variance's own,
var_k = m var_{k-1} + s2 (mu_{k-1} + c_k)^2, holds because i_k is
independent of C_{k-1}, and adds only non-negative terms.  Those recursions
are the reference path.  The closed forms evaluate the same quantities
through deterministic annuity values at the derived rates f and r and are
cross-checked against the recursions.  A closed variance that drifts from
the recursion's (the subtraction m_k - mu_k^2 can cancel) is silently
replaced by it; _audit raises FormulaAuditError where the arithmetic
diagonal part's two forms drift apart.

Both paths of moment_series run in time linear in n.  The arithmetic closed
forms read their annuity values at f and r from fixed._sum_tables, exact
prefix sums rounded once; inside the singular band, and for a geometric plan
with p = 0, every closed moment but the mean is the row of one recursion
pass.  The closed mean is the fixed accumulator at j for every plan.  Each
closed quantity is a kernel, a method of _ClosedForms that maps a range of
years to their values in one pass.  There is one closed path for every
plan: as in the paper, the level, increasing and decreasing families are
the closed series of the arithmetic plan at (p, q) = (1, 0), (1, 1) and
(n, -1), and growth payments that of the geometric plan at (1, 1+u).  A
moment that leaves double range raises NumericalFailureError: naming the
largest horizon that fits, from the accumulators or fixed._sum_tables; the
year whose payment leaves it; where a closed formula itself leaves it, the
quantity and the year; or, for the recursion, the first column to leave it
and the year.

The second moment splits as m_k = diagonal + 2*cross, where the diagonal
part collects the squared-payment terms c_i^2 m^{k-i+1} and the cross part
collects c_i mu_{i-1} m^{k-i+1}.

Every value is a Python float.  Only the functions that return arrays
(moment_series, the *_series functions and PaymentPlan.payments) import
numpy, when they are called; the CLI's tables read _series_columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, FormulaAuditError, NumericalFailureError, check_int
from .fixed import (
    _arithmetic,
    _check_arithmetic,
    _check_geometric,
    _geometric,
    _real,
    _sum_tables,
)
from .rates import (
    GeometricAux,
    StochasticRateSpec,
    _derived_rate,
    _growth_ratio,
    fixed_rate,
    geometric_aux,
    geometric_singular,
    singular,
)

if TYPE_CHECKING:
    import numpy as np

# A closed-form variance is reported only while it agrees with the
# recursion's variance this tightly, relative to it; beyond that the
# subtraction m_k - mu_k^2 has cancelled and the recursion value is reported
# instead.
VARIANCE_CONSENSUS_REL = 2.5e-11

_FAMILIES = ("arithmetic", "geometric")


@dataclass(frozen=True)
class PaymentPlan:
    """Payment schedule over an n-year horizon.

    Arithmetic plans pay p, p+q, ..., p+(n-1)q; geometric plans pay
    p, pq, ..., pq^(n-1).  Strict mode requires every payment positive.
    """

    family: str
    p: float
    q: float
    n: int
    strict: bool = True

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        object.__setattr__(self, "n", check_int(self.n, "horizon n", 1))
        object.__setattr__(self, "p", _real(self.p))
        object.__setattr__(self, "q", _real(self.q))
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError("payment parameters must be finite")
        if self.strict:
            if self.family == "arithmetic":
                _check_arithmetic(self.p, self.q, self.n, "n")
            else:
                _check_geometric(self.p, self.q)

    def payment(self, i: int) -> float:
        """Payment made at the start of year i, 1 <= i <= n."""
        return self._payment(check_int(i, "payment index", 1, self.n))

    def _payment(self, i: int) -> float:
        """payment(i) for an int i the caller keeps in 1..n."""
        if self.family == "arithmetic":
            return self.p + (i - 1) * self.q
        try:
            return self.p * self.q ** (i - 1)
        except OverflowError:
            # p = 0 pays nothing, however far q^(i-1) leaves double range
            if not self.p:
                return self.p
            raise NumericalFailureError(
                f"payment {self.p} * {self.q}**{i - 1} overflows double range at year {i}"
            ) from None

    def payments(self) -> np.ndarray:
        import numpy as np
        return np.array([self._payment(i) for i in range(1, self.n + 1)])

    @classmethod
    def arithmetic(cls, p, q, n, strict: bool = True) -> "PaymentPlan":
        return cls(family="arithmetic", p=p, q=q, n=n, strict=strict)

    @classmethod
    def geometric(cls, p, q, n, strict: bool = True) -> "PaymentPlan":
        return cls(family="geometric", p=p, q=q, n=n, strict=strict)

    @classmethod
    def level(cls, n) -> "PaymentPlan":
        return cls(family="arithmetic", p=1.0, q=0.0, n=n)

    @classmethod
    def increasing(cls, n) -> "PaymentPlan":
        return cls(family="arithmetic", p=1.0, q=1.0, n=n)

    @classmethod
    def decreasing(cls, n) -> "PaymentPlan":
        """Payments n, n-1, ..., 1."""
        return cls(family="arithmetic", p=n, q=-1.0, n=n)

    @classmethod
    def growth(cls, u, n) -> "PaymentPlan":
        """Unit payment growing at rate u > -1 per year."""
        return cls(family="geometric", p=1.0, q=_growth_ratio(u), n=n)


@dataclass(frozen=True)
class MomentSeries:
    """Moments of the accumulated value for every horizon 1..n.

    Arrays are indexed by k-1.  variance is 0.0 where s2 = 0; otherwise it is
    the variance's own recursion (recursive) or second_moment - mean**2 of
    these arrays settled to that recursion (closed), so in either case it
    need not equal second_moment - mean**2.
    """

    plan: PaymentPlan
    spec: StochasticRateSpec
    method: str
    mean: np.ndarray
    second_moment: np.ndarray
    variance: np.ndarray
    diagonal: np.ndarray
    cross: np.ndarray

    @property
    def horizon(self) -> int:
        return self.plan.n

    def _at(self, arr: np.ndarray, k: int) -> float:
        return float(arr[check_int(k, "k", 1, self.plan.n) - 1])

    def mean_at(self, k: int) -> float:
        return self._at(self.mean, k)

    def second_moment_at(self, k: int) -> float:
        return self._at(self.second_moment, k)

    def variance_at(self, k: int) -> float:
        return self._at(self.variance, k)


# ---------------------------------------------------------------------------
# recursion paths (reference)
# ---------------------------------------------------------------------------


class _Moments(NamedTuple):
    """Moments of C_1..C_k from the recursions, indexed by year - 1."""

    mean: tuple
    second: tuple
    variance: tuple
    diagonal: tuple
    cross: tuple


# what each column or kernel computes, for the error that names it
_QUANTITY = dict(mean="mean", second="second moment", diagonal="diagonal part",
                 cross="cross part", mean_squared="squared mean", variance="variance")


def _recursion(plan: PaymentPlan, spec: StochasticRateSpec, k: int | None = None) -> _Moments:
    """One pass of the moment recursions over years 1..k (default n), k >= 1.

    mu_k = mu (mu_{k-1} + c_k) and m_k = m (m_{k-1} + 2 c_k mu_{k-1} + c_k^2),
    whose two parts are diagonal_k = m (diagonal_{k-1} + c_k^2) and
    cross_k = m (cross_{k-1} + c_k mu_{k-1}), and
    var_k = m var_{k-1} + s2 (mu_{k-1} + c_k)^2, which never cancels.
    """
    rows = []
    mean = second = var = diag = cross = 0.0
    m, mu, s2 = spec.m, spec.mu, spec.s2
    for c in map(plan._payment, range(1, (plan.n if k is None else k) + 1)):
        step = mean + c
        second = m * (second + 2.0 * c * mean + c * c)
        # s2 * step first: s2 = 0 gives exactly 0.0, and no factor leaves
        # double range before the second moment does
        var = m * var + s2 * step * step
        diag = m * (diag + c * c)
        cross = m * (cross + c * mean)
        mean = mu * step
        rows.append((mean, second, var, diag, cross))
    return _Moments(*zip(*rows))


def _variances(ref: _Moments, ks: range) -> list:
    """The recursion's variances at the years ks, once the second moment is finite at each."""
    rows = slice(ks.start - 1, ks.stop - 1)
    if all(map(math.isfinite, ref.second[rows])):
        return list(ref.variance[rows])
    k = next(k for k in ks if not math.isfinite(ref.second[k - 1]))
    raise NumericalFailureError(f"second moment overflows double range at year {k}")


def mean_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Mean accumulated value for k = 1..n, from the recursion."""
    import numpy as np
    return np.array(_recursion(plan, spec).mean)


def second_moment_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Second moment for k = 1..n, from the recursion."""
    import numpy as np
    return np.array(_recursion(plan, spec).second)


def variance_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Variance for k = 1..n from its own recursion, once the mean and second moment are finite."""
    import numpy as np
    return np.array(_recursive_columns(_recursion(plan, spec), 3)[2])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


class _ClosedForms:
    """The closed forms of one plan and rate at the years ks = first..kmax.

    Every kernel is a method name(ks, *rows) that maps a range of years ks to
    their values in one pass.  Before any year's value it reads what it needs
    of the accumulators and tables, each built on first read: due_at_j, at_f
    and at_r (fixed._sum_tables rows), geometric_r and geometric_f, and ref
    (the recursion pass every closed variance is settled against), in that
    order, which decides the error a call raises.  Its coefficients
    (left-associated prefixes of the written products, so each term rounds
    as written) are computed once per call.
    Off the bands, second and cross share a kernel: _five_terms for an
    arithmetic plan, _quotient_terms for a geometric one.  The mean is
    arithmetic_due or geometric_due at j, in every band too (the arithmetic
    band route is the moment recursion's mean step).  level, increasing,
    decreasing and growth give a specialized family's moments from series,
    the one closed path of every plan.  moment_series and the
    specialization suite take ks = 1..n and a per-year function ks = k..k,
    both through column: they agree bit for bit.
    """

    def __init__(self, plan: PaymentPlan, spec: StochasticRateSpec, kmax: int, first: int = 1):
        self.plan = plan
        self.spec = spec
        self.kmax = kmax
        self.ks = range(first, kmax + 1)
        # whether the closed second moment and cross part divide by a vanishing
        # d, or 1+j-q for geometric plans, and read the recursion's rows; a
        # geometric plan that pays nothing reads them too: its moments are
        # zero, while q^k or (1+j)^k alone may leave double range
        self.singular = (geometric_singular(spec.mu, plan.q) or not plan.p
                         if plan.family == "geometric" else singular(spec.j))
        self.rj = fixed_rate(spec.j)

    # built when a kernel reads them: where j nears -1 or s2 is huge, f or r
    # rounds out of the rate domain
    rf, rr = (cached_property(lambda self, name=name: _derived_rate(self.spec, name))
              for name in ("f", "r"))

    ref = cached_property(lambda self: _recursion(self.plan, self.spec, self.kmax))

    def _table(self, rate, rows, columns: int = 2) -> tuple:
        """fixed._sum_tables at rate up to kmax, rounded at rows unless ks starts at year 1."""
        return _sum_tables(rate, self.kmax, columns, None if self.ks.start == 1 else rows)

    @cached_property
    def at_f(self) -> tuple:
        # the diagonal part reads year k-1 too
        return self._table(self.rf, range(self.ks.start - 1, self.kmax + 1), 3)

    @cached_property
    def at_r(self) -> tuple:
        # no closed form reads a squared-increasing value at r, and those
        # entries leave double range first
        return self._table(self.rr, self.ks)

    @cached_property
    def geometric_r(self):
        # the geometric sums with parameters (p, q) at r and (p^2, q^2) at f;
        # strict=False because plan construction already enforced positivity.
        # second, diagonal and cross read them at the same years, so each
        # column is cached; a call that raises is not, and raises again
        return cache(_geometric(self.plan.p, self.plan.q, self.rr, "auto", False))

    @cached_property
    def geometric_f(self):
        p, q = self.plan.p, self.plan.q
        return cache(_geometric(p * p, q * q, self.rf, "auto", False))

    @cached_property
    def due_at_j(self):
        # kept, so column's years alone extend one band recursion pass, not rerun it
        build = _geometric if self.plan.family == "geometric" else _arithmetic
        return build(self.plan.p, self.plan.q, self.rj, "auto", False)

    def mean(self, ks) -> list:
        return self.due_at_j(ks)

    def second(self, ks) -> list:
        if self.singular:
            return list(self.ref.second[ks.start - 1 : ks.stop - 1])
        p, q = self.plan.p, self.plan.q
        if self.plan.family == "geometric":
            return self._quotient_terms(ks, 2.0 * p, q + self.spec.mu)
        d, v, pq = self.rj.d, self.rj.v, p - q
        return self._five_terms(ks, (q - p) * (d * pq * (1.0 + v) + 2.0 * q * v),
                                -2.0 * q * (d * pq * (1.0 + v) + q * v), -d * q * q * (1.0 + v),
                                2.0 * pq * (d * pq + q), 2.0 * q * (d * pq + q))

    def diagonal(self, ks) -> list:
        if self.plan.family == "geometric":
            return self.geometric_f(ks)
        p, q = self.plan.p, self.plan.q
        # sum-mode annuity values are accurate to an ulp at any rate, which
        # the cancellation-prone brackets below need
        s_f, is_f, i2_f = self.at_f
        c_s, c_is, c_i2 = (p - q) ** 2, 2.0 * q * (p - q), q * q
        o_s, o_is = p * p, 2.0 * p * q
        values = []
        for k in ks:
            terms = [c_s * s_f[k], c_is * is_f[k], c_i2 * i2_f[k]]
            offset = [o_s * s_f[k], o_is * is_f[k - 1], c_i2 * i2_f[k - 1]]
            values.append(math.fsum(terms))
            _audit("diagonal part", values[-1], math.fsum(offset), terms + offset)
        return values

    def cross(self, ks) -> list:
        if self.singular:
            return list(self.ref.cross[ks.start - 1 : ks.stop - 1])
        p, q = self.plan.p, self.plan.q
        if self.plan.family == "geometric":
            return self._quotient_terms(ks, p, self.spec.mu, 0.0)
        d, v, pq = self.rj.d, self.rj.v, p - q
        return self._five_terms(ks, -pq * (d * pq + q * v), -q * (2.0 * d * pq + q * v),
                                -q * q * d, pq * (d * pq + q), q * (d * pq + q), 0.0)

    def _five_terms(self, ks, c_s_f, c_is_f, c_i2_f, c_s_r, c_is_r, year_one=None) -> list:
        """The arithmetic kernel: each year's fsum of five terms, over d^2.

        The terms are c_s_f L_f, c_is_f I_f, c_i2_f Q_f, c_s_r g^k L_r and c_is_r g^k I_r, where
        L, I, Q are at_f's or at_r's values and g = 1+j; year_one, if given, is year 1's value.
        """
        g, dd = self.spec.mu, self.rj.d * self.rj.d
        (s_f, is_f, i2_f), (s_r, is_r) = self.at_f, self.at_r
        return [
            math.fsum([c_s_f * s_f[k], c_is_f * is_f[k], c_i2_f * i2_f[k],
                       c_s_r * gk * s_r[k], c_is_r * gk * is_r[k]]) / dd
            if k > 1 or year_one is None else year_one
            for k, gk in zip(ks, [g**k for k in ks])
        ]

    def _quotient_terms(self, ks, a, b, year_one=None) -> list:
        """The geometric kernel: (a g^(k+1) S_r - b S_f) / (g - q) at each year k, g = 1+j.

        S_r and S_f are the sums geometric_r and geometric_f, read first, so
        a derived rate out of range raises at year 1 too.  year_one, if given,
        is year 1's value, and then year 1 alone reads no accumulator.
        """
        at_r, at_f, g = self.geometric_r, self.geometric_f, self.spec.mu
        if year_one is not None and ks == range(1, 2):
            return [year_one]
        g_q = g - self.plan.q
        return [
            (a * g ** (k + 1) * s_r - b * s_f) / g_q if k > 1 or year_one is None else year_one
            for k, s_r, s_f in zip(ks, at_r(ks), at_f(ks))
        ]

    def mean_squared(self, ks) -> list:
        return [x**2 for x in self.mean(ks)]

    def variance(self, ks, mean, second) -> list:
        """second - mean**2 at each year of ks, settled against the recursion."""
        if self.spec.s2 == 0.0:
            return [0.0] * len(ks)
        candidates = [m2 - x**2 for x, m2 in zip(mean, second)]
        return _settle_variance(candidates, _variances(self.ref, ks))

    def column(self, name: str, *rows) -> list:
        """The kernel method name over ks, passed those years' entries of rows, checked once.

        Else the years run alone, in order, until one raises or is not finite:
        its error passes through, but an OverflowError or ValueError, like an
        inf or NaN value, raises NumericalFailureError naming that year.
        """
        kernel = getattr(self, name)
        try:
            values = kernel(self.ks, *rows)
            if all(map(math.isfinite, values)):
                return values
        except (ArithmeticError, ValueError):  # the years alone decide which error
            pass
        values = []
        for i, k in enumerate(self.ks):
            try:
                values += kernel(range(k, k + 1), *(row[i : i + 1] for row in rows))
            except DomainError:
                raise
            except (OverflowError, ValueError):
                values.append(math.nan)
            if not math.isfinite(values[-1]):
                raise NumericalFailureError(
                    f"closed {_QUANTITY[name]} leaves double range at year {k}")
        return values

    def series(self, parts: int = 5) -> tuple:
        """The first parts of (mean, second moment, variance, diagonal, cross) lists over ks."""
        # evaluated in this order, which decides the error an overflow raises
        mean, second = self.column("mean"), self.column("second")
        rest = [self.column("diagonal"), self.column("cross")] if parts > 3 else []
        return (mean, second, self.column("variance", mean, second), *rest)[:parts]

    # The specialized families over ks of their plans level(n), increasing(n),
    # decreasing(n) and growth(u, n), as in the paper: a NamedTuple a year,
    # built from series' columns.

    def level(self) -> list:
        return self._mean_variance(LevelMoments)

    def increasing(self) -> list:
        mean, second, variance, diagonal, cross = self.series()
        return list(map(IncreasingMoments, mean, diagonal, cross, second, variance))

    def decreasing(self) -> list:
        return self._mean_variance(DecreasingMoments)

    def growth(self) -> list:
        return self._mean_variance(GrowthMoments)

    def _mean_variance(self, moments: type) -> list:
        mean, _, variance = self.series(3)
        return list(map(moments, mean, variance))


def _closed_at(plan: PaymentPlan, spec: StochasticRateSpec, k, name: str) -> float:
    """The closed kernel name at year k, 0.0 at k = 0."""
    k = check_int(k, "k", 0, plan.n)
    return _ClosedForms(plan, spec, k, k).column(name)[0] if k else 0.0


def mean_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Mean accumulated value: the deterministic value at the mean rate j."""
    return _closed_at(plan, spec, k, "mean")


def second_moment_diagonal(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Squared-payment part of the second moment: sum of c_i^2 m^{k-i+1}.

    For arithmetic plans two equivalent closed forms are evaluated and must
    agree; for geometric plans this is the geometric accumulator with
    parameters (p^2, q^2) at rate f.
    """
    return _closed_at(plan, spec, k, "diagonal")


def second_moment_cross(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Cross part of the second moment: sum of c_i mu_{i-1} m^{k-i+1}."""
    return _closed_at(plan, spec, k, "cross")


def second_moment_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Closed-form second moment of the accumulated value at year k."""
    return _closed_at(plan, spec, k, "second")


def mean_squared_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Squared mean: the square of mean_closed, bit for bit."""
    return _closed_at(plan, spec, k, "mean_squared")


def variance_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Closed-form variance, falling back to the recursions on cancellation."""
    k = check_int(k, "k", 0, plan.n)
    if k == 0 or spec.s2 == 0.0:
        return 0.0
    return _ClosedForms(plan, spec, k, k).series(3)[2][0]


def _series_columns(plan: PaymentPlan, spec: StochasticRateSpec, method: str, parts=5) -> tuple:
    """The first parts of (mean, second moment, variance, diagonal, cross), k = 1..n, as floats."""
    if method not in ("recursive", "closed"):
        raise DomainError(f"method must be 'recursive' or 'closed', got {method!r}")
    if method == "closed":
        return _ClosedForms(plan, spec, plan.n).series(parts)
    return _recursive_columns(_recursion(plan, spec), parts)


def _recursive_columns(ref: _Moments, parts: int = 5) -> tuple:
    """_series_columns(..., "recursive", parts) from one pass of the recursion.

    Raises NumericalFailureError at the first year where a column it returns
    is not finite, naming the first such column.
    """
    columns = ref[:parts]
    if all(all(map(math.isfinite, column)) for column in columns):
        return columns
    k, name = next((k, name) for k, row in enumerate(zip(*columns), 1)
                   for name, x in zip(ref._fields, row) if not math.isfinite(x))
    raise NumericalFailureError(f"{_QUANTITY[name]} overflows double range at year {k}")


def moment_series(
    plan: PaymentPlan, spec: StochasticRateSpec, method: str = "recursive"
) -> MomentSeries:
    """Full mean/second-moment/variance series for k = 1..n."""
    columns = _series_columns(plan, spec, method)
    import numpy as np
    return MomentSeries(plan, spec, method, *map(np.array, columns))


# ---------------------------------------------------------------------------
# specialized families
# ---------------------------------------------------------------------------


class LevelMoments(NamedTuple):
    mean: float
    variance: float


class IncreasingMoments(NamedTuple):
    mean: float
    diagonal: float
    cross: float
    second_moment: float
    variance: float


class DecreasingMoments(NamedTuple):
    mean: float
    variance: float


class GrowthMoments(NamedTuple):
    mean: float
    variance: float


def _audit(label: str, value: float, reference: float, terms) -> None:
    """Raise if a closed form drifts from its reference, another form of the same value.

    The allowance that the largest of terms, the two expressions'
    intermediate terms, buys covers cancellation roundoff with orders of
    magnitude to spare while staying far below any formula-level error.
    """
    tol = 1e-8 * max(1.0, abs(reference)) + 1e-11 * max(map(abs, terms))
    if abs(value - reference) > tol:
        raise FormulaAuditError(
            f"{label} disagrees with the reference path: "
            f"{value!r} vs {reference!r}"
        )


def _settle_variance(candidates, references) -> list:
    """Each closed-form variance while it tracks the recursion's, else the recursion's."""
    rel = VARIANCE_CONSENSUS_REL
    return [c if c >= 0.0 and abs(c - r) <= rel * r else r for c, r in zip(candidates, references)]


def level_moments(spec: StochasticRateSpec, k) -> LevelMoments:
    """Year k of moment_series(PaymentPlan.level(k), spec, "closed"): k payments of 1."""
    k = check_int(k, "k", 0)
    if k == 0:
        return LevelMoments(0.0, 0.0)
    return _ClosedForms(PaymentPlan.level(k), spec, k, k).level()[0]


def increasing_moments(spec: StochasticRateSpec, k) -> IncreasingMoments:
    """Year k of moment_series(PaymentPlan.increasing(k), spec, "closed"): payments 1, ..., k."""
    k = check_int(k, "k", 0)
    if k == 0:
        return IncreasingMoments(0.0, 0.0, 0.0, 0.0, 0.0)
    return _ClosedForms(PaymentPlan.increasing(k), spec, k, k).increasing()[0]


def decreasing_moments(spec: StochasticRateSpec, n, k) -> DecreasingMoments:
    """Year k of moment_series(PaymentPlan.decreasing(n), spec, "closed"): n, ..., n-k+1."""
    n = check_int(n, "n", 1)
    k = check_int(k, "k", 0, n)
    if k == 0:
        return DecreasingMoments(0.0, 0.0)
    return _ClosedForms(PaymentPlan.decreasing(n), spec, k, k).decreasing()[0]


def growth_moments(spec: StochasticRateSpec, aux: GeometricAux, k) -> GrowthMoments:
    """Year k of moment_series(PaymentPlan.growth(aux.u, k), spec, "closed"): payments (1+u)^i.

    aux must be geometric_aux(spec, aux.u), else DomainError.
    """
    k = check_int(k, "k", 0)
    expected = geometric_aux(spec, aux.u)
    for name in ("t", "h", "w"):
        got, want = getattr(aux, name), getattr(expected, name)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            raise DomainError(
                f"auxiliary rate {name}={got} inconsistent with the rate "
                f"specification (expected {want})"
            )
    if k == 0:
        return GrowthMoments(0.0, 0.0)
    return _ClosedForms(PaymentPlan.growth(aux.u, k), spec, k, k).growth()[0]
