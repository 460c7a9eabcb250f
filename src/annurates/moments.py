"""Means, second moments and variances of accumulated values under random rates.

Annual rates are i.i.d. with mean j and variance s2.  With payments c_1..c_n
made at the start of each year, the accumulated value evolves as

    C_k = (1 + i_k) (C_{k-1} + c_k),  C_0 = 0,

so its mean, second moment and variance satisfy exact one-step recursions
driven by mu = 1+j and m = (1+j)^2 + s2.  The variance's own,
var_k = m var_{k-1} + s2 (mu_{k-1} + c_k)^2, holds because i_k is
independent of C_{k-1}, and adds only non-negative terms.  Those recursions
are the reference path.  The closed forms evaluate the same quantities
through deterministic annuity values at the derived rates f, r, ell and are
cross-checked against the recursions.  A closed variance that drifts from
the recursion's (the subtraction m_k - mu_k^2 can cancel) is silently
replaced by it; _audit raises FormulaAuditError where a specialized family
or the arithmetic diagonal part drifts from its reference.

Both paths of moment_series run in time linear in n.  The arithmetic closed
forms read their annuity values at f, r and j from fixed._sum_tables, exact
prefix sums rounded once; inside the singular band, and for a geometric plan
with p = 0, every closed moment is the row of one recursion pass.  Each
closed quantity is a kernel (_ClosedForms) that evaluates a whole column of
years in one pass.  A moment that leaves double range raises
NumericalFailureError: naming the largest horizon that fits, from the
accumulators or fixed._sum_tables; the year whose payment leaves it; or,
where a closed formula itself leaves it, the quantity and the year.

The second moment splits as m_k = diagonal + 2*cross, where the diagonal
part collects the squared-payment terms c_i^2 m^{k-i+1} and the cross part
collects c_i mu_{i-1} m^{k-i+1}.

Every value is a Python float.  Only the functions that return arrays
(moment_series, the *_series functions and PaymentPlan.payments) import
numpy, when they are called; the CLI's tables read _series_columns.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    DomainError,
    FormulaAuditError,
    NumericalFailureError,
    check_int,
)
from .fixed import (
    _arithmetic,
    _check_arithmetic,
    _check_geometric,
    _geometric,
    _sum_tables,
    decreasing_due,
    increasing_due,
    increasing_squared_due,
    level_due,
)
from .rates import (
    GeometricAux,
    StochasticRateSpec,
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
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
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
        return cls(family="arithmetic", p=float(n), q=-1.0, n=n)

    @classmethod
    def growth(cls, u, n) -> "PaymentPlan":
        """Unit payment growing at rate u > -1 per year."""
        return cls(family="geometric", p=1.0, q=_growth_ratio(u), n=n)


@dataclass(frozen=True)
class MomentSeries:
    """Moments of the accumulated value for every horizon 1..n.

    Arrays are indexed by k-1.  variance is 0.0 where s2 = 0; otherwise it is
    the variance's own recursion (recursive) or the closed second moment
    minus the closed squared mean, settled to that recursion (closed), so it
    need not equal second_moment - mean**2 of these arrays.
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


def _general_reference(plan: PaymentPlan, spec: StochasticRateSpec, k: int):
    """(mean, variance, second moment, diagonal, cross) at year k from the recursion."""
    ref = _recursion(plan, spec, k)
    var = _variances(ref, range(k, k + 1))[0]
    return ref.mean[-1], var, ref.second[-1], ref.diagonal[-1], ref.cross[-1]


def mean_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Mean accumulated value for k = 1..n, from the recursion."""
    import numpy as np
    return np.array(_recursion(plan, spec).mean)


def second_moment_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Second moment for k = 1..n, from the recursion."""
    import numpy as np
    return np.array(_recursion(plan, spec).second)


def variance_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Variance for k = 1..n from its own recursion."""
    import numpy as np
    return np.array(_variances(_recursion(plan, spec), range(1, plan.n + 1)))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _rows(column: tuple):
    """ks -> column[k-1] for each k of ks, a kernel that reads a table indexed by year - 1."""
    return lambda ks: [column[k - 1] for k in ks]


class _ClosedForms:
    """The closed forms of one plan and rate at the years ks = first..kmax.

    Each of mean, second, diagonal, cross and mean_squared is a kernel, built
    on first use, that maps a range of years to its values in one pass, with
    the route, accumulators, coefficients (left-associated prefixes of the
    written products, so each term rounds as written) and tables (rows of
    fixed._sum_tables that ks reads, or of the recursion pass every closed
    variance is settled against) settled once.  moment_series takes ks = 1..n
    and a per-year function ks = k..k, both through column: they agree bit for bit.
    """

    def __init__(self, plan: PaymentPlan, spec: StochasticRateSpec, kmax: int, first: int = 1):
        self.plan = plan
        self.spec = spec
        self.kmax = kmax
        self.ks = range(first, kmax + 1)
        # whether the closed forms' denominator (d, or 1+j-q for geometric
        # plans) vanishes; a geometric plan that pays nothing reads the
        # recursion too: its moments are zero, while q^k or (1+j)^k alone may
        # leave double range
        if plan.family == "geometric":
            self.singular = geometric_singular(spec.mu, plan.q) or not plan.p
        else:
            self.singular = singular(spec.j)
        self.rj = fixed_rate(spec.j)
        self.rf = fixed_rate(spec.f)
        self.rr = fixed_rate(spec.r)

    @cached_property
    def ref(self) -> _Moments:
        return _recursion(self.plan, self.spec, self.kmax)

    def _table(self, rate, kmax: int, rows, squares: bool = False) -> tuple:
        """fixed._sum_tables at rate up to kmax, rounded at rows unless ks starts at year 1."""
        return _sum_tables(rate, kmax, squares, None if self.ks.start == 1 else rows)

    @cached_property
    def at_f(self) -> tuple:
        # the diagonal part reads year k-1 too
        return self._table(self.rf, self.kmax, range(self.ks.start - 1, self.kmax + 1), True)

    # no closed form reads a squared-increasing value at r or j, and those
    # entries leave double range first

    @cached_property
    def at_r(self) -> tuple:
        return self._table(self.rr, self.kmax, self.ks)

    @cached_property
    def at_j(self) -> tuple:
        # the squared mean reads years k and 2k
        ks = self.ks
        return self._table(self.rj, 2 * self.kmax, [*ks, *range(2 * ks[0], 2 * ks[-1] + 1, 2)])

    # the geometric sums with parameters (p, q) at r and (p^2, q^2) at f;
    # strict=False because plan construction already enforced positivity.
    # second, diagonal and cross read them at the same years, so each
    # column is cached; a call that raises is not, and raises again

    @cached_property
    def geometric_r(self):
        return cache(_geometric(self.plan.p, self.plan.q, self.rr, "auto", False))

    @cached_property
    def geometric_f(self):
        p, q = self.plan.p, self.plan.q
        return cache(_geometric(p * p, q * q, self.rf, "auto", False))

    @cached_property
    def mean(self):
        if self.singular:
            # the band's second and cross rows come from the moment
            # recursion, so its mean does too; arithmetic_due's recursion
            # would round (v + p) + (i-1)q, not the moment recursion's sum
            return _rows(self.ref.mean)
        p, q = self.plan.p, self.plan.q
        if self.plan.family == "geometric":
            # cached: mean_squared reads it again at ks
            return cache(_geometric(p, q, self.rj, "auto", False))
        return _arithmetic(p, q, self.rj, "auto", False)

    @cached_property
    def second(self):
        if self.singular:
            return _rows(self.ref.second)
        p, q = self.plan.p, self.plan.q
        g = self.spec.mu
        if self.plan.family == "geometric":
            at_r, at_f = self.geometric_r, self.geometric_f
            two_p, q_g, g_q = 2.0 * p, q + g, g - q
            return lambda ks: [
                (two_p * g ** (k + 1) * sg_r - q_g * sg_f) / g_q
                for k, sg_r, sg_f in zip(ks, at_r(ks), at_f(ks))
            ]
        d, v = self.rj.d, self.rj.v
        pq = p - q
        c_s_f = (q - p) * (d * pq * (1.0 + v) + 2.0 * q * v)
        c_is_f = -2.0 * q * (d * pq * (1.0 + v) + q * v)
        c_i2_f = -d * q * q * (1.0 + v)
        c_s_r = 2.0 * pq * (d * pq + q)
        c_is_r = 2.0 * q * (d * pq + q)
        dd = d * d
        s_f, is_f, i2_f = self.at_f
        s_r, is_r = self.at_r
        return lambda ks: [
            math.fsum([c_s_f * s_f[k], c_is_f * is_f[k], c_i2_f * i2_f[k],
                       c_s_r * gk * s_r[k], c_is_r * gk * is_r[k]]) / dd
            for k, gk in zip(ks, [g**k for k in ks])
        ]

    @cached_property
    def diagonal(self):
        if self.plan.family == "geometric":
            return self.geometric_f
        p, q = self.plan.p, self.plan.q
        # sum-mode annuity values are accurate to an ulp at any rate, which
        # the cancellation-prone brackets below need
        s_f, is_f, i2_f = self.at_f
        c_s, c_is, c_i2 = (p - q) ** 2, 2.0 * q * (p - q), q * q
        o_s, o_is = p * p, 2.0 * p * q

        def diagonal(ks):
            values = []
            for k in ks:
                terms = [c_s * s_f[k], c_is * is_f[k], c_i2 * i2_f[k]]
                offset = [o_s * s_f[k], o_is * is_f[k - 1], c_i2 * i2_f[k - 1]]
                values.append(math.fsum(terms))
                _audit("diagonal part", values[-1], math.fsum(offset), _term_scale(terms + offset))
            return values

        return diagonal

    @cached_property
    def cross(self):
        if self.singular:
            return _rows(self.ref.cross)
        p, q = self.plan.p, self.plan.q
        g = self.spec.mu
        if self.plan.family == "geometric":
            at_r, at_f = self.geometric_r, self.geometric_f
            g_q = g - q

            # year 1 alone reads no accumulator
            return lambda ks: [0.0] if ks == range(1, 2) else [
                0.0 if k == 1 else (p * g ** (k + 1) * r - g * f) / g_q
                for k, r, f in zip(ks, at_r(ks), at_f(ks))
            ]
        d, v = self.rj.d, self.rj.v
        pq = p - q
        c_s_r = pq * (d * pq + q)
        c_is_r = q * (d * pq + q)
        c_s_f = -pq * (d * pq + q * v)
        c_is_f = -q * (2.0 * d * pq + q * v)
        c_i2_f = -q * q * d
        dd = d * d
        s_f, is_f, i2_f = self.at_f
        s_r, is_r = self.at_r
        return lambda ks: [
            0.0 if k == 1 else math.fsum([c_s_r * gk * s_r[k], c_is_r * gk * is_r[k],
                                          c_s_f * s_f[k], c_is_f * is_f[k], c_i2_f * i2_f[k]]) / dd
            for k, gk in zip(ks, [g**k for k in ks])
        ]

    @cached_property
    def mean_squared(self):
        if self.singular:
            mean = self.mean
            return lambda ks: [x**2 for x in mean(ks)]
        p, q = self.plan.p, self.plan.q
        if self.plan.family == "geometric":
            g = self.spec.mu
            at_j = self.mean
            lead = p * g / (g - q)
            return lambda ks: [
                lead * (sg_2k - 2.0 * q**k * sg_k)
                for k, sg_k, sg_2k in zip(ks, at_j(ks), at_j(range(2 * ks[0], 2 * ks[-1] + 1, 2)))
            ]
        d = self.rj.d
        pq = p - q
        s_j, is_j = self.at_j
        qd = q / d
        lead = pq / d * (pq + 2.0 * qd)
        c_s_k, c_k_s_k = -2.0 * lead, -2.0 * q * pq
        c_is_2k, c_is_k, c_kk = qd * qd, -2.0 * qd * qd, -qd * qd
        return lambda ks: [
            math.fsum([lead * s_j[2 * k], c_s_k * s_j[k], c_k_s_k * k / d * s_j[k],
                       c_is_2k * is_j[2 * k], c_is_k * (1.0 + k * d) * is_j[k], c_kk * k * k])
            for k in ks
        ]

    def variance(self, ks, second) -> list:
        """second - mean_squared at each year of ks, settled against the recursion."""
        if self.spec.s2 == 0.0:
            return [0.0] * len(ks)
        candidates = map(operator.sub, second, self.mean_squared(ks))
        return _settle_variance(candidates, _variances(self.ref, ks))

    # what each kernel computes, for the error that names it
    _QUANTITY = dict(mean="mean", second="second moment", diagonal="diagonal part",
                     cross="cross part", mean_squared="squared mean", variance="variance")

    def column(self, name: str, *rows) -> list:
        """The kernel name over ks, passed those years' entries of rows, checked once.

        Else the years run alone until one raises, which passes through, but
        an OverflowError or ValueError, like an inf or NaN value, raises
        NumericalFailureError naming the first such year.
        """
        try:
            values = getattr(self, name)(self.ks, *rows)
            if all(map(math.isfinite, values)):
                return values
        except (ArithmeticError, ValueError):  # the years alone decide which error
            pass
        values = []
        for i, k in enumerate(self.ks):
            try:
                # looked up here, since building a kernel may leave double range
                values += getattr(self, name)(range(k, k + 1), *(row[i : i + 1] for row in rows))
            except DomainError:
                raise
            except (OverflowError, ValueError):
                values.append(math.nan)
                break
        year = next((k for k, value in zip(self.ks, values) if not math.isfinite(value)), None)
        if year is None:
            return values
        raise NumericalFailureError(
            f"closed {self._QUANTITY[name]} leaves double range at year {year}"
        )

    def series(self, parts: int = 5) -> tuple:
        """The first parts of (mean, second moment, variance, diagonal, cross) lists over ks."""
        # evaluated in this order, which decides the error an overflow raises
        mean, second = self.column("mean"), self.column("second")
        rest = [self.column("diagonal"), self.column("cross")] if parts > 3 else []
        return (mean, second, self.column("variance", second), *rest)[:parts]


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
    """Closed form of the squared mean, written in annuity values at rate j."""
    return _closed_at(plan, spec, k, "mean_squared")


def variance_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Closed-form variance, falling back to the recursions on cancellation."""
    k = check_int(k, "k", 0, plan.n)
    if k == 0 or spec.s2 == 0.0:
        return 0.0
    closed = _ClosedForms(plan, spec, k, k)
    return closed.column("variance", closed.column("second"))[0]


def _series_columns(plan: PaymentPlan, spec: StochasticRateSpec, method: str, parts=5) -> tuple:
    """The first parts of (mean, second moment, variance, diagonal, cross), k = 1..n, as floats."""
    if method not in ("recursive", "closed"):
        raise DomainError(f"method must be 'recursive' or 'closed', got {method!r}")
    if method == "closed":
        return _ClosedForms(plan, spec, plan.n).series(parts)
    return _recursive_columns(_recursion(plan, spec))[:parts]


def _recursive_columns(ref: _Moments) -> tuple:
    """_series_columns(..., "recursive") from one pass of the recursion."""
    variance = _variances(ref, range(1, len(ref.mean) + 1))
    return ref.mean, ref.second, variance, ref.diagonal, ref.cross


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


def _term_scale(terms) -> float:
    """Largest intermediate magnitude, for sizing roundoff allowances."""
    return max(map(abs, terms))


def _audit(label: str, specialized: float, reference: float, scale: float) -> None:
    """Raise if a specialized closed form drifts from its reference path.

    scale is the largest intermediate term of the specialized expression;
    the allowance it buys covers cancellation roundoff with orders of
    magnitude to spare while staying far below any formula-level error.
    """
    tol = 1e-8 * max(1.0, abs(reference)) + 1e-11 * abs(scale)
    if abs(specialized - reference) > tol:
        raise FormulaAuditError(
            f"{label} disagrees with the reference path: "
            f"{specialized!r} vs {reference!r}"
        )


def _settle_variance(candidates, references) -> list:
    """Each closed-form variance while it tracks the recursion's, else the recursion's."""
    rel = VARIANCE_CONSENSUS_REL
    return [c if c >= 0.0 and abs(c - r) <= rel * r else r for c, r in zip(candidates, references)]


def _special_variance(
    label: str, terms: list, plan: PaymentPlan, spec: StochasticRateSpec, k: int
) -> float:
    """A specialized family's variance fsum(terms), audited and settled against the recursion."""
    var = math.fsum(terms)
    _, var_r, *_ = _general_reference(plan, spec, k)
    _audit(label, var, var_r, scale=_term_scale(terms))
    return _settle_variance([var], [var_r])[0]


def level_moments(spec: StochasticRateSpec, k) -> LevelMoments:
    """Mean and variance of a level annuity-due of 1 per year."""
    k = check_int(k, "k", 0)
    if k == 0:
        return LevelMoments(0.0, 0.0)
    plan = PaymentPlan.level(k)
    if singular(spec.j):
        mean_r, var_r, *_ = _general_reference(plan, spec, k)
        return LevelMoments(mean_r, var_r)
    rj = fixed_rate(spec.j)
    rr = fixed_rate(spec.r)
    rf = fixed_rate(spec.f)
    mean = level_due(k, rj)
    g = spec.mu
    terms = [
        2.0 * g ** (k + 1) * level_due(k, rr, mode="sum") / spec.j,
        -(2.0 + spec.j) * level_due(k, rf, mode="sum") / spec.j,
        -g * level_due(2 * k, rj, mode="sum") / spec.j,
        2.0 * g * level_due(k, rj, mode="sum") / spec.j,
    ]
    return LevelMoments(mean, _special_variance("level variance", terms, plan, spec, k))


def increasing_moments(spec: StochasticRateSpec, k) -> IncreasingMoments:
    """Moments of the increasing annuity-due paying 1, 2, ..., k."""
    k = check_int(k, "k", 0)
    if k == 0:
        return IncreasingMoments(0.0, 0.0, 0.0, 0.0, 0.0)
    plan = PaymentPlan.increasing(k)
    if singular(spec.j):
        mean, var, _, diag, cross = _general_reference(plan, spec, k)
        return IncreasingMoments(mean, diag, cross, diag + 2.0 * cross, var)
    j = spec.j
    g = spec.mu
    rj = fixed_rate(j)
    rr = fixed_rate(spec.r)
    rf = fixed_rate(spec.f)
    mean = increasing_due(k, rj)
    diag = increasing_squared_due(k, rf, mode="sum")
    is_r = increasing_due(k, rr, mode="sum")
    is_f = increasing_due(k, rf, mode="sum")
    cross = math.fsum(
        [g ** (k + 2) * is_r, -g * is_f, -j * g * diag]
    ) / (j * j)
    m2_terms = [
        2.0 * g ** (k + 2) * is_r / (j * j),
        -2.0 * g * is_f / (j * j),
        -(2.0 + j) * diag / j,
    ]
    m2 = math.fsum(m2_terms)
    d = rj.d
    sq_terms = [
        increasing_due(2 * k, rj, mode="sum") / (d * d),
        -2.0 * (1.0 + k * d) * increasing_due(k, rj, mode="sum") / (d * d),
        -float(k * k) / (d * d),
    ]
    var = math.fsum(m2_terms + [-t for t in sq_terms])
    _, var_r, m2_r, *_ = _general_reference(plan, spec, k)
    _audit("increasing second moment", m2, m2_r, scale=_term_scale(m2_terms))
    _audit(
        "increasing variance", var, var_r, scale=_term_scale(m2_terms + sq_terms)
    )
    var = _settle_variance([var], [var_r])[0]
    return IncreasingMoments(mean, diag, cross, m2, var)


def decreasing_moments(spec: StochasticRateSpec, n, k) -> DecreasingMoments:
    """Moments of the decreasing annuity-due paying n, n-1, ..., n-k+1."""
    n = check_int(n, "n", 1)
    k = check_int(k, "k", 0, n)
    if k == 0:
        return DecreasingMoments(0.0, 0.0)
    plan = PaymentPlan.decreasing(n)
    if singular(spec.j) or spec.ell <= 0.0:
        # the ell-form needs j away from 0 and a genuinely random rate
        mean_r, var_r, *_ = _general_reference(plan, spec, k)
        return DecreasingMoments(mean_r, var_r)
    j = spec.j
    g = spec.mu
    rj = fixed_rate(j)
    rl = fixed_rate(spec.ell)
    rr = fixed_rate(spec.r)
    rf = fixed_rate(spec.f)
    mean = decreasing_due(n, k, rj)
    a = n - 1.0 / j
    lead = spec.ell / (rj.d * rj.d)
    terms = [
        lead * a * a * g ** (2 * k) * level_due(k, rl, mode="sum") / (1.0 + spec.ell),
        -2.0 * lead * a * a * g**k * level_due(k, rr, mode="sum") / (1.0 + spec.r),
        lead * a * a * level_due(k, rf, mode="sum") / (1.0 + spec.f),
        2.0 * lead * a * g**k * increasing_due(k, rr, mode="sum") / (1.0 + spec.r),
        -2.0 * lead * a * increasing_due(k, rf, mode="sum") / (1.0 + spec.f),
        lead * increasing_squared_due(k, rf, mode="sum") / (1.0 + spec.f),
    ]
    return DecreasingMoments(mean, _special_variance("decreasing variance", terms, plan, spec, k))


def growth_moments(spec: StochasticRateSpec, aux: GeometricAux, k) -> GrowthMoments:
    """Moments of the annuity-due whose payments grow at rate u per year."""
    k = check_int(k, "k", 0)
    expected = geometric_aux(spec, aux.u)
    for name in ("t", "h", "w"):
        got = getattr(aux, name)
        want = getattr(expected, name)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            raise DomainError(
                f"auxiliary rate {name}={got} inconsistent with the rate "
                f"specification (expected {want})"
            )
    if k == 0:
        return GrowthMoments(0.0, 0.0)
    plan = PaymentPlan.growth(aux.u, k)
    if singular(aux.t):
        mean_r, var_r, *_ = _general_reference(plan, spec, k)
        return GrowthMoments(mean_r, var_r)
    g = spec.mu
    one_u = 1.0 + aux.u
    one_t = 1.0 + aux.t
    rt = fixed_rate(aux.t)
    rh = fixed_rate(aux.h)
    rw = fixed_rate(aux.w)
    mean = g**k * level_due(k, rt) / one_t
    terms = [
        one_u ** (2 * k) * (2.0 + aux.t) * level_due(k, rh, mode="sum") / aux.t,
        -2.0 * g ** (2 * k) * one_t**k * level_due(k, rw, mode="sum") / aux.t,
        -g ** (2 * k) * level_due(2 * k, rt, mode="sum") / (aux.t * one_t),
        2.0 * g ** (2 * k) * level_due(k, rt, mode="sum") / (aux.t * one_t),
    ]
    return GrowthMoments(mean, _special_variance("growth variance", terms, plan, spec, k))
