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
forms read their annuity values at f and r from fixed._sum_tables, exact
prefix sums rounded once; inside the singular band, and for a geometric plan
with p = 0, every closed moment but the mean is the row of one recursion
pass.  The closed mean is the fixed accumulator at j for every plan.  Each
closed quantity is a kernel (_ClosedForms) that evaluates a whole column of
years in one pass; the specialized families (level, increasing, decreasing
and growth payments) are kernels of it too, with moment_series' tables,
failing-year rule, settlement and recursion pass.  A moment that leaves
double range raises NumericalFailureError: naming the largest horizon that
fits, from the accumulators or fixed._sum_tables; the year whose payment
leaves it; or, where a closed formula itself leaves it, the quantity and
the year.

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
    _level,
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

    Each of mean, second, diagonal and cross is a kernel, built on first use,
    that maps a range of years to its values in one pass, with the route,
    accumulators, coefficients (left-associated prefixes of the written
    products, so each term rounds as written) and tables (rows of
    fixed._sum_tables that ks reads, or of the recursion pass every closed
    variance is settled against) settled once; mean_squared squares the mean.
    Off the bands, second and cross share a kernel: _five_terms for an
    arithmetic plan, _quotient_terms for a geometric one.  The mean is
    arithmetic_due or geometric_due at j, in every band too (the arithmetic
    band route is the moment recursion's mean step).  level, increasing,
    decreasing and growth give a specialized family's moments from kernels of
    their own.  moment_series and the specialization suite take ks = 1..n and
    a per-year function ks = k..k, both through column: they agree bit for bit.
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

    # built when a kernel reads them: the growth family reads none, and where
    # j nears -1 or s2 is huge, f, r or ell rounds out of the rate domain
    rf, rr, rl = (cached_property(lambda self, name=name: _derived_rate(self.spec, name))
                  for name in ("f", "r", "ell"))

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
    def mean(self):
        build = _geometric if self.plan.family == "geometric" else _arithmetic
        return build(self.plan.p, self.plan.q, self.rj, "auto", False)

    @cached_property
    def second(self):
        if self.singular:
            return _rows(self.ref.second)
        p, q = self.plan.p, self.plan.q
        if self.plan.family == "geometric":
            return self._quotient_terms(2.0 * p, q + self.spec.mu)
        d, v, pq = self.rj.d, self.rj.v, p - q
        return self._five_terms(
            (q - p) * (d * pq * (1.0 + v) + 2.0 * q * v), -2.0 * q * (d * pq * (1.0 + v) + q * v),
            -d * q * q * (1.0 + v), 2.0 * pq * (d * pq + q), 2.0 * q * (d * pq + q))

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
                _audit("diagonal part", values[-1], math.fsum(offset), terms + offset)
            return values

        return diagonal

    @cached_property
    def cross(self):
        if self.singular:
            return _rows(self.ref.cross)
        p, q = self.plan.p, self.plan.q
        if self.plan.family == "geometric":
            return self._quotient_terms(p, self.spec.mu, 0.0)
        d, v, pq = self.rj.d, self.rj.v, p - q
        return self._five_terms(-pq * (d * pq + q * v), -q * (2.0 * d * pq + q * v), -q * q * d,
                                pq * (d * pq + q), q * (d * pq + q), 0.0)

    def _five_terms(self, c_s_f, c_is_f, c_i2_f, c_s_r, c_is_r, year_one=None):
        """The arithmetic kernel: each year's fsum of five terms, over d^2.

        The terms are c_s_f L_f, c_is_f I_f, c_i2_f Q_f, c_s_r g^k L_r and c_is_r g^k I_r, where
        L, I, Q are at_f's or at_r's values and g = 1+j; year_one, if given, is year 1's value.
        """
        g, dd = self.spec.mu, self.rj.d * self.rj.d
        (s_f, is_f, i2_f), (s_r, is_r) = self.at_f, self.at_r
        return lambda ks: [
            math.fsum([c_s_f * s_f[k], c_is_f * is_f[k], c_i2_f * i2_f[k],
                       c_s_r * gk * s_r[k], c_is_r * gk * is_r[k]]) / dd
            if k > 1 or year_one is None else year_one
            for k, gk in zip(ks, [g**k for k in ks])
        ]

    def _quotient_terms(self, a, b, year_one=None):
        """The geometric kernel: (a g^(k+1) S_r - b S_f) / (g - q) at each year k, g = 1+j.

        S_r and S_f are the sums geometric_r and geometric_f.  year_one, if
        given, is year 1's value, and then year 1 alone reads no accumulator.
        """
        at_r, at_f, g = self.geometric_r, self.geometric_f, self.spec.mu
        g_q = g - self.plan.q
        return lambda ks: [year_one] if year_one is not None and ks == range(1, 2) else [
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

    # what each kernel computes, for the error that names it, where the name
    # does not say; the increasing cross part is guarded as the second moment
    _QUANTITY = dict(mean="mean", second="second moment", diagonal="diagonal part",
                     cross="cross part", mean_squared="squared mean", variance="variance",
                     increasing_cross="increasing second moment")

    def column(self, name: str, *rows) -> list:
        """The kernel name over ks, passed those years' entries of rows, checked once.

        Else the years run alone, in order, until one raises or is not finite:
        its error passes through, but an OverflowError or ValueError, like an
        inf or NaN value, raises NumericalFailureError naming that year.
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
            if not math.isfinite(values[-1]):
                quantity = self._QUANTITY.get(name, name.replace("_", " "))
                raise NumericalFailureError(f"closed {quantity} leaves double range at year {k}")
        return values

    def series(self, parts: int = 5) -> tuple:
        """The first parts of (mean, second moment, variance, diagonal, cross) lists over ks."""
        # evaluated in this order, which decides the error an overflow raises
        mean, second = self.column("mean"), self.column("second")
        rest = [self.column("diagonal"), self.column("cross")] if parts > 3 else []
        return (mean, second, self.column("variance", mean, second), *rest)[:parts]

    # The specialized families over ks of their plans level(n), increasing(n),
    # decreasing(n) and growth(u, n): a NamedTuple a year, the recursion's rows
    # inside the family's band.  Each kernel reads its powers and tables in the
    # order its terms are written, which decides the error an overflow raises.

    def level(self) -> list:
        if self.singular:
            return self._band(LevelMoments)
        mean = self.column("mean")
        return list(map(LevelMoments, mean, self.column("level_variance", mean)))

    def increasing(self) -> list:
        if self.singular:
            return self._band(IncreasingMoments)
        mean, diagonal = self.column("mean"), [self.at_f[2][k] for k in self.ks]
        cross, second = self.column("increasing_cross"), self.column("increasing_second_moment")
        variance = self.column("increasing_variance", mean)
        return list(map(IncreasingMoments, mean, diagonal, cross, second, variance))

    def decreasing(self) -> list:
        # the ell-form needs j away from 0 and a genuinely random rate
        if self.singular or self.spec.ell <= 0.0:
            return self._band(DecreasingMoments)
        return list(map(DecreasingMoments, self.column("mean"), self.column("decreasing_variance")))

    def growth(self, aux: GeometricAux) -> list:
        if singular(aux.t):
            return self._band(GrowthMoments)
        self.aux = aux
        self.rt, self.rh, self.rw = (_derived_rate(self.spec, x, aux) for x in ("t", "h", "w"))
        mean = self.column("growth_mean")
        return list(map(GrowthMoments, mean, self.column("growth_variance", mean)))

    def _band(self, moments: type) -> list:
        """A family's moments over ks from the recursion, its second moment diagonal + 2 cross."""
        rows, ref = slice(self.ks.start - 1, self.kmax), self.ref
        variance = _variances(ref, self.ks)
        if moments is not IncreasingMoments:
            return list(map(moments, ref.mean[rows], variance))
        diagonal, cross = ref.diagonal[rows], ref.cross[rows]
        second = [d + 2.0 * c for d, c in zip(diagonal, cross)]
        return list(map(IncreasingMoments, ref.mean[rows], diagonal, cross, second, variance))

    def _settled(self, label: str, ks, terms: list) -> list:
        """Each year's variance fsum(terms), audited and settled against the recursion's."""
        values = list(map(math.fsum, terms))
        references = _variances(self.ref, ks)
        for value, reference, year in zip(values, references, terms):
            _audit(label, value, reference, year)
        return _settle_variance(values, references)

    def level_variance(self, ks, mean) -> list:
        j = self.spec.j
        grown = [2.0 * self.spec.mu ** (k + 1) for k in ks]
        (l_r,), (l_f,) = self._table(self.rr, ks, 1), self._table(self.rf, ks, 1)
        terms = [[x * l_r[k] / j, -(2.0 + j) * l_f[k] / j, -m * m]
                 for k, x, m in zip(ks, grown, mean)]
        return self._settled("level variance", ks, terms)

    def _increasing(self, ks) -> list:
        """(cross part, second moment's terms) at each year of ks."""
        j, g = self.spec.j, self.spec.mu
        (_, i_f, q_f), i_r, jj = self.at_f, self.at_r[1], j * j
        return [
            # the exact cross part at year 1 is 0, as cross gives it
            (0.0 if k == 1 else math.fsum([gk * i_r[k], -g * i_f[k], -j * g * q_f[k]]) / jj,
             [2.0 * gk * i_r[k] / jj, -2.0 * g * i_f[k] / jj, -(2.0 + j) * q_f[k] / j])
            for k, gk in zip(ks, [g ** (k + 2) for k in ks])
        ]

    def increasing_cross(self, ks) -> list:
        return [cross for cross, _ in self._increasing(ks)]

    def increasing_second_moment(self, ks) -> list:
        values = []
        for k, (_, terms) in zip(ks, self._increasing(ks)):
            values.append(math.fsum(terms))
            _audit("increasing second moment", values[-1], self.ref.second[k - 1], terms)
        return values

    def increasing_variance(self, ks, mean) -> list:
        terms = [terms + [-x * x] for (_, terms), x in zip(self._increasing(ks), mean)]
        return self._settled("increasing variance", ks, terms)

    def decreasing_variance(self, ks) -> list:
        g, ell, r, f = self.spec.mu, self.spec.ell, self.spec.r, self.spec.f
        a, lead = self.plan.n - 1.0 / self.spec.j, ell / (self.rj.d * self.rj.d)
        grown = [(g ** (2 * k), g**k) for k in ks]
        (l_l,), (l_r, i_r), (l_f, i_f, q_f) = self._table(self.rl, ks, 1), self.at_r, self.at_f
        terms = [
            [lead * a * a * g2 * l_l[k] / (1.0 + ell),
             -2.0 * lead * a * a * g1 * l_r[k] / (1.0 + r), lead * a * a * l_f[k] / (1.0 + f),
             2.0 * lead * a * g1 * i_r[k] / (1.0 + r), -2.0 * lead * a * i_f[k] / (1.0 + f),
             lead * q_f[k] / (1.0 + f)]
            for k, (g2, g1) in zip(ks, grown)
        ]
        return self._settled("decreasing variance", ks, terms)

    def growth_mean(self, ks) -> list:
        grown = [self.spec.mu**k for k in ks]
        return [x * s / (1.0 + self.aux.t) for x, s in zip(grown, _level(self.rt, "auto")(ks))]

    def growth_variance(self, ks, mean) -> list:
        aux, g = self.aux, self.spec.mu
        grown = [(1.0 + aux.u) ** (2 * k) * (2.0 + aux.t) for k in ks]
        (l_h,) = self._table(self.rh, ks, 1)
        deflated = [-2.0 * g ** (2 * k) * (1.0 + aux.t) ** k for k in ks]
        (l_w,) = self._table(self.rw, ks, 1)
        terms = [[x * l_h[k] / aux.t, y * l_w[k] / aux.t, -m * m]
                 for k, x, y, m in zip(ks, grown, deflated, mean)]
        return self._settled("growth variance", ks, terms)


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


def _audit(label: str, specialized: float, reference: float, terms) -> None:
    """Raise if a specialized closed form drifts from its reference path.

    The allowance that the largest of terms, the specialized expression's
    intermediate terms, buys covers cancellation roundoff with orders of
    magnitude to spare while staying far below any formula-level error.
    """
    tol = 1e-8 * max(1.0, abs(reference)) + 1e-11 * max(map(abs, terms))
    if abs(specialized - reference) > tol:
        raise FormulaAuditError(
            f"{label} disagrees with the reference path: "
            f"{specialized!r} vs {reference!r}"
        )


def _settle_variance(candidates, references) -> list:
    """Each closed-form variance while it tracks the recursion's, else the recursion's."""
    rel = VARIANCE_CONSENSUS_REL
    return [c if c >= 0.0 and abs(c - r) <= rel * r else r for c, r in zip(candidates, references)]


def level_moments(spec: StochasticRateSpec, k) -> LevelMoments:
    """Mean and variance of a level annuity-due of 1 per year; variance = m_k - mean^2."""
    k = check_int(k, "k", 0)
    if k == 0:
        return LevelMoments(0.0, 0.0)
    return _ClosedForms(PaymentPlan.level(k), spec, k, k).level()[0]


def increasing_moments(spec: StochasticRateSpec, k) -> IncreasingMoments:
    """Moments of the increasing annuity-due paying 1, 2, ..., k; variance = m_k - mean^2."""
    k = check_int(k, "k", 0)
    if k == 0:
        return IncreasingMoments(0.0, 0.0, 0.0, 0.0, 0.0)
    return _ClosedForms(PaymentPlan.increasing(k), spec, k, k).increasing()[0]


def decreasing_moments(spec: StochasticRateSpec, n, k) -> DecreasingMoments:
    """Moments of the decreasing annuity-due paying n, n-1, ..., n-k+1."""
    n = check_int(n, "n", 1)
    k = check_int(k, "k", 0, n)
    if k == 0:
        return DecreasingMoments(0.0, 0.0)
    return _ClosedForms(PaymentPlan.decreasing(n), spec, k, k).decreasing()[0]


def growth_moments(spec: StochasticRateSpec, aux: GeometricAux, k) -> GrowthMoments:
    """Moments of the annuity-due with payments growing at rate u; variance = m_k - mean^2."""
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
    return _ClosedForms(PaymentPlan.growth(aux.u, k), spec, k, k).growth(aux)[0]
