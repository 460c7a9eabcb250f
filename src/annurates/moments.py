"""Means, second moments and variances of accumulated values under random rates.

Annual rates are i.i.d. with mean j and variance s2.  With payments c_1..c_n
made at the start of each year, the accumulated value evolves as

    C_k = (1 + i_k) (C_{k-1} + c_k),  C_0 = 0,

so its first and second moments satisfy exact one-step recursions driven by
mu = 1+j and m = (1+j)^2 + s2.  Those recursions are the reference path.
The closed forms evaluate the same quantities through deterministic annuity
values at the derived rates f, r, ell and are cross-checked against the
recursions; on disagreement beyond tolerance the recursion wins and a
FormulaAuditError is raised.

Both paths of moment_series run in time linear in n.  The arithmetic closed
forms read their level, increasing and squared-increasing annuity values at
f, r and j from fixed._sum_tables, exact prefix sums rounded once and built
once per series; inside the singular band the closed series reads the rows
of its one recursion pass.  A moment that leaves double range raises
NumericalFailureError.

The second moment splits as m_k = diagonal + 2*cross, where the diagonal
part collects the squared-payment terms c_i^2 m^{k-i+1} and the cross part
collects c_i mu_{i-1} m^{k-i+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    FormulaAuditError,
    NumericalFailureError,
    PaymentPositivityError,
    check_int,
)
from .fixed import (
    _sum_tables,
    arithmetic_due,
    decreasing_due,
    geometric_due,
    increasing_due,
    increasing_squared_due,
    level_due,
)
from .rates import (
    SINGULARITY_EPS,
    GeometricAux,
    StochasticRateSpec,
    fixed_rate,
    geometric_aux,
)

# Negative closed-form variances within this fraction of the second moment
# are treated as cancellation noise and clamped to zero.
NEGATIVE_VARIANCE_REL = 1e-9

# A closed-form variance is reported only while it agrees with the recursion
# this tightly; beyond that the subtraction m_k - mu_k^2 has cancelled and
# the recursion value is reported instead.
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
                if not self.p > 0.0 or not self.p + (self.n - 1) * self.q > 0.0:
                    raise PaymentPositivityError(
                        f"arithmetic payments must stay positive in strict mode "
                        f"(p={self.p}, q={self.q}, n={self.n}); "
                        "pass strict=False to override"
                    )
            else:
                if not self.p > 0.0 or not self.q > 0.0:
                    raise PaymentPositivityError(
                        f"geometric payments require p > 0 and q > 0 in strict "
                        f"mode (p={self.p}, q={self.q}); pass strict=False to override"
                    )

    def payment(self, i: int) -> float:
        """Payment made at the start of year i, 1 <= i <= n."""
        if i < 1 or i > self.n:
            raise DomainError(f"payment index must be in 1..{self.n}, got {i}")
        if self.family == "arithmetic":
            return self.p + (i - 1) * self.q
        return self.p * self.q ** (i - 1)

    def payments(self) -> np.ndarray:
        return np.array([self.payment(i) for i in range(1, self.n + 1)])

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
        u = float(u)
        if not u > -1.0:
            raise DomainError(f"growth rate must exceed -1, got {u}")
        return cls(family="geometric", p=1.0, q=1.0 + u, n=n)


@dataclass(frozen=True)
class MomentSeries:
    """Moments of the accumulated value for every horizon 1..n.

    Arrays are indexed by k-1.  variance[k-1] equals
    second_moment[k-1] - mean[k-1]^2 after the negative-variance clamp.
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
        if k < 1 or k > self.plan.n:
            raise DomainError(f"k must be in 1..{self.plan.n}, got {k}")
        return float(arr[k - 1])

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
    diagonal: tuple
    cross: tuple


def _recursion(plan: PaymentPlan, spec: StochasticRateSpec, k: int | None = None) -> _Moments:
    """One pass of the moment recursions over years 1..k (default n), k >= 1.

    mu_k = mu (mu_{k-1} + c_k) and m_k = m (m_{k-1} + 2 c_k mu_{k-1} + c_k^2),
    whose two parts are diagonal_k = m (diagonal_{k-1} + c_k^2) and
    cross_k = m (cross_{k-1} + c_k mu_{k-1}).
    """
    rows = []
    mean = second = diag = cross = 0.0
    for i in range(1, (plan.n if k is None else k) + 1):
        c = plan.payment(i)
        second = spec.m * (second + 2.0 * c * mean + c * c)
        diag = spec.m * (diag + c * c)
        cross = spec.m * (cross + c * mean)
        mean = spec.mu * (mean + c)
        rows.append((mean, second, diag, cross))
    return _Moments(*zip(*rows))


def _recursive_variance(
    mean: float, second: float, spec: StochasticRateSpec, k: int
) -> float:
    """Variance from the recursion's moments at year k, clamped at zero."""
    if not math.isfinite(second):
        raise NumericalFailureError(f"second moment overflows double range at year {k}")
    if spec.s2 == 0.0:
        # deterministic rate: C_k has no spread, and computing m_k - mu_k^2
        # would only return cancellation noise
        return 0.0
    var = second - mean * mean
    if var >= 0.0:
        return var
    if var >= -NEGATIVE_VARIANCE_REL * abs(second):
        return 0.0
    raise NumericalFailureError(
        f"variance {var} is negative beyond tolerance (second moment {second})"
    )


def _variances(ref: _Moments, spec: StochasticRateSpec) -> list:
    return [
        _recursive_variance(m, s, spec, k)
        for k, (m, s) in enumerate(zip(ref.mean, ref.second), 1)
    ]


def _general_reference(plan: PaymentPlan, spec: StochasticRateSpec, k: int):
    """(mean, variance, second moment, diagonal, cross) at year k from the recursion."""
    mean, second, diag, cross = (a[-1] for a in _recursion(plan, spec, k))
    return mean, _recursive_variance(mean, second, spec, k), second, diag, cross


def mean_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Mean accumulated value for k = 1..n, from the recursion."""
    return np.array(_recursion(plan, spec).mean)


def second_moment_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Second moment for k = 1..n, from the recursion."""
    return np.array(_recursion(plan, spec).second)


def variance_series(plan: PaymentPlan, spec: StochasticRateSpec) -> np.ndarray:
    """Variance for k = 1..n from the moment recursions, clamped at zero."""
    return np.array(_variances(_recursion(plan, spec), spec))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _check_plan_k(plan: PaymentPlan, k) -> int:
    return check_int(k, "k", 0, plan.n)


def _singular(plan: PaymentPlan, spec: StochasticRateSpec) -> bool:
    """Whether the closed forms' denominator (d, or 1+j-q for geometric plans) vanishes."""
    if plan.family == "arithmetic":
        return abs(spec.j) < SINGULARITY_EPS
    return abs(spec.mu - plan.q) < SINGULARITY_EPS * max(1.0, plan.q)


class _ClosedForms:
    """The closed forms of one plan and rate at every year 1 <= k <= kmax.

    What they read is built once, on first use: the sum-mode annuity tables
    (fixed._sum_tables) at f and r up to kmax and at j up to 2 kmax, and
    inside the singular band one pass of the recursion.  moment_series
    evaluates every year from one instance, and each public per-year
    function from an instance with kmax = k, so the two run the same
    formula code and agree bit for bit.
    """

    def __init__(self, plan: PaymentPlan, spec: StochasticRateSpec, kmax: int):
        self.plan = plan
        self.spec = spec
        self.kmax = kmax
        self.singular = _singular(plan, spec)
        self.rj = fixed_rate(spec.j)
        self.rf = fixed_rate(spec.f)
        self.rr = fixed_rate(spec.r)

    @cached_property
    def ref(self) -> _Moments:
        return _recursion(self.plan, self.spec, self.kmax)

    @cached_property
    def at_f(self) -> tuple:
        return _sum_tables(self.rf, self.kmax)

    # no closed form reads a squared-increasing value at r or j, and those
    # entries leave double range first

    @cached_property
    def at_r(self) -> tuple:
        return _sum_tables(self.rr, self.kmax, squares=False)

    @cached_property
    def at_j(self) -> tuple:
        return _sum_tables(self.rj, 2 * self.kmax, squares=False)

    def mean(self, k: int) -> float:
        plan = self.plan
        # strict=False: plan construction already enforced positivity if asked
        if plan.family == "geometric":
            return geometric_due(plan.p, plan.q, k, self.rj, strict=False)
        if self.singular:
            # arithmetic_due's recursion rounds (v + p) + (i-1)q; the moment
            # recursion rounds v + c_i, and the two must give the same mean
            return self.ref.mean[k - 1]
        return arithmetic_due(plan.p, plan.q, k, self.rj, strict=False)

    def second(self, k: int) -> float:
        if self.singular:
            return self.ref.second[k - 1]
        p, q = self.plan.p, self.plan.q
        g = self.spec.mu
        if self.plan.family == "geometric":
            sg_r = geometric_due(p, q, k, self.rr, strict=False)
            sg_f = geometric_due(p * p, q * q, k, self.rf, strict=False)
            return (2.0 * p * g ** (k + 1) * sg_r - (q + g) * sg_f) / (g - q)
        d, v = self.rj.d, self.rj.v
        gk = g**k
        pq = p - q
        s_f, is_f, i2_f = (t[k] for t in self.at_f)
        s_r, is_r = (t[k] for t in self.at_r)
        return math.fsum(
            [
                (q - p) * (d * pq * (1.0 + v) + 2.0 * q * v) * s_f,
                -2.0 * q * (d * pq * (1.0 + v) + q * v) * is_f,
                -d * q * q * (1.0 + v) * i2_f,
                2.0 * pq * (d * pq + q) * gk * s_r,
                2.0 * q * (d * pq + q) * gk * is_r,
            ]
        ) / (d * d)

    def diagonal(self, k: int) -> float:
        p, q = self.plan.p, self.plan.q
        if self.plan.family == "geometric":
            return geometric_due(p * p, q * q, k, self.rf, strict=False)
        # sum-mode annuity values are accurate to an ulp at any rate, which
        # the cancellation-prone brackets below need
        s_f, is_f, i2_f = self.at_f
        terms = [(p - q) ** 2 * s_f[k], 2.0 * q * (p - q) * is_f[k], q * q * i2_f[k]]
        full = math.fsum(terms)
        offset_terms = [p * p * s_f[k], 2.0 * p * q * is_f[k - 1], q * q * i2_f[k - 1]]
        offset = math.fsum(offset_terms)
        _audit("diagonal part", full, offset, scale=_term_scale(terms + offset_terms))
        return full

    def cross(self, k: int) -> float:
        if k == 1:
            return 0.0
        if self.singular:
            return self.ref.cross[k - 1]
        p, q = self.plan.p, self.plan.q
        g = self.spec.mu
        if self.plan.family == "geometric":
            sg_r = geometric_due(p, q, k, self.rr, strict=False)
            sg_f = geometric_due(p * p, q * q, k, self.rf, strict=False)
            return (p * g ** (k + 1) * sg_r - g * sg_f) / (g - q)
        d, v = self.rj.d, self.rj.v
        gk = g**k
        pq = p - q
        s_f, is_f, i2_f = (t[k] for t in self.at_f)
        s_r, is_r = (t[k] for t in self.at_r)
        return math.fsum(
            [
                pq * (d * pq + q) * gk * s_r,
                q * (d * pq + q) * gk * is_r,
                -pq * (d * pq + q * v) * s_f,
                -q * (2.0 * d * pq + q * v) * is_f,
                -q * q * d * i2_f,
            ]
        ) / (d * d)

    def mean_squared(self, k: int) -> float:
        if self.singular:
            return self.mean(k) ** 2
        p, q = self.plan.p, self.plan.q
        if self.plan.family == "geometric":
            g = self.spec.mu
            sg_k = geometric_due(p, q, k, self.rj, strict=False)
            sg_2k = geometric_due(p, q, 2 * k, self.rj, strict=False)
            return p * g / (g - q) * (sg_2k - 2.0 * q**k * sg_k)
        d = self.rj.d
        pq = p - q
        s_j, is_j = self.at_j
        qd = q / d
        lead = pq / d * (pq + 2.0 * qd)
        return math.fsum(
            [
                lead * s_j[2 * k],
                -2.0 * lead * s_j[k],
                -2.0 * q * pq * k / d * s_j[k],
                qd * qd * is_j[2 * k],
                -2.0 * qd * qd * (1.0 + k * d) * is_j[k],
                -qd * qd * k * k,
            ]
        )

    def variance(self, k: int, second: float) -> float:
        """second - mean_squared at year k, settled against the recursion."""
        if self.spec.s2 == 0.0:
            return 0.0
        candidate = second - self.mean_squared(k)
        # the subtraction cancels almost completely when the rate variance is
        # tiny next to the mean; keep the closed value only while it still
        # agrees with the recursion, otherwise report the recursion
        ref = self.ref
        var_r = _recursive_variance(ref.mean[k - 1], ref.second[k - 1], self.spec, k)
        return _settle_variance(candidate, var_r)

    def series(self) -> tuple:
        """(mean, second moment, diagonal, cross, variance) lists for k = 1..kmax."""
        ks = range(1, self.kmax + 1)
        mean = [self.mean(k) for k in ks]
        second = [self.second(k) for k in ks]
        return (
            mean,
            second,
            [self.diagonal(k) for k in ks],
            [self.cross(k) for k in ks],
            [self.variance(k, m2) for k, m2 in zip(ks, second)],
        )


def mean_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Mean accumulated value: the deterministic value at the mean rate j."""
    k = _check_plan_k(plan, k)
    return _ClosedForms(plan, spec, k).mean(k) if k else 0.0


def second_moment_diagonal(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Squared-payment part of the second moment: sum of c_i^2 m^{k-i+1}.

    For arithmetic plans two equivalent closed forms are evaluated and must
    agree; for geometric plans this is the geometric accumulator with
    parameters (p^2, q^2) at rate f.
    """
    k = _check_plan_k(plan, k)
    return _ClosedForms(plan, spec, k).diagonal(k) if k else 0.0


def second_moment_cross(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Cross part of the second moment: sum of c_i mu_{i-1} m^{k-i+1}."""
    k = _check_plan_k(plan, k)
    return _ClosedForms(plan, spec, k).cross(k) if k else 0.0


def second_moment_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Closed-form second moment of the accumulated value at year k."""
    k = _check_plan_k(plan, k)
    return _ClosedForms(plan, spec, k).second(k) if k else 0.0


def mean_squared_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Closed form of the squared mean, written in annuity values at rate j."""
    k = _check_plan_k(plan, k)
    return _ClosedForms(plan, spec, k).mean_squared(k) if k else 0.0


def variance_closed(plan: PaymentPlan, spec: StochasticRateSpec, k) -> float:
    """Closed-form variance, falling back to the recursions on cancellation."""
    k = _check_plan_k(plan, k)
    if k == 0 or spec.s2 == 0.0:
        return 0.0
    closed = _ClosedForms(plan, spec, k)
    return closed.variance(k, closed.second(k))


def moment_series(
    plan: PaymentPlan, spec: StochasticRateSpec, method: str = "recursive"
) -> MomentSeries:
    """Full mean/second-moment/variance series for k = 1..n."""
    if method not in ("recursive", "closed"):
        raise DomainError(f"method must be 'recursive' or 'closed', got {method!r}")
    if method == "recursive":
        ref = _recursion(plan, spec)
        mean, second, diag, cross = ref
        var = _variances(ref, spec)
    else:
        mean, second, diag, cross, var = _ClosedForms(plan, spec, plan.n).series()
    return MomentSeries(
        plan=plan,
        spec=spec,
        method=method,
        mean=np.array(mean),
        second_moment=np.array(second),
        variance=np.array(var),
        diagonal=np.array(diag),
        cross=np.array(cross),
    )


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
    return max(abs(t) for t in terms)


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


def _settle_variance(candidate: float, reference: float) -> float:
    """Report a closed-form variance only while it tracks the recursion."""
    if candidate >= 0.0 and abs(candidate - reference) <= VARIANCE_CONSENSUS_REL * max(
        1.0, abs(reference)
    ):
        return candidate
    return reference


def level_moments(spec: StochasticRateSpec, k) -> LevelMoments:
    """Mean and variance of a level annuity-due of 1 per year."""
    k = check_int(k, "k", 0)
    if k == 0:
        return LevelMoments(0.0, 0.0)
    plan = PaymentPlan.level(k)
    if abs(spec.j) < SINGULARITY_EPS:
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
    var = math.fsum(terms)
    _, var_r, *_ = _general_reference(plan, spec, k)
    _audit("level variance", var, var_r, scale=_term_scale(terms))
    var = _settle_variance(var, var_r)
    return LevelMoments(mean, var)


def increasing_moments(spec: StochasticRateSpec, k) -> IncreasingMoments:
    """Moments of the increasing annuity-due paying 1, 2, ..., k."""
    k = check_int(k, "k", 0)
    if k == 0:
        return IncreasingMoments(0.0, 0.0, 0.0, 0.0, 0.0)
    plan = PaymentPlan.increasing(k)
    if abs(spec.j) < SINGULARITY_EPS:
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
    var = _settle_variance(var, var_r)
    return IncreasingMoments(mean, diag, cross, m2, var)


def decreasing_moments(spec: StochasticRateSpec, n, k) -> DecreasingMoments:
    """Moments of the decreasing annuity-due paying n, n-1, ..., n-k+1."""
    n = check_int(n, "n", 1)
    k = check_int(k, "k", 0, n)
    if k == 0:
        return DecreasingMoments(0.0, 0.0)
    plan = PaymentPlan.decreasing(n)
    if abs(spec.j) < SINGULARITY_EPS or spec.ell <= 0.0:
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
    var = math.fsum(terms)
    _, var_r, *_ = _general_reference(plan, spec, k)
    _audit("decreasing variance", var, var_r, scale=_term_scale(terms))
    var = _settle_variance(var, var_r)
    return DecreasingMoments(mean, var)


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
    if abs(aux.t) < SINGULARITY_EPS:
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
    var = math.fsum(terms)
    _, var_r, *_ = _general_reference(plan, spec, k)
    _audit("growth variance", var, var_r, scale=_term_scale(terms))
    var = _settle_variance(var, var_r)
    return GrowthMoments(mean, var)
