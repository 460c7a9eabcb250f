"""Accumulated values of annuities-due at a fixed annual rate.

Payments land at the start of each year and the accumulated value is taken
at the end of year k, so a payment made in year i grows by (1+j)^(k-i+1).
Each accumulator offers a closed form, a one-step recursion and a direct
summation; the last two are the same _accumulate over the accumulator's
payment list.  Mode "auto" (the default) uses the closed form except inside
the singular band of its denominator, where it falls back to the recursion.
A result of any mode but an explicit "recursive" or "sum" that leaves double
range raises NumericalFailureError naming the largest horizon that fits.
_sum_tables gives the summation values of the level, increasing and
squared-increasing annuities for every k up to a horizon in one pass.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator

from .errors import DomainError, NumericalFailureError, PaymentPositivityError, check_int
from .rates import SINGULARITY_EPS, FixedRate, fixed_rate

_MODES = ("auto", "closed", "recursive", "sum")
# increasing_squared_due also accepts the quadratic-denominator relationship
_SQ_MODES = _MODES + ("relation",)


def _as_rate(rate) -> FixedRate:
    if isinstance(rate, FixedRate):
        return rate
    return fixed_rate(rate)


def _route(mode: str, singular: bool, allowed=_MODES) -> str:
    if mode not in allowed:
        raise DomainError(f"mode must be one of {allowed}, got {mode!r}")
    if mode == "auto":
        return "recursive" if singular else "closed"
    if mode in ("closed", "relation") and singular:
        raise DomainError(
            "closed form is singular for |j| < 1e-9; use mode 'auto' or 'recursive'"
        )
    return mode


def _accumulate(g: float, payments, path: str, lead=0.0, tail=0) -> float:
    """Value at the end of year k of payments c_i = lead + payments[i] + tail.

    Payment i is made at the start of year i.  Path "recursive" runs
    value = g*(value + lead + payments[i] + tail), adding left to right, so
    the split of c_i fixes how the recursion rounds; path "sum" adds the
    terms c_i g^(k-i+1) with a single rounding.
    """
    if path == "recursive":
        value = 0.0
        for c in payments:
            value = g * (value + lead + c + tail)
        return value
    if lead or tail:
        payments = [lead + c + tail for c in payments]
    terms = []
    x = 1.0
    for c in reversed(payments):
        x *= g  # g^(k-i+1) by iterated multiplication
        terms.append(c * x)
    return math.fsum(terms)


# an exact value rounds to a finite double while it stays below this
_OVERFLOW_EDGE = 2**1024 - 2**970


def _overflow(rate: FixedRate, fits: int) -> NumericalFailureError:
    return NumericalFailureError(
        f"annuity values at rate {rate.j!r} overflow double range; "
        f"the largest horizon that fits is {fits}"
    )


def _evaluate(value, k: int) -> float:
    """value(k), or inf where it raises OverflowError."""
    try:
        return value(k)
    except OverflowError:
        return math.inf


def _checked(value, k: int, rate: FixedRate, mode: str) -> float:
    """value(k) for an accumulator's value(h) at horizon h >= 1; 0.0 at k = 0.

    Explicit modes "recursive" and "sum" return what value computes.  In the
    other modes a result that leaves double range (inf, NaN or an
    OverflowError) raises NumericalFailureError naming the largest horizon
    that fits.
    """
    if k == 0:
        return 0.0
    if mode in ("recursive", "sum"):
        return value(k)
    result = _evaluate(value, k)
    if math.isfinite(result):
        return result
    # the values grow with the horizon: bisect for the first one that does not fit
    fits = bisect.bisect_left(
        range(1, k), True, key=lambda h: not math.isfinite(_evaluate(value, h))
    )
    raise _overflow(rate, fits)


def _sum_tables(rate, kmax: int, squares: bool = True) -> tuple:
    """Sum-mode level, increasing and squared-increasing values for k = 0..kmax.

    Returns three lists indexed by k, or the first two when squares is false.
    The powers g^e are built by the same iterated multiplication as
    _accumulate, and the exact prefix sums L_k = L_{k-1} + g^k,
    I_k = I_{k-1} + L_k and Q_k = Q_{k-1} + 2 I_k - L_k (the shift identity)
    are kept exactly, as integers in units of the finest binary digit among
    the powers.  Each entry is rounded once by int/int true division, which
    is correctly rounded, so the level entries equal
    level_due(k, rate, mode="sum") bit for bit and the others are the
    correctly rounded exact sums.  Raises NumericalFailureError when a
    returned entry up to kmax leaves double range.
    """
    rate = _as_rate(rate)
    powers = itertools.accumulate(itertools.repeat(1.0 + rate.j, kmax), operator.mul)
    ratios = [x.as_integer_ratio() for x in itertools.takewhile(math.isfinite, powers)]
    # the denominators are powers of two: scale by the largest of them
    top = max((den.bit_length() for _, den in ratios), default=1)
    scale = 1 << (top - 1)
    level = list(itertools.accumulate(num << (top - den.bit_length()) for num, den in ratios))
    sums = [level, list(itertools.accumulate(level))]
    if squares:
        steps = (2 * inc - lev for inc, lev in zip(sums[1], level))
        sums.append(list(itertools.accumulate(steps)))
    # 0 <= L_k <= I_k <= Q_k, each nondecreasing in k, so the last column
    # decides how many rows fit
    fits = bisect.bisect_left(sums[-1], _OVERFLOW_EDGE * scale)
    if fits < kmax:
        raise _overflow(rate, fits)
    return tuple([0.0] + [s / scale for s in column] for column in sums)


def _power_diff_quotient(g: float, q: float, k: int) -> float:
    """(g^k - q^k) / (g - q), kept accurate when g is close to q."""
    if g == q:
        return k * g ** (k - 1)
    if q > 0.0:
        delta = (g - q) / q
        if abs(delta) < 0.5:
            # g - q is exact for nearby floats; expm1/log1p avoid the
            # catastrophic cancellation of the plain difference.
            return q ** (k - 1) * math.expm1(k * math.log1p(delta)) / delta
    return (g**k - q**k) / (g - q)


def level_due(k, rate, mode: str = "auto") -> float:
    """Accumulated value of k unit payments.

    Closed form ((1+j)^k - 1)/d with d = j/(1+j); recursion
    value_k = (1+j)(1 + value_{k-1}).
    """
    rate = _as_rate(rate)
    k = check_int(k, "k", 0)
    path = _route(mode, abs(rate.j) < SINGULARITY_EPS)

    def value(h):
        if path == "closed":
            return _level_closed(h, rate)
        return _accumulate(1.0 + rate.j, [1.0] * h, path)

    return _checked(value, k, rate, mode)


def _level_closed(k: int, rate: FixedRate) -> float:
    """((1+j)^k - 1)/d."""
    # expm1/log1p keeps (1+j)^k - 1 accurate to a couple of ulps even when
    # the numerator nearly cancels, which downstream closed forms divide by d
    # up to three more times
    return math.expm1(k * math.log1p(rate.j)) / rate.d


def _increasing_closed(k: int, rate: FixedRate) -> float:
    return (_level_closed(k, rate) - k) / rate.d


def increasing_due(k, rate, mode: str = "auto") -> float:
    """Accumulated value of payments 1, 2, ..., k.

    Closed form (level - k)/d; recursion value_k = (1+j)(k + value_{k-1}).
    """
    rate = _as_rate(rate)
    k = check_int(k, "k", 0)
    path = _route(mode, abs(rate.j) < SINGULARITY_EPS)

    def value(h):
        if path == "closed":
            return _increasing_closed(h, rate)
        return _accumulate(1.0 + rate.j, range(1, h + 1), path)

    return _checked(value, k, rate, mode)


def increasing_squared_due(k, rate, mode: str = "auto") -> float:
    """Accumulated value of payments 1, 4, 9, ..., k^2.

    Closed form (2*increasing - level - k^2)/d; recursion
    value_k = (1+j)(k^2 + value_{k-1}); mode "relation" evaluates the
    equivalent ((1+v)(level + k^2) - 2k - 2k^2)/d^2.
    """
    rate = _as_rate(rate)
    k = check_int(k, "k", 0)
    path = _route(mode, abs(rate.j) < SINGULARITY_EPS, allowed=_SQ_MODES)

    def value(h):
        if path == "closed":
            s = _level_closed(h, rate)
            return (2.0 * _increasing_closed(h, rate) - s - h * h) / rate.d
        if path == "relation":
            s = _level_closed(h, rate)
            return ((1.0 + rate.v) * (s + h * h) - 2.0 * h - 2.0 * h * h) / (rate.d * rate.d)
        return _accumulate(1.0 + rate.j, [i * i for i in range(1, h + 1)], path)

    return _checked(value, k, rate, mode)


def decreasing_due(n, k, rate, mode: str = "auto") -> float:
    """Accumulated value after k years of payments n, n-1, ..., n-k+1.

    Requires 0 <= k <= n.  Closed form (n+1)*level - increasing; recursion
    value_k = (1+j)(value_{k-1} + n - k + 1).
    """
    rate = _as_rate(rate)
    n = check_int(n, "n", 0)
    k = check_int(k, "k", 0)
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n}")
    if k > n:
        raise DomainError(f"k must not exceed n, got k={k}, n={n}")
    path = _route(mode, abs(rate.j) < SINGULARITY_EPS)

    def value(h):
        if path == "closed":
            return (n + 1) * _level_closed(h, rate) - _increasing_closed(h, rate)
        return _accumulate(1.0 + rate.j, [-i for i in range(1, h + 1)], path, n, 1)

    return _checked(value, k, rate, mode)


def arithmetic_due(p, q, k, rate, mode: str = "auto", strict: bool = True) -> float:
    """Accumulated value of payments p, p+q, p+2q, ..., p+(k-1)q.

    Closed form (p-q)*level + q*increasing.  Strict mode requires every
    payment positive: p > 0 and p + (k-1)q > 0.
    """
    rate = _as_rate(rate)
    k = check_int(k, "k", 0)
    p = float(p)
    q = float(q)
    if strict and k >= 1:
        if not p > 0.0 or not p + (k - 1) * q > 0.0:
            raise PaymentPositivityError(
                f"arithmetic payments must stay positive in strict mode "
                f"(p={p}, q={q}, k={k}); pass strict=False to override"
            )
    path = _route(mode, abs(rate.j) < SINGULARITY_EPS)

    def value(h):
        if path == "closed":
            return (p - q) * _level_closed(h, rate) + q * _increasing_closed(h, rate)
        return _accumulate(1.0 + rate.j, [i * q for i in range(h)], path, p)

    return _checked(value, k, rate, mode)


def geometric_due(p, q, k, rate, mode: str = "auto", strict: bool = True) -> float:
    """Accumulated value of payments p, pq, pq^2, ..., pq^(k-1).

    Closed form p(1+j)((1+j)^k - q^k)/(1+j-q), with limit p*k*(1+j)^k at
    q = 1+j.  Mode "auto" switches to direct summation inside the band
    |1+j-q| < 1e-9*max(1,q).  Strict mode requires p > 0 and q > 0.
    """
    rate = _as_rate(rate)
    k = check_int(k, "k", 0)
    p = float(p)
    q = float(q)
    if strict and k >= 1:
        if not p > 0.0 or not q > 0.0:
            raise PaymentPositivityError(
                f"geometric payments require p > 0 and q > 0 in strict mode "
                f"(p={p}, q={q}); pass strict=False to override"
            )
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}, got {mode!r}")
    g = 1.0 + rate.j
    near_singular = abs(g - q) < SINGULARITY_EPS * max(1.0, q)
    path = mode
    if mode == "auto":
        path = "sum" if near_singular else "closed"

    def value(h):
        if path == "closed":
            return p * g * _power_diff_quotient(g, q, h)
        if path == "recursive":
            # iterated powers of q, which reach inf where q**i would overflow
            powers = itertools.accumulate(itertools.repeat(q, h - 1), operator.mul, initial=1.0)
        else:
            powers = (q**i for i in range(h))
        return _accumulate(g, [p * x for x in powers], path)

    return _checked(value, k, rate, mode)


def growth_due(u, k, rate, mode: str = "auto") -> float:
    """Accumulated value of payments growing at rate u: 1, 1+u, (1+u)^2, ...

    Equals geometric_due(1, 1+u, ...); also equals
    (1+j)^k * level(k at rate t)/(1+t) where (1+u) = (1+j)(1+t).
    """
    u = float(u)
    if not u > -1.0:
        raise DomainError(f"growth rate must exceed -1, got {u}")
    return geometric_due(1.0, 1.0 + u, k, rate, mode=mode)

