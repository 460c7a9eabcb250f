"""Accumulated values of annuities-due at a fixed annual rate.

Payments land at the start of each year and the accumulated value is taken
at the end of year k, so a payment made in year i grows by (1+j)^(k-i+1).
Each accumulator offers a closed form, a one-step recursion and a direct
summation over its payment list (_recursive, _accumulate).  Mode "auto" (the
default) uses the closed form, except that the forms dividing by d fall back
to the recursion inside the band |j| < 1e-9; the geometric form, whose
quotient (g^k - q^k)/(g - q) stays accurate as q nears g = 1+j, has no band.
A result of any mode but an explicit "recursive" that leaves double range
raises NumericalFailureError naming the largest horizon that fits.
_sum_tables gives the summation values of the level, increasing and
squared-increasing annuities for every k up to a horizon in one pass.

Each accumulator is written once, as a builder (_arithmetic,
_increasing_squared, _geometric) that states its closed form, its payments and
its strict-payment rule, k-free factors hoisted, for _annuity, the one place a
mode is routed.  The level, increasing and decreasing annuities are
_arithmetic at (p, q) = (1, 0), (1, 1) and (n, -1).  _geometric passes
band=False, the only way it differs from the other two.  The result is the
accumulator over the years ks as one column, checked once, which the public
function calls at (k,) and a table or moment series over all its years.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys

from .errors import DomainError, NumericalFailureError, PaymentPositivityError, check_int
from .rates import FixedRate, _growth_ratio, fixed_rate, singular

_MODES = ("auto", "closed", "recursive", "sum")
# increasing_squared_due also accepts the quadratic-denominator relationship
_SQ_MODES = _MODES + ("relation",)


def _as_rate(rate) -> FixedRate:
    if isinstance(rate, FixedRate):
        return rate
    return fixed_rate(rate)


def _real(x) -> float:
    """float(x), or the infinity of x's sign for an int beyond double range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _route(mode: str, singular: bool, allowed=_MODES):
    """The path mode takes, or the DomainError why it has none.

    The error is returned for the accumulator to raise at each k, after it
    has checked k and the payments.
    """
    if mode not in allowed:
        return DomainError(f"mode must be one of {allowed}, got {mode!r}")
    if mode == "auto":
        return "recursive" if singular else "closed"
    if mode in ("closed", "relation") and singular:
        return DomainError(
            "closed form is singular for |j| < 1e-9; use mode 'auto' or 'recursive'"
        )
    return mode


def _recursive(g: float, payments):
    """value = g*(value + c) over the payments c of payments(h), at each horizon h of ks.

    Payment i is made at the start of year i.  Each step is the mean step of
    moments._recursion, so over a plan's payments the two agree bit for bit.
    The values of one pass are kept for every horizon, and extended to at
    least twice as many when a later h is asked for, so a table of n
    horizons runs over O(n) payments.
    """
    rows = [0.0]

    def value(h):
        if h >= len(rows):
            x = rows[-1]
            for c in itertools.islice(payments(max(h, 2 * len(rows))), len(rows) - 1, None):
                x = g * (x + c)
                rows.append(x)
        return rows[h]

    return lambda ks: list(map(value, ks))


def _accumulate(g: float, payments) -> float:
    """Sum of c_i g^(k-i+1) over the payments c_i, i = 1..k.

    The terms are added with a single rounding, leaving out each zero
    payment, which adds nothing even where its g^(k-i+1) is inf.
    """
    terms = []
    x = 1.0
    for c in reversed(payments):
        x *= g  # g^(k-i+1) by iterated multiplication
        if c:
            terms.append(c * x)
    try:
        return math.fsum(terms)
    except ValueError:  # terms of both infinite signs
        return math.nan


# an exact value rounds to a finite double while it stays below this
_OVERFLOW_EDGE = 2**1024 - 2**970


def _overflow(rate: FixedRate, fits: int) -> NumericalFailureError:
    return NumericalFailureError(
        f"annuity values at rate {rate.j!r} overflow double range; "
        f"the largest horizon that fits is {fits}"
    )


def _fits(value, *args) -> bool:
    """Whether value(*args) stays in double range.

    inf, NaN, the OverflowError of ** and the ValueError of an fsum over
    infinities say it does not; a DomainError passes through.
    """
    try:
        return math.isfinite(value(*args))
    except DomainError:
        raise
    except (OverflowError, ValueError):
        return False


def _guarded(path, values, rate: FixedRate, mode: str, check=None):
    """values, an accumulator's column over horizons h >= 1, as a function of the years ks.

    Ascending ks >= 1 run in one pass, checked once: check (the strict rule)
    at both ends, which covers the years between, and each value for double
    range.  Else each year runs alone, in order: check at k >= 1, path if
    _route gave a DomainError, 0.0 at k = 0, then, unless mode is
    "recursive", a value past double range raises NumericalFailureError
    naming the largest horizon that fits.
    """
    explicit, rejected = mode == "recursive", isinstance(path, DomainError)

    def column(ks):
        if ks and ks[0] and not rejected:
            try:
                if check:
                    check(ks[0])
                    check(ks[-1])
                result = values(ks)
                if explicit or all(map(math.isfinite, result)):
                    return result
            except (PaymentPositivityError, OverflowError):
                pass
        return [_year(k, path, values, rate, explicit, check) for k in ks]

    return column


def _year(k: int, path, values, rate: FixedRate, explicit: bool, check) -> float:
    """_guarded's column at year k alone."""
    if check and k:
        check(k)
    if isinstance(path, DomainError):
        raise path.with_traceback(None)
    if k == 0:
        return 0.0
    value = lambda h: values((h,))[0]
    if explicit or _fits(value, k):
        return value(k)
    # the values grow with the horizon: bisect for the first one that does not fit
    fits = bisect.bisect_left(range(1, k), True, key=lambda h: not _fits(value, h))
    raise _overflow(rate, fits)


def _check_arithmetic(p: float, q: float, n: int, name: str = "k") -> None:
    """Strict mode's rule for the payments p, p+q, ..., p+(n-1)q, called name=n.

    At n = 1 it reads p alone, which 0*q would turn into NaN at an infinite q.
    """
    if not p > 0.0 or (n > 1 and not p + (n - 1) * q > 0.0):
        raise PaymentPositivityError(
            f"arithmetic payments must stay positive in strict mode "
            f"(p={p}, q={q}, {name}={n}); pass strict=False to override"
        )


def _check_geometric(p: float, q: float) -> None:
    """Strict mode's rule for the payments p, pq, pq^2, ..."""
    if not p > 0.0 or not q > 0.0:
        raise PaymentPositivityError(
            f"geometric payments require p > 0 and q > 0 in strict mode "
            f"(p={p}, q={q}); pass strict=False to override"
        )


def _sum_tables(rate, kmax: int, columns: int = 3, rows=None) -> tuple:
    """Sum-mode level, increasing and squared-increasing values for k = 0..kmax.

    The first columns (1 to 3) of those lists, indexed by k, or given rows,
    dicts of those k.  The powers g^e are iterated products as in
    _accumulate; L_k = L_{k-1} + g^k, I_k = I_{k-1} + L_k and
    Q_k = Q_{k-1} + 2 I_k - L_k are exact integers (_scaled), each rounded
    once, correctly, so L_k is level_due(k, rate, mode="sum") bit for bit.
    Raises NumericalFailureError when an entry up to kmax leaves double range.
    """
    rate = _as_rate(rate)
    powers = list(itertools.accumulate(itertools.repeat(1.0 + rate.j, kmax), operator.mul))
    if powers and powers[-1] == math.inf:  # the powers are monotone in e
        del powers[powers.index(math.inf) :]
    top, nums = _scaled(powers)
    level = list(itertools.accumulate(nums, initial=0))
    sums = [level]
    if columns > 1:
        sums.append(list(itertools.accumulate(level)))
    if columns > 2:
        doubled = map(operator.lshift, sums[1], itertools.repeat(1))
        sums.append(list(itertools.accumulate(map(operator.sub, doubled, level))))
    # 0 <= L_k <= I_k <= Q_k, each nondecreasing in k, so the last column
    # decides how many rows fit
    fits = bisect.bisect_left(sums[-1], _OVERFLOW_EDGE << (top - 1)) - 1
    if fits < kmax:
        raise _overflow(rate, fits)
    scale = 1 << (top - 1)
    if rows is not None:
        return tuple({k: column[k] / scale for k in rows} for column in sums)
    if top <= 1023 and sums[-1][-1] < _OVERFLOW_EDGE:
        # float(s) fits (the last entry is the largest) and is correctly rounded;
        # scaling it by 2^(1-top) is exact while both are normal, as each entry >= g is
        unit = 2.0 ** (1 - top)
        return tuple([x * unit for x in map(float, column)] for column in sums)
    return tuple([s / scale for s in column] for column in sums)


def _scaled(powers: list) -> tuple:
    """top, and each of the monotone powers as an integer in units of 2^(1-top).

    A normal x = m 2^e (1/2 <= m < 1) is a multiple of 2^(e-53): the smaller end
    sets the unit while all are normal and fit once scaled, else the largest denominator.
    """
    low = min(powers[0], powers[-1]) if powers else 1.0
    if low >= sys.float_info.min:
        top = max(1, 54 - math.frexp(low)[1])
        try:
            scaled = map(operator.mul, powers, itertools.repeat(2.0 ** (top - 1)))
            return top, list(map(int, scaled))
        except OverflowError:
            pass
    ratios = [x.as_integer_ratio() for x in powers]
    top = max((den.bit_length() for _, den in ratios), default=1)
    return top, [num << (top - den.bit_length()) for num, den in ratios]


def _power_diff_quotient(g: float, q: float, ks) -> list:
    """(g^k - q^k) / (g - q) at each k of ks, kept accurate when g is close to q."""
    if g == q:
        return [k * g ** (k - 1) for k in ks]
    delta = (g - q) / q if q > 0.0 else math.inf
    if not abs(delta) < 0.5:
        return [(g**k - q**k) / (g - q) for k in ks]
    # g - q is exact for nearby floats; expm1/log1p avoid the catastrophic
    # cancellation of the plain difference.
    growth = math.log1p(delta)
    tiny = sys.float_info.min
    try:
        # the years whose q^(k-1) is a normal double; the rest take the route below
        values = [x * math.expm1(k * growth) / delta for k in ks if (x := q ** (k - 1)) >= tiny]
        if len(values) == len(ks):
            return values
    except OverflowError:
        pass
    if len(ks) > 1:  # each year alone
        return [x for k in ks for x in _power_diff_quotient(g, q, (k,))]
    # q^(k-1) left the normal range or expm1(x) overflowed, though the
    # quotient may fit: take the product as one exponent.  expm1(x)/delta > 0,
    # and log|expm1(x)| = x + log(1 - e^-x) for x > 0
    x = ks[0] * growth
    log_growth = x + math.log(-math.expm1(-x)) if x > 0.0 else math.log(-math.expm1(x))
    return [math.exp((ks[0] - 1) * math.log(q) + log_growth - math.log(abs(delta)))]


def _level_closed(ks, rate: FixedRate) -> list:
    """((1+j)^k - 1)/d at each k of ks."""
    # expm1/log1p keeps (1+j)^k - 1 accurate to a couple of ulps even when
    # the numerator nearly cancels, which downstream closed forms divide by d
    # up to three more times
    growth, d = math.log1p(rate.j), rate.d
    return [math.expm1(k * growth) / d for k in ks]


def _annuity(rate, mode: str, closed, payments, allowed=_MODES, check=None, band=True):
    """An annuity-due at rate in mode, as a function of the years ks.

    closed(ks) is its closed form's column over horizons h >= 1; the
    recursion and the sum run over payments(h), the first h payments
    themselves.  Without band the closed form serves every rate, |j| < 1e-9
    included.
    """
    path = _route(mode, band and singular(rate.j), allowed)
    g = 1.0 + rate.j
    if path == "recursive":
        values = _recursive(g, payments)
    elif path == "sum":
        values = lambda ks: [_accumulate(g, payments(h)) for h in ks]
    else:  # "closed", "relation", or the DomainError _guarded raises
        values = closed
    return _guarded(path, values, rate, mode, check)


def level_due(k, rate, mode: str = "auto") -> float:
    """Accumulated value of k unit payments: arithmetic_due at (p, q) = (1, 0).

    Closed form ((1+j)^k - 1)/d, d = j/(1+j); recursion value_k = (1+j)(1 + value_{k-1}).
    """
    return _arithmetic(1.0, 0.0, _as_rate(rate), mode, False)((check_int(k, "k", 0),))[0]


def increasing_due(k, rate, mode: str = "auto") -> float:
    """Accumulated value of payments 1, 2, ..., k: arithmetic_due at (p, q) = (1, 1).

    Closed form (level - k)/d; recursion value_k = (1+j)(k + value_{k-1}).
    """
    return _arithmetic(1.0, 1.0, _as_rate(rate), mode, False)((check_int(k, "k", 0),))[0]


def _increasing_squared(rate: FixedRate, mode: str):
    """increasing_squared_due at rate in mode, as a function of the years ks."""

    def closed(ks):
        rows, d = zip(ks, _level_closed(ks, rate)), rate.d
        if mode == "relation":
            v1, dd = 1.0 + rate.v, d * d
            return [(v1 * (s + h * h) - 2.0 * h - 2.0 * h * h) / dd for h, s in rows]
        # 2*increasing - level - h^2, increasing = (level - h)/d
        return [(2.0 * ((s - h) / d) - s - h * h) / d for h, s in rows]

    squares = lambda h: [i * i for i in range(1, h + 1)]
    return _annuity(rate, mode, closed, squares, allowed=_SQ_MODES)


def increasing_squared_due(k, rate, mode: str = "auto") -> float:
    """Accumulated value of payments 1, 4, 9, ..., k^2.

    Closed form (2*increasing - level - k^2)/d; recursion
    value_k = (1+j)(k^2 + value_{k-1}); mode "relation" evaluates the
    equivalent ((1+v)(level + k^2) - 2k - 2k^2)/d^2.
    """
    rate = _as_rate(rate)
    return _increasing_squared(rate, mode)((check_int(k, "k", 0),))[0]


def decreasing_due(n, k, rate, mode: str = "auto") -> float:
    """Accumulated value after k years of payments n, n-1, ..., n-k+1, for 0 <= k <= n.

    arithmetic_due at (p, q) = (n, -1), paying float(n) - i as PaymentPlan.decreasing(n)
    does, so an n past 2^53 that is not a double pays as its nearest double.  Closed
    form (n+1)*level - increasing; recursion value_k = (1+j)(value_{k-1} + n - k + 1).
    """
    rate = _as_rate(rate)
    n, k = check_int(n, "n", 1), check_int(k, "k", 0)
    if k > n:
        raise DomainError(f"k must not exceed n, got k={k}, n={n}")
    return _arithmetic(n, -1.0, rate, mode, False)((k,))[0]


def _arithmetic(p, q, rate: FixedRate, mode: str, strict: bool):
    """arithmetic_due at rate in mode, as a function of the years ks."""
    p, q = _real(p), _real(q)

    def closed(ks):
        # (p-q)*level + q*increasing, increasing = (level - h)/d.  A term whose
        # coefficient c is zero is c itself, which c*x also is at any finite x >= 0,
        # not 0*inf = NaN past double range; where both are zero no level is read
        a, d = p - q, rate.d
        rows = zip(ks, _level_closed(ks, rate) if p != q or q else itertools.repeat(0.0))
        if p == q and q:
            return [a + q * ((s - h) / d) for h, s in rows]
        if not q:
            return [a * s + q for _, s in rows]
        return [a * s + q * ((s - h) / d) for h, s in rows]

    check = functools.partial(_check_arithmetic, p, q) if strict else None
    # p itself first: p + 0*q is NaN at an infinite q
    return _annuity(rate, mode, closed, lambda h: [p] + [p + i * q for i in range(1, h)],
                    check=check)


def arithmetic_due(p, q, k, rate, mode: str = "auto", strict: bool = True) -> float:
    """Accumulated value of payments p, p+q, p+2q, ..., p+(k-1)q.

    Closed form (p-q)*level + q*increasing.  Strict mode requires every
    payment positive: p > 0 and p + (k-1)q > 0.
    """
    rate = _as_rate(rate)
    k = check_int(k, "k", 0)
    return _arithmetic(p, q, rate, mode, strict)((k,))[0]


def _geometric(p, q, rate: FixedRate, mode: str, strict: bool):
    """geometric_due at rate in mode, as a function of the years ks."""
    p, q = _real(p), _real(q)
    g = 1.0 + rate.j
    pg = p * g

    # p = 0 pays nothing: its value is zero even where q^i or the quotient
    # leaves double range, which 0*inf would turn into NaN
    def payments(h):
        if not p:
            return [p] * h
        if mode == "recursive":
            # iterated powers of q, which reach inf where q**i would overflow
            powers = itertools.accumulate(itertools.repeat(q, h - 1), operator.mul, initial=1.0)
        else:
            powers = (q**i for i in range(h))
        return [p * x for x in powers]

    if p:
        closed = lambda ks: [pg * x for x in _power_diff_quotient(g, q, ks)]
    else:
        closed = lambda ks: [pg] * len(ks)
    check = (lambda k: _check_geometric(p, q)) if strict else None
    return _annuity(rate, mode, closed, payments, check=check, band=False)


def geometric_due(p, q, k, rate, mode: str = "auto", strict: bool = True) -> float:
    """Accumulated value of payments p, pq, pq^2, ..., pq^(k-1).

    Closed form p(1+j)((1+j)^k - q^k)/(1+j-q), with limit p*k*(1+j)^k at
    q = 1+j; mode "auto" takes it at every q.  Strict mode requires p > 0
    and q > 0.
    """
    rate = _as_rate(rate)
    k = check_int(k, "k", 0)
    return _geometric(p, q, rate, mode, strict)((k,))[0]


def growth_due(u, k, rate, mode: str = "auto") -> float:
    """Accumulated value of payments growing at rate u: 1, 1+u, (1+u)^2, ...

    Equals geometric_due(1, 1+u, ...); also equals
    (1+j)^k * level(k at rate t)/(1+t) where (1+u) = (1+j)(1+t).
    """
    return geometric_due(1.0, _growth_ratio(u), k, rate, mode=mode)
