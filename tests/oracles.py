"""Independent reference oracles built on exact rational arithmetic.

Everything here is computed from first principles with fractions.Fraction
and deliberately imports nothing from the package under test: expected
values frozen into the test suite trace back to an arithmetic the
implementation does not share.  Payments arrive at the start of each year
and every balance earns that year's rate, so along a rate path g_1..g_k
the balance obeys C_t = (C_{t-1} + c_t) * g_t.

The one floating-point function, two_point_lanes, is a copy of an earlier
enumeration loop, kept as a bit-level reference for the current one, which
builds the distinct balances breadth first and walks the later years depth
first; it reads only the plan's payment(t) and the rate's mu and s2.

The report renderers at the end (_cell, _render_csv, _json_fragment and
_render_json) are copies of the command line's per-cell renderers from
before it formatted a table one row per % call, kept as byte-level
references for it: a CSV table is a header and a list of rows, a JSON
table a list of dicts.
"""

import csv
import functools
import io
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np


def arithmetic_payments(p, q, n):
    """p, p+q, ..., p+(n-1)q as exact rationals."""
    p, q = Fraction(p), Fraction(q)
    return [p + i * q for i in range(n)]


def geometric_payments(p, q, n):
    """p, pq, ..., pq^(n-1) as exact rationals."""
    p, q = Fraction(p), Fraction(q)
    return [p * q**i for i in range(n)]


def level_payments(n):
    return arithmetic_payments(1, 0, n)


def increasing_payments(n):
    return arithmetic_payments(1, 1, n)


def squares_payments(n):
    return [Fraction((i + 1) ** 2) for i in range(n)]


def decreasing_payments(n, k):
    """n, n-1, ..., n-k+1."""
    return arithmetic_payments(n, -1, k)


def accumulate(payments, gross_path):
    """Final balance after the last payment year along one rate path."""
    value = Fraction(0)
    for payment, gross in zip(payments, gross_path):
        value = (value + payment) * gross
    return value


def fixed_value(payments, j):
    """Accumulated value when every year earns the same rate j."""
    gross = Fraction(1) + Fraction(j)
    return accumulate(payments, [gross] * len(payments))


def two_point_moments(payments, j, s):
    """Exact (mean, second moment, variance) of the final balance.

    The annual rate is j - s or j + s with probability 1/2 each,
    independently across years; all 2^k paths are enumerated.
    """
    k = len(payments)
    lo = Fraction(1) + Fraction(j) - Fraction(s)
    hi = Fraction(1) + Fraction(j) + Fraction(s)
    total = Fraction(0)
    total_sq = Fraction(0)
    for path in product((lo, hi), repeat=k):
        value = accumulate(payments, path)
        total += value
        total_sq += value * value
    mean = total / 2**k
    second = total_sq / 2**k
    return mean, second, second - mean * mean


def moment_recursion(payments, j, s2):
    """Per-year (mean, second moment) using only the two rate moments.

    mu_t = E[1+i] * (mu_{t-1} + c_t) and m_t = E[(1+i)^2] *
    (m_{t-1} + 2 c_t mu_{t-1} + c_t^2) follow from independence of the
    year-t rate and the year t-1 balance.
    """
    mu_rate = Fraction(1) + Fraction(j)
    m_rate = mu_rate * mu_rate + Fraction(s2)
    means, seconds = [], []
    mu, m = Fraction(0), Fraction(0)
    for payment in payments:
        mu, m = (
            mu_rate * (mu + payment),
            m_rate * (m + 2 * payment * mu + payment * payment),
        )
        means.append(mu)
        seconds.append(m)
    return means, seconds


def two_point_lanes(plan, spec, k):
    """Per-year (mean, second moment, variance) tuples, in floating point.

    The all-lanes enumeration that annurates.enumerate_series ran before it
    built the distinct balances one year at a time: every one of the 2^k
    paths is carried from year 1, and each year's 2^k balances are summed
    in one call.  Its loop is copied verbatim, so it is a bit-level
    reference for the faster loop, not an exact one.  That loop holds at
    most 2^12 balances per year and sums them in subtrees.  The argument
    checks are left to the function under test.
    """
    s = math.sqrt(spec.s2)
    means = np.empty(k)
    seconds = np.empty(k)
    # a degenerate rate has a single deterministic path
    idx = np.arange(1 if s == 0.0 else 1 << k, dtype=np.uint32)
    c = np.zeros(len(idx))
    lo, hi = spec.mu - s, spec.mu + s
    for t in range(1, k + 1):
        bits = (idx >> (t - 1)) & 1
        g = np.where(bits == 1, hi, lo)
        c = (c + plan.payment(t)) * g
        means[t - 1] = c.mean()
        seconds[t - 1] = np.mean(c * c)
    variance = np.maximum(seconds - means * means, 0.0)
    return (
        tuple(float(x) for x in means),
        tuple(float(x) for x in seconds),
        tuple(float(x) for x in variance),
    )


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render_csv(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)  # excel dialect: CRLF rows, minimal quoting
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(value) for value in row])
    return buffer.getvalue()


def _json_fragment(value) -> str:
    """One JSON value; floats carry 17 significant digits (bit-exact reload)."""
    if isinstance(value, float):
        if math.isfinite(value):
            text = format(value, ".17g")
            # as the command line writes it now: json reads -0 as the integer 0
            return "-0.0" if text == "-0" else text
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        parts = (f"{_json_key(k)}: {_json_fragment(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_fragment(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


# the keys of a report come from a fixed set of names
_json_key = functools.cache(json.dumps)


def _render_json(document: dict) -> str:
    lines = []
    for key, value in document.items():
        if isinstance(value, (list, tuple)):
            body = ",\n".join("    " + _json_fragment(item) for item in value)
            lines.append(f'  {json.dumps(key)}: [\n{body}\n  ]')
        else:
            lines.append(f"  {json.dumps(key)}: {_json_fragment(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"
