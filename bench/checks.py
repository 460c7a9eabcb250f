"""Correctness checks for every request's output, made apart from the program.

The references here use only `fractions.Fraction` and the request's own
decimal parameters: the moment recursion
    mu_k = (1+j)(mu_{k-1} + c_k),  m_k = m (m_{k-1} + 2 c_k mu_{k-1} + c_k^2)
with m = (1+j)^2 + s2, and the fixed-rate accumulation
    v_k = (1+j)(v_{k-1} + c_k).
Each check returns a list of error strings; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

# closed and recursive moment paths, and the moment tables, as the identity
# grids judge them
MOMENT_TOL = 1e-9
DECOMPOSITION_TOL = 1e-10
SPECIAL_TOL = 1e-10
FIXED_TOL = 1e-11
MEAN_S2_TOL = 1e-12
# a variance is m2 - mean^2; its float roundoff scales with m2, not with itself
VARIANCE_M2_TOL = 1e-11
ENUMERATION_TOL = 1e-9
# Monte Carlo means must sit within this many of their own standard errors
MC_Z_BAND = 8.0


def _dev(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def payments(family: str, params: dict, n: int) -> list:
    """Exact payments c_1..c_n of a plan given by decimal strings."""
    if family in ("arithmetic", "level", "increasing", "decreasing"):
        p, q = {
            "arithmetic": (params.get("p", "1"), params.get("q", "0")),
            "level": ("1", "0"),
            "increasing": ("1", "1"),
            "decreasing": (str(n), "-1"),
        }[family]
        p, q = Fraction(p), Fraction(q)
        return [p + i * q for i in range(n)]
    if family == "growth":
        p, q = Fraction(1), 1 + Fraction(params["u"])
    else:
        p, q = Fraction(params.get("p", "1")), Fraction(params.get("q", "1"))
    out, c = [], p
    for _ in range(n):
        out.append(c)
        c *= q
    return out


def exact_moments(pay, j, s2) -> list:
    """Per year (mean, second moment, variance) as floats of exact values."""
    mu_rate = 1 + Fraction(j)
    m_rate = mu_rate * mu_rate + Fraction(s2)
    mu = m = Fraction(0)
    out = []
    for c in pay:
        mu, m = mu_rate * (mu + c), m_rate * (m + 2 * c * mu + c * c)
        out.append((float(mu), float(m), float(m - mu * mu)))
    return out


def exact_fixed(pay, j) -> list:
    """Per year accumulated value at the fixed rate j."""
    g = 1 + Fraction(j)
    value = Fraction(0)
    out = []
    for c in pay:
        value = g * (value + c)
        out.append(float(value))
    return out


def _moment_errors(label, k, mean, m2, var, exact) -> list:
    e_mean, e_m2, e_var = exact
    errors = []
    if _dev(mean, e_mean) > MOMENT_TOL:
        errors.append(f"{label} k={k}: mean {mean!r} vs exact {e_mean!r}")
    if m2 is not None and _dev(m2, e_m2) > MOMENT_TOL:
        errors.append(f"{label} k={k}: second moment {m2!r} vs exact {e_m2!r}")
    if var < 0.0 or abs(var - e_var) > MOMENT_TOL * max(1.0, abs(e_var)) + VARIANCE_M2_TOL * e_m2:
        errors.append(f"{label} k={k}: variance {var!r} vs exact {e_var!r}")
    return errors


def _rows(text: str, output: str) -> list:
    """Report rows as dicts of floats, from CSV or JSON."""
    if output == "json":
        return json.loads(text)["rows"]
    reader = csv.DictReader(io.StringIO(text, newline=""))
    return [{key: float(value) for key, value in row.items()} for row in reader]


def check_moments(params: dict, result) -> list:
    code, text = result
    if code != 0:
        return [f"moments exited {code}"]
    n = params["n"]
    rows = _rows(text, params["output"])
    if [int(r["k"]) for r in rows] != list(range(1, n + 1)):
        return [f"moments: expected rows k=1..{n}"]
    exact = exact_moments(payments(params["family"], params, n), params["j"], params["s2"])
    errors = []
    for row, ex in zip(rows, exact):
        k = int(row["k"])
        errors += _moment_errors(
            "moments", k, row["mean"], row["second_moment"], row["variance"], ex
        )
        if params["method"] == "both" and not 0.0 <= row["max_discrepancy"] <= MOMENT_TOL:
            errors.append(f"moments k={k}: closed-recursive discrepancy {row['max_discrepancy']!r}")
    return errors


def fixed_payments(column: str, params: dict, k: int) -> list:
    n = params["n"]
    if column == "level":
        return payments("level", params, k)
    if column == "increasing":
        return payments("increasing", params, k)
    if column == "increasing_sq":
        return [Fraction(i * i) for i in range(1, k + 1)]
    if column == "decreasing":
        return payments("decreasing", params, n)[:k]
    return payments(column, params, k)


def check_fixed(params: dict, result) -> list:
    code, text = result
    if code != 0:
        return [f"fixed exited {code}"]
    n = params["n"]
    rows = _rows(text, params["output"])
    if [int(r["k"]) for r in rows] != list(range(1, n + 1)):
        return [f"fixed: expected rows k=1..{n}"]
    errors = []
    for column in params["columns"]:
        exact = exact_fixed(fixed_payments(column, params, n), params["j"])
        for row, ex in zip(rows, exact):
            if _dev(row[column], ex) > FIXED_TOL:
                errors.append(f"fixed {column} k={int(row['k'])}: {row[column]!r} vs exact {ex!r}")
    return errors


def check_verify(params: dict, result) -> list:
    code, text = result
    if code not in (0, 1):
        return [f"verify exited {code}"]
    n = params["n"]
    report = json.loads(text)
    exact = exact_moments(payments(params["family"], params, n), params["j"], params["s2"])
    errors = []
    sources = {}
    for c in report["comparisons"]:
        k = c["k"]
        sources[c["source"]] = sources.get(c["source"], 0) + 1
        e_mean, _, e_var = exact[k - 1]
        errors += _moment_errors(
            f"verify analytic ({c['source']})", k, c["analytic_mean"], None,
            c["analytic_variance"], exact[k - 1],
        )
        if c["source"] == "enumeration":
            if _dev(c["oracle_mean"], e_mean) > ENUMERATION_TOL:
                errors.append(f"enumeration k={k}: mean {c['oracle_mean']!r} vs exact {e_mean!r}")
            if _dev(c["oracle_variance"], e_var) > ENUMERATION_TOL:
                errors.append(
                    f"enumeration k={k}: variance {c['oracle_variance']!r} vs exact {e_var!r}"
                )
        else:
            se = c["mean_se"]
            if not se > 0.0 or abs(c["oracle_mean"] - e_mean) > MC_Z_BAND * se:
                errors.append(
                    f"{c['source']} k={k}: mean {c['oracle_mean']!r} outside "
                    f"{MC_Z_BAND} standard errors {se!r} of exact {e_mean!r}"
                )
        # a 4-sigma Monte Carlo miss is a valid verdict; any other is not
        if not c["passed"] and c["source"] == "enumeration":
            errors.append(f"verify failed its own enumeration comparison at k={k}")
    expected = {"enumeration": n, "mc-two-point": n, "mc-uniform": n, "mc-lognormal": n}
    if sources != expected:
        errors.append(f"verify: comparison rows {sources}, expected {expected}")
    if report["passed"] != (code == 0):
        errors.append(f"verify: passed={report['passed']} but exit code {code}")
    return errors


def check_audit(params: dict, out: dict) -> list:
    n = params["n"]
    j, s2 = params["j"], params["s2"]
    errors = []

    def expect(ok, message):
        if not ok:
            errors.append(message)

    fixed_params = {"n": n, "p": params["ap"], "q": params["aq"]}
    geometric = {"p": params["gp"], "q": params["gq"]}
    exact_pay = {
        "level": payments("level", {}, n),
        "increasing": payments("increasing", {}, n),
        "increasing_sq": fixed_payments("increasing_sq", fixed_params, n),
        "decreasing": payments("decreasing", {}, n),
        "arithmetic": payments("arithmetic", fixed_params, n),
        "geometric": payments("geometric", geometric, n),
        "growth": payments("growth", params, n),
    }
    exact_by_kind = {kind: exact_fixed(pay, j) for kind, pay in exact_pay.items()}
    for (kind, mode), values in out["fixed"].items():
        exact = exact_by_kind[kind]
        summed = out["fixed"][kind, "sum"]
        for k, (value, ex, ref) in enumerate(zip(values, exact, summed), start=1):
            expect(_dev(value, ref) <= FIXED_TOL, f"fixed {kind} {mode} k={k}: {value!r} vs sum {ref!r}")
            expect(_dev(value, ex) <= FIXED_TOL, f"fixed {kind} {mode} k={k}: {value!r} vs exact {ex!r}")

    plan_params = {
        "arithmetic": {"p": params["ap"], "q": params["aq"]},
        "geometric": geometric,
    }
    for family, pp in plan_params.items():
        mean, m2, var, diag, cross = out[family, "recursive"]
        exact = exact_moments(payments(family, pp, n), j, s2)
        for k in range(1, n + 1):
            i = k - 1
            label = f"{family} recursion"
            errors += _moment_errors(label, k, mean[i], m2[i], var[i], exact[i])
            m_c, m2_c = out[family, "mean_closed"][i], out[family, "second_moment_closed"][i]
            sq_c, v_c = out[family, "mean_squared_closed"][i], out[family, "variance_closed"][i]
            d_c, x_c = out[family, "diagonal"][i], out[family, "cross"][i]
            expect(_dev(m_c, mean[i]) <= MOMENT_TOL, f"{family} k={k}: mean_closed {m_c!r} vs {mean[i]!r}")
            expect(_dev(m2_c, m2[i]) <= MOMENT_TOL, f"{family} k={k}: second_moment_closed {m2_c!r} vs {m2[i]!r}")
            expect(_dev(sq_c, mean[i] ** 2) <= MOMENT_TOL, f"{family} k={k}: mean_squared_closed {sq_c!r}")
            expect(_dev(v_c, var[i]) <= MOMENT_TOL, f"{family} k={k}: variance_closed {v_c!r} vs {var[i]!r}")
            expect(v_c >= 0.0 and var[i] >= 0.0, f"{family} k={k}: negative variance")
            expect(
                _dev(d_c + 2.0 * x_c, m2[i]) <= DECOMPOSITION_TOL
                and _dev(diag[i] + 2.0 * cross[i], m2[i]) <= DECOMPOSITION_TOL,
                f"{family} k={k}: diagonal + 2 cross does not rebuild the second moment",
            )
            mean0 = out[family, "recursive", "s2=0"][0][i]
            mean0_c = out[family, "mean_closed", "s2=0"][i]
            expect(
                _dev(mean[i], mean0) <= MEAN_S2_TOL and _dev(m_c, mean0_c) <= MEAN_S2_TOL,
                f"{family} k={k}: mean depends on s2",
            )

    for family in ("level", "increasing", "decreasing", "growth"):
        mean, m2, var, diag, cross = out["special", family, "recursive"]
        exact = exact_moments(payments(family, params, n), j, s2)
        for k, got in enumerate(out["special", family], start=1):
            i = k - 1
            errors += _moment_errors(f"{family} recursion", k, mean[i], m2[i], var[i], exact[i])
            if family == "increasing":
                pairs = zip(got, (mean[i], diag[i], cross[i], m2[i], var[i]))
            else:
                pairs = zip(got, (mean[i], var[i]))
            expect(
                all(_dev(a, b) <= SPECIAL_TOL for a, b in pairs),
                f"{family}_moments k={k}: {tuple(got)!r} vs general path",
            )
            expect(got[-1] >= 0.0, f"{family}_moments k={k}: negative variance")
    return errors


CHECKS = {
    "moments": check_moments,
    "fixed": check_fixed,
    "verify": check_verify,
    "audit": check_audit,
}


def check(request, result) -> list:
    return CHECKS[request.kind](request.params, result)
