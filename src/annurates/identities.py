"""Grids of algebraic identities relating the accumulators and moment paths.

Each check sweeps a parameter grid, evaluates both sides of an identity or
two independent evaluation paths of the same quantity, and records the worst
relative deviation.  The CLI and the test suite share these runners.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .fixed import (
    _sum_mode_tables,
    arithmetic_due,
    decreasing_due,
    geometric_due,
    growth_due,
    increasing_due,
    increasing_squared_due,
    level_due,
)
from .moments import (
    PaymentPlan,
    _ClosedForms,
    moment_series,
    decreasing_moments,
    growth_moments,
    increasing_moments,
    level_moments,
)
from .rates import SINGULARITY_EPS, fixed_rate, geometric_aux, stochastic_rate

FIXED_J_GRID = (-0.05, 0.0, 0.01, 0.05, 0.1, 0.25)
FIXED_K_MAX = 40

STOCHASTIC_J_GRID = (0.01, 0.05, 0.1, 0.2)
STOCHASTIC_S2_GRID = (0.0, 0.0025, 0.04)
STOCHASTIC_P_GRID = (1.0, 2.0, 5.0)
ARITHMETIC_Q_GRID = (-0.2, 0.0, 0.5, 1.0)
GEOMETRIC_Q_GRID = (0.9, 1.0, 1.05, 1.2)
STOCHASTIC_K_MAX = 30


@dataclass(frozen=True)
class IdentityResult:
    name: str
    cases: int
    max_rel_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_dev <= self.tol


class _Recorder:
    def __init__(self):
        self._checks: dict[str, list] = {}

    def record(self, name: str, tol: float, dev: float) -> None:
        entry = self._checks.setdefault(name, [0, 0.0, tol])
        entry[0] += 1
        # plain float: callers may hand in numpy scalars
        if dev > entry[1]:
            entry[1] = float(dev)

    def force_breach(self, name: str, dev: float) -> None:
        entry = self._checks.setdefault(name, [0, 0.0, 0.0])
        if dev > entry[1]:
            entry[1] = float(dev)

    def results(self) -> list[IdentityResult]:
        return [
            IdentityResult(name=name, cases=c, max_rel_dev=dev, tol=tol)
            for name, (c, dev, tol) in self._checks.items()
        ]


def _dev(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def fixed_identity_suite(
    j_grid=FIXED_J_GRID, k_max: int = FIXED_K_MAX, corrupt: bool = False
) -> list[IdentityResult]:
    """Evaluator agreement, shift relations and specializations at fixed rates."""
    rec = _Recorder()
    for j in j_grid:
        rate = fixed_rate(j)
        g = 1.0 + j
        singular = abs(j) < SINGULARITY_EPS
        rec.record("discount-identities", 1e-15, _dev(g * rate.d, j))
        rec.record("discount-identities", 1e-15, _dev(g * rate.v, 1.0))
        rec.record("discount-identities", 1e-15, _dev(rate.v + rate.d, 1.0))
        for k in range(0, k_max + 1):
            s_ref = level_due(k, rate, mode="sum")
            is_ref = increasing_due(k, rate, mode="sum")
            i2_ref = increasing_squared_due(k, rate, mode="sum")
            rec.record("level-evaluators", 1e-11, _dev(level_due(k, rate), s_ref))
            rec.record(
                "level-evaluators",
                1e-11,
                _dev(level_due(k, rate, mode="recursive"), s_ref),
            )
            rec.record("increasing-evaluators", 1e-11, _dev(increasing_due(k, rate), is_ref))
            rec.record(
                "increasing-evaluators",
                1e-11,
                _dev(increasing_due(k, rate, mode="recursive"), is_ref),
            )
            rec.record(
                "increasing-squared-evaluators",
                1e-11,
                _dev(increasing_squared_due(k, rate), i2_ref),
            )
            rec.record(
                "increasing-squared-evaluators",
                1e-11,
                _dev(increasing_squared_due(k, rate, mode="recursive"), i2_ref),
            )
            if not singular:
                rec.record(
                    "level-evaluators",
                    1e-11,
                    _dev(level_due(k, rate, mode="closed"), s_ref),
                )
                rec.record(
                    "increasing-evaluators",
                    1e-11,
                    _dev(increasing_due(k, rate, mode="closed"), is_ref),
                )
                rec.record(
                    "increasing-squared-evaluators",
                    1e-11,
                    _dev(increasing_squared_due(k, rate, mode="closed"), i2_ref),
                )
                # quadratic-denominator relationship checked against summation
                rec.record(
                    "increasing-squared-relation",
                    1e-11,
                    _dev(increasing_squared_due(k, rate, mode="relation"), i2_ref),
                )
            n_decr = max(k, 1)
            d_ref = decreasing_due(n_decr, k, rate, mode="sum")
            rec.record("decreasing-evaluators", 1e-11, _dev(decreasing_due(n_decr, k, rate), d_ref))
            rec.record(
                "decreasing-evaluators",
                1e-11,
                _dev(decreasing_due(n_decr, k, rate, mode="recursive"), d_ref),
            )
            if k >= 1:
                # complement: increasing + decreasing over the same n covers
                # every payment cell (n+1) times
                for n in (k, k + 3):
                    lhs = is_ref + decreasing_due(n, k, rate, mode="sum")
                    rec.record(
                        "decreasing-complement", 1e-12, _dev(lhs, (n + 1) * s_ref)
                    )
                rec.record(
                    "increasing-shift",
                    1e-12,
                    _dev(increasing_due(k - 1, rate, mode="sum"), is_ref - s_ref),
                )
                rec.record(
                    "increasing-squared-shift",
                    1e-12,
                    _dev(
                        increasing_squared_due(k - 1, rate, mode="sum"),
                        i2_ref - 2.0 * is_ref + s_ref,
                    ),
                )
            for p, q in ((2.0, 3.0), (1.0, 0.5), (3.0, -0.25)):
                a_ref = arithmetic_due(p, q, k, rate, mode="sum", strict=False)
                rec.record(
                    "arithmetic-evaluators",
                    1e-11,
                    _dev(arithmetic_due(p, q, k, rate, strict=False), a_ref),
                )
                rec.record(
                    "arithmetic-evaluators",
                    1e-11,
                    _dev(
                        arithmetic_due(p, q, k, rate, mode="recursive", strict=False),
                        a_ref,
                    ),
                )
            for m in ("sum", "recursive") + (() if singular else ("closed",)):
                rec.record(
                    "arithmetic-specializations",
                    0.0,
                    _dev(
                        arithmetic_due(1.0, 0.0, k, rate, mode=m),
                        level_due(k, rate, mode=m),
                    ),
                )
                rec.record(
                    "arithmetic-specializations",
                    0.0,
                    _dev(
                        arithmetic_due(1.0, 1.0, k, rate, mode=m),
                        increasing_due(k, rate, mode=m),
                    ),
                )
                rec.record(
                    "arithmetic-specializations",
                    0.0,
                    _dev(
                        arithmetic_due(float(n_decr), -1.0, k, rate, mode=m, strict=False),
                        decreasing_due(n_decr, k, rate, mode=m),
                    ),
                )
                rec.record(
                    "geometric-specializations",
                    1e-14,
                    _dev(
                        geometric_due(1.0, 1.0, k, rate, mode=m),
                        level_due(k, rate, mode=m),
                    ),
                )
            for q in (0.9, 1.0, 1.05, 1.2, g):
                g_ref = geometric_due(2.0, q, k, rate, mode="sum")
                rec.record(
                    "geometric-evaluators",
                    1e-11,
                    _dev(geometric_due(2.0, q, k, rate), g_ref),
                )
                rec.record(
                    "geometric-evaluators",
                    1e-11,
                    _dev(geometric_due(2.0, q, k, rate, mode="recursive"), g_ref),
                )
                if abs(g - q) >= SINGULARITY_EPS * max(1.0, q):
                    rec.record(
                        "geometric-evaluators",
                        1e-11,
                        _dev(geometric_due(2.0, q, k, rate, mode="closed"), g_ref),
                    )
            for u in (-0.03, 0.05, 0.2):
                t = (1.0 + u) / g - 1.0
                rhs = g**k * level_due(k, fixed_rate(t)) / (1.0 + t)
                rec.record(
                    "growth-identity", 1e-11, _dev(growth_due(u, k, rate), rhs)
                )
            if not singular and k >= 1:
                s_2k = level_due(2 * k, rate, mode="sum")
                rec.record(
                    "level-squared",
                    1e-11,
                    _dev(s_ref * s_ref, (s_2k - 2.0 * s_ref) / rate.d),
                )
                is_2k = increasing_due(2 * k, rate, mode="sum")
                # numerator cancels hard at small j and k, so sum it exactly
                rhs = math.fsum(
                    [is_2k, -2.0 * (1.0 + k * rate.d) * is_ref, -float(k * k)]
                ) / (rate.d * rate.d)
                rec.record(
                    "increasing-squared-identity", 1e-11, _dev(is_ref * is_ref, rhs)
                )
    if corrupt:
        # self-test hook: force a visible breach so callers can prove the
        # harness detects one
        rec.force_breach("level-evaluators", 1e-6)
    return rec.results()


def stochastic_identity_suite(corrupt: bool = False) -> list[IdentityResult]:
    """Closed forms against recursions across the stochastic parameter grid."""
    rec = _Recorder()
    variance_by_s2: dict[tuple, list] = {}
    mean_by_s2: dict[tuple, list] = {}
    # the annuity tables depend on the rate alone, not on the plan
    reference_tables = functools.cache(_sum_mode_tables)
    for family, q_grid in (
        ("arithmetic", ARITHMETIC_Q_GRID),
        ("geometric", GEOMETRIC_Q_GRID),
    ):
        for p in STOCHASTIC_P_GRID:
            for q in q_grid:
                plan = PaymentPlan(
                    family=family, p=p, q=q, n=STOCHASTIC_K_MAX, strict=False
                )
                for j in STOCHASTIC_J_GRID:
                    for s2 in STOCHASTIC_S2_GRID:
                        spec = stochastic_rate(j, s2)
                        ref = moment_series(plan, spec, "recursive")
                        mean_r, m2_r, var_r = ref.mean, ref.second_moment, ref.variance
                        diag_r, cross_r = ref.diagonal, ref.cross
                        # the closed formulas on annuity values from fixed's
                        # per-year summation, apart from the prefix-sum tables
                        # that moment_series reads (tests check those against
                        # exact rational sums)
                        mean_c, m2_c, diag_c, cross_c, var_c = _ClosedForms(
                            plan, spec, plan.n, reference_tables
                        ).series()
                        raw = [
                            m2_r[i] - mean_r[i] * mean_r[i] for i in range(plan.n)
                        ]
                        mean_by_s2[(family, p, q, j, s2)] = mean_r
                        variance_by_s2[(family, p, q, j, s2)] = var_r
                        for i in range(plan.n):
                            rec.record(
                                f"{family}-mean-closed-vs-recursive",
                                1e-9,
                                _dev(mean_c[i], mean_r[i]),
                            )
                            rec.record(
                                f"{family}-second-moment-closed-vs-recursive",
                                1e-9,
                                _dev(m2_c[i], m2_r[i]),
                            )
                            rec.record(
                                f"{family}-variance-closed-vs-recursive",
                                1e-9,
                                _dev(var_c[i], var_r[i]),
                            )
                            rec.record(
                                f"{family}-decomposition",
                                1e-10,
                                _dev(diag_c[i] + 2.0 * cross_c[i], m2_r[i]),
                            )
                            rec.record(
                                f"{family}-decomposition",
                                1e-10,
                                _dev(diag_r[i] + 2.0 * cross_r[i], m2_r[i]),
                            )
                            rec.record(
                                "variance-nonnegative",
                                1e-9,
                                max(0.0, -raw[i]) / max(1.0, abs(m2_r[i])),
                            )
    # the mean never depends on the rate variance; risk grows with it
    s2_lo, s2_hi = STOCHASTIC_S2_GRID[0], STOCHASTIC_S2_GRID[-1]
    for key, mean_r in mean_by_s2.items():
        family, p, q, j, s2 = key
        if s2 == s2_lo:
            continue
        base = mean_by_s2[(family, p, q, j, s2_lo)]
        for i in range(len(mean_r)):
            rec.record("mean-ignores-rate-variance", 1e-12, _dev(mean_r[i], base[i]))
    ordered = sorted(STOCHASTIC_S2_GRID)
    for family, q_grid in (
        ("arithmetic", ARITHMETIC_Q_GRID),
        ("geometric", GEOMETRIC_Q_GRID),
    ):
        for p in STOCHASTIC_P_GRID:
            for q in q_grid:
                for j in STOCHASTIC_J_GRID:
                    for lo, hi in zip(ordered, ordered[1:]):
                        v_lo = variance_by_s2[(family, p, q, j, lo)]
                        v_hi = variance_by_s2[(family, p, q, j, hi)]
                        for i in range(len(v_lo)):
                            shortfall = max(0.0, v_lo[i] - v_hi[i])
                            rec.record(
                                "variance-monotone-in-rate-variance",
                                1e-12,
                                shortfall / max(1.0, v_hi[i]),
                            )
    if corrupt:
        rec.force_breach("arithmetic-mean-closed-vs-recursive", 1e-6)
    return rec.results()


def specialization_suite(corrupt: bool = False) -> list[IdentityResult]:
    """Specialized family moments against the general recursion path."""
    rec = _Recorder()
    k_max = STOCHASTIC_K_MAX
    for j in STOCHASTIC_J_GRID:
        for s2 in STOCHASTIC_S2_GRID:
            spec = stochastic_rate(j, s2)

            ref = moment_series(PaymentPlan.level(k_max), spec, "recursive")
            mean_r, var_s = ref.mean, ref.variance
            for k in range(1, k_max + 1):
                lm = level_moments(spec, k)
                rec.record("level-special-vs-general", 1e-10, _dev(lm.mean, mean_r[k - 1]))
                rec.record("level-special-vs-general", 1e-10, _dev(lm.variance, var_s[k - 1]))

            ref = moment_series(PaymentPlan.increasing(k_max), spec, "recursive")
            mean_r, m2_r, var_s = ref.mean, ref.second_moment, ref.variance
            diag_r, cross_r = ref.diagonal, ref.cross
            for k in range(1, k_max + 1):
                im = increasing_moments(spec, k)
                i = k - 1
                rec.record("increasing-special-vs-general", 1e-10, _dev(im.mean, mean_r[i]))
                rec.record(
                    "increasing-special-vs-general", 1e-10, _dev(im.diagonal, diag_r[i])
                )
                rec.record(
                    "increasing-special-vs-general", 1e-10, _dev(im.cross, cross_r[i])
                )
                rec.record(
                    "increasing-special-vs-general",
                    1e-10,
                    _dev(im.second_moment, m2_r[i]),
                )
                rec.record(
                    "increasing-special-vs-general", 1e-10, _dev(im.variance, var_s[i])
                )

            for n in (5, 10, 30):
                ref = moment_series(PaymentPlan.decreasing(n), spec, "recursive")
                mean_r, var_s = ref.mean, ref.variance
                for k in range(1, n + 1):
                    dm = decreasing_moments(spec, n, k)
                    i = k - 1
                    rec.record(
                        "decreasing-special-vs-general", 1e-10, _dev(dm.mean, mean_r[i])
                    )
                    rec.record(
                        "decreasing-special-vs-general", 1e-10, _dev(dm.variance, var_s[i])
                    )

            for u in (-0.02, 0.05, 0.1, 0.2):
                aux = geometric_aux(spec, u)
                ref = moment_series(PaymentPlan.growth(u, k_max), spec, "recursive")
                mean_r, var_s = ref.mean, ref.variance
                for k in range(1, k_max + 1):
                    gm = growth_moments(spec, aux, k)
                    i = k - 1
                    rec.record(
                        "growth-special-vs-general", 1e-10, _dev(gm.mean, mean_r[i])
                    )
                    rec.record(
                        "growth-special-vs-general", 1e-10, _dev(gm.variance, var_s[i])
                    )
    if corrupt:
        rec.force_breach("level-special-vs-general", 1e-6)
    return rec.results()


def run_identity_suites(corrupt: bool = False) -> list[IdentityResult]:
    """Everything the identities command reports, in a stable order."""
    results = fixed_identity_suite(corrupt=corrupt)
    results += stochastic_identity_suite()
    results += specialization_suite()
    return results
