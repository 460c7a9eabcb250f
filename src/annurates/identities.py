"""Grids of algebraic identities relating the accumulators and moment paths.

Each check sweeps a parameter grid, evaluates both sides of an identity or
two independent evaluation paths of the same quantity, and records the worst
relative deviation.  Each suite declares its checks, with their tolerances,
in report order.  The CLI and the test suite share these runners, which
take no arguments: the grids are the module's constants, read at each call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from .fixed import (
    arithmetic_due,
    decreasing_due,
    geometric_due,
    growth_due,
    increasing_due,
    increasing_squared_due,
    level_due,
)
from .moments import PaymentPlan, _ClosedForms, _recursive_columns, moment_series
from .rates import fixed_rate, geometric_aux, singular, stochastic_rate

FIXED_J_GRID = (-0.05, 0.0, 0.01, 0.05, 0.1, 0.25)
FIXED_K_MAX = 40

STOCHASTIC_J_GRID = (0.01, 0.05, 0.1, 0.2)
# ascending: each variance is checked against the next larger rate variance
STOCHASTIC_S2_GRID = (0.0, 0.0025, 0.04)
STOCHASTIC_P_GRID = (1.0, 2.0, 5.0)
ARITHMETIC_Q_GRID = (-0.2, 0.0, 0.5, 1.0)
GEOMETRIC_Q_GRID = (0.9, 1.0, 1.05, 1.2)
STOCHASTIC_K_MAX = 30

# check name -> tolerance, in report order
_FIXED_CHECKS = {
    "discount-identities": 1e-15,
    "level-evaluators": 1e-11,
    "increasing-evaluators": 1e-11,
    "increasing-squared-evaluators": 1e-11,
    "increasing-squared-relation": 1e-11,
    "decreasing-evaluators": 1e-11,
    "arithmetic-evaluators": 1e-11,
    "arithmetic-specializations": 0.0,
    "geometric-specializations": 1e-14,
    "geometric-evaluators": 1e-11,
    "growth-identity": 1e-11,
    "decreasing-complement": 1e-12,
    "increasing-shift": 1e-12,
    "increasing-squared-shift": 1e-12,
    "level-squared": 1e-11,
    "increasing-squared-identity": 1e-11,
}

_STOCHASTIC_CHECKS = {
    "arithmetic-mean-closed-vs-recursive": 1e-9,
    "arithmetic-second-moment-closed-vs-recursive": 1e-9,
    "arithmetic-variance-closed-vs-recursive": 1e-9,
    "arithmetic-decomposition": 1e-10,
    "variance-nonnegative": 1e-9,
    "geometric-mean-closed-vs-recursive": 1e-9,
    "geometric-second-moment-closed-vs-recursive": 1e-9,
    "geometric-variance-closed-vs-recursive": 1e-9,
    "geometric-decomposition": 1e-10,
    "mean-ignores-rate-variance": 1e-12,
    "variance-monotone-in-rate-variance": 1e-12,
}

_SPECIALIZATION_CHECKS = {
    f"{family}-special-vs-general": 1e-10
    for family in ("level", "increasing", "decreasing", "growth")
}


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
    """Case count and worst deviation of each check a suite declares."""

    def __init__(self, checks: dict):
        self._checks = checks
        self._worst: dict[str, list] = {}

    def record(self, name: str, dev: float) -> None:
        entry = self._worst.setdefault(name, [0, 0.0])
        entry[0] += 1
        # plain float: callers may hand in numpy scalars
        if dev > entry[1]:
            entry[1] = float(dev)

    def record_all(self, name: str, values, references) -> None:
        for value, reference in zip(values, references):
            self.record(name, _dev(value, reference))

    def results(self) -> list[IdentityResult]:
        return [
            IdentityResult(name, *self._worst[name], tol)
            for name, tol in self._checks.items()
            if name in self._worst
        ]


def _dev(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def _fixed_tables(rate) -> tuple:
    """The accumulator checks at one rate; accumulators are called as f(k, mode=...).

    Evaluator rows (check, evaluator, modes) compare every mode listed with
    the evaluator's own mode "sum".  Specialization rows (check, special,
    general) compare two accumulators in every mode.
    """
    g = 1.0 + rate.j
    closed = () if singular(rate.j) else ("closed",)
    both = ("auto", "recursive")
    level = partial(level_due, rate=rate)
    increasing = partial(increasing_due, rate=rate)
    squares = partial(increasing_squared_due, rate=rate)

    def decreasing(k, mode):
        # the largest payment n must be at least 1 and at least the horizon k
        return decreasing_due(max(k, 1), k, rate, mode)

    evaluators = [
        ("level-evaluators", level, both + closed),
        ("increasing-evaluators", increasing, both + closed),
        ("increasing-squared-evaluators", squares, both + closed),
        # quadratic-denominator relationship checked against summation
        ("increasing-squared-relation", squares, ("relation",) if closed else ()),
        ("decreasing-evaluators", decreasing, both),
    ]
    evaluators += [
        ("arithmetic-evaluators", partial(arithmetic_due, p, q, rate=rate, strict=False), both)
        for p, q in ((2.0, 3.0), (1.0, 0.5), (3.0, -0.25))
    ]
    evaluators += [
        ("geometric-evaluators", partial(geometric_due, 2.0, q, rate=rate), both + ("closed",))
        for q in (0.9, 1.0, 1.05, 1.2, g)
    ]
    specializations = [
        ("arithmetic-specializations", partial(arithmetic_due, 1.0, 0.0, rate=rate), level),
        ("arithmetic-specializations", partial(arithmetic_due, 1.0, 1.0, rate=rate), increasing),
        (
            "arithmetic-specializations",
            lambda k, mode: arithmetic_due(max(k, 1), -1.0, k, rate, mode, strict=False),
            decreasing,
        ),
        ("geometric-specializations", partial(geometric_due, 1.0, 1.0, rate=rate), level),
    ]
    return evaluators, specializations


def fixed_identity_suite() -> list[IdentityResult]:
    """Evaluator agreement, shift relations and specializations at fixed rates."""
    rec = _Recorder(_FIXED_CHECKS)
    for j in FIXED_J_GRID:
        rate = fixed_rate(j)
        g = 1.0 + j
        in_band = singular(j)
        for value, reference in ((g * rate.d, j), (g * rate.v, 1.0), (rate.v + rate.d, 1.0)):
            rec.record("discount-identities", _dev(value, reference))
        evaluators, specializations = _fixed_tables(rate)
        modes = ("sum", "recursive") if in_band else ("sum", "recursive", "closed")
        for k in range(0, FIXED_K_MAX + 1):
            for name, evaluate, compared in evaluators:
                reference = evaluate(k, mode="sum")
                for m in compared:
                    rec.record(name, _dev(evaluate(k, mode=m), reference))
            for name, special, general in specializations:
                for m in modes:
                    rec.record(name, _dev(special(k, mode=m), general(k, mode=m)))
            for u in (-0.03, 0.05, 0.2):
                t = (1.0 + u) / g - 1.0
                rhs = g**k * level_due(k, fixed_rate(t)) / (1.0 + t)
                rec.record("growth-identity", _dev(growth_due(u, k, rate), rhs))
            if k == 0:
                continue
            s_ref, is_ref, i2_ref = (
                f(k, rate, mode="sum") for f in (level_due, increasing_due, increasing_squared_due)
            )
            # complement: increasing + decreasing over the same n covers every
            # payment cell (n+1) times
            for n in (k, k + 3):
                lhs = is_ref + decreasing_due(n, k, rate, mode="sum")
                rec.record("decreasing-complement", _dev(lhs, (n + 1) * s_ref))
            shifted = increasing_due(k - 1, rate, mode="sum")
            rec.record("increasing-shift", _dev(shifted, is_ref - s_ref))
            shifted = increasing_squared_due(k - 1, rate, mode="sum")
            rec.record("increasing-squared-shift", _dev(shifted, i2_ref - 2.0 * is_ref + s_ref))
            if in_band:
                continue
            s_2k = level_due(2 * k, rate, mode="sum")
            rec.record("level-squared", _dev(s_ref * s_ref, (s_2k - 2.0 * s_ref) / rate.d))
            is_2k = increasing_due(2 * k, rate, mode="sum")
            # numerator cancels hard at small j and k, so sum it exactly
            rhs = math.fsum(
                [is_2k, -2.0 * (1.0 + k * rate.d) * is_ref, -float(k * k)]
            ) / (rate.d * rate.d)
            rec.record("increasing-squared-identity", _dev(is_ref * is_ref, rhs))
    return rec.results()


def stochastic_identity_suite() -> list[IdentityResult]:
    """Closed forms against recursions across the stochastic parameter grid.

    The closed side is moment_series(plan, spec, "closed"), the series the
    moments command prints.
    """
    rec = _Recorder(_STOCHASTIC_CHECKS)
    plans = [
        PaymentPlan(family=family, p=p, q=q, n=STOCHASTIC_K_MAX, strict=False)
        for family, q_grid in (("arithmetic", ARITHMETIC_Q_GRID), ("geometric", GEOMETRIC_Q_GRID))
        for p in STOCHASTIC_P_GRID
        for q in q_grid
    ]
    for plan, j in itertools.product(plans, STOCHASTIC_J_GRID):
        refs = []
        for s2 in STOCHASTIC_S2_GRID:
            spec = stochastic_rate(j, s2)
            ref = moment_series(plan, spec, "recursive")
            closed = moment_series(plan, spec, "closed")
            for check, values, references in (
                ("mean-closed-vs-recursive", closed.mean, ref.mean),
                ("second-moment-closed-vs-recursive", closed.second_moment, ref.second_moment),
                ("variance-closed-vs-recursive", closed.variance, ref.variance),
                ("decomposition", closed.diagonal + 2.0 * closed.cross, ref.second_moment),
                ("decomposition", ref.diagonal + 2.0 * ref.cross, ref.second_moment),
            ):
                rec.record_all(f"{plan.family}-{check}", values, references)
            for m1, m2 in zip(ref.mean, ref.second_moment):
                rec.record("variance-nonnegative", max(0.0, m1 * m1 - m2) / max(1.0, abs(m2)))
            refs.append(ref)
        # the mean never depends on the rate variance; risk grows with it
        for lo, hi in zip(refs, refs[1:]):
            rec.record_all("mean-ignores-rate-variance", hi.mean, refs[0].mean)
            for v_lo, v_hi in zip(lo.variance, hi.variance):
                shortfall = max(0.0, v_lo - v_hi)
                rec.record("variance-monotone-in-rate-variance", shortfall / max(1.0, v_hi))
    return rec.results()


def specialization_suite() -> list[IdentityResult]:
    """Specialized family moments against the general recursion path.

    Each family's closed columns are read once per plan and rate, over
    years 1..n, and every field is compared with the row of the same name
    of the recursion pass those columns were settled against.
    """
    rec = _Recorder(_SPECIALIZATION_CHECKS)
    k_max = STOCHASTIC_K_MAX
    for j, s2 in itertools.product(STOCHASTIC_J_GRID, STOCHASTIC_S2_GRID):
        spec = stochastic_rate(j, s2)
        families = [("level", PaymentPlan.level(k_max)),
                    ("increasing", PaymentPlan.increasing(k_max))]
        families += [("decreasing", PaymentPlan.decreasing(n)) for n in (5, 10, 30)]
        families += [
            ("growth", PaymentPlan.growth(u, k_max), geometric_aux(spec, u))
            for u in (-0.02, 0.05, 0.1, 0.2)
        ]
        for family, plan, *aux in families:
            forms = _ClosedForms(plan, spec, plan.n)
            years = getattr(forms, family)(*aux)
            reference = dict(zip(("mean", "second_moment", "variance", "diagonal", "cross"),
                                 _recursive_columns(forms.ref)))
            for field, values in zip(years[0]._fields, zip(*years)):
                rec.record_all(f"{family}-special-vs-general", values, reference[field])
    return rec.results()


def run_identity_suites() -> list[IdentityResult]:
    """Everything the identities command reports, in a stable order."""
    results = fixed_identity_suite()
    results += stochastic_identity_suite()
    results += specialization_suite()
    return results
