"""Seeded request lists for the three workloads, and the client that serves them.

A round is a fixed list of requests built from the workload seed.  Its shape
(how many requests of each kind, their horizons, which ones ask for
`--method both`, JSON or two workers) is the same for every seed; the seed
draws the rates, payments, growth rates and Monte Carlo seeds, and the order.
Horizons set nearly all of a request's cost (the closed series is quadratic
in n, enumeration exponential), so fixing them keeps the work in a round, and
with it the throughput, the same from seed to seed while every seed still
sends different inputs.

`tables` and `verify` requests go through `annurates.cli.main(argv)` in
process; an `audit` request calls the library directly, the way the identity
suites do.  Call `env.bootstrap()` before importing this module.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

from annurates import (
    PaymentPlan,
    RateDistribution,
    SimConfig,
    arithmetic_due,
    compare,
    decreasing_due,
    decreasing_moments,
    enumerate_series,
    fixed_rate,
    geometric_aux,
    geometric_due,
    growth_due,
    growth_moments,
    increasing_due,
    increasing_moments,
    increasing_squared_due,
    level_due,
    level_moments,
    mean_closed,
    mean_squared_closed,
    moment_series,
    second_moment_closed,
    second_moment_cross,
    second_moment_diagonal,
    simulate,
    stochastic_rate,
    variance_closed,
)
from annurates import cli

from spans import NullTracer

WORKLOADS = ("tables", "verify", "audit")
FAMILIES = ("arithmetic", "geometric", "level", "increasing", "decreasing", "growth")
DISTRIBUTIONS = ("two-point", "uniform", "lognormal")
FIXED_MODES = ("auto", "closed", "recursive", "sum")

# tables: every family gets 16 log-spaced horizons in [10, 300], offset per
# family so the 96 moment tables cover 96 horizons, plus 16 `fixed` tables
TABLE_HORIZONS = 16
TABLE_N = (10, 300)
FIXED_TABLES = 16
# verify: one request per horizon 4..20, so enumeration always runs
VERIFY_N = range(4, 21)
VERIFY_PATHS = 100_000
# audit: 16 rate points at horizons spread evenly over [5, 40]
AUDIT_POINTS = 16
AUDIT_N = (5, 40)

# j stays at or above 0.01: closed forms lose accuracy as j nears 0 from
# above the singular band (see the README)
J_RANGE = (0.01, 0.25)
S2_RANGE = (0.0, 0.05)
VERIFY_S2_RANGE = (0.001, 0.05)
AUDIT_J_RANGE = (0.01, 0.2)
AUDIT_S2_RANGE = (0.0, 0.04)
# geometric ratios and growth rates stay this far from 1+j, where the
# geometric closed forms divide by (1+j) - q
RATIO_GAP = 0.01


@dataclass(frozen=True)
class Request:
    """One client request: CLI argv, or the parameters of one audit."""

    id: str
    kind: str  # "moments" | "fixed" | "verify" | "audit"
    params: dict = field(hash=False)
    argv: tuple = ()


def _dec(value: float, places: int) -> str:
    return f"{value:.{places}f}"


def _log_grid(lo, hi, position: float, count: int) -> int:
    """Horizon at `position` (0 <= position < count) on a log scale over [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    return int(round(math.exp(a + (b - a) * position / count)))


def _plan_params(rng, family: str, n: int, j: float, audit: bool = False) -> dict:
    """Payment parameters for a family, as decimal strings.

    Audit plans are drawn over the identity grids' ranges and need not keep
    every payment positive, as in the grids.
    """
    p = _dec(rng.uniform(1.0, 5.0) if audit else rng.uniform(0.5, 5.0), 2)
    if family == "arithmetic":
        # strict mode needs the last payment positive: p + (n-1) q > 0
        low, high = (-0.2, 1.0) if audit else (-0.9 * float(p) / max(n - 1, 1), 2.0)
        return {"p": p, "q": _dec(rng.uniform(low, high), 4)}
    if family == "geometric":
        while True:
            q = _dec(rng.uniform(0.9, 1.2), 3)
            if abs(1.0 + j - float(q)) >= RATIO_GAP:
                return {"p": p, "q": q}
    if family == "growth":
        while True:
            u = _dec(rng.uniform(-0.02, 0.2), 3)
            if abs(float(u) - j) >= RATIO_GAP:
                return {"u": u}
    return {}


def _plan_argv(family: str, params: dict) -> list:
    argv = ["--family", family]
    for name in ("p", "q", "u"):
        if name in params:
            argv += [f"--{name}", params[name]]
    return argv


def tables(seed: int) -> list:
    rng = random.Random(f"tables/{seed}")
    requests = []
    for f, family in enumerate(FAMILIES):
        for s in range(TABLE_HORIZONS):
            n = _log_grid(*TABLE_N, s + (f + 0.5) / len(FAMILIES), TABLE_HORIZONS)
            j = _dec(rng.uniform(*J_RANGE), 4)
            # one deterministic-rate table per family, in a different stratum
            s2 = "0" if s == (3 + 5 * f) % TABLE_HORIZONS else _dec(rng.uniform(*S2_RANGE), 5)
            params = {"family": family, "n": n, "j": j, "s2": s2}
            params.update(_plan_params(rng, family, n, float(j)))
            params["method"] = "both" if (f + s) % 4 == 0 else "closed"
            params["output"] = "json" if (f + s // 2) % 2 else "csv"
            argv = ["moments"] + _plan_argv(family, params)
            argv += ["--n", str(n), "--j", j, "--s2", s2, "--output", params["output"]]
            if params["method"] == "both":  # closed is the CLI default
                argv += ["--method", "both"]
            requests.append(Request(f"tables:m{len(requests)}", "moments", params, tuple(argv)))
    for i in range(FIXED_TABLES):
        n = _log_grid(*TABLE_N, i + 0.5, FIXED_TABLES)
        params = {"n": n, "j": _dec(rng.uniform(*J_RANGE), 4)}
        params["output"] = "json" if i % 4 in (1, 2) else "csv"
        argv = ["fixed", "--j", params["j"], "--n", str(n), "--output", params["output"]]
        if i % 2:
            params["columns"] = cli._FIXED_COLUMNS
            params["p"] = _dec(rng.uniform(0.5, 5.0), 2)
            params["q"] = _dec(rng.uniform(0.9, 1.2), 3)
            argv += ["--family", "all", "--p", params["p"], "--q", params["q"]]
        else:
            params["columns"] = ("level", "increasing", "increasing_sq", "decreasing")
        requests.append(Request(f"tables:f{i}", "fixed", params, tuple(argv)))
    rng.shuffle(requests)
    return requests


def verify(seed: int) -> list:
    rng = random.Random(f"verify/{seed}")
    requests = []
    for n in VERIFY_N:
        family = rng.choice(FAMILIES)
        j = _dec(rng.uniform(*J_RANGE), 4)
        params = {"family": family, "n": n, "j": j, "s2": _dec(rng.uniform(*VERIFY_S2_RANGE), 5)}
        params.update(_plan_params(rng, family, n, float(j)))
        # odd horizons use two workers; a fixed split keeps the cost per round fixed
        params["workers"] = 1 + n % 2
        params["seed"] = rng.randrange(2**31)
        argv = ["verify"] + _plan_argv(family, params)
        argv += ["--n", str(n), "--j", j, "--s2", params["s2"]]
        argv += ["--paths", str(VERIFY_PATHS), "--seed", str(params["seed"])]
        argv += ["--workers", str(params["workers"]), "--output", "json"]
        requests.append(Request(f"verify:{n}", "verify", params, tuple(argv)))
    rng.shuffle(requests)
    return requests


def audit_points(seed: int) -> list:
    rng = random.Random(f"audit/{seed}")
    lo, hi = AUDIT_N
    requests = []
    for s in range(AUDIT_POINTS):
        n = int(lo + (hi - lo) * (s + 0.5) / AUDIT_POINTS + 0.5)
        j = _dec(rng.uniform(*AUDIT_J_RANGE), 4)
        params = {"n": n, "j": j, "s2": _dec(rng.uniform(*AUDIT_S2_RANGE), 5)}
        arith = _plan_params(rng, "arithmetic", n, float(j), audit=True)
        geom = _plan_params(rng, "geometric", n, float(j), audit=True)
        params.update(ap=arith["p"], aq=arith["q"], gp=geom["p"], gq=geom["q"])
        params.update(_plan_params(rng, "growth", n, float(j), audit=True))
        requests.append(Request(f"audit:{s}", "audit", params))
    rng.shuffle(requests)
    return requests


BUILDERS = {"tables": tables, "verify": verify, "audit": audit_points}

# fixed tiny requests that load every code path a workload touches
_WARMUP = {
    "tables": [
        ("moments", "--family", "increasing", "--n", "10", "--j", "0.05", "--s2", "0.01"),
        ("moments", "--family", "growth", "--u", "0.1", "--n", "10", "--j", "0.05",
         "--s2", "0.01", "--method", "both", "--output", "json"),
        ("fixed", "--j", "0.05", "--n", "10", "--family", "all", "--output", "json"),
    ],
    "verify": [
        ("verify", "--family", "level", "--n", "5", "--j", "0.05", "--s2", "0.01",
         "--paths", "100000", "--workers", "2"),
    ],
}
_WARMUP_AUDIT = {"n": 5, "j": "0.05", "s2": "0.01", "ap": "1", "aq": "0.5",
                 "gp": "1", "gq": "1.1", "u": "0.03"}


def prepare(workload: str, seed: int) -> list:
    """Everything before the first timed request: inputs, then warm-up."""
    requests = BUILDERS[workload](seed)
    for argv in _WARMUP.get(workload, ()):
        code, _ = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"warm-up request {' '.join(argv)} exited {code}")
    if workload == "audit":
        audit(_WARMUP_AUDIT, NullTracer())
    return requests


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


def run_cli(argv) -> tuple:
    """One CLI invocation in process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# exit codes a correct program may give; `verify` exits 1 on a Monte Carlo
# miss, which the checks tell apart from any other failed comparison
ACCEPTED_EXIT = {"moments": (0,), "fixed": (0,), "verify": (0, 1)}


def serve(request: Request):
    """Serve one request; the result is what its checks inspect.

    An exception the request raises is returned as its result, so the client
    keeps serving and the failure is counted.
    """
    try:
        if request.kind == "audit":
            return audit(request.params, NullTracer())
        return run_cli(request.argv)
    except Exception as exc:
        return exc


def serve_traced(request: Request, tracer, tag: str):
    """Serve under a request span; a CLI request is replayed as public calls."""
    try:
        if request.kind == "audit":
            return tracer.request(f"{tag}/{request.id}", audit, request.params, tracer)
        return tracer.request(f"{tag}/{request.id}", _cli_and_replay, request, tracer)
    except Exception as exc:
        return exc


def failed(request: Request, result) -> bool:
    if isinstance(result, Exception):
        return True
    return request.kind != "audit" and result[0] not in ACCEPTED_EXIT[request.kind]


def _cli_and_replay(request: Request, tracer):
    result = tracer.call("cli.main", run_cli, request.argv)
    replay(request, tracer)
    return result


def make_plan(family: str, params: dict, n: int, strict: bool = True) -> PaymentPlan:
    if family in ("arithmetic", "geometric"):
        default_q = "0" if family == "arithmetic" else "1"
        p = float(params.get("p", "1"))
        q = float(params.get("q", default_q))
        return PaymentPlan(family=family, p=p, q=q, n=n, strict=strict)
    if family == "growth":
        return PaymentPlan.growth(float(params["u"]), n)
    return getattr(PaymentPlan, family)(n)


def fixed_evaluator(column: str, params: dict, rate):
    """The accumulator and arguments the `fixed` command uses for a column."""
    n = params["n"]
    p = float(params.get("p", "1"))
    if column == "level":
        return level_due, lambda k: (k, rate)
    if column == "increasing":
        return increasing_due, lambda k: (k, rate)
    if column == "increasing_sq":
        return increasing_squared_due, lambda k: (k, rate)
    if column == "decreasing":
        return decreasing_due, lambda k: (n, k, rate)
    if column == "arithmetic":
        q = float(params.get("q", "0"))
        return arithmetic_due, lambda k: (p, q, k, rate, "auto", True)
    q = float(params.get("q", "1"))
    return geometric_due, lambda k: (p, q, k, rate, "auto", True)


def replay(request: Request, t) -> None:
    """The public calls a CLI request makes, each under its own span."""
    p = request.params
    if request.kind == "fixed":
        rate = t.call("rates.fixed_rate", fixed_rate, float(p["j"]))
        evaluators = [
            (f"fixed.{col}",) + fixed_evaluator(col, p, rate) for col in p["columns"]
        ]
        for k in range(1, p["n"] + 1):
            for name, fn, args in evaluators:
                t.call(name, fn, *args(k))
        return
    n = p["n"]
    plan = t.call("moments.PaymentPlan", make_plan, p["family"], p, n)
    spec = t.call("rates.stochastic_rate", stochastic_rate, float(p["j"]), float(p["s2"]))
    if request.kind == "moments":
        t.call("moments.moment_series.closed", moment_series, plan, spec, "closed")
        if p["method"] == "both":
            t.call("moments.moment_series.recursive", moment_series, plan, spec, "recursive")
        return
    dists = [
        t.call("oracle.RateDistribution", RateDistribution, kind, spec.j, spec.s2)
        for kind in DISTRIBUTIONS
    ]
    analytic = t.call("moments.moment_series.closed", moment_series, plan, spec, "closed")
    oracles = [t.call("oracle.enumerate_series", enumerate_series, plan, spec, n)]
    config = t.call("oracle.SimConfig", SimConfig, VERIFY_PATHS, p["seed"], p["workers"])
    for dist in dists:
        name = f"oracle.simulate.{dist.kind}.w{p['workers']}"
        oracles.append(t.call(name, simulate, plan, dist, config, n))
    t.call("oracle.compare", compare, analytic, oracles)


_FIXED_KINDS = (
    ("level", level_due),
    ("increasing", increasing_due),
    ("increasing_sq", increasing_squared_due),
    ("decreasing", decreasing_due),
    ("arithmetic", arithmetic_due),
    ("geometric", geometric_due),
    ("growth", growth_due),
)
_POINT_FORMS = (
    ("mean_closed", mean_closed),
    ("second_moment_closed", second_moment_closed),
    ("mean_squared_closed", mean_squared_closed),
    ("variance_closed", variance_closed),
    ("diagonal", second_moment_diagonal),
    ("cross", second_moment_cross),
)


def _series(series) -> tuple:
    return tuple(
        tuple(a.tolist())
        for a in (series.mean, series.second_moment, series.variance, series.diagonal, series.cross)
    )


def audit(params: dict, t) -> dict:
    """Audit one rate point (j, s2) over horizons 1..n, the identity suites' way.

    Returns every value computed, keyed by what produced it, for the checks.
    """
    n = params["n"]
    j, s2 = float(params["j"]), float(params["s2"])
    ap, aq = float(params["ap"]), float(params["aq"])
    gp, gq = float(params["gp"]), float(params["gq"])
    u = float(params["u"])
    spec = t.call("rates.stochastic_rate", stochastic_rate, j, s2)
    spec0 = t.call("rates.stochastic_rate", stochastic_rate, j, 0.0)
    rate = t.call("rates.fixed_rate", fixed_rate, j)
    args = {
        "level": lambda k, m: (k, rate, m),
        "increasing": lambda k, m: (k, rate, m),
        "increasing_sq": lambda k, m: (k, rate, m),
        "decreasing": lambda k, m: (n, k, rate, m),
        "arithmetic": lambda k, m: (ap, aq, k, rate, m, False),
        "geometric": lambda k, m: (gp, gq, k, rate, m),
        "growth": lambda k, m: (u, k, rate, m),
    }
    out = {"fixed": {}}
    for mode in FIXED_MODES + ("relation",):
        for kind, fn in _FIXED_KINDS:
            if mode == "relation" and kind != "increasing_sq":
                continue
            name = f"fixed.{mode}"
            make = args[kind]
            out["fixed"][kind, mode] = tuple(
                t.call(name, fn, *make(k, mode)) for k in range(1, n + 1)
            )

    plans = {
        "arithmetic": PaymentPlan(family="arithmetic", p=ap, q=aq, n=n, strict=False),
        "geometric": PaymentPlan(family="geometric", p=gp, q=gq, n=n, strict=False),
    }
    for family, plan in plans.items():
        ref = t.call("moments.moment_series.recursive", moment_series, plan, spec, "recursive")
        ref0 = t.call("moments.moment_series.recursive", moment_series, plan, spec0, "recursive")
        out[family, "recursive"] = _series(ref)
        out[family, "recursive", "s2=0"] = _series(ref0)
        for name, fn in _POINT_FORMS:
            out[family, name] = tuple(
                t.call(f"moments.{name}", fn, plan, spec, k) for k in range(1, n + 1)
            )
        out[family, "mean_closed", "s2=0"] = tuple(
            t.call("moments.mean_closed", mean_closed, plan, spec0, k) for k in range(1, n + 1)
        )

    aux = t.call("rates.geometric_aux", geometric_aux, spec, u)
    special = {
        "level": (PaymentPlan.level(n), lambda k: (spec, k), level_moments),
        "increasing": (PaymentPlan.increasing(n), lambda k: (spec, k), increasing_moments),
        "decreasing": (PaymentPlan.decreasing(n), lambda k: (spec, n, k), decreasing_moments),
        "growth": (PaymentPlan.growth(u, n), lambda k: (spec, aux, k), growth_moments),
    }
    for family, (plan, make, fn) in special.items():
        ref = t.call("moments.moment_series.recursive", moment_series, plan, spec, "recursive")
        out["special", family, "recursive"] = _series(ref)
        out["special", family] = tuple(
            tuple(t.call(f"moments.special.{family}", fn, *make(k))) for k in range(1, n + 1)
        )
    return out
