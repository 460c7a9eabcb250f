"""The traced run: per-layer numbers from spans around the package's public calls.

It serves one round of every workload with each request replayed as the
public calls it makes (see `workloads.replay`), times every layer across
horizons n in {10, 30, 100, 300, 1000} for its growth slope, and measures
what recording spans costs by serving each request of the named workload
with and without a tracer in turn.  No end-to-end figure comes from this run.

Layer metrics and the end-to-end metric each should move are listed in the
README.
"""

from __future__ import annotations

import math
import random
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter, perf_counter_ns

import checks
import env
import workloads
from annurates import (
    PaymentPlan,
    arithmetic_due,
    decreasing_due,
    enumerate_series,
    fixed_rate,
    fixed_identity_suite,
    geometric_due,
    increasing_due,
    increasing_squared_due,
    level_due,
    moment_series,
    specialization_suite,
    stochastic_identity_suite,
    stochastic_rate,
)
from spans import NullTracer, Tracer, durations, self_time_by_request

# every per-layer metric, in report order, with its unit
UNITS = {
    "init.import_s": "s",
    "cli.self_ms": "ms",
    "moments.series_closed.ms_per_req": "ms",
    "moments.series_closed.slope_arith": "exponent",
    "moments.series_closed.slope_geom": "exponent",
    "moments.series_closed.n1000_ms_arith": "ms",
    "moments.series_closed.n1000_ms_geom": "ms",
    "moments.series_recursive.slope": "exponent",
    "moments.series_recursive.n1000_ms": "ms",
    "moments.point.mean_closed_us": "us",
    "moments.point.second_moment_closed_us": "us",
    "moments.point.mean_squared_closed_us": "us",
    "moments.point.variance_closed_us": "us",
    "moments.point.diagonal_us": "us",
    "moments.point.cross_us": "us",
    "moments.special.level_us": "us",
    "moments.special.increasing_us": "us",
    "moments.special.decreasing_us": "us",
    "moments.special.growth_us": "us",
    "moments.recursion.us_per_year": "us",
    "moments.variance_kept_ratio": "ratio",
    "moments.variance_closed.kept": "count",
    "moments.variance_closed.attempted": "count",
    "fixed.closed_us": "us",
    "fixed.recursive_us": "us",
    "fixed.sum_us": "us",
    "fixed.sum.slope": "exponent",
    "oracle.enumerate.ms_per_req": "ms",
    "oracle.enumerate.ns_per_path_year": "ns",
    "oracle.enumerate.peak_mb_k20": "MB",
    **{
        f"oracle.simulate.{kind}.w{w}.ns_per_path_year": "ns"
        for kind in ("two-point", "uniform", "lognormal")
        for w in (1, 2)
    },
    "oracle.simulate.ms_per_req": "ms",
    "oracle.compare.us_per_req": "us",
    "identities.fixed_s": "s",
    "identities.stochastic_s": "s",
    "identities.specialization_s": "s",
    "identities.cases": "count",
    "rates.stochastic_rate_us": "us",
    "trace.overhead_ratio": "ratio",
}

SWEEP_N = (10, 30, 100, 300, 1000)
FIXED_K = 40
IMPORT_REPEATS = 3
# a timed sample repeats its call until this much time has passed
SAMPLE_SECONDS = 0.2


def import_seconds() -> float:
    """`import annurates` in a fresh interpreter, timed inside it."""
    code = (
        "import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
        "import annurates; print(time.perf_counter() - t)" % str(env.SRC)
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        check=True, cwd=env.ROOT,
    )
    return float(out.stdout)


def _timed(tracer, name, fn, *args) -> float:
    """Median seconds per call over repeats filling SAMPLE_SECONDS, one span each."""
    times = []
    total = 0.0
    while total < SAMPLE_SECONDS or not times:
        start = perf_counter_ns()
        tracer.call(name, fn, *args)
        elapsed = (perf_counter_ns() - start) * 1e-9
        times.append(elapsed)
        total += elapsed
    return statistics.median(times)


def _batched(tracer, name, calls) -> float:
    """Seconds per call of a batch of cheap calls, repeated, under one span each."""
    def batch():
        for fn, args in calls:
            fn(*args)

    return _timed(tracer, name, batch) / len(calls)


def slope(ns, seconds) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweeps(tracer, seed: int) -> dict:
    """Layer timings across horizons, and the per-call micro timings."""
    rng = random.Random(f"sweep/{seed}")
    # j at most 0.1 keeps m^1000 and (1+j)^2000 far inside double range
    spec = stochastic_rate(round(rng.uniform(0.03, 0.1), 4), round(rng.uniform(0.001, 0.03), 5))
    p, q_arith = round(rng.uniform(1.0, 3.0), 2), round(rng.uniform(0.1, 1.0), 3)
    q_geom = round(rng.uniform(1.0 + spec.j + 0.02, 1.2), 3)
    plans = {
        "arith": lambda n: PaymentPlan.arithmetic(p, q_arith, n),
        "geom": lambda n: PaymentPlan.geometric(p, q_geom, n),
    }
    m = {}
    for family, make in plans.items():
        times = [
            _timed(tracer, f"sweep.moments.closed.{family}.n{n}", moment_series, make(n), spec, "closed")
            for n in SWEEP_N
        ]
        m[f"moments.series_closed.slope_{family}"] = slope(SWEEP_N, times)
        m[f"moments.series_closed.n1000_ms_{family}"] = times[-1] * 1e3
    times = [
        _timed(tracer, f"sweep.moments.recursive.n{n}", moment_series, plans["arith"](n), spec, "recursive")
        for n in SWEEP_N
    ]
    m["moments.series_recursive.slope"] = slope(SWEEP_N, times)
    m["moments.series_recursive.n1000_ms"] = times[-1] * 1e3

    rate = fixed_rate(spec.j)

    def fixed_calls(k, mode):
        return [
            (level_due, (k, rate, mode)),
            (increasing_due, (k, rate, mode)),
            (increasing_squared_due, (k, rate, mode)),
            (decreasing_due, (k, k, rate, mode)),
            (arithmetic_due, (p, q_arith, k, rate, mode)),
            (geometric_due, (p, q_geom, k, rate, mode)),
        ]

    for mode in ("closed", "recursive", "sum"):
        per_call = _batched(tracer, f"sweep.fixed.{mode}.k{FIXED_K}", fixed_calls(FIXED_K, mode))
        m[f"fixed.{mode}_us"] = per_call * 1e6
    times = [_batched(tracer, f"sweep.fixed.sum.n{n}", fixed_calls(n, "sum")) for n in SWEEP_N]
    m["fixed.sum.slope"] = slope(SWEEP_N, times)

    calls = [(stochastic_rate, (0.01 + 0.001 * i, 0.0001 * i)) for i in range(200)]
    m["rates.stochastic_rate_us"] = _batched(tracer, "sweep.rates.stochastic_rate", calls) * 1e6

    plan20 = PaymentPlan.increasing(20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        tracer.call("sweep.oracle.enumerate_series.k20", enumerate_series, plan20, spec, 20)
        m["oracle.enumerate.peak_mb_k20"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return m


def identity_suites(tracer) -> tuple:
    """Seconds per suite, total cases, and the names of any breached checks."""
    m = {}
    cases = 0
    breaches = []
    for name, suite in (
        ("fixed", fixed_identity_suite),
        ("stochastic", stochastic_identity_suite),
        ("specialization", specialization_suite),
    ):
        start = perf_counter()
        results = tracer.call(f"identities.{name}", suite)
        m[f"identities.{name}_s"] = perf_counter() - start
        cases += sum(r.cases for r in results)
        breaches += [r.name for r in results if not r.passed]
    m["identities.cases"] = cases
    return m, breaches


def overhead_ratio(requests, seconds: float) -> tuple:
    """Traced over untraced time for the same requests, repeated until `seconds`.

    Each request is served once with spans and once without, back to back
    and in alternating order, so a change in machine speed falls on both
    sides alike.  Traced requests record into a fresh tracer that is then
    dropped, so the measurement does not grow the kept spans.
    """
    times = {NullTracer: 0.0, Tracer: 0.0}
    pair = (NullTracer, Tracer)
    served = failed = 0
    start = perf_counter()
    while perf_counter() - start < seconds or served == 0:
        for request in requests:
            for kind in pair:
                t0 = perf_counter()
                result = workloads.serve_traced(request, kind(), "overhead")
                times[kind] += perf_counter() - t0
                failed += workloads.failed(request, result)
                served += 1
            pair = pair[::-1]
    return times[Tracer] / times[NullTracer], served, failed


def _variance_kept(results) -> tuple:
    """Closed variances returned, and attempted, over the audit round."""
    kept = attempted = 0
    for request, out in results:
        if out is None or float(request.params["s2"]) == 0.0:
            continue  # the closed variance is not attempted at a fixed rate
        for family in ("arithmetic", "geometric"):
            m2 = out[family, "second_moment_closed"]
            sq = out[family, "mean_squared_closed"]
            for var, a, b in zip(out[family, "variance_closed"], m2, sq):
                attempted += 1
                kept += var == a - b
    return kept, attempted


def _per_request(spans, name, requests, tag, weight) -> float:
    """Sum of a span's durations over the sum of a per-request weight."""
    by_id = {f"{tag}/{r.id}": r for r in requests}
    total = weight_sum = 0.0
    for _, span_name, start, end, _, request_id in spans:
        if span_name == name and request_id in by_id:
            total += (end - start) * 1e-9
            weight_sum += weight(by_id[request_id])
    return total / weight_sum


def layer_metrics(spans, rounds, results) -> dict:
    m = {}
    tables, verify, audit = rounds["tables"], rounds["verify"], rounds["audit"]
    cli_self = self_time_by_request(
        [s for s in spans if str(s[5]).startswith("round/tables")], "cli.main"
    )
    m["cli.self_ms"] = statistics.median(cli_self) * 1e3
    moments_requests = sum(r.kind == "moments" for r in tables)
    closed = durations(spans, name="moments.moment_series.closed", request_prefix="round/tables")
    m["moments.series_closed.ms_per_req"] = sum(closed) / moments_requests * 1e3

    for name in (
        "mean_closed", "second_moment_closed", "mean_squared_closed", "variance_closed",
        "diagonal", "cross",
    ):
        m[f"moments.point.{name}_us"] = statistics.fmean(
            durations(spans, name=f"moments.{name}", request_prefix="round/audit")
        ) * 1e6
    for family in ("level", "increasing", "decreasing", "growth"):
        m[f"moments.special.{family}_us"] = statistics.fmean(
            durations(spans, name=f"moments.special.{family}", request_prefix="round/audit")
        ) * 1e6
    m["moments.recursion.us_per_year"] = _per_request(
        spans, "moments.moment_series.recursive", audit, "round", lambda r: r.params["n"]
    ) * 1e6
    kept, attempted = _variance_kept(zip(audit, results["audit"]))
    m["moments.variance_kept_ratio"] = kept / attempted
    m["moments.variance_closed.kept"] = kept
    m["moments.variance_closed.attempted"] = attempted

    m["oracle.enumerate.ms_per_req"] = statistics.fmean(
        durations(spans, name="oracle.enumerate_series", request_prefix="round/verify")
    ) * 1e3
    m["oracle.enumerate.ns_per_path_year"] = _per_request(
        spans, "oracle.enumerate_series", verify, "round",
        lambda r: 2 ** r.params["n"] * r.params["n"],
    ) * 1e9
    for kind in workloads.DISTRIBUTIONS:
        for w in (1, 2):
            m[f"oracle.simulate.{kind}.w{w}.ns_per_path_year"] = _per_request(
                spans, f"oracle.simulate.{kind}.w{w}", verify, "round",
                lambda r: workloads.VERIFY_PATHS * r.params["n"],
            ) * 1e9
    simulated = durations(spans, prefix="oracle.simulate.", request_prefix="round/verify")
    m["oracle.simulate.ms_per_req"] = sum(simulated) / len(verify) * 1e3
    m["oracle.compare.us_per_req"] = statistics.fmean(
        durations(spans, name="oracle.compare", request_prefix="round/verify")
    ) * 1e6
    return m


def run(workload: str, seed: int, seconds: float) -> dict:
    """The traced run; returns the result record run.py prints and writes."""
    tracer = Tracer()
    metrics = {"init.import_s": statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))}
    rounds = {w: workloads.prepare(w, seed) for w in workloads.WORKLOADS}
    results = {w: [] for w in workloads.WORKLOADS}
    errors = []
    attempted = failed = 0
    for w, requests in rounds.items():
        for request in requests:
            attempted += 1
            result = workloads.serve_traced(request, tracer, "round")
            if workloads.failed(request, result):
                failed += 1
                results[w].append(None)
                continue
            results[w].append(result)
            errors += checks.check(request, result)
    ratio, served, overhead_failed = overhead_ratio(rounds[workload], seconds)
    attempted += served
    failed += overhead_failed
    metrics.update(sweeps(tracer, seed))
    suite_metrics, breaches = identity_suites(tracer)
    metrics.update(suite_metrics)
    errors += [f"identity check {name} breached" for name in breaches]
    metrics.update(layer_metrics(tracer.spans, rounds, results))
    metrics["trace.overhead_ratio"] = ratio
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "spans": tracer,
    }
