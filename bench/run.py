"""Run one workload of the annurates benchmark and print its metrics.

    python3 bench/run.py --workload tables --seed 1 --seconds 45 --trace 0

With --trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it is the traced run (traced.py) and reports the per-layer
metrics.  BENCHMARK.json lists `tables` and `verify`; `audit` runs the same
way by hand, but is too unsteady on the reference machine to gate a change
(see the README).  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.  A
result file with the machine's details goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, perf_counter_ns

import env

# set-up is timed in this many fresh interpreters and reported as the median
SETUP_REPEATS = 11
# p90 needs at least ten samples beyond it
MIN_REQUESTS = 100

UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter to first request ready: import, inputs, warm-up."""
    code = (
        "import sys; sys.path.insert(0, %r); import env; env.bootstrap(); "
        "import workloads; workloads.prepare(%r, %d); print('ready', flush=True)"
        % (str(env.BENCH), workload, seed)
    )
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        cwd=env.ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} exited {proc.returncode}")
    return elapsed


def untraced(workload: str, seed: int, seconds: float) -> dict:
    """Closed loop over whole rounds of the seeded requests for `seconds`.

    The set-up samples are taken between rounds, spread over the timed
    phase, so their median sees the same machine as the requests do; the
    time they take is left out of the timed phase.
    """
    import checks
    import workloads

    requests = workloads.prepare(workload, seed)
    first = [None] * len(requests)
    latencies = []
    setups = []
    failed = mismatched = rounds = 0
    reported = set()
    timed = 0.0
    while True:
        if len(setups) < SETUP_REPEATS and timed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_seconds(workload, seed))
        start = perf_counter()
        for i, request in enumerate(requests):
            t0 = perf_counter_ns()
            result = workloads.serve(request)
            latencies.append((perf_counter_ns() - t0) * 1e-6)
            if workloads.failed(request, result):
                failed += 1
                if request.id not in reported:
                    reported.add(request.id)
                    print(f"request {request.id} failed:", file=sys.stderr)
                    if isinstance(result, Exception):
                        traceback.print_exception(result, file=sys.stderr)
            if rounds == 0:
                first[i] = result
            elif not isinstance(result, Exception) and result != first[i]:
                mismatched += 1
        timed += perf_counter() - start
        rounds += 1
        if timed >= seconds and len(latencies) >= MIN_REQUESTS:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(workload, seed))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = []
    for request, result in zip(requests, first):
        if not workloads.failed(request, result):
            errors += checks.check(request, result)
    if mismatched:
        errors.append(f"{mismatched} outputs differ from the same request's first output")
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "rounds": rounds,
        "requests_per_round": len(requests),
        "latency_samples": len(latencies),
        "setup_samples_s": setups,
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_rps": (len(latencies) - failed) / timed,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": deciles[8],
            "peak_rss_mb": peak_mb,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tables", "verify", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env.bootstrap()
    if args.trace:
        import traced

        record = traced.run(args.workload, args.seed, args.seconds)
        tracer = record.pop("spans")
        units = traced.UNITS
    else:
        record = untraced(args.workload, args.seed, args.seconds)
        tracer = None
        units = UNITS

    env.RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(env.RESULTS / f"{stem}.spans.jsonl")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": env.machine(),
        **record,
    }
    record["metrics"] = {name: record["metrics"][name] for name in units}
    record["correct"] = not record["errors"]
    (env.RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for error in record["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{record['attempted']} attempted, {record['failed']} failed")
    if "latency_samples" in record:
        print(f"latency percentiles over {record['latency_samples']} requests "
              f"({record['rounds']} rounds of {record['requests_per_round']})")
    for name, value in record["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
