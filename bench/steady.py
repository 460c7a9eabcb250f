"""Run workloads over several seeds and summarise each end-to-end metric.

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --workloads tables --seeds 11,12,13,14,15

Each run is a separate `run.py` process, one at a time.  For every workload
and metric the summary gives the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  A spread above a third of its bound is marked.  The summary,
one row per workload with the machine's details, goes to
bench/results/summary-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list, bounds: dict) -> dict:
    row = {
        "runs": len(results),
        "all_correct": all(r["correct"] for r in results),
        "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        row["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": bounds.get(name),
            "values": values,
        }
    return row


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="latest")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    import env

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"machine": env.machine(), "seconds": args.seconds, "seeds": args.seeds, "rows": {}}
    steady = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()
            ), flush=True)
        row = summarise(results, bounds)
        summary["rows"][workload] = row
        print(f"\n{workload}: {row['runs']} runs, all correct: {row['all_correct']}, "
              f"failed shares: {row['failed_share']}")
        for name, m in row["metrics"].items():
            mark = ""
            if m["bound"] is not None and name != "setup_s" and m["spread"] > m["bound"] / 3:
                mark = "  <- spread above a third of the bound"
                steady = False
            print(f"  {name:16s} median {m['median']:<10.5g} q1 {m['q1']:<10.5g} "
                  f"q3 {m['q3']:<10.5g} spread {m['spread']:.4f} bound {m['bound']}{mark}")
        print(flush=True)
    out = env.RESULTS / f"summary-{args.label}.json"
    env.RESULTS.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
