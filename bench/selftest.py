"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Serves a few small requests of each workload and requires every check to
accept the real outputs.  Then it perturbs one value at a time (a mean and a
variance in a moments table, an enumeration row in a verify report, a value
in a fixed table, a closed variance in an audit) and requires the matching
check to reject each one.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import env

SEED = 0
# small enough for roundoff, far beyond every check's tolerance
NUDGE = 1.0 + 1e-6


def smallest(requests, kind, **want):
    matches = [
        r for r in requests
        if r.kind == kind and all(r.params.get(k) == v for k, v in want.items())
    ]
    return min(matches, key=lambda r: r.params["n"])


def nudge_table(text: str, output: str, k: int, column: str) -> str:
    """The same report with one cell of row k multiplied by NUDGE."""
    if output == "json":
        doc = json.loads(text)
        doc["rows"][k - 1][column] *= NUDGE
        return json.dumps(doc)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    col = rows[0].index(column)
    rows[k][col] = repr(float(rows[k][col]) * NUDGE)
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def nudge_enumeration(text: str, k: int) -> str:
    doc = json.loads(text)
    for row in doc["comparisons"]:
        if row["source"] == "enumeration" and row["k"] == k:
            row["oracle_mean"] *= NUDGE
    return json.dumps(doc)


def main() -> int:
    env.bootstrap()
    import checks
    import workloads

    picked = {}
    tables = workloads.prepare("tables", SEED)
    picked["moments"] = smallest(tables, "moments", method="closed", family="increasing")
    picked["fixed"] = smallest(tables, "fixed")
    picked["verify"] = smallest(workloads.prepare("verify", SEED), "verify")
    picked["audit"] = smallest(workloads.prepare("audit", SEED), "audit")

    failures = []
    outputs = {}
    for kind, request in picked.items():
        result = workloads.serve(request)
        errors = ["request failed"] if workloads.failed(request, result) else checks.check(request, result)
        outputs[kind] = result
        status = "accepted" if not errors else f"REJECTED: {errors[:3]}"
        print(f"{request.id} ({kind}, n={request.params['n']}): {status}")
        if errors:
            failures.append(f"real output of {request.id} rejected")

    m, f, v = picked["moments"], picked["fixed"], picked["verify"]
    n = m.params["n"]
    code, text = outputs["moments"]
    audit = dict(outputs["audit"])
    audit["arithmetic", "variance_closed"] = (
        audit["arithmetic", "variance_closed"][:-1]
        + (audit["arithmetic", "variance_closed"][-1] * NUDGE,)
    )
    perturbed = [
        ("one mean", m, (code, nudge_table(text, m.params["output"], 1, "mean"))),
        ("one variance", m, (code, nudge_table(text, m.params["output"], n, "variance"))),
        ("one enumeration row", v,
         (outputs["verify"][0], nudge_enumeration(outputs["verify"][1], v.params["n"]))),
        ("one fixed-table value", f,
         (0, nudge_table(outputs["fixed"][1], f.params["output"], f.params["n"], "level"))),
        ("one audit closed variance", picked["audit"], audit),
    ]
    for label, request, result in perturbed:
        errors = checks.check(request, result)
        print(f"perturbed {label} in {request.id}: "
              f"{'rejected: ' + errors[0] if errors else 'NOT REJECTED'}")
        if not errors:
            failures.append(f"perturbed {label} was accepted")

    for failure in failures:
        print(f"self-test failure: {failure}", file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
