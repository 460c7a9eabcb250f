"""Command-line front end: value tables, moment reports, oracle verification.

Four subcommands share one configuration pipeline: built-in defaults are
overridden by a key=value --config file, which is overridden by explicit
flags.  Tables and reports go to stdout (or --out FILE); diagnostics go to
stderr.  Exit codes: 0 success, 1 verification or identity failure,
2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

from .errors import DomainError, NumericalFailureError
from .fixed import (
    arithmetic_due,
    decreasing_due,
    geometric_due,
    increasing_due,
    increasing_squared_due,
    level_due,
)
from .identities import run_identity_suites
from .moments import PaymentPlan, moment_series
from .oracle import (
    ENUMERATION_MAX_HORIZON,
    RateDistribution,
    SimConfig,
    compare,
    enumerate_series,
    simulate,
)
from .rates import fixed_rate, stochastic_rate

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

_FIXED_COLUMNS = (
    "level",
    "increasing",
    "increasing_sq",
    "decreasing",
    "arithmetic",
    "geometric",
)
_PLAN_FAMILIES = (
    "arithmetic",
    "geometric",
    "level",
    "increasing",
    "decreasing",
    "growth",
)
_DISTRIBUTIONS = ("two-point", "uniform", "lognormal")

_RATE_HELP = "mean annual interest rate as a decimal (0.1 means 10%%, not 10)"


class _ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# value parsers shared by flags and config files
# ---------------------------------------------------------------------------


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_count(text: str) -> int:
    """Positive integer, scientific notation accepted (1e6 -> 1000000)."""
    value = float(text)
    if not math.isfinite(value) or value != int(value):
        raise ValueError(f"expected a whole number, got {text!r}")
    if value < 1:
        raise ValueError(f"expected a positive count, got {text!r}")
    return int(value)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _choice(options) -> "callable":
    def convert(text: str):
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {text!r}")
        return text

    return convert


def _parse_columns(text: str) -> tuple:
    names = [part.strip() for chunk in text.split(",") for part in chunk.split()]
    names = [name for name in names if name]
    if not names:
        raise ValueError("expected at least one column name")
    for name in names:
        if name != "all" and name not in _FIXED_COLUMNS:
            raise ValueError(
                f"unknown column {name!r}; expected one of "
                f"{', '.join(_FIXED_COLUMNS)} or all"
            )
    if "all" in names:
        return _FIXED_COLUMNS
    # stable output order regardless of request order
    return tuple(c for c in _FIXED_COLUMNS if c in names)


@dataclass(frozen=True)
class _Option:
    """One configurable value: flag spelling, parser, default, requiredness."""

    name: str
    convert: "callable"
    default: object = None
    required: bool = False
    help: str = ""
    metavar: str = None


_COMMON_OUTPUT = (
    _Option("output", _choice(("csv", "json")), default="csv", help="report format"),
    _Option("out", str, help="write the report to FILE instead of stdout", metavar="FILE"),
)

_STRICT = _Option("strict", _parse_bool, default=True, help="require every payment positive")

# the payment plan and random rate, shared by moments and verify
_PLAN_OPTIONS = (
    _Option(
        "family",
        _choice(_PLAN_FAMILIES),
        required=True,
        help="payment plan family",
    ),
    _Option("p", _parse_float, help="first payment (arithmetic/geometric families only)"),
    _Option(
        "q",
        _parse_float,
        help="payment step (arithmetic) or ratio (geometric)",
    ),
    _Option("u", _parse_float, help="annual payment growth rate (growth family only)"),
    _Option("n", _parse_count, required=True, help="number of annual payments"),
    _Option("j", _parse_float, required=True, help=_RATE_HELP),
    _Option("s2", _parse_float, default=0.0, help="variance of the annual rate"),
)

_SCHEMAS = {
    "fixed": (
        _Option("j", _parse_float, required=True, help=_RATE_HELP),
        _Option("n", _parse_count, required=True, help="number of annual payments"),
        _Option(
            "family",
            _parse_columns,
            default=("level", "increasing", "increasing_sq", "decreasing"),
            help="comma-separated value columns (repeatable); 'all' selects every "
            "column; default: the parameter-free ones",
            metavar="COLS",
        ),
        _Option("p", _parse_float, default=1.0, help="first payment (arithmetic and geometric columns)"),
        _Option(
            "q",
            _parse_float,
            help="payment step (arithmetic, default 0) or ratio (geometric, default 1)",
        ),
        _STRICT,
    )
    + _COMMON_OUTPUT,
    "moments": _PLAN_OPTIONS
    + (
        _Option(
            "method",
            _choice(("closed", "recursive", "both")),
            default="closed",
            help="evaluation path; 'both' adds a max-discrepancy column",
        ),
        _STRICT,
    )
    + _COMMON_OUTPUT,
    "verify": _PLAN_OPTIONS
    + (
        _Option(
            "method",
            _choice(("closed", "recursive")),
            default="closed",
            help="analytic path placed under test",
        ),
        _STRICT,
        _Option(
            "distribution",
            _choice(_DISTRIBUTIONS + ("all",)),
            default="all",
            help="annual-rate distribution for the Monte Carlo oracle",
        ),
        _Option(
            "paths",
            _parse_count,
            default=100000,
            help="Monte Carlo sample paths (scientific notation accepted, e.g. 1e6)",
        ),
        _Option("seed", _parse_int, default=0, help="random seed"),
        _Option("workers", _parse_count, default=1, help="worker threads for the Monte Carlo run"),
        replace(_COMMON_OUTPUT[0], default="json"),
    )
    + _COMMON_OUTPUT[1:],
    "identities": _COMMON_OUTPUT,
}


# ---------------------------------------------------------------------------
# configuration pipeline
# ---------------------------------------------------------------------------


def _read_config_file(path: str) -> dict:
    """key=value lines; blank lines and # comments ignored."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _merge_config(command: str, ns: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags, then check requiredness."""
    schema = {opt.name: opt for opt in _SCHEMAS[command]}
    merged = {name: opt.default for name, opt in schema.items()}
    provided = set()
    if ns.config is not None:
        for key, text in _read_config_file(ns.config).items():
            if key not in schema:
                raise _ConfigError(f"unknown config key {key!r} for {command!r}")
            try:
                merged[key] = schema[key].convert(text)
            except ValueError as exc:
                raise _ConfigError(f"config key {key!r}: {exc}") from exc
            provided.add(key)
    for name in schema:
        value = getattr(ns, name)
        if value is not None:
            merged[name] = value
            provided.add(name)
    for name, opt in schema.items():
        if opt.required and merged[name] is None:
            raise _ConfigError(f"missing required value --{name}")
    merged["_provided"] = provided
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="annurates",
        description="Accumulated values of annuities-due under fixed and "
        "random annual interest rates.",
        epilog="exit codes: 0 success, 1 verification/identity failure, "
        "2 invalid input, 3 numerical failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "fixed": "Per-year accumulated values at a fixed annual rate.",
        "moments": "Mean, second moment and variance under a random annual rate.",
        "verify": "Check analytic moments against enumeration and Monte Carlo oracles.",
        "identities": "Run the built-in identity and cross-check grids.",
    }
    for command, options in _SCHEMAS.items():
        cmd_parser = sub.add_parser(
            command, help=descriptions[command], description=descriptions[command]
        )
        cmd_parser.add_argument(
            "--config",
            default=None,
            metavar="FILE",
            help="key=value file supplying any of the flags below; "
            "explicit flags win",
        )
        for opt in options:
            kwargs = {"default": None, "help": opt.help, "dest": opt.name}
            if opt.convert is _parse_bool:
                cmd_parser.add_argument(
                    f"--{opt.name}",
                    action=argparse.BooleanOptionalAction,
                    **kwargs,
                )
                continue
            if opt.metavar:
                kwargs["metavar"] = opt.metavar
            cmd_parser.add_argument(f"--{opt.name}", type=opt.convert, **kwargs)
        if command == "identities":
            cmd_parser.add_argument(
                "--self-test-corrupt",
                action="store_true",
                default=False,
                help=argparse.SUPPRESS,
            )
    return parser


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
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
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        parts = (f"{json.dumps(k)}: {_json_fragment(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_fragment(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _render_json(document: dict) -> str:
    lines = []
    for key, value in document.items():
        if isinstance(value, (list, tuple)):
            body = ",\n".join("    " + _json_fragment(item) for item in value)
            lines.append(f'  {json.dumps(key)}: [\n{body}\n  ]')
        else:
            lines.append(f"  {json.dumps(key)}: {_json_fragment(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        # newline='' keeps CSV CRLF and JSON LF bytes exactly as rendered
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        print(f"wrote report to {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def _reject_extraneous(cfg: dict, allowed: tuple, family: str) -> None:
    for name in ("p", "q", "u"):
        if name not in allowed and name in cfg["_provided"]:
            raise _ConfigError(f"--{name} does not apply to family {family!r}")


def _build_plan(cfg: dict) -> PaymentPlan:
    family = cfg["family"]
    n = cfg["n"]
    strict = cfg["strict"]
    if family == "arithmetic":
        _reject_extraneous(cfg, ("p", "q"), family)
        p = 1.0 if cfg["p"] is None else cfg["p"]
        q = 0.0 if cfg["q"] is None else cfg["q"]
        return PaymentPlan.arithmetic(p, q, n, strict=strict)
    if family == "geometric":
        _reject_extraneous(cfg, ("p", "q"), family)
        p = 1.0 if cfg["p"] is None else cfg["p"]
        q = 1.0 if cfg["q"] is None else cfg["q"]
        return PaymentPlan.geometric(p, q, n, strict=strict)
    if family == "growth":
        _reject_extraneous(cfg, ("u",), family)
        if cfg["u"] is None:
            raise _ConfigError("family 'growth' requires --u")
        return PaymentPlan.growth(cfg["u"], n)
    _reject_extraneous(cfg, (), family)
    return getattr(PaymentPlan, family)(n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fixed(cfg: dict) -> int:
    """Per-year table of fixed-rate accumulated values."""
    rate = fixed_rate(cfg["j"])
    n = cfg["n"]
    columns = cfg["family"]
    p = cfg["p"]
    q_arith = 0.0 if cfg["q"] is None else cfg["q"]
    q_geom = 1.0 if cfg["q"] is None else cfg["q"]
    strict = cfg["strict"]
    evaluators = {
        "level": lambda k: level_due(k, rate),
        "increasing": lambda k: increasing_due(k, rate),
        "increasing_sq": lambda k: increasing_squared_due(k, rate),
        "decreasing": lambda k: decreasing_due(n, k, rate),
        "arithmetic": lambda k: arithmetic_due(p, q_arith, k, rate, strict=strict),
        "geometric": lambda k: geometric_due(p, q_geom, k, rate, strict=strict),
    }
    rows = [
        [k] + [evaluators[name](k) for name in columns] for k in range(1, n + 1)
    ]
    if cfg["output"] == "json":
        document = {
            "j": cfg["j"],
            "n": n,
            "columns": list(columns),
            "rows": [
                dict(zip(("k",) + tuple(columns), row)) for row in rows
            ],
        }
        _emit(_render_json(document), cfg["out"])
    else:
        _emit(_render_csv(["k"] + list(columns), rows), cfg["out"])
    return EXIT_OK


def cmd_moments(cfg: dict) -> int:
    """Per-year analytic moment table under a random annual rate."""
    plan = _build_plan(cfg)
    spec = stochastic_rate(cfg["j"], cfg["s2"])
    method = cfg["method"]
    primary = moment_series(plan, spec, "closed" if method == "both" else method)
    header = ["k", "mean", "second_moment", "variance"]
    rows = [
        [k, primary.mean_at(k), primary.second_moment_at(k), primary.variance_at(k)]
        for k in range(1, plan.n + 1)
    ]
    if method == "both":
        other = moment_series(plan, spec, "recursive")
        header.append("max_discrepancy")
        for k in range(1, plan.n + 1):
            devs = [
                abs(primary.mean_at(k) - other.mean_at(k))
                / max(1.0, abs(other.mean_at(k))),
                abs(primary.second_moment_at(k) - other.second_moment_at(k))
                / max(1.0, abs(other.second_moment_at(k))),
                abs(primary.variance_at(k) - other.variance_at(k))
                / max(1.0, abs(other.variance_at(k))),
            ]
            rows[k - 1].append(max(devs))
    if cfg["output"] == "json":
        document = {
            "family": cfg["family"],
            "p": plan.p,
            "q": plan.q,
            "n": plan.n,
            "j": cfg["j"],
            "s2": cfg["s2"],
            "method": method,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        if cfg["family"] == "growth":
            document["u"] = cfg["u"]
        _emit(_render_json(document), cfg["out"])
    else:
        _emit(_render_csv(header, rows), cfg["out"])
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    """Analytic moments against exact enumeration and Monte Carlo."""
    plan = _build_plan(cfg)
    spec = stochastic_rate(cfg["j"], cfg["s2"])
    kinds = _DISTRIBUTIONS if cfg["distribution"] == "all" else (cfg["distribution"],)
    # constructing the distributions validates rate support before any work
    distributions = [
        RateDistribution(kind=kind, j=spec.j, s2=spec.s2) for kind in kinds
    ]
    analytic = moment_series(plan, spec, cfg["method"])
    oracles = []
    if "two-point" in kinds and plan.n <= ENUMERATION_MAX_HORIZON:
        oracles.append(enumerate_series(plan, spec, plan.n))
    sim_config = SimConfig(paths=cfg["paths"], seed=cfg["seed"], workers=cfg["workers"])
    for distribution in distributions:
        oracles.append(simulate(plan, distribution, sim_config, plan.n))
    report = compare(analytic, oracles)
    records = [asdict(c) for c in report.comparisons]
    if cfg["output"] == "json":
        # worker count and timing are excluded: reports with the same seed
        # must be byte-identical however the work was split
        document = {
            "family": cfg["family"],
            "p": plan.p,
            "q": plan.q,
            "n": plan.n,
            "j": spec.j,
            "s2": spec.s2,
            "method": cfg["method"],
            "paths": sim_config.paths,
            "seed": sim_config.seed,
            "passed": report.passed,
            "comparisons": records,
        }
        _emit(_render_json(document), cfg["out"])
    else:
        header = list(records[0]) if records else []
        _emit(
            _render_csv(header, [[r[name] for name in header] for r in records]),
            cfg["out"],
        )
    failed = [c for c in report.comparisons if not c.passed]
    print(
        f"verify: {len(oracles)} oracle runs, {len(report.comparisons)} "
        f"comparisons, {len(failed)} failed",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_identities(cfg: dict, corrupt: bool = False) -> int:
    """Identity grids with per-check counts and worst deviations."""
    results = run_identity_suites(corrupt=corrupt)
    header = ["name", "cases", "max_rel_dev", "tol", "passed"]
    rows = [[r.name, r.cases, r.max_rel_dev, r.tol, r.passed] for r in results]
    if cfg["output"] == "json":
        document = {
            "checks": [dict(zip(header, row)) for row in rows],
            "passed": all(r.passed for r in results),
        }
        _emit(_render_json(document), cfg["out"])
    else:
        _emit(_render_csv(header, rows), cfg["out"])
    breaches = [r for r in results if not r.passed]
    worst = max(results, key=lambda r: r.max_rel_dev)
    print(
        f"identities: {len(results)} checks, {len(breaches)} breaches, "
        f"largest deviation {worst.max_rel_dev:.3e} ({worst.name})",
        file=sys.stderr,
    )
    return EXIT_OK if not breaches else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _run(argv) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = _merge_config(ns.command, ns)
    if ns.command == "fixed":
        return cmd_fixed(cfg)
    if ns.command == "moments":
        return cmd_moments(cfg)
    if ns.command == "verify":
        return cmd_verify(cfg)
    return cmd_identities(cfg, corrupt=ns.self_test_corrupt)


def main(argv=None) -> int:
    try:
        return _run(argv)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
