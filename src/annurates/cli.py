"""Command-line front end: value tables, moment reports, oracle verification.

Four subcommands share one configuration pipeline: built-in defaults are
overridden by a key=value --config file, which is overridden by explicit
flags.  Flags spelled `--name value` are read through the option schema;
argparse builds the help and the usage errors (which raise SystemExit) and
parses every other spelling.  Tables and reports go to stdout (or --out
FILE); diagnostics go to stderr.  Exit codes: 0 success, 1 verification or
identity failure, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

from .errors import DomainError, NumericalFailureError
from .fixed import _arithmetic, _geometric, _increasing_squared
from .identities import _dev, run_identity_suites
from .moments import (
    PaymentPlan,
    _ClosedForms,
    _recursive_columns,
    _series_columns,
    moment_series,
)
from .oracle import (
    ENUMERATION_MAX_HORIZON,
    MomentComparison,
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


def _merge_config(command: str, flags: dict) -> dict:
    """defaults <- config file <- flags (None where unset), then check requiredness."""
    schema = {opt.name: opt for opt in _SCHEMAS[command]}
    merged = {name: opt.default for name, opt in schema.items()}
    provided = set()
    if flags["config"] is not None:
        for key, text in _read_config_file(flags["config"]).items():
            if key not in schema:
                raise _ConfigError(f"unknown config key {key!r} for {command!r}")
            try:
                merged[key] = schema[key].convert(text)
            except ValueError as exc:
                raise _ConfigError(f"config key {key!r}: {exc}") from exc
            provided.add(key)
    for name in schema:
        value = flags[name]
        if value is not None:
            merged[name] = value
            provided.add(name)
    for name, opt in schema.items():
        if opt.required and merged[name] is None:
            raise _ConfigError(f"missing required value --{name}")
    merged["_provided"] = provided
    return merged


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing and _merge_config only read it."""
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
    return parser


@functools.cache
def _flag_spellings(command: str) -> tuple:
    """For _reader: command's flags unset, its valued spellings and its bare ones."""
    valued = {"--config": ("config", str)}
    bare = {}
    for opt in _SCHEMAS[command]:
        if opt.convert is _parse_bool:
            bare.update({f"--{opt.name}": {opt.name: True}, f"--no-{opt.name}": {opt.name: False}})
        else:
            valued[f"--{opt.name}"] = (opt.name, opt.convert)
    return dict.fromkeys(["config", *(opt.name for opt in _SCHEMAS[command])]), valued, bare


def _reader(command, tokens) -> dict | None:
    """argv [command, *tokens] as flags read through the option schema, or None.

    Reads exact `--name value` pairs and bare `--strict` / `--no-strict`, the
    last occurrence winning.  Any other spelling, a value beginning with '-'
    (so every negative number) or one that fails to convert returns None,
    and argparse parses that argv: help, abbreviations, `--name=value`, `--`.
    """
    if type(command) is not str or command not in _SCHEMAS:
        return None
    unset, valued, bare = _flag_spellings(command)
    flags, tokens = dict(unset), iter(tokens)
    for token in tokens:
        if type(token) is not str:
            return None
        if token in bare:
            flags.update(bare[token])
            continue
        name, convert = valued.get(token, (None, None))
        text = next(tokens, None)
        if name is None or type(text) is not str or text.startswith("-"):
            return None
        try:
            flags[name] = convert(text)
        except (TypeError, ValueError):
            return None
    return flags


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


class _Table(NamedTuple):
    """Columns of equal length under distinct header names."""

    header: list
    columns: list


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_fragment(value) -> str:
    """One JSON scalar; floats carry 17 significant digits (bit-exact reload)."""
    if isinstance(value, float):
        if math.isfinite(value):
            text = format(value, ".17g")
            # json reads -0 as the integer 0, which drops the sign
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
    raise TypeError(f"cannot serialize {type(value)!r}")


# what makes the csv module's excel dialect quote a field
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    if _CSV_SPECIAL.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _conversion(column, output: str) -> tuple:
    """The % conversion of one column, and the values it formats.

    Exact ints and floats are formatted by % itself; any other column is
    rendered cell by cell first and formatted with %s.
    """
    kinds = set(map(type, column))
    if kinds == {int}:
        return "%d", column
    if kinds == {float}:
        if output == "csv":
            return "%r", column
        # %.17g writes a negative zero as -0; the membership test keeps a
        # column without zeros at C speed
        if all(map(math.isfinite, column)) and (
            0.0 not in column or all(math.copysign(1.0, x) > 0.0 for x in column if not x)
        ):
            return "%.17g", column
    if output == "json":
        return "%s", list(map(_json_fragment, column))
    return "%s", [_csv_field(_cell(value)) for value in column]


def _table_rows(table: _Table, output: str):
    """Each row of table as text, from one % call on a template built once."""
    conversions, columns = [], []
    for column in table.columns:
        conversion, values = _conversion(column, output)
        conversions.append(conversion)
        columns.append(values)
    if output == "json":
        # a % in a header name is literal text of the template
        keys = [json.dumps(name).replace("%", "%%") for name in table.header]
        items = (f"{key}: {conversion}" for key, conversion in zip(keys, conversions))
        template = "    {" + ", ".join(items) + "}"
    else:
        template = ",".join(conversions) + "\r\n"
    return map(template.__mod__, zip(*columns))


def _render_csv(table: _Table) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerow(table.header)  # excel dialect: CRLF rows, minimal quoting
    rows = _table_rows(table, "csv")
    if len(table.columns) == 1:
        # the csv module writes a row of one empty field as "", not as an empty line
        rows = ('""\r\n' if row == "\r\n" else row for row in rows)
    return buffer.getvalue() + "".join(rows)


def _render_json(document: dict) -> str:
    lines = []
    for key, value in document.items():
        if isinstance(value, _Table):
            body = ",\n".join(_table_rows(value, "json"))
        elif isinstance(value, list):
            body = ",\n".join("    " + _json_fragment(item) for item in value)
        else:
            lines.append(f"  {json.dumps(key)}: {_json_fragment(value)}")
            continue
        lines.append(f"  {json.dumps(key)}: [\n{body}\n  ]")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _emit(cfg: dict, table: _Table, document: dict) -> None:
    """The report in cfg's format, CSV of table or JSON of document, to stdout or cfg's --out."""
    text = _render_json(document) if cfg["output"] == "json" else _render_csv(table)
    out_path = cfg["out"]
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
    if family in ("arithmetic", "geometric"):
        _reject_extraneous(cfg, ("p", "q"), family)
        p = 1.0 if cfg["p"] is None else cfg["p"]
        level = 1.0 if family == "geometric" else 0.0  # the step or ratio of level payments
        q = level if cfg["q"] is None else cfg["q"]
        return PaymentPlan(family, p, q, n, strict)
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


def _fixed_kernels(rate, n: int, p: float, q_arith: float, q_geom: float, strict: bool) -> dict:
    """Each column's accumulator in mode "auto", built once per table, as a function of years."""
    return {
        "level": _arithmetic(1.0, 0.0, rate, "auto", False),
        "increasing": _arithmetic(1.0, 1.0, rate, "auto", False),
        "increasing_sq": _increasing_squared(rate, "auto"),
        "decreasing": _arithmetic(n, -1.0, rate, "auto", False),
        "arithmetic": _arithmetic(p, q_arith, rate, "auto", strict),
        "geometric": _geometric(p, q_geom, rate, "auto", strict),
    }


def cmd_fixed(cfg: dict) -> int:
    """Per-year table of fixed-rate accumulated values."""
    rate = fixed_rate(cfg["j"])
    n = cfg["n"]
    columns = cfg["family"]
    q_arith = 0.0 if cfg["q"] is None else cfg["q"]
    q_geom = 1.0 if cfg["q"] is None else cfg["q"]
    kernels = _fixed_kernels(rate, n, cfg["p"], q_arith, q_geom, cfg["strict"])
    ks = range(1, n + 1)
    try:
        values = [kernels[name](ks) for name in columns]
    except (DomainError, NumericalFailureError):
        # row by row, so the first year, then the first column, to fail decides the error
        for k in ks:
            for name in columns:
                kernels[name]((k,))
        raise
    table = _Table(["k", *columns], [ks, *values])
    _emit(cfg, table, {"j": cfg["j"], "n": n, "columns": list(columns), "rows": table})
    return EXIT_OK


def cmd_moments(cfg: dict) -> int:
    """Per-year analytic moment table under a random annual rate."""
    plan = _build_plan(cfg)
    spec = stochastic_rate(cfg["j"], cfg["s2"])
    method = cfg["method"]
    header = ["k", "mean", "second_moment", "variance"]
    # the three printed columns as Python floats; diagonal and cross parts are not evaluated
    if method != "both":
        columns = [range(1, plan.n + 1), *_series_columns(plan, spec, method, parts=3)]
    else:
        closed = _ClosedForms(plan, spec, plan.n)
        columns = [range(1, plan.n + 1), *closed.series(parts=3)]
        # the recursion the closed variances are settled against, run once
        other = _recursive_columns(closed.ref, 3)
        header.append("max_discrepancy")
        rows = zip(zip(*columns[1:]), zip(*other))
        columns.append([max(map(_dev, row, ref)) for row, ref in rows])
    table = _Table(header, columns)
    document = {
        "family": cfg["family"],
        "p": plan.p,
        "q": plan.q,
        "n": plan.n,
        "j": cfg["j"],
        "s2": cfg["s2"],
        "method": method,
        "rows": table,
    }
    if cfg["family"] == "growth":
        document["u"] = cfg["u"]
    _emit(cfg, table, document)
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    """Analytic moments against exact enumeration and Monte Carlo."""
    plan = _build_plan(cfg)
    spec = stochastic_rate(cfg["j"], cfg["s2"])
    kinds = _DISTRIBUTIONS if cfg["distribution"] == "all" else (cfg["distribution"],)
    # constructing the distributions and the simulation size validates rate
    # support and path count before any work
    distributions = [
        RateDistribution(kind=kind, j=spec.j, s2=spec.s2) for kind in kinds
    ]
    sim_config = SimConfig(paths=cfg["paths"], seed=cfg["seed"], workers=cfg["workers"])
    analytic = moment_series(plan, spec, cfg["method"])
    oracles = []
    if "two-point" in kinds and plan.n <= ENUMERATION_MAX_HORIZON:
        oracles.append(enumerate_series(plan, spec, plan.n))
    for distribution in distributions:
        oracles.append(simulate(plan, distribution, sim_config, plan.n))
    report = compare(analytic, oracles)
    header = [field.name for field in fields(MomentComparison)]
    table = _Table(header, [[getattr(c, name) for c in report.comparisons] for name in header])
    # worker count and timing are excluded: reports with the same seed must
    # be byte-identical however the work was split
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
        "comparisons": table,
    }
    _emit(cfg, table, document)
    failed = [c for c in report.comparisons if not c.passed]
    print(
        f"verify: {len(oracles)} oracle runs, {len(report.comparisons)} "
        f"comparisons, {len(failed)} failed",
        file=sys.stderr,
    )
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def cmd_identities(cfg: dict) -> int:
    """Identity grids with per-check counts and worst deviations."""
    results = run_identity_suites()
    header = ["name", "cases", "max_rel_dev", "tol", "passed"]
    table = _Table(header, [[getattr(r, name) for r in results] for name in header])
    _emit(cfg, table, {"checks": table, "passed": all(r.passed for r in results)})
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


_COMMANDS = {
    "fixed": cmd_fixed,
    "moments": cmd_moments,
    "verify": cmd_verify,
    "identities": cmd_identities,
}


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    flags = _reader(command, argv[1:])
    if flags is None:
        ns = _build_parser().parse_args(argv)
        command, flags = ns.command, vars(ns)
    return _COMMANDS[command](_merge_config(command, flags))


def main(argv=None) -> int:
    try:
        return _run(argv)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (_ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
