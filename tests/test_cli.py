"""Command-line checks, most run through real subprocesses, and the table renderer."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from annurates import (
    DomainError,
    NumericalFailureError,
    arithmetic_due,
    cli,
    decreasing_due,
    fixed_rate,
    geometric_due,
    increasing_due,
    increasing_squared_due,
    level_due,
    moments,
    stochastic_rate,
)
from annurates.moments import PaymentPlan, _series_columns


def run_cli(*args, **kwargs):
    # bytes mode: text=True would translate the CRLF row endings away
    proc = subprocess.run(
        [sys.executable, "-m", "annurates", *args],
        capture_output=True,
        timeout=120,
        **kwargs,
    )
    proc.stdout = proc.stdout.decode()
    proc.stderr = proc.stderr.decode()
    return proc


def csv_rows(text):
    lines = text.split("\r\n")
    assert lines[-1] == ""
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:-1]]


class TestFixedCommand:
    def test_level_values(self):
        proc = run_cli("fixed", "--j", "0.1", "--n", "3", "--family", "level")
        assert proc.returncode == 0
        header, rows = csv_rows(proc.stdout)
        assert header == ["k", "level"]
        values = [float(r[1]) for r in rows]
        assert values == pytest.approx([1.1, 2.31, 3.641], rel=1e-12)

    def test_zero_rate_increasing(self):
        proc = run_cli("fixed", "--j", "0", "--n", "3", "--family", "increasing")
        _, rows = csv_rows(proc.stdout)
        assert [float(r[1]) for r in rows] == pytest.approx([1.0, 3.0, 6.0])

    def test_geometric_needs_ratio(self):
        proc = run_cli(
            "fixed", "--j", "0.1", "--n", "3",
            "--family", "geometric", "--p", "1", "--q", "1.2",
        )
        _, rows = csv_rows(proc.stdout)
        assert float(rows[2][1]) == pytest.approx(4.367, rel=1e-12)

    def test_all_columns(self):
        proc = run_cli("fixed", "--j", "0.05", "--n", "4", "--family", "all")
        header, rows = csv_rows(proc.stdout)
        assert header == [
            "k", "level", "increasing", "increasing_sq",
            "decreasing", "arithmetic", "geometric",
        ]
        assert len(rows) == 4

    def test_csv_uses_crlf(self):
        proc = run_cli("fixed", "--j", "0.1", "--n", "2")
        assert "\r\n" in proc.stdout

    def test_json_output(self):
        proc = run_cli("fixed", "--j", "0.1", "--n", "2", "--output", "json")
        doc = json.loads(proc.stdout)
        assert doc["j"] == 0.1
        assert doc["rows"][1]["level"] == pytest.approx(2.31, rel=1e-12)


class TestMomentsCommand:
    def test_level_anchor(self):
        proc = run_cli(
            "moments", "--family", "level", "--n", "2",
            "--j", "0.1", "--s2", "0.04", "--output", "json",
        )
        assert proc.returncode == 0
        row = json.loads(proc.stdout)["rows"][1]
        assert row["mean"] == pytest.approx(2.31, rel=1e-10)
        assert row["second_moment"] == pytest.approx(5.5625, rel=1e-10)
        assert row["variance"] == pytest.approx(0.2264, rel=1e-10)

    def test_geometric_anchor(self):
        proc = run_cli(
            "moments", "--family", "geometric", "--p", "1", "--q", "1.2",
            "--n", "2", "--j", "0.1", "--s2", "0.04", "--output", "json",
        )
        row = json.loads(proc.stdout)["rows"][1]
        assert row["mean"] == pytest.approx(2.53, rel=1e-10)
        assert row["variance"] == pytest.approx(0.2616, rel=1e-10)

    def test_zero_variance_rate(self):
        proc = run_cli(
            "moments", "--family", "increasing", "--n", "5",
            "--j", "0.07", "--s2", "0", "--output", "json",
        )
        for row in json.loads(proc.stdout)["rows"]:
            assert row["variance"] == 0.0

    def test_method_both_reports_discrepancy(self):
        proc = run_cli(
            "moments", "--family", "decreasing", "--n", "6",
            "--j", "0.1", "--s2", "0.04", "--method", "both",
        )
        header, rows = csv_rows(proc.stdout)
        assert header[-1] == "max_discrepancy"
        assert all(float(r[-1]) <= 1e-9 for r in rows)

    @pytest.mark.parametrize("method", ["recursive", "closed", "both"])
    @pytest.mark.parametrize("family, j", [("increasing", "0.1"), ("level", "0")])
    def test_one_recursion_per_request(self, method, family, j, monkeypatch, capsys):
        # the closed variances are settled against the recursion, and
        # --method both compares them with that same pass; j = 0 is inside
        # the singular band, whose closed rows come from the recursion too
        calls = []

        def counted(*args):
            calls.append(args)
            return recursion(*args)

        recursion = moments._recursion
        monkeypatch.setattr(moments, "_recursion", counted)
        argv = ["moments", "--family", family, "--n", "6", "--j", j, "--s2", "0.04",
                "--method", method]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("k,mean,")
        assert len(calls) == 1

    def test_json_round_trip_is_exact(self):
        # values printed with 17 significant digits must parse back to
        # the identical doubles the library produced
        from annurates import moment_series, PaymentPlan, stochastic_rate

        proc = run_cli(
            "moments", "--family", "increasing", "--n", "8",
            "--j", "0.1", "--s2", "0.04", "--output", "json",
        )
        series = moment_series(
            PaymentPlan.increasing(8), stochastic_rate(0.1, 0.04), "closed"
        )
        for row in json.loads(proc.stdout)["rows"]:
            k = row["k"]
            assert row["mean"] == series.mean_at(k)
            assert row["second_moment"] == series.second_moment_at(k)
            assert row["variance"] == series.variance_at(k)


class TestVerifyCommand:
    def test_small_run_passes(self):
        proc = run_cli(
            "verify", "--family", "level", "--n", "4", "--j", "0.1",
            "--s2", "0.04", "--paths", "1e4", "--seed", "3",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["passed"] is True
        assert doc["paths"] == 10000
        sources = {c["source"] for c in doc["comparisons"]}
        assert "enumeration" in sources
        assert {"mc-two-point", "mc-uniform", "mc-lognormal"} <= sources

    def test_worker_count_does_not_change_output(self, tmp_path):
        # 2 * 2^14 + 3 paths: three blocks, the last of 3 paths
        args = (
            "verify", "--family", "increasing", "--n", "6", "--j", "0.05",
            "--s2", "0.0025", "--paths", "32771", "--seed", "11",
        )
        reports = []
        for workers in ("1", "2", "5"):
            out = tmp_path / f"w{workers}.json"
            assert run_cli(*args, "--workers", workers, "--out", str(out)).returncode == 0
            reports.append(out.read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("s2", ["1e-8", "1e-10", "1e-14"])
    def test_tiny_rate_variance_passes(self, s2):
        # a variance formed as S2 - n mean^2 from raw power sums cancels here
        # and failed up to 38 of the 80 comparisons
        proc = run_cli(
            "verify", "--family", "level", "--n", "20", "--j", "0.05",
            "--s2", s2, "--paths", "1e5", "--seed", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert "80 comparisons, 0 failed" in proc.stderr

    @pytest.mark.parametrize("payment", ["1000000", "1000000000"])
    def test_large_payments_at_zero_rate_variance_pass(self, payment):
        # every path is the same, but the merged central sums keep roundoff
        # that grows with the payments: judged against an absolute 1e-15,
        # 9 of the 40 comparisons at 1e6 failed
        proc = run_cli(
            "verify", "--family", "arithmetic", "--p", payment, "--q", payment, "--n", "10",
            "--j", "0.05", "--s2", "0", "--paths", "20000", "--seed", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert "40 comparisons, 0 failed" in proc.stderr

    @pytest.mark.parametrize(
        "args, cause",
        [
            (
                # the analytic variance is 1.0e166, but the fourth central sums
                # leave double range: se_variance was NaN, with exit 1
                "--family geometric --p 1 --q 1e12 --n 8 --j 0.05 --s2 0.01 --paths 2000",
                "Monte Carlo (two-point) variance's standard error leaves double range at year 8",
            ),
            (
                # the same in the thread pool, whose workers do not share
                # the caller's numpy error state
                "--family geometric --p 1 --q 1e12 --n 8 --j 0.05 --s2 0.01 --paths 40000"
                " --workers 2",
                "Monte Carlo (two-point) variance's standard error leaves double range at year 8",
            ),
            (
                # the sum of squared balances overflows: oracle_variance was
                # Infinity and var_rel_dev NaN
                "--family arithmetic --p 1e154 --q 2 --n 1 --j 0 --s2 1e-300 --no-strict"
                " --paths 2000",
                "exact enumeration second moment leaves double range at year 1",
            ),
        ],
        ids=["simulate", "simulate-two-workers", "enumerate"],
    )
    def test_oracle_overflow_is_numerical_failure(self, args, cause, capsys):
        # pytest turns a leaked RuntimeWarning into an error
        assert cli.main(["verify", *args.split()]) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numerical failure: {cause}\n"

    def test_single_distribution(self):
        proc = run_cli(
            "verify", "--family", "level", "--n", "3", "--j", "0.1",
            "--s2", "0.04", "--paths", "1e4", "--seed", "5",
            "--distribution", "uniform",
        )
        doc = json.loads(proc.stdout)
        assert {c["source"] for c in doc["comparisons"]} == {"mc-uniform"}

    def test_report_lists_every_field(self):
        proc = run_cli(
            "verify", "--family", "level", "--n", "2", "--j", "0.1",
            "--s2", "0.04", "--paths", "1e4", "--seed", "1",
            "--distribution", "two-point",
        )
        comp = json.loads(proc.stdout)["comparisons"][0]
        expected = {
            "k", "source", "analytic_mean", "oracle_mean", "mean_abs_dev",
            "mean_rel_dev", "analytic_variance", "oracle_variance",
            "var_abs_dev", "var_rel_dev", "mean_se", "mean_z",
            "var_se_rel", "var_ratio", "passed",
        }
        assert expected <= set(comp)


class TestIdentitiesCommand:
    def test_clean_run(self):
        proc = run_cli("identities")
        assert proc.returncode == 0
        header, rows = csv_rows(proc.stdout)
        assert header == ["name", "cases", "max_rel_dev", "tol", "passed"]
        assert all(r[-1] == "true" for r in rows)
        assert len(rows) == 31

    def test_perturbed_formula_fails(self, perturbed_level, capsys):
        assert cli.main(["identities"]) == 1
        out, err = capsys.readouterr()
        _, rows = csv_rows(out)
        assert len(rows) == 31
        assert {r[0] for r in rows if r[-1] == "false"} == {
            "level-evaluators",
            "arithmetic-specializations",
            "geometric-specializations",
        }
        assert "3 breaches" in err

    def test_self_test_flag_is_gone(self):
        proc = run_cli("identities", "--self-test-corrupt")
        assert proc.returncode == 2
        assert "unrecognized arguments: --self-test-corrupt" in proc.stderr


class TestErrorHandling:
    def test_missing_required_flag(self):
        proc = run_cli("fixed", "--n", "3")
        assert proc.returncode == 2
        assert "required" in proc.stderr

    def test_rate_below_minus_one(self):
        proc = run_cli("fixed", "--j", "-1.5", "--n", "3")
        assert proc.returncode == 2

    def test_unsupported_rate_distribution(self):
        # two-point support would cross -1
        proc = run_cli(
            "verify", "--family", "level", "--n", "2", "--j", "0.0",
            "--s2", "1.44", "--paths", "1e3", "--seed", "0",
        )
        assert proc.returncode == 2

    def test_one_path_rejected(self):
        proc = run_cli(
            "verify", "--family", "level", "--n", "3", "--j", "0.05",
            "--s2", "0.01", "--paths", "1", "--seed", "0",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "paths must be at least 2, got 1" in proc.stderr

    def test_extraneous_parameter_rejected(self):
        proc = run_cli(
            "moments", "--family", "level", "--n", "3",
            "--j", "0.1", "--u", "0.05",
        )
        assert proc.returncode == 2

    def test_bad_choice(self):
        proc = run_cli(
            "moments", "--family", "hyperbolic", "--n", "3", "--j", "0.1"
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--family", "level", "--n", "3"), "missing required value --j"),
            (("--family", "level", "--p", "1", "--n", "3", "--j", "0.1"),
             "--p does not apply to family 'level'"),
            (("--family", "growth", "--n", "3", "--j", "0.1"), "family 'growth' requires --u"),
        ],
        ids=["missing-j", "p-for-level", "growth-without-u"],
    )
    def test_plan_options_are_checked(self, args, message):
        proc = run_cli("moments", *args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args, cause",
        [
            (
                ("moments", "--family", "level", "--n", "2000", "--j", "0.3", "--s2", "0.04"),
                "the largest horizon that fits is 1289",
            ),
            (
                (
                    "moments", "--family", "level", "--n", "2000", "--j", "0.3",
                    "--s2", "0.04", "--method", "recursive",
                ),
                "second moment overflows double range at year 1290",
            ),
            (
                # the decreasing column, paying 2000, 1999, ..., leaves
                # double range first
                ("fixed", "--n", "2000", "--j", "0.5"),
                "the largest horizon that fits is 1729",
            ),
            (
                ("fixed", "--n", "1747", "--j", "0.5", "--family", "all"),
                "the largest horizon that fits is 1729",
            ),
            (
                (
                    "moments", "--family", "geometric", "--p", "1", "--q", "1.5",
                    "--n", "2000", "--j", "0.3", "--s2", "0.04",
                ),
                "the largest horizon that fits is 1745",
            ),
            (
                # q defaults to 0, so the column is the level annuity
                ("fixed", "--family", "arithmetic", "--j", "0.5", "--n", "1748"),
                "the largest horizon that fits is 1747",
            ),
            (
                # the recursion's payments 1.5^(i-1) leave double range first
                (
                    "moments", "--family", "geometric", "--p", "1", "--q", "1.5",
                    "--n", "1800", "--j", "0.05", "--method", "recursive",
                ),
                "payment 1.0 * 1.5**1751 overflows double range at year 1752",
            ),
            (
                # the closed second moment left double range as an inf row
                (
                    "moments", "--family", "arithmetic", "--p", "1e154", "--q", "0",
                    "--n", "3", "--j", "0.05",
                ),
                "closed second moment leaves double range at year 2",
            ),
            (
                # ... and, with a rate variance, as fsum's ValueError (inf - inf)
                (
                    "moments", "--family", "arithmetic", "--p", "1e154", "--q", "0",
                    "--n", "3", "--j", "0.05", "--s2", "0.01",
                ),
                "closed second moment leaves double range at year 2",
            ),
        ],
    )
    def test_overflow_is_numerical_failure(self, args, cause):
        proc = run_cli(*args)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: ")
        assert cause in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_derived_rate_out_of_domain_is_numerical_failure(self, capsys):
        # f = (1+j)^2 - 1 rounds to -1: this exited 2, as invalid input
        args = "moments --family arithmetic --p 2 --q 0.5 --n 5 --j -0.9999999999999999 --s2 0"
        assert cli.main(args.split()) == cli.EXIT_NUMERICAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numerical failure: derived rate f = -1.0 is outside (-1, inf) "
            "at j = -0.9999999999999999, s2 = 0.0\n"
        )
        assert cli.main([*args.split(), "--method", "recursive"]) == cli.EXIT_OK


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# moment run\nfamily = level\nn = 3\nj = 0.1\ns2 = 0.04\n")
        proc = run_cli("moments", "--config", str(cfg), "--output", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 3

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = level\nn = 3\nj = 0.1\n")
        proc = run_cli(
            "moments", "--config", str(cfg), "--j", "0.2", "--output", "json"
        )
        assert json.loads(proc.stdout)["j"] == 0.2

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("fixed", "--config", str(tmp_path / "absent.cfg"))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("family = level\nn 3\n", "{cfg}:2: expected key=value, got 'n 3'"),
            ("family = level\nn = 3\nj = 0.1\ncolour = red\n",
             "unknown config key 'colour' for 'moments'"),
            ("family = level\nn = 3\nj = 0.1\nstrict = maybe\n",
             "config key 'strict': expected true/false, got 'maybe'"),
        ],
        ids=["no-equals", "unknown-key", "not-a-bool"],
    )
    def test_invalid_config_line(self, tmp_path, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        proc = run_cli("moments", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message.format(cfg=cfg)}\n"

    def test_config_turns_strict_mode_off(self, tmp_path):
        args = ("moments", "--family", "arithmetic", "--p", "1", "--q", "-0.5", "--n", "5",
                "--j", "0.05")
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: arithmetic payments must stay positive in strict mode "
            "(p=1.0, q=-0.5, n=5); pass strict=False to override\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text("strict = no\n")
        proc = run_cli(*args, "--config", str(cfg))
        assert proc.returncode == 0
        assert len(csv_rows(proc.stdout)[1]) == 5


class TestOutputFile:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "table.csv"
        proc = run_cli(
            "fixed", "--j", "0.1", "--n", "3", "--out", str(target)
        )
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert "wrote report" in proc.stderr
        assert target.read_bytes().count(b"\r\n") == 4


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))


class TestRepeatedCallsInProcess:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_interleaved_calls_match_a_fresh_process(self, tmp_path, capsys, monkeypatch):
        # help text wraps at the terminal width, which COLUMNS fixes
        monkeypatch.setenv("COLUMNS", "80")
        config = tmp_path / "moments.cfg"
        config.write_text("family = increasing\nn = 5\nj = 0.1\ns2 = 0.04\noutput = json\n")
        table = ["fixed", "--j", "0.05", "--n", "6", "--family", "all", "--q", "1.1"]
        calls = [
            table,
            ["moments", "--family", "geometric", "--p", "1", "--q", "1.05", "--n", "6",
             "--j", "0.05", "--s2", "0.01", "--method", "both"],
            ["verify", "--family", "level", "--n", "4", "--j", "0.05", "--s2", "0.01",
             "--paths", "2000", "--seed", "3"],
            ["moments", "--config", str(config)],
            ["fixed", "--j", "0.05", "--n", "6", "--bogus", "1"],
            ["--help"],
            ["moments", "--help"],
            ["moments", "--config", str(config), "--s2", "0.01", "--output", "csv"],
            ["verify", "--family", "level", "--n", "4", "--j", "0.05", "--s2", "0.01",
             "--paths", "2000", "--seed", "3", "--output", "csv"],
            # spellings the schema reader leaves to argparse, next to ones it reads
            ["moments", "--fam", "level", "--n", "5", "--j", "0.05", "--s2", "0.01"],
            ["fixed", "--j", "0.05", "--n=5"],
            ["moments", "--family", "arithmetic", "--p", "1", "--q", "-0.1", "--n", "5",
             "--j", "0.05", "--s2", "0.01", "--no-strict"],
            ["fixed", "--j", "0.05", "--n", "6", "--family", "arithmetic", "--q", "0.5",
             "--no-strict", "--strict", "--no-strict"],
            ["fixed", "--j", "0.05", "--n", "x"],
            table,
        ]
        for argv in calls:
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # --help and argparse errors exit
                code = exc.code
            out, err = capsys.readouterr()
            fresh = run_cli(*argv, env={**os.environ, "COLUMNS": "80"})
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == 0 and out.startswith("k,level,")


_FLAG_VALUES = st.one_of(
    st.sampled_from([
        "1", "0.05", "5", "2e4", "-0.5", "-1e-3", "-.5", "-", "", "1e400", "nan", "level",
        "arithmetic", "closed", "both", "json", "two-point", "x", "level,increasing",
        "all decreasing",
    ]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-5, max_value=500).map(str),
)


@st.composite
def command_lines(draw):
    """argv over one command's flags, in the spellings the reader takes and those it defers."""
    command = draw(st.sampled_from(sorted(cli._SCHEMAS)))
    names = [opt.name for opt in cli._SCHEMAS[command]] + ["config"]
    argv = [command]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        name, value = draw(st.sampled_from(names)), draw(_FLAG_VALUES)
        spelling = draw(st.sampled_from(
            ["pair", "pair", "pair", "equals", "abbreviated", "help", "separator", "bare"]
        ))
        argv += {
            "pair": [f"--{name}", value],
            "equals": [f"--{name}={value}"],
            "abbreviated": [f"--{name[:max(1, len(name) - 2)]}", value],
            "help": [draw(st.sampled_from(["-h", "--help"]))],
            "separator": ["--", value],
            "bare": [draw(st.sampled_from(["--strict", "--no-strict"]))],
        }[spelling]
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        argv.append(f"--{draw(st.sampled_from(names))}")  # a missing trailing value
    return argv


class TestFlagReader:
    """The option-schema flag reader against argparse, which parses whatever it defers."""

    @given(command_lines())
    @settings(max_examples=1000, deadline=None)
    def test_reader_agrees_with_argparse(self, argv):
        flags = cli._reader(argv[0], argv[1:])
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                parsed = vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            assert flags is None, argv
            return
        del parsed["command"]
        assert flags is None or flags == parsed, argv


class TestNumpyFreePath:
    """Which heavy modules a fresh interpreter has loaded after each call.

    pytest's own process has numpy loaded, so each case runs in a new one.
    """

    PRELUDE = (
        "import contextlib, io, json, sys\n"
        "import annurates as a\n"
        "from annurates import cli\n"
        "def main(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(list(argv)) == 0, argv\n"
        "def loaded():\n"
        "    return [name in sys.modules for name in ('numpy', 'concurrent.futures')]\n"
    )
    MOMENTS = "'moments', '--family', 'arithmetic', '--p', '2', '--q', '0.3', '--n', '40', " \
        "'--j', '0.05', '--s2', '0.01', '--method', 'both'"
    VERIFY = "'verify', '--family', 'level', '--n', '4', '--j', '0.05', '--s2', '0.01', " \
        "'--paths', '2e4'"

    def loaded_after(self, body):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-c", self.PRELUDE + body],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_tables_and_point_functions_leave_numpy_unloaded(self):
        body = (
            f"main({self.MOMENTS}, '--output', 'json')\n"
            f"main({self.MOMENTS}, '--output', 'csv')\n"
            "main('fixed', '--n', '30', '--j', '0.07', '--family', 'all', '--q', '0.1')\n"
            "plan = a.PaymentPlan.increasing(10)\n"
            "spec = a.stochastic_rate(0.05, 0.01)\n"
            "a.level_due(10, 0.05)\n"
            "a.mean_closed(plan, spec, 10)\n"
            "a.variance_closed(plan, spec, 10)\n"
            "print(json.dumps(loaded()))\n"
        )
        assert self.loaded_after(body) == [False, False]

    def test_moment_series_returns_numpy_arrays(self):
        body = (
            "import numpy\n"
            "series = a.moment_series(a.PaymentPlan.level(5), a.stochastic_rate(0.05, 0.01))\n"
            "assert isinstance(series.variance, numpy.ndarray)\n"
            "assert all(type(x) is float for x in series.mean.tolist())\n"
            "print(json.dumps(loaded()))\n"
        )
        assert self.loaded_after(body) == [True, False]

    def test_verify_loads_numpy_and_only_workers_load_a_thread_pool(self):
        body = (
            "before = loaded()\n"
            f"main({self.VERIFY})\n"
            "one = loaded()\n"
            f"main({self.VERIFY}, '--workers', '2')\n"
            "print(json.dumps([before, one, loaded()]))\n"
        )
        assert self.loaded_after(body) == [[False, False], [True, False], [True, True]]


# every kind of value a report cell holds, with the floats that format
# differently: signed zeros, the non-finite ones, subnormals and the largest
_FLOAT_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1.7976931348623157e308,
]


class _Float(float):
    pass


_CELLS = {
    "int": st.integers(),
    "bool": st.booleans(),
    "none": st.none(),
    "str": st.text(alphabet=st.sampled_from(',"\r\n% \tab\u00e9'), max_size=6),
    "float": st.one_of(st.floats(), st.sampled_from(_FLOAT_EDGES)),
    "finite": st.floats(allow_nan=False, allow_infinity=False),
    "float subclass": st.floats().map(_Float),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def tables(draw):
    """(header, columns): distinct names, some with %, over equal-length columns."""
    width = draw(st.integers(min_value=1, max_value=5))
    length = draw(st.integers(min_value=0, max_value=6))
    header = draw(st.lists(st.text(alphabet="k%s,_\"", max_size=4), min_size=width,
                           max_size=width, unique=True))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=width, max_size=width))
    columns = [draw(st.lists(_CELLS[kind], min_size=length, max_size=length)) for kind in kinds]
    return header, columns


class TestTableRenderer:
    """The renderer that formats a row with one % call, against the per-cell ones it replaced."""

    @given(tables())
    @settings(max_examples=500, deadline=None)
    def test_csv_matches_the_per_cell_renderer(self, table):
        header, columns = table
        expected = oracles._render_csv(header, list(zip(*columns)))
        assert cli._render_csv(cli._Table(header, columns)) == expected

    @given(tables())
    @settings(max_examples=500, deadline=None)
    def test_json_matches_the_per_cell_renderer(self, table):
        header, columns = table
        rows = [dict(zip(header, row)) for row in zip(*columns)]
        before = {"j": 0.07, "columns": list(header), "family": "level"}
        expected = oracles._render_json({**before, "rows": rows, "u": None})
        document = {**before, "rows": cli._Table(header, columns), "u": None}
        assert cli._render_json(document) == expected


class TestReload:
    """A reloaded table gives back the very floats the command computed."""

    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize(
        "plan, method",
        [
            (PaymentPlan.arithmetic(2.0, 0.3, 60), "closed"),
            (PaymentPlan.geometric(1.0, 1.05, 40), "recursive"),
        ],
    )
    def test_moments(self, plan, method, output, capsys):
        argv = ["moments", "--family", plan.family, "--p", repr(plan.p), "--q", repr(plan.q),
                "--n", str(plan.n), "--j", "0.05", "--s2", "0.0025", "--method", method]
        assert cli.main(argv + ["--output", output]) == 0
        expected = _series_columns(plan, stochastic_rate(0.05, 0.0025), method)[:3]
        expected = [list(map(float.hex, column)) for column in expected]
        assert _reloaded(capsys.readouterr().out, output) == expected

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_fixed(self, output, capsys):
        argv = ["fixed", "--n", "50", "--j", "0.07", "--family", "all", "--p", "1.5", "--q", "1.1"]
        assert cli.main(argv + ["--output", output]) == 0
        kernels = cli._fixed_kernels(fixed_rate(0.07), 50, 1.5, 1.1, 1.1, True)
        expected = [[x.hex() for x in kernels[name](range(1, 51))] for name in cli._FIXED_COLUMNS]
        assert _reloaded(capsys.readouterr().out, output) == expected

    def test_negative_zero_keeps_its_sign(self, capsys):
        assert cli.main(["fixed", "--n", "2", "--j", "-0", "--output", "json"]) == 0
        j = json.loads(capsys.readouterr().out)["j"]
        assert isinstance(j, float) and math.copysign(1.0, j) == -1.0
        argv = ["fixed", "--n", "2", "--j", "0.05", "--family", "geometric", "--p", "-0",
                "--q", "1.5", "--no-strict"]
        for output in ("csv", "json"):
            assert cli.main(argv + ["--output", output]) == 0
            assert _reloaded(capsys.readouterr().out, output) == [[(-0.0).hex()] * 2]


def _reloaded(text, output):
    """The value columns of a report, k left out, as the bits of their floats."""
    if output == "json":
        rows = [list(row.values()) for row in json.loads(text)["rows"]]
    else:
        rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    return [[float(x).hex() for x in column] for column in list(zip(*rows))[1:]]


class TestTablesByColumns:
    """Tables are evaluated a whole column at a time, with the errors of a row-by-row pass."""

    @pytest.mark.parametrize("method", ["closed", "both"])
    @pytest.mark.parametrize(
        "plan", [["arithmetic", "--p", "1", "--q", "0.5"], ["geometric", "--p", "1", "--q", "1.03"]]
    )
    def test_moments_evaluates_only_the_printed_columns(self, plan, method, monkeypatch, capsys):
        evaluated = []
        column = moments._ClosedForms.column

        def recording(self, name, *rows):
            evaluated.append(name)
            return column(self, name, *rows)

        def unprinted(self):
            raise AssertionError("a moments table evaluated the diagonal or cross part")

        monkeypatch.setattr(moments._ClosedForms, "column", recording)
        for name in ("diagonal", "cross"):
            monkeypatch.setattr(moments._ClosedForms, name, property(unprinted))
        argv = ["moments", "--family", *plan, "--n", "40", "--j", "0.05", "--s2", "0.01"]
        assert cli.main(argv + ["--method", method]) == 0
        assert evaluated == ["mean", "second", "variance"]
        assert len(capsys.readouterr().out.splitlines()) == 41

    @pytest.mark.parametrize(
        "columns, p, q",
        [
            # the arithmetic column's strict rule fails at year 1001, before
            # the level column leaves double range at year 1748
            ("level,arithmetic", 1.0, -0.001),
            # the strict rule fails at year 1726, the increasing column
            # leaves double range later
            ("increasing,arithmetic", 1.0, -0.00058),
            # here the increasing column leaves double range first
            ("increasing,arithmetic", 1.0, -0.00056),
            # both strict rules fail at year 1: the left column's error
            ("arithmetic,geometric", -1.0, 0.5),
            # the geometric rule fails at year 1, right of every other column
            ("all", 1.0, -0.5),
        ],
    )
    def test_fixed_error_is_the_first_failing_row(self, columns, p, q, capsys):
        j, n = 0.5, 2000
        argv = ["fixed", "--j", str(j), "--n", str(n), "--family", columns,
                "--p", repr(p), f"--q={q!r}"]
        code = cli.main(argv)
        assert (code, capsys.readouterr().err) == _row_by_row_failure(j, n, columns, p, q)
        assert code in (2, 3)


def _row_by_row_failure(j, n, columns, p, q):
    """The exit code and message of the first year, then column, whose value raises."""
    rate = fixed_rate(j)
    public = {
        "level": lambda k: level_due(k, rate),
        "increasing": lambda k: increasing_due(k, rate),
        "increasing_sq": lambda k: increasing_squared_due(k, rate),
        "decreasing": lambda k: decreasing_due(n, k, rate),
        "arithmetic": lambda k: arithmetic_due(p, q, k, rate),
        "geometric": lambda k: geometric_due(p, q, k, rate),
    }
    names = cli._parse_columns(columns)
    for k in range(1, n + 1):
        for name in names:
            try:
                public[name](k)
            except DomainError as exc:
                return cli.EXIT_INVALID, f"error: {exc}\n"
            except NumericalFailureError as exc:
                return cli.EXIT_NUMERICAL, f"numerical failure: {exc}\n"
    return cli.EXIT_OK, ""
