"""End-to-end command-line checks run through real subprocesses."""

import json
import subprocess
import sys

import pytest


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
        args = (
            "verify", "--family", "increasing", "--n", "6", "--j", "0.05",
            "--s2", "0.0025", "--paths", "2e4", "--seed", "11",
        )
        one = tmp_path / "w1.json"
        three = tmp_path / "w3.json"
        run_cli(*args, "--workers", "1", "--out", str(one))
        run_cli(*args, "--workers", "3", "--out", str(three))
        assert one.read_bytes() == three.read_bytes()

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

    def test_corrupted_formula_fails(self):
        proc = run_cli("identities", "--self-test-corrupt")
        assert proc.returncode == 1
        _, rows = csv_rows(proc.stdout)
        assert any(r[-1] == "false" for r in rows)


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
        ],
    )
    def test_overflow_is_numerical_failure(self, args, cause):
        proc = run_cli(*args)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: ")
        assert cause in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


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
