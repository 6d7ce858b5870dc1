"""Tests for the command line interface."""

import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import ksreg
from ksreg.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


class TestVerify:
    def test_default_run_passes(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--samples", "100", "--out", str(out)]
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = [s["name"] for s in report["suites"]]
        assert names == [
            "so4_relations",
            "orbit_relations",
            "lagrange_identities",
            "pullbacks",
            "poisson_matrix",
            "collision_theorem",
            "fall_times",
        ]
        assert "pass" in result.output

    def test_zero_tolerance_fails_the_float_suites(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--samples", "50", "--tolerance", "0", "--out", str(out)]
        )
        assert result.exit_code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        by_name = {s["name"]: s["passed"] for s in report["suites"]}
        assert by_name["so4_relations"] is True
        assert by_name["orbit_relations"] is False
        assert by_name["pullbacks"] is False

    def test_bad_flags_are_usage_errors(self, runner):
        assert runner.invoke(main, ["verify", "--samples", "0"]).exit_code == 2
        assert runner.invoke(main, ["verify", "--tolerance", "-1"]).exit_code == 2
        assert runner.invoke(main, ["verify", "--tolerance", "nan"]).exit_code == 2

    def test_reports_are_deterministic_per_seed(self, runner, tmp_path):
        texts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["verify", "--samples", "60", "--seed", "3", "--out", str(out)],
            )
            assert result.exit_code == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_split_basis_factors_are_reported_not_gated(self, runner, tmp_path):
        out = tmp_path / "report.json"
        runner.invoke(main, ["verify", "--samples", "10", "--out", str(out)])
        report = json.loads(out.read_text())
        so4 = next(s for s in report["suites"] if s["name"] == "so4_relations")
        factors = so4["details"]["split_basis_factors"]
        assert so4["passed"] is True
        assert any(row["matches_documented"] is False for row in factors)
        assert {row["factor"] for row in factors} == {2.0, -2.0, 0.0}


class TestOrbit:
    def test_circular_seed_writes_all_outputs(self, runner, tmp_path):
        result = runner.invoke(main, ["orbit", "--out-dir", str(tmp_path)])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "orbit_report.json").read_text())
        assert report["status"] == "completed"
        assert report["max_deviation"] < 1e-6
        assert "collision_time" not in report
        first = (tmp_path / "oscillator.csv").read_text().split("\n")
        assert first[0] == "t,q1,q2,q3,q4,p1,p2,p3,p4,H2,Xi"
        image = (tmp_path / "ks_image.csv").read_text().split("\n")
        assert image[0].startswith("t,x1,x2,x3,y1,y2,y3,energy")
        assert (tmp_path / "kepler_integrated.csv").exists()

    def test_collision_seed_reports_the_collapse(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "orbit",
                "--state", "1,0,0,0,1,0,0,0",
                "--t-max", "3.0",
                "--out-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 0
        report = json.loads((tmp_path / "orbit_report.json").read_text())
        assert report["status"] == "event"
        assert abs(report["collision_time"] - (3 * math.pi / 2 + 1)) < 1e-9
        assert "collision" in result.output

    def test_the_three_csvs_share_one_time_grid(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "orbit",
                "--state", "1,0,0,0,1,0,0,0",
                "--t-max", "3",
                "--samples", "16",
                "--out-dir", str(tmp_path),
            ],
        )
        assert result.exit_code == 0
        columns = [
            [line.split(",")[0] for line in
             (tmp_path / f"{name}.csv").read_text().splitlines()[1:]]
            for name in ("oscillator", "ks_image", "kepler_integrated")
        ]
        assert columns[0] == columns[1] == columns[2]
        assert float(columns[0][0]) == 0.0
        assert float(columns[0][-1]) < 3.0

    def test_malformed_and_off_level_states_are_usage_errors(self, runner):
        assert runner.invoke(main, ["orbit", "--state", "1,2,3"]).exit_code == 2
        assert runner.invoke(main, ["orbit", "--state", "a,b,c,d,e,f,g,h"]).exit_code == 2
        assert runner.invoke(main, ["orbit", "--state", "1,1,1,1,0,0,0,0"]).exit_code == 2
        assert runner.invoke(main, ["orbit", "--samples", "1"]).exit_code == 2
        assert runner.invoke(main, ["orbit", "--state", "nan,0,0,0,0,0,1,0"]).exit_code == 2
        for t_max in ("inf", "nan"):
            assert runner.invoke(main, ["orbit", "--t-max", t_max]).exit_code == 2


class TestBench:
    def test_small_grid_shows_the_contrast(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        result = runner.invoke(
            main, ["bench", "--grid", "1e-1,1e-3", "--out", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "|L|,method,steps,max_energy_drift,periapsis_error,failed"
        assert len(lines) == 5
        assert "FAILED" in result.output
        assert "ks_regularized" in result.output

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "bench.json"
        result = runner.invoke(
            main,
            ["bench", "--grid", "1e-1", "--format", "json", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = json.loads(out.read_text())
        assert [r["method"] for r in rows] == ["raw_kepler", "ks_regularized"]
        assert all(r["failed"] is False for r in rows)

    def test_bad_grids_are_usage_errors(self, runner):
        assert runner.invoke(main, ["bench", "--grid", ""]).exit_code == 2
        assert runner.invoke(main, ["bench", "--grid", "2.0"]).exit_code == 2
        assert runner.invoke(main, ["bench", "--grid", "x"]).exit_code == 2
        for tol in ("-1", "0", "nan"):
            args = ["bench", "--grid", "1e-1", "--tolerance", tol]
            assert runner.invoke(main, args).exit_code == 2


class TestTable:
    def test_json_audit_counts_the_known_mismatches(self, runner, tmp_path):
        out = tmp_path / "audit.json"
        result = runner.invoke(main, ["table", "--out", str(out)])
        assert result.exit_code == 0
        audit = json.loads(out.read_text())
        assert audit["row_count"] == 126
        assert audit["mismatch_count"] == 23
        assert "23 transcription mismatches" in result.output

    def test_csv_audit_lists_every_component(self, runner, tmp_path):
        out = tmp_path / "audit.csv"
        result = runner.invoke(
            main, ["table", "--format", "csv", "--out", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "field,component,transcribed,regenerated,match"
        assert len(lines) == 127
        assert sum(1 for line in lines if line.endswith(",false")) == 23


class TestImport:
    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        # scipy.integrate costs most of the import time of the package and
        # only the quadrature and Sundman time use it.
        src = os.path.dirname(os.path.dirname(ksreg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        probe = "import sys, ksreg.cli; print('scipy.integrate' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
