"""Tests for the command line interface."""

import ast
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import ksreg
from ksreg import verify
from ksreg.bench import BenchRow
from ksreg.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _same_field(cell: str, value) -> bool:
    """Whether a CSV cell holds the value its JSON twin parses to."""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, float):
        return float(cell) == value or (math.isnan(value) and math.isnan(float(cell)))
    return cell == str(value)


def _csv_and_json(runner, tmp_path, args):
    """The header and rows of args run with --format csv, and the JSON of the same run."""
    for fmt in ("csv", "json"):
        result = runner.invoke(main, args + ["--format", fmt, "--out", str(tmp_path / fmt)])
        assert result.exit_code == 0, result.output
    header, *lines = (tmp_path / "csv").read_text().splitlines()
    return header.split(","), [line.split(",") for line in lines], json.loads(
        (tmp_path / "json").read_text())


class TestVerify:
    def test_default_run_passes(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["verify", "--samples", "100", "--out", str(out)]
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert "pass" in result.output

    def test_the_suites_in_order_with_their_details_keys(self, runner, tmp_path):
        # perfbench's verify check reads max_residual and max_gaps.
        out = tmp_path / "report.json"
        runner.invoke(main, ["verify", "--samples", "20", "--out", str(out)])
        suites = json.loads(out.read_text())["suites"]
        assert [(s["name"], sorted(s["details"])) for s in suites] == [
            ("so4_relations", ["brackets_checked", "mismatched_brackets", "split_basis_factors"]),
            ("orbit_relations", ["max_residual", "min_h2", "min_wedge_gap"]),
            ("lagrange_identities", ["max_relative_gap", "max_residual"]),
            ("pullbacks", ["generator_form_gap", "max_gaps"]),
            ("poisson_matrix",
             ["max_position_block_residual", "max_residual", "off_level_sweep", "points"]),
            ("collision_theorem", ["disagreements", "points"]),
            ("fall_times", ["apex_value_exact", "below_apex_bound", "grid", "max_event_gap",
                            "max_quadrature_gap"]),
        ]
        pullbacks = next(s for s in suites if s["name"] == "pullbacks")
        assert sorted(pullbacks["details"]["max_gaps"]) == [
            "angular_momentum", "eccentricity", "hamiltonian", "inner_product",
        ]

    def test_zero_tolerance_fails_the_float_suites(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "RESIDUAL_BOUND", 0.0)
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["verify", "--samples", "50", "--out", str(out)])
        assert result.exit_code == 1
        report = json.loads(out.read_text())
        assert report["passed"] is False
        by_name = {s["name"]: s["passed"] for s in report["suites"]}
        assert by_name["so4_relations"] is True
        assert by_name["orbit_relations"] is False
        assert by_name["pullbacks"] is False

    def test_bad_flags_are_usage_errors(self, runner):
        assert runner.invoke(main, ["verify", "--samples", "0"]).exit_code == 2
        result = runner.invoke(main, ["verify", "--tolerance", "1e-10"])
        assert result.exit_code == 2 and "No such option" in result.output
        assert runner.invoke(main, ["verify", "--seed", "-1"]).exit_code == 2

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

    def test_report_keys_of_a_completed_and_an_event_run(self, runner, tmp_path):
        # The keys perfbench's orbit check reads; collision_time only on an event.
        keys = {"state", "t_max", "max_deviation", "integrator_stats", "status", "files"}
        for state, status, extra in (("1,0,0,0,0,0,1,0", "completed", set()),
                                     ("1,0,0,0,1,0,0,0", "event", {"collision_time"})):
            out = tmp_path / status
            result = runner.invoke(
                main, ["orbit", "--state", state, "--t-max", "3", "--out-dir", str(out)]
            )
            assert result.exit_code == 0
            report = json.loads((out / "orbit_report.json").read_text())
            assert report["status"] == status
            assert set(report) == keys | extra
            assert set(report["integrator_stats"]) == {"steps", "rejected_steps",
                                                       "rhs_evaluations"}

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
        for state in ("a,b,c,d,e,f,g,h", "1,0,0,0,0,0,1,0,", "1,0,0,0,,0,0,1,0", ""):
            result = runner.invoke(main, ["orbit", "--state", state])
            assert result.exit_code == 2
            assert "--state must be a comma-separated list of numbers" in result.output
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

    def test_csv_and_json_give_the_same_rows(self, runner, tmp_path):
        header, rows, records = _csv_and_json(runner, tmp_path, ["bench", "--grid", "1e-1,1e-5"])
        assert header == ["|L|", "method", "steps", "max_energy_drift", "periapsis_error", "failed"]
        names = [f.name for f in dataclasses.fields(BenchRow)]
        assert len(rows) == len(records) == 4
        assert [r["failed"] for r in records] == [False, False, True, False]
        for row, record in zip(rows, records):
            assert len(row) == len(names) == len(record)
            assert all(_same_field(row[c], record[n]) for c, n in enumerate(names)), (row, record)

    def test_bad_grids_are_usage_errors(self, runner, tmp_path):
        assert runner.invoke(main, ["bench", "--grid", "2.0"]).exit_code == 2
        for grid in ("", "x", "1e-1,,1e-2", "1e-1,", ",1e-1", " "):
            result = runner.invoke(main, ["bench", "--grid", grid, "--out", str(tmp_path / "b")])
            assert result.exit_code == 2
            assert "--grid must be a comma-separated list of numbers" in result.output
        assert not (tmp_path / "b").exists()
        result = runner.invoke(main, ["bench", "--grid", "1e-1", "--tolerance", "1e-10"])
        assert result.exit_code == 2 and "No such option" in result.output


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

    def test_csv_and_json_give_the_same_rows(self, runner, tmp_path):
        header, rows, audit = _csv_and_json(runner, tmp_path, ["table"])
        assert header == ["field", "component", "transcribed", "regenerated", "match"]
        assert len(rows) == len(audit["rows"]) == 126
        for row, record in zip(rows, audit["rows"]):
            assert len(row) == len(header) and sorted(record) == sorted(header)
            assert all(_same_field(cell, record[k]) for cell, k in zip(row, header)), (row, record)

    # The audit's bytes in each format, pinned so that a change to the
    # exact bracket and decompose engine cannot alter a row unseen.
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "690d4660bb5102d182142dd6f014a653955787a496f3bf032d0c3e1158352098"),
        ("csv", "fab243c1edbeea6a2cc5af1101410510d936f480c13111135859ce38072c4468"),
    ])
    def test_audit_bytes_are_pinned(self, runner, tmp_path, fmt, digest):
        out = tmp_path / f"audit.{fmt}"
        result = runner.invoke(main, ["table", "--format", fmt, "--out", str(out)])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _opens(node) -> list:
    """The calls to open or to an .open method under an AST node."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "open"]


class TestWriters:
    def test_only_the_json_and_csv_writers_open_a_file(self):
        # Every file a command writes goes through cli._write_json or
        # kepler_dynamics.write_csv.
        openers = []
        for path in sorted(pathlib.Path(ksreg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            found = [(path.stem, fn.name) for fn in tree.body
                     if isinstance(fn, ast.FunctionDef) for _ in _opens(fn)]
            assert len(found) == len(_opens(tree)), f"an open outside a function in {path}"
            openers += found
        assert openers == [("cli", "_write_json"), ("kepler_dynamics", "write_csv")]


class TestJsonFiles:
    # Every JSON file a command writes is json.dumps' text of what it
    # parses to, with indent 2 and sorted keys, and one final newline.
    @pytest.mark.parametrize("args, name", [
        (["verify", "--samples", "20", "--out"], "verify_report.json"),
        (["orbit", "--t-max", "3", "--samples", "16", "--out-dir"], "orbit_report.json"),
        (["bench", "--grid", "1e-1", "--format", "json", "--out"], "bench.json"),
        (["table", "--out"], "table_audit.json"),
    ])
    def test_a_json_file_is_its_canonical_text(self, runner, tmp_path, args, name):
        out = tmp_path / name
        target = tmp_path if args[-1] == "--out-dir" else out
        result = runner.invoke(main, args + [str(target)])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestOutDirectories:
    # Each command creates the missing directories above its --out before
    # it runs, and writes there the bytes it writes into an existing one.
    @pytest.mark.parametrize("args, name", [
        (["verify", "--samples", "20"], "verify_report.json"),
        (["bench", "--grid", "1e-1"], "bench.csv"),
        (["table"], "table_audit.json"),
        (["table", "--format", "csv"], "table_audit.csv"),
    ])
    def test_out_in_a_missing_directory(self, runner, tmp_path, args, name):
        existing = tmp_path / name
        nested = tmp_path / "new" / "sub" / name
        for out in (existing, nested):
            result = runner.invoke(main, args + ["--out", str(out)])
            assert result.exit_code == 0, result.output
        assert nested.read_bytes() == existing.read_bytes()

    @pytest.mark.parametrize("args", [
        ["verify", "--samples", "20", "--out"], ["bench", "--grid", "1e-1", "--out"],
        ["table", "--out"], ["orbit", "--t-max", "3", "--samples", "16", "--out-dir"]])
    def test_output_under_a_file_is_a_usage_error(self, runner, tmp_path, args):
        (tmp_path / "file").write_text("")
        result = runner.invoke(main, args + [str(tmp_path / "file" / "out")])
        assert result.exit_code == 2
        assert f"cannot create the directory of {args[-1]}" in result.output

    @pytest.mark.parametrize("args", [
        ["verify", "--samples", "20"], ["bench", "--grid", "1e-1"], ["table"]])
    def test_out_naming_a_directory_is_a_usage_error(self, runner, tmp_path, args):
        # Refused before the run: no report is written.
        result = runner.invoke(main, args + ["--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "--out" in result.output
        assert "written to" not in result.output


def _fresh_python(probe: str, cwd=None) -> str:
    """The stdout of probe run in a new interpreter that imports this ksreg."""
    src = os.path.dirname(os.path.dirname(ksreg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


class TestImport:
    def test_cli_import_leaves_scipy_integrate_unloaded(self):
        # scipy.integrate would cost most of the import time of the package;
        # no ksreg module imports it.
        probe = "import sys, ksreg.cli; print('scipy.integrate' in sys.modules)"
        assert _fresh_python(probe).strip() == "False"

    def test_ks_map_import_leaves_quadratic_poisson_unloaded(self):
        # The Jacobian table reads invariants' Hessian rule, not the bracket engine.
        probe = "import sys, ksreg.ks_map; print('ksreg.quadratic_poisson' in sys.modules)"
        assert _fresh_python(probe).strip() == "False"

    def test_a_non_integral_ks_row_fails_the_import(self):
        probe = (
            "from ksreg import invariants\n"
            "v2 = invariants.GEN_MONOMIALS['V2']\n"
            "invariants.GEN_MONOMIALS['V2'] = tuple((c / 2, i, j) for c, i, j in v2)\n"
            "try:\n"
            "    import ksreg.ks_map\n"
            "except ValueError as error:\n"
            "    print('non-integral coefficient' in str(error))"
        )
        assert _fresh_python(probe).strip() == "True"

    def test_verify_run_leaves_scipy_integrate_unloaded(self, tmp_path):
        # The fall quadrature is a stdlib rule; loading scipy.integrate
        # would double the peak memory of a verify run.
        probe = (
            "import sys\n"
            "from ksreg.cli import main\n"
            "main(['verify', '--samples', '50', '--out', 'report.json'], standalone_mode=False)\n"
            "print('scipy.integrate' in sys.modules)"
        )
        lines = _fresh_python(probe, cwd=tmp_path).splitlines()
        assert lines[-2:] == ["report written to report.json", "False"]

    def test_every_command_runs_without_scipy(self, tmp_path):
        # numpy and click are the whole runtime: with scipy unimportable,
        # each command exits as it does with it.
        probe = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ksreg.cli import main\n"
            "codes = []\n"
            "for args in (['verify', '--samples', '50'], ['orbit', '--out-dir', 'default'],\n"
            "             ['orbit', '--state', '1,0,0,0,1,0,0,0', '--out-dir', 'collision'],\n"
            "             ['bench'], ['table']):\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit as stop:\n"
            "        codes.append(stop.code)\n"
            "print(codes)"
        )
        (tmp_path / "default").mkdir()
        (tmp_path / "collision").mkdir()
        lines = _fresh_python(probe, cwd=tmp_path).splitlines()
        assert lines[-1] == "[0, 0, 0, 0, 0]"
