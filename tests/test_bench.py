"""Tests for the near-collision benchmark."""

import math
import warnings

import numpy as np
import pytest

from ksreg import bench
from ksreg.bench import (
    BENCH_CSV_HEADER,
    BenchRow,
    analytic_periapsis,
    run_benchmark,
    seed_state,
    write_bench_csv,
)
from ksreg.invariants import H2, L, XI, eval_generators
from ksreg.ks_map import ks
from ksreg.ode import integrate_ode


class TestSeedFamily:
    def test_seed_sits_on_the_momentum_level(self):
        for l_norm in (1e-1, 1e-2, 1e-3):
            g = eval_generators(seed_state(l_norm))
            assert abs(g[H2] - 1.0) <= 1e-15
            assert abs(g[XI]) <= 1e-15

    def test_seed_angular_momentum_has_the_requested_norm(self):
        for l_norm in (1e-1, 1e-3, 1.0):
            g = eval_generators(seed_state(l_norm))
            norm = math.sqrt(sum(v ** 2 for v in g[L]))
            assert abs(norm - l_norm) <= 1e-15

    def test_seed_image_under_ks(self):
        l_norm = 1e-2
        z = seed_state(l_norm)
        a = z[0]
        c = z[6]
        pt = ks(tuple(z))
        assert np.allclose(pt, (0.0, 0.0, a * a, c / a, 0.0, 0.0), atol=1e-15)

    def test_circular_seed_is_the_unit_norm_case(self):
        assert analytic_periapsis(1.0) == 1.0

    def test_periapsis_shrinks_with_the_norm(self):
        values = [analytic_periapsis(l) for l in (1.0, 1e-1, 1e-2, 1e-3)]
        assert values == sorted(values, reverse=True)
        assert abs(analytic_periapsis(1e-3) - 5e-7) < 1e-7

    def test_out_of_range_norms_are_rejected(self):
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                seed_state(bad)


@pytest.fixture(scope="module")
def rows():
    return run_benchmark(l_values=(1e-1, 1e-3))


class TestBenchmarkRun:
    def test_two_rows_per_grid_value(self, rows):
        assert len(rows) == 4
        assert [r.method for r in rows] == [
            "raw_kepler", "ks_regularized", "raw_kepler", "ks_regularized",
        ]
        assert [r.l_norm for r in rows] == [1e-1, 1e-1, 1e-3, 1e-3]

    def test_raw_integration_fails_near_collision(self, rows):
        by_key = {(r.l_norm, r.method): r for r in rows}
        assert not by_key[(1e-1, "raw_kepler")].failed
        assert by_key[(1e-3, "raw_kepler")].failed

    def test_regularized_integration_never_fails(self, rows):
        for row in rows:
            if row.method == "ks_regularized":
                assert not row.failed
                assert row.max_energy_drift <= 1e-8

    def test_periapsis_is_resolved_where_integration_completes(self, rows):
        for row in rows:
            if not row.failed:
                assert row.periapsis_error <= 1e-6

    def test_step_counts_are_positive(self, rows):
        for row in rows:
            assert row.steps > 0

    def test_a_nan_drift_fails_the_row(self):
        """At |L| = 1e-300, rho = H2 + V1 underflows to 0 at the collision sample."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw, regularized = run_benchmark(l_values=(1e-300,))
        assert raw.failed
        assert math.isnan(regularized.max_energy_drift)
        assert regularized.failed


class TestBlockRuns:
    def test_default_grid_runs_as_two_blocks_with_the_serial_step_counts(self, monkeypatch):
        # The step counts of the rows integrated one at a time: the block
        # run must not change any row's step control.
        runs = []

        def spy(*args, **kwargs):
            runs.append(integrate_ode(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(bench, "integrate_ode", spy)
        rows = run_benchmark()
        assert len(runs) == 2
        assert [r.steps for r in rows] == [454, 69, 747, 69, 456, 69, 440, 69]
        assert sum(r.stats.steps for r in runs) == sum(r.steps for r in rows)


class TestCsvOutput:
    def test_header_and_flag_spelling(self, tmp_path):
        rows = [
            BenchRow(1e-1, "raw", 10, 1e-9, 1e-10, False),
            BenchRow(1e-3, "raw", 99, 1e-4, 1e-3, True),
        ]
        path = tmp_path / "bench.csv"
        write_bench_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == BENCH_CSV_HEADER
        assert lines[0] == "|L|,method,steps,max_energy_drift,periapsis_error,failed"
        assert lines[1].endswith(",false")
        assert lines[2].endswith(",true")

    def test_edge_floats_and_a_true_flag_follow_the_cell_rule(self, tmp_path):
        # Each float as format(v, ".17g"), the int and string as str, the flag as true.
        row = BenchRow(-0.0, "raw_kepler", 3, 5e-324, math.inf, True)
        nan_row = BenchRow(1e-1, "ks_regularized", 70, math.nan, -math.inf, False)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, [row, nan_row])
        assert path.read_text().split("\n")[1:] == [
            "-0,raw_kepler,3,4.9406564584124654e-324,inf,true",
            "0.10000000000000001,ks_regularized,70,nan,-inf,false",
            "",
        ]
        assert "4.9406564584124654e-324" == format(5e-324, ".17g")

    def test_rows_round_trip_through_the_text(self, tmp_path):
        row = BenchRow(1e-2, "ks", 70, 4.05e-10, 3.2e-13, False)
        path = tmp_path / "bench.csv"
        write_bench_csv(path, [row])
        fields = path.read_text().strip().split("\n")[1].split(",")
        assert float(fields[0]) == row.l_norm
        assert fields[1] == "ks"
        assert int(fields[2]) == row.steps
        assert float(fields[3]) == row.max_energy_drift
        assert float(fields[4]) == row.periapsis_error
