"""Acceptance gate: every criterion below prints one pass/fail line.

Each test states its tolerance inline, or reads the named gate that
ksreg.verify applies to the same quantity, and fails loudly when the
bound is missed; nothing here is tuned to the sampled values.
"""

import math
import time

import numpy as np

from ksreg.bench import run_benchmark, write_bench_csv
from ksreg.flows import (
    collision_triple_batch,
    ks_relatedness_harness,
    oscillator_trajectory,
)
from ksreg.invariants import eval_generators
from ksreg.kepler_dynamics import preregularized_hamiltonian, radial_collision_time
from ksreg.ks_map import poisson_residual_xi_sweep
from ksreg.orbit_space import lagrange_identity_check, relation_residuals
from ksreg.quadratic_poisson import verify_so4_relations
from ksreg.sampling import (
    sample_even_integers,
    sample_fractions,
    sample_level_set,
    sample_phase_points,
    sample_xi_zero,
)
from ksreg.verify import (
    FALL_EVENT_BOUND,
    POSITION_BLOCK_BOUND,
    collision_points,
    fall_time_rows,
    passed,
    worst_lagrange,
    worst_poisson,
    worst_pullbacks,
    worst_relations,
)


def _report(number, ok, note=""):
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


class TestAcceptance:
    def test_criterion_1_exact_algebra(self):
        start = time.perf_counter()
        table = verify_so4_relations()
        elapsed = time.perf_counter() - start
        brackets_ok = all(row["match"] for row in table["so4"])
        factors = sorted({row["factor"] for row in table["xi_eta"]})
        for row in table["xi_eta"]:
            print(
                f"  {row['pair']}: computed {row['computed']}, "
                f"documented factor {row['documented_factor']:g}"
            )
        ok = brackets_ok and len(table["so4"]) == 15 and factors == [-2.0, 0.0, 2.0] and elapsed < 1.0
        _report(1, ok, f"{elapsed:.2f}s, split-basis factors {factors}")

    def test_criterion_2_orbit_space_image(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)

        # exact path: 95k even-integer points, residuals in int64
        Zi = sample_even_integers(rng, 95_000, limit=20)
        int_relations, _, _ = worst_relations(Zi)
        int_identities, _ = worst_lagrange(Zi)

        # exact path: 5k rational points through the scalar evaluators
        fraction_exact = True
        for z in sample_fractions(rng, 5_000):
            g = eval_generators(z)
            if any(v != 0 for v in relation_residuals(g).residuals.values()):
                fraction_exact = False
                break
            if any(lhs != rhs for lhs, rhs in lagrange_identity_check(g).values()):
                fraction_exact = False
                break

        # float path: 100k points; relations gated absolutely, the
        # quartic identities relative to their magnitude
        Zf = sample_phase_points(rng, 100_000)
        float_relations, _, _ = worst_relations(Zf)
        _, float_identities = worst_lagrange(Zf)
        elapsed = time.perf_counter() - start
        ok = (
            int_relations == 0
            and int_identities == 0
            and fraction_exact
            and float_relations <= 1e-12
            and passed("lagrange_identities", {"max_relative_gap": float_identities})
            and elapsed < 30.0
        )
        _report(
            2,
            ok,
            f"{elapsed:.1f}s, float residuals {float_relations:.1e} "
            f"relations / {float_identities:.1e} identities",
        )

    def test_criterion_3_pullbacks_on_the_level_set(self):
        rng = np.random.default_rng(3)
        gaps, _ = worst_pullbacks(sample_level_set(rng, 10_000))
        worst_h, worst_j, worst_e, worst_ip = (
            gaps[k] for k in ("hamiltonian", "angular_momentum", "eccentricity", "inner_product")
        )
        ok = worst_h <= 1e-12 and max(worst_j, worst_e, worst_ip) <= 1e-10
        _report(
            3,
            ok,
            f"hamiltonian {worst_h:.1e}, momentum {worst_j:.1e}, "
            f"eccentricity {worst_e:.1e}, inner product {worst_ip:.1e}",
        )

    def test_criterion_4_poisson_property(self):
        rng = np.random.default_rng(4)
        points = sample_xi_zero(rng, 1_000)
        worst, worst_xx = worst_poisson(points)
        _, generic_xx = worst_poisson(sample_phase_points(rng, 50))
        worst_xx = max(worst_xx, generic_xx)
        sweep = poisson_residual_xi_sweep(points[0], np.linspace(-0.5, 0.5, 9))
        for xi, r in sweep:
            print(f"  off-level Xi = {xi:+.4f}: y-y residual {r:.3e}")
        ok = worst <= 1e-10 and worst_xx <= POSITION_BLOCK_BOUND
        _report(4, ok, f"residual {worst:.1e}, position block {worst_xx:.1e}")

    def test_criterion_5_collision_theorem(self):
        rng = np.random.default_rng(5)
        points = collision_points(rng, 500)
        member, falls, _ = collision_triple_batch(points)
        disagreements = int(np.count_nonzero(member != falls))
        _report(5, passed("collision_theorem", {"disagreements": disagreements}),
                f"{len(points)} points, {disagreements} disagreements")

    def test_criterion_6_collision_times(self):
        apex_exact = radial_collision_time(2.0) == math.pi
        unit_value = abs(radial_collision_time(1.0) - (math.pi / 2 - 1)) <= 1e-12
        worst = 0.0
        below_apex = True
        for r0, closed, quad, event in fall_time_rows():
            worst = max(worst, abs(closed - quad), abs(closed - event), abs(quad - event))
            if r0 < 2:
                below_apex = below_apex and closed < math.pi
        ok = apex_exact and unit_value and worst <= FALL_EVENT_BOUND and below_apex
        _report(6, ok, f"three-way agreement within {worst:.1e}")

    def test_criterion_7_flow_relatedness(self):
        start = time.perf_counter()
        seed = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        result = ks_relatedness_harness(seed, 2 * math.pi)
        elapsed = time.perf_counter() - start
        energies = [preregularized_hamiltonian(w) for w in result.integrated]
        energy_drift = max(abs(e - 1.0) for e in energies)
        traj = oscillator_trajectory(seed, np.linspace(0.0, 2 * math.pi, 257))
        chart_drift = max(
            float(np.abs(traj.conserved_log["H2"] - 1.0).max()),
            float(np.abs(traj.conserved_log["Xi"]).max()),
        )
        ok = (
            result.status == "completed"
            and result.max_deviation <= 1e-6
            and energy_drift <= 1e-8
            and chart_drift <= 1e-12
            and elapsed < 5.0
        )
        _report(
            7,
            ok,
            f"{elapsed:.2f}s, deviation {result.max_deviation:.1e}, "
            f"drift {energy_drift:.1e}",
        )

    def test_criterion_8_benchmark_direction(self, tmp_path):
        rows = run_benchmark()
        write_bench_csv(tmp_path / "bench.csv", rows)
        for line in (tmp_path / "bench.csv").read_text().splitlines():
            print("  " + line)
        by_key = {(row.l_norm, row.method): row for row in rows}
        ok = True
        for l_norm in (1e-3, 1e-4):
            ks_row = by_key[(l_norm, "ks_regularized")]
            raw_row = by_key[(l_norm, "raw_kepler")]
            ok = ok and not ks_row.failed and ks_row.max_energy_drift <= 1e-8
            ok = ok and (raw_row.failed or raw_row.periapsis_error > 1e-2)
        _report(8, ok, f"{len(rows)} rows emitted")
