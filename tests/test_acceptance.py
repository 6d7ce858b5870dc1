"""Acceptance gate: every criterion below prints one pass/fail line.

Each test states its tolerance inline and fails loudly when the bound
is missed; nothing here is tuned to the sampled values.
"""

import math
import time

import numpy as np

from ksreg.bench import run_benchmark
from ksreg.flows import (
    collision_triple_batch,
    ks_relatedness_harness,
    oscillator_trajectory,
)
from ksreg.invariants import eval_generators, eval_generators_batch
from ksreg.kepler_dynamics import (
    RadialState,
    preregularized_hamiltonian,
    radial_collision_time,
    radial_collision_time_quadrature,
    radial_ode_rhs,
)
from ksreg.ks_map import (
    poisson_residual_batch,
    poisson_residual_xi_sweep,
    pullback_gaps_batch,
)
from ksreg.ode import integrate_ode
from ksreg.orbit_space import (
    lagrange_identity_check,
    relation_residuals,
    relation_residuals_batch,
)
from ksreg.quadratic_poisson import verify_so4_relations
from ksreg.sampling import (
    sample_collision_slice,
    sample_even_integers,
    sample_fractions,
    sample_level_set,
    sample_phase_points,
    sample_xi_zero,
)

FALL_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)


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
        Gi = eval_generators_batch(Zi)
        res, _, _ = relation_residuals_batch(Gi)
        int_relations_exact = all((v == 0).all() for v in res.values())
        K, L = Gi[:, 0:3], Gi[:, 3:6]
        H2, Xi = Gi[:, 6], Gi[:, 7]
        U, V = Gi[:, 8:12], Gi[:, 12:16]
        wedge = np.zeros(len(Gi), dtype=np.int64)
        for i in range(4):
            for j in range(i + 1, 4):
                w = U[:, i] * V[:, j] - U[:, j] * V[:, i]
                wedge += w * w
        uv = np.sum(U * V, axis=1)
        int_identities_exact = (
            np.array_equal(wedge + uv * uv, np.sum(U * U, 1) * np.sum(V * V, 1))
            and np.array_equal(np.sum(K * K, 1) + np.sum(L * L, 1), H2 * H2 + Xi * Xi)
            and np.array_equal(np.sum(K * L, 1), Xi * H2)
        )

        # exact path: 5k rational points through the scalar evaluators
        fraction_exact = True
        for z in sample_fractions(rng, 5_000):
            g = eval_generators(z)
            if relation_residuals(g).max_abs_residual() != 0:
                fraction_exact = False
                break
            if any(lhs != rhs for lhs, rhs in lagrange_identity_check(g).values()):
                fraction_exact = False
                break

        # float path: 100k points; relations gated absolutely, the
        # quartic identities relative to their magnitude
        Zf = sample_phase_points(rng, 100_000)
        Gf = eval_generators_batch(Zf)
        resf, _, _ = relation_residuals_batch(Gf)
        float_relations = max(float(np.abs(v).max()) for v in resf.values())
        Kf, Lf = Gf[:, 0:3], Gf[:, 3:6]
        H2f, Xif = Gf[:, 6], Gf[:, 7]
        Uf, Vf = Gf[:, 8:12], Gf[:, 12:16]
        wedgef = np.zeros(len(Gf))
        for i in range(4):
            for j in range(i + 1, 4):
                w = Uf[:, i] * Vf[:, j] - Uf[:, j] * Vf[:, i]
                wedgef += w * w
        uvf = np.sum(Uf * Vf, axis=1)
        pairs = [
            (wedgef + uvf * uvf, np.sum(Uf * Uf, 1) * np.sum(Vf * Vf, 1)),
            (np.sum(Kf * Kf, 1) + np.sum(Lf * Lf, 1), H2f * H2f + Xif * Xif),
            (np.sum(Kf * Lf, 1), Xif * H2f),
        ]
        float_identities = max(
            float((np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).max())
            for lhs, rhs in pairs
        )
        elapsed = time.perf_counter() - start
        ok = (
            int_relations_exact
            and int_identities_exact
            and fraction_exact
            and float_relations <= 1e-12
            and float_identities <= 1e-12
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
        gaps = pullback_gaps_batch(sample_level_set(rng, 10_000))
        worst_h = float(gaps["hamiltonian"].max())
        worst_j = float(gaps["angular_momentum"].max())
        worst_e = float(gaps["eccentricity"].max())
        worst_ip = float(gaps["inner_product"].max())
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
        res = np.abs(poisson_residual_batch(points))
        worst = float(res.max())
        worst_xx = float(res[:, :3, :3].max())
        generic = np.abs(poisson_residual_batch(sample_phase_points(rng, 50)))
        worst_xx = max(worst_xx, float(generic[:, :3, :3].max()))
        sweep = poisson_residual_xi_sweep(points[0], np.linspace(-0.5, 0.5, 9))
        for xi, r in sweep:
            print(f"  off-level Xi = {xi:+.4f}: y-y residual {r:.3e}")
        ok = worst <= 1e-10 and worst_xx <= 1e-12
        _report(4, ok, f"residual {worst:.1e}, position block {worst_xx:.1e}")

    def test_criterion_5_collision_theorem(self):
        rng = np.random.default_rng(5)
        points = np.concatenate(
            [sample_collision_slice(rng, 500), sample_level_set(rng, 500)]
        )
        member, falls, _ = collision_triple_batch(points)
        disagreements = int(np.count_nonzero(member != falls))
        _report(5, disagreements == 0, f"{len(points)} points, {disagreements} disagreements")

    def test_criterion_6_collision_times(self):
        apex_exact = radial_collision_time(2.0) == math.pi
        unit_value = abs(radial_collision_time(1.0) - (math.pi / 2 - 1)) <= 1e-12
        worst = 0.0
        below_apex = True
        for r0 in FALL_GRID:
            closed = radial_collision_time(r0)
            quad = radial_collision_time_quadrature(r0)
            res = integrate_ode(
                lambda t, u: np.array(radial_ode_rhs(RadialState(u[0], u[1]))),
                np.array([r0, -math.sqrt(2 / r0 - 1)]),
                (0.0, 4.0),
                event=lambda t, u: u[0] - 1e-6,
            )
            event = res.event_time if res.status == "event" else math.inf
            worst = max(worst, abs(closed - quad), abs(closed - event), abs(quad - event))
            if r0 < 2:
                below_apex = below_apex and closed < math.pi
        ok = apex_exact and unit_value and worst <= 1e-5 and below_apex
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
        print("  |L|,method,steps,max_energy_drift,periapsis_error,failed")
        for row in rows:
            print("  " + row.to_csv_row())
        (tmp_path / "bench.csv").write_text(
            "\n".join(row.to_csv_row() for row in rows) + "\n"
        )
        by_key = {(row.l_norm, row.method): row for row in rows}
        ok = True
        for l_norm in (1e-3, 1e-4):
            ks_row = by_key[(l_norm, "ks_regularized")]
            raw_row = by_key[(l_norm, "raw_kepler")]
            ok = ok and not ks_row.failed and ks_row.max_energy_drift <= 1e-8
            ok = ok and (raw_row.failed or raw_row.periapsis_error > 1e-2)
        _report(8, ok, f"{len(rows)} rows emitted")
