"""The seed sweep draws as ksreg verify does and fails on any gate."""
import importlib.util
import math
import os

import numpy as np
import pytest

from ksreg import verify
from ksreg.verify import GATES, run_suites

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "seedsweep", "run.py")
_spec = importlib.util.spec_from_file_location("seedsweep_run", _PATH)
seedsweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seedsweep)


@pytest.mark.parametrize("seed", [0, 7])
def test_a_seed_is_the_sampling_suites_of_its_verify_run(seed):
    assert seedsweep.sweep_seed(seed, 30) == run_suites(np.random.default_rng(seed), 30)[1:6]


def test_every_gated_value_has_a_worst_seed(capsys):
    assert seedsweep.main(["--first", "0", "--last", "2", "--samples", "20"]) == 0
    worst, failures = seedsweep.sweep(range(3), 20)
    assert not failures
    assert set(worst) == {(name, gate[0]) for name, gates in GATES.items()
                          if name not in ("so4_relations", "fall_times") for gate in gates}
    assert all(margin >= 0 and seed in range(3) for margin, seed, *_ in worst.values())
    assert "FAIL" not in capsys.readouterr().out


def test_a_failing_gate_exits_1_and_names_its_seeds(monkeypatch, capsys):
    monkeypatch.setattr(verify, "LAGRANGE_RELATIVE_BOUND", 0.0)
    assert seedsweep.main(["--first", "3", "--last", "4", "--samples", "20"]) == 1
    out = capsys.readouterr().out
    assert "FAIL seed 3: lagrange_identities" in out
    assert "FAIL seed 4: lagrange_identities" in out
    worst, _ = seedsweep.sweep([3], 20)
    assert worst[("lagrange_identities", "max_relative_gap")][0] < 0


def test_bad_ranges_are_usage_errors():
    with pytest.raises(SystemExit):
        seedsweep.main(["--first", "5", "--last", "4"])


def test_a_nan_margin_names_its_seed(monkeypatch):
    """A NaN ranks below every margin, so the sweep names the seed where it
    appears, not the seed with the least finite margin."""
    real, calls = verify.worst_lagrange, []

    def nan_on_seed_1(points):
        calls.append(None)
        worst, worst_relative = real(points)
        return worst, math.nan if len(calls) == 2 else worst_relative

    monkeypatch.setattr(verify, "worst_lagrange", nan_on_seed_1)
    worst, failures = seedsweep.sweep(range(3), 20)
    margin, seed, value, *_ = worst[("lagrange_identities", "max_relative_gap")]
    assert seed == 1 and math.isnan(margin) and math.isnan(value)
    assert failures == [(1, "lagrange_identities")]


def test_a_suite_added_to_the_table_is_swept(monkeypatch):
    def fake(rng, samples):
        return verify._suite("fake", draw=float(rng.random()))

    monkeypatch.setattr(verify, "SAMPLING_SUITES", verify.SAMPLING_SUITES + (fake,))
    monkeypatch.setitem(GATES, "fake", (("draw", lambda d: d["draw"], "<=", 1.0),))
    worst, failures = seedsweep.sweep(range(3), 20)
    assert not failures
    margin, seed, value, sense, bound = worst[("fake", "draw")]
    draws = [seedsweep.sweep_seed(s, 20)[-1]["details"]["draw"] for s in range(3)]
    assert (value, seed, sense, bound) == (max(draws), draws.index(max(draws)), "<=", 1.0)
    assert margin == 1.0 - value
