"""A NaN measurement fails its release check wherever it appears, and the
release gate asserts every selfcheck suite."""

import math

import pytest

import pocketgfn.selfcheck as sc

NAN_LAST = {"add": 1e-9, "mul": 1e-9, "exp": math.nan}


def test_worst_error_ranks_nan_first():
    assert sc.worst_error(NAN_LAST)[0] == "exp"
    assert sc.worst_error({"a": 1e-9, "b": 2e-9}) == ("b", 2e-9)


def test_primitive_suite_fails_on_nan_after_first(monkeypatch):
    monkeypatch.setattr(sc, "primitive_gradient_errors", lambda: NAN_LAST)
    ok, detail = sc.check_gradient_primitives()
    assert not ok and "exp" in detail


def test_trioformer_suite_fails_on_nan_pocket_track(monkeypatch):
    monkeypatch.setattr(sc, "conditioning_gradient_errors", lambda: {"ligand": 1e-9, "pocket": math.nan})
    assert not sc.check_gradient_trioformer()[0]


def test_rigid_motion_drift_keeps_nan(monkeypatch):
    monkeypatch.setattr(sc, "docking_proxy", lambda *args: math.nan)
    assert math.isnan(sc.rigid_motion_drift(1))


def test_bias_ablation_deviation_keeps_nan(monkeypatch):
    monkeypatch.setattr(sc, "reference_cross_attention", lambda *args: math.nan)
    assert math.isnan(sc.bias_ablation_deviation())


def test_release_gate_fails_on_nan_after_first(monkeypatch):
    import test_acceptance as gate

    monkeypatch.setattr(gate, "RESULTS", [])  # keep the forced verdicts out of the gate summary
    monkeypatch.setattr(sc, "primitive_gradient_errors", lambda: NAN_LAST)
    with pytest.raises(AssertionError, match="exp"):
        gate.test_selfcheck_suite("gradient-primitives", sc.check_gradient_primitives)
    monkeypatch.setattr(sc, "conditioning_gradient_errors", lambda: {"ligand": 1e-9, "pocket": math.nan})
    with pytest.raises(AssertionError):
        gate.test_selfcheck_suite("gradient-trioformer", sc.check_gradient_trioformer)


def test_release_gate_asserts_every_suite():
    import test_acceptance as gate

    (mark,) = [m for m in gate.test_selfcheck_suite.pytestmark if m.name == "parametrize"]
    assert mark.args[1] is sc.SUITES
    assert mark.kwargs["ids"] == [name for name, _ in sc.SUITES]
