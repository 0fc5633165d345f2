"""A NaN measurement fails its release check wherever it appears."""

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
    monkeypatch.setattr(gate, "tb_loss_gradient_error", lambda: 1e-9)
    for prim, layer in ((NAN_LAST, {"ligand": 1e-9}), ({"add": 1e-9}, {"ligand": 1e-9, "pocket": math.nan})):
        monkeypatch.setattr(gate, "primitive_gradient_errors", lambda: prim)
        monkeypatch.setattr(gate, "conditioning_gradient_errors", lambda: layer)
        with pytest.raises(AssertionError):
            gate.test_gradients_match_finite_differences()
