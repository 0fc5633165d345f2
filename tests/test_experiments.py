"""The scripts in ``experiments/`` still run against the library.

Each is loaded by path with its budget shrunk, so a renamed flag, a changed
exit code or a moved bundled file fails here rather than in a long run.
"""

from pathlib import Path

import numpy as np

import pocketgfn.autodiff as ad
from conftest import load_file
from pocketgfn.ligand import desk_library
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
from pocketgfn.training import TrainerConfig, train

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


def test_conditioning_comparison_runs(monkeypatch, capsys):
    # covers multi-pocket train from a pocket_file list, train --mode
    # trioformer, sample --pocket, and evaluate of two sets on one pocket
    conditioning = load_file(EXPERIMENTS / "conditioning.py", "experiments_conditioning")
    monkeypatch.setattr(conditioning, "STEPS", 2)
    assert conditioning.main() == 0
    out = capsys.readouterr().out
    for pid in conditioning.POCKETS:
        assert f"evaluate (pocket {pid}, sets: baseline, trioformer):" in out
    assert "mean docking score, geometry-aware" in out and "2 steps each" in out


def test_conditioning_comparison_fails_with_the_cli(monkeypatch, capsys):
    conditioning = load_file(EXPERIMENTS / "conditioning.py", "experiments_conditioning")
    monkeypatch.setattr(conditioning.cli, "main", lambda argv: 2)
    assert conditioning.main() == 1
    assert "pocketgfn train exited 2" in capsys.readouterr().err


def test_pair_stack_scaling_runs(monkeypatch, capsys):
    scaling = load_file(EXPERIMENTS / "pair_stack_scaling.py", "experiments_pair_stack_scaling")
    monkeypatch.setattr(scaling, "STEPS", 1)
    monkeypatch.setattr(scaling, "SIZES", (10,))
    assert scaling.main() == 0
    out = capsys.readouterr().out
    assert "1 steps per pocket size" in out and "  10 residues: " in out and "MB peak RSS" in out
    assert int(out.split("MB peak RSS, ")[1].split(" minor faults and ")[0]) > 0
    assert float(out.split(" minor faults and ")[1].split(" ms system time per step, ")[0]) >= 0
    assert int(out.split(" ms system time per step, ")[1].split(" tape nodes per step")[0]) > 0
    held = out.split("first forward's rules hold ")[1].split(" MB")[0].split(", ")
    assert [h.split(" ")[1] for h in held] == ["attention", "mlp", "matmul", "other"]
    assert all(float(h.split(" ")[0]) > 0 for h in held)


def test_rule_held_bytes_counts_each_buffer_once_and_no_parameter():
    # the definition the desk-step pin below rests on: a view and the array
    # that owns its memory count once, under the first rule that reaches
    # them; a leaf that gets a gradient (a parameter) is left out; a
    # constant() leaf counts under the rule that keeps it
    scaling = load_file(EXPERIMENTS / "pair_stack_scaling.py", "experiments_pair_stack_scaling")
    c = ad.constant(np.arange(6.0).reshape(2, 3))
    p = ad.tensor(np.ones((3, 4)))
    with ad.Tape() as tape:
        h = ad.mul(c, ad.reshape(c, (2, 3)))  # keeps c's array and a view of it: 48 B
        ad.matmul(h, p)  # keeps a view of h's array, 48 B, and p's
        ad.matmul(c, p)  # keeps a view of c's array, which mul counted
    assert scaling.rule_held_bytes(tape.nodes) == {"attention": 0, "mlp": 0, "matmul": 48, "other": 48}


def test_desk_step_rule_held_bytes_are_pinned(monkeypatch):
    # what the rules of a seeded desk step's tape hold after the forward
    # (batch 16, default policy, seed 0): baseline mode, whose attention
    # biases are as large as the softmax weights, keeps the weights and
    # exactly the bytes it held when every rule kept them; the trioformer's
    # triangle folds keep each softmax row's max and sum instead, so its
    # attention rules hold 7,559,200 B, where keeping the weights held
    # 9,993,440 B
    scaling = load_file(EXPERIMENTS / "pair_stack_scaling.py", "experiments_pair_stack_scaling")
    held, real_backward = [], ad.backward

    def backward(loss):
        held.append(scaling.rule_held_bytes(loss._tape.nodes))
        real_backward(loss)

    monkeypatch.setattr(ad, "backward", backward)
    pockets = {"p": build_knn_graph(synthetic_pocket(10, 6.0, 0))}
    for mode in ("baseline", "trioformer"):
        train(TrainerConfig(steps=1, batch_size=16, seed=0, mode=mode), desk_library(), pockets)
    baseline, trioformer = held
    assert sum(baseline.values()) == 4_280_761, baseline
    assert trioformer["attention"] <= 8_000_000, trioformer
