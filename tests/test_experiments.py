"""The scripts in ``experiments/`` still run against the library.

Each is loaded by path with its budget shrunk, so a renamed flag, a changed
exit code or a moved bundled file fails here rather than in a long run.
"""

from pathlib import Path

from conftest import load_file

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
    assert int(out.split("MB peak RSS, ")[1].split(" tape nodes per step")[0]) > 0
    held = out.split("first forward's rules hold ")[1].split(" MB")[0].split(", ")
    assert [h.split(" ")[1] for h in held] == ["attention", "mlp", "matmul", "other"]
    assert all(float(h.split(" ")[0]) > 0 for h in held)
