"""Pooled-pocket (baseline) against pair-tensor (trioformer) conditioning.

Trains both modes through the command line with the same seed and step
budget on both bundled pockets, samples 8 unique molecules per mode and
pocket, and prints the ``evaluate`` table of each pocket followed by the
mean docking score per mode. The comparison is reported, not asserted:
the docking quality of ``rewards`` sees a pocket only through its radius of gyration
and mean polarity, both of which a pooled embedding can carry, so this
reward cannot show either way whether pair-tensor conditioning binds better.

Run from the repository root (it writes only into a temporary directory):

    PYTHONPATH=src python3 experiments/conditioning.py

Exits 1 when ``train`` or ``evaluate`` fails, or when ``sample`` fails with
anything but a partial set (exit 1 still writes scores to compare).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from pocketgfn import cli

STEPS = 800
MODES = ("baseline", "trioformer")
POCKETS = ("compact", "wide")


def run_config(tmp: Path) -> dict:
    # the fragment space is larger than the release gate's liveness check so
    # that the two modes' unique-molecule sets can differ
    return {
        "library_file": "bundled:desk",
        "pocket_file": [f"bundled:{pid}" for pid in POCKETS],
        "checkpoint": str(tmp / "ck.json"),
        "steps": STEPS, "batch_size": 8, "learning_rate": 3e-3, "beta": 2.0,
        "max_nodes": 3, "seed": 12, "n_molecules": 8, "retry_cap": 50,
        "policy": {
            "width": 16, "n_layers": 1, "n_heads": 2, "frag_emb_dim": 4,
            "pocket_width": 8, "pocket_layers": 1, "trio_layers": 1,
            "trio_heads": 2, "trio_head_dim": 4, "trio_c_pair": 8,
        },
    }


def _cli(argv: list[str], ok: tuple[int, ...] = (0,)) -> str:
    """Run one subcommand; return its stdout, or raise naming the exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code not in ok:
        raise RuntimeError(f"pocketgfn {argv[0]} exited {code}: {' '.join(argv)}")
    return out.getvalue()


def compare(tmp: Path) -> None:
    cfg_path = tmp / "run.json"
    cfg_path.write_text(json.dumps(run_config(tmp)))
    cfg = ["--config", str(cfg_path)]

    mol_files = {}
    for mode in MODES:
        ck = tmp / f"{mode}.json"
        _cli(["train", *cfg, "--mode", mode, "--out", str(ck)])
        for pid in POCKETS:
            mol = tmp / f"{mode}_{pid}.jsonl"
            _cli(["sample", *cfg, "--mode", mode, "--checkpoint", str(ck),
                  "--pocket", f"bundled:{pid}", "--n", "8", "--out", str(mol)], ok=(0, 1))
            mol_files[(mode, pid)] = str(mol)

    ds_by_mode = {mode: [] for mode in MODES}
    for pid in POCKETS:
        rep = tmp / f"report_{pid}.json"
        table = _cli(["evaluate", *(mol_files[(mode, pid)] for mode in MODES), *cfg,
                      "--pocket", f"bundled:{pid}", "--out", str(rep)])
        print(f"evaluate (pocket {pid}, sets: {', '.join(MODES)}):")
        for line in table.strip().splitlines():
            if not line.startswith("report written"):
                print(f"  {line}")
        for row in json.loads(rep.read_text())["per_set"]:
            for mode in MODES:
                if f"{mode}_{pid}" in row["file"]:
                    ds_by_mode[mode].append(row["ds_mean"])
    means = {mode: float(np.mean(v)) for mode, v in ds_by_mode.items()}
    verdict = "<=" if means["trioformer"] <= means["baseline"] else ">"
    print(f"mean docking score, geometry-aware {means['trioformer']:.3f} {verdict} "
          f"baseline {means['baseline']:.3f} (same seed, {STEPS} steps each, both pockets)")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        try:
            compare(Path(tmp))
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
