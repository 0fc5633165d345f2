"""Trioformer training cost against pocket size: step time and peak memory.

Trains the default trioformer policy for a few steps on synthetic pockets of
10, 40 and 80 residues (CrossDocked pockets reach the upper end), each size
in a Python process of its own, so that each peak resident set is that
size's alone, and prints one row per size: seconds per step, set-up
included, the process's peak RSS (``ru_maxrss``) and the tape nodes a step
records.

Run from the repository root:

    PYTHONPATH=src python3 experiments/pair_stack_scaling.py

Settings: the desk library, batch 16, ``max_nodes`` 8, seed 0, and
``synthetic_pocket(n, 6.0, seed=0)`` pockets with the default k-NN graph.
Exits 1 when a size's process fails.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

STEPS = 3
SIZES = (10, 40, 80)


def measure(n_pocket: int, steps: int) -> dict:
    """Train ``steps`` steps on an ``n_pocket``-residue pocket in this process."""
    from pocketgfn import autodiff as ad
    from pocketgfn.ligand import desk_library
    from pocketgfn.pocket import build_knn_graph, synthetic_pocket
    from pocketgfn.policy import TRIOFORMER
    from pocketgfn.training import TrainerConfig, train

    pockets = {"p": build_knn_graph(synthetic_pocket(n_pocket, 6.0, seed=0))}
    config = TrainerConfig(steps=steps, batch_size=16, max_nodes=8, seed=0, mode=TRIOFORMER)
    nodes, real_backward = [], ad.backward

    def backward(loss):
        # each step walks its tape once
        nodes.append(len(loss._tape.nodes))
        real_backward(loss)

    ad.backward = backward
    try:
        t0 = time.perf_counter()
        train(config, desk_library(), pockets)
        seconds = time.perf_counter() - t0
    finally:
        ad.backward = real_backward
    # Linux reports ru_maxrss in KiB
    return {
        "s_per_step": seconds / steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tape_nodes_per_step": sum(nodes) / steps,
    }


def run_size(n_pocket: int, steps: int) -> dict:
    """``measure`` in a fresh interpreter; raises ``RuntimeError`` if it fails."""
    code = (
        f"import json, sys; sys.path[:0] = {[str(HERE), str(SRC)]!r}; "
        f"import pair_stack_scaling as m; print(json.dumps(m.measure({n_pocket}, {steps})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{n_pocket} residues: exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    print(f"trioformer training, {STEPS} steps per pocket size (desk library, batch 16, max_nodes 8)")
    for n_pocket in SIZES:
        try:
            row = run_size(n_pocket, STEPS)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print(f"{n_pocket:>4} residues: {row['s_per_step']:.3f} s per step, {row['peak_rss_mb']:.0f} MB peak RSS, "
              f"{row['tape_nodes_per_step']:.0f} tape nodes per step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
