"""Trioformer training cost against pocket size: step time and peak memory.

Trains the default trioformer policy for a few steps on synthetic pockets of
10, 40 and 80 residues (CrossDocked pockets reach the upper end), each size
in a Python process of its own, so that each peak resident set is that
size's alone, and prints one row per size: seconds per step, set-up
included, the process's peak RSS (``ru_maxrss``), the minor page faults
(``ru_minflt``) and system time per step, set-up included, the tape nodes a
step records, and the bytes that the rules of the first step's tape hold
when its forward is done, by rule kind (attention, mlp, matmul and the
rest), as ``rule_held_bytes`` counts them over the engine's own walk of
what a rule reaches, ``autodiff.held_by``.

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
RULE_KINDS = ("attention", "mlp", "matmul", "other")


def rule_held_bytes(nodes) -> dict:
    """The bytes that the rules of ``nodes`` hold, by ``RULE_KINDS``: the
    arrays that ``autodiff.held_by`` finds each rule reaching, each buffer
    counted once, under the first rule that reaches it, and a view as the
    array that owns its memory, less the arrays of the tape's leaves that
    get a gradient (the parameters, which the store holds anyway). Constant
    leaves, the input features, count under the rule that keeps them."""
    import numpy as np

    from pocketgfn import autodiff as ad

    held = dict.fromkeys(RULE_KINDS, 0)
    # a leaf made by ad.constant is a subclass of DiffTensor, so this skips only the parameters
    seen = {id(inp.data) for node in nodes for inp in node.inputs if type(inp) is ad.DiffTensor}
    for node in nodes:
        kind = node.vjp.__qualname__.partition(".")[0]
        kind = kind if kind in held else "other"
        for value in ad.held_by(node.vjp):
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                if id(value) not in seen:
                    seen.add(id(value))
                    held[kind] += value.nbytes
    return held


def measure(n_pocket: int, steps: int) -> dict:
    """Train ``steps`` steps on an ``n_pocket``-residue pocket in this process."""
    from pocketgfn import autodiff as ad
    from pocketgfn.ligand import desk_library
    from pocketgfn.pocket import build_knn_graph, synthetic_pocket
    from pocketgfn.policy import TRIOFORMER
    from pocketgfn.training import TrainerConfig, train

    pockets = {"p": build_knn_graph(synthetic_pocket(n_pocket, 6.0, seed=0))}
    config = TrainerConfig(steps=steps, batch_size=16, max_nodes=8, seed=0, mode=TRIOFORMER)
    nodes, held, real_backward = [], [], ad.backward

    def backward(loss):
        # each step walks its tape once
        nodes.append(len(loss._tape.nodes))
        if not held:
            held.append(rule_held_bytes(loss._tape.nodes))
        real_backward(loss)

    ad.backward = backward
    try:
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        train(config, desk_library(), pockets)
        seconds = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        ad.backward = real_backward
    # Linux reports ru_maxrss in KiB
    return {
        "s_per_step": seconds / steps,
        "peak_rss_mb": after.ru_maxrss / 1024,
        "minflt_per_step": (after.ru_minflt - before.ru_minflt) / steps,
        "sys_s_per_step": (after.ru_stime - before.ru_stime) / steps,
        "tape_nodes_per_step": sum(nodes) / steps,
        "rule_held_bytes": held[0],
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
        held = ", ".join(f"{row['rule_held_bytes'][kind] / 2**20:.2f} {kind}" for kind in RULE_KINDS)
        print(f"{n_pocket:>4} residues: {row['s_per_step']:.3f} s per step, {row['peak_rss_mb']:.0f} MB peak RSS, "
              f"{row['minflt_per_step']:.0f} minor faults and {row['sys_s_per_step'] * 1e3:.1f} ms system time per step, "
              f"{row['tape_nodes_per_step']:.0f} tape nodes per step; first forward's rules hold {held} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
