"""
Scoring molecule sets: docking proxy, drug-likeness, synthesizability
=====================================================================

Every generated molecule is scored on three axes, and whole sample sets are
summarized by their score means, a best-k mean, and internal diversity
measured through fingerprint distances. A set is scored as columns, one
entry per molecule; the same numbers drive both the training reward and the
evaluate subcommand's report.
"""

import numpy as np

from pocketgfn.ligand import AddFragment, STOP, MoleculeSet, apply_action, desk_library, initial_state
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
from pocketgfn.rewards import (
    DEFAULT_WEIGHTS,
    diversity,
    fingerprint,
    set_scores,
    state_quality,
    tanimoto_distance,
    top_k_mean,
)

lib = desk_library()
pocket = build_knn_graph(synthetic_pocket(10, 2.5, seed=11, polar_fraction=0.3))
print(f"pocket polarity {pocket.polarity:.3f}")

# hand-build a few molecules of different sizes and compositions
def grow(moves):
    s = initial_state()
    for m in moves:
        s = apply_action(s, m, lib, 4)
    return apply_action(s, STOP, lib, 4)

molecules = {
    "lone amide": grow([AddFragment(None, None, 2, 0)]),
    "ring + hydroxyl": grow([AddFragment(None, None, 3, 0), AddFragment(0, 0, 1, 0)]),
    "benzene chain": grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 0, 0),
                           AddFragment(1, 1, 0, 0)]),
    "mixed triple": grow([AddFragment(None, None, 3, 0), AddFragment(0, 0, 2, 0),
                          AddFragment(0, 1, 1, 0)]),
}

# the docking score, QED and SA columns of the set, and the blended training
# reward (DEFAULT_WEIGHTS, unless a run config sets another blend)
states = list(molecules.values())
names = list(molecules)
ds, qed, sa = set_scores(pocket, MoleculeSet.from_states(states), lib)
blended = state_quality(pocket, states, lib, DEFAULT_WEIGHTS)
print(f"\n{'molecule':18s} {'dock':>8s} {'qed':>7s} {'sa':>7s} {'combined':>9s}")
for row in zip(names, ds, qed, sa, blended):
    print("{:18s} {:8.3f} {:7.3f} {:7.3f} {:9.3f}".format(*row))

print(f"\nbest-2 docking mean: {top_k_mean(ds.tolist(), 2):.3f}")

# fingerprints give a bond-pattern distance between molecules
fp = {n: fingerprint(s) for n, s in molecules.items()}
print(f"\nfingerprints carry {fp['lone amide'].size} bits each; pairwise distances:")
for i in range(len(names)):
    for j in range(i + 1, len(names)):
        d = tanimoto_distance(fp[names[i]], fp[names[j]])
        print(f"  {names[i]:18s} vs {names[j]:18s} {d:.3f}")
print(f"set diversity (mean pairwise distance): {diversity(states):.3f}")
