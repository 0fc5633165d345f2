"""
Scoring molecule sets: docking proxy, drug-likeness, synthesizability
=====================================================================

Every generated molecule is scored on three axes, and whole sample sets are
summarized by their score means, a best-k mean, and internal diversity
measured through fingerprint distances. The same numbers drive both the
training reward and the evaluate subcommand's report.
"""

import numpy as np

from pocketgfn.ligand import AddFragment, STOP, apply_action, desk_library, initial_state
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
from pocketgfn.rewards import (
    DEFAULT_WEIGHTS,
    combined_quality,
    diversity,
    docking_score,
    fingerprint,
    qed_proxy,
    sa_proxy,
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

print(f"\n{'molecule':18s} {'dock':>8s} {'qed':>7s} {'sa':>7s} {'combined':>9s}")
weights = DEFAULT_WEIGHTS  # the blend training uses unless a run config sets another
scores = []
for name, s in molecules.items():
    ds = docking_score(pocket, s, lib)
    q = qed_proxy(s)
    a = sa_proxy(s)
    blended = combined_quality(ds / -12.0, q, a, weights)
    scores.append(ds)
    print(f"{name:18s} {ds:8.3f} {q:7.3f} {a:7.3f} {blended:9.3f}")

print(f"\nbest-2 docking mean: {top_k_mean(scores, 2):.3f}")

# fingerprints give a bond-pattern distance between molecules
states = list(molecules.values())
names = list(molecules)
fp = {n: fingerprint(s) for n, s in molecules.items()}
print(f"\nfingerprints carry {fp['lone amide'].size} bits each; pairwise distances:")
for i in range(len(names)):
    for j in range(i + 1, len(names)):
        d = tanimoto_distance(fp[names[i]], fp[names[j]])
        print(f"  {names[i]:18s} vs {names[j]:18s} {d:.3f}")
print(f"set diversity (mean pairwise distance): {diversity(states):.3f}")
