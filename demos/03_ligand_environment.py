"""
Growing molecules one fragment at a time
========================================

Molecules are trees of fragments joined at attachment points. The build
environment exposes the legal moves at every state, and the bookkeeping
needed by a sequential sampler: how many ways each molecule can be torn
down again, and how many relabelings map it onto itself.
"""

import math

from pocketgfn.ligand import (
    AddFragment,
    STOP,
    apply_action,
    automorphism_count,
    backward_transitions,
    canonical_key,
    desk_library,
    enumerated_space,
    initial_state,
    legal_actions,
)

lib = desk_library()
print("fragment library:")
for frag in lib.fragments:
    print(f"  {frag.name:12s} size {frag.size}  polarity {frag.polarity}  {frag.aps} attachment points")

# grow cyclohexane, then an amide on its first open attachment point
s = initial_state()
print("\nlegal root moves from the empty state:", len(legal_actions(s, lib, 3)))
s = apply_action(s, AddFragment(None, None, 3, 0), lib, 3)
s = apply_action(s, AddFragment(0, 0, 2, 0), lib, 3)
print("grown state:", s.nodes, "edges:", s.edges)

term = apply_action(s, STOP, lib, 3)
print("terminal:", term.terminal, " canonical key:", canonical_key(term))

# every non-root state can be torn down leaf by leaf; the probabilities of
# the uniform tear-down walk always sum to one
print("\ntear-down transitions and their log probabilities:")
for parent, action, log_p in backward_transitions(s):
    print(f"  remove -> {parent.nodes}  log_p {log_p:+.4f}")
total = sum(math.exp(lp) for _, _, lp in backward_transitions(s))
print("tear-down probabilities sum to", total)

# both nodes of a symmetric dimer see the same tree from where they stand
# (the same rooted serialization), so two relabelings preserve its structure
dimer = apply_action(initial_state(), AddFragment(None, None, 0, 0), lib, 2)
dimer = apply_action(dimer, AddFragment(0, 0, 0, 0), lib, 2)
print("\nsymmetric dimer automorphisms:", automorphism_count(dimer))

states = enumerated_space(lib, 2).molecules
print(f"complete enumeration at 2 fragments: {len(states)} distinct molecules")
