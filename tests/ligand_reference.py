"""Reference canonicalization by brute force, and reference legal actions
by nested loops, for checking ``pocketgfn.ligand``.

The canonicalization tries every relabeling that keeps the sorted
fragment-id sequence, so its cost is factorial in the largest block of one
fragment type: usable up to about 8 nodes.
"""

import itertools
import json

from pocketgfn.ligand import STOP, AddFragment, LigandState


def normalize_edges(edges) -> tuple:
    return tuple(sorted([(i, ap_i, j, ap_j) if i <= j else (j, ap_j, i, ap_i) for i, ap_i, j, ap_j in edges]))


def permute_state(s: LigandState, perm: list[int]) -> LigandState:
    """Relabel nodes by old->new map. The result may not be in growth order,
    so it is for isomorphism checks, not for growing."""
    if sorted(perm) != list(range(s.n)):
        raise ValueError(f"perm must be a permutation of 0..{s.n - 1}")
    new_nodes = [0] * s.n
    for old, new in enumerate(perm):
        new_nodes[new] = s.nodes[old]
    new_edges = normalize_edges((perm[i], ap_i, perm[j], ap_j) for i, ap_i, j, ap_j in s.edges)
    return LigandState(nodes=tuple(new_nodes), edges=new_edges, terminal=s.terminal)


def group_permutations(nodes: tuple[int, ...]):
    """All node permutations (old->new) that keep the sorted fragment-id sequence."""
    order = sorted(range(len(nodes)), key=lambda v: nodes[v])
    rank = [0] * len(nodes)
    for pos, v in enumerate(order):
        rank[v] = pos
    # slots holding one fragment id are contiguous in the sorted sequence
    blocks = [tuple(g) for _, g in itertools.groupby(range(len(nodes)), key=lambda pos: nodes[order[pos]])]
    for assignment in itertools.product(*(itertools.permutations(b) for b in blocks)):
        flat = [slot for block in assignment for slot in block]
        yield [flat[r] for r in rank]


def canonical_edges(s: LigandState) -> tuple[tuple, int]:
    """The lexicographically minimal edge list over the relabelings that keep
    the sorted fragment-id sequence, and how many of them reach it (the
    automorphism count: those relabelings form a coset of the group)."""
    best, count = None, 0
    for perm in group_permutations(s.nodes):
        edges = normalize_edges([(perm[i], ap_i, perm[j], ap_j) for i, ap_i, j, ap_j in s.edges])
        if best is None or edges < best:
            best, count = edges, 1
        elif edges == best:
            count += 1
    return best, count


def reference_canonical(s: LigandState) -> tuple[str, int]:
    """(key, automorphism count): the key is the sorted fragment ids and the
    minimal edge list as one string."""
    edges, count = canonical_edges(s)
    return json.dumps([sorted(s.nodes), [list(e) for e in edges]], separators=(",", ":")), count


def legal_actions(s: LigandState, library, max_nodes: int) -> list:
    """Stop first (iff nonempty), then one AddFragment per (node, free ap,
    fragment, fragment ap), built by four nested loops; the empty state
    offers each fragment once, entering by attachment point 0."""
    if s.terminal:
        return []
    if s.n == 0:
        return [AddFragment(None, None, f.id, 0) for f in library]
    actions = [STOP]
    if s.n < max_nodes:
        for node in range(s.n):
            used = [ap_i for i, ap_i, _, _ in s.edges if i == node] + [ap_j for _, _, j, ap_j in s.edges if j == node]
            for ap in range(library.get(s.nodes[node]).aps):
                if ap in used:
                    continue
                for f in library:
                    for f_ap in range(f.aps):
                        actions.append(AddFragment(node, ap, f.id, f_ap))
    return actions
