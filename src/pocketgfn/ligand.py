"""Fragment-graph ligand states: actions, transitions, canonical forms, enumeration.

States are always trees (every added fragment attaches by exactly one bond),
immutable, and cheap to hash. Node order records insertion order; attachment
points are labeled and an AP can be used at most once.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).parent / "data"
MAX_NODES_DEFAULT = 8
ENUM_MAX_FRAGMENTS = 4
ENUM_MAX_NODES = 4


class IllegalActionError(ValueError):
    """Action violates a state constraint; message names the constraint."""


class LibraryError(ValueError):
    """Malformed fragment library."""


@dataclass(frozen=True)
class Fragment:
    id: int
    name: str
    aps: int  # number of attachment points, labeled 0..aps-1
    size: int  # heavy-atom count
    polarity: float

    def __post_init__(self):
        if self.aps < 1:
            raise LibraryError(f"fragment {self.name!r} needs at least one attachment point")
        if not 0.0 <= self.polarity <= 1.0:
            raise LibraryError(f"fragment {self.name!r} polarity {self.polarity} outside [0, 1]")


class FragmentLibrary:
    def __init__(self, fragments: list[Fragment]):
        ids = [f.id for f in fragments]
        if len(set(ids)) != len(ids):
            raise LibraryError(f"duplicate fragment ids: {sorted(ids)}")
        self.fragments = sorted(fragments, key=lambda f: f.id)
        self._by_id = {f.id: f for f in self.fragments}

    def __len__(self) -> int:
        return len(self.fragments)

    def __iter__(self):
        return iter(self.fragments)

    def get(self, frag_id: int) -> Fragment:
        try:
            return self._by_id[frag_id]
        except KeyError:
            raise LibraryError(f"unknown fragment id {frag_id}") from None

    @property
    def max_aps(self) -> int:
        return max(f.aps for f in self.fragments)

    @property
    def ids(self) -> list[int]:
        return [f.id for f in self.fragments]


def load_library(path: str) -> FragmentLibrary:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        frags = [
            Fragment(id=int(r["id"]), name=str(r["name"]), aps=int(r["aps"]), size=int(r["size"]), polarity=float(r["polarity"]))
            for r in doc["fragments"]
        ]
    except (KeyError, TypeError) as e:
        raise LibraryError(f"{path}: bad fragment record: {e}") from None
    return FragmentLibrary(frags)


def save_library(path: str, library: FragmentLibrary) -> None:
    doc = {
        "fragments": [
            {"id": f.id, "name": f.name, "aps": f.aps, "size": f.size, "polarity": f.polarity} for f in library
        ]
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def toy_library() -> FragmentLibrary:
    # the smallest enumeration-friendly library: 2 fragments, 1 AP each
    return load_library(str(DATA_DIR / "toy_library.json"))


def desk_library() -> FragmentLibrary:
    return load_library(str(DATA_DIR / "desk_library.json"))


# ---------------------------------------------------------------------------
# States and actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LigandState:
    nodes: tuple[int, ...]  # fragment ids, insertion order
    edges: tuple[tuple[int, int, int, int], ...]  # (i, ap_i, j, ap_j), i < j
    terminal: bool = False

    @property
    def n(self) -> int:
        return len(self.nodes)

    def used_aps(self, node: int) -> frozenset:
        used = set()
        for i, ap_i, j, ap_j in self.edges:
            if i == node:
                used.add(ap_i)
            if j == node:
                used.add(ap_j)
        return frozenset(used)

    def degree(self, node: int) -> int:
        return sum(1 for i, _, j, _ in self.edges if i == node or j == node)


@dataclass(frozen=True)
class Stop:
    pass


@dataclass(frozen=True)
class AddFragment:
    target_node: int | None  # None only for the very first fragment
    target_ap: int | None
    fragment_id: int
    fragment_ap: int


LigandAction = Stop | AddFragment

STOP = Stop()


def initial_state() -> LigandState:
    return LigandState(nodes=(), edges=())


def free_aps(s: LigandState, node: int, library: FragmentLibrary) -> list[int]:
    used = s.used_aps(node)
    return [ap for ap in range(library.get(s.nodes[node]).aps) if ap not in used]


def legal_actions(s: LigandState, library: FragmentLibrary, max_nodes: int = MAX_NODES_DEFAULT) -> list[LigandAction]:
    """Stop first (iff nonempty), then AddFragment in (node, ap, fragment, ap) order."""
    if s.terminal:
        return []
    if s.n == 0:
        return [AddFragment(None, None, f.id, ap) for f in library for ap in range(f.aps)]
    actions: list[LigandAction] = [STOP]
    if s.n < max_nodes:
        for node in range(s.n):
            for ap in free_aps(s, node, library):
                for f in library:
                    for f_ap in range(f.aps):
                        actions.append(AddFragment(node, ap, f.id, f_ap))
    return actions


def apply_action(
    s: LigandState, a: LigandAction, library: FragmentLibrary, max_nodes: int = MAX_NODES_DEFAULT
) -> LigandState:
    if s.terminal:
        raise IllegalActionError("state is terminal; no actions allowed")
    if isinstance(a, Stop):
        if s.n == 0:
            raise IllegalActionError("cannot stop on the empty state")
        return LigandState(nodes=s.nodes, edges=s.edges, terminal=True)
    if not isinstance(a, AddFragment):
        raise IllegalActionError(f"unknown action type {type(a).__name__}")

    frag = library.get(a.fragment_id)
    if not 0 <= a.fragment_ap < frag.aps:
        raise IllegalActionError(f"fragment {frag.name!r} has no attachment point {a.fragment_ap}")

    if s.n == 0:
        if a.target_node is not None or a.target_ap is not None:
            raise IllegalActionError("first fragment cannot attach to anything")
        return LigandState(nodes=(a.fragment_id,), edges=())

    if a.target_node is None or a.target_ap is None:
        raise IllegalActionError("non-root AddFragment needs a target node and attachment point")
    if s.n >= max_nodes:
        raise IllegalActionError(f"node cap {max_nodes} reached")
    if not 0 <= a.target_node < s.n:
        raise IllegalActionError(f"target node {a.target_node} does not exist (n={s.n})")
    target_frag = library.get(s.nodes[a.target_node])
    if not 0 <= a.target_ap < target_frag.aps:
        raise IllegalActionError(f"fragment {target_frag.name!r} has no attachment point {a.target_ap}")
    if a.target_ap in s.used_aps(a.target_node):
        raise IllegalActionError(f"attachment point {a.target_ap} on node {a.target_node} already used")

    new_node = s.n
    edge = (a.target_node, a.target_ap, new_node, a.fragment_ap)
    return LigandState(nodes=s.nodes + (a.fragment_id,), edges=s.edges + (edge,))


def validate_state(s: LigandState, library: FragmentLibrary) -> None:
    """Raise ValueError unless ``s`` is a tree of known fragments whose bonds
    (i, ap_i, j, ap_j) have i < j and use in-range attachment points at most
    once each."""
    aps = [library.get(fid).aps for fid in s.nodes]
    root = list(range(s.n))  # union-find over the bonds seen so far

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    used = set()
    for edge in s.edges:
        i, ap_i, j, ap_j = edge
        if not 0 <= i < j < s.n:
            raise ValueError(f"bond {list(edge)} needs node indices 0 <= i < j < {s.n}")
        for v, ap in ((i, ap_i), (j, ap_j)):
            if not 0 <= ap < aps[v]:
                raise ValueError(f"bond {list(edge)}: node {v} has no attachment point {ap}")
            if (v, ap) in used:
                raise ValueError(f"bond {list(edge)}: attachment point {ap} of node {v} is used twice")
            used.add((v, ap))
        if find(i) == find(j):
            raise ValueError(f"bond {list(edge)} closes a cycle")
        root[find(i)] = find(j)
    if len(s.edges) != max(s.n - 1, 0):
        raise ValueError(f"molecule is not connected: {s.n} fragments need {s.n - 1} bonds, got {len(s.edges)}")


def adjacency_matrix(s: LigandState) -> np.ndarray:
    m = np.zeros((s.n, s.n))
    for i, _, j, _ in s.edges:
        m[i, j] = 1.0
        m[j, i] = 1.0
    return m


# ---------------------------------------------------------------------------
# Backward structure
# ---------------------------------------------------------------------------


def removable_leaves(s: LigandState) -> list[int]:
    """Node positions whose removal leaves a connected tree (degree <= 1)."""
    if s.n == 0:
        return []
    if s.n == 1:
        return [0]
    return [v for v in range(s.n) if s.degree(v) == 1]


def remove_leaf(s: LigandState, node: int) -> tuple[LigandState, AddFragment]:
    """Undo one growth step: delete a leaf, reindex, and name the action that re-adds it."""
    if node not in removable_leaves(s):
        raise IllegalActionError(f"node {node} is not a removable leaf")
    if s.n == 1:
        return initial_state(), AddFragment(None, None, s.nodes[0], 0)
    (edge,) = [e for e in s.edges if e[0] == node or e[2] == node]
    i, ap_i, j, ap_j = edge
    if i == node:
        parent_node, parent_ap, leaf_ap = j, ap_j, ap_i
    else:
        parent_node, parent_ap, leaf_ap = i, ap_i, ap_j

    def shift(v):
        return v - 1 if v > node else v

    new_nodes = tuple(fid for v, fid in enumerate(s.nodes) if v != node)
    new_edges = []
    for e in s.edges:
        if e is edge:
            continue
        a, ap_a, b, ap_b = shift(e[0]), e[1], shift(e[2]), e[3]
        if a > b:
            a, ap_a, b, ap_b = b, ap_b, a, ap_a
        new_edges.append((a, ap_a, b, ap_b))
    parent = LigandState(nodes=new_nodes, edges=tuple(sorted(new_edges, key=lambda e: (e[2], e[0]))))
    action = AddFragment(shift(parent_node), parent_ap, s.nodes[node], leaf_ap)
    return parent, action


def backward_transitions(s: LigandState, library: FragmentLibrary) -> list[tuple[LigandState, AddFragment, float]]:
    """All (parent, action, log_prob) backward moves of a nonempty, non-terminal graph.

    One move per removable leaf, uniform; the single-node graph instead has one
    move per attachment point of its fragment (the entry point is unrecorded),
    again uniform. exp(log_prob) sums to exactly 1.
    """
    if s.n == 0:
        return []
    if s.n == 1:
        frag = library.get(s.nodes[0])
        lp = -float(np.log(frag.aps))
        return [(initial_state(), AddFragment(None, None, s.nodes[0], ap), lp) for ap in range(frag.aps)]
    leaves = removable_leaves(s)
    lp = -float(np.log(len(leaves)))
    return [(*remove_leaf(s, v), lp) for v in leaves]


def step_backward_log_prob(child: LigandState, library: FragmentLibrary, is_root_step: bool) -> float:
    """log-probability of the backward move that undoes one AddFragment.

    Uniform over removable leaves of the child; the first growth step also
    picks which attachment point the root fragment entered by (uniform over
    its APs) since the single-node graph does not record it.
    """
    lp = -float(np.log(len(removable_leaves(child))))
    if is_root_step:
        lp -= float(np.log(library.get(child.nodes[0]).aps))
    return lp


# ---------------------------------------------------------------------------
# Canonicalization and symmetry
# ---------------------------------------------------------------------------


def _normalize_edges(edges) -> tuple:
    out = []
    for i, ap_i, j, ap_j in edges:
        if i > j:
            i, ap_i, j, ap_j = j, ap_j, i, ap_i
        out.append((i, ap_i, j, ap_j))
    return tuple(sorted(out))


def permute_state(s: LigandState, perm: list[int]) -> LigandState:
    """Relabel nodes by old->new map. Test helper: the result may not respect
    insertion order, so it is for isomorphism checks, not for growing."""
    if sorted(perm) != list(range(s.n)):
        raise ValueError(f"perm must be a permutation of 0..{s.n - 1}")
    new_nodes = [0] * s.n
    for old, new in enumerate(perm):
        new_nodes[new] = s.nodes[old]
    new_edges = _normalize_edges((perm[i], ap_i, perm[j], ap_j) for i, ap_i, j, ap_j in s.edges)
    return LigandState(nodes=tuple(new_nodes), edges=new_edges, terminal=s.terminal)


def _group_permutations(nodes: tuple[int, ...]):
    """All node permutations (old->new) that keep the sorted fragment-id sequence."""
    order = sorted(range(len(nodes)), key=lambda v: nodes[v])
    groups: list[list[int]] = []
    for pos, v in enumerate(order):
        if pos > 0 and nodes[v] == nodes[order[pos - 1]]:
            groups[-1].append(v)
        else:
            groups.append([v])
    slots = []
    start = 0
    for g in groups:
        slots.append(list(range(start, start + len(g))))
        start += len(g)
    for assignment in itertools.product(*(itertools.permutations(sl) for sl in slots)):
        perm = [0] * len(nodes)
        for g, slot_perm in zip(groups, assignment):
            for v, slot in zip(g, slot_perm):
                perm[v] = slot
        yield perm


def canonical_form(s: LigandState) -> tuple[tuple[int, ...], tuple]:
    """Lexicographically minimal (fragment-id sequence, edge list) over relabelings."""
    if s.n == 0:
        return (), ()
    best = None
    nodes_sorted = tuple(sorted(s.nodes))
    for perm in _group_permutations(s.nodes):
        edges = _normalize_edges((perm[i], ap_i, perm[j], ap_j) for i, ap_i, j, ap_j in s.edges)
        if best is None or edges < best:
            best = edges
    return nodes_sorted, best


def canonical_key(s: LigandState) -> str:
    nodes, edges = canonical_form(s)
    return json.dumps([list(nodes), [list(e) for e in edges]], separators=(",", ":"))


def automorphism_count(s: LigandState) -> int:
    """Number of node relabelings fixing both fragment ids and the AP-labeled edge set."""
    if s.n <= 1:
        return 1
    base = _normalize_edges(s.edges)
    count = 0
    for perm in _frag_preserving_perms(s.nodes):
        edges = _normalize_edges((perm[i], ap_i, perm[j], ap_j) for i, ap_i, j, ap_j in s.edges)
        if edges == base:
            count += 1
    return count


def _frag_preserving_perms(nodes: tuple[int, ...]):
    """Permutations (old->new) mapping each node to a node of the same fragment id."""
    positions: dict[int, list[int]] = {}
    for v, fid in enumerate(nodes):
        positions.setdefault(fid, []).append(v)
    fids = list(positions)
    for images in itertools.product(*(itertools.permutations(positions[f]) for f in fids)):
        perm = [0] * len(nodes)
        for f, img in zip(fids, images):
            for v, target in zip(positions[f], img):
                perm[v] = target
        yield perm


# ---------------------------------------------------------------------------
# Exhaustive enumeration (oracle-sized libraries only)
# ---------------------------------------------------------------------------


def check_enumeration_guard(library: FragmentLibrary, max_nodes: int) -> None:
    """Refuse molecule spaces too large to enumerate exhaustively."""
    if len(library) > ENUM_MAX_FRAGMENTS or max_nodes > ENUM_MAX_NODES:
        raise LibraryError(
            f"enumeration guard: need <= {ENUM_MAX_FRAGMENTS} fragments and max_nodes <= {ENUM_MAX_NODES}, "
            f"got {len(library)} fragments, max_nodes {max_nodes}"
        )


def enumerate_terminal_states(library: FragmentLibrary, max_nodes: int) -> list[LigandState]:
    """All distinct terminal graphs up to isomorphism, guarded against blow-up."""
    check_enumeration_guard(library, max_nodes)
    seen_raw = set()
    frontier = [initial_state()]
    canon: dict[str, LigandState] = {}
    while frontier:
        s = frontier.pop()
        for a in legal_actions(s, library, max_nodes):
            if isinstance(a, Stop):
                continue
            child = apply_action(s, a, library, max_nodes)
            key = (child.nodes, child.edges)
            if key in seen_raw:
                continue
            seen_raw.add(key)
            frontier.append(child)
            ckey = canonical_key(child)
            if ckey not in canon:
                canon[ckey] = LigandState(nodes=child.nodes, edges=child.edges, terminal=True)
    return [canon[k] for k in sorted(canon)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def state_to_record(s: LigandState) -> dict:
    nodes, edges = canonical_form(s)
    return {"nodes": list(nodes), "edges": [list(e) for e in edges]}


def state_from_record(rec: dict) -> LigandState:
    return LigandState(
        nodes=tuple(int(x) for x in rec["nodes"]),
        edges=tuple(tuple(int(v) for v in e) for e in rec["edges"]),
        terminal=True,
    )
