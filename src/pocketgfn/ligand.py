"""Fragment-graph ligand states: actions, transitions, canonical forms, enumeration.

States are always trees (every added fragment attaches by exactly one bond),
immutable, and cheap to hash. Nodes are listed in a growth order; attachment
points are labeled and an AP can be used at most once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .files import json_float, json_int, read_json

DATA_DIR = Path(__file__).parent / "data"
ENUM_MAX_FRAGMENTS = 4
ENUM_MAX_NODES = 4
# Largest heavy-atom count of one fragment: far above any real fragment, and
# low enough that the docking proxy's float arithmetic on ligand sizes cannot overflow.
MAX_FRAGMENT_SIZE = 10_000


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
        if not 1 <= self.size <= MAX_FRAGMENT_SIZE:
            raise LibraryError(f"fragment {self.name!r} size must be in [1, {MAX_FRAGMENT_SIZE}], got {self.size}")
        if not 0.0 <= self.polarity <= 1.0:
            raise LibraryError(f"fragment {self.name!r} polarity {self.polarity} outside [0, 1]")


class FragmentLibrary:
    def __init__(self, fragments: list[Fragment]):
        if not fragments:
            raise LibraryError("a fragment library needs at least one fragment")
        ids = [f.id for f in fragments]
        if len(set(ids)) != len(ids):
            raise LibraryError(f"duplicate fragment ids: {sorted(ids)}")
        self.fragments = sorted(fragments, key=lambda f: f.id)
        self._by_id = {f.id: f for f in self.fragments}
        # (fragment id, attachment points) per fragment, in id order: all that
        # legal actions and transitions read of a library, and the key of their caches
        self.attachment_counts = tuple((f.id, f.aps) for f in self.fragments)

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
    doc = read_json(path, LibraryError)
    try:
        frags = [
            Fragment(
                id=json_int(r["id"], "fragment 'id'"),
                name=str(r["name"]),
                aps=json_int(r["aps"], "fragment 'aps'"),
                size=json_int(r["size"], "fragment 'size'"),
                polarity=json_float(r["polarity"], "fragment 'polarity'"),
            )
            for r in doc["fragments"]
        ]
        return FragmentLibrary(frags)
    except (KeyError, TypeError, ValueError) as e:
        raise LibraryError(f"{path}: bad fragment library: {e}") from None


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
    """A fragment tree in growth order: bond k attaches node k + 1 to an earlier
    node, so every bond has i < j and every prefix of ``nodes`` is connected.
    ``validate_state`` requires only a tree whose bonds have i < j."""

    nodes: tuple[int, ...]  # fragment ids
    edges: tuple[tuple[int, int, int, int], ...]  # (i, ap_i, j, ap_j), i < j
    terminal: bool = False

    @property
    def n(self) -> int:
        return len(self.nodes)


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


def open_slots(s: LigandState, library: FragmentLibrary, max_nodes: int) -> list[tuple[int, int]]:
    """The free (node, attachment point) slots of ``s``, in node then ap
    order; none at the node cap or on a terminal state."""
    if s.terminal or s.n >= max_nodes:
        return []
    used = {(e[k], e[k + 1]) for e in s.edges for k in (0, 2)}
    return [(v, ap) for v, fid in enumerate(s.nodes) for ap in range(library.get(fid).aps) if (v, ap) not in used]


class ActionLattice:
    """The AddFragment rows of a library: ``slot_rows(node, ap)`` attaches
    each (fragment index, fragment ap) of ``pairs`` at one slot; ``root``
    holds the empty state's rows, one per fragment of ``root_pairs``, entering
    by its ap 0 (a state records no entry point). A slot's rows are built
    when a state first offers it, so the lattice does not grow with the cap."""

    def __init__(self, fragments: tuple[tuple[int, int], ...]):
        self.ids = tuple(fid for fid, _ in fragments)
        self.pairs = tuple((k, f_ap) for k, (_, aps) in enumerate(fragments) for f_ap in range(aps))
        self.root_pairs = tuple((k, 0) for k in range(len(fragments)))
        self.root = tuple(AddFragment(None, None, fid, 0) for fid in self.ids)
        self.slots: dict[tuple[int, int], tuple[AddFragment, ...]] = {}

    def slot_rows(self, node: int, ap: int) -> tuple[AddFragment, ...]:
        rows = self.slots.get((node, ap))
        if rows is None:
            rows = self.slots[node, ap] = tuple(AddFragment(node, ap, self.ids[k], f_ap) for k, f_ap in self.pairs)
        return rows


_lattice = lru_cache(maxsize=4)(ActionLattice)


def action_lattice(library: FragmentLibrary) -> ActionLattice:
    """The lattice of ``library``, cached on its attachment counts: libraries
    that differ only in fragment sizes, names or polarities share one."""
    return _lattice(library.attachment_counts)


def slot_actions(s: LigandState, slots: list[tuple[int, int]], library: FragmentLibrary) -> list[LigandAction]:
    """The legal actions of ``s`` from its open ``slots``: Stop first (iff
    nonempty), then the lattice rows of each slot in turn, (node, ap, fragment,
    ap) order. The empty state offers the root rows; a terminal state none."""
    if s.terminal:
        return []
    lattice = action_lattice(library)
    if s.n == 0:
        return list(lattice.root)
    actions: list[LigandAction] = [STOP]
    for node, ap in slots:
        actions += lattice.slot_rows(node, ap)
    return actions


def legal_actions(s: LigandState, library: FragmentLibrary, max_nodes: int) -> list[LigandAction]:
    """The legal actions of ``s``, in the order of :func:`slot_actions`."""
    return slot_actions(s, open_slots(s, library, max_nodes), library)


def stop_is_forced(s: LigandState, library: FragmentLibrary, max_nodes: int) -> bool:
    """True when Stop is the only legal action: a non-empty state with no
    open slot. Decided from counts: the node cap is reached, or the tree's
    n - 1 bonds use all of its fragments' attachment points, two each."""
    if s.terminal or s.n == 0:
        return False
    return s.n >= max_nodes or sum(library.get(fid).aps for fid in s.nodes) == 2 * (s.n - 1)


def apply_action(s: LigandState, a: LigandAction, library: FragmentLibrary, max_nodes: int) -> LigandState:
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
    node, ap = a.target_node, a.target_ap
    if any((i == node and ap_i == ap) or (j == node and ap_j == ap) for i, ap_i, j, ap_j in s.edges):
        raise IllegalActionError(f"attachment point {ap} on node {node} already used")

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
    ends = [v for i, _, j, _ in s.edges for v in (i, j)]
    return [v for v in range(s.n) if ends.count(v) <= 1]


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


def backward_transitions(s: LigandState) -> list[tuple[LigandState, AddFragment, float]]:
    """All (parent, action, log_prob) backward moves of a nonempty, non-terminal graph.

    One move per removable leaf, each with ``step_backward_log_prob(s)``, so
    exp(log_prob) sums to exactly 1. The single-node graph has one move, back
    to the empty state by the fragment's root action, with log-prob 0.
    """
    if s.n == 0:
        return []
    lp = step_backward_log_prob(s)
    return [(*remove_leaf(s, v), lp) for v in removable_leaves(s)]


def step_backward_log_prob(child: LigandState) -> float:
    """log-probability of the backward move that undoes one AddFragment:
    uniform over the removable leaves of the child."""
    return -float(np.log(len(removable_leaves(child))))


# ---------------------------------------------------------------------------
# Canonicalization and symmetry
# ---------------------------------------------------------------------------


def bonds_by_node(s: LigandState) -> list[list[tuple[int, int, int]]]:
    """Per node, its bonds as (own_ap, neighbour_ap, neighbour), in own-AP order."""
    bonds = [[] for _ in range(s.n)]
    for i, ap_i, j, ap_j in s.edges:
        bonds[i].append((ap_i, ap_j, j))
        bonds[j].append((ap_j, ap_i, i))
    return [sorted(row) for row in bonds]


def _serial(s: LigandState, bonds, v: int, parent: int) -> tuple:
    """(fragment id, ((own_ap, child_ap, child serial), ...)) of the subtree
    hanging from ``v`` away from ``parent``, children in own-AP order."""
    return s.nodes[v], tuple([(own, other, _serial(s, bonds, u, v)) for own, other, u in bonds[v] if u != parent])


def _minimal_serial(s: LigandState) -> tuple[tuple, int]:
    """The smallest rooted serialization of ``s`` and how many nodes it is rooted at."""
    bonds = bonds_by_node(s)
    low = min(s.nodes)  # a serialization starts with its root's fragment id
    serials = [_serial(s, bonds, v, -1) for v, fid in enumerate(s.nodes) if fid == low]
    best = min(serials)
    return best, serials.count(best)


def canonical_form(s: LigandState) -> tuple[tuple[int, ...], tuple]:
    """(fragment ids, bonds) relabeled in preorder of the smallest rooted
    serialization, children in attachment-point order. A serialization is a
    complete invariant of its rooted tree, and the result is a growth order."""
    if s.n == 0:
        return (), ()
    nodes, edges = [], []

    def visit(serial: tuple) -> None:
        label = len(nodes)
        nodes.append(serial[0])
        for own, other, child in serial[1]:
            edges.append((label, own, len(nodes), other))
            visit(child)

    visit(_minimal_serial(s)[0])
    return tuple(nodes), tuple(edges)


def canonical_key(s: LigandState) -> str:
    nodes, edges = canonical_form(s)
    return json.dumps([list(nodes), [list(e) for e in edges]], separators=(",", ":"))


def automorphism_count(s: LigandState) -> int:
    """Number of node relabelings fixing both fragment ids and the AP-labeled
    bond set. Each attachment point carries at most one bond, so a relabeling
    that fixes one node fixes its neighbours and hence every node: the group
    acts freely, and its size is the number of nodes whose rooted
    serialization equals the minimal one."""
    if s.n <= 1:
        return 1
    return _minimal_serial(s)[1]


# ---------------------------------------------------------------------------
# Exhaustive enumeration (oracle-sized libraries only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EnumeratedSpace:
    """Every raw state of a molecule space, from one walk of its raw state tree.

    ``depths[d]`` holds the raw states with d fragments that are not forced
    stops, so the oracles give them a policy pass, in the order of a
    depth-by-depth walk. Their scored rows are their legal actions in
    lattice order, and ``row_mol[d]`` gives each row's molecule index, or -1
    when the row's child needs a pass of its own: those children, in row
    order, are ``depths[d + 1]``. A Stop row ends in its state's molecule,
    and so does a row whose child is a forced stop (``forced`` lists those
    children in walk order). A raw state is reached by one action from one
    parent (its last node and bond removed), so each appears once, and each
    ending row ends in its own raw form. Molecules are numbered in sorted
    canonical-key order; ``first_seen`` lists them in the order the walk
    first reaches them. Every array is read-only.
    """

    depths: tuple[tuple[LigandState, ...], ...]
    row_mol: tuple[np.ndarray, ...]  # per depth, (rows,) molecule index or -1
    forced: tuple[LigandState, ...]
    keys: tuple[str, ...]  # canonical keys, sorted
    molecules: tuple[LigandState, ...]  # per key, the terminal state in canonical form
    first_seen: np.ndarray  # (molecules,) molecule indices in walk order


def enumerated_space(library: FragmentLibrary, max_nodes: int) -> EnumeratedSpace:
    """The space of ``library`` up to ``max_nodes`` fragments, guarded
    against blow-up. It is cached on the library's attachment counts and the
    cap: libraries that differ only in fragment sizes, names or polarities
    share one space."""
    if len(library) > ENUM_MAX_FRAGMENTS or max_nodes > ENUM_MAX_NODES:
        raise LibraryError(
            f"enumeration guard: need <= {ENUM_MAX_FRAGMENTS} fragments and max_nodes <= {ENUM_MAX_NODES}, "
            f"got {len(library)} fragments, max_nodes {max_nodes}"
        )
    return _walk_space(library.attachment_counts, max_nodes)


@lru_cache(maxsize=4)
def _walk_space(fragments: tuple[tuple[int, int], ...], max_nodes: int) -> EnumeratedSpace:
    # the walk reads only ids and attachment counts, so a stand-in library will do
    library = FragmentLibrary([Fragment(fid, f"#{fid}", aps, 1, 0.0) for fid, aps in fragments])
    depths, row_mol, forced = [], [], []
    index: dict[str, int] = {}  # canonical key -> molecule number in walk order
    molecules = []
    frontier = [initial_state()]
    while frontier:
        depths.append(tuple(frontier))
        children, mols = [], []
        for s in frontier:
            for a in legal_actions(s, library, max_nodes):
                child = apply_action(s, a, library, max_nodes)
                if not (child.terminal or stop_is_forced(child, library, max_nodes)):
                    children.append(child)
                    mols.append(-1)
                    continue
                if not child.terminal:
                    forced.append(child)
                key = canonical_key(child)
                if key not in index:
                    index[key] = len(molecules)
                    molecules.append(LigandState(*canonical_form(child), terminal=True))
                mols.append(index[key])
        row_mol.append(np.array(mols, dtype=np.intp))
        frontier = children
    keys = list(index)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    renumber = np.append(rank, -1)  # a -1 row stays -1
    row_mol = [renumber[m] for m in row_mol]
    for arr in (*row_mol, rank):
        arr.flags.writeable = False
    return EnumeratedSpace(
        depths=tuple(depths),
        row_mol=tuple(row_mol),
        forced=tuple(forced),
        keys=tuple(keys[m] for m in order),
        molecules=tuple(molecules[m] for m in order),
        first_seen=rank,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def state_to_record(s: LigandState) -> dict:
    nodes, edges = canonical_form(s)
    return {"nodes": list(nodes), "edges": [list(e) for e in edges]}


def state_from_record(rec: dict) -> LigandState:
    return LigandState(
        nodes=tuple(json_int(x, "'nodes' entry") for x in rec["nodes"]),
        edges=tuple(tuple(json_int(v, "'edges' entry") for v in e) for e in rec["edges"]),
        terminal=True,
    )


def molecule_from_record(rec: dict, library: FragmentLibrary) -> LigandState:
    """The terminal molecule of one record, checked bond by bond: what
    ``molecule_set`` screens for, and the wording of a record's error."""
    s = state_from_record(rec)
    validate_state(s, library)
    if s.n == 0:
        raise ValueError("empty molecule")
    return s


# ---------------------------------------------------------------------------
# Molecule sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MoleculeSet:
    """Terminal molecules as columns. Molecule m has the nodes
    ``frags[node_start[m]:node_start[m + 1]]`` and the bonds
    ``bonds[bond_start[m]:bond_start[m + 1]]``, rows (i, ap_i, j, ap_j)
    numbered within the molecule. A node holds the index of its fragment id
    in ``ids`` (ascending), so the columns are small integers whatever the
    ids; -1 marks an id outside ``ids``, which only a set being screened holds."""

    ids: tuple[int, ...]
    frags: np.ndarray  # (nodes,)
    node_start: np.ndarray  # (molecules + 1,)
    bonds: np.ndarray  # (bonds, 4)
    bond_start: np.ndarray  # (molecules + 1,)

    def __len__(self) -> int:
        return len(self.node_start) - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.node_start)

    def node_molecules(self) -> np.ndarray:
        """The molecule of each node."""
        return np.repeat(np.arange(len(self)), self.sizes)

    def bond_molecules(self) -> np.ndarray:
        """The molecule of each bond."""
        return np.repeat(np.arange(len(self)), np.diff(self.bond_start))

    @classmethod
    def from_states(cls, states) -> MoleculeSet:
        """The set of ``states``, in order, over the fragment ids they use."""
        return _columns(tuple(sorted({fid for s in states for fid in s.nodes})),
                        [s.nodes for s in states], [s.edges for s in states])


def _columns(ids: tuple[int, ...], nodes: list, edges: list) -> MoleculeSet:
    """The set of molecules with fragment ids ``nodes[m]`` and 4-entry bonds
    ``edges[m]``; a bond entry beyond int64 raises ``OverflowError``."""
    index = {fid: k for k, fid in enumerate(ids)}
    flat_nodes = list(chain.from_iterable(nodes))
    return MoleculeSet(
        ids=ids,
        frags=np.fromiter(map(index.get, flat_nodes, repeat(-1)), dtype=np.intp, count=len(flat_nodes)),
        node_start=np.cumsum([0, *map(len, nodes)], dtype=np.intp),
        bonds=np.array(list(chain.from_iterable(chain.from_iterable(edges))), dtype=np.int64).reshape(-1, 4),
        bond_start=np.cumsum([0, *map(len, edges)], dtype=np.intp),
    )


def _integer_lists(nodes: list, edges: list) -> bool:
    """Whether every ``nodes`` entry is a list of integers and every ``edges``
    entry a list of 4-integer lists."""
    if not set(map(type, chain(nodes, edges))) <= {list}:
        return False
    rows = list(chain.from_iterable(edges))
    return (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {4}
            and set(map(type, chain(chain.from_iterable(nodes), chain.from_iterable(rows)))) <= {int})


def molecule_set(records: list[dict], library: FragmentLibrary) -> tuple[MoleculeSet, list[int]]:
    """The molecules of ``records`` as one set, and the ascending indices of
    the records it could not show to be valid. ``molecule_from_record``
    decides each of those alone; when it finds all of them valid, the set
    holds every record's molecule, in order.

    The columns show a molecule valid when its fields are lists of integers,
    its fragments are in ``library``, it has n > 0 nodes and n - 1 bonds
    (i, ap_i, j, ap_j) with 0 <= i < j < n and attachment points in range and
    used once, and its larger ends j are distinct. Then every node j > 0 has
    exactly one bond to a smaller node, so the molecule is a tree; a tree
    whose bonds do not have that form is left to ``molecule_from_record``.
    """
    nodes = [rec.get("nodes") for rec in records]
    edges = [rec.get("edges") for rec in records]
    try:
        mset = _columns(library.ids, nodes, edges) if _integer_lists(nodes, edges) else None
    except OverflowError:  # an entry no molecule can have
        mset = None
    if mset is None:
        # some record holds other values: check each one alone; the set is
        # read only when every record is valid
        states, failed = [], []
        for k, rec in enumerate(records):
            try:
                states.append(molecule_from_record(rec, library))
            except (KeyError, TypeError, ValueError):
                failed.append(k)
        return MoleculeSet.from_states(states), failed
    n_nodes, sizes = len(mset.frags), mset.sizes
    of_node, of_bond = mset.node_molecules(), mset.bond_molecules()
    bad = (sizes == 0) | (np.diff(mset.bond_start) != sizes - 1)
    bad[of_node[mset.frags < 0]] = True
    i, ap_i, j, ap_j = mset.bonds.T
    ok = (0 <= i) & (i < j) & (j < sizes[of_bond])
    # node n_nodes stands for every out-of-range end: it has no attachment points
    start = mset.node_start[of_bond]
    gi, gj = np.where(ok, start + i, n_nodes), np.where(ok, start + j, n_nodes)
    node_aps = np.append(np.array([f.aps for f in library] + [0])[mset.frags], 0)
    ok &= (0 <= ap_i) & (ap_i < node_aps[gi]) & (0 <= ap_j) & (ap_j < node_aps[gj])
    bad[of_bond[~ok]] = True
    width = library.max_aps
    slots = np.sort(np.concatenate([(gi * width + ap_i)[ok], (gj * width + ap_j)[ok]]))
    bad[of_node[slots[1:][slots[1:] == slots[:-1]] // width]] = True
    larger_ends = np.bincount(gj[ok], minlength=n_nodes + 1)
    bad[of_bond[ok & (larger_ends[gj] > 1)]] = True
    return mset, np.flatnonzero(bad).tolist()
