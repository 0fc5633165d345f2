"""Deterministic surrogate rewards and evaluation metrics.

The docking surrogate scores a ligand by how well its heavy-atom count and
polarity match what the pocket geometry asks for. It is a stand-in for a
learned affinity predictor: cheap, smooth, and exactly enumerable, which is
what the sampling oracles need.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from hashlib import sha256

import numpy as np

from .ligand import LigandState, MoleculeSet
from .pocket import PocketGraph

# Surrogate constants: target ligand size is RHO heavy atoms per angstrom of
# pocket radius of gyration; sigmas set how forgiving each Gaussian term is.
RHO = 1.5
SIGMA_SIZE = 4.0
SIGMA_POLARITY = 0.2
DS_SCALE = -12.0

FINGERPRINT_BITS = 256
FINGERPRINT_RADIUS = 2


class MetricError(ValueError):
    pass


def _require_terminal(s: LigandState, op: str) -> None:
    if not s.terminal:
        raise MetricError(f"{op} needs a terminal state, got a partial one with {s.n} nodes")
    if s.n == 0:
        raise MetricError(f"{op} needs a nonempty state")


def ligand_size(s: LigandState, library) -> int:
    return sum(library.get(fid).size for fid in s.nodes)


def ligand_polarity(s: LigandState, library) -> float:
    return float(np.mean([library.get(fid).polarity for fid in s.nodes]))


def _docking_quality(pocket: PocketGraph, size, polarity: float) -> float:
    target_size = RHO * pocket.gyration_radius
    size_term = math.exp(-((size - target_size) ** 2) / (2 * SIGMA_SIZE**2))
    pol_term = math.exp(-((polarity - pocket.polarity) ** 2) / (2 * SIGMA_POLARITY**2))
    return size_term * pol_term


def docking_proxy(pocket: PocketGraph, s: LigandState, library) -> float:
    """Quality in [0, 1]; peaks when size and polarity both hit the pocket's targets."""
    _require_terminal(s, "docking_proxy")
    return _docking_quality(pocket, ligand_size(s, library), ligand_polarity(s, library))


def docking_score(pocket: PocketGraph, s: LigandState, library) -> float:
    """Negative presentation scale: best possible is DS_SCALE, worst approaches 0."""
    return DS_SCALE * docking_proxy(pocket, s, library)


def _qed_of_count(n: int) -> float:
    return math.exp(-((n - 4) ** 2) / 2)


def qed_proxy(s: LigandState) -> float:
    _require_terminal(s, "qed_proxy")
    return _qed_of_count(s.n)


def sa_proxy(s: LigandState) -> float:
    _require_terminal(s, "sa_proxy")
    most_common = Counter(s.nodes).most_common(1)[0][1]
    return most_common / s.n


def set_scores(pocket: PocketGraph, mset: MoleculeSet, library) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``docking_score``, ``qed_proxy`` and ``sa_proxy`` columns of a
    set of terminal molecules, each equal to the one-state value bit for bit.

    Sizes and most-common counts are integer sums and counts, so exact.
    Polarity is ``np.mean`` over the rows of one (molecules, n) array per node
    count n, which adds each row in the order ``np.mean`` adds one molecule's
    list: pairwise from 9 entries, so a flat running sum would differ in the
    last bit. The Gaussians are ``math.exp`` of the same Python floats, as
    ``np.exp`` differs from it in the last bit on some inputs.
    """
    fragments = [library.get(fid) for fid in mset.ids]
    of_node, counts = mset.node_molecules(), mset.sizes
    sizes = np.bincount(of_node, weights=np.array([f.size for f in fragments], dtype=float)[mset.frags], minlength=len(mset))
    node_polarity = np.array([f.polarity for f in fragments])[mset.frags]
    polarity = np.empty(len(mset))
    for n in set(counts.tolist()):
        rows = np.flatnonzero(counts == n)
        polarity[rows] = np.mean(node_polarity[mset.node_start[rows, None] + np.arange(n)], axis=1)
    # runs of one fragment within a molecule, molecule by molecule
    runs, run_len = np.unique(of_node * len(fragments) + mset.frags, return_counts=True)
    most_common = np.zeros(len(mset), dtype=np.intp)
    np.maximum.at(most_common, runs // len(fragments), run_len)
    ds = [DS_SCALE * _docking_quality(pocket, z, p) for z, p in zip(sizes.tolist(), polarity.tolist())]
    return np.array(ds), np.array([_qed_of_count(n) for n in counts.tolist()]), most_common / counts


@dataclass(frozen=True)
class RewardWeights:
    w_ds: float
    w_qed: float
    w_sa: float

    def __post_init__(self):
        for name, w in (("w_ds", self.w_ds), ("w_qed", self.w_qed), ("w_sa", self.w_sa)):
            if not 0 <= w < math.inf:
                raise MetricError(f"{name} must be nonnegative and finite, got {w}")
        total = self.w_ds + self.w_qed + self.w_sa
        if abs(total - 1.0) > 1e-9:
            raise MetricError(f"weights must sum to 1, got {total}")


# The reward blend of training and sampling unless a run config sets another.
DEFAULT_WEIGHTS = RewardWeights(0.5, 0.25, 0.25)


def combined_quality(q_ds: float, q_qed: float, q_sa: float, weights: RewardWeights) -> float:
    for name, q in (("q_ds", q_ds), ("q_qed", q_qed), ("q_sa", q_sa)):
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"{name} must lie in [0, 1], got {q}")
    return weights.w_ds * q_ds + weights.w_qed * q_qed + weights.w_sa * q_sa


def state_quality(pocket: PocketGraph, s: LigandState, library, weights: RewardWeights) -> float:
    return combined_quality(
        docking_proxy(pocket, s, library), qed_proxy(s), sa_proxy(s), weights
    )


# -- fingerprints and diversity ---------------------------------------------


def _bit(key: str) -> int:
    """The fingerprint bit that one radius-prefixed label sets: the first 8
    bytes of its sha256 as a big-endian integer, modulo FINGERPRINT_BITS.
    FINGERPRINT_BITS divides 256, so that is the eighth byte modulo it."""
    return sha256(key.encode()).digest()[7] % FINGERPRINT_BITS


def _fingerprint_rows(molecules) -> np.ndarray:
    """Fingerprints of ``molecules``, a ``MoleculeSet`` or a list of terminal
    states, as the float rows of one (n, FINGERPRINT_BITS) matrix.

    Each node gets one label per radius 0..FINGERPRINT_RADIUS. Radius 0 is
    its fragment id; each further radius appends the node's neighbourhood as
    (own ap, neighbour ap, neighbour label) entries, sorted, so labels
    depend only on graph structure, never on node numbering. An attachment
    point carries one bond, so the entries sort by own ap. The row sets
    the bit of each ``f"{r}|{label}"``. Labels below the last radius repeat
    across a set, so each distinct one is hashed once per call; last-radius
    labels are mostly distinct and are hashed directly.
    """
    if not isinstance(molecules, MoleculeSet):
        for s in molecules:
            _require_terminal(s, "fingerprint")
        molecules = MoleculeSet.from_states(molecules)
    # both ends of every bond, in the set's node numbering, ordered by node then own ap
    i, ap_i, j, ap_j = molecules.bonds.T
    start = molecules.node_start[molecules.bond_molecules()]
    own, own_ap, other_ap, other = (np.concatenate(pair) for pair in ((start + i, start + j), (ap_i, ap_j),
                                                                      (ap_j, ap_i), (start + j, start + i)))
    order = np.lexsort((own_ap, own))
    first = np.searchsorted(own[order], np.arange(len(molecules.frags) + 1)).tolist()
    entries = [f"{a}:{b}:" for a, b in zip(own_ap[order].tolist(), other_ap[order].tolist())]
    other = other[order].tolist()
    labels = [str(molecules.ids[k]) for k in molecules.frags.tolist()]
    hit_bits = []
    for r in range(FINGERPRINT_RADIUS):
        memo = {label: _bit(f"{r}|{label}") for label in set(labels)}
        hit_bits.extend(map(memo.__getitem__, labels))
        neighbours = [entry + labels[u] for entry, u in zip(entries, other)]
        labels = [label + "|" + ",".join(neighbours[lo:hi]) for label, lo, hi in zip(labels, first, first[1:])]
    hit_bits.extend(_bit(f"{FINGERPRINT_RADIUS}|{label}") for label in labels)
    rows = np.zeros((len(molecules), FINGERPRINT_BITS))
    rows[np.tile(molecules.node_molecules(), FINGERPRINT_RADIUS + 1), hit_bits] = 1.0
    return rows


def fingerprint(s: LigandState) -> np.ndarray:
    """Binary vector hashed from rooted subgraph labels up to FINGERPRINT_RADIUS:
    the one-state row of ``_fingerprint_rows``."""
    return _fingerprint_rows([s])[0].astype(np.uint8)


def _bit_rows(prints) -> np.ndarray:
    """Fingerprints as the float rows of one matrix, nonzero entries set to 1."""
    return np.asarray(prints, dtype=bool).reshape(len(prints), -1).astype(np.float64)


def _tanimoto(shared, c_i, c_j):
    """1 - shared / union from shared and per-print bit counts; two empty prints are 0 apart."""
    union = c_i + c_j - shared
    ratio = np.divide(shared, union, out=np.ones_like(union), where=union > 0)
    return np.subtract(1.0, ratio, out=ratio)


def tanimoto_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    if f1.shape != f2.shape:
        raise MetricError(f"fingerprint length mismatch: {f1.shape} vs {f2.shape}")
    a, b = _bit_rows([f1, f2])
    return float(_tanimoto(a @ b, a.sum(), b.sum()))


# Rows of the fingerprint matrix that diversity meets the later rows with in one product.
DIVERSITY_BLOCK_ROWS = 32


def diversity(states) -> float:
    """Mean pairwise Tanimoto distance between the fingerprints of
    ``states``, a ``MoleculeSet`` or a list of terminal states.

    A block of DIVERSITY_BLOCK_ROWS rows of the fingerprint matrix meets
    the rows after its first in one matrix product, so temporaries stay
    O(block * n). The block's pairs (i, j > i) are taken in row-major order
    and added to the running total by cumsum, which is sequential, so the
    result is the same float as adding the pairs one at a time.
    """
    if len(states) < 2:
        raise MetricError(f"diversity needs at least 2 states, got {len(states)}")
    rows = _fingerprint_rows(states)
    counts = rows.sum(axis=1)
    n = len(rows)
    total = 0.0
    for lo in range(0, n - 1, DIVERSITY_BLOCK_ROWS):
        hi = min(lo + DIVERSITY_BLOCK_ROWS, n - 1)
        # column c of the block holds row lo + 1 + c, so row lo + k pairs with columns c >= k
        later = np.arange(n - lo - 1) >= np.arange(hi - lo)[:, None]
        pairs = _tanimoto(rows[lo:hi] @ rows[lo + 1:].T, counts[lo:hi, None], counts[lo + 1:])[later]
        pairs[0] += total
        total = np.cumsum(pairs, out=pairs)[-1]
    return float(total / (n * (n - 1) // 2))


def top_k_mean(scores: list[float], k: int) -> float:
    """Mean of the k most negative scores; k larger than the list means all."""
    if not scores:
        raise MetricError("top_k_mean needs a nonempty score list")
    if k < 1:
        raise MetricError(f"k must be >= 1, got {k}")
    ordered = sorted(scores)
    return float(np.mean(ordered[: min(k, len(ordered))]))


def mean_and_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise MetricError("mean_and_se needs at least one value")
    if arr.size == 1 or arr.min() == arr.max():
        # identical observations have exactly zero spread; skip the summation rounding
        return float(arr[0] if arr.min() == arr.max() else arr.mean()), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))

