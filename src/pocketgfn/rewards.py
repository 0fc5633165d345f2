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

from .ligand import LigandState, bonds_by_node
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


def docking_proxy(pocket: PocketGraph, s: LigandState, library) -> float:
    """Quality in [0, 1]; peaks when size and polarity both hit the pocket's targets."""
    _require_terminal(s, "docking_proxy")
    target_size = RHO * pocket.gyration_radius
    size_term = math.exp(-((ligand_size(s, library) - target_size) ** 2) / (2 * SIGMA_SIZE**2))
    pol_term = math.exp(-((ligand_polarity(s, library) - pocket.polarity) ** 2) / (2 * SIGMA_POLARITY**2))
    return size_term * pol_term


def docking_score(pocket: PocketGraph, s: LigandState, library) -> float:
    """Negative presentation scale: best possible is DS_SCALE, worst approaches 0."""
    return DS_SCALE * docking_proxy(pocket, s, library)


def qed_proxy(s: LigandState) -> float:
    _require_terminal(s, "qed_proxy")
    return math.exp(-((s.n - 4) ** 2) / 2)


def sa_proxy(s: LigandState) -> float:
    _require_terminal(s, "sa_proxy")
    most_common = Counter(s.nodes).most_common(1)[0][1]
    return most_common / s.n


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


def _wl_labels(s: LigandState) -> list[list[str]]:
    """Refinement labels per node for radii 0..FINGERPRINT_RADIUS.

    A node's neighborhood descriptor lists (own ap, neighbor ap, neighbor
    label) sorted, so labels depend only on graph structure, never on node
    numbering.
    """
    neigh = bonds_by_node(s)
    labels = [str(fid) for fid in s.nodes]
    rounds = [list(labels)]
    for _ in range(FINGERPRINT_RADIUS):
        labels = [
            labels[v] + "|" + ",".join(
                f"{a}:{b}:{labels[u]}" for a, b, u in sorted(neigh[v], key=lambda t: (t[0], t[1], labels[t[2]]))
            )
            for v in range(s.n)
        ]
        rounds.append(list(labels))
    return rounds


def fingerprint(s: LigandState) -> np.ndarray:
    """Binary vector hashed from rooted subgraph labels up to FINGERPRINT_RADIUS."""
    _require_terminal(s, "fingerprint")
    bits = np.zeros(FINGERPRINT_BITS, dtype=np.uint8)
    for r, labels in enumerate(_wl_labels(s)):
        for label in labels:
            digest = sha256(f"{r}|{label}".encode()).digest()
            bits[int.from_bytes(digest[:8], "big") % FINGERPRINT_BITS] = 1
    return bits


def _bit_rows(prints) -> np.ndarray:
    """Fingerprints as the float rows of one matrix, nonzero entries set to 1."""
    return np.asarray(prints, dtype=bool).reshape(len(prints), -1).astype(np.float64)


def _tanimoto(shared, c_i, c_j):
    """1 - shared / union from shared and per-print bit counts; two empty prints are 0 apart."""
    union = c_i + c_j - shared
    return 1.0 - np.divide(shared, union, out=np.ones_like(union), where=union > 0)


def tanimoto_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    if f1.shape != f2.shape:
        raise MetricError(f"fingerprint length mismatch: {f1.shape} vs {f2.shape}")
    a, b = _bit_rows([f1, f2])
    return float(_tanimoto(a @ b, a.sum(), b.sum()))


def diversity(states: list[LigandState]) -> float:
    """Mean pairwise Tanimoto distance between state fingerprints.

    Row i of the fingerprint matrix meets rows i+1.. in one matrix-vector
    product, so memory stays O(n) rows. Each row's distances are added to
    the running total in pair order (cumsum is sequential), which gives the
    same float as adding the pairs one at a time.
    """
    if len(states) < 2:
        raise MetricError(f"diversity needs at least 2 states, got {len(states)}")
    rows = _bit_rows([fingerprint(s) for s in states])
    counts = rows.sum(axis=1)
    n = len(rows)
    total = 0.0
    for i in range(n - 1):
        d = _tanimoto(rows[i + 1:] @ rows[i], counts[i], counts[i + 1:])
        d[0] += total
        total = np.cumsum(d)[-1]
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

