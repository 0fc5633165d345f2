"""Reference scores, fingerprints and set diversity, for checking ``pocketgfn.rewards``.

The scores are the original one-molecule formulas: the docking quality from
the molecule's size (a sum) and mean polarity (``np.mean`` of its node list)
through ``math.exp``, the QED quality from its fragment count, and the SA
quality from the count of its most common fragment (``Counter``).

The fingerprint is the original one-state form: every node's label at every
radius is built and hashed with sha256 on its own, with no sharing across
states. Each pair of fingerprints is compared on its own and the distances
are added in row-major (i, j) order, so diversity runs in Python time
quadratic in the set size: usable up to a few hundred states.
"""

import math
from collections import Counter
from hashlib import sha256

import numpy as np

from pocketgfn.ligand import bonds_by_node
from pocketgfn.rewards import (
    DS_SCALE,
    FINGERPRINT_BITS,
    FINGERPRINT_RADIUS,
    RHO,
    SIGMA_POLARITY,
    SIGMA_SIZE,
    MetricError,
)


def _require_terminal(s, op: str) -> None:
    if not s.terminal:
        raise MetricError(f"{op} needs a terminal state, got a partial one with {s.n} nodes")
    if s.n == 0:
        raise MetricError(f"{op} needs a nonempty state")


def docking_quality(pocket, s, library) -> float:
    """In [0, 1]; peaks when size and polarity both hit the pocket's targets."""
    _require_terminal(s, "docking_quality")
    size = sum(library.get(fid).size for fid in s.nodes)
    polarity = float(np.mean([library.get(fid).polarity for fid in s.nodes]))
    size_term = math.exp(-((size - RHO * pocket.gyration_radius) ** 2) / (2 * SIGMA_SIZE**2))
    pol_term = math.exp(-((polarity - pocket.polarity) ** 2) / (2 * SIGMA_POLARITY**2))
    return size_term * pol_term


def docking_score(pocket, s, library) -> float:
    return DS_SCALE * docking_quality(pocket, s, library)


def qed_quality(s) -> float:
    _require_terminal(s, "qed_quality")
    return math.exp(-((s.n - 4) ** 2) / 2)


def sa_quality(s) -> float:
    _require_terminal(s, "sa_quality")
    return Counter(s.nodes).most_common(1)[0][1] / s.n


def state_quality(pocket, s, library, weights) -> float:
    """The weighted blend of the three qualities of one molecule."""
    return (weights.w_ds * docking_quality(pocket, s, library) + weights.w_qed * qed_quality(s)
            + weights.w_sa * sa_quality(s))


def _wl_labels(s) -> list[list[str]]:
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


def fingerprint(s) -> np.ndarray:
    """Binary vector hashed from rooted subgraph labels up to FINGERPRINT_RADIUS."""
    _require_terminal(s, "fingerprint")
    bits = np.zeros(FINGERPRINT_BITS, dtype=np.uint8)
    for r, labels in enumerate(_wl_labels(s)):
        for label in labels:
            digest = sha256(f"{r}|{label}".encode()).digest()
            bits[int.from_bytes(digest[:8], "big") % FINGERPRINT_BITS] = 1
    return bits


def tanimoto_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    if f1.shape != f2.shape:
        raise MetricError(f"fingerprint length mismatch: {f1.shape} vs {f2.shape}")
    a = f1.astype(bool)
    b = f2.astype(bool)
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 0.0
    return 1.0 - np.logical_and(a, b).sum() / union


def diversity(states) -> float:
    """Mean pairwise Tanimoto distance between state fingerprints."""
    if len(states) < 2:
        raise MetricError(f"diversity needs at least 2 states, got {len(states)}")
    prints = [fingerprint(s) for s in states]
    total = 0.0
    count = 0
    for i in range(len(prints)):
        for j in range(i + 1, len(prints)):
            total += tanimoto_distance(prints[i], prints[j])
            count += 1
    return total / count
