"""Reference set diversity by one call per pair, for checking ``pocketgfn.rewards``.

Each pair of fingerprints is compared on its own and the distances are added
in row-major (i, j) order, so it runs in Python time quadratic in the set
size: usable up to a few hundred states.
"""

import numpy as np

from pocketgfn.rewards import MetricError, fingerprint


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
