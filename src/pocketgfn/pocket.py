"""Protein pocket graphs: KNN construction, invariant features, two-track encoding.

Residues are Calpha-only records. Scalar features (residue type, pseudo-dihedral)
are rigid-motion invariant by construction; chain direction vectors live on a
separate vector track and reach the scalar track only through norms and dots,
so the final node embeddings are invariant too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor
from .files import json_float, json_int, read_json_lines
from .nn import ParamStore, layer_norm_affine, mlp_params

N_RESIDUE_TYPES = 20
MAX_BACKBONE_SEP = 32
DEFAULT_K = 8

N_SCALAR_FEATURES = N_RESIDUE_TYPES + 2  # one-hot + sin/cos pseudo-dihedral
N_VECTOR_CHANNELS = 2  # forward / backward chain unit vectors

# Per-residue-type polarity, increasing with the type id.
POLARITY_TABLE = np.arange(N_RESIDUE_TYPES) / (N_RESIDUE_TYPES - 1)


class PocketError(ValueError):
    """Malformed pocket input."""


@dataclass(frozen=True)
class Residue:
    index: int
    residue_type: int
    ca: np.ndarray

    def __post_init__(self):
        ca = np.asarray(self.ca, dtype=np.float64)
        if ca.shape != (3,):
            raise PocketError(f"ca must be a 3-vector, got shape {ca.shape}")
        if not np.all(np.isfinite(ca)):
            raise PocketError("ca coordinates must be finite")
        if not 0 <= self.residue_type < N_RESIDUE_TYPES:
            raise PocketError(f"residue_type {self.residue_type} out of range [0, {N_RESIDUE_TYPES})")
        if self.index < 0:
            raise PocketError(f"index must be >= 0, got {self.index}")
        object.__setattr__(self, "ca", ca)


@dataclass
class PocketGraph:
    residues: list[Residue]
    neighbor_idx: np.ndarray  # (n, K) target node of each outgoing edge
    edge_dist: np.ndarray  # (n, K) euclidean distance
    edge_sep: np.ndarray  # (n, K) |index_i - index_j| clipped
    edge_dir: np.ndarray  # (n, K, 3) unit direction i -> j, zero when coincident
    dist_matrix: np.ndarray  # (n, n)
    gyration_radius: float  # radius of gyration of the Calpha coordinates
    polarity: float  # mean residue-type polarity

    @property
    def n(self) -> int:
        return len(self.residues)

    @property
    def coords(self) -> np.ndarray:
        return np.stack([r.ca for r in self.residues])


@dataclass
class PocketContext:
    """Everything the policy needs about one pocket, computed once per pass."""

    node_embeddings: DiffTensor  # (n, c)
    pooled: DiffTensor  # (1, c), arithmetic mean of node rows
    dist_matrix: np.ndarray  # (n, n)


def pairwise_distance_matrix(coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise PocketError(f"coords must be (n, 3), got {coords.shape}")
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return d


def radius_of_gyration(coords: np.ndarray) -> float:
    coords = np.asarray(coords, dtype=np.float64)
    centered = coords - coords.mean(axis=0)
    return float(np.sqrt((centered**2).sum(axis=1).mean()))


def build_knn_graph(residues: list[Residue], K: int = DEFAULT_K) -> PocketGraph:
    """Directed KNN edges by Calpha distance; ties go to the lower residue index.
    The pocket-level terms of the docking proxy are computed here, once per pocket."""
    n = len(residues)
    if n < 2:
        raise PocketError(f"need at least 2 residues, got {n}")
    if K < 1:
        raise PocketError(f"K must be >= 1, got {K}")
    coords = np.stack([r.ca for r in residues])
    with np.errstate(over="ignore", invalid="ignore"):
        dist = pairwise_distance_matrix(coords)
        gyration_radius = radius_of_gyration(coords)
    if not (np.isfinite(dist).all() and np.isfinite(gyration_radius)):
        raise PocketError("residue coordinates too far apart: distances overflow the float range")
    # offsets from the lowest index are exact integers however large the indices are
    lowest = min(r.index for r in residues)
    indices = np.array([r.index - lowest for r in residues])
    k_eff = min(K, n - 1)

    neighbor_idx = np.zeros((n, k_eff), dtype=np.intp)
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[i, j], indices[j]))
        neighbor_idx[i] = order[:k_eff]

    rows = np.repeat(np.arange(n), k_eff)
    cols = neighbor_idx.reshape(-1)
    edge_dist = dist[rows, cols].reshape(n, k_eff)
    edge_sep = np.minimum(np.abs(indices[rows] - indices[cols]), MAX_BACKBONE_SEP).reshape(n, k_eff).astype(np.float64)
    delta = coords[cols] - coords[rows]
    with np.errstate(invalid="ignore"):
        direction = np.where(edge_dist.reshape(-1, 1) > 0, delta / np.maximum(edge_dist.reshape(-1, 1), 1e-300), 0.0)
    edge_dir = direction.reshape(n, k_eff, 3)

    return PocketGraph(
        residues=list(residues),
        neighbor_idx=neighbor_idx,
        edge_dist=edge_dist,
        edge_sep=edge_sep,
        edge_dir=edge_dir,
        dist_matrix=dist,
        gyration_radius=gyration_radius,
        polarity=float(np.mean([POLARITY_TABLE[r.residue_type] for r in residues])),
    )


def _dihedral_sincos(p0, p1, p2, p3) -> tuple[float, float]:
    b1 = p1 - p0
    b2 = p2 - p1
    b3 = p3 - p2
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    n1_norm = np.linalg.norm(n1)
    n2_norm = np.linalg.norm(n2)
    b2_norm = np.linalg.norm(b2)
    if n1_norm < 1e-9 or n2_norm < 1e-9 or b2_norm < 1e-9:
        return 0.0, 1.0  # collinear stretch: angle undefined, use 0
    x = float(np.dot(n1, n2))
    y = float(np.dot(np.cross(n1, n2), b2 / b2_norm))
    angle = np.arctan2(y, x)
    return float(np.sin(angle)), float(np.cos(angle))


def node_features(residues: list[Residue], graph: PocketGraph) -> tuple[np.ndarray, np.ndarray]:
    """Returns (scalars (n, 22), vectors (n, 2, 3)).

    Scalars: residue-type one-hot, then sin/cos of the pseudo-dihedral over
    Calpha(i-1..i+2), zeroed where the window runs off a chain end.
    Vectors: unit chain vectors to the next and previous residue.
    """
    n = len(residues)
    coords = graph.coords
    scalars = np.zeros((n, N_SCALAR_FEATURES))
    vectors = np.zeros((n, N_VECTOR_CHANNELS, 3))
    # chain order comes from the stored residue index, not list position, so
    # permuting the input list just permutes the feature rows
    pos_of = {r.index: p for p, r in enumerate(residues)}
    for p, r in enumerate(residues):
        scalars[p, r.residue_type] = 1.0
        window = [pos_of.get(r.index + d) for d in (-1, 0, 1, 2)]
        if all(w is not None for w in window):
            s, c = _dihedral_sincos(*(coords[w] for w in window))
            scalars[p, N_RESIDUE_TYPES] = s
            scalars[p, N_RESIDUE_TYPES + 1] = c
        nxt = pos_of.get(r.index + 1)
        if nxt is not None:
            fwd = coords[nxt] - coords[p]
            norm = np.linalg.norm(fwd)
            if norm > 1e-9:
                vectors[p, 0] = fwd / norm
        prv = pos_of.get(r.index - 1)
        if prv is not None:
            bwd = coords[prv] - coords[p]
            norm = np.linalg.norm(bwd)
            if norm > 1e-9:
                vectors[p, 1] = bwd / norm
    return scalars, vectors


def _vector_norms(v: DiffTensor) -> DiffTensor:
    # (n, k, V, 3) -> (n, k, V); epsilon keeps sqrt differentiable at zero vectors
    sq = ad.einsum2("nkvc,nkvc->nkv", v, v)
    return ad.sqrt(ad.add(sq, ad.constant(np.full(sq.shape, 1e-8))))


def encode_pocket(graph: PocketGraph, params: ParamStore, L_layers: int, c_pocket: int) -> PocketContext:
    """Two-track (scalar/vector) message passing over the KNN graph.

    The vector track carries chain directions and stays equivariant; it feeds
    the scalar track only through norms and dots with edge directions, so
    node_embeddings are invariant under rigid motion of the input coordinates.
    Nothing reads the vector track after the last layer's scalar update.
    Edge tensors are (n, k, ...), node i's k outgoing edges in row i, so the
    mean over each node's messages is one contraction of the k axis.
    """
    n = graph.n
    k = graph.neighbor_idx.shape[1]
    scalars_np, vectors_np = node_features(graph.residues, graph)

    embed_w = params.param("pocket.embed.w", (N_SCALAR_FEATURES, c_pocket))
    s = ad.mlp(ad.constant(scalars_np), [(embed_w, params.param("pocket.embed.b", (c_pocket,), fan_in=N_SCALAR_FEATURES))])
    v = ad.constant(vectors_np)

    rows = np.repeat(np.arange(n)[:, None], k, axis=1)
    cols = graph.neighbor_idx
    edge_scalars = ad.constant(np.stack([graph.edge_dist / 10.0, graph.edge_sep / MAX_BACKBONE_SEP], axis=-1))
    edge_dir = ad.constant(graph.edge_dir)
    mean_k = ad.constant(np.full(k, 1.0 / k))

    nV = N_VECTOR_CHANNELS
    msg_in_dim = 2 * c_pocket + 2 + 2 * nV + 2 * nV

    for layer in range(L_layers):
        name = f"pocket.layer{layer}"
        s_i = ad.gather_rows(s, rows)
        s_j = ad.gather_rows(s, cols)
        v_i = ad.gather_rows(v, rows)
        v_j = ad.gather_rows(v, cols)
        # invariant vector readouts: channel norms and projections on the edge
        norms_i = _vector_norms(v_i)
        norms_j = _vector_norms(v_j)
        proj_i = ad.einsum2("nkvc,nkc->nkv", v_i, edge_dir)
        proj_j = ad.einsum2("nkvc,nkc->nkv", v_j, edge_dir)
        msg_in = ad.concat([s_i, s_j, edge_scalars, norms_i, norms_j, proj_i, proj_j], axis=2)
        msg = ad.mlp(msg_in, mlp_params(params, f"{name}.msg", [msg_in_dim, c_pocket, c_pocket]))
        agg = ad.einsum2("nkc,k->nc", msg, mean_k)
        s = layer_norm_affine(params, f"{name}.ln", ad.add(s, agg), c_pocket)
        if layer == L_layers - 1:
            break

        # equivariant vector update: gated edge directions + channel remixing
        gate = ad.matmul(msg, params.param(f"{name}.gate.w", (c_pocket, nV)))
        dir_term = ad.einsum2("nkv,nkc->nkvc", gate, edge_dir)
        mix = ad.einsum2("nkvc,vw->nkwc", v_j, params.param(f"{name}.vmix.w", (nV, nV), fan_in=nV))
        v_msg = ad.add(dir_term, mix)
        v_agg = ad.einsum2("nkvc,k->nvc", v_msg, mean_k)
        v = ad.add(v, v_agg)

    return PocketContext(node_embeddings=s, pooled=ad.mean_rows(s), dist_matrix=graph.dist_matrix)


# ---------------------------------------------------------------------------
# I/O and synthesis
# ---------------------------------------------------------------------------


def _residue(rec: dict) -> Residue:
    return Residue(index=json_int(rec["index"], "'index'"), residue_type=json_int(rec["res"], "'res'"),
                   ca=np.asarray([json_float(x, "'ca' entry") for x in rec["ca"]]))


def load_pocket_jsonl(path: str) -> list[Residue]:
    """One residue per line: {"index": int, "res": int, "ca": [x, y, z]}.

    Indices must form a contiguous run (sorted order is not required on disk).
    """
    residues = [r for _, _, r in read_json_lines(path, PocketError, "residue", _residue)]
    residues.sort(key=lambda r: r.index)
    idx = [r.index for r in residues]
    if len(set(idx)) != len(idx):
        raise PocketError(f"{path}: duplicate residue indices")
    if idx != list(range(idx[0], idx[0] + len(idx))):
        raise PocketError(f"{path}: residue indices not contiguous: {idx}")
    return residues


def save_pocket_jsonl(path: str, residues: list[Residue]) -> None:
    with open(path, "w") as fh:
        for r in residues:
            fh.write(json.dumps({"index": r.index, "res": r.residue_type, "ca": [float(x) for x in r.ca]}) + "\n")


def synthetic_pocket(n: int, spread: float, seed: int, polar_fraction: float = 0.5) -> list[Residue]:
    """Random walk chain scaled to roughly the requested coordinate spread.

    polar_fraction controls how many residues get high-polarity type ids
    (types are ordered so that polarity rises with the id).
    """
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(n, 3))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    coords = np.cumsum(steps * 1.5, axis=0)
    coords -= coords.mean(axis=0)
    rg = radius_of_gyration(coords)
    if rg > 0:
        coords *= spread / rg
    n_polar = int(round(polar_fraction * n))
    types = np.concatenate([
        rng.integers(12, N_RESIDUE_TYPES, size=n_polar),  # high-id = polar
        rng.integers(0, 8, size=n - n_polar),
    ])
    rng.shuffle(types)
    return [Residue(index=i, residue_type=int(types[i]), ca=coords[i]) for i in range(n)]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via QR of a Gaussian matrix, det forced to +1."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def transform_residues(residues: list[Residue], rotation: np.ndarray, translation: np.ndarray) -> list[Residue]:
    return [Residue(index=r.index, residue_type=r.residue_type, ca=rotation @ r.ca + translation) for r in residues]
