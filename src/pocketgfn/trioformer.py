"""Pocket-ligand pair embeddings with distance-biased triangle attention.

The pair tensor is stored (n_pocket, n_ligand, c_pair). One fold of the update
attends along the pocket axis with real-distance biases, the other along the
ligand axis with adjacency biases; a position-wise transition and biased
cross-attention back into the node tracks complete a layer. All blocks are
pre-norm residuals built on the tape engine, so the whole stack is
differentiable and checkpointable.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor, DimensionError, tensor
from .nn import ParamStore, layer_norm_affine, mlp_apply, mlp_params

N_RBF = 16
RBF_MAX_DIST = 20.0
RBF_WIDTH = 1.25

DEFAULT_LAYERS = 2
DEFAULT_HEADS = 4
DEFAULT_HEAD_DIM = 16
DEFAULT_C_PAIR = 32


def rbf_basis(d: np.ndarray) -> np.ndarray:
    """Gaussian radial basis activations over distances, (..., 16)."""
    d = np.asarray(d, dtype=np.float64)
    centers = np.linspace(0.0, RBF_MAX_DIST, N_RBF)
    return np.exp(-((d[..., None] - centers) ** 2) / (2.0 * RBF_WIDTH**2))


def adjacency_onehot(adj: np.ndarray) -> np.ndarray:
    """{0,1} adjacency -> one-hot (..., 2): [1,0] non-neighbor, [0,1] neighbor."""
    adj = np.asarray(adj, dtype=np.float64)
    return np.stack([1.0 - adj, adj], axis=-1)


def init_pair_embeddings(
    h_pocket: DiffTensor, h_ligand: DiffTensor, store: ParamStore, prefix: str, c_pair: int = DEFAULT_C_PAIR
) -> DiffTensor:
    """Outer sum of per-track linear projections -> (n_P, n_L, c_pair)."""
    n_p, c_p = h_pocket.shape
    n_l, c_l = h_ligand.shape
    if n_p == 0 or n_l == 0:
        raise DimensionError("pair embeddings need at least one node on each side")
    proj_p = ad.matmul(h_pocket, store.param(f"{prefix}.pair_p.w", (c_p, c_pair)))
    proj_p = ad.add(proj_p, store.param(f"{prefix}.pair_p.b", (c_pair,), fan_in=c_p))
    proj_l = ad.matmul(h_ligand, store.param(f"{prefix}.pair_l.w", (c_l, c_pair)))
    return ad.add(ad.reshape(proj_p, (n_p, 1, c_pair)), ad.reshape(proj_l, (1, n_l, c_pair)))


def _heads_proj(store, prefix, x_flat: DiffTensor, c_in: int, n_heads: int, head_dim: int, shape):
    w = store.param(f"{prefix}.w", (c_in, n_heads * head_dim))
    return ad.reshape(ad.matmul(x_flat, w), (*shape, n_heads, head_dim))


def triangle_update(
    pair: DiffTensor,
    dist_features: np.ndarray,
    axis: str,
    store: ParamStore,
    prefix: str,
    n_heads: int = DEFAULT_HEADS,
    head_dim: int = DEFAULT_HEAD_DIM,
) -> DiffTensor:
    """One fold of the pair update: each pair row attends along `axis`.

    Per-head logits: (query . key + distance bias) / sqrt(c). A per-row scalar
    bias would be constant over the attended axis and cancel in the softmax,
    so there is none.
    axis="pocket": row (i, j) attends over pocket nodes k, keys from pair[k, j],
    distance bias from dist_features[i, k]. axis="ligand": row (i, j) attends
    over ligand nodes k, keys from pair[i, k], bias from dist_features[j, k].
    """
    n_p, n_l, c_pair = pair.shape
    if axis == "pocket":
        n_axis = n_p
    elif axis == "ligand":
        n_axis = n_l
    else:
        raise ValueError(f"axis must be 'pocket' or 'ligand', got {axis!r}")
    feats = np.asarray(dist_features, dtype=np.float64)
    if feats.ndim != 3 or feats.shape[0] != n_axis or feats.shape[1] != n_axis:
        raise DimensionError(f"{axis} distance features must be ({n_axis}, {n_axis}, f), got {feats.shape}")

    normed = ad.reshape(layer_norm_affine(store, f"{prefix}.ln", ad.reshape(pair, (n_p * n_l, c_pair)), c_pair), (n_p, n_l, c_pair))
    flat = ad.reshape(normed, (n_p * n_l, c_pair))
    q = _heads_proj(store, f"{prefix}.q", flat, c_pair, n_heads, head_dim, (n_p, n_l))
    k = _heads_proj(store, f"{prefix}.k", flat, c_pair, n_heads, head_dim, (n_p, n_l))
    v = _heads_proj(store, f"{prefix}.v", flat, c_pair, n_heads, head_dim, (n_p, n_l))
    t = tensor(feats.reshape(n_axis * n_axis, feats.shape[2]))
    t = ad.reshape(ad.matmul(t, store.param(f"{prefix}.t.w", (feats.shape[2], n_heads))), (n_axis, n_axis, n_heads))

    if axis == "pocket":
        logits = ad.einsum2("ijhc,kjhc->ijhk", q, k)
        bias = ad.reshape(ad.permute(t, (0, 2, 1)), (n_p, 1, n_heads, n_p))
    else:
        logits = ad.einsum2("ijhc,ikhc->ijhk", q, k)
        bias = ad.reshape(ad.permute(t, (0, 2, 1)), (1, n_l, n_heads, n_l))
    logits = ad.scale(ad.add(logits, bias), 1.0 / np.sqrt(head_dim))
    att = ad.reshape(ad.softmax_rows(ad.reshape(logits, (n_p * n_l * n_heads, n_axis))), (n_p, n_l, n_heads, n_axis))
    if axis == "pocket":
        gathered = ad.einsum2("ijhk,kjhc->ijhc", att, v)
    else:
        gathered = ad.einsum2("ijhk,ikhc->ijhc", att, v)
    out_flat = ad.reshape(gathered, (n_p * n_l, n_heads * head_dim))
    out = ad.matmul(out_flat, store.param(f"{prefix}.o.w", (n_heads * head_dim, c_pair)))
    return ad.add(pair, ad.reshape(out, (n_p, n_l, c_pair)))


def pair_transition(pair: DiffTensor, store: ParamStore, prefix: str) -> DiffTensor:
    n_p, n_l, c_pair = pair.shape
    flat = ad.reshape(pair, (n_p * n_l, c_pair))
    normed = layer_norm_affine(store, f"{prefix}.ln", flat, c_pair)
    hidden = mlp_apply(normed, mlp_params(store, f"{prefix}.mlp", [c_pair, 2 * c_pair, c_pair]))
    return ad.add(pair, ad.reshape(hidden, (n_p, n_l, c_pair)))


def biased_cross_attention(
    h_pocket: DiffTensor,
    h_ligand: DiffTensor,
    pair: DiffTensor,
    store: ParamStore,
    prefix: str,
    n_heads: int = DEFAULT_HEADS,
    head_dim: int = DEFAULT_HEAD_DIM,
) -> tuple[DiffTensor, DiffTensor]:
    """Each track attends over the other, logits biased by a scalar head
    projection of the pair embedding; residual on both tracks."""
    n_p, c_p = h_pocket.shape
    n_l, c_l = h_ligand.shape
    pair_flat = ad.reshape(pair, (n_p * n_l, pair.shape[2]))
    bias = ad.reshape(ad.matmul(pair_flat, store.param(f"{prefix}.bias.w", (pair.shape[2], n_heads))), (n_p, n_l, n_heads))

    def one_track(h_q, h_kv, bias_qk, tag, c_q, c_kv):
        n_q = h_q.shape[0]
        n_kv = h_kv.shape[0]
        nq = layer_norm_affine(store, f"{prefix}.{tag}.ln_q", h_q, c_q)
        nkv = layer_norm_affine(store, f"{prefix}.{tag}.ln_kv", h_kv, c_kv)
        q = ad.reshape(ad.matmul(nq, store.param(f"{prefix}.{tag}.q.w", (c_q, n_heads * head_dim))), (n_q, n_heads, head_dim))
        k = ad.reshape(ad.matmul(nkv, store.param(f"{prefix}.{tag}.k.w", (c_kv, n_heads * head_dim))), (n_kv, n_heads, head_dim))
        v = ad.reshape(ad.matmul(nkv, store.param(f"{prefix}.{tag}.v.w", (c_kv, n_heads * head_dim))), (n_kv, n_heads, head_dim))
        logits = ad.scale(ad.add(ad.einsum2("qhc,khc->qhk", q, k), bias_qk), 1.0 / np.sqrt(head_dim))
        att = ad.reshape(ad.softmax_rows(ad.reshape(logits, (n_q * n_heads, n_kv))), (n_q, n_heads, n_kv))
        gathered = ad.reshape(ad.einsum2("qhk,khc->qhc", att, v), (n_q, n_heads * head_dim))
        out = ad.matmul(gathered, store.param(f"{prefix}.{tag}.o.w", (n_heads * head_dim, c_q)))
        return ad.add(h_q, out)

    # ligand queries see pocket keys with bias[pocket k, ligand q, head]
    bias_l = ad.permute(bias, (1, 2, 0))  # (n_l, heads, n_p)
    new_ligand = one_track(h_ligand, h_pocket, bias_l, "lig", c_l, c_p)
    bias_p = ad.permute(bias, (0, 2, 1))  # (n_p, heads, n_l)
    new_pocket = one_track(h_pocket, h_ligand, bias_p, "poc", c_p, c_l)
    return new_pocket, new_ligand


def trioformer_stack(
    h_pocket: DiffTensor,
    h_ligand: DiffTensor,
    pocket_dist: np.ndarray,
    ligand_adjacency: np.ndarray,
    store: ParamStore,
    prefix: str = "trio",
    n_layers: int = DEFAULT_LAYERS,
    n_heads: int = DEFAULT_HEADS,
    head_dim: int = DEFAULT_HEAD_DIM,
    c_pair: int = DEFAULT_C_PAIR,
) -> DiffTensor:
    """Full conditioning stack; returns the refined ligand node track.

    Layer order: pocket-axis triangle update, ligand-axis triangle update,
    pair transition, biased cross-attention into both node tracks. Layers
    after the first fold the refreshed tracks back into the pair tensor by an
    additive re-projection.
    """
    if n_layers == 0:
        return h_ligand
    d_feats = rbf_basis(pocket_dist)
    adj_feats = adjacency_onehot(ligand_adjacency)
    pair = init_pair_embeddings(h_pocket, h_ligand, store, f"{prefix}.init0", c_pair)
    for layer in range(n_layers):
        name = f"{prefix}.layer{layer}"
        if layer > 0:
            pair = ad.add(pair, init_pair_embeddings(h_pocket, h_ligand, store, f"{prefix}.init{layer}", c_pair))
        pair = triangle_update(pair, d_feats, "pocket", store, f"{name}.tri_p", n_heads, head_dim)
        pair = triangle_update(pair, adj_feats, "ligand", store, f"{name}.tri_l", n_heads, head_dim)
        pair = pair_transition(pair, store, f"{name}.trans")
        h_pocket, h_ligand = biased_cross_attention(h_pocket, h_ligand, pair, store, f"{name}.cross", n_heads, head_dim)
    return h_ligand


def pool_graph_embedding(h_ligand: DiffTensor) -> DiffTensor:
    """Arithmetic mean over ligand nodes, shape (1, c)."""
    if h_ligand.shape[0] == 0:
        raise DimensionError("cannot pool an empty node set")
    return ad.mean_rows(h_ligand)


def edge_embedding(h_i: DiffTensor, h_j: DiffTensor) -> DiffTensor:
    """Symmetric edge embedding: elementwise sum of the two node embeddings."""
    if h_i.shape != h_j.shape:
        raise DimensionError(f"edge embedding needs equal widths, got {h_i.shape} and {h_j.shape}")
    return ad.add(h_i, h_j)


# ---------------------------------------------------------------------------
# Plain-numpy references for ablation checks
# ---------------------------------------------------------------------------


def reference_pair_attention(pair: np.ndarray, axis: str, wq, wk, wv, wo, n_heads: int, head_dim: int) -> np.ndarray:
    """Unbiased multi-head attention along one pair axis, straight numpy.

    Used to verify that zeroing the bias projections reduces triangle_update
    to ordinary attention.
    """
    n_p, n_l, c_pair = pair.shape
    flat = pair.reshape(-1, c_pair)
    mean = flat.mean(axis=1, keepdims=True)
    var = flat.var(axis=1, keepdims=True)
    normed = ((flat - mean) / np.sqrt(var + 1e-5)).reshape(n_p, n_l, c_pair)
    q = (normed.reshape(-1, c_pair) @ wq).reshape(n_p, n_l, n_heads, head_dim)
    k = (normed.reshape(-1, c_pair) @ wk).reshape(n_p, n_l, n_heads, head_dim)
    v = (normed.reshape(-1, c_pair) @ wv).reshape(n_p, n_l, n_heads, head_dim)
    if axis == "pocket":
        logits = np.einsum("ijhc,kjhc->ijhk", q, k) / np.sqrt(head_dim)
    else:
        logits = np.einsum("ijhc,ikhc->ijhk", q, k) / np.sqrt(head_dim)
    logits -= logits.max(axis=-1, keepdims=True)
    att = np.exp(logits)
    att /= att.sum(axis=-1, keepdims=True)
    if axis == "pocket":
        gathered = np.einsum("ijhk,kjhc->ijhc", att, v)
    else:
        gathered = np.einsum("ijhk,ikhc->ijhc", att, v)
    out = gathered.reshape(-1, n_heads * head_dim) @ wo
    return pair + out.reshape(n_p, n_l, c_pair)


def reference_cross_attention(h_q: np.ndarray, h_kv: np.ndarray, wq, wk, wv, wo, n_heads: int, head_dim: int) -> np.ndarray:
    """Plain unbiased cross-attention for one track, straight numpy."""

    def ln(x):
        mean = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mean) / np.sqrt(var + 1e-5)

    n_q = h_q.shape[0]
    n_kv = h_kv.shape[0]
    q = (ln(h_q) @ wq).reshape(n_q, n_heads, head_dim)
    k = (ln(h_kv) @ wk).reshape(n_kv, n_heads, head_dim)
    v = (ln(h_kv) @ wv).reshape(n_kv, n_heads, head_dim)
    logits = np.einsum("qhc,khc->qhk", q, k) / np.sqrt(head_dim)
    logits -= logits.max(axis=-1, keepdims=True)
    att = np.exp(logits)
    att /= att.sum(axis=-1, keepdims=True)
    out = np.einsum("qhk,khc->qhc", att, v).reshape(n_q, n_heads * head_dim) @ wo
    return h_q + out
