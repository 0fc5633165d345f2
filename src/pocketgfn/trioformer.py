"""Pocket-ligand pair embeddings with distance-biased triangle attention.

Every block takes one layout, batched: the pair tensor is
(B, n_pocket, n_ligand, c_pair), the node tracks are (1 or B, n, c) and
distance features are (1 or B, n, n, f), so one pass conditions a batch of B
ligands with the same node count on one pocket (a single ligand is the batch
of one); a batch size of 1 is shared by the batch and broadcasts. One fold
of the update attends along the pocket axis with real-distance biases, the
other along the ligand axis with adjacency biases; a position-wise
transition and biased cross-attention back into the node tracks complete a
layer. Every attention block, its layer norms and projections included, is
one ``autodiff.attention`` node, given the axis it attends along; the
transition and the biased pocket projection are ``autodiff.mlp`` nodes and
the other projections ``autodiff.matmul`` nodes, each on the track it
projects. All blocks are pre-norm residuals on the tape engine,
differentiable and checkpointable.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor, DimensionError
from .nn import ParamStore, layer_norm_params, mlp_params

N_RBF = 16
RBF_MAX_DIST = 20.0
RBF_WIDTH = 1.25


def rbf_basis(d: np.ndarray) -> np.ndarray:
    """Gaussian radial basis activations over distances, (..., 16)."""
    d = np.asarray(d, dtype=np.float64)
    centers = np.linspace(0.0, RBF_MAX_DIST, N_RBF)
    return np.exp(-((d[..., None] - centers) ** 2) / (2.0 * RBF_WIDTH**2))


def adjacency_onehot(adj: np.ndarray) -> np.ndarray:
    """{0,1} adjacency -> one-hot (..., 2): [1,0] non-neighbor, [0,1] neighbor."""
    adj = np.asarray(adj, dtype=np.float64)
    return np.stack([1.0 - adj, adj], axis=-1)


def init_pair_embeddings(h_pocket: DiffTensor, h_ligand: DiffTensor, store: ParamStore, prefix: str, c_pair: int) -> DiffTensor:
    """Outer sum of per-track linear projections: tracks (1 or B, n_P, c_P)
    and (1 or B, n_L, c_L) -> pair (B, n_P, n_L, c_pair). Each track is
    projected at its own batch size, so a shared track is projected once."""
    b_p, n_p, c_p = h_pocket.shape
    b_l, n_l, c_l = h_ligand.shape
    if n_p == 0 or n_l == 0:
        raise DimensionError("pair embeddings need at least one node on each side")
    layer_p = store.param(f"{prefix}.pair_p.w", (c_p, c_pair)), store.param(f"{prefix}.pair_p.b", (c_pair,), fan_in=c_p)
    proj_p = ad.mlp(h_pocket, [layer_p])
    proj_l = ad.matmul(h_ligand, store.param(f"{prefix}.pair_l.w", (c_l, c_pair)))
    return ad.add(ad.reshape(proj_p, (b_p, n_p, 1, c_pair)), ad.reshape(proj_l, (b_l, 1, n_l, c_pair)))


def triangle_update(
    pair: DiffTensor,
    dist_features: np.ndarray,
    axis: str,
    store: ParamStore,
    prefix: str,
    n_heads: int,
    head_dim: int,
) -> DiffTensor:
    """One fold of the pair update: each pair row attends along `axis`.

    Per-head logits: (query . key + distance bias) / sqrt(c). A per-row scalar
    bias would be constant over the attended axis and cancel in the softmax,
    so there is none.
    axis="pocket": row (i, j) attends over pocket nodes k, keys from pair[k, j],
    distance bias from dist_features[i, k]. axis="ligand": row (i, j) attends
    over ligand nodes k, keys from pair[i, k], bias from dist_features[j, k]
    (indices within one batch entry). ``pair`` is (B, n_P, n_L, c);
    ``dist_features`` is (1, n, n, f), shared by the batch, or (B, n, n, f).

    The block is one ``autodiff.attention`` node that normalizes the pair
    and attends along its axis 1 (pocket) or 2 (ligand). The distance bias
    is one ``autodiff.matmul`` of the (1 or B, 1, n, n, f) features, heads
    last, (1 or B, 1, n, n, heads), as ``attention`` takes it; it
    broadcasts over the other node axis.
    """
    b, _, _, c_pair = pair.shape
    dim = {"pocket": 1, "ligand": 2}.get(axis)
    if dim is None:
        raise ValueError(f"axis must be 'pocket' or 'ligand', got {axis!r}")
    n_axis = pair.shape[dim]
    feats = np.asarray(dist_features, dtype=np.float64)
    if feats.ndim != 4 or feats.shape[0] not in (1, b) or feats.shape[1:3] != (n_axis, n_axis):
        raise DimensionError(f"{axis} distance features must be (1 or {b}, {n_axis}, {n_axis}, f), got {feats.shape}")

    norm = layer_norm_params(store, f"{prefix}.ln", c_pair)
    w_q, w_k, w_v = (store.param(f"{prefix}.{t}.w", (c_pair, n_heads * head_dim)) for t in "qkv")
    bias = ad.matmul(ad.constant(feats[:, None]), store.param(f"{prefix}.t.w", (feats.shape[3], n_heads)))
    w_o = store.param(f"{prefix}.o.w", (n_heads * head_dim, c_pair))
    update = ad.attention(pair, pair, norm, norm, w_q, w_k, w_v, w_o, bias, dim)
    return ad.add(pair, update)


def pair_transition(pair: DiffTensor, store: ParamStore, prefix: str) -> DiffTensor:
    """Position-wise pre-norm MLP with a residual, one ``autodiff.mlp`` node;
    pair (B, n_P, n_L, c) in and out."""
    c_pair = pair.shape[-1]
    norm = layer_norm_params(store, f"{prefix}.ln", c_pair)
    return ad.add(pair, ad.mlp(pair, mlp_params(store, f"{prefix}.mlp", [c_pair, 2 * c_pair, c_pair]), norm))


def biased_cross_attention(
    h_q: DiffTensor,
    h_kv: DiffTensor,
    bias: DiffTensor,
    store: ParamStore,
    prefix: str,
    n_heads: int,
    head_dim: int,
) -> DiffTensor:
    """Track ``h_q`` (1 or B, n_q, c_q) attends over ``h_kv`` (1 or B, n_kv,
    c_kv), logits biased by ``bias`` (B, n_q, n_kv, heads), heads last as a
    projection makes it; returns the pre-norm residual update of the query
    track, (B, n_q, c_q). The block is one ``autodiff.attention`` node along
    the node axis, which normalizes each track at its own batch size."""
    c_q, c_kv = h_q.shape[-1], h_kv.shape[-1]
    norm_q = layer_norm_params(store, f"{prefix}.ln_q", c_q)
    norm_kv = layer_norm_params(store, f"{prefix}.ln_kv", c_kv)
    w_q = store.param(f"{prefix}.q.w", (c_q, n_heads * head_dim))
    w_k, w_v = (store.param(f"{prefix}.{t}.w", (c_kv, n_heads * head_dim)) for t in "kv")
    w_o = store.param(f"{prefix}.o.w", (n_heads * head_dim, c_q))
    update = ad.attention(h_q, h_kv, norm_q, norm_kv, w_q, w_k, w_v, w_o, bias, 1)
    return ad.add(h_q, update)


def trioformer_stack(
    h_pocket: DiffTensor,
    h_ligand: DiffTensor,
    pocket_dist: np.ndarray,
    ligand_adjacency: np.ndarray,
    store: ParamStore,
    prefix: str,
    n_layers: int,
    n_heads: int,
    head_dim: int,
    c_pair: int,
) -> DiffTensor:
    """Full conditioning stack; returns the refined ligand node track.

    Layer order: pocket-axis triangle update, ligand-axis triangle update,
    pair transition, cross-attention into the node tracks, both directions
    biased by one per-head projection of the pair. Layers after the first
    fold the refreshed tracks back into the pair tensor by an additive
    re-projection. The pocket track is updated only where a later layer
    reads it, so not by the last layer.

    A batch of B ligands against one pocket: ``h_ligand`` is (B, n_L, c)
    and ``ligand_adjacency`` (B, n_L, n_L); the pocket track (n_P, c_P) and
    ``pocket_dist`` (n_P, n_P) are shared, and the pocket track broadcasts
    as (1, n_P, c_P) until its first update. Returns the (B, n_L, c) track.
    """
    if n_layers == 0:
        return h_ligand
    h_pocket = ad.reshape(h_pocket, (1, *h_pocket.shape))
    d_feats = rbf_basis(pocket_dist)[None]
    adj_feats = adjacency_onehot(ligand_adjacency)
    pair = init_pair_embeddings(h_pocket, h_ligand, store, f"{prefix}.init0", c_pair)
    for layer in range(n_layers):
        name = f"{prefix}.layer{layer}"
        if layer > 0:
            pair = ad.add(pair, init_pair_embeddings(h_pocket, h_ligand, store, f"{prefix}.init{layer}", c_pair))
        pair = triangle_update(pair, d_feats, "pocket", store, f"{name}.tri_p", n_heads, head_dim)
        pair = triangle_update(pair, adj_feats, "ligand", store, f"{name}.tri_l", n_heads, head_dim)
        pair = pair_transition(pair, store, f"{name}.trans")
        # [batch, pocket node, ligand node, head]: the pocket track's bias as
        # it is, the ligand track's with its two node axes swapped
        bias = ad.matmul(pair, store.param(f"{name}.cross.bias.w", (pair.shape[-1], n_heads)))
        h_prev = h_ligand
        h_ligand = biased_cross_attention(
            h_prev, h_pocket, ad.permute(bias, (0, 2, 1, 3)), store, f"{name}.cross.lig", n_heads, head_dim)
        if layer + 1 < n_layers:
            h_pocket = biased_cross_attention(h_pocket, h_prev, bias, store, f"{name}.cross.poc", n_heads, head_dim)
    return h_ligand


def pool_graph_embedding(h_ligand: DiffTensor) -> DiffTensor:
    """Arithmetic mean over the nodes of each graph: (B, n, c) -> (B, c)."""
    n = h_ligand.shape[1]
    if n == 0:
        raise DimensionError("cannot pool an empty node set")
    return ad.einsum2("bnc,n->bc", h_ligand, ad.constant(np.full(n, 1.0 / n)))


# ---------------------------------------------------------------------------
# Plain-numpy references for ablation checks
# ---------------------------------------------------------------------------


def _reference_norm(x: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance rows over the last axis, straight numpy."""
    mean = x.mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(x.var(axis=-1, keepdims=True) + ad.LN_EPS)


def reference_pair_attention(pair: np.ndarray, axis: str, wq, wk, wv, wo, n_heads: int, head_dim: int) -> np.ndarray:
    """Unbiased multi-head attention along one pair axis of one batch entry
    (n_P, n_L, c), straight numpy.

    Used to verify that zeroing the bias projections reduces triangle_update
    to ordinary attention.
    """
    n_p, n_l, c_pair = pair.shape
    normed = _reference_norm(pair)
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
    """Plain unbiased cross-attention for one track of one batch entry,
    (n_q, c) attending over (n_kv, c), straight numpy."""
    n_q = h_q.shape[0]
    n_kv = h_kv.shape[0]
    q = (_reference_norm(h_q) @ wq).reshape(n_q, n_heads, head_dim)
    k = (_reference_norm(h_kv) @ wk).reshape(n_kv, n_heads, head_dim)
    v = (_reference_norm(h_kv) @ wv).reshape(n_kv, n_heads, head_dim)
    logits = np.einsum("qhc,khc->qhk", q, k) / np.sqrt(head_dim)
    logits -= logits.max(axis=-1, keepdims=True)
    att = np.exp(logits)
    att /= att.sum(axis=-1, keepdims=True)
    out = np.einsum("qhk,khc->qhc", att, v).reshape(n_q, n_heads * head_dim) @ wo
    return h_q + out
