"""
Geometry-aware conditioning through a pocket-ligand pair tensor
===============================================================

The conditioning stack keeps one embedding per (residue, fragment) pair and
refines it with attention along each axis: pocket-axis attention is biased
by residue-residue distances, ligand-axis attention by molecular bonds, and
a final cross-attention writes the pair context back into both node tracks.

Zeroing the learned bias projections must collapse each block onto plain
multi-head attention; that reduction is the ablation the library is tested
against, and it is reproduced here.
"""

import numpy as np

from pocketgfn.autodiff import Tape, tensor
from pocketgfn.nn import ParamStore
from pocketgfn.trioformer import (
    adjacency_onehot,
    rbf_basis,
    reference_pair_attention,
    triangle_update,
    trioformer_stack,
)

rng = np.random.default_rng(0)
n_pocket, n_ligand, c = 5, 3, 8

# node tracks and the geometry they attend over
h_pocket = tensor(rng.normal(size=(n_pocket, c)))
h_ligand = tensor(rng.normal(size=(n_ligand, c)))
d = np.abs(rng.normal(size=(n_pocket, n_pocket)))
pocket_dist = (d + d.T) / 2
np.fill_diagonal(pocket_dist, 0.0)
ligand_adj = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)

store = ParamStore(np.random.default_rng(1))
with Tape():
    refined = trioformer_stack(
        h_pocket, h_ligand, pocket_dist, ligand_adj, store,
        prefix="demo", n_layers=2, n_heads=2, head_dim=4, c_pair=8,
    )
print("refined ligand track:", refined.shape)
print("parameters created by the stack:", len(store.names()))

# ablation: zero the distance-bias projection of one block and
# compare against a plain attention reference implemented in raw numpy
pair = tensor(rng.normal(size=(n_pocket, n_ligand, 8)))
feats = rbf_basis(pocket_dist)
ab = ParamStore(np.random.default_rng(2))
with Tape():
    triangle_update(pair, feats, "pocket", ab, "blk", n_heads=2, head_dim=4)
ab["blk.t.w"].data[:] = 0.0
with Tape():
    out = triangle_update(pair, feats, "pocket", ab, "blk", n_heads=2, head_dim=4)
ref = reference_pair_attention(
    pair.data, "pocket", ab["blk.q.w"].data, ab["blk.k.w"].data,
    ab["blk.v.w"].data, ab["blk.o.w"].data, n_heads=2, head_dim=4,
)
print("max deviation from plain attention after zeroing biases:",
      f"{np.max(np.abs(out.data - ref)):.2e}")

# the bond one-hot used for the ligand axis
print("ligand-axis bias features (bond / no bond):")
print(adjacency_onehot(ligand_adj)[:, :, 0])
