"""Forward policy over fragment-graph actions, with two conditioning backends.

Baseline mode injects the pooled pocket vector as a virtual node of the ligand
graph transformer. Pair mode (the geometry-aware path) runs the triangle
attention stack between pocket node embeddings and ligand node embeddings and
reads the policy heads off the refined ligand track.

Action scoring is over a fixed lattice per state: Stop first, then every
(target node, target ap, fragment, fragment ap) combination; illegal entries
are masked to exactly zero probability.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor, tensor
from .nn import ParamStore, layer_norm_affine, mlp_apply, mlp_params
from .ligand import (
    AddFragment,
    FragmentLibrary,
    LigandAction,
    LigandState,
    STOP,
    adjacency_matrix,
    legal_actions,
)
from .pocket import PocketGraph, encode_pocket
from .trioformer import pool_graph_embedding, trioformer_stack

BASELINE = "baseline"
TRIOFORMER = "trioformer"


@dataclass
class PolicyConfig:
    mode: str = BASELINE
    width: int = 64
    n_layers: int = 3
    n_heads: int = 4
    frag_emb_dim: int = 16
    pocket_width: int = 64
    pocket_layers: int = 3
    trio_layers: int = 2
    trio_heads: int = 4
    trio_head_dim: int = 16
    trio_c_pair: int = 32

    def __post_init__(self):
        if self.mode not in (BASELINE, TRIOFORMER):
            raise ValueError(f"mode must be {BASELINE!r} or {TRIOFORMER!r}, got {self.mode!r}")
        for f in fields(self):
            if f.name == "mode":
                continue
            value = getattr(self, f.name)
            # bool is a subclass of int, so True would pass as 1
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            low = 0 if f.name.endswith("layers") else 1
            if value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value}")
        if self.width % self.n_heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.n_heads}")


@dataclass
class PocketContext:
    """Everything the policy needs about one pocket, computed once per pass."""

    node_embeddings: DiffTensor  # (n_P, c_P)
    pooled: DiffTensor  # (1, c_P)
    dist_matrix: np.ndarray  # (n_P, n_P)


@dataclass
class ActionDistribution:
    actions: list[LigandAction]
    mask: np.ndarray  # legality per lattice entry
    log_probs: DiffTensor  # (1, m); -inf where masked
    probs: np.ndarray  # (m,), exact zeros where masked


def featurize(s: LigandState, library: FragmentLibrary) -> tuple[np.ndarray, np.ndarray]:
    """One-hot node features (n, n_frag_types) and edge AP features (n, n, 2*max_aps).

    Edge feature of (i, j) is onehot(ap used on i) concat onehot(ap used on j);
    zero rows where no edge.
    """
    if s.n == 0:
        raise ValueError("cannot featurize the empty state; the policy has a learned start token for it")
    frag_index = {fid: k for k, fid in enumerate(library.ids)}
    a_max = library.max_aps
    nodes = np.zeros((s.n, len(library)))
    for v, fid in enumerate(s.nodes):
        nodes[v, frag_index[fid]] = 1.0
    edges = np.zeros((s.n, s.n, 2 * a_max))
    for i, ap_i, j, ap_j in s.edges:
        edges[i, j, ap_i] = 1.0
        edges[i, j, a_max + ap_j] = 1.0
        edges[j, i, ap_j] = 1.0
        edges[j, i, a_max + ap_i] = 1.0
    return nodes, edges


def action_lattice(s: LigandState, library: FragmentLibrary, max_nodes: int) -> tuple[list[LigandAction], np.ndarray]:
    """Fixed-order action lattice plus legality mask.

    Order matches legal_actions: Stop, then (node, ap, fragment, ap). The
    lattice covers the full cartesian product so the head shapes depend only
    on the node count.
    """
    a_max = library.max_aps
    if s.n == 0:
        lattice: list[LigandAction] = [STOP]
        for f in library:
            for f_ap in range(a_max):
                lattice.append(AddFragment(None, None, f.id, f_ap))
    else:
        lattice = [STOP]
        for node in range(s.n):
            for ap in range(a_max):
                for f in library:
                    for f_ap in range(a_max):
                        lattice.append(AddFragment(node, ap, f.id, f_ap))
    legal = set(legal_actions(s, library, max_nodes))
    mask = np.array([a in legal for a in lattice])
    return lattice, mask


class PolicyNetwork:
    def __init__(self, store: ParamStore, library: FragmentLibrary, config: PolicyConfig):
        self.store = store
        self.library = library
        self.config = config
        self._frag_index = {fid: k for k, fid in enumerate(library.ids)}

    # -- pocket side ------------------------------------------------------

    def pocket_context(self, graph: PocketGraph) -> PocketContext:
        emb = encode_pocket(
            graph, self.store, L_layers=self.config.pocket_layers, c_pocket=self.config.pocket_width
        )
        return PocketContext(node_embeddings=emb.node_embeddings, pooled=emb.pooled, dist_matrix=graph.dist_matrix)

    def log_z(self, ctx: PocketContext) -> DiffTensor:
        """Learned per-pocket partition estimate, shape (1, 1)."""
        layers = mlp_params(self.store, "logz", [self.config.pocket_width, 32, 1])
        return mlp_apply(ctx.pooled, layers)

    # -- ligand side ------------------------------------------------------

    def _embed_nodes(self, s: LigandState) -> tuple[DiffTensor, np.ndarray, np.ndarray]:
        cfg = self.config
        if s.n == 0:
            start = self.store.param("start_token", (1, cfg.width), fan_in=cfg.width)
            return start, np.zeros((1, 1, 2 * self.library.max_aps)), np.zeros((1, 1))
        nodes_np, edges_np = featurize(s, self.library)
        w = self.store.param("embed.w", (len(self.library), cfg.width), fan_in=len(self.library))
        b = self.store.param("embed.b", (cfg.width,), fan_in=len(self.library))
        x = ad.add(ad.matmul(tensor(nodes_np), w), b)
        return x, edges_np, adjacency_matrix(s)

    def _self_attention_layers(self, x: DiffTensor, edges_np: np.ndarray, att_mask: np.ndarray, prefix: str) -> DiffTensor:
        cfg = self.config
        n = x.shape[0]
        heads = cfg.n_heads
        hd = cfg.width // heads
        edge_flat = tensor(edges_np.reshape(n * n, -1))
        for layer in range(cfg.n_layers):
            name = f"{prefix}.gt{layer}"
            normed = layer_norm_affine(self.store, f"{name}.ln1", x, cfg.width)
            q = ad.reshape(ad.matmul(normed, self.store.param(f"{name}.q.w", (cfg.width, cfg.width))), (n, heads, hd))
            k = ad.reshape(ad.matmul(normed, self.store.param(f"{name}.k.w", (cfg.width, cfg.width))), (n, heads, hd))
            v = ad.reshape(ad.matmul(normed, self.store.param(f"{name}.v.w", (cfg.width, cfg.width))), (n, heads, hd))
            logits = ad.einsum2("qhc,khc->qhk", q, k)
            bias = ad.reshape(ad.matmul(edge_flat, self.store.param(f"{name}.e.w", (edges_np.shape[2], heads))), (n, n, heads))
            logits = ad.scale(ad.add(logits, ad.permute(bias, (0, 2, 1))), 1.0 / np.sqrt(hd))
            mask_rows = np.repeat(att_mask[:, None, :], heads, axis=1).reshape(n * heads, n)
            att = ad.softmax_rows(ad.reshape(logits, (n * heads, n)), mask=mask_rows)
            gathered = ad.einsum2("qhk,khc->qhc", ad.reshape(att, (n, heads, n)), v)
            out = ad.matmul(ad.reshape(gathered, (n, cfg.width)), self.store.param(f"{name}.o.w", (cfg.width, cfg.width)))
            x = ad.add(x, out)
            normed2 = layer_norm_affine(self.store, f"{name}.ln2", x, cfg.width)
            x = ad.add(x, mlp_apply(normed2, mlp_params(self.store, f"{name}.mlp", [cfg.width, 2 * cfg.width, cfg.width])))
        return x

    def _ligand_track(self, s: LigandState, ctx: PocketContext) -> tuple[DiffTensor, DiffTensor]:
        """Returns (per-node embeddings for action heads, graph embedding)."""
        cfg = self.config
        x, edges_np, adj = self._embed_nodes(s)
        n = x.shape[0]
        if cfg.mode == BASELINE:
            virt = ad.matmul(ctx.pooled, self.store.param("virt.w", (cfg.pocket_width, cfg.width)))
            virt = ad.add(virt, self.store.param("virt.b", (cfg.width,), fan_in=cfg.pocket_width))
            x = ad.concat([x, virt], axis=0)
            n_aug = n + 1
            att_mask = np.zeros((n_aug, n_aug), dtype=bool)
            att_mask[:n, :n] = adj.astype(bool)
            np.fill_diagonal(att_mask, True)
            att_mask[n, :] = True
            att_mask[:, n] = True
            edges_aug = np.zeros((n_aug, n_aug, edges_np.shape[2]))
            edges_aug[:n, :n] = edges_np
            h = self._self_attention_layers(x, edges_aug, att_mask, "lig")
            real = ad.gather_rows(h, np.arange(n))
            pooled = ad.mean_rows(real)
            virtual_row = ad.gather_rows(h, np.array([n]))
            graph_emb = ad.concat([pooled, virtual_row], axis=1)  # width 2w
            return real, graph_emb
        att_mask = adj.astype(bool).copy()
        np.fill_diagonal(att_mask, True)
        h = self._self_attention_layers(x, edges_np, att_mask, "lig")
        h = trioformer_stack(
            ctx.node_embeddings,
            h,
            ctx.dist_matrix,
            adj,
            self.store,
            prefix="trio",
            n_layers=cfg.trio_layers,
            n_heads=cfg.trio_heads,
            head_dim=cfg.trio_head_dim,
            c_pair=cfg.trio_c_pair,
        )
        graph_emb = pool_graph_embedding(h)
        return h, graph_emb

    # -- heads -------------------------------------------------------------

    def action_distribution(self, s: LigandState, ctx: PocketContext, max_nodes: int) -> ActionDistribution:
        cfg = self.config
        lattice, mask = action_lattice(s, self.library, max_nodes)
        if not mask.any():
            raise ValueError("no legal actions (terminal state)")
        node_h, graph_emb = self._ligand_track(s, ctx)
        a_max = self.library.max_aps
        graph_width = 2 * cfg.width if cfg.mode == BASELINE else cfg.width
        stop_logit = mlp_apply(graph_emb, mlp_params(self.store, "stop_head", [graph_width, cfg.width, 1]))

        frag_table = self.store.param("frag_emb", (len(self.library), cfg.frag_emb_dim), fan_in=len(self.library))
        adds = [a for a in lattice if isinstance(a, AddFragment)]
        targets = np.array([a.target_node if a.target_node is not None else 0 for a in adds])
        tgt_emb = ad.gather_rows(node_h, targets)
        ap_onehot = np.zeros((len(adds), a_max))
        fap_onehot = np.zeros((len(adds), a_max))
        frag_rows = np.zeros(len(adds), dtype=np.intp)
        for r, a in enumerate(adds):
            if a.target_ap is not None:
                ap_onehot[r, a.target_ap] = 1.0
            fap_onehot[r, a.fragment_ap] = 1.0
            frag_rows[r] = self._frag_index[a.fragment_id]
        frag_emb = ad.gather_rows(frag_table, frag_rows)
        head_in = ad.concat([tgt_emb, tensor(ap_onehot), frag_emb, tensor(fap_onehot)], axis=1)
        in_dim = cfg.width + a_max + cfg.frag_emb_dim + a_max
        add_logits = mlp_apply(head_in, mlp_params(self.store, "add_head", [in_dim, cfg.width, 1]))

        logits = ad.reshape(ad.concat([stop_logit, add_logits], axis=0), (1, len(lattice)))
        log_probs = ad.log_softmax_rows(logits, mask=mask[None, :])
        probs = np.zeros(len(lattice))
        probs[mask] = np.exp(log_probs.data[0][mask])
        return ActionDistribution(actions=lattice, mask=mask, log_probs=log_probs, probs=probs)


def sample_action(dist: ActionDistribution, rng: np.random.Generator) -> tuple[LigandAction, int]:
    """Inverse-CDF draw; returns the action and its lattice index."""
    legal = np.flatnonzero(dist.mask)
    cum = np.cumsum(dist.probs[legal])
    u = rng.random() * cum[-1]
    pos = min(int(np.searchsorted(cum, u, side="right")), len(legal) - 1)
    idx = int(legal[pos])
    return dist.actions[idx], idx


def log_prob_at(dist: ActionDistribution, idx: int) -> DiffTensor:
    """Differentiable (1,1) log-probability of the lattice entry idx."""
    m = len(dist.actions)
    col = ad.reshape(dist.log_probs, (m, 1))
    return ad.gather_rows(col, np.array([idx]))
