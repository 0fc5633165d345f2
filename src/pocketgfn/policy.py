"""Forward policy over fragment-graph actions, with two conditioning backends.

Baseline mode injects the pooled pocket vector as a virtual node of the ligand
graph transformer. Pair mode (the geometry-aware path) runs the triangle
attention stack between pocket node embeddings and ligand node embeddings and
reads the policy heads off the refined ligand track.

One network pass scores a batch of states with the same node count against
one pocket. Each state's rows are its legal actions in lattice order (Stop
first, then (target node, target ap, fragment, fragment ap)), so every scored
row is legal; one gather lays them out state by state in one (R, 1) column,
and one log-softmax normalizes each state's rows of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor
from .files import json_int
from .nn import ParamStore, layer_norm_params, mlp_params
from .ligand import (
    FragmentLibrary,
    LigandAction,
    LigandState,
    action_lattice,
    adjacency_matrix,
    open_slots,
    slot_actions,
)
from .pocket import PocketContext, PocketGraph, encode_pocket
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
            value = json_int(getattr(self, f.name), f.name)
            low = 0 if f.name.endswith("layers") else 1
            if value < low:
                raise ValueError(f"{f.name} must be >= {low}, got {value}")
        if self.width % self.n_heads != 0:
            raise ValueError(f"width {self.width} not divisible by heads {self.n_heads}")


@dataclass
class ActionDistribution:
    """The legal actions of B states and their probabilities, from one pass.

    Rows are flat over the batch: state b owns rows ``offsets[b]:offsets[b + 1]``,
    its legal actions in lattice order. With one state the offsets are
    ``[0, m]`` and the rows are simply that state's legal actions.
    ``log_probs`` is one (R, 1) column, normalized over these offsets by one
    ``autodiff.log_softmax_rows`` node; a gather of drawn rows reads it as is.
    """

    actions: list[LigandAction]  # (R,)
    log_probs: DiffTensor  # (R, 1)
    probs: np.ndarray  # (R,)
    offsets: np.ndarray  # (B + 1,)
    # state b -> (first row, cumulative sums of its rows' probabilities),
    # filled by sample_action on b's first draw
    _cum: dict[int, tuple[int, np.ndarray]] = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def mask(self) -> np.ndarray:
        """Legality per scored row; every scored row is legal."""
        return np.ones(len(self.actions), dtype=bool)

    def rows(self, b: int) -> slice:
        return slice(int(self.offsets[b]), int(self.offsets[b + 1]))


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


class PolicyNetwork:
    def __init__(self, store: ParamStore, library: FragmentLibrary, config: PolicyConfig):
        self.store = store
        self.library = library
        self.config = config

    # -- pocket side ------------------------------------------------------

    def pocket_context(self, graph: PocketGraph) -> PocketContext:
        return encode_pocket(graph, self.store, self.config.pocket_layers, self.config.pocket_width)

    def log_z(self, ctx: PocketContext) -> DiffTensor:
        """Learned per-pocket partition estimate, shape (1, 1)."""
        layers = mlp_params(self.store, "logz", [self.config.pocket_width, 32, 1])
        return ad.mlp(ctx.pooled, layers)

    # -- ligand side ------------------------------------------------------

    def _embed_nodes(self, states: Sequence[LigandState]) -> tuple[DiffTensor, np.ndarray, np.ndarray]:
        """Node track (B, n, w), edge features (B, n, n, f) and adjacency (B, n, n)."""
        cfg = self.config
        b, n = len(states), states[0].n
        if n == 0:
            start = self.store.param("start_token", (1, cfg.width), fan_in=cfg.width)
            x = ad.gather_rows(start, np.zeros((b, 1), dtype=np.intp))
            return x, np.zeros((b, 1, 1, 2 * self.library.max_aps)), np.zeros((b, 1, 1))
        feats = [featurize(s, self.library) for s in states]
        nodes_np = np.stack([f[0] for f in feats])
        w = self.store.param("embed.w", (len(self.library), cfg.width), fan_in=len(self.library))
        bias = self.store.param("embed.b", (cfg.width,), fan_in=len(self.library))
        x = ad.mlp(ad.constant(nodes_np), [(w, bias)])
        return x, np.stack([f[1] for f in feats]), np.stack([adjacency_matrix(s) for s in states])

    def _self_attention_layers(self, x: DiffTensor, edges_np: np.ndarray, att_mask: np.ndarray) -> DiffTensor:
        """Graph transformer over B graphs of n nodes each: the (B, n, w) track
        in and out.

        Each layer is two pre-norm residual blocks on the track, each one
        node: an ``autodiff.attention`` node along the node axis, biased by
        the (B, n, n, heads) projection of the edge features and masked by
        ``att_mask`` (B, n, n), and an ``autodiff.mlp`` node.
        """
        cfg = self.config
        edges = ad.constant(edges_np)
        for layer in range(cfg.n_layers):
            name = f"lig.gt{layer}"
            norm = layer_norm_params(self.store, f"{name}.ln1", cfg.width)
            w_q, w_k, w_v = (self.store.param(f"{name}.{t}.w", (cfg.width, cfg.width)) for t in "qkv")
            bias = ad.matmul(edges, self.store.param(f"{name}.e.w", (edges_np.shape[-1], cfg.n_heads)))
            w_o = self.store.param(f"{name}.o.w", (cfg.width, cfg.width))
            x = ad.add(x, ad.attention(x, x, norm, norm, w_q, w_k, w_v, w_o, bias, 1, mask=att_mask))
            norm = layer_norm_params(self.store, f"{name}.ln2", cfg.width)
            x = ad.add(x, ad.mlp(x, mlp_params(self.store, f"{name}.mlp", [cfg.width, 2 * cfg.width, cfg.width]), norm))
        return x

    def _ligand_track(self, states: Sequence[LigandState], ctx: PocketContext) -> tuple[DiffTensor, DiffTensor | None]:
        """The node track (B, n, w) for the action heads and graph embeddings
        (B, 2w) in baseline mode or (B, w) in pair mode, which only the stop
        head reads: None for the empty states, which have no Stop row."""
        cfg = self.config
        x, edges_np, adj = self._embed_nodes(states)
        b, n = adj.shape[:2]
        self_loops = np.eye(n, dtype=bool)
        if cfg.mode == BASELINE:
            virt_w = self.store.param("virt.w", (cfg.pocket_width, cfg.width))
            virt = ad.mlp(ctx.pooled, [(virt_w, self.store.param("virt.b", (cfg.width,), fan_in=cfg.pocket_width))])
            # the virtual node becomes node n of each graph
            x = ad.concat([x, ad.gather_rows(virt, np.zeros((b, 1), dtype=np.intp))], axis=1)
            att_mask = np.ones((b, n + 1, n + 1), dtype=bool)
            att_mask[:, :n, :n] = adj.astype(bool) | self_loops
            edges_aug = np.zeros((b, n + 1, n + 1, edges_np.shape[-1]))
            edges_aug[:, :n, :n] = edges_np
            h = ad.reshape(self._self_attention_layers(x, edges_aug, att_mask), (b * (n + 1), cfg.width))
            rows = np.arange(b * (n + 1)).reshape(b, n + 1)
            real = ad.gather_rows(h, rows[:, :n])
            if not states[0].n:
                return real, None
            return real, ad.concat([pool_graph_embedding(real), ad.gather_rows(h, rows[:, n])], axis=1)
        h = self._self_attention_layers(x, edges_np, adj.astype(bool) | self_loops)
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
        return h, pool_graph_embedding(h) if states[0].n else None

    # -- heads -------------------------------------------------------------

    def _add_logits(self, node_h: DiffTensor, slots: list[list[tuple[int, int]]], n: int) -> DiffTensor | None:
        """Logits (rows, 1) of the add rows of every state, state by state, from
        the (B, n, w) node track; None when no state has one. ``slots[i]``
        lists state i's open slots, whose lattice rows its legal actions list
        in turn, one per (fragment, fragment ap) pair; the empty state's one
        slot is its start token, paired with the root pairs. The add head's
        first layer is linear in [target node, target ap, fragment, fragment
        ap], so it is applied once per slot, as (slots, 1, w) rows, and once
        per pair, as (pairs, w) rows, which broadcast to the (slots, pairs, w)
        hidden layer, read by the output layer as (rows, w) rows; no (rows,
        features) input is built."""
        cfg = self.config
        a_max = self.library.max_aps
        lattice = action_lattice(self.library)
        pairs = lattice.pairs if n else lattice.root_pairs
        slot_node = [i * max(n, 1) + node for i, state_slots in enumerate(slots) for node, _ in state_slots]
        slot_ap = [ap for state_slots in slots for _, ap in state_slots]
        if not slot_node:
            return None
        frag_table = self.store.param("frag_emb", (len(self.library), cfg.frag_emb_dim), fan_in=len(self.library))
        in_dim = cfg.width + a_max + cfg.frag_emb_dim + a_max
        (w1, b1), (w2, b2) = mlp_params(self.store, "add_head", [in_dim, cfg.width, 1])
        bounds = np.cumsum([0, cfg.width, a_max, cfg.frag_emb_dim, a_max])
        w_node, w_ap, w_frag, w_fap = (ad.gather_rows(w1, np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
        slot_in = ad.add(
            ad.gather_rows(ad.reshape(ad.matmul(node_h, w_node), (-1, cfg.width)), np.array(slot_node)[:, None]),
            ad.add(ad.matmul(ad.constant(np.array(slot_ap)[:, None, None] == np.arange(a_max)), w_ap), b1),
        )
        pair_in = ad.add(
            ad.matmul(ad.gather_rows(frag_table, [k for k, _ in pairs]), w_frag),
            ad.matmul(ad.constant(np.array([f_ap for _, f_ap in pairs])[:, None] == np.arange(a_max)), w_fap),
        )
        hidden = ad.relu(ad.add(slot_in, pair_in))
        return ad.mlp(ad.reshape(hidden, (-1, cfg.width)), [(w2, b2)])

    def action_distribution(
        self, states: LigandState | Sequence[LigandState], ctx: PocketContext, max_nodes: int
    ) -> ActionDistribution:
        """Score the legal actions of every state in one pass.

        All states must have the same node count. A single state is the batch
        of one.
        """
        if isinstance(states, LigandState):
            states = [states]
        if not states:
            raise ValueError("action_distribution needs at least one state")
        n = states[0].n
        if any(s.n != n for s in states):
            raise ValueError(f"states in one pass must have the same node count, got {sorted({s.n for s in states})}")
        slots = [open_slots(s, self.library, max_nodes) for s in states]
        legal = [slot_actions(s, state_slots, self.library) for s, state_slots in zip(states, slots)]
        if not all(legal):
            raise ValueError("no legal actions (terminal state)")
        cfg = self.config
        b = len(states)
        node_h, graph_emb = self._ligand_track(states, ctx)
        graph_width = 2 * cfg.width if cfg.mode == BASELINE else cfg.width
        # created on the empty state too, which has no Stop row, to keep the parameter order
        stop_head = mlp_params(self.store, "stop_head", [graph_width, cfg.width, 1])
        add_logits = self._add_logits(node_h, slots if n else [[(0, -1)]] * b, n)

        offsets = np.concatenate([[0], np.cumsum([len(acts) for acts in legal])])
        logits = add_logits  # the empty states' rows are their add rows, state by state
        if n:
            stop_logits = ad.mlp(graph_emb, stop_head)
            # The column holds the b Stops, then the add rows state by state:
            # state i's first row reads its Stop, and its row p of the batch
            # reads column row b + p - i - 1, as i + 1 of the rows before it are Stops.
            order = b - 1 + np.arange(offsets[-1]) - np.repeat(np.arange(b), np.diff(offsets))
            order[offsets[:-1]] = np.arange(b)
            column = stop_logits if add_logits is None else ad.concat([stop_logits, add_logits], axis=0)
            logits = ad.gather_rows(column, order)
        log_probs = ad.log_softmax_rows(logits, offsets)
        return ActionDistribution(
            actions=[a for acts in legal for a in acts],
            log_probs=log_probs,
            probs=np.exp(log_probs.data[:, 0]),
            offsets=offsets,
        )


def sample_action(dist: ActionDistribution, rng: np.random.Generator, b: int = 0) -> tuple[LigandAction, int]:
    """Inverse-CDF draw among state b's rows; returns the action and its row index.

    The state's cumulative sums are computed on its first draw and kept in
    ``dist``, so repeated draws from one distribution cost one search each.
    """
    cached = dist._cum.get(b)
    if cached is None:
        rows = dist.rows(b)
        cached = dist._cum[b] = rows.start, np.cumsum(dist.probs[rows])
    start, cum = cached
    u = rng.random() * cum[-1]
    pos = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
    idx = start + pos
    return dist.actions[idx], idx


def log_prob_at(dist: ActionDistribution, idx: int) -> DiffTensor:
    """Differentiable (1, 1) log-probability of row idx of the (R, 1) column."""
    return ad.gather_rows(dist.log_probs, np.array([idx]))
