import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pocketgfn.autodiff as ad
import pocketgfn.nn as nn
from pocketgfn.autodiff import Tape, tensor
from pocketgfn.ligand import (
    AddFragment,
    STOP,
    apply_action,
    desk_library,
    initial_state,
    legal_actions,
    stop_is_forced,
    toy_library,
)
from pocketgfn.nn import ParamStore
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
from pocketgfn.policy import (
    ActionDistribution,
    PolicyConfig,
    PolicyNetwork,
    featurize,
    log_prob_at,
    sample_action,
)

from ligand_reference import permute_state

TOY = toy_library()
DESK = desk_library()


def small_config(mode="baseline"):
    return PolicyConfig(
        mode=mode,
        width=16,
        n_layers=2,
        n_heads=2,
        frag_emb_dim=4,
        pocket_width=8,
        pocket_layers=1,
        trio_layers=1,
        trio_heads=2,
        trio_head_dim=4,
        trio_c_pair=8,
    )


def make_policy(mode="baseline", seed=0):
    store = ParamStore(np.random.default_rng(seed))
    return PolicyNetwork(store, DESK, small_config(mode))


def pocket_ctx(policy, n=6, spread=2.0, seed=3):
    graph = build_knn_graph(synthetic_pocket(n, spread, seed), K=4)
    return policy.pocket_context(graph)


def grow(actions, library, max_nodes=8):
    s = initial_state()
    for a in actions:
        s = apply_action(s, a, library, max_nodes)
    return s


def all_reachable_graphs(library, max_nodes):
    """Every reachable non-empty graph (nodes, edges), ignoring the stop flag."""
    frontier = [initial_state()]
    seen = set()
    graphs = []
    while frontier:
        s = frontier.pop()
        for a in legal_actions(s, library, max_nodes):
            child = apply_action(s, a, library, max_nodes)
            key = (child.nodes, child.edges)
            if child.terminal or key in seen:
                continue
            seen.add(key)
            graphs.append(child)
            frontier.append(child)
    return graphs


class TestFeaturize:
    def test_node_onehot(self):
        s = grow([AddFragment(None, None, 2, 0), AddFragment(0, 1, 1, 0)], DESK)
        nodes, edges = featurize(s, DESK)
        assert nodes.shape == (2, len(DESK))
        assert nodes[0].tolist() == [0, 0, 1, 0]
        assert nodes[1].tolist() == [0, 1, 0, 0]

    def test_edge_features_carry_both_aps(self):
        a_max = DESK.max_aps
        s = grow([AddFragment(None, None, 0, 2), AddFragment(0, 1, 2, 0)], DESK)
        nodes, edges = featurize(s, DESK)
        assert edges.shape == (2, 2, 2 * a_max)
        # edge (0, ap 1) -- (1, ap 0)
        assert edges[0, 1, 1] == 1.0 and edges[0, 1, a_max + 0] == 1.0
        assert edges[1, 0, 0] == 1.0 and edges[1, 0, a_max + 1] == 1.0
        assert edges[0, 0].sum() == 0.0

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="start token"):
            featurize(initial_state(), DESK)

    @pytest.mark.parametrize("library,max_nodes", [(TOY, 3), (DESK, 2)])
    def test_injective_on_reachable_graphs(self, library, max_nodes):
        seen = {}
        for s in all_reachable_graphs(library, max_nodes):
            nodes, edges = featurize(s, library)
            sig = (nodes.shape, nodes.tobytes(), edges.tobytes())
            assert sig not in seen, f"collision: {s} vs {seen[sig]}"
            seen[sig] = s
        assert len(seen) > 3


def states_by_size(library, max_nodes):
    """Every reachable non-terminal state, the empty one included, keyed by node count."""
    by_n = {0: [initial_state()]}
    for s in all_reachable_graphs(library, max_nodes):
        by_n.setdefault(s.n, []).append(s)
    return by_n


class TestActionLattice:
    """Each state's rows are its legal actions, in lattice order."""

    def test_root_lattice(self):
        policy = make_policy()
        dist = policy.action_distribution(initial_state(), pocket_ctx(policy), max_nodes=8)
        assert dist.actions == legal_actions(initial_state(), DESK, 8)
        assert STOP not in dist.actions
        assert len(dist.actions) == len(DESK)  # one root action per fragment

    @pytest.mark.parametrize("library,max_nodes", [(TOY, 3), (DESK, 2)])
    def test_legal_subsequence_matches_everywhere(self, library, max_nodes):
        policy = PolicyNetwork(make_policy().store, library, small_config())
        ctx = pocket_ctx(policy)
        for states in states_by_size(library, max_nodes).values():
            batch = policy.action_distribution(states, ctx, max_nodes=max_nodes)
            for b, s in enumerate(states):
                assert policy.action_distribution(s, ctx, max_nodes=max_nodes).actions == legal_actions(s, library, max_nodes)
                assert batch.actions[batch.rows(b)] == legal_actions(s, library, max_nodes)

    def test_nonempty_lattice_shape(self):
        policy = make_policy()
        s = grow([AddFragment(None, None, 0, 0)], DESK)
        dist = policy.action_distribution(s, pocket_ctx(policy), max_nodes=8)
        m = 1 + DESK.get(0).aps * sum(f.aps for f in DESK)  # every attachment point is free
        assert len(dist.actions) == m and dist.actions[0] is STOP
        assert dist.log_probs.shape == (m, 1) and dist.probs.shape == (m,)
        assert dist.mask.all() and len(dist.mask) == m
        assert dist.offsets.tolist() == [0, m]


class TestActionDistribution:
    def test_probs_sum_to_one_and_positive(self):
        policy = make_policy()
        ctx = pocket_ctx(policy)
        s = grow([AddFragment(None, None, 0, 0)], DESK)
        dist = policy.action_distribution(s, ctx, max_nodes=8)
        assert np.isclose(dist.probs.sum(), 1.0, atol=1e-12)
        assert np.all(dist.probs > 0.0)
        np.testing.assert_array_equal(dist.probs, np.exp(dist.log_probs.data[:, 0]))

    def test_nonzero_support_equals_legal_actions(self):
        policy = make_policy()
        ctx = pocket_ctx(policy)
        for s in all_reachable_graphs(DESK, 2):
            dist = policy.action_distribution(s, ctx, max_nodes=2)
            support = [a for a, p in zip(dist.actions, dist.probs) if p > 0]
            assert support == legal_actions(s, DESK, 2)

    def test_single_legal_action_gets_prob_one(self):
        # alpha-alpha uses both attachment points, so only Stop is legal
        policy = PolicyNetwork(make_policy().store, TOY, small_config())
        ctx = pocket_ctx(policy)
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 0, 0)], TOY)
        assert stop_is_forced(s, TOY, 8)
        with Tape():
            dist = policy.action_distribution(s, ctx, max_nodes=8)
            ad.backward(ad.sum_all(dist.log_probs))
        assert dist.actions == [STOP]
        assert dist.probs[0] == 1.0 and dist.log_probs.data[0, 0] == 0.0
        # the log-softmax of a one-entry row gives it exactly zero gradient
        for name, p in policy.store.items():
            assert p.grad is None or not p.grad.any(), name

    def test_terminal_state_raises(self):
        policy = make_policy()
        ctx = pocket_ctx(policy)
        s = grow([AddFragment(None, None, 0, 0)], DESK)
        s_stop = apply_action(s, STOP, DESK, 8)
        with pytest.raises(ValueError, match="legal"):
            policy.action_distribution(s_stop, ctx, max_nodes=8)

    def test_mixed_node_counts_rejected(self):
        policy = make_policy()
        s1 = grow([AddFragment(None, None, 0, 0)], DESK)
        with pytest.raises(ValueError, match="node count"):
            policy.action_distribution([initial_state(), s1], pocket_ctx(policy), max_nodes=8)

    def test_empty_state_distribution(self):
        for mode in ("baseline", "trioformer"):
            policy = make_policy(mode)
            ctx = pocket_ctx(policy)
            dist = policy.action_distribution(initial_state(), ctx, max_nodes=8)
            assert STOP not in dist.actions  # Stop is illegal on the empty state
            assert np.isclose(dist.probs.sum(), 1.0)

    def test_deterministic_given_store(self):
        p1 = make_policy(seed=5)
        p2 = make_policy(seed=5)
        s = grow([AddFragment(None, None, 1, 0)], DESK)
        d1 = p1.action_distribution(s, pocket_ctx(p1), max_nodes=8)
        d2 = p2.action_distribution(s, pocket_ctx(p2), max_nodes=8)
        np.testing.assert_array_equal(d1.probs, d2.probs)

    def test_gradients_flow_to_parameters(self):
        policy = make_policy()
        s = grow([AddFragment(None, None, 0, 0)], DESK)
        with Tape():
            ctx = pocket_ctx(policy)
            dist = policy.action_distribution(s, ctx, max_nodes=8)
            ad.backward(log_prob_at(dist, 0))
        emb_grad = policy.store.param("embed.w", (len(DESK), 16)).grad
        assert emb_grad is not None and np.any(emb_grad != 0.0)

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    def test_one_fused_node_per_attention_site(self, mode, monkeypatch):
        # attention sites: one per graph-transformer layer, and per
        # trioformer layer the two triangle folds and the two cross-attention
        # tracks, but for the pocket track of the last layer, which nothing
        # reads; each normalizes its own inputs. MLP sites, each named by its
        # first weight: the pocket and node embeddings, the pocket messages,
        # the virtual node (baseline), the graph-transformer transitions, per
        # trioformer layer the pocket's pair projection and the pair
        # transition, the stop head and the add head's output layer, each a
        # biased projection or an MLP in one node. The only layer norm left
        # is the pocket encoder's post-norm.
        fused, fused_mlp, real_norm = ad.attention, ad.mlp, nn.layer_norm_rows
        calls, mlps, norms = [], [], []
        monkeypatch.setattr(ad, "attention", lambda *args, **kw: calls.append(1) or fused(*args, **kw))

        def mlp(x, layers, *args, **kw):
            mlps.append(layers[0][0])
            return fused_mlp(x, layers, *args, **kw)

        monkeypatch.setattr(ad, "mlp", mlp)
        monkeypatch.setattr(nn, "layer_norm_rows", lambda x: norms.append(1) or real_norm(x))

        def no_softmax_chain(*args, **kw):
            raise AssertionError("an attention site recorded a softmax chain")

        monkeypatch.setattr(ad, "softmax_rows", no_softmax_chain)
        policy = make_policy(mode)
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 1, 1, 0)], DESK)
        with Tape():
            policy.action_distribution([s, s], pocket_ctx(policy), max_nodes=8)
        cfg = policy.config
        trio = mode == "trioformer"
        assert len(calls) == cfg.n_layers + (4 * cfg.trio_layers - 1 if trio else 0)
        names = {id(p): name for name, p in policy.store.items()}
        sites = [
            "pocket.embed.w",
            *(f"pocket.layer{i}.msg.0.w" for i in range(cfg.pocket_layers)),
            "embed.w",
            *([] if trio else ["virt.w"]),
            *(f"lig.gt{i}.mlp.0.w" for i in range(cfg.n_layers)),
            *(f"trio.init{i}.pair_p.w" for i in range(cfg.trio_layers) if trio),
            *(f"trio.layer{i}.trans.mlp.0.w" for i in range(cfg.trio_layers) if trio),
            "stop_head.0.w",
            "add_head.1.w",
        ]
        assert sorted(names[id(w)] for w in mlps) == sorted(sites)
        assert len(norms) == cfg.pocket_layers

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    def test_batch_padding_isolated_from_gradient(self, mode):
        # states with different row counts share one log-softmax node, whose
        # rule pads them to one width; the padding must add nothing to the
        # gradient of the legal rows
        policy = make_policy(mode)
        graph = build_knn_graph(synthetic_pocket(6, 2.0, 3), K=4)
        states = [
            grow([AddFragment(None, None, 0, 0), AddFragment(0, 1, 1, 0)], DESK),
            grow([AddFragment(None, None, 1, 0), AddFragment(0, 0, 1, 0)], DESK),  # Stop only
            grow([AddFragment(None, None, 2, 1), AddFragment(0, 0, 0, 2)], DESK),
        ]

        def grads(batches):
            policy.store.zero_grads()
            with Tape():
                ctx = policy.pocket_context(graph)
                total = [ad.sum_all(policy.action_distribution(b, ctx, max_nodes=8).log_probs) for b in batches]
                ad.backward(ad.sum_all(ad.concat(total, axis=0)))
            return {name: p.grad for name, p in policy.store.items()}

        batched = grads([states])
        single = grads([[s] for s in states])
        for name, g in single.items():
            if g is None:
                assert batched[name] is None or not batched[name].any(), name
            else:
                assert np.all(np.isfinite(batched[name])), name
                np.testing.assert_allclose(batched[name], g, rtol=0, atol=1e-12, err_msg=name)


class TestHeadReference:
    """The heads score each row from its own features, as written out per row."""

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    def test_rows_match_per_action_reference(self, mode):
        policy = make_policy(mode)
        ctx = pocket_ctx(policy)
        store, a_max = policy.store, DESK.max_aps
        for states in states_by_size(DESK, 2).values():
            dist = policy.action_distribution(states, ctx, max_nodes=2)
            node_h, graph_emb = (t and t.data for t in policy._ligand_track(states, ctx))

            def mlp(x, name):
                hidden = np.maximum(x @ store[f"{name}.0.w"].data + store[f"{name}.0.b"].data, 0.0)
                return (hidden @ store[f"{name}.1.w"].data + store[f"{name}.1.b"].data).item()

            for b, s in enumerate(states):
                logits = []
                for a in legal_actions(s, DESK, 2):
                    if a is STOP:
                        logits.append(mlp(graph_emb[b], "stop_head"))
                        continue
                    ap, f_ap = np.zeros(a_max), np.zeros(a_max)
                    if a.target_ap is not None:
                        ap[a.target_ap] = 1.0
                    f_ap[a.fragment_ap] = 1.0
                    frag = store["frag_emb"].data[DESK.ids.index(a.fragment_id)]
                    logits.append(mlp(np.concatenate([node_h[b, a.target_node or 0], ap, frag, f_ap]), "add_head"))
                logits = np.array(logits)
                expected = logits - logits.max() - np.log(np.exp(logits - logits.max()).sum())
                np.testing.assert_allclose(dist.log_probs.data[dist.rows(b), 0], expected, rtol=0, atol=1e-12)


# one policy per (mode, library), each with two pockets of different size
BATCH_POLICIES = {
    (mode, lib_name): PolicyNetwork(ParamStore(np.random.default_rng(21)), library, small_config(mode))
    for mode in ("baseline", "trioformer")
    for lib_name, library in (("toy", TOY), ("desk", DESK))
}
POCKET_CTXS = {
    key: [pocket_ctx(policy, n=5, spread=2.0, seed=3), pocket_ctx(policy, n=8, spread=5.0, seed=4)]
    for key, policy in BATCH_POLICIES.items()
}


@st.composite
def same_size_states(draw):
    """A library, a cap, and 1-5 reachable non-terminal states with one node
    count; states whose only legal action is Stop are included."""
    lib_name = draw(st.sampled_from(["toy", "desk"]))
    library = TOY if lib_name == "toy" else DESK
    max_nodes = draw(st.integers(1, 4))
    n = draw(st.integers(0, max_nodes))
    states = []
    for _ in range(draw(st.integers(1, 5))):
        s = initial_state()
        while s.n < n:
            adds = [a for a in legal_actions(s, library, max_nodes) if a is not STOP]
            if not adds:
                break
            s = apply_action(s, adds[draw(st.integers(0, len(adds) - 1))], library, max_nodes)
        if s.n == n:
            states.append(s)
    if not states:
        states = [initial_state()] if n == 0 else [grow([AddFragment(None, None, 0, 0)], library)]
    return lib_name, max_nodes, states


class TestBatchedPass:
    @settings(max_examples=40, deadline=None)
    @given(case=same_size_states(), mode=st.sampled_from(["baseline", "trioformer"]), pocket=st.integers(0, 1))
    def test_batch_equals_single_state_passes(self, case, mode, pocket):
        lib_name, max_nodes, states = case
        policy = BATCH_POLICIES[mode, lib_name]
        library = policy.library
        ctx = POCKET_CTXS[mode, lib_name][pocket]
        batch = policy.action_distribution(states, ctx, max_nodes)
        assert batch.offsets[-1] == len(batch.actions) == batch.probs.size == batch.log_probs.shape[0]
        for b, s in enumerate(states):
            single = policy.action_distribution(s, ctx, max_nodes)
            rows = batch.rows(b)
            assert batch.actions[rows] == single.actions == legal_actions(s, library, max_nodes)
            np.testing.assert_allclose(batch.log_probs.data[rows, 0], single.log_probs.data[:, 0], rtol=0, atol=1e-12)
            if stop_is_forced(s, library, max_nodes):
                assert batch.log_probs.data[rows, 0].tolist() == [0.0]


@st.composite
def relabeled_desk_states(draw):
    """A random desk state of 2-5 nodes at cap 6, grown by random legal
    additions, and a relabeling of its nodes (old -> new)."""
    s = initial_state()
    for _ in range(draw(st.integers(2, 5))):
        adds = [a for a in legal_actions(s, DESK, 6) if a is not STOP]
        if not adds:
            break
        s = apply_action(s, adds[draw(st.integers(0, len(adds) - 1))], DESK, 6)
    return s, list(draw(st.permutations(range(s.n))))


class TestPermutationEquivariance:
    @settings(max_examples=30, deadline=None)
    @given(case=relabeled_desk_states(), mode=st.sampled_from(["baseline", "trioformer"]))
    def test_relabeling_nodes_permutes_legal_rows(self, case, mode):
        # the state and its relabeling, bonds kept i < j, scored in one pass:
        # the relabeled state's rows are the state's rows with their target
        # nodes relabeled, each at the same log-probability
        s, perm = case
        policy = BATCH_POLICIES[mode, "desk"]
        dist = policy.action_distribution([s, permute_state(s, perm)], POCKET_CTXS[mode, "desk"][1], 6)
        rows = [dict(zip(dist.actions[dist.rows(b)], dist.log_probs.data[dist.rows(b), 0])) for b in (0, 1)]
        moved = {
            (a if a is STOP else AddFragment(perm[a.target_node], a.target_ap, a.fragment_id, a.fragment_ap)): lp
            for a, lp in rows[0].items()
        }
        assert len(rows[1]) == dist.offsets[2] - dist.offsets[1] and rows[1].keys() == moved.keys()
        worst = max(abs(lp - moved[a]) for a, lp in rows[1].items())
        assert worst <= 1e-12, worst


class TestGraphEmbedding:
    def test_baseline_width_doubles(self):
        policy = make_policy("baseline")
        ctx = pocket_ctx(policy)
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)], DESK)
        node_h, graph_emb = policy._ligand_track([s], ctx)
        assert node_h.shape == (1, 2, 16)
        assert graph_emb.shape == (1, 32)

    def test_trioformer_width_stays(self):
        policy = make_policy("trioformer")
        ctx = pocket_ctx(policy)
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)], DESK)
        node_h, graph_emb = policy._ligand_track([s], ctx)
        assert node_h.shape == (1, 2, 16)
        assert graph_emb.shape == (1, 16)
        np.testing.assert_allclose(graph_emb.data, node_h.data.mean(axis=1), atol=1e-12)


class TestConditioning:
    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    def test_distribution_depends_on_pocket(self, mode):
        policy = make_policy(mode)
        ctx_a = pocket_ctx(policy, n=6, spread=2.0, seed=3)
        ctx_b = pocket_ctx(policy, n=9, spread=6.0, seed=11)
        s = grow([AddFragment(None, None, 0, 0)], DESK)
        da = policy.action_distribution(s, ctx_a, max_nodes=8)
        db = policy.action_distribution(s, ctx_b, max_nodes=8)
        tv = 0.5 * np.abs(da.probs - db.probs).sum()
        assert tv > 0.0

    def test_log_z_is_scalar_and_pocket_dependent(self):
        policy = make_policy()
        za = policy.log_z(pocket_ctx(policy, n=6, spread=2.0, seed=3))
        zb = policy.log_z(pocket_ctx(policy, n=9, spread=6.0, seed=11))
        assert za.shape == (1, 1) and np.isfinite(za.data).all()
        assert not np.isclose(za.data[0, 0], zb.data[0, 0])


class TestSampleAction:
    def test_inverse_cdf_frequencies(self):
        probs = np.array([0.25, 0.75])
        dist = ActionDistribution(
            actions=[STOP, AddFragment(None, None, 0, 0)],
            log_probs=tensor(np.log(probs)[None, :]),
            probs=probs,
            offsets=np.array([0, 2]),
        )
        rng = np.random.default_rng(0)
        n = 100_000
        hits = sum(sample_action(dist, rng)[1] == 0 for _ in range(n))
        assert abs(hits / n - 0.25) < 0.01

    def test_draws_only_from_its_state_rows(self):
        # two states: rows 0-1 belong to state 0, row 2 to state 1
        probs = np.array([0.5, 0.5, 1.0])
        actions = [STOP, AddFragment(0, 0, 0, 0), STOP]
        dist = ActionDistribution(
            actions=actions, log_probs=tensor(np.log(probs)[None, :]), probs=probs, offsets=np.array([0, 2, 3]),
        )
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(500):
            action, idx = sample_action(dist, rng, 0)
            assert idx in (0, 1) and action is actions[idx]
            seen.add(idx)
            assert sample_action(dist, rng, 1)[1] == 2
        assert seen == {0, 1}

    def test_cached_draws_equal_fresh_inverse_cdf_draws(self):
        # the per-state cumulative sums are kept after a state's first draw;
        # every draw must equal one that recomputes them
        probs = np.array([0.1, 0.2, 0.3, 0.4, 0.7, 0.3])
        actions = [STOP] + [AddFragment(0, 0, k, 0) for k in range(4)] + [STOP]
        dist = ActionDistribution(
            actions=actions, log_probs=tensor(np.log(probs)[None, :]), probs=probs, offsets=np.array([0, 4, 6]),
        )
        mine, ref = np.random.default_rng(3), np.random.default_rng(3)
        for i in range(200):
            b = i % 2
            rows = dist.rows(b)
            cum = np.cumsum(probs[rows])
            expected = rows.start + min(int(np.searchsorted(cum, ref.random() * cum[-1], side="right")), len(cum) - 1)
            assert sample_action(dist, mine, b)[1] == expected

    def test_sampling_matches_model_distribution(self):
        policy = make_policy()
        ctx = pocket_ctx(policy)
        dist = policy.action_distribution(initial_state(), ctx, max_nodes=8)
        rng = np.random.default_rng(7)
        counts = np.zeros(len(dist.actions))
        n = 20_000
        for _ in range(n):
            _, idx = sample_action(dist, rng)
            counts[idx] += 1
        np.testing.assert_allclose(counts / n, dist.probs, atol=0.02)


class TestConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PolicyConfig(mode="geometric")

    def test_width_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            PolicyConfig(width=10, n_heads=4)

    def test_log_prob_at_matches_probs(self):
        policy = make_policy()
        ctx = pocket_ctx(policy)
        dist = policy.action_distribution(initial_state(), ctx, max_nodes=8)
        idx = 2
        lp = log_prob_at(dist, idx)
        assert np.isclose(np.exp(lp.data[0, 0]), dist.probs[idx])


def four_node_states(count, seed):
    """``count`` desk states of four nodes, grown by random legal additions."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        s = initial_state()
        while s.n < 4:
            adds = [a for a in legal_actions(s, DESK, 8) if a != STOP]
            s = apply_action(s, adds[rng.integers(len(adds))], DESK, 8)
        states.append(s)
    return states


class TestTapeMemory:
    def test_pre_norm_rules_hold_a_fifth_less(self):
        # one taped trioformer pass, the pocket encoder and the action
        # distribution of 16 four-node desk states, default policy. A
        # pre-norm block is one node that keeps its input's normalized rows,
        # not the scaled and shifted copy a separate layer norm left for the
        # next node, and references its weights rather than concatenating
        # them. Counted: the distinct buffers the rules hold, less the
        # parameter arrays, which the store holds anyway. Before the fused
        # norms this pass recorded 293 nodes whose rules held 6,362,200 bytes;
        # with them, 195 nodes, 175 since a projection of a track is one node
        # and a biased projection one one-layer mlp node, 160 since each
        # track is made in the layout its reader takes, and 149 since each
        # attention bias is read heads last and one log-softmax node
        # normalizes the ragged action column.
        store = ParamStore(np.random.default_rng(0))
        policy = PolicyNetwork(store, DESK, PolicyConfig(mode="trioformer"))
        graph = build_knn_graph(synthetic_pocket(10, 2.0, 0))
        states = four_node_states(16, 0)
        policy.action_distribution(states, policy.pocket_context(graph), 8)  # create the parameters
        with Tape() as tape:
            policy.action_distribution(states, policy.pocket_context(graph), 8)
        found = {}  # the distinct buffers, a view as the array that owns its memory
        for node in tape.nodes:
            for a in ad.held_by(node.vjp):
                if isinstance(a, np.ndarray):
                    while isinstance(a.base, np.ndarray):
                        a = a.base
                    found[id(a)] = a
        params = {id(p.data) for p in store.values()}
        held = sum(a.nbytes for key, a in found.items() if key not in params)
        assert len(tape.nodes) == 149
        assert held <= 0.8 * 6_362_200, held
