"""Pair-embedding conditioning stack, in its one batched layout: shapes,
ablations, equivariances, gradients."""

import numpy as np
import pytest

from pocketgfn import autodiff as ad
from pocketgfn.autodiff import DimensionError, Tape, finite_diff_check, tensor
from pocketgfn.nn import ParamStore
from pocketgfn.trioformer import (
    adjacency_onehot,
    biased_cross_attention,
    init_pair_embeddings,
    pair_transition,
    pool_graph_embedding,
    rbf_basis,
    reference_cross_attention,
    reference_pair_attention,
    trioformer_stack,
    triangle_update,
)

RNG = np.random.default_rng(99)
H, C = 2, 4  # small heads for tests
C_PAIR = 8
B = 2  # every block runs the batched layout the policy runs


def store_with_seed(seed=0):
    return ParamStore(np.random.default_rng(seed))


def rand_pair(n_p, n_l, c=C_PAIR):
    return tensor(RNG.normal(size=(B, n_p, n_l, c)))


def ln(x):
    """Unit layer norm over the last axis, straight numpy."""
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)


class TestDistanceFeatures:
    def test_center_hit_gives_one(self):
        centers = np.linspace(0.0, 20.0, 16)
        feats = rbf_basis(np.array([centers[5]]))
        assert abs(feats[0, 5] - 1.0) < 1e-12

    def test_monotone_decay_from_center(self):
        feats = rbf_basis(np.array([3.0, 4.0, 5.0]))
        # basis centered closest to 4 responds most at 4
        center_idx = np.argmax(feats[1])
        assert feats[1, center_idx] > feats[0, center_idx]
        assert feats[1, center_idx] > feats[2, center_idx]

    def test_adjacency_onehot(self):
        feats = adjacency_onehot(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(feats[0, 0], [1.0, 0.0])
        np.testing.assert_array_equal(feats[0, 1], [0.0, 1.0])

    def test_rbf_shape(self):
        assert rbf_basis(np.zeros((3, 5))).shape == (3, 5, 16)


class TestPairInit:
    def test_shape(self):
        store = store_with_seed()
        with Tape():
            pair = init_pair_embeddings(
                tensor(RNG.normal(size=(B, 2, 6))), tensor(RNG.normal(size=(B, 3, 5))), store, "t", c_pair=C_PAIR
            )
        assert pair.shape == (B, 2, 3, C_PAIR)

    def test_zero_inputs_zero_bias_gives_zero(self):
        store = store_with_seed()
        h_p = tensor(np.zeros((B, 2, 6)))
        h_l = tensor(np.zeros((B, 3, 5)))
        with Tape():
            init_pair_embeddings(h_p, h_l, store, "t", c_pair=C_PAIR)
        store["t.pair_p.b"].data[:] = 0.0
        with Tape():
            pair = init_pair_embeddings(h_p, h_l, store, "t", c_pair=C_PAIR)
        np.testing.assert_array_equal(pair.data, np.zeros((B, 2, 3, C_PAIR)))

    def test_ligand_swap_permutes_columns(self):
        store = store_with_seed()
        h_p = tensor(RNG.normal(size=(B, 2, 6)))
        h_l_data = RNG.normal(size=(B, 3, 5))
        with Tape():
            a = init_pair_embeddings(h_p, tensor(h_l_data), store, "t", c_pair=C_PAIR)
            b = init_pair_embeddings(h_p, tensor(h_l_data[:, [1, 0, 2]]), store, "t", c_pair=C_PAIR)
        np.testing.assert_allclose(b.data, a.data[:, :, [1, 0, 2]], atol=1e-12)

    def test_empty_side_rejected(self):
        store = store_with_seed()
        with pytest.raises(DimensionError):
            init_pair_embeddings(tensor(np.zeros((B, 0, 4))), tensor(np.zeros((B, 2, 4))), store, "t", c_pair=C_PAIR)


class TestTriangleUpdate:
    def feats(self, n, kind="pocket"):
        """Pocket distances are shared by the batch, (1, n, n, f); each
        ligand brings its own bond graph, (B, n, n, 2)."""
        if kind == "pocket":
            d = np.abs(RNG.normal(size=(n, n))) * 5
            return rbf_basis((d + d.T) / 2)[None]
        adj = np.triu((RNG.random((B, n, n)) > 0.5).astype(float), 1)
        return adjacency_onehot(adj + adj.transpose(0, 2, 1))

    def test_shape_preserved(self):
        store = store_with_seed()
        pair = rand_pair(2, 3)
        with Tape():
            out = triangle_update(pair, self.feats(2), "pocket", store, "tp", n_heads=H, head_dim=C)
        assert out.shape == (B, 2, 3, C_PAIR)

    def test_wrong_axis_features_rejected(self):
        store = store_with_seed()
        pair = rand_pair(2, 3)
        with pytest.raises(DimensionError):
            triangle_update(pair, self.feats(3), "pocket", store, "tp", n_heads=H, head_dim=C)

    @pytest.mark.parametrize("shape", [(2, 2, 16), (B + 1, 2, 2, 16)], ids=["no-batch-axis", "batch-mismatch"])
    def test_features_outside_the_layout_rejected(self, shape):
        with pytest.raises(DimensionError, match="1 or 2"):
            triangle_update(rand_pair(2, 3), np.zeros(shape), "pocket", store_with_seed(), "tp", n_heads=H, head_dim=C)

    def test_single_pocket_node_attention_is_identity_weight(self):
        store = store_with_seed(3)
        pair = rand_pair(1, 3)
        with Tape():
            out = triangle_update(pair, self.feats(1), "pocket", store, "tp", n_heads=H, head_dim=C)
        # softmax over one element = 1, so output = pair + o(v(ln(pair))) in every entry
        v = ln(pair.data) @ store["tp.v.w"].data
        expected = pair.data + v @ store["tp.o.w"].data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_bias_ablation_matches_reference(self):
        for axis in ("pocket", "ligand"):
            store = store_with_seed(7)
            pair = rand_pair(3, 4)
            feats = self.feats(3 if axis == "pocket" else 4, kind=axis)
            with Tape():
                triangle_update(pair, feats, axis, store, "tp", n_heads=H, head_dim=C)
            store["tp.t.w"].data[:] = 0.0
            with Tape():
                out = triangle_update(pair, feats, axis, store, "tp", n_heads=H, head_dim=C)
            w = [store[f"tp.{k}.w"].data for k in "qkvo"]
            for b in range(B):
                np.testing.assert_allclose(out.data[b], reference_pair_attention(pair.data[b], axis, *w, H, C), atol=1e-10)

    def test_gradient_vs_finite_differences(self):
        for axis in ("pocket", "ligand"):
            store = store_with_seed(11)
            feats = self.feats(2, kind=axis)

            def f(x):
                return triangle_update(x, feats, axis, store, "tp", n_heads=H, head_dim=C)

            report = finite_diff_check(f, rand_pair(2, 2), tol=1e-3)
            assert report.passed, str(report)


class TestPairTransition:
    def test_zero_weights_identity(self):
        store = store_with_seed()
        pair = rand_pair(2, 3)
        with Tape():
            pair_transition(pair, store, "tr")
        for name in store.names():
            if name.startswith("tr.mlp"):
                store[name].data[:] = 0.0
        with Tape():
            out = pair_transition(pair, store, "tr")
        np.testing.assert_allclose(out.data, pair.data, atol=1e-12)

    def test_shape_preserved(self):
        store = store_with_seed()
        pair = rand_pair(4, 2)
        with Tape():
            out = pair_transition(pair, store, "tr")
        assert out.shape == pair.shape

    def test_gradient(self):
        store = store_with_seed(5)

        def f(x):
            return pair_transition(x, store, "tr")

        report = finite_diff_check(f, rand_pair(2, 2), tol=1e-4)
        assert report.passed, str(report)


class TestCrossAttention:
    def test_zero_bias_matches_reference(self):
        # both directions: ligand queries over pocket keys, and the reverse
        store = store_with_seed(13)
        h_p = tensor(RNG.normal(size=(B, 3, 8)))
        h_l = tensor(RNG.normal(size=(B, 2, 8)))
        for prefix, h_q, h_kv in (("x.lig", h_l, h_p), ("x.poc", h_p, h_l)):
            zero_bias = tensor(np.zeros((B, h_q.shape[1], h_kv.shape[1], H)))
            with Tape():
                out = biased_cross_attention(h_q, h_kv, zero_bias, store, prefix, n_heads=H, head_dim=C)
            w = [store[f"{prefix}.{k}.w"].data for k in "qkvo"]
            for b in range(B):
                np.testing.assert_allclose(out.data[b], reference_cross_attention(h_q.data[b], h_kv.data[b], *w, H, C), atol=1e-10)

    def test_single_pocket_node_full_weight(self):
        store = store_with_seed(17)
        h_p = tensor(RNG.normal(size=(B, 1, 8)))
        h_l = tensor(RNG.normal(size=(B, 3, 8)))
        bias = tensor(RNG.normal(size=(B, 3, 1, H)))
        with Tape():
            new_l = biased_cross_attention(h_l, h_p, bias, store, "x", n_heads=H, head_dim=C)
        # each ligand node takes the whole value of its entry's one pocket node, whatever the bias
        out = (ln(h_p.data) @ store["x.v.w"].data) @ store["x.o.w"].data
        np.testing.assert_allclose(new_l.data, h_l.data + out, atol=1e-12)

    def test_pocket_permutation_leaves_ligand_fixed(self):
        store = store_with_seed(19)
        h_p = RNG.normal(size=(B, 4, 8))
        h_l = tensor(RNG.normal(size=(B, 3, 8)))
        bias = RNG.normal(size=(B, 3, 4, H))
        with Tape():
            base = biased_cross_attention(h_l, tensor(h_p), tensor(bias), store, "x", n_heads=H, head_dim=C)
        perm = [2, 0, 3, 1]
        with Tape():
            moved = biased_cross_attention(h_l, tensor(h_p[:, perm]), tensor(bias[:, :, perm]), store, "x", n_heads=H, head_dim=C)
        np.testing.assert_allclose(moved.data, base.data, atol=1e-9)

    @pytest.mark.parametrize("shared", ["keys", "queries"])
    def test_shared_track_acts_as_its_copies(self, shared):
        # a track of batch size 1 broadcasts: the output, and the gradient it
        # collects, are those of B copies of it, summed over the copies
        store = store_with_seed(53)
        one = RNG.normal(size=(1, 4, 8))
        other = tensor(RNG.normal(size=(B, 3, 8)))
        bias = tensor(RNG.normal(size=(B, 3, 4, H) if shared == "keys" else (B, 4, 3, H)))
        coeffs = tensor(RNG.normal(size=(B, 3 if shared == "keys" else 4, 8)))
        outs, grads = [], []
        for track in (tensor(one), tensor(np.repeat(one, B, axis=0))):
            h_q, h_kv = (other, track) if shared == "keys" else (track, other)
            with Tape():
                out = biased_cross_attention(h_q, h_kv, bias, store, "x", n_heads=H, head_dim=C)
                ad.backward(ad.sum_all(ad.mul(out, coeffs)))
            outs.append(out.data)
            grads.append(track.grad.sum(axis=0, keepdims=True))
        np.testing.assert_allclose(outs[0], outs[1], atol=1e-12)
        np.testing.assert_allclose(grads[0], grads[1], atol=1e-12)


class TestStack:
    def inputs(self, n_p=3, n_l=2, c=8, seed=23):
        """A shared pocket track (n_p, c) and a batch of B ligands, (B, n_l, c),
        whose bond graphs differ: entry 0 is bonded 0-1, entry 1 has no bond
        or, from 3 nodes on, is bonded 0-2."""
        rng = np.random.default_rng(seed)
        h_p = rng.normal(size=(n_p, c))
        h_l = rng.normal(size=(B, n_l, c))
        d = np.abs(rng.normal(size=(n_p, n_p))) * 4
        d_p = (d + d.T) / 2
        np.fill_diagonal(d_p, 0.0)
        adj = np.zeros((B, n_l, n_l))
        if n_l > 1:
            adj[0, 0, 1] = adj[0, 1, 0] = 1.0
        if n_l > 2:
            adj[1, 0, 2] = adj[1, 2, 0] = 1.0
        return h_p, h_l, d_p, adj

    def stack(self, h_p, h_l, d_p, adj, store, n_layers=2):
        return trioformer_stack(tensor(h_p), tensor(h_l), d_p, adj, store, "trio", n_layers=n_layers, n_heads=H, head_dim=C, c_pair=C_PAIR)

    def test_zero_layers_returns_input(self):
        store = store_with_seed()
        h_p, h_l, d_p, adj = self.inputs()
        x = tensor(h_l)
        with Tape():
            out = trioformer_stack(tensor(h_p), x, d_p, adj, store, "trio", n_layers=0, n_heads=H, head_dim=C, c_pair=C_PAIR)
        assert out is x

    def test_output_shape_and_determinism(self):
        h_p, h_l, d_p, adj = self.inputs()
        outs = []
        for _ in range(2):
            with Tape():
                outs.append(self.stack(h_p, h_l, d_p, adj, store_with_seed(31)).data.copy())
        assert outs[0].shape == (B, 2, 8)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_batch_entries_are_independent(self):
        # each entry conditions on the shared pocket alone: the batch equals
        # the entries run as batches of one
        store = store_with_seed(29)
        h_p, h_l, d_p, adj = self.inputs(n_p=4, n_l=3)
        with Tape():
            batch = self.stack(h_p, h_l, d_p, adj, store).data
            for b in range(B):
                alone = self.stack(h_p, h_l[b : b + 1], d_p, adj[b : b + 1], store).data
                np.testing.assert_allclose(batch[b : b + 1], alone, atol=1e-12)
        assert not np.allclose(batch[0], batch[1])

    def test_full_stack_gradient(self):
        store = store_with_seed(37)
        h_p, h_l, d_p, adj = self.inputs(n_p=2, n_l=3)

        def f(x):
            return trioformer_stack(tensor(h_p), x, d_p, adj, store, "trio", n_layers=1, n_heads=H, head_dim=C, c_pair=C_PAIR)

        report = finite_diff_check(f, tensor(h_l), tol=1e-3)
        assert report.passed, str(report)

    def test_full_stack_gradient_wrt_pocket_track(self):
        # two layers: the shared pocket track is read by both, and made per
        # ligand by the first layer's cross-attention
        store = store_with_seed(59)
        h_p, h_l, d_p, adj = self.inputs(n_p=2, n_l=3)

        def f(x):
            return trioformer_stack(x, tensor(h_l), d_p, adj, store, "trio", n_layers=2, n_heads=H, head_dim=C, c_pair=C_PAIR)

        report = finite_diff_check(f, tensor(h_p), tol=1e-3)
        assert report.passed, str(report)

    def test_last_layer_leaves_the_pocket_track(self):
        # only the ligand track leaves the stack, so only a layer with a
        # successor updates the pocket track
        store = store_with_seed(61)
        h_p, h_l, d_p, adj = self.inputs()
        with Tape():
            self.stack(h_p, h_l, d_p, adj, store, n_layers=2)
        names = store.names()
        assert any(name.startswith("trio.layer0.cross.poc.") for name in names)
        assert any(name.startswith("trio.layer1.cross.lig.") for name in names)
        assert not any(name.startswith("trio.layer1.cross.poc.") for name in names)

    def test_full_stack_gradient_wrt_weights(self):
        store = store_with_seed(41)
        h_p, h_l, d_p, adj = self.inputs(n_p=2, n_l=3)
        with Tape():
            self.stack(h_p, h_l, d_p, adj, store, n_layers=1)
        w = store["trio.layer0.tri_p.q.w"]

        def f(x):
            assert x is w
            return self.stack(h_p, h_l, d_p, adj, store, n_layers=1)

        report = finite_diff_check(f, w, tol=1e-3)
        assert report.passed, str(report)

    def test_joint_pocket_permutation_invariance(self):
        store = store_with_seed(43)
        h_p, h_l, d_p, adj = self.inputs(n_p=4, n_l=3)
        perm = [3, 1, 0, 2]
        with Tape():
            base = self.stack(h_p, h_l, d_p, adj, store)
            moved = self.stack(h_p[perm], h_l, d_p[np.ix_(perm, perm)], adj, store)
        np.testing.assert_allclose(moved.data, base.data, atol=1e-9)

    def test_ligand_permutation_equivariance(self):
        store = store_with_seed(47)
        h_p, h_l, d_p, adj = self.inputs(n_p=3, n_l=3)
        adj[:, 1, 2] = adj[:, 2, 1] = 1.0  # chains 0-1-2 and 0-2-1
        perm = [2, 0, 1]
        with Tape():
            base = self.stack(h_p, h_l, d_p, adj, store)
            moved = self.stack(h_p, h_l[:, perm], d_p, adj[:, perm][:, :, perm], store)
        np.testing.assert_allclose(moved.data, base.data[:, perm], atol=1e-9)


class TestPoolAndEdges:
    def test_pool_identical_rows(self):
        v = RNG.normal(size=(B, 1, 5))
        with Tape():
            out = pool_graph_embedding(tensor(np.tile(v, (1, 4, 1))))
        np.testing.assert_allclose(out.data, v[:, 0], atol=1e-12)

    def test_pool_opposite_rows_cancel(self):
        v = RNG.normal(size=(B, 1, 5))
        with Tape():
            out = pool_graph_embedding(tensor(np.concatenate([v, -v], axis=1)))
        np.testing.assert_allclose(out.data, np.zeros((B, 5)), atol=1e-12)

    def test_pool_permutation_invariant(self):
        x = RNG.normal(size=(B, 6, 4))
        with Tape():
            a = pool_graph_embedding(tensor(x))
            b = pool_graph_embedding(tensor(x[:, ::-1].copy()))
        assert a.shape == (B, 4)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_pool_empty_rejected(self):
        with pytest.raises(DimensionError):
            pool_graph_embedding(tensor(np.zeros((B, 0, 4))))
