"""Pair-embedding conditioning stack: shapes, ablations, equivariances, gradients."""

import numpy as np
import pytest

from pocketgfn import autodiff as ad
from pocketgfn.autodiff import DimensionError, Tape, finite_diff_check, tensor
from pocketgfn.nn import ParamStore
from pocketgfn.trioformer import (
    adjacency_onehot,
    biased_cross_attention,
    edge_embedding,
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


def store_with_seed(seed=0):
    return ParamStore(np.random.default_rng(seed))


def rand_pair(n_p, n_l, c=C_PAIR):
    return tensor(RNG.normal(size=(n_p, n_l, c)))


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
            pair = init_pair_embeddings(tensor(RNG.normal(size=(2, 6))), tensor(RNG.normal(size=(3, 5))), store, "t", c_pair=C_PAIR)
        assert pair.shape == (2, 3, C_PAIR)

    def test_zero_inputs_zero_bias_gives_zero(self):
        store = store_with_seed()
        h_p = tensor(np.zeros((2, 6)))
        h_l = tensor(np.zeros((3, 5)))
        with Tape():
            init_pair_embeddings(h_p, h_l, store, "t", c_pair=C_PAIR)
        store["t.pair_p.b"].data[:] = 0.0
        with Tape():
            pair = init_pair_embeddings(h_p, h_l, store, "t", c_pair=C_PAIR)
        np.testing.assert_array_equal(pair.data, np.zeros((2, 3, C_PAIR)))

    def test_ligand_swap_permutes_columns(self):
        store = store_with_seed()
        h_p = tensor(RNG.normal(size=(2, 6)))
        h_l_data = RNG.normal(size=(3, 5))
        with Tape():
            a = init_pair_embeddings(h_p, tensor(h_l_data), store, "t", c_pair=C_PAIR)
            b = init_pair_embeddings(h_p, tensor(h_l_data[[1, 0, 2]]), store, "t", c_pair=C_PAIR)
        np.testing.assert_allclose(b.data, a.data[:, [1, 0, 2]], atol=1e-12)

    def test_empty_side_rejected(self):
        store = store_with_seed()
        with pytest.raises(DimensionError):
            init_pair_embeddings(tensor(np.zeros((0, 4))), tensor(np.zeros((2, 4))), store, "t")


class TestTriangleUpdate:
    def feats(self, n, kind="pocket"):
        if kind == "pocket":
            d = np.abs(RNG.normal(size=(n, n))) * 5
            return rbf_basis((d + d.T) / 2)
        adj = (RNG.random((n, n)) > 0.5).astype(float)
        return adjacency_onehot(np.triu(adj, 1) + np.triu(adj, 1).T)

    def test_shape_preserved(self):
        store = store_with_seed()
        pair = rand_pair(2, 3)
        with Tape():
            out = triangle_update(pair, self.feats(2), "pocket", store, "tp", n_heads=H, head_dim=C)
        assert out.shape == (2, 3, C_PAIR)

    def test_wrong_axis_features_rejected(self):
        store = store_with_seed()
        pair = rand_pair(2, 3)
        with pytest.raises(DimensionError):
            triangle_update(pair, self.feats(3), "pocket", store, "tp", n_heads=H, head_dim=C)

    def test_single_pocket_node_attention_is_identity_weight(self):
        store = store_with_seed(3)
        pair = rand_pair(1, 3)
        with Tape():
            out = triangle_update(pair, self.feats(1), "pocket", store, "tp", n_heads=H, head_dim=C)
        # softmax over one element = 1, so output = pair + o(v(ln(pair)))
        flat = pair.data.reshape(-1, C_PAIR)
        mu, var = flat.mean(1, keepdims=True), flat.var(1, keepdims=True)
        normed = (flat - mu) / np.sqrt(var + 1e-5)
        v = (normed @ store["tp.v.w"].data).reshape(1, 3, H, C)
        expected = pair.data + (v.reshape(-1, H * C) @ store["tp.o.w"].data).reshape(1, 3, C_PAIR)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_bias_ablation_matches_reference(self):
        for axis in ("pocket", "ligand"):
            store = store_with_seed(7)
            pair = rand_pair(3, 4)
            n_axis = 3 if axis == "pocket" else 4
            feats = self.feats(n_axis, kind=axis)
            with Tape():
                triangle_update(pair, feats, axis, store, "tp", n_heads=H, head_dim=C)
            store["tp.t.w"].data[:] = 0.0
            with Tape():
                out = triangle_update(pair, feats, axis, store, "tp", n_heads=H, head_dim=C)
            ref = reference_pair_attention(
                pair.data, axis, store["tp.q.w"].data, store["tp.k.w"].data, store["tp.v.w"].data, store["tp.o.w"].data, H, C
            )
            np.testing.assert_allclose(out.data, ref, atol=1e-10)

    def test_gradient_vs_finite_differences(self):
        store = store_with_seed(11)
        feats = self.feats(2)
        pair = rand_pair(2, 2)

        def f(x):
            return triangle_update(x, feats, "pocket", store, "tp", n_heads=H, head_dim=C)

        report = finite_diff_check(f, pair, tol=1e-3)
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
        store = store_with_seed(13)
        h_p = tensor(RNG.normal(size=(3, 8)))
        h_l = tensor(RNG.normal(size=(2, 8)))
        pair = rand_pair(3, 2)
        with Tape():
            biased_cross_attention(h_p, h_l, pair, store, "x", n_heads=H, head_dim=C)
        store["x.bias.w"].data[:] = 0.0
        with Tape():
            new_p, new_l = biased_cross_attention(h_p, h_l, pair, store, "x", n_heads=H, head_dim=C)
        ref_l = reference_cross_attention(
            h_l.data, h_p.data, store["x.lig.q.w"].data, store["x.lig.k.w"].data, store["x.lig.v.w"].data, store["x.lig.o.w"].data, H, C
        )
        ref_p = reference_cross_attention(
            h_p.data, h_l.data, store["x.poc.q.w"].data, store["x.poc.k.w"].data, store["x.poc.v.w"].data, store["x.poc.o.w"].data, H, C
        )
        np.testing.assert_allclose(new_l.data, ref_l, atol=1e-10)
        np.testing.assert_allclose(new_p.data, ref_p, atol=1e-10)

    def test_single_pocket_node_full_weight(self):
        store = store_with_seed(17)
        h_p = tensor(RNG.normal(size=(1, 8)))
        h_l = tensor(RNG.normal(size=(3, 8)))
        pair = rand_pair(1, 3)
        with Tape():
            _, new_l = biased_cross_attention(h_p, h_l, pair, store, "x", n_heads=H, head_dim=C)

        def ln(x):
            return (x - x.mean(1, keepdims=True)) / np.sqrt(x.var(1, keepdims=True) + 1e-5)

        v = (ln(h_p.data) @ store["x.lig.v.w"].data).reshape(1, H, C)
        out = np.tile(v.reshape(1, H * C), (3, 1)) @ store["x.lig.o.w"].data
        np.testing.assert_allclose(new_l.data, h_l.data + out, atol=1e-12)

    def test_pocket_permutation_leaves_ligand_fixed(self):
        store = store_with_seed(19)
        h_p = RNG.normal(size=(4, 8))
        h_l = tensor(RNG.normal(size=(3, 8)))
        pair = RNG.normal(size=(4, 3, C_PAIR))
        with Tape():
            _, base = biased_cross_attention(tensor(h_p), h_l, tensor(pair), store, "x", n_heads=H, head_dim=C)
        perm = [2, 0, 3, 1]
        with Tape():
            _, moved = biased_cross_attention(tensor(h_p[perm]), h_l, tensor(pair[perm]), store, "x", n_heads=H, head_dim=C)
        np.testing.assert_allclose(moved.data, base.data, atol=1e-9)


class TestStack:
    def inputs(self, n_p=3, n_l=2, c=8, seed=23):
        rng = np.random.default_rng(seed)
        h_p = rng.normal(size=(n_p, c))
        h_l = rng.normal(size=(n_l, c))
        d = np.abs(rng.normal(size=(n_p, n_p))) * 4
        d_p = (d + d.T) / 2
        np.fill_diagonal(d_p, 0.0)
        adj = np.zeros((n_l, n_l))
        if n_l > 1:
            adj[0, 1] = adj[1, 0] = 1.0
        return h_p, h_l, d_p, adj

    def test_zero_layers_returns_input(self):
        store = store_with_seed()
        h_p, h_l, d_p, adj = self.inputs()
        x = tensor(h_l)
        with Tape():
            out = trioformer_stack(tensor(h_p), x, d_p, adj, store, n_layers=0)
        assert out is x

    def test_output_shape_and_determinism(self):
        h_p, h_l, d_p, adj = self.inputs()
        outs = []
        for _ in range(2):
            store = store_with_seed(31)
            with Tape():
                out = trioformer_stack(
                    tensor(h_p), tensor(h_l), d_p, adj, store, n_layers=2, n_heads=H, head_dim=C, c_pair=C_PAIR
                )
            outs.append(out.data.copy())
        assert outs[0].shape == (2, 8)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_full_stack_gradient(self):
        store = store_with_seed(37)
        h_p, h_l, d_p, adj = self.inputs(n_p=2, n_l=2)

        def f(x):
            return trioformer_stack(tensor(h_p), x, d_p, adj, store, n_layers=1, n_heads=H, head_dim=C, c_pair=C_PAIR)

        report = finite_diff_check(f, tensor(h_l), tol=1e-3)
        assert report.passed, str(report)

    def test_full_stack_gradient_wrt_weights(self):
        store = store_with_seed(41)
        h_p, h_l, d_p, adj = self.inputs(n_p=2, n_l=2)
        with Tape():
            trioformer_stack(tensor(h_p), tensor(h_l), d_p, adj, store, n_layers=1, n_heads=H, head_dim=C, c_pair=C_PAIR)
        w = store["trio.layer0.tri_p.q.w"]

        def f(x):
            assert x is w
            return trioformer_stack(tensor(h_p), tensor(h_l), d_p, adj, store, n_layers=1, n_heads=H, head_dim=C, c_pair=C_PAIR)

        report = finite_diff_check(f, w, tol=1e-3)
        assert report.passed, str(report)

    def test_joint_pocket_permutation_invariance(self):
        store = store_with_seed(43)
        h_p, h_l, d_p, adj = self.inputs(n_p=4, n_l=3)
        with Tape():
            base = trioformer_stack(tensor(h_p), tensor(h_l), d_p, adj, store, n_layers=2, n_heads=H, head_dim=C, c_pair=C_PAIR)
        perm = [3, 1, 0, 2]
        with Tape():
            moved = trioformer_stack(
                tensor(h_p[perm]), tensor(h_l), d_p[np.ix_(perm, perm)], adj, store, n_layers=2, n_heads=H, head_dim=C, c_pair=C_PAIR
            )
        np.testing.assert_allclose(moved.data, base.data, atol=1e-9)

    def test_ligand_permutation_equivariance(self):
        store = store_with_seed(47)
        h_p, h_l, d_p, _ = self.inputs(n_p=3, n_l=3)
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1.0
        with Tape():
            base = trioformer_stack(tensor(h_p), tensor(h_l), d_p, adj, store, n_layers=2, n_heads=H, head_dim=C, c_pair=C_PAIR)
        perm = [2, 0, 1]
        with Tape():
            moved = trioformer_stack(
                tensor(h_p), tensor(h_l[perm]), d_p, adj[np.ix_(perm, perm)], store, n_layers=2, n_heads=H, head_dim=C, c_pair=C_PAIR
            )
        np.testing.assert_allclose(moved.data, base.data[perm], atol=1e-9)


class TestPoolAndEdges:
    def test_pool_identical_rows(self):
        v = RNG.normal(size=5)
        with Tape():
            out = pool_graph_embedding(tensor(np.tile(v, (4, 1))))
        np.testing.assert_allclose(out.data[0], v, atol=1e-12)

    def test_pool_opposite_rows_cancel(self):
        v = RNG.normal(size=5)
        with Tape():
            out = pool_graph_embedding(tensor(np.stack([v, -v])))
        np.testing.assert_allclose(out.data[0], np.zeros(5), atol=1e-12)

    def test_pool_permutation_invariant(self):
        x = RNG.normal(size=(6, 4))
        with Tape():
            a = pool_graph_embedding(tensor(x))
            b = pool_graph_embedding(tensor(x[::-1].copy()))
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_pool_empty_rejected(self):
        with pytest.raises(DimensionError):
            pool_graph_embedding(tensor(np.zeros((0, 4))))

    def test_edge_embedding_symmetric(self):
        a = tensor(RNG.normal(size=(1, 6)))
        b = tensor(RNG.normal(size=(1, 6)))
        with Tape():
            e1 = edge_embedding(a, b)
            e2 = edge_embedding(b, a)
        np.testing.assert_array_equal(e1.data, e2.data)

    def test_edge_embedding_zero_second(self):
        a = tensor(RNG.normal(size=(1, 6)))
        with Tape():
            e = edge_embedding(a, tensor(np.zeros((1, 6))))
        np.testing.assert_array_equal(e.data, a.data)

    def test_edge_embedding_width_mismatch(self):
        with pytest.raises(DimensionError):
            edge_embedding(tensor(np.zeros((1, 6))), tensor(np.zeros((1, 5))))
