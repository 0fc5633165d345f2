"""KNN graph construction, invariant features, and encoder equivariances."""

import numpy as np
import pytest

from pocketgfn.autodiff import Tape
from pocketgfn.nn import ParamStore
from pocketgfn.pocket import (
    PocketError,
    Residue,
    build_knn_graph,
    encode_pocket,
    load_pocket_jsonl,
    node_features,
    pairwise_distance_matrix,
    radius_of_gyration,
    random_rotation,
    save_pocket_jsonl,
    synthetic_pocket,
    transform_residues,
)


def chain(coords, types=None):
    coords = np.asarray(coords, dtype=np.float64)
    if types is None:
        types = [i % 20 for i in range(len(coords))]
    return [Residue(index=i, residue_type=types[i], ca=coords[i]) for i in range(len(coords))]


class TestKnnGraph:
    def test_collinear_three_points_k1(self):
        res = chain([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        g = build_knn_graph(res, K=1)
        assert g.neighbor_idx[0, 0] == 1
        assert g.neighbor_idx[1, 0] == 0
        assert g.neighbor_idx[2, 0] == 1

    def test_k_saturates_to_complete_digraph(self):
        res = chain(np.random.default_rng(0).normal(size=(5, 3)))
        g = build_knn_graph(res, K=10)
        assert g.neighbor_idx.shape == (5, 4)
        for i in range(5):
            assert set(g.neighbor_idx[i]) == set(range(5)) - {i}

    def test_translation_leaves_graph_unchanged(self):
        coords = np.random.default_rng(1).normal(size=(6, 3))
        g1 = build_knn_graph(chain(coords), K=3)
        g2 = build_knn_graph(chain(coords + np.array([5.0, 5.0, 5.0])), K=3)
        np.testing.assert_array_equal(g1.neighbor_idx, g2.neighbor_idx)
        np.testing.assert_allclose(g1.dist_matrix, g2.dist_matrix, atol=1e-9)

    @pytest.mark.parametrize("offset", [2**62, 2**63 - 3, 2**63, 2**64, 10**30])
    def test_graph_same_at_any_index_offset(self, offset):
        # coordinates on a small grid, so distance ties are broken by index
        res = chain(np.random.default_rng(5).integers(0, 3, size=(12, 3)))
        base = build_knn_graph(res)
        shifted = build_knn_graph([Residue(r.index + offset, r.residue_type, r.ca) for r in res])
        for name in ("neighbor_idx", "edge_dist", "edge_sep", "edge_dir"):
            np.testing.assert_array_equal(getattr(shifted, name), getattr(base, name), err_msg=name)

    def test_tie_broken_by_lower_index(self):
        # residues 1 and 2 are equidistant from residue 0
        res = chain([[0, 0, 0], [1, 0, 0], [-1, 0, 0]])
        g = build_knn_graph(res, K=1)
        assert g.neighbor_idx[0, 0] == 1

    def test_duplicate_coordinates_allowed(self):
        res = chain([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        g = build_knn_graph(res, K=1)
        assert g.edge_dist[0, 0] == 0.0
        np.testing.assert_array_equal(g.edge_dir[0, 0], np.zeros(3))

    def test_too_few_residues_rejected(self):
        with pytest.raises(PocketError):
            build_knn_graph(chain([[0, 0, 0]]), K=1)

    def test_bad_k_rejected(self):
        with pytest.raises(PocketError):
            build_knn_graph(chain([[0, 0, 0], [1, 0, 0]]), K=0)

    def test_edge_distances_match_dist_matrix(self):
        res = chain(np.random.default_rng(2).normal(size=(8, 3)) * 4)
        g = build_knn_graph(res, K=3)
        for i in range(8):
            for slot, j in enumerate(g.neighbor_idx[i]):
                assert g.edge_dist[i, slot] == g.dist_matrix[i, j]

    def test_edge_directions_unit_norm(self):
        res = chain(np.random.default_rng(3).normal(size=(7, 3)) * 3)
        g = build_knn_graph(res, K=4)
        norms = np.linalg.norm(g.edge_dir, axis=2)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-9)


class TestDistanceMatrix:
    def test_single_point(self):
        np.testing.assert_array_equal(pairwise_distance_matrix(np.zeros((1, 3))), [[0.0]])

    def test_three_four_five(self):
        d = pairwise_distance_matrix(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]))
        np.testing.assert_allclose(d, [[0.0, 5.0], [5.0, 0.0]])

    def test_symmetric_zero_diagonal(self):
        pts = np.random.default_rng(4).normal(size=(9, 3))
        d = pairwise_distance_matrix(pts)
        np.testing.assert_allclose(d, d.T, atol=1e-12)
        np.testing.assert_array_equal(np.diag(d), np.zeros(9))

    def test_triangle_inequality(self):
        pts = np.random.default_rng(5).normal(size=(6, 3)) * 2
        d = pairwise_distance_matrix(pts)
        n = len(pts)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert d[a, b] <= d[a, c] + d[c, b] + 1e-9


class TestNodeFeatures:
    def test_coplanar_chain_has_zero_sin(self):
        coords = np.array([[0, 0, 0], [1, 1, 0], [2, 0, 0], [3, 1, 0], [4, 0, 0]], dtype=float)
        res = chain(coords)
        g = build_knn_graph(res, K=2)
        scalars, _ = node_features(res, g)
        np.testing.assert_allclose(scalars[1:3, 20], np.zeros(2), atol=1e-9)

    def test_chain_end_dihedrals_zeroed(self):
        res = chain(np.random.default_rng(6).normal(size=(6, 3)))
        g = build_knn_graph(res, K=2)
        scalars, _ = node_features(res, g)
        for end in (0, 4, 5):
            assert scalars[end, 20] == 0.0 and scalars[end, 21] == 0.0

    def test_scalar_features_rigid_motion_invariant(self):
        rng = np.random.default_rng(7)
        coords = rng.normal(size=(8, 3)) * 3
        res = chain(coords)
        g = build_knn_graph(res, K=3)
        s1, _ = node_features(res, g)
        rot = random_rotation(rng)
        res2 = transform_residues(res, rot, rng.normal(size=3) * 10)
        g2 = build_knn_graph(res2, K=3)
        s2, _ = node_features(res2, g2)
        np.testing.assert_allclose(s1, s2, atol=1e-9)

    def test_one_hot_block(self):
        res = chain(np.random.default_rng(8).normal(size=(4, 3)), types=[3, 0, 19, 7])
        g = build_knn_graph(res, K=1)
        scalars, _ = node_features(res, g)
        np.testing.assert_array_equal(scalars[:, :20].sum(axis=1), np.ones(4))
        assert scalars[2, 19] == 1.0

    def test_vector_features_are_unit_chain_steps(self):
        coords = np.array([[0, 0, 0], [2, 0, 0], [2, 3, 0]], dtype=float)
        res = chain(coords)
        g = build_knn_graph(res, K=1)
        _, vec = node_features(res, g)
        np.testing.assert_allclose(vec[0, 0], [1, 0, 0])
        np.testing.assert_array_equal(vec[0, 1], np.zeros(3))  # no previous residue
        np.testing.assert_allclose(vec[1, 1], [-1, 0, 0])
        np.testing.assert_allclose(vec[2, 0], np.zeros(3))  # no next residue


class TestEncoder:
    def encode(self, residues, seed=0, L=2, c=16):
        store = ParamStore(np.random.default_rng(seed))
        g = build_knn_graph(residues, K=3)
        with Tape():
            emb = encode_pocket(g, store, L_layers=L, c_pocket=c)
        return emb

    def test_zero_layers_is_pure_projection(self):
        res = chain(np.random.default_rng(9).normal(size=(5, 3)) * 2)
        store = ParamStore(np.random.default_rng(0))
        g = build_knn_graph(res, K=2)
        with Tape():
            emb = encode_pocket(g, store, L_layers=0, c_pocket=8)
        scalars, _ = node_features(res, g)
        expected = scalars @ store["pocket.embed.w"].data + store["pocket.embed.b"].data
        np.testing.assert_allclose(emb.node_embeddings.data, expected, atol=1e-12)

    def test_pooled_is_mean_of_rows(self):
        res = chain(np.random.default_rng(10).normal(size=(6, 3)) * 2)
        emb = self.encode(res)
        np.testing.assert_allclose(emb.pooled.data[0], emb.node_embeddings.data.mean(axis=0), atol=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        coords = rng.normal(size=(7, 3)) * 3
        res = chain(coords)
        base = self.encode(res, seed=42)
        for trial in range(5):
            rot = random_rotation(rng)
            shift = rng.normal(size=3) * 20
            moved = self.encode(transform_residues(res, rot, shift), seed=42)
            np.testing.assert_allclose(
                moved.node_embeddings.data, base.node_embeddings.data, rtol=1e-6, atol=1e-9
            )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        res = chain(rng.normal(size=(6, 3)) * 2)
        base = self.encode(res, seed=7)
        perm = rng.permutation(6)
        shuffled = [res[p] for p in perm]
        out = self.encode(shuffled, seed=7)
        np.testing.assert_allclose(out.node_embeddings.data, base.node_embeddings.data[perm], atol=1e-9)
        np.testing.assert_allclose(out.pooled.data, base.pooled.data, atol=1e-9)


class TestPocketIO:
    def test_round_trip(self, tmp_path):
        res = synthetic_pocket(10, spread=3.0, seed=0)
        path = str(tmp_path / "p.jsonl")
        save_pocket_jsonl(path, res)
        loaded = load_pocket_jsonl(path)
        assert len(loaded) == 10
        np.testing.assert_allclose(loaded[3].ca, res[3].ca)
        assert loaded[3].residue_type == res[3].residue_type

    def test_non_contiguous_indices_rejected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"index": 0, "res": 1, "ca": [0, 0, 0]}\n')
            fh.write('{"index": 2, "res": 1, "ca": [1, 0, 0]}\n')
        with pytest.raises(PocketError, match="contiguous"):
            load_pocket_jsonl(path)

    def test_duplicate_indices_rejected(self, tmp_path):
        path = str(tmp_path / "dup.jsonl")
        with open(path, "w") as fh:
            fh.write('{"index": 0, "res": 1, "ca": [0, 0, 0]}\n')
            fh.write('{"index": 0, "res": 2, "ca": [1, 0, 0]}\n')
        with pytest.raises(PocketError, match="duplicate"):
            load_pocket_jsonl(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = str(tmp_path / "garbage.jsonl")
        with open(path, "w") as fh:
            fh.write("nope\n")
        with pytest.raises(PocketError, match="not valid JSON"):
            load_pocket_jsonl(path)

    def test_synthetic_pocket_hits_target_spread(self):
        res = synthetic_pocket(12, spread=5.0, seed=3)
        coords = np.stack([r.ca for r in res])
        assert abs(radius_of_gyration(coords) - 5.0) < 1e-9


class TestRadiusOfGyration:
    def test_single_point_is_zero(self):
        assert radius_of_gyration(np.array([[1.0, 2.0, 3.0]])) == 0.0

    def test_two_points_symmetric(self):
        # points at +-1 on x: every point is 1 from the centroid
        assert abs(radius_of_gyration(np.array([[1.0, 0, 0], [-1.0, 0, 0]])) - 1.0) < 1e-12

    def test_translation_invariant(self):
        pts = np.random.default_rng(13).normal(size=(5, 3))
        assert abs(radius_of_gyration(pts) - radius_of_gyration(pts + 7.0)) < 1e-12
