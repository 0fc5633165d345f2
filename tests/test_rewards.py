import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketgfn import rewards
from pocketgfn.ligand import (
    AddFragment,
    MoleculeSet,
    STOP,
    apply_action,
    canonical_key,
    desk_library,
    enumerated_space,
    initial_state,
    legal_actions,
    molecule_from_record,
    molecule_set,
    toy_library,
)
from pocketgfn.pocket import (
    POLARITY_TABLE,
    Residue,
    build_knn_graph,
    radius_of_gyration,
    random_rotation,
    synthetic_pocket,
    transform_residues,
)
from pocketgfn.rewards import (
    DS_SCALE,
    MetricError,
    RewardWeights,
    combined_quality,
    diversity,
    docking_proxy,
    docking_score,
    fingerprint,
    ligand_polarity,
    ligand_size,
    mean_and_se,
    qed_proxy,
    sa_proxy,
    set_scores,
    tanimoto_distance,
    top_k_mean,
)

import rewards_reference
from ligand_reference import permute_state

DESK = desk_library()
TOY = toy_library()


def grow(actions, library=DESK, max_nodes=8, stop=True):
    s = initial_state()
    for a in actions:
        s = apply_action(s, a, library, max_nodes)
    if stop:
        s = apply_action(s, STOP, library, max_nodes)
    return s


def random_desk_set(seed, n, n_distinct=None, cap=8):
    """n terminal desk molecules grown by uniform legal actions; with
    ``n_distinct`` they are drawn with replacement from that many growths."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(n if n_distinct is None else n_distinct):
        s = initial_state()
        while not s.terminal:
            acts = legal_actions(s, DESK, cap)
            s = apply_action(s, acts[rng.integers(len(acts))], DESK, cap)
        pool.append(s)
    return pool if n_distinct is None else [pool[i] for i in rng.integers(n_distinct, size=n)]


def square_pocket(side=2.0, types=(0, 19, 0, 19)):
    """Four residues at distance `side` from the centroid: Rg == side exactly."""
    coords = [(side, 0, 0), (-side, 0, 0), (0, side, 0), (0, -side, 0)]
    residues = [
        Residue(index=i, residue_type=t, ca=np.array(c, dtype=float))
        for i, (t, c) in enumerate(zip(types, coords))
    ]
    return build_knn_graph(residues)


class TestDockingProxy:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pocket_terms_are_the_per_call_values(self, seed):
        # the graph holds the radius of gyration and polarity that each call used to recompute
        pocket = build_knn_graph(synthetic_pocket(10, 2.5, seed=seed, polar_fraction=0.3))
        assert pocket.gyration_radius == radius_of_gyration(np.stack([r.ca for r in pocket.residues]))
        assert pocket.polarity == float(np.mean([POLARITY_TABLE[r.residue_type] for r in pocket.residues]))
        s = grow([AddFragment(None, None, 2, 0)])
        size_term = math.exp(-((3 - 1.5 * pocket.gyration_radius) ** 2) / (2 * 4.0**2))
        pol_term = math.exp(-((0.75 - pocket.polarity) ** 2) / (2 * 0.2**2))
        assert docking_proxy(pocket, s, DESK) == size_term * pol_term

    def test_peak_when_both_targets_hit(self):
        # Rg = 2 -> target size 3; amide has size 3, polarity 0.75
        pocket = square_pocket(2.0, types=(13, 15, 14, 15))  # mean polarity (13+15+14+15)/4/19
        target_pol = (13 + 15 + 14 + 15) / 4 / 19
        s = grow([AddFragment(None, None, 2, 0)])
        assert ligand_size(s, DESK) == 3
        assert math.isclose(ligand_polarity(s, DESK), 0.75)
        assert math.isclose(pocket.polarity, target_pol)
        # not exactly 0.75, so not exactly 1; build an exact hit instead
        pocket_exact = square_pocket(2.0, types=(19, 19, 19, 0))  # polarity 0.75 exactly
        q = docking_proxy(pocket_exact, s, DESK)
        assert math.isclose(q, 1.0, abs_tol=1e-12)
        assert math.isclose(docking_score(pocket_exact, s, DESK), DS_SCALE)

    def test_size_deviation_of_one_sigma(self):
        # Rg = 2 -> target size 3; benzene+hydroxyl = 7, deviation 4 = sigma_s
        pocket = square_pocket(2.0, types=(19, 0, 0, 19))  # polarity 0.5
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        assert ligand_size(s, DESK) == 7
        assert math.isclose(ligand_polarity(s, DESK), 0.5)
        assert math.isclose(docking_proxy(pocket, s, DESK), math.exp(-0.5), rel_tol=1e-12)

    def test_monotone_in_size_deviation(self):
        pocket = square_pocket(2.0, types=(19, 0, 0, 19))
        # chains of hydroxyl-free polarity 0.5? use pairs (benzene, amide...) sizes grow
        sizes = []
        qs = []
        s = grow([AddFragment(None, None, 3, 0)], stop=False)  # cyclohexane, size 6
        term = apply_action(s, STOP, DESK, 8)
        sizes.append(ligand_size(term, DESK))
        qs.append(math.exp(-((ligand_size(term, DESK) - 3.0) ** 2) / 32.0))
        for k in range(3):
            s = apply_action(s, AddFragment(k, 1, 3, 0), DESK, 8)
            term = apply_action(s, STOP, DESK, 8)
            sizes.append(ligand_size(term, DESK))
            qs.append(math.exp(-((ligand_size(term, DESK) - 3.0) ** 2) / 32.0))
        assert sizes == [6, 12, 18, 24]
        assert all(a > b for a, b in zip(qs, qs[1:]))
        # and the proxy matches its size factor times a constant polarity factor
        pol_factor = math.exp(-((0.1 - 0.5) ** 2) / (2 * 0.2**2))
        s = grow([AddFragment(None, None, 3, 0)])
        assert math.isclose(docking_proxy(pocket, s, DESK), qs[0] * pol_factor, rel_tol=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(4)
        residues = synthetic_pocket(8, 3.0, seed=2)
        s = grow([AddFragment(None, None, 2, 0), AddFragment(0, 1, 1, 0)])
        base = docking_proxy(build_knn_graph(residues), s, DESK)
        for _ in range(5):
            moved = transform_residues(residues, random_rotation(rng), rng.normal(size=3) * 10)
            assert math.isclose(docking_proxy(build_knn_graph(moved), s, DESK), base, rel_tol=1e-9)

    def test_non_terminal_rejected(self):
        pocket = square_pocket()
        s = grow([AddFragment(None, None, 0, 0)], stop=False)
        with pytest.raises(MetricError, match="terminal"):
            docking_proxy(pocket, s, DESK)

    def test_in_unit_interval(self):
        pocket = square_pocket(5.0)
        for s in enumerated_space(DESK, 3).molecules:
            q = docking_proxy(pocket, s, DESK)
            assert 0.0 <= q <= 1.0


class TestQedSa:
    def test_qed_peak_at_four_fragments(self):
        s = grow([
            AddFragment(None, None, 0, 0),
            AddFragment(0, 1, 2, 0),
            AddFragment(0, 2, 1, 0),
            AddFragment(1, 1, 3, 0),
        ])
        assert s.n == 4
        assert qed_proxy(s) == 1.0

    def test_qed_formula(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 2, 0)])
        assert math.isclose(qed_proxy(s), math.exp(-2.0))

    def test_sa_identical_fragments(self):
        s = grow([AddFragment(None, None, 3, 0), AddFragment(0, 1, 3, 0)])
        assert sa_proxy(s) == 1.0

    def test_sa_two_distinct(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        assert sa_proxy(s) == 0.5

    def test_non_terminal_rejected(self):
        s = grow([AddFragment(None, None, 0, 0)], stop=False)
        with pytest.raises(MetricError):
            qed_proxy(s)
        with pytest.raises(MetricError):
            sa_proxy(s)


class TestCombinedQuality:
    def test_single_objective_passthrough(self):
        w = RewardWeights(1.0, 0.0, 0.0)
        assert combined_quality(0.37, 0.9, 0.1, w) == 0.37

    def test_equal_components(self):
        w = RewardWeights(0.2, 0.5, 0.3)
        assert math.isclose(combined_quality(0.6, 0.6, 0.6, w), 0.6)

    def test_worked_example(self):
        w = RewardWeights(0.5, 0.25, 0.25)
        assert math.isclose(combined_quality(1.0, 0.4, 0.8, w), 0.80)

    def test_monotone_in_each_component(self):
        w = RewardWeights(0.5, 0.25, 0.25)
        base = combined_quality(0.5, 0.5, 0.5, w)
        assert combined_quality(0.6, 0.5, 0.5, w) >= base
        assert combined_quality(0.5, 0.6, 0.5, w) >= base
        assert combined_quality(0.5, 0.5, 0.6, w) >= base

    def test_invalid_weights(self):
        with pytest.raises(MetricError, match="sum"):
            RewardWeights(0.5, 0.5, 0.5)
        with pytest.raises(MetricError, match="nonneg"):
            RewardWeights(1.5, -0.25, -0.25)

    def test_out_of_range_quality(self):
        with pytest.raises(MetricError, match="q_ds"):
            combined_quality(1.2, 0.5, 0.5, RewardWeights(0.5, 0.25, 0.25))


class TestFingerprint:
    def test_shape_and_binary(self):
        s = grow([AddFragment(None, None, 0, 0)])
        f = fingerprint(s)
        assert f.shape == (256,)
        assert set(np.unique(f)) <= {0, 1}

    def test_relabeling_invariance(self):
        s = grow([
            AddFragment(None, None, 0, 0),
            AddFragment(0, 1, 2, 0),
            AddFragment(1, 1, 1, 0),
        ], stop=False)
        perm = permute_state(s, [2, 0, 1])
        perm = apply_action(perm, STOP, DESK, 8) if not perm.terminal else perm
        s = apply_action(s, STOP, DESK, 8)
        np.testing.assert_array_equal(fingerprint(s), fingerprint(perm))

    def test_distinct_states_get_distinct_prints(self):
        states = enumerated_space(DESK, 3).molecules
        seen = {}
        for s in states:
            key = fingerprint(s).tobytes()
            assert key not in seen, f"fingerprint collision: {s} vs {seen[key]}"
            seen[key] = s
        assert len(seen) == len(states)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_on_random_molecules_and_relabelings(self, seed, cap):
        s = random_desk_set(seed, 1, cap=cap)[0]
        perm = [int(v) for v in np.random.default_rng(seed).permutation(s.n)]
        for state in (s, permute_state(s, perm)):
            f = fingerprint(state)
            assert f.dtype == np.uint8
            np.testing.assert_array_equal(f, rewards_reference.fingerprint(state))

    def test_matches_reference_on_every_desk_cap_3_molecule(self):
        states = enumerated_space(DESK, 3).molecules
        assert len(states) == 360
        for s in states:
            np.testing.assert_array_equal(fingerprint(s), rewards_reference.fingerprint(s))

    def test_non_terminal_rejected(self):
        s = grow([AddFragment(None, None, 0, 0)], stop=False)
        with pytest.raises(MetricError, match="fingerprint needs a terminal"):
            fingerprint(s)
        with pytest.raises(MetricError, match="fingerprint needs a terminal"):
            diversity([grow([AddFragment(None, None, 0, 0)]), s])

    def test_ap_choice_changes_print(self):
        a = grow([AddFragment(None, None, 3, 0), AddFragment(0, 0, 2, 0)])
        b = grow([AddFragment(None, None, 3, 0), AddFragment(0, 1, 2, 0)])
        # same fragments, same topology, different attachment points on the ring
        assert canonical_key(a) != canonical_key(b)
        assert tanimoto_distance(fingerprint(a), fingerprint(b)) > 0


class TestTanimoto:
    def test_identical(self):
        f = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert tanimoto_distance(f, f) == 0.0

    def test_worked_example(self):
        f1 = np.array([1, 1, 0], dtype=np.uint8)
        f2 = np.array([1, 0, 1], dtype=np.uint8)
        assert math.isclose(tanimoto_distance(f1, f2), 2 / 3)

    def test_disjoint(self):
        f1 = np.array([1, 0, 0], dtype=np.uint8)
        f2 = np.array([0, 1, 1], dtype=np.uint8)
        assert tanimoto_distance(f1, f2) == 1.0

    def test_both_empty(self):
        z = np.zeros(8, dtype=np.uint8)
        assert tanimoto_distance(z, z) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f1 = rng.integers(0, 2, size=16).astype(np.uint8)
            f2 = rng.integers(0, 2, size=16).astype(np.uint8)
            assert tanimoto_distance(f1, f2) == tanimoto_distance(f2, f1)

    def test_length_mismatch(self):
        with pytest.raises(MetricError, match="mismatch"):
            tanimoto_distance(np.zeros(8), np.zeros(16))

    def test_matches_reference_on_random_bits(self):
        rng = np.random.default_rng(3)
        zero = np.zeros(16, dtype=np.uint8)
        for density in (0.0, 0.05, 0.5, 0.95):
            for _ in range(50):
                f1 = (rng.random(16) < density).astype(np.uint8)
                f2 = (rng.random(16) < density).astype(np.uint8)
                for a, b in ((f1, f2), (f1, zero), (zero, f2)):
                    assert tanimoto_distance(a, b) == rewards_reference.tanimoto_distance(a, b)


class TestDiversity:
    def test_all_identical_is_zero(self):
        s = grow([AddFragment(None, None, 0, 0)])
        assert diversity([s, s, s]) == 0.0

    def test_two_states(self):
        a = grow([AddFragment(None, None, 0, 0)])
        b = grow([AddFragment(None, None, 1, 0)])
        d = tanimoto_distance(fingerprint(a), fingerprint(b))
        assert math.isclose(diversity([a, b]), d)

    def test_shuffle_invariance(self):
        states = enumerated_space(TOY, 2).molecules
        assert math.isclose(diversity(states), diversity(list(reversed(states))))

    def test_too_few(self):
        s = grow([AddFragment(None, None, 0, 0)])
        with pytest.raises(MetricError, match="at least 2"):
            diversity([s])


class TestDiversityAgreesWithReference:
    """The fingerprint-matrix diversity against one call per pair, exactly."""

    @given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_random_desk_sets_with_duplicates(self, seed, n, n_distinct):
        states = random_desk_set(seed, n, min(n, n_distinct))
        assert diversity(states) == rewards_reference.diversity(states)

    @pytest.mark.parametrize("n", [2, 31, 32, 33, 65, 300])
    def test_block_boundaries_with_duplicates(self, n):
        assert rewards.DIVERSITY_BLOCK_ROWS == 32
        states = random_desk_set(n, n, max(1, n // 3))
        assert len({canonical_key(s) for s in states}) < n
        assert diversity(states) == rewards_reference.diversity(states)

    def test_fixed_set_of_300(self):
        states = random_desk_set(0, 300)
        assert diversity(states) == rewards_reference.diversity(states)

    def test_fingerprints_each_state_once(self, monkeypatch):
        # the states become one set once, however many pairs they make
        calls = []
        real = MoleculeSet.from_states

        def counting(states):
            calls.append(list(states))
            return real(states)

        monkeypatch.setattr(MoleculeSet, "from_states", counting)
        states = random_desk_set(1, 25)
        diversity(states)
        assert calls == [states]

    def test_memory_far_below_an_n_by_n_array(self, monkeypatch):
        n = 2000
        rng = np.random.default_rng(0)
        monkeypatch.setattr(
            rewards, "_fingerprint_rows",
            lambda states: rng.integers(0, 2, (len(states), rewards.FINGERPRINT_BITS), dtype=np.uint8).astype(np.float64),
        )
        tracemalloc.start()
        try:
            diversity([None] * n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, f"peak {peak / 1e6:.1f} MB"


@st.composite
def desk_molecules(draw, max_nodes=12):
    """A terminal desk molecule grown by random additions to a drawn size of
    1 to ``max_nodes`` nodes (fewer when no attachment point is left), with
    its nodes relabeled in a random order half the time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    target = draw(st.integers(1, max_nodes))
    s = initial_state()
    while s.n < target:
        adds = [a for a in legal_actions(s, DESK, max_nodes) if isinstance(a, AddFragment)]
        if not adds:
            break
        s = apply_action(s, adds[rng.integers(len(adds))], DESK, max_nodes)
    s = apply_action(s, STOP, DESK, max_nodes)
    if draw(st.booleans()):
        s = permute_state(s, [int(v) for v in rng.permutation(s.n)])
    return s


class TestSetPath:
    """The set columns against the one-state functions, bit for bit: evaluate
    refuses a stored score that differs from its recomputation. Node counts
    from 1 to 12 take ``np.mean`` past its 8-entry pairwise blocks and past
    the sampling cap of 8."""

    @given(st.lists(desk_molecules(), min_size=1, max_size=30), st.floats(1.0, 6.0), st.floats(0.0, 1.0), st.integers(0, 99))
    @settings(max_examples=80, deadline=None)
    def test_set_scores_equal_one_state_scores(self, states, spread, polar, seed):
        pocket = build_knn_graph(synthetic_pocket(10, spread, seed, polar))
        ds, qed, sa = set_scores(pocket, MoleculeSet.from_states(states), DESK)
        assert ds.tolist() == [docking_score(pocket, s, DESK) for s in states]
        assert qed.tolist() == [qed_proxy(s) for s in states]
        assert sa.tolist() == [sa_proxy(s) for s in states]

    @given(st.lists(desk_molecules(), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_rows_equal_reference(self, states):
        rows = rewards._fingerprint_rows(MoleculeSet.from_states(states))
        for row, s in zip(rows, states, strict=True):
            np.testing.assert_array_equal(row, rewards_reference.fingerprint(s))

    @given(st.lists(desk_molecules(), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_records_read_as_their_states(self, states):
        records = [{"nodes": list(s.nodes), "edges": [list(e) for e in s.edges]} for s in states]
        mset, suspects = molecule_set(records, DESK)
        for k in suspects:
            assert molecule_from_record(records[k], DESK) == states[k]
        ref = MoleculeSet.from_states(states)
        for name in ("node_start", "bonds", "bond_start"):
            np.testing.assert_array_equal(getattr(mset, name), getattr(ref, name))
        np.testing.assert_array_equal(np.array(mset.ids)[mset.frags], np.array(ref.ids)[ref.frags])
        # a molecule whose bonds have the growth form is shown valid by the columns alone
        growth = [k for k, s in enumerate(states) if sorted(e[2] for e in s.edges) == list(range(1, s.n))]
        assert not set(suspects) & set(growth)


class TestTopK:
    def test_worked_example(self):
        assert top_k_mean([-5.0, -9.0, -7.0], 2) == -8.0

    def test_k_equals_n(self):
        scores = [-1.0, -2.0, -3.0]
        assert math.isclose(top_k_mean(scores, 3), -2.0)

    def test_k_exceeds_n(self):
        assert math.isclose(top_k_mean([-4.0, -6.0], 10), -5.0)

    def test_k_one_is_minimum(self):
        assert top_k_mean([-5.0, -9.0, -7.0], 1) == -9.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError, match="nonempty"):
            top_k_mean([], 2)

    def test_bad_k(self):
        with pytest.raises(MetricError, match="k must"):
            top_k_mean([-1.0], 0)


class TestMeanSe:
    def test_single_value(self):
        assert mean_and_se([3.0]) == (3.0, 0.0)

    def test_known_values(self):
        m, se = mean_and_se([1.0, 3.0])
        assert m == 2.0
        assert math.isclose(se, 1.0)  # std ddof=1 is sqrt(2), /sqrt(2) -> 1

