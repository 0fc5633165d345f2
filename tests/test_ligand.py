"""Fragment-graph environment: legality, transitions, canonical forms, enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketgfn.ligand import (
    STOP,
    AddFragment,
    Fragment,
    FragmentLibrary,
    IllegalActionError,
    LibraryError,
    LigandState,
    Stop,
    adjacency_matrix,
    apply_action,
    automorphism_count,
    backward_transitions,
    canonical_form,
    canonical_key,
    desk_library,
    enumerate_terminal_states,
    initial_state,
    legal_actions,
    load_library,
    permute_state,
    removable_leaves,
    remove_leaf,
    save_library,
    state_from_record,
    state_to_record,
    toy_library,
    validate_state,
)

TOY = toy_library()
DESK = desk_library()


def grow(actions, library=TOY, max_nodes=8):
    s = initial_state()
    for a in actions:
        s = apply_action(s, a, library, max_nodes)
    return s


class TestLibrary:
    def test_toy_library_shape(self):
        assert len(TOY) == 2
        assert all(f.aps == 1 for f in TOY)

    def test_desk_library_ap_range(self):
        assert len(DESK) == 4
        assert min(f.aps for f in DESK) == 1
        assert max(f.aps for f in DESK) == 3

    def test_duplicate_ids_rejected(self):
        with pytest.raises(LibraryError):
            FragmentLibrary([Fragment(0, "x", 1, 1, 0.5), Fragment(0, "y", 1, 1, 0.5)])

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "lib.json")
        save_library(path, DESK)
        loaded = load_library(path)
        assert [f.id for f in loaded] == [f.id for f in DESK]
        assert loaded.get(2).polarity == DESK.get(2).polarity

    def test_zero_ap_fragment_rejected(self):
        with pytest.raises(LibraryError):
            Fragment(0, "bad", 0, 1, 0.5)


class TestInitialAndLegal:
    def test_initial_state_empty(self):
        s = initial_state()
        assert s.n == 0 and s.edges == () and not s.terminal

    def test_empty_state_actions_per_fragment_ap(self):
        acts = legal_actions(initial_state(), TOY)
        assert acts == [AddFragment(None, None, 0, 0), AddFragment(None, None, 1, 0)]

    def test_empty_state_no_stop(self):
        assert STOP not in legal_actions(initial_state(), DESK)

    def test_empty_state_action_count_is_total_aps(self):
        acts = legal_actions(initial_state(), DESK)
        assert len(acts) == sum(f.aps for f in DESK)

    def test_saturated_node_offers_stop_only(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        # toy fragment 0 has its single AP used now
        acts = legal_actions(s, TOY, max_nodes=8)
        # node 1 (beta) also has 1 AP, used by the same edge
        assert acts == [STOP]

    def test_node_cap_suppresses_adds(self):
        s = grow([AddFragment(None, None, 0, 0)], library=DESK, max_nodes=1)
        acts = legal_actions(s, DESK, max_nodes=1)
        assert acts == [STOP]

    def test_ordering_node_ap_fragment_ap(self):
        s = grow([AddFragment(None, None, 0, 0)], library=DESK)
        acts = legal_actions(s, DESK, max_nodes=8)
        adds = [a for a in acts if isinstance(a, AddFragment)]
        keys = [(a.target_node, a.target_ap, a.fragment_id, a.fragment_ap) for a in adds]
        assert keys == sorted(keys)
        assert acts[0] == STOP


class TestApplyAction:
    def test_stop_sets_terminal_only(self):
        s = grow([AddFragment(None, None, 1, 0)])
        t = apply_action(s, STOP, TOY)
        assert t.terminal and t.nodes == s.nodes and t.edges == s.edges

    def test_stop_on_empty_rejected(self):
        with pytest.raises(IllegalActionError, match="empty"):
            apply_action(initial_state(), STOP, TOY)

    def test_add_increments_counts(self):
        s = grow([AddFragment(None, None, 0, 0)], library=DESK)
        t = apply_action(s, AddFragment(0, 0, 2, 1), DESK)
        assert t.n == s.n + 1
        assert len(t.edges) == len(s.edges) + 1
        assert t.edges[-1] == (0, 0, 1, 1)

    def test_used_ap_rejected(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        with pytest.raises(IllegalActionError, match="already used"):
            apply_action(s, AddFragment(0, 0, 1, 0), TOY)

    def test_terminal_state_frozen(self):
        s = apply_action(grow([AddFragment(None, None, 0, 0)]), STOP, TOY)
        with pytest.raises(IllegalActionError, match="terminal"):
            apply_action(s, STOP, TOY)

    def test_missing_target_rejected(self):
        s = grow([AddFragment(None, None, 0, 0)])
        with pytest.raises(IllegalActionError, match="does not exist"):
            apply_action(s, AddFragment(5, 0, 1, 0), TOY)

    def test_bad_fragment_ap_rejected(self):
        s = grow([AddFragment(None, None, 0, 0)], library=DESK)
        with pytest.raises(IllegalActionError, match="attachment point"):
            apply_action(s, AddFragment(0, 0, 1, 3), DESK)

    def test_cap_enforced(self):
        s = grow([AddFragment(None, None, 0, 0)], library=DESK)
        with pytest.raises(IllegalActionError, match="cap"):
            apply_action(s, AddFragment(0, 0, 1, 0), DESK, max_nodes=1)

    def test_root_action_on_nonempty_rejected(self):
        s = grow([AddFragment(None, None, 0, 0)])
        with pytest.raises(IllegalActionError, match="target"):
            apply_action(s, AddFragment(None, None, 1, 0), TOY)


class TestAdjacency:
    def test_single_node(self):
        s = grow([AddFragment(None, None, 0, 0)])
        np.testing.assert_array_equal(adjacency_matrix(s), [[0.0]])

    def test_chain_band(self):
        s = grow(
            [AddFragment(None, None, 0, 0), AddFragment(0, 0, 2, 0), AddFragment(1, 1, 3, 0)],
            library=DESK,
        )
        m = adjacency_matrix(s)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1
        expected[1, 2] = expected[2, 1] = 1
        np.testing.assert_array_equal(m, expected)

    def test_symmetric_zero_diagonal(self):
        s = grow(
            [AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0), AddFragment(0, 1, 2, 0)],
            library=DESK,
        )
        m = adjacency_matrix(s)
        np.testing.assert_array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), np.zeros(3))


class TestBackward:
    def test_single_node_leaf(self):
        s = grow([AddFragment(None, None, 0, 0)])
        assert removable_leaves(s) == [0]

    def test_chain_leaves_are_ends(self):
        s = grow(
            [AddFragment(None, None, 0, 0), AddFragment(0, 0, 2, 0), AddFragment(1, 1, 3, 0)],
            library=DESK,
        )
        assert removable_leaves(s) == [0, 2]

    def test_remove_leaf_then_reapply_round_trips(self):
        s = grow(
            [AddFragment(None, None, 0, 0), AddFragment(0, 0, 2, 0), AddFragment(1, 1, 1, 0)],
            library=DESK,
        )
        for leaf in removable_leaves(s):
            parent, action = remove_leaf(s, leaf)
            rebuilt = apply_action(parent, action, DESK)
            assert canonical_form(rebuilt) == canonical_form(s)

    def test_remove_inner_node_rejected(self):
        s = grow(
            [AddFragment(None, None, 0, 0), AddFragment(0, 0, 2, 0), AddFragment(1, 1, 3, 0)],
            library=DESK,
        )
        with pytest.raises(IllegalActionError):
            remove_leaf(s, 1)

    def test_backward_probs_sum_to_one(self):
        # over every reachable nonempty state of an oracle-sized space
        for lib, cap in ((TOY, 2), (DESK, 3)):
            frontier = [initial_state()]
            seen = set()
            while frontier:
                s = frontier.pop()
                for a in legal_actions(s, lib, cap):
                    if isinstance(a, Stop):
                        continue
                    child = apply_action(s, a, lib, cap)
                    key = (child.nodes, child.edges)
                    if key in seen:
                        continue
                    seen.add(key)
                    frontier.append(child)
                    moves = backward_transitions(child, lib)
                    total = sum(np.exp(lp) for _, _, lp in moves)
                    assert abs(total - 1.0) < 1e-12, (child, total)

    def test_backward_transitions_reach_real_parents(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 0, 0)])
        for parent, action, _ in backward_transitions(s, TOY):
            rebuilt = apply_action(parent, action, TOY)
            assert canonical_form(rebuilt) == canonical_form(s)


class TestCanonical:
    def test_idempotent(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        nodes, edges = canonical_form(s)
        again = canonical_form(LigandStateLike(nodes, edges))
        assert (nodes, edges) == again

    def test_isomorphic_orderings_collapse(self):
        a_then_b = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        b_then_a = grow([AddFragment(None, None, 1, 0), AddFragment(0, 0, 0, 0)])
        assert canonical_key(a_then_b) == canonical_key(b_then_a)

    def test_random_relabelings_collapse(self):
        rng = np.random.default_rng(0)
        s = grow(
            [AddFragment(None, None, 0, 0), AddFragment(0, 0, 2, 0), AddFragment(0, 1, 2, 1), AddFragment(1, 1, 1, 0)],
            library=DESK,
        )
        base = canonical_key(s)
        for _ in range(10):
            perm = list(rng.permutation(s.n))
            assert canonical_key(permute_state(s, perm)) == base

    def test_ap_labels_distinguish_states(self):
        # same fragments, different attachment geometry -> different molecules
        s1 = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)], library=DESK)
        s2 = grow([AddFragment(None, None, 0, 0), AddFragment(0, 1, 1, 0)], library=DESK)
        assert canonical_key(s1) != canonical_key(s2)


class LigandStateLike:
    """Tiny shim so canonical_form can be re-applied to its own output."""

    def __init__(self, nodes, edges):
        self.nodes = nodes
        self.edges = edges
        self.terminal = False

    @property
    def n(self):
        return len(self.nodes)


class TestAutomorphisms:
    def test_single_node(self):
        assert automorphism_count(grow([AddFragment(None, None, 0, 0)])) == 1

    def test_symmetric_dimer(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 0, 0)])
        assert automorphism_count(s) == 2

    def test_asymmetric_dimer(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        assert automorphism_count(s) == 1

    def test_ap_asymmetric_same_fragments(self):
        # two cyclohexanes joined ap0-ap1: the swap reverses AP roles, so no symmetry
        s = grow([AddFragment(None, None, 3, 0), AddFragment(0, 0, 3, 1)], library=DESK)
        assert automorphism_count(s) == 1
        # joined ap0-ap0 the swap is an automorphism
        t = grow([AddFragment(None, None, 3, 0), AddFragment(0, 0, 3, 0)], library=DESK)
        assert automorphism_count(t) == 2

    def test_palindromic_chain(self):
        # hydroxyl - amide(0,1) - amide(1,0) - hydroxyl reads the same reversed
        s = grow(
            [
                AddFragment(None, None, 2, 0),
                AddFragment(0, 1, 2, 1),
                AddFragment(0, 0, 1, 0),
                AddFragment(1, 0, 1, 0),
            ],
            library=DESK,
        )
        assert automorphism_count(s) == 2


class TestEnumeration:
    def test_toy_library_five_states(self):
        states = enumerate_terminal_states(TOY, max_nodes=2)
        assert len(states) == 5
        keys = {canonical_key(s) for s in states}
        assert len(keys) == 5
        assert all(s.terminal for s in states)

    def test_single_fragment_single_node(self):
        lib = FragmentLibrary([Fragment(0, "only", 1, 2, 0.5)])
        assert len(enumerate_terminal_states(lib, max_nodes=1)) == 1

    def test_guard_rejects_blowup(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_terminal_states(DESK, max_nodes=5)

    def test_matches_dfs_oracle(self):
        # independent oracle: exhaustive action-sequence search with explicit stops
        def dfs(lib, cap):
            found = set()

            def walk(s):
                for a in legal_actions(s, lib, cap):
                    if isinstance(a, Stop):
                        found.add(canonical_key(apply_action(s, a, lib, cap)))
                    else:
                        walk(apply_action(s, a, lib, cap))

            walk(initial_state())
            return found

        for lib, cap in ((TOY, 2), (TOY, 3), (DESK, 2)):
            enum_keys = {canonical_key(s) for s in enumerate_terminal_states(lib, cap)}
            assert enum_keys == dfs(lib, cap)


@st.composite
def random_walks(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_steps = draw(st.integers(1, 10))
    return seed, n_steps


class TestStateInvariantsFuzz:
    @given(random_walks())
    @settings(max_examples=60, deadline=None)
    def test_random_legal_sequences_stay_valid(self, walk):
        seed, n_steps = walk
        rng = np.random.default_rng(seed)
        s = initial_state()
        for _ in range(n_steps):
            acts = legal_actions(s, DESK, max_nodes=6)
            if not acts:
                break
            a = acts[rng.integers(len(acts))]
            s = apply_action(s, a, DESK, max_nodes=6)
            if s.terminal:
                break
            validate_state(s, DESK)
            # tree shape: connected means exactly n-1 edges for n >= 1
            assert len(s.edges) == max(s.n - 1, 0)
            # no AP used twice
            for v in range(s.n):
                aps = [e[1] if e[0] == v else e[3] for e in s.edges if v in (e[0], e[2])]
                assert len(aps) == len(set(aps))
                assert all(0 <= ap < DESK.get(s.nodes[v]).aps for ap in aps)
            # edge endpoints exist
            for i, _, j, _ in s.edges:
                assert 0 <= i < j < s.n

    @given(random_walks())
    @settings(max_examples=30, deadline=None)
    def test_illegal_actions_always_error(self, walk):
        seed, n_steps = walk
        rng = np.random.default_rng(seed)
        s = initial_state()
        for _ in range(n_steps):
            acts = legal_actions(s, DESK, max_nodes=4)
            if not acts:
                break
            legal_set = set(acts)
            candidate = AddFragment(
                int(rng.integers(-1, 5)), int(rng.integers(0, 4)), int(rng.integers(0, 5)), int(rng.integers(0, 4))
            )
            if candidate not in legal_set:
                with pytest.raises((IllegalActionError, LibraryError)):
                    apply_action(s, candidate, DESK, max_nodes=4)
            a = acts[rng.integers(len(acts))]
            s = apply_action(s, a, DESK, max_nodes=4)
            if s.terminal:
                break


class TestValidateState:
    @pytest.mark.parametrize("nodes, edges, problem", [
        ((0, 9), ((0, 0, 1, 0),), "unknown fragment id 9"),
        ((0, 2), ((1, 0, 0, 0),), "0 <= i < j"),
        ((0, 2), ((0, 0, 2, 0),), "0 <= i < j"),
        ((0, 1), ((0, 0, 1, 1),), "no attachment point 1"),
        ((1, 0, 0), ((0, 0, 1, 0), (0, 0, 2, 0)), "used twice"),
        ((0, 0, 0, 1), ((0, 0, 1, 0), (1, 1, 2, 0), (0, 1, 2, 1)), "cycle"),
        ((0, 0, 1), ((0, 0, 1, 0),), "not connected"),
    ])
    def test_rejects(self, nodes, edges, problem):
        with pytest.raises(ValueError, match=problem):
            validate_state(LigandState(nodes, edges, terminal=True), DESK)


class TestSerialization:
    def test_record_round_trip(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 2, 1)], library=DESK)
        rec = state_to_record(s)
        back = state_from_record(rec)
        assert canonical_key(back) == canonical_key(s)
        assert back.terminal
