"""Fragment-graph environment: legality, transitions, canonical forms, enumeration."""

import dataclasses

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
    action_lattice,
    adjacency_matrix,
    apply_action,
    automorphism_count,
    backward_transitions,
    canonical_form,
    canonical_key,
    desk_library,
    enumerated_space,
    initial_state,
    legal_actions,
    open_slots,
    removable_leaves,
    remove_leaf,
    state_from_record,
    state_to_record,
    step_backward_log_prob,
    stop_is_forced,
    toy_library,
    validate_state,
)

import oracle_reference
import ligand_reference
from ligand_reference import permute_state, reference_canonical

TOY = toy_library()
DESK = desk_library()


def grow(actions, library=TOY, max_nodes=8):
    s = initial_state()
    for a in actions:
        s = apply_action(s, a, library, max_nodes)
    return s


@st.composite
def random_walks(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n_steps = draw(st.integers(1, 10))
    return seed, n_steps


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

    def test_zero_ap_fragment_rejected(self):
        with pytest.raises(LibraryError):
            Fragment(0, "bad", 0, 1, 0.5)


class TestInitialAndLegal:
    def test_initial_state_empty(self):
        s = initial_state()
        assert s.n == 0 and s.edges == () and not s.terminal

    def test_empty_state_actions_per_fragment_ap(self):
        acts = legal_actions(initial_state(), TOY, 8)
        assert acts == [AddFragment(None, None, 0, 0), AddFragment(None, None, 1, 0)]

    def test_empty_state_no_stop(self):
        assert STOP not in legal_actions(initial_state(), DESK, 8)

    def test_empty_state_offers_one_action_per_fragment(self):
        # a state records no entry attachment point, so the root action uses 0
        acts = legal_actions(initial_state(), DESK, 8)
        assert acts == [AddFragment(None, None, f.id, 0) for f in DESK]

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

    @pytest.mark.parametrize("library,max_nodes", [(TOY, 1), (TOY, 3), (DESK, 1), (DESK, 3)])
    def test_stop_is_forced_iff_stop_is_the_only_legal_action(self, library, max_nodes):
        frontier, seen = [initial_state()], 0
        while frontier:
            s = frontier.pop()
            seen += 1
            assert stop_is_forced(s, library, max_nodes) == (legal_actions(s, library, max_nodes) == [STOP])
            frontier += [apply_action(s, a, library, max_nodes) for a in legal_actions(s, library, max_nodes)]
        assert seen > 4

    def test_stop_is_forced_agrees_with_open_slots(self):
        # stop_is_forced decides from counts; open_slots lists the slots
        space = enumerated_space(DESK, 4)
        states = [(s, 4) for depth in space.depths for s in depth] + [(s, 4) for s in space.forced]
        rng = np.random.default_rng(23)
        for _ in range(200):
            s = initial_state()
            while not s.terminal:
                states.append((s, 8))
                acts = legal_actions(s, DESK, 8)
                s = apply_action(s, acts[rng.integers(len(acts))], DESK, 8)
        assert len(states) > 1500
        for s, cap in states:
            assert stop_is_forced(s, DESK, cap) == (s.n > 0 and not open_slots(s, DESK, cap)), s


class TestActionLattice:
    @staticmethod
    def raw_states(lib, cap) -> list:
        """Every non-terminal raw state up to ``cap`` fragments, walked with
        the reference legal actions."""
        found, frontier = [], [initial_state()]
        while frontier:
            s = frontier.pop()
            found.append(s)
            for a in ligand_reference.legal_actions(s, lib, cap):
                child = apply_action(s, a, lib, cap)
                if not child.terminal:
                    frontier.append(child)
        return found

    @pytest.mark.parametrize("lib,top", [(TOY, 3), (DESK, 4)], ids=["toy", "desk"])
    def test_legal_actions_equal_the_reference(self, lib, top):
        # every raw state, at every cap from its own size up to ``top``
        states = self.raw_states(lib, top)
        assert len(states) == {3: 7, 4: 33093}[top]
        for s in states:
            for cap in range(max(s.n, 1), top + 1):
                acts = legal_actions(s, lib, cap)
                assert acts == ligand_reference.legal_actions(s, lib, cap), (s, cap)
                assert stop_is_forced(s, lib, cap) == (acts == [STOP]), (s, cap)
            assert legal_actions(LigandState(s.nodes, s.edges, terminal=True), lib, top) == []

    def test_cached_on_fragment_ids_and_attachment_counts(self):
        renamed = FragmentLibrary([Fragment(f.id, f.name + "2", f.aps, f.size + 1, 1.0 - f.polarity) for f in DESK])
        assert action_lattice(renamed) is action_lattice(DESK)
        first = DESK.ids[0]
        more_aps = FragmentLibrary([Fragment(f.id, f.name, f.aps + (f.id == first), f.size, f.polarity) for f in DESK])
        lattice = action_lattice(more_aps)
        assert lattice is not action_lattice(DESK)
        assert len(lattice.pairs) == len(action_lattice(DESK).pairs) + 1
        s = grow([AddFragment(None, None, first, 0)], library=more_aps)
        assert legal_actions(s, more_aps, 8) == ligand_reference.legal_actions(s, more_aps, 8)

    def test_slot_rows_are_built_once(self):
        lattice = action_lattice(DESK)
        assert lattice.slot_rows(5, 1) is lattice.slot_rows(5, 1)
        assert [(a.fragment_id, a.fragment_ap) for a in lattice.slot_rows(5, 1)] == [
            (DESK.ids[k], f_ap) for k, f_ap in lattice.pairs]


class TestApplyAction:
    def test_stop_sets_terminal_only(self):
        s = grow([AddFragment(None, None, 1, 0)])
        t = apply_action(s, STOP, TOY, 8)
        assert t.terminal and t.nodes == s.nodes and t.edges == s.edges

    def test_stop_on_empty_rejected(self):
        with pytest.raises(IllegalActionError, match="empty"):
            apply_action(initial_state(), STOP, TOY, 8)

    def test_add_increments_counts(self):
        s = grow([AddFragment(None, None, 0, 0)], library=DESK)
        t = apply_action(s, AddFragment(0, 0, 2, 1), DESK, 8)
        assert t.n == s.n + 1
        assert len(t.edges) == len(s.edges) + 1
        assert t.edges[-1] == (0, 0, 1, 1)

    def test_used_ap_rejected(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        with pytest.raises(IllegalActionError, match="already used"):
            apply_action(s, AddFragment(0, 0, 1, 0), TOY, 8)

    def test_terminal_state_frozen(self):
        s = apply_action(grow([AddFragment(None, None, 0, 0)]), STOP, TOY, 8)
        with pytest.raises(IllegalActionError, match="terminal"):
            apply_action(s, STOP, TOY, 8)

    def test_missing_target_rejected(self):
        s = grow([AddFragment(None, None, 0, 0)])
        with pytest.raises(IllegalActionError, match="does not exist"):
            apply_action(s, AddFragment(5, 0, 1, 0), TOY, 8)

    def test_bad_fragment_ap_rejected(self):
        s = grow([AddFragment(None, None, 0, 0)], library=DESK)
        with pytest.raises(IllegalActionError, match="attachment point"):
            apply_action(s, AddFragment(0, 0, 1, 3), DESK, 8)

    def test_cap_enforced(self):
        s = grow([AddFragment(None, None, 0, 0)], library=DESK)
        with pytest.raises(IllegalActionError, match="cap"):
            apply_action(s, AddFragment(0, 0, 1, 0), DESK, max_nodes=1)

    def test_root_action_on_nonempty_rejected(self):
        s = grow([AddFragment(None, None, 0, 0)])
        with pytest.raises(IllegalActionError, match="target"):
            apply_action(s, AddFragment(None, None, 1, 0), TOY, 8)


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

    def test_single_node_has_one_backward_move(self):
        for f in DESK:
            root = AddFragment(None, None, f.id, 0)
            s = grow([root], library=DESK)
            assert backward_transitions(s) == [(initial_state(), root, 0.0)]
            assert step_backward_log_prob(s) == 0.0

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
            rebuilt = apply_action(parent, action, DESK, 8)
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
                    moves = backward_transitions(child)
                    total = sum(np.exp(lp) for _, _, lp in moves)
                    assert abs(total - 1.0) < 1e-12, (child, total)

    def test_backward_transitions_reach_real_parents(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 0, 0)])
        for parent, action, _ in backward_transitions(s):
            rebuilt = apply_action(parent, action, TOY, 8)
            assert canonical_form(rebuilt) == canonical_form(s)


class TestCanonical:
    def test_idempotent(self):
        s = grow([AddFragment(None, None, 0, 0), AddFragment(0, 0, 1, 0)])
        nodes, edges = canonical_form(s)
        assert canonical_form(LigandState(nodes, edges)) == (nodes, edges)

    def test_preorder_from_the_minimal_root(self):
        # hydroxyl - amide(ap1 | ap0) - benzene(ap0 | ap1) - hydroxyl, grown from a hydroxyl;
        # the only benzene is the minimal root, and the amide branch (ap0) comes
        # first and is labeled depth first
        s = grow(
            [AddFragment(None, None, 1, 0), AddFragment(0, 0, 2, 1), AddFragment(1, 0, 0, 0), AddFragment(2, 1, 1, 0)],
            library=DESK,
        )
        assert canonical_form(s) == ((0, 2, 1, 1), ((0, 0, 1, 0), (1, 1, 2, 0), (0, 1, 3, 0)))

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


def chain(n, mirrored=False):
    """``n`` amides (two attachment points each), each bond joining ap1 of one
    to ap0 of the next; ``mirrored`` grows two such halves outward from an
    ap0-ap0 bond between nodes 0 and 1."""
    if not mirrored:
        return grow([AddFragment(None, None, 2, 0)] + [AddFragment(k, 1, 2, 0) for k in range(n - 1)], DESK, n)
    return grow([AddFragment(None, None, 2, 0), AddFragment(0, 0, 2, 0)] + [AddFragment(k, 1, 2, 0) for k in range(n - 2)], DESK, n)


class TestLargeCaps:
    @pytest.mark.parametrize("mirrored, count", [(False, 1), (True, 2)], ids=["chain", "mirrored"])
    def test_twelve_node_chain(self, mirrored, count):
        # one fragment type: 12! relabelings keep the fragment ids
        s = chain(12, mirrored)
        assert automorphism_count(s) == count
        base = canonical_key(s)
        rng = np.random.default_rng(12)
        for _ in range(5):
            assert canonical_key(permute_state(s, list(rng.permutation(s.n)))) == base


def assert_record_is_canonical_growth_order(s):
    t = state_from_record(state_to_record(s))
    validate_state(t, DESK)
    # bond k attaches node k + 1 to an earlier node, so every prefix is connected
    assert [j for _, _, j, _ in t.edges] == list(range(1, t.n))
    assert canonical_form(t) == (t.nodes, t.edges)


def random_molecule(seed, n_nodes):
    """A desk molecule of exactly ``n_nodes`` fragments grown by uniform legal additions."""
    rng = np.random.default_rng(seed)
    while True:
        s = initial_state()
        while s.n < n_nodes:
            adds = [a for a in legal_actions(s, DESK, n_nodes) if isinstance(a, AddFragment)]
            if not adds:
                break  # every attachment point is used; start over
            s = apply_action(s, adds[rng.integers(len(adds))], DESK, n_nodes)
        if s.n == n_nodes:
            return s


class TestAgreesWithReference:
    """Rooted serializations against the brute-force relabeling search."""

    def test_every_raw_desk_state_at_cap_4(self):
        states, frontier = {}, [initial_state()]
        while frontier:
            s = frontier.pop()
            for a in legal_actions(s, DESK, 4):
                if isinstance(a, AddFragment):
                    child = apply_action(s, a, DESK, 4)
                    if (child.nodes, child.edges) not in states:
                        states[child.nodes, child.edges] = child
                        frontier.append(child)
        assert len(states) == 33092
        pairs = set()
        for s in states.values():
            ref_key, ref_count = reference_canonical(s)
            assert automorphism_count(s) == ref_count
            pairs.add((canonical_key(s), ref_key))
            assert_record_is_canonical_growth_order(s)
        # the two keys group the raw states into the same molecules
        assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs}) == 4112

    @given(random_walks())
    @settings(max_examples=300, deadline=None)
    def test_random_seven_fragment_molecules(self, walk):
        seed, n_steps = walk
        s = random_molecule(seed, 7)
        ref_key, ref_count = reference_canonical(s)
        assert automorphism_count(s) == ref_count
        assert_record_is_canonical_growth_order(s)
        # a relabeled copy is the same molecule under both keys, and another
        # random molecule is the same one under both or under neither
        t = permute_state(s, list(np.random.default_rng([seed, n_steps]).permutation(7)))
        assert canonical_key(t) == canonical_key(s) and reference_canonical(t)[0] == ref_key
        u = random_molecule([seed, n_steps], 7)
        assert (canonical_key(u) == canonical_key(s)) == (reference_canonical(u)[0] == ref_key)


class TestEnumeration:
    def test_toy_library_five_states(self):
        states = enumerated_space(TOY, 2).molecules
        assert len(states) == 5
        keys = {canonical_key(s) for s in states}
        assert len(keys) == 5
        assert all(s.terminal for s in states)

    def test_single_fragment_single_node(self):
        lib = FragmentLibrary([Fragment(0, "only", 1, 2, 0.5)])
        assert len(enumerated_space(lib, 1).molecules) == 1

    def test_guard_rejects_blowup(self):
        with pytest.raises(ValueError, match="guard"):
            enumerated_space(DESK, 5)

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
            enum_keys = {canonical_key(s) for s in enumerated_space(lib, cap).molecules}
            assert enum_keys == dfs(lib, cap)


class TestEnumeratedSpace:
    @staticmethod
    def raw_partial_states(lib, cap) -> set:
        """Every nonempty, non-terminal raw state, by a depth-first walk."""
        found = set()

        def walk(s):
            for a in legal_actions(s, lib, cap):
                if not isinstance(a, Stop):
                    child = apply_action(s, a, lib, cap)
                    found.add(child)
                    walk(child)

        walk(initial_state())
        return found

    @pytest.mark.parametrize("lib,cap", [(TOY, 2), (TOY, 3), (DESK, 2), (DESK, 3)])
    def test_molecules_are_the_reference_molecules_in_canonical_form(self, lib, cap):
        reference = oracle_reference.enumerate_terminal_states(lib, cap)
        space = enumerated_space(lib, cap)
        assert space.molecules == tuple(LigandState(*canonical_form(s), terminal=True) for s in reference)
        assert list(space.keys) == [canonical_key(s) for s in reference]

    @pytest.mark.parametrize("lib,cap", [(TOY, 2), (DESK, 3)])
    def test_lists_every_partial_state(self, lib, cap):
        space = enumerated_space(lib, cap)
        passed = [s for states in space.depths for s in states]
        assert set(passed[1:] + list(space.forced)) == self.raw_partial_states(lib, cap)
        assert len(set(space.forced)) == len(space.forced)
        assert all(stop_is_forced(s, lib, cap) for s in space.forced)
        assert not any(stop_is_forced(s, lib, cap) for s in passed)
        assert [states[0].n for states in space.depths] == list(range(len(space.depths)))
        # each depth's rows are its states' legal actions, and the rows that
        # continue are the next depth's states in order
        for d, (states, mol) in enumerate(zip(space.depths, space.row_mol)):
            children = [apply_action(s, a, lib, cap) for s in states for a in legal_actions(s, lib, cap)]
            assert len(children) == len(mol)
            grown = [c for c, m in zip(children, mol) if m < 0]
            assert tuple(grown) == (space.depths[d + 1] if d + 1 < len(space.depths) else ())
            assert all(canonical_key(c) == space.keys[m] for c, m in zip(children, mol) if m >= 0)

    @pytest.mark.parametrize("lib,cap", [(TOY, 2), (DESK, 2), (DESK, 3), (DESK, 4)])
    def test_each_raw_state_appears_once(self, lib, cap):
        space = enumerated_space(lib, cap)
        listed = [s for states in space.depths for s in states] + list(space.forced)
        assert len(set(listed)) == len(listed)

    @pytest.mark.parametrize("cap,passed,rows", [(3, 68, 1415), (4, 1340, 34431)])
    def test_desk_space_size(self, cap, passed, rows):
        space = enumerated_space(DESK, cap)
        assert sum(len(states) for states in space.depths) == passed
        assert sum(len(mol) for mol in space.row_mol) == rows

    def test_arrays_are_read_only(self):
        space = enumerated_space(DESK, 3)
        for arr in (*space.row_mol, space.first_seen):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.keys = ()

    def test_cached_on_fragment_ids_and_attachment_counts(self):
        renamed = FragmentLibrary([Fragment(f.id, f.name + "2", f.aps, f.size + 1, 1.0 - f.polarity) for f in DESK])
        assert enumerated_space(renamed, 2) is enumerated_space(DESK, 2)
        first = DESK.ids[0]
        more_aps = FragmentLibrary([Fragment(f.id, f.name, f.aps + (f.id == first), f.size, f.polarity) for f in DESK])
        space = enumerated_space(more_aps, 2)
        assert space is not enumerated_space(DESK, 2)
        assert list(space.keys) == [canonical_key(s) for s in oracle_reference.enumerate_terminal_states(more_aps, 2)]
        assert len(space.keys) > len(enumerated_space(DESK, 2).keys)


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
