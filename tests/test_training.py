import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import pocketgfn.autodiff as ad
import pocketgfn.ligand as ligand
from pocketgfn.autodiff import Tape, TapeError, finite_diff_check, tensor
from pocketgfn.ligand import (
    AddFragment,
    LibraryError,
    LigandState,
    STOP,
    Stop,
    apply_action,
    automorphism_count,
    backward_transitions,
    canonical_key,
    desk_library,
    enumerated_space,
    initial_state,
    legal_actions,
    step_backward_log_prob,
    stop_is_forced,
    toy_library,
)
import pocketgfn.nn as nn
from pocketgfn.nn import ParamStore, load_checkpoint
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
import pocketgfn.policy as policy_module
from pocketgfn.policy import PolicyConfig, PolicyNetwork, log_prob_at, sample_action
from pocketgfn.selfcheck import small_policy
import pocketgfn.training as training
from pocketgfn.training import (
    TrainerConfig,
    TrainingError,
    default_reward_fn,
    empirical_terminal_distribution,
    exact_terminal_distribution,
    proportional_sampling_check,
    sample_trajectory,
    shaped_log_reward,
    target_distribution,
    tb_loss_tensor,
    total_variation,
    train,
    trajectory_backward_log_prob,
)

import oracle_reference

TOY = toy_library()
DESK = desk_library()


def small_config(steps, **kw):
    kw.setdefault("batch_size", 4)
    kw.setdefault("policy", small_policy(kw.get("mode", "baseline")))
    return TrainerConfig(steps=steps, **kw)


def one_pocket(seed=3, n=6, spread=2.0):
    return {"p0": build_knn_graph(synthetic_pocket(n, spread, seed), K=4)}


def make_policy(library=TOY, seed=0):
    store = ParamStore(np.random.default_rng(seed))
    return PolicyNetwork(store, library, small_policy())


class TestTrainerConfig:
    def test_negative_steps(self):
        with pytest.raises(TrainingError, match="steps"):
            TrainerConfig(steps=-1)

    def test_bad_beta(self):
        with pytest.raises(TrainingError, match="beta"):
            TrainerConfig(steps=1, beta=0.0)

    def test_mode_mismatch(self):
        with pytest.raises(TrainingError, match="mode"):
            TrainerConfig(steps=1, mode="trioformer", policy=PolicyConfig(mode="baseline"))

    def test_zero_steps_allowed(self):
        assert TrainerConfig(steps=0).steps == 0

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param(name, bad, id=f"{name}-{bad!r}")
         for name in ("steps", "batch_size", "max_nodes", "seed") for bad in (True, "3", 3.0)]
        + [pytest.param(name, bad, id=f"{name}-{bad!r}")
           for name in ("learning_rate", "beta") for bad in (0, -1, math.inf, math.nan)]
        + [pytest.param("seed", -1, id="seed--1")],
    )
    def test_rejects_what_the_cli_rejects(self, name, value):
        with pytest.raises(TrainingError, match=repr(name)):
            TrainerConfig(**{"steps": 1, name: value})


class TestSampleTrajectory:
    def test_node_cap_one_forces_add_then_stop(self):
        policy = make_policy()
        ctx = policy.pocket_context(one_pocket()["p0"])
        traj = sample_trajectory(policy, ctx, "p0", np.random.default_rng(0), 1, TOY)
        assert len(traj.actions) == 2
        assert isinstance(traj.actions[0], AddFragment)
        assert traj.actions[1] is STOP
        assert traj.states[-1].terminal and traj.states[-1].n == 1

    def test_states_form_valid_chain(self):
        policy = make_policy(DESK)
        policy = PolicyNetwork(policy.store, DESK, small_policy())
        ctx = policy.pocket_context(one_pocket()["p0"])
        for seed in range(8):
            traj = sample_trajectory(policy, ctx, "p0", np.random.default_rng(seed), 4, DESK)
            s = initial_state()
            for a, expected in zip(traj.actions, traj.states[1:]):
                s = apply_action(s, a, DESK, 4)
                assert s == expected
            assert s.terminal
            assert len(traj.actions) == len(traj.states) - 1
            # the drawn column holds one entry per action that had a pass
            (again,), log_pf, owner = training.sample_trajectories(
                policy, {"p0": ctx}, ["p0"], [np.random.default_rng(seed)], 4, DESK)
            assert again.actions == traj.actions
            drawn = sum(not stop_is_forced(s, DESK, 4) for s in traj.states[:-1])
            assert log_pf.shape == (drawn, 1) and owner.tolist() == [0] * drawn
            assert np.all(log_pf.data <= 0.0)

    def test_fixed_seed_reproduces(self):
        policy = make_policy()
        ctx = policy.pocket_context(one_pocket()["p0"])
        t1, lp1, _ = training.sample_trajectories(policy, {"p0": ctx}, ["p0"], [np.random.default_rng(42)], 3, TOY)
        t2, lp2, _ = training.sample_trajectories(policy, {"p0": ctx}, ["p0"], [np.random.default_rng(42)], 3, TOY)
        assert t1[0].actions == t2[0].actions
        assert lp1.data.tolist() == lp2.data.tolist()


class TestBackwardLogProb:
    def test_chain_value_by_hand(self):
        # cyclohexane - cyclohexane - hydroxyl chain
        s0 = initial_state()
        s1 = apply_action(s0, AddFragment(None, None, 3, 0), DESK, 8)
        s2 = apply_action(s1, AddFragment(0, 1, 3, 0), DESK, 8)
        s3 = apply_action(s2, AddFragment(1, 1, 1, 0), DESK, 8)
        s4 = apply_action(s3, STOP, DESK, 8)
        # s1: sole leaf, one parent; s2: 2 leaves; s3: 2 leaves; stop: free
        expected = 0.0 + (-math.log(2)) + (-math.log(2))
        assert math.isclose(trajectory_backward_log_prob([s0, s1, s2, s3, s4]), expected)

    def test_matches_per_parent_enumeration(self):
        # each step's probability appears among the child's backward transitions:
        # every growth step of every raw trajectory at desk cap 3
        frontier = [initial_state()]
        while frontier:
            s = frontier.pop()
            for a in legal_actions(s, DESK, 3):
                if isinstance(a, Stop):
                    continue
                child = apply_action(s, a, DESK, 3)
                frontier.append(child)
                moves = backward_transitions(child)
                undo = [lp for parent, back, lp in moves if (parent, back) == (s, a)]
                assert undo, (s, a, child)
                assert all(lp == step_backward_log_prob(child) for lp in undo)
                assert math.isclose(sum(math.exp(lp) for _, _, lp in moves), 1.0)

    @pytest.mark.parametrize("cap", [2, 3])
    def test_molecule_backward_weight_is_one_over_its_symmetries(self, cap):
        # summed over a molecule's raw forms, the backward probability of each
        # form's one trajectory is 1 / |Aut(m)|: what shaped_log_reward undoes
        space = enumerated_space(DESK, cap)
        weight = dict.fromkeys(space.keys, 0.0)
        for s in [s for states in space.depths[1:] for s in states] + list(space.forced):
            trajectory = [LigandState(s.nodes[:k], s.edges[:max(k - 1, 0)]) for k in range(s.n + 1)]
            trajectory.append(LigandState(s.nodes, s.edges, terminal=True))
            weight[canonical_key(s)] += math.exp(trajectory_backward_log_prob(trajectory))
        for key, m in zip(space.keys, space.molecules):
            assert abs(weight[key] * automorphism_count(m) - 1.0) <= 1e-12, key


class TestTrajectoryBalanceLoss:
    @staticmethod
    def loss(log_z, log_pf_sum, log_reward, log_pb_sum):
        log_z_t, log_pf_t = tensor(np.array([[log_z]])), tensor(np.array([[log_pf_sum]]))
        return tb_loss_tensor(log_z_t, log_pf_t, log_reward, log_pb_sum).data.item()

    def test_one_step_optimum_is_exactly_zero(self):
        # two terminals, rewards 1 and 3: optimum pi = [0.25, 0.75], Z = 4;
        # the cap leaves Stop as the only action, so it adds log 1 = 0
        log_z = math.log(4.0)
        for frag_id, p, reward in ((0, 0.25, 1.0), (1, 0.75, 3.0)):
            s0 = initial_state()
            s1 = apply_action(s0, AddFragment(None, None, frag_id, 0), TOY, 1)
            s2 = apply_action(s1, STOP, TOY, 1)
            log_pb = trajectory_backward_log_prob([s0, s1, s2])
            assert log_pb == 0.0  # single leaf, single attachment point
            # zero up to squared rounding of the log terms
            assert self.loss(log_z, math.log(p), math.log(reward), log_pb) < 1e-24

    def test_off_optimum_positive(self):
        assert self.loss(math.log(4.0), math.log(0.5), math.log(1.0), 0.0) > 0.0

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            log_reward = math.log(float(rng.exponential() + 0.1))
            assert self.loss(rng.normal(), -rng.exponential(), log_reward, -rng.exponential()) >= 0.0

    def test_log_z_gradient_matches_finite_differences(self):
        log_pf_sum = tensor(np.array([[math.log(0.3)]]))

        def f(log_z):
            return tb_loss_tensor(log_z, log_pf_sum, math.log(2.5), -math.log(2))

        report = finite_diff_check(f, tensor(np.array([[0.7]])), tol=1e-6)
        assert report.passed, str(report)


class TestShapedReward:
    def test_symmetric_dimer_gets_factor_two(self):
        s0 = initial_state()
        s1 = apply_action(s0, AddFragment(None, None, 0, 0), TOY, 2)
        s2 = apply_action(s1, AddFragment(0, 0, 0, 0), TOY, 2)
        term = apply_action(s2, STOP, TOY, 2)
        assert automorphism_count(term) == 2
        assert math.isclose(shaped_log_reward(0.5, term, 2.0), 2.0 * math.log(0.5) + math.log(2))

    def test_zero_quality_rejected(self):
        s0 = initial_state()
        s1 = apply_action(s0, AddFragment(None, None, 0, 0), TOY, 1)
        term = apply_action(s1, STOP, TOY, 1)
        with pytest.raises(TrainingError, match="positive"):
            shaped_log_reward(0.0, term, 4.0)


class TestTrain:
    def test_smoke_and_metrics_schema(self, tmp_path):
        mpath = tmp_path / "metrics.jsonl"
        cpath = tmp_path / "ckpt.json"
        result = train(
            small_config(3, seed=1, max_nodes=2), TOY, one_pocket(),
            metrics_path=str(mpath), checkpoint_path=str(cpath),
        )
        assert result.steps_run == 3
        rows = [json.loads(line) for line in mpath.read_text().splitlines()]
        assert len(rows) == 3
        for row in rows:
            assert list(row) == ["step", "loss", "mean_reward", "log_Z_mean"]
            assert math.isfinite(row["loss"]) and row["loss"] >= 0.0
            assert row["mean_reward"] > 0.0
        state, meta = load_checkpoint(str(cpath))
        assert meta["mode"] == "baseline"
        assert meta["steps_trained"] == 3
        assert set(state) == set(result.store.names())

    def test_zero_steps_checkpoint_equals_initialization(self, tmp_path):
        cfg = small_config(0, seed=9, max_nodes=2)
        r1 = train(cfg, TOY, one_pocket(), checkpoint_path=str(tmp_path / "a.json"))
        assert r1.metrics == []
        state, meta = load_checkpoint(str(tmp_path / "a.json"))
        fresh = ParamStore(np.random.default_rng([9, 7]))
        policy = PolicyNetwork(fresh, TOY, small_policy())
        ctx = policy.pocket_context(one_pocket()["p0"])
        from pocketgfn.training import _materialize_params
        _materialize_params(policy, ctx, TOY, 2)
        for name, arr in fresh.state_arrays().items():
            np.testing.assert_array_equal(state[name], arr)
        assert meta["steps_trained"] == 0

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    @pytest.mark.parametrize("size", ["default", "small"])
    def test_one_step_reaches_every_parameter(self, monkeypatch, mode, size):
        # every parameter the store holds, and so every checkpointed tensor,
        # gets a nonzero gradient from one step: none is created but unread
        reached = {}
        real_step = nn.Adam.step

        def step(self):
            reached.update({name: p.grad is not None and bool(np.any(p.grad)) for name, p in self.store.items()})
            real_step(self)

        monkeypatch.setattr(nn.Adam, "step", step)
        policy = PolicyConfig(mode=mode) if size == "default" else small_policy(mode)
        pocket = {"p0": build_knn_graph(synthetic_pocket(8, 3.0, 3), K=4)}
        result = train(TrainerConfig(steps=1, batch_size=4, max_nodes=4, seed=2, mode=mode, policy=policy), DESK, pocket)
        assert set(reached) == set(result.store.names())
        assert [name for name, ok in reached.items() if not ok] == []

    def test_training_changes_parameters(self, tmp_path):
        cfg = small_config(2, seed=9, max_nodes=2)
        r0 = train(small_config(0, seed=9, max_nodes=2), TOY, one_pocket())
        r2 = train(cfg, TOY, one_pocket())
        diffs = [
            float(np.abs(r0.store.state_arrays()[n] - r2.store.state_arrays()[n]).max())
            for n in r0.store.names()
        ]
        assert max(diffs) > 0.0

    def test_deterministic_metrics(self, tmp_path):
        for name in ("a", "b"):
            train(
                small_config(4, seed=5, max_nodes=2), TOY, one_pocket(),
                metrics_path=str(tmp_path / f"{name}.jsonl"),
            )
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_seed_changes_metrics(self, tmp_path):
        for seed, name in ((5, "a"), (6, "b")):
            train(
                small_config(3, seed=seed, max_nodes=2), TOY, one_pocket(),
                metrics_path=str(tmp_path / f"{name}.jsonl"),
            )
        assert (tmp_path / "a.jsonl").read_bytes() != (tmp_path / "b.jsonl").read_bytes()

    def test_divergence_guard(self):
        def bad_reward(pocket, states):
            return [math.inf] * len(states)

        with pytest.raises(TrainingError, match="diverged"):
            train(small_config(2, max_nodes=2), TOY, one_pocket(), reward_fn=bad_reward)

    def test_one_policy_pass_per_action(self, monkeypatch):
        # the batch advances in lockstep: one policy pass per (depth, pocket),
        # none for a state whose only legal action is Stop, and the loss is
        # built from the column of the passes' own taped drawn rows
        passes = []
        rolled = []
        real_dist = PolicyNetwork.action_distribution
        real_rollout = training.sample_trajectories
        real_materialize = training._materialize_params

        def counting_dist(self, states, ctx, max_nodes):
            dist = real_dist(self, states, ctx, max_nodes)
            passes.append((states, ctx.dist_matrix.shape[0], dist))
            return dist

        def recording_rollout(*args, **kwargs):
            out = real_rollout(*args, **kwargs)
            rolled.append((*out, ad.active_tape()))
            return out

        def materialize(*args):
            real_materialize(*args)
            passes.clear()  # setup passes, not part of the step

        monkeypatch.setattr(training, "_materialize_params", materialize)
        monkeypatch.setattr(PolicyNetwork, "action_distribution", counting_dist)
        monkeypatch.setattr(training, "sample_trajectories", recording_rollout)
        pockets = {**one_pocket(), "p1": build_knn_graph(synthetic_pocket(9, 4.0, 5), K=4)}
        cfg = small_config(1, seed=3, max_nodes=3, batch_size=8)
        train(cfg, DESK, pockets)
        (trajs, log_pf, owner, tape), = rolled
        assert len(trajs) == cfg.batch_size and tape is not None
        sizes = {pid: g.n for pid, g in pockets.items()}
        expected = {}
        ids = sorted(pockets)
        for idx, traj in enumerate(trajs):
            for s in traj.states[:-1]:
                if not stop_is_forced(s, DESK, cfg.max_nodes):
                    expected.setdefault((s.n, sizes[ids[idx % len(ids)]]), []).append(s)
        assert sorted((states[0].n, n_p) for states, n_p, _ in passes) == sorted(expected)
        for states, n_p, _ in passes:
            assert sorted(states, key=repr) == sorted(expected[states[0].n, n_p], key=repr)
        # the column lists each pass's drawn rows in turn, owned by the
        # trajectories whose states the pass scored; a forced Stop adds none
        assert log_pf._tape is tape and log_pf.shape == (len(owner), 1)
        start = 0
        for states, _, dist in passes:
            block = owner[start:start + len(states)]
            assert [trajs[i].states[states[0].n] for i in block] == list(states)
            for b, i in enumerate(block):
                rows = dist.rows(b)
                row = rows.start + dist.actions[rows].index(trajs[i].actions[states[0].n])
                assert log_pf.data[start + b, 0] == dist.log_probs.data[row, 0]
            start += len(states)
        assert start == len(owner)
        forced = sum(stop_is_forced(s, DESK, cfg.max_nodes) for traj in trajs for s in traj.states[:-1])
        assert forced > 0 and len(owner) + forced == sum(len(traj.actions) for traj in trajs)

    def test_step_gathers_drawn_rows_once_per_pass(self, monkeypatch):
        # the rollout takes each pass's drawn rows with one gather from its
        # log-probabilities, and no per-action log_prob_at
        passes, drawn_gathers, per_action = [], [], []
        real_dist = PolicyNetwork.action_distribution
        real_gather = ad.gather_rows
        real_materialize = training._materialize_params

        def counting_dist(self, states, ctx, max_nodes):
            dist = real_dist(self, states, ctx, max_nodes)
            passes.append(dist)
            return dist

        def counting_gather(x, indices):
            if any(np.shares_memory(x.data, d.log_probs.data) for d in passes):
                drawn_gathers.append(len(indices))
            return real_gather(x, indices)

        def materialize(*args):
            real_materialize(*args)
            passes.clear()

        def counting_log_prob_at(*args):
            per_action.append(1)
            return real_log_prob_at(*args)

        real_log_prob_at = policy_module.log_prob_at
        for name, module in list(sys.modules.items()):
            if name.startswith("pocketgfn") and getattr(module, "log_prob_at", None) is real_log_prob_at:
                monkeypatch.setattr(module, "log_prob_at", counting_log_prob_at)
        monkeypatch.setattr(training, "_materialize_params", materialize)
        monkeypatch.setattr(PolicyNetwork, "action_distribution", counting_dist)
        monkeypatch.setattr(ad, "gather_rows", counting_gather)
        train(small_config(1, seed=0, max_nodes=8, batch_size=16), DESK, one_pocket())
        assert per_action == []
        assert drawn_gathers == [len(d.offsets) - 1 for d in passes]

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    def test_column_loss_equals_per_trajectory_formula(self, mode, monkeypatch):
        # train()'s one column expression gives the loss and every parameter
        # gradient of the per-trajectory formula: one log_prob_at per drawn
        # action, a constant 0 per forced Stop, one (1, 1) loss per trajectory
        cfg = small_config(1, seed=4, max_nodes=4, batch_size=8, mode=mode)
        pockets = {**one_pocket(), "p1": build_knn_graph(synthetic_pocket(7, 3.0, 2), K=4)}
        reward_fn = default_reward_fn(DESK)
        seen = {}
        real_backward, real_step = ad.backward, nn.Adam.step

        def backward(loss):
            seen["loss"] = loss.data.item()
            real_backward(loss)

        def step(self):
            seen["grads"] = {name: None if p.grad is None else p.grad.copy() for name, p in self.store.items()}
            real_step(self)

        monkeypatch.setattr(ad, "backward", backward)
        monkeypatch.setattr(nn.Adam, "step", step)
        train(cfg, DESK, pockets, reward_fn=reward_fn)
        monkeypatch.undo()

        store = training.training_store(cfg)
        policy = PolicyNetwork(store, DESK, cfg.policy)
        ids = sorted(pockets)
        training._materialize_params(policy, policy.pocket_context(pockets[ids[0]]), DESK, cfg.max_nodes)
        drawn = [ids[idx % len(ids)] for idx in range(cfg.batch_size)]
        rngs = [np.random.default_rng([cfg.seed, 0, idx]) for idx in range(cfg.batch_size)]
        with Tape():
            ctxs = {pid: policy.pocket_context(pockets[pid]) for pid in sorted(set(drawn))}
            log_z = {pid: policy.log_z(c) for pid, c in ctxs.items()}
            states = [[initial_state()] for _ in drawn]
            log_pf = [[] for _ in drawn]
            live = list(range(len(drawn)))
            while live:
                by_pocket = {}
                for i in live:
                    if stop_is_forced(states[i][-1], DESK, cfg.max_nodes):
                        states[i].append(apply_action(states[i][-1], STOP, DESK, cfg.max_nodes))
                        log_pf[i].append(tensor(np.zeros((1, 1))))
                    else:
                        by_pocket.setdefault(drawn[i], []).append(i)
                for pid in sorted(by_pocket):
                    members = by_pocket[pid]
                    dist = policy.action_distribution([states[i][-1] for i in members], ctxs[pid], cfg.max_nodes)
                    for b, i in enumerate(members):
                        action, row = sample_action(dist, rngs[i], b)
                        states[i].append(apply_action(states[i][-1], action, DESK, cfg.max_nodes))
                        log_pf[i].append(log_prob_at(dist, row))
                live = [i for i in live if not states[i][-1].terminal]
            losses = []
            for i, pid in enumerate(drawn):
                log_reward = shaped_log_reward(reward_fn(pockets[pid], [states[i][-1]])[0], states[i][-1], cfg.beta)
                log_pf_sum = ad.reshape(ad.sum_all(ad.concat(log_pf[i], axis=0)), (1, 1))
                losses.append(tb_loss_tensor(log_z[pid], log_pf_sum, log_reward, trajectory_backward_log_prob(states[i])))
            total = ad.scale(ad.sum_all(ad.concat(losses, axis=0)), 1.0 / len(losses))
            real_backward(total)
        assert any(lp.data.item() == 0.0 and lp._tape is None for lps in log_pf for lp in lps)  # a forced Stop
        assert abs(seen["loss"] - total.data.item()) <= 1e-12
        for name, p in store.items():
            got = seen["grads"][name]
            assert (got is None) == (p.grad is None), name
            if got is not None:
                np.testing.assert_allclose(got, p.grad, rtol=0, atol=1e-12, err_msg=name)

    def test_step_frees_its_tape(self, monkeypatch):
        # backward drops the tape's nodes, so a step's intermediates are freed
        # by reference counting alone, without the cycle collector
        refs, losses = [], []
        real_backward = ad.backward

        def backward(loss):
            # the output of a layer norm in the middle of the tape, which
            # its rule holds
            norms = [n for n in loss._tape.nodes if n.vjp.__qualname__.startswith("layer_norm_rows.")]
            vjp = norms[len(norms) // 2].vjp
            cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__))
            refs.append(weakref.ref(cells["out"].cell_contents))
            losses.append(loss)
            real_backward(loss)

        monkeypatch.setattr(ad, "backward", backward)
        gc.disable()
        try:
            train(small_config(1, seed=3, max_nodes=3), DESK, one_pocket())
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()
        with pytest.raises(TapeError, match="already ran"):
            real_backward(losses[0])

    def test_only_parameters_get_gradients(self, monkeypatch):
        # data leaves (features, pooling weights, the segment matrix, the
        # loss shift) are constant(): after a step no leaf but a parameter
        # holds a gradient, and the parameters' gradients are bit for bit
        # those of the same step with the data leaves built by tensor()
        real_backward, real_step = ad.backward, nn.Adam.step

        def one_step(make_leaf):
            monkeypatch.setattr(ad, "constant", make_leaf)
            leaves, grads = {}, {}

            def backward(loss):
                leaves.update({id(t): t for node in loss._tape.nodes for t in node.inputs if type(t) is not int})
                real_backward(loss)

            def step(self):
                grads.update({name: p.grad for name, p in self.store.items()})
                real_step(self)

            monkeypatch.setattr(ad, "backward", backward)
            monkeypatch.setattr(nn.Adam, "step", step)
            store = ParamStore(np.random.default_rng(5))
            train(small_config(1, mode="trioformer", seed=3, max_nodes=3), DESK, one_pocket(), store=store)
            params = {id(p) for p in store.values()}
            return [t for key, t in leaves.items() if key not in params], grads

        data_leaves, grads = one_step(ad.constant)
        assert data_leaves and all(t.grad is None for t in data_leaves)
        as_tensors, tensor_grads = one_step(tensor)
        assert any(t.grad is not None for t in as_tensors)
        assert grads.keys() == tensor_grads.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, tensor_grads[name], err_msg=name)

    def test_attention_rules_hold_no_heads(self, monkeypatch):
        # an attention rule keeps its inputs, weights and softmax weights (or
        # each softmax row's max and sum) and recomputes q, k, v and the head
        # outputs: on a trioformer step's tape, no array it holds ends in
        # (heads, n, head_dim) or (heads, head_dim). Node counts here (1 to 3
        # ligand nodes, 6 residues) are no head width, so softmax weights
        # (..., heads, n, n) do not match.
        cfg = small_config(1, mode="trioformer", seed=3, max_nodes=3)
        p = cfg.policy
        heads = {(p.n_heads, p.width // p.n_heads), (p.trio_heads, p.trio_head_dim)}
        assert not {d for _, d in heads} & {1, 2, 3, 6}

        rules, offending = [], []
        real_backward = ad.backward

        def backward(loss):
            for node in loss._tape.nodes:
                if node.vjp.__qualname__.startswith("attention."):
                    rules.append(node.vjp)
                    offending.extend(a.shape for a in ad.held_by(node.vjp) if isinstance(a, np.ndarray)
                                     and any(a.shape[-2:] == hd or a.shape[-3::2] == hd for hd in heads))
            real_backward(loss)

        monkeypatch.setattr(ad, "backward", backward)
        train(cfg, DESK, one_pocket())
        assert rules and offending == []

    @pytest.mark.parametrize("mode, nodes, permutes", [("baseline", 452, 0), ("trioformer", 702, 16)],
                             ids=["baseline", "trioformer"])
    def test_desk_step_records_pinned_tape_nodes(self, mode, nodes, permutes, monkeypatch):
        # one seeded desk step, batch 16, default policy: a projection of a
        # track is one matmul node and a biased projection one one-layer mlp
        # node, where reshaping to rows and back and a separate bias add
        # recorded 599 (baseline) and 1,039 (trioformer) nodes; each track
        # is made in the layout its reader takes, where converting between
        # layouts recorded 551 and 887 nodes, 8 and 16 of them a reshape of a
        # reshape; and attention reads its bias heads last and one
        # log-softmax node normalizes the ragged action column, where
        # permuting every bias heads first and padding the column to a grid
        # between two reshapes recorded 506 and 794 nodes, 24 and 80 of them
        # permutes. The one permute left swaps the node axes of the pair
        # bias for the ligand track's cross-attention. Neither the stop head
        # nor the graph embedding it reads records a node on the empty
        # state, which has no Stop row, where they recorded 456 and 704.
        counts, found, real_backward = [], [], ad.backward

        def backward(loss):
            nodes = loss._tape.nodes
            kind = [node.vjp.__qualname__.partition(".")[0] for node in nodes]
            counts.append((len(nodes), kind.count("permute")))

            def made_by(inp, name):
                return type(inp) is int and kind[inp] == name

            for i, node in enumerate(nodes):
                if kind[i] == "reshape" and made_by(node.inputs[0], "reshape"):
                    found.append(f"reshape {i} of a reshape")
                if kind[i] == "attention" and made_by(node.inputs[-1], "permute"):
                    permute = nodes[node.inputs[-1]].vjp
                    axes = permute.__closure__[permute.__code__.co_freevars.index("inverse")].cell_contents
                    if axes != (0, 2, 1, 3):
                        found.append(f"attention {i} of a bias permuted by {axes}")
                if kind[i] == "log_softmax_rows" and made_by(node.inputs[0], "reshape"):
                    found.append(f"log-softmax {i} of a reshape")
                if kind[i] == "reshape" and made_by(node.inputs[0], "log_softmax_rows"):
                    found.append(f"reshape {i} of a log-softmax")
            real_backward(loss)

        monkeypatch.setattr(ad, "backward", backward)
        pockets = {"p": build_knn_graph(synthetic_pocket(10, 6.0, 0))}
        train(TrainerConfig(steps=1, batch_size=16, seed=0, mode=mode), DESK, pockets)
        assert counts == [(nodes, permutes)]
        assert found == []

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    def test_desk_step_records_no_node_off_the_loss(self, mode, monkeypatch):
        # every node a seeded desk step records is an input, directly or
        # not, of the loss: a node the loss does not read is work done for
        # nothing and memory held until backward
        unreached, real_backward = [], ad.backward

        def backward(loss):
            nodes = loss._tape.nodes
            reached, stack = {loss._slot}, [loss._slot]
            while stack:
                for inp in nodes[stack.pop()].inputs:
                    if type(inp) is int and inp not in reached:
                        reached.add(inp)
                        stack.append(inp)
            unreached.extend(f"{i} {nodes[i].vjp.__qualname__}" for i in range(len(nodes)) if i not in reached)
            real_backward(loss)

        monkeypatch.setattr(ad, "backward", backward)
        pockets = {"p": build_knn_graph(synthetic_pocket(10, 6.0, 0))}
        train(TrainerConfig(steps=1, batch_size=16, seed=0, mode=mode), DESK, pockets)
        assert unreached == []

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    def test_backward_peak_stays_near_forward_memory(self, mode):
        # backward releases each node as it passes it, so its peak is about
        # what the forward left held; keeping every node and every
        # intermediate's gradient to the end gave 1.57x (baseline) and 1.64x
        # (trioformer) here.
        policy = PolicyNetwork(ParamStore(np.random.default_rng(4)), DESK, small_policy(mode))
        pocket, batch = one_pocket(n=10)["p0"], 4
        # parameters are created lazily; create them before measuring
        training._materialize_params(policy, policy.pocket_context(pocket), DESK, 4)

        def step_loss():
            with Tape():
                ctx = policy.pocket_context(pocket)
                log_z = policy.log_z(ctx)
                rngs = [np.random.default_rng([1, i]) for i in range(batch)]
                trajs, log_pf, owner = training.sample_trajectories(policy, {"p0": ctx}, ["p0"] * batch, rngs, 4, DESK)
                segments = tensor(np.arange(batch)[:, None] == owner)
                log_pb = np.array([trajectory_backward_log_prob(t.states) for t in trajs])
                losses = tb_loss_tensor(ad.gather_rows(log_z, [0] * batch), ad.matmul(segments, log_pf), 0.0, log_pb)
                return ad.sum_all(losses)

        # one step first makes the caches that Python and numpy create
        # lazily, so held moves by about 6 KB with the tests run before it,
        # not 26 KB
        ad.backward(step_loss())
        for p in policy.store.values():
            p.grad = None
        tracemalloc.start()
        try:
            loss = step_loss()
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * held, f"backward peak {peak} B against {held} B held after the forward"
        # the triangle folds' attention rules keep each softmax row's max
        # and sum, not the weights: held reads 380,169-386,192 B here, and
        # 394,365-400,801 B when they kept the weights
        if mode == "trioformer":
            assert held <= 390_000, f"{held} B held after the forward"

        # The ratio rises when the tape holds less, and peak - held rises
        # when the walk frees less before its peak node, so the backward's
        # own excess is bounded in bytes: the most that one rule's traced
        # peak exceeds the memory in use when the walk reaches its node. A
        # further, identical step measures it, since the probes that wrap
        # each rule take memory of their own. It reads 29,730 (baseline) and
        # 62,418 (trioformer) bytes, bounded with about 0.5 KB to spare; the
        # trioformer's was 52,642 before the triangle folds' rules rebuilt
        # their softmax weights in backward.
        for p in policy.store.values():
            p.grad = None
        excess = [0]

        def probe(rule):
            def run(g):
                in_use = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                grads = rule(g)
                excess[0] = max(excess[0], tracemalloc.get_traced_memory()[1] - in_use)
                return grads

            return run

        tracemalloc.start()
        try:
            loss = step_loss()
            for node in loss._tape.nodes:
                node.vjp = probe(node.vjp)
            ad.backward(loss)
        finally:
            tracemalloc.stop()
        bound = {"baseline": 30_200, "trioformer": 62_900}[mode]
        assert excess[0] <= bound, f"a rule's backward peak is {excess[0]} B over the memory in use before it"

    def test_non_finite_gradient_names_parameter(self, monkeypatch):
        # a NaN injected through one primitive's gradient leaves the loss finite
        real_relu = ad.relu

        def nan_grad_relu(a):
            out = real_relu(a)
            tape = ad.active_tape()
            if tape is not None:
                tape.nodes[-1].vjp = lambda g: (np.full(a.shape, np.nan),)
            return out

        monkeypatch.setattr(ad, "relu", nan_grad_relu)
        store = ParamStore(np.random.default_rng([0, 7]))
        with pytest.raises(TrainingError) as err:
            train(small_config(2, max_nodes=2), TOY, one_pocket(), store=store)
        bad = [name for name, p in store.items() if p.grad is not None and not np.isfinite(p.grad).all()]
        assert str(err.value) == f"training diverged: non-finite gradient of {bad[0]} at step 0"

    def test_non_finite_parameter_after_update_names_it(self):
        # the gradients are finite; an infinite step leaves the parameters not.
        # TrainerConfig rejects an infinite learning rate, so it is set after the check
        store = ParamStore(np.random.default_rng([0, 7]))
        cfg = small_config(2, max_nodes=2)
        cfg.learning_rate = math.inf
        with pytest.raises(TrainingError) as err, np.errstate(invalid="ignore"):
            train(cfg, TOY, one_pocket(), store=store)
        bad = [name for name, p in store.items() if not np.isfinite(p.data).all()]
        assert str(err.value) == f"training diverged: non-finite parameter {bad[0]} after the update at step 0"

    def test_stop_fn_ends_early(self):
        calls = []

        def stop_fn(row):
            calls.append(row["step"])
            return row["step"] >= 1

        result = train(small_config(10, max_nodes=2), TOY, one_pocket(), stop_fn=stop_fn)
        assert result.steps_run == 2
        assert calls == [0, 1]

    def test_every_pocket_trained_when_pockets_exceed_batch(self):
        # 3 pockets at batch 2: the deal carries over from step to step, so
        # 3 steps give each pocket 2 trajectories
        pockets = {f"p{i}": build_knn_graph(synthetic_pocket(5, 2.0 + i, i), K=3) for i in range(3)}
        drawn = {pid: 0 for pid in pockets}
        by_graph = {id(g): pid for pid, g in pockets.items()}

        def reward_fn(pocket, states):
            drawn[by_graph[id(pocket)]] += len(states)
            return [1.0] * len(states)

        train(small_config(3, max_nodes=2, batch_size=2), TOY, pockets, reward_fn=reward_fn)
        assert drawn == {"p0": 2, "p1": 2, "p2": 2}

    def test_one_reward_call_per_pocket_per_step(self):
        # batch 5 over 2 pockets deals 3 and 2 trajectories, then 2 and 3:
        # each step scores each pocket's terminal states in one call, and the
        # rewards reach the metrics
        pockets = {f"p{i}": build_knn_graph(synthetic_pocket(5, 2.0 + i, i), K=3) for i in range(2)}
        by_graph = {id(g): pid for pid, g in pockets.items()}
        reward_fn, calls = default_reward_fn(TOY), []

        def counting(pocket, states):
            assert all(s.terminal for s in states)
            calls.append((by_graph[id(pocket)], len(states)))
            return reward_fn(pocket, states)

        cfg = small_config(3, max_nodes=2, batch_size=5)
        counted = train(cfg, TOY, pockets, reward_fn=counting)
        assert calls == [("p0", 3), ("p1", 2), ("p0", 2), ("p1", 3), ("p0", 3), ("p1", 2)]
        assert counted.metrics == train(cfg, TOY, pockets).metrics


@pytest.fixture
def count_transitions(monkeypatch):
    """A function that starts counting ``apply_action`` and ``canonical_key``
    calls made through ``ligand`` or ``training`` and returns the list their
    names go to, in call order."""

    def start():
        calls = []

        def counted(name, real):
            def fn(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return fn

        for module in (ligand, training):
            for name in ("apply_action", "canonical_key"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    return start


class TestOracles:
    def test_exact_distribution_sums_to_one(self):
        policy = make_policy()
        ctx = policy.pocket_context(one_pocket()["p0"])
        dist = exact_terminal_distribution(policy, ctx, TOY, 2)
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
        assert set(dist) == {canonical_key(s) for s in enumerated_space(TOY, 2).molecules}

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    def test_exact_distribution_sums_to_one_over_target_keys(self, mode):
        # desk at cap 3: most states are forced stops and get no policy pass
        policy = PolicyNetwork(ParamStore(np.random.default_rng(4)), DESK, small_policy(mode))
        ctx = policy.pocket_context(one_pocket()["p0"])
        dist = exact_terminal_distribution(policy, ctx, DESK, 3)
        assert abs(math.fsum(dist.values()) - 1.0) <= 1e-9
        assert set(dist) == {canonical_key(s) for s in enumerated_space(DESK, 3).molecules}
        assert all(p > 0.0 for p in dist.values())

    def test_exact_distribution_one_pass_per_depth(self, monkeypatch):
        passes = []
        real_dist = PolicyNetwork.action_distribution

        def counting_dist(self, states, ctx, max_nodes):
            passes.append(states)
            return real_dist(self, states, ctx, max_nodes)

        monkeypatch.setattr(PolicyNetwork, "action_distribution", counting_dist)
        policy = PolicyNetwork(ParamStore(np.random.default_rng(4)), DESK, small_policy())
        exact_terminal_distribution(policy, policy.pocket_context(one_pocket()["p0"]), DESK, 3)
        # depths 0-2; every 3-node state is a forced stop and gets no pass
        assert [states[0].n for states in passes] == [0, 1, 2]
        assert not any(stop_is_forced(s, DESK, 3) for states in passes for s in states)

    # caps 2-3 on both libraries, and the desk library at the guard's cap 4
    REFERENCE_SPACES = [("toy", 2), ("toy", 3), ("desk", 2), ("desk", 3), ("desk", 4)]

    @pytest.mark.parametrize("mode", ["baseline", "trioformer"])
    @pytest.mark.parametrize("lib_name,cap", REFERENCE_SPACES)
    def test_exact_equals_reference_walk(self, lib_name, cap, mode):
        lib = {"toy": TOY, "desk": DESK}[lib_name]
        policy = PolicyNetwork(ParamStore(np.random.default_rng(4)), lib, small_policy(mode))
        ctx = policy.pocket_context(one_pocket()["p0"])
        exact = exact_terminal_distribution(policy, ctx, lib, cap)
        reference = oracle_reference.exact_terminal_distribution(policy, ctx, lib, cap)
        assert exact == reference
        # the same key order too, so a sum over the keys adds in the same order
        assert list(exact) == list(reference)

    @pytest.mark.parametrize("lib_name,cap", REFERENCE_SPACES[:-1])
    def test_target_matches_reference_walk(self, lib_name, cap):
        lib = {"toy": TOY, "desk": DESK}[lib_name]
        pocket, reward_fn = one_pocket()["p0"], default_reward_fn(lib)
        target = target_distribution(pocket, lib, cap, reward_fn, 4.0)
        reference = oracle_reference.target_distribution(pocket, lib, cap, reward_fn, 4.0)
        assert list(target) == list(reference)
        # a molecule is scored in canonical form, and the reference scores the
        # first raw form it meets; the ligand's polarity mean adds in node
        # order, so from three fragments on the two may differ in the last bit
        # (the reference's cap-4 walk costs seconds and adds no other case)
        if cap == 2:
            assert target == reference
        assert all(abs(target[k] - p) <= 1e-15 * p for k, p in reference.items())

    def test_repeated_oracles_make_no_transitions(self, count_transitions):
        policy = PolicyNetwork(ParamStore(np.random.default_rng(4)), DESK, small_policy())
        pocket = one_pocket()["p0"]
        ctx = policy.pocket_context(pocket)
        reward_fn = default_reward_fn(DESK)
        first = exact_terminal_distribution(policy, ctx, DESK, 3), target_distribution(pocket, DESK, 3, reward_fn, 4.0)
        calls = count_transitions()
        again = exact_terminal_distribution(policy, ctx, DESK, 3), target_distribution(pocket, DESK, 3, reward_fn, 4.0)
        assert again == first
        assert calls == []
        # the counters do see a walk: building the space afresh makes both calls
        ligand._walk_space.__wrapped__(DESK.attachment_counts, 3)
        assert {"apply_action", "canonical_key"} <= set(calls)

    def test_repeated_estimate_makes_no_transitions(self, count_transitions):
        policy = PolicyNetwork(ParamStore(np.random.default_rng(4)), DESK, small_policy())
        ctx = policy.pocket_context(one_pocket()["p0"])
        first = empirical_terminal_distribution(policy, ctx, DESK, 3, n_samples=500)
        calls = count_transitions()
        assert empirical_terminal_distribution(policy, ctx, DESK, 3, n_samples=500) == first
        assert calls == []

    def test_every_draw_goes_through_sample_action(self, monkeypatch):
        drawn = []
        real_sample = training.sample_action

        def recording(dist, rng, b=0):
            action, row = real_sample(dist, rng, b)
            drawn.append(action)
            return action, row

        monkeypatch.setattr(training, "sample_action", recording)
        policy = PolicyNetwork(ParamStore(np.random.default_rng(4)), DESK, small_policy())
        n = 300
        estimate = empirical_terminal_distribution(policy, policy.pocket_context(one_pocket()["p0"]), DESK, 3, n)
        # replaying the drawn actions from the empty state rebuilds every draw:
        # one call per step that is not a forced stop, and the same counts
        counts, forced_ends, s = {}, 0, initial_state()
        for action in drawn:
            assert not stop_is_forced(s, DESK, 3)
            s = apply_action(s, action, DESK, 3)
            if s.terminal or stop_is_forced(s, DESK, 3):
                forced_ends += not s.terminal
                counts[canonical_key(s)] = counts.get(canonical_key(s), 0) + 1
                s = initial_state()
        assert s == initial_state() and sum(counts.values()) == n
        assert estimate == {k: c / n for k, c in counts.items()}
        assert 0 < forced_ends < n  # draws end both ways

    def test_estimate_agrees_with_exact_within_multinomial_bound(self):
        policy = PolicyNetwork(ParamStore(np.random.default_rng(4)), DESK, small_policy("trioformer"))
        ctx = policy.pocket_context(one_pocket()["p0"])
        exact = exact_terminal_distribution(policy, ctx, DESK, 3)
        n = 10_000
        tv = total_variation(exact, empirical_terminal_distribution(policy, ctx, DESK, 3, n))
        # E|X/n - p| is about sqrt(2 p (1 - p) / (pi n)) per molecule, so the
        # expected TV is at most 0.5 sqrt(2 K / (pi n)) over K molecules; the
        # TV's spread is at most 0.5 sqrt((1 - 2 / pi) / n), and the bound
        # allows five of it
        expected = 0.5 * math.sqrt(2 * len(exact) / (math.pi * n))
        assert tv < expected + 5 * 0.5 * math.sqrt((1 - 2 / math.pi) / n)

    def test_exact_matches_empirical_on_untrained_policy(self):
        policy = make_policy()
        ctx = policy.pocket_context(one_pocket()["p0"])
        exact = exact_terminal_distribution(policy, ctx, TOY, 2)
        emp = empirical_terminal_distribution(policy, ctx, TOY, 2, n_samples=20000)
        assert total_variation(exact, emp) < 0.02

    def test_guard_rejects_large_spaces(self):
        policy = make_policy()
        with pytest.raises(LibraryError, match="guard"):
            proportional_sampling_check(
                policy, TOY, one_pocket()["p0"], lambda p, s: 1.0, 10, max_nodes=5, beta=1.0,
            )

    def test_constant_reward_target_is_uniform(self):
        target = target_distribution(one_pocket()["p0"], TOY, 2, lambda p, states: [0.5] * len(states), beta=3.0)
        assert len(target) == 5
        for v in target.values():
            assert math.isclose(v, 0.2)

    def test_untrained_tv_is_a_valid_distance(self):
        policy = make_policy()
        tv = proportional_sampling_check(
            policy, TOY, one_pocket()["p0"], lambda p, states: [1.0 + 0.5 * s.n for s in states], 2000, max_nodes=2, beta=2.0,
        )
        assert 0.0 <= tv <= 1.0

    def test_total_variation_does_not_depend_on_hash_seed(self):
        # the keys are summed over a set, which string hashing orders; with
        # a plain sum, hash seeds 0 and 2 differed in the last bit here
        code = (
            "import numpy as np\n"
            "from pocketgfn.ligand import desk_library\n"
            "from pocketgfn.nn import ParamStore\n"
            "from pocketgfn.pocket import build_knn_graph, synthetic_pocket\n"
            "from pocketgfn.policy import PolicyConfig, PolicyNetwork\n"
            "from pocketgfn.training import default_reward_fn, exact_terminal_distribution, target_distribution, total_variation\n"
            "lib = desk_library()\n"
            "pocket = build_knn_graph(synthetic_pocket(10, 3.0, seed=5))\n"
            "policy = PolicyNetwork(ParamStore(np.random.default_rng(0)), lib, PolicyConfig())\n"
            "exact = exact_terminal_distribution(policy, policy.pocket_context(pocket), lib, 3)\n"
            "print(repr(total_variation(exact, target_distribution(pocket, lib, 3, default_reward_fn(lib), 4.0))))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(training.__file__)))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])},
            )
            for seed in ("0", "2")
        ]
        outs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_total_variation_basics(self):
        assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
        assert math.isclose(total_variation({"a": 1.0}, {"b": 1.0}), 1.0)
        assert math.isclose(total_variation({"a": 0.6, "b": 0.4}, {"a": 0.4, "b": 0.6}), 0.2)


class TestLossReduction:
    def test_toy_run_cuts_loss_tenfold_within_2000_steps(self):
        first_losses = []
        recent = []

        def stop_fn(row):
            if row["step"] < 5:
                first_losses.append(row["loss"])
                return False
            recent.append(row["loss"])
            if len(recent) > 10:
                recent.pop(0)
            baseline = np.mean(first_losses)
            return len(recent) == 10 and np.mean(recent) <= baseline / 10.0

        cfg = small_config(2000, seed=2, max_nodes=2, learning_rate=3e-3, beta=1.0)
        result = train(cfg, TOY, one_pocket(), stop_fn=stop_fn)
        assert result.steps_run <= 2000
        baseline = np.mean([r["loss"] for r in result.metrics[:5]])
        tail = np.mean([r["loss"] for r in result.metrics[-10:]])
        assert tail <= baseline / 10.0, f"loss went {baseline:.4f} -> {tail:.4f} in {result.steps_run} steps"
