import json
import math

import numpy as np
import pytest

import pocketgfn.autodiff as ad
from pocketgfn.autodiff import Tape, finite_diff_check, tensor
from pocketgfn.ligand import (
    AddFragment,
    LibraryError,
    STOP,
    apply_action,
    automorphism_count,
    backward_transitions,
    canonical_key,
    desk_library,
    enumerate_terminal_states,
    initial_state,
    toy_library,
)
from pocketgfn.nn import ParamStore, load_checkpoint
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
from pocketgfn.policy import PolicyConfig, PolicyNetwork
from pocketgfn.selfcheck import small_policy
import pocketgfn.training as training
from pocketgfn.training import (
    TrainerConfig,
    TrainingError,
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
            assert len(traj.log_pf) == len(traj.actions) == len(traj.states) - 1
            assert all(lp.shape == (1, 1) and lp.data.item() <= 0.0 for lp in traj.log_pf)

    def test_fixed_seed_reproduces(self):
        policy = make_policy()
        ctx = policy.pocket_context(one_pocket()["p0"])
        t1 = sample_trajectory(policy, ctx, "p0", np.random.default_rng(42), 3, TOY)
        t2 = sample_trajectory(policy, ctx, "p0", np.random.default_rng(42), 3, TOY)
        assert t1.actions == t2.actions
        assert [lp.data.item() for lp in t1.log_pf] == [lp.data.item() for lp in t2.log_pf]


class TestBackwardLogProb:
    def test_chain_value_by_hand(self):
        # cyclohexane - cyclohexane - hydroxyl chain
        s0 = initial_state()
        s1 = apply_action(s0, AddFragment(None, None, 3, 0), DESK, 8)
        s2 = apply_action(s1, AddFragment(0, 1, 3, 0), DESK, 8)
        s3 = apply_action(s2, AddFragment(1, 1, 1, 0), DESK, 8)
        s4 = apply_action(s3, STOP, DESK, 8)
        # s1: sole leaf, root entry over 2 aps; s2: 2 leaves; s3: 2 leaves; stop: free
        expected = (0.0 - math.log(2)) + (-math.log(2)) + (-math.log(2))
        assert math.isclose(trajectory_backward_log_prob([s0, s1, s2, s3, s4], DESK), expected)

    def test_matches_per_parent_enumeration(self):
        # each step's probability appears among the child's backward transitions
        s0 = initial_state()
        s1 = apply_action(s0, AddFragment(None, None, 0, 1), DESK, 8)
        s2 = apply_action(s1, AddFragment(0, 0, 2, 0), DESK, 8)
        for child in (s1, s2):
            probs = [math.exp(lp) for _, _, lp in backward_transitions(child, DESK)]
            assert math.isclose(sum(probs), 1.0)


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
            log_pb = trajectory_backward_log_prob([s0, s1, s2], TOY)
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
        def bad_reward(pocket, s):
            return math.inf

        with pytest.raises(TrainingError, match="diverged"):
            train(small_config(2, max_nodes=2), TOY, one_pocket(), reward_fn=bad_reward)

    def test_one_policy_pass_per_action(self, monkeypatch):
        # the loss is built from the rollout's own taped log-probabilities,
        # so each sampled action costs exactly one policy call
        calls = []
        rolled = []
        real_dist = PolicyNetwork.action_distribution
        real_rollout = training.sample_trajectory
        real_materialize = training._materialize_params

        def counting_dist(self, *args, **kwargs):
            calls.append(1)
            return real_dist(self, *args, **kwargs)

        def recording_rollout(*args, **kwargs):
            traj = real_rollout(*args, **kwargs)
            rolled.append((traj, ad.active_tape()))
            return traj

        def materialize(*args):
            real_materialize(*args)
            calls.clear()  # setup passes, not part of the step

        monkeypatch.setattr(training, "_materialize_params", materialize)
        monkeypatch.setattr(PolicyNetwork, "action_distribution", counting_dist)
        monkeypatch.setattr(training, "sample_trajectory", recording_rollout)
        cfg = small_config(1, seed=3, max_nodes=3)
        train(cfg, DESK, one_pocket())
        assert len(rolled) == cfg.batch_size
        assert len(calls) == sum(len(traj.actions) for traj, _ in rolled)
        for traj, tape in rolled:
            assert tape is not None
            assert all(tape.nodes[lp.node_id].output is lp for lp in traj.log_pf)

    def test_stop_fn_ends_early(self):
        calls = []

        def stop_fn(row):
            calls.append(row["step"])
            return row["step"] >= 1

        result = train(small_config(10, max_nodes=2), TOY, one_pocket(), stop_fn=stop_fn)
        assert result.steps_run == 2
        assert calls == [0, 1]


class TestOracles:
    def test_exact_distribution_sums_to_one(self):
        policy = make_policy()
        ctx = policy.pocket_context(one_pocket()["p0"])
        dist = exact_terminal_distribution(policy, ctx, TOY, 2)
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-12)
        assert set(dist) == {canonical_key(s) for s in enumerate_terminal_states(TOY, 2)}

    def test_exact_matches_empirical_on_untrained_policy(self):
        policy = make_policy()
        ctx = policy.pocket_context(one_pocket()["p0"])
        exact = exact_terminal_distribution(policy, ctx, TOY, 2)
        emp = empirical_terminal_distribution(policy, ctx, TOY, 2, n_samples=20000, seed=0)
        assert total_variation(exact, emp) < 0.02

    def test_guard_rejects_large_spaces(self):
        policy = make_policy()
        with pytest.raises(LibraryError, match="guard"):
            proportional_sampling_check(
                policy, TOY, one_pocket()["p0"], lambda p, s: 1.0, 10, max_nodes=5, beta=1.0,
            )

    def test_constant_reward_target_is_uniform(self):
        target = target_distribution(one_pocket()["p0"], TOY, 2, lambda p, s: 0.5, beta=3.0)
        assert len(target) == 5
        for v in target.values():
            assert math.isclose(v, 0.2)

    def test_untrained_tv_is_a_valid_distance(self):
        policy = make_policy()
        tv = proportional_sampling_check(
            policy, TOY, one_pocket()["p0"], lambda p, s: 1.0 + 0.5 * s.n, 2000, max_nodes=2, beta=2.0,
        )
        assert 0.0 <= tv <= 1.0

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
