"""Trajectory-balance training and exact sampling oracles.

The sampler is trained so that terminal molecules appear with probability
proportional to reward. Two oracles verify that claim: a dynamic program that
walks every raw trajectory of the policy (exact model distribution), and an
exhaustive reward enumeration (target distribution). Both are feasible only
on deliberately small libraries, which is the point: correctness is checked
where it can be checked exactly.

Backward policy and symmetry. The fixed backward policy is uniform over
removable leaf fragments, plus a uniform choice of entry attachment point at
the 1-node step (the state does not record which point the first fragment
exposed, so all of them are equally consistent parents). Under that backward
policy the total backward weight of a molecule m sums to 1/|Aut(m)| over its
raw forms: reversed leaf-deletion orders biject with insertion orders, the
deletion walk's probabilities sum to 1, and the walk lands on each raw form
of an Aut-orbit equally often. Training therefore multiplies the reward by
the automorphism count of the terminal raw state, which makes the optimum
sample molecules proportionally to the undecorated reward q^beta.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffTensor, Tape, tensor
from .ligand import (
    FragmentLibrary,
    LigandAction,
    LigandState,
    apply_action,
    automorphism_count,
    canonical_key,
    check_enumeration_guard,
    enumerate_terminal_states,
    initial_state,
    step_backward_log_prob,
)
from .nn import Adam, ParamStore, save_checkpoint
from .pocket import PocketGraph
from .policy import (
    BASELINE,
    PocketContext,
    PolicyConfig,
    PolicyNetwork,
    log_prob_at,
    sample_action,
)
from .rewards import RewardWeights, state_quality


class TrainingError(RuntimeError):
    pass


@dataclass
class Trajectory:
    states: list[LigandState]
    actions: list[LigandAction]
    log_pf: list[DiffTensor]  # (1, 1) log-probability of each action taken
    pocket_id: str
    log_reward: float = 0.0  # shaped terminal log-reward used by the loss


@dataclass
class TrainerConfig:
    steps: int
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta: float = 4.0
    max_nodes: int = 8
    seed: int = 0
    mode: str = BASELINE
    policy: PolicyConfig | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise TrainingError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.beta <= 0:
            raise TrainingError(f"beta must be > 0, got {self.beta}")
        if self.max_nodes < 1:
            raise TrainingError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.policy is None:
            self.policy = PolicyConfig(mode=self.mode)
        elif self.policy.mode != self.mode:
            raise TrainingError(f"config mode {self.mode!r} disagrees with policy mode {self.policy.mode!r}")


@dataclass
class TrainResult:
    store: ParamStore
    policy: PolicyNetwork
    metrics: list[dict]
    steps_run: int


def default_reward_fn(library: FragmentLibrary, weights: RewardWeights | None = None):
    w = weights if weights is not None else RewardWeights(0.5, 0.25, 0.25)

    def fn(pocket: PocketGraph, s: LigandState) -> float:
        return state_quality(pocket, s, library, w)

    return fn


def sample_trajectory(
    policy: PolicyNetwork,
    ctx: PocketContext,
    pocket_id: str,
    rng: np.random.Generator,
    max_nodes: int,
    library: FragmentLibrary,
) -> Trajectory:
    """Roll the forward policy from the empty state until Stop (the node cap
    leaves Stop as the only legal action, so termination is guaranteed).

    Under an active tape the action log-probabilities are recorded, so the
    training loss is built from this one pass."""
    s = initial_state()
    states = [s]
    actions: list[LigandAction] = []
    log_pf: list[DiffTensor] = []
    while not s.terminal:
        dist = policy.action_distribution(s, ctx, max_nodes)
        action, idx = sample_action(dist, rng)
        log_pf.append(log_prob_at(dist, idx))
        s = apply_action(s, action, library, max_nodes)
        states.append(s)
        actions.append(action)
    return Trajectory(states=states, actions=actions, log_pf=log_pf, pocket_id=pocket_id)


def trajectory_backward_log_prob(states: list[LigandState], library: FragmentLibrary) -> float:
    """Sum of fixed-backward-policy log-probs along a trajectory.

    The stop transition has a unique parent and contributes zero; each growth
    transition is scored at its child state.
    """
    total = 0.0
    for child in states[1:]:
        if child.terminal:
            continue
        total += step_backward_log_prob(child, library, is_root_step=(child.n == 1))
    return total


def shaped_log_reward(quality: float, terminal: LigandState, beta: float, aut_cache: dict | None = None) -> float:
    if not quality > 0:
        raise TrainingError(f"reward must be positive, got quality {quality}")
    aut = None
    if aut_cache is not None:
        aut = aut_cache.get((terminal.nodes, terminal.edges))
    if aut is None:
        aut = automorphism_count(terminal)
        if aut_cache is not None:
            aut_cache[(terminal.nodes, terminal.edges)] = aut
    return beta * math.log(quality) + math.log(aut)


def tb_loss_tensor(log_z: DiffTensor, log_pf_sum: DiffTensor, log_reward: float, log_pb_sum: float) -> DiffTensor:
    """Squared balance gap (log Z + sum log_pf - log R - sum log_pb)^2, shape (1, 1)."""
    shift = tensor(np.array([[-(log_reward + log_pb_sum)]]))
    return ad.square(ad.add(ad.add(log_z, log_pf_sum), shift))


def _materialize_params(policy: PolicyNetwork, ctx: PocketContext, library: FragmentLibrary, max_nodes: int) -> None:
    # lazily created parameters must all exist before checkpointing or Adam;
    # one pass on the empty state plus one on a 1-node state touches every head
    s0 = initial_state()
    dist = policy.action_distribution(s0, ctx, max_nodes)
    first = next(a for a, m in zip(dist.actions, dist.mask) if m)
    s1 = apply_action(s0, first, library, max_nodes)
    policy.action_distribution(s1, ctx, max_nodes)
    policy.log_z(ctx)


def train(
    config: TrainerConfig,
    library: FragmentLibrary,
    pockets: dict[str, PocketGraph],
    reward_fn=None,
    store: ParamStore | None = None,
    metrics_path: str | None = None,
    checkpoint_path: str | None = None,
    stop_fn=None,
    extra_meta: dict | None = None,
) -> TrainResult:
    """Adam on the trajectory-balance objective.

    Per step: roll a batch under a tape (pockets round-robin, one RNG stream
    per (seed, step, trajectory index)), build the loss from the recorded
    action log-probabilities and take one update. Metrics rows go to
    ``metrics_path`` as JSON lines. A non-finite loss aborts. ``stop_fn(row)``
    returning True ends training early (used by callers that watch a
    convergence signal). The checkpoint meta records the policy config, so
    the checkpoint can be rebuilt for sampling.
    """
    if not pockets:
        raise TrainingError("need at least one pocket")
    if reward_fn is None:
        reward_fn = default_reward_fn(library)
    if store is None:
        store = ParamStore(np.random.default_rng([config.seed, 7]))
    policy = PolicyNetwork(store, library, config.policy)
    pocket_ids = sorted(pockets)
    _materialize_params(policy, policy.pocket_context(pockets[pocket_ids[0]]), library, config.max_nodes)

    optimizer = Adam(store, lr=config.learning_rate)
    aut_cache: dict = {}
    metrics: list[dict] = []
    steps_run = 0
    sink = open(metrics_path, "w") if metrics_path else None
    try:
        for step in range(config.steps):
            with Tape():
                ctxs = {pid: policy.pocket_context(pockets[pid]) for pid in pocket_ids[:config.batch_size]}
                log_z = {pid: policy.log_z(c) for pid, c in ctxs.items()}
                batch: list[Trajectory] = []
                losses = []
                for idx in range(config.batch_size):
                    pid = pocket_ids[idx % len(pocket_ids)]
                    rng = np.random.default_rng([config.seed, step, idx])
                    traj = sample_trajectory(policy, ctxs[pid], pid, rng, config.max_nodes, library)
                    terminal = traj.states[-1]
                    quality = reward_fn(pockets[pid], terminal)
                    traj.log_reward = shaped_log_reward(quality, terminal, config.beta, aut_cache)
                    log_pf_sum = ad.reshape(ad.sum_all(ad.concat(traj.log_pf, axis=0)), (1, 1))
                    log_pb = trajectory_backward_log_prob(traj.states, library)
                    losses.append(tb_loss_tensor(log_z[pid], log_pf_sum, traj.log_reward, log_pb))
                    batch.append(traj)
                total = ad.scale(ad.sum_all(ad.concat(losses, axis=0)), 1.0 / len(losses))
                loss_value = total.data.item()
                if not math.isfinite(loss_value):
                    raise TrainingError(f"training diverged: loss {loss_value} at step {step}")
                ad.backward(total)
            optimizer.step()
            store.zero_grads()

            row = {
                "step": step,
                "loss": loss_value,
                "mean_reward": float(np.mean([math.exp(t.log_reward) for t in batch])),
                "log_Z_mean": float(np.mean([v.data[0, 0] for v in log_z.values()])),
            }
            metrics.append(row)
            steps_run = step + 1
            if sink:
                sink.write(json.dumps(row) + "\n")
            if stop_fn is not None and stop_fn(row):
                break
    finally:
        if sink:
            sink.close()

    if checkpoint_path:
        meta = {
            "mode": config.mode,
            "seed": config.seed,
            "beta": config.beta,
            "max_nodes": config.max_nodes,
            "steps_trained": steps_run,
            "library_ids": list(library.ids),
            "policy": asdict(config.policy),
        }
        if extra_meta:
            meta.update(extra_meta)
        save_checkpoint(checkpoint_path, store, meta)
    return TrainResult(store=store, policy=policy, metrics=metrics, steps_run=steps_run)


# -- oracles -----------------------------------------------------------------


def exact_terminal_distribution(
    policy: PolicyNetwork, ctx: PocketContext, library: FragmentLibrary, max_nodes: int
) -> dict[str, float]:
    """Exact model distribution over molecules (canonical keys).

    Every raw state is reachable by exactly one action sequence, so a depth
    first walk multiplying action probabilities visits each raw trajectory
    once; terminal mass is pooled by canonical form.
    """
    check_enumeration_guard(library, max_nodes)
    out: dict[str, float] = defaultdict(float)
    stack: list[tuple[LigandState, float]] = [(initial_state(), 1.0)]
    while stack:
        s, p = stack.pop()
        dist = policy.action_distribution(s, ctx, max_nodes)
        for action, prob in zip(dist.actions, dist.probs):
            if prob <= 0.0:
                continue
            child = apply_action(s, action, library, max_nodes)
            mass = p * prob
            if child.terminal:
                out[canonical_key(child)] += mass
            else:
                stack.append((child, mass))
    return dict(out)


def target_distribution(
    pocket: PocketGraph, library: FragmentLibrary, max_nodes: int, reward_fn, beta: float
) -> dict[str, float]:
    """Reward-proportional distribution q^beta / Z over all molecules."""
    states = enumerate_terminal_states(library, max_nodes)
    raw = {}
    for s in states:
        q = reward_fn(pocket, s)
        if not q > 0:
            raise TrainingError(f"reward must be positive, got {q}")
        raw[canonical_key(s)] = q**beta
    z = sum(raw.values())
    return {k: v / z for k, v in raw.items()}


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def empirical_terminal_distribution(
    policy: PolicyNetwork,
    ctx: PocketContext,
    library: FragmentLibrary,
    max_nodes: int,
    n_samples: int,
    seed: int = 0,
) -> dict[str, float]:
    """Monte Carlo estimate of the terminal distribution.

    Action distributions are cached per raw state (the policy is fixed), so
    the walk itself is a few array lookups per step.
    """
    cache: dict[tuple, tuple[np.ndarray, list]] = {}
    rng = np.random.default_rng([seed, 104729])
    counts: dict[str, int] = defaultdict(int)
    for _ in range(n_samples):
        s = initial_state()
        while not s.terminal:
            key = (s.nodes, s.edges)
            entry = cache.get(key)
            if entry is None:
                dist = policy.action_distribution(s, ctx, max_nodes)
                legal = np.flatnonzero(dist.mask)
                cum = np.cumsum(dist.probs[legal])
                children = [apply_action(s, dist.actions[i], library, max_nodes) for i in legal]
                entry = (cum, children)
                cache[key] = entry
            cum, children = entry
            pos = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), len(children) - 1)
            s = children[pos]
        counts[canonical_key(s)] += 1
    return {k: c / n_samples for k, c in counts.items()}


def proportional_sampling_check(
    policy: PolicyNetwork,
    library: FragmentLibrary,
    pocket: PocketGraph,
    reward_fn,
    n_samples: int,
    max_nodes: int,
    beta: float,
    seed: int = 0,
) -> float:
    """Total-variation distance between empirical molecule frequencies and
    the reward-proportional target."""
    check_enumeration_guard(library, max_nodes)
    ctx = policy.pocket_context(pocket)
    target = target_distribution(pocket, library, max_nodes, reward_fn, beta)
    empirical = empirical_terminal_distribution(policy, ctx, library, max_nodes, n_samples, seed)
    return total_variation(empirical, target)
