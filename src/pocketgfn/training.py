"""Trajectory-balance training and exact sampling oracles.

The sampler is trained so that terminal molecules appear with probability
proportional to reward. Two oracles verify that claim: a dynamic program that
pushes probability mass along every raw trajectory of the policy (exact model
distribution), and an exhaustive reward enumeration (target distribution).
Both are feasible only on deliberately small libraries, which is the point:
correctness is checked where it can be checked exactly.

Both oracles and the Monte-Carlo estimate read one ``ligand.EnumeratedSpace``
(raw states, scored rows, molecules), walked once and cached per (fragment
ids and attachment-point counts, node cap), all that legal actions and
transitions read of a library. A repeated call makes its policy passes and
reward calls and no transitions; the estimate draws with ``sample_action``.

Backward policy and symmetry. The first action picks a fragment, which
enters by its attachment point 0, so a 1-node state has one parent: the
empty state. The fixed backward policy is uniform over removable leaf
fragments (a 1-node state's one fragment included). Under it the total
backward weight of a molecule m sums to 1/|Aut(m)| over its raw forms:
reversed leaf-deletion orders biject with insertion orders, the deletion
walk's probabilities sum to 1, and the walk lands on each raw form of an
Aut-orbit equally often. Training therefore multiplies the reward by the
automorphism count of the terminal raw state, which makes the optimum
sample molecules proportionally to the undecorated reward q^beta.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

import pocketgfn

from . import autodiff as ad
from .autodiff import DiffTensor, Tape
from .files import output_file
from .ligand import (
    STOP,
    EnumeratedSpace,
    FragmentLibrary,
    LigandAction,
    LigandState,
    apply_action,
    automorphism_count,
    enumerated_space,
    initial_state,
    step_backward_log_prob,
    stop_is_forced,
)
from .nn import Adam, ParamStore, save_checkpoint
from .pocket import PocketContext, PocketGraph
from .policy import (
    BASELINE,
    TRIOFORMER,
    ActionDistribution,
    PolicyConfig,
    PolicyNetwork,
    sample_action,
)
from .rewards import DEFAULT_WEIGHTS, RewardWeights, state_quality


class TrainingError(RuntimeError):
    pass


# the variables that set a BLAS's thread count when it cannot be set in-process
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_setting() -> dict:
    """numpy's BLAS library and the thread-count variables that are set:
    what checkpoint bytes depend on where the BLAS could not be pinned to one
    thread at import."""
    try:
        library = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (KeyError, TypeError, AttributeError):
        library = None
    return {"library": library, "thread_env": {k: os.environ[k] for k in BLAS_THREAD_ENV if k in os.environ}}


@dataclass
class Trajectory:
    states: list[LigandState]
    actions: list[LigandAction]


@dataclass
class TrainerConfig:
    """The training settings, each checked here and nowhere else; a bad one
    raises a ``TrainingError`` naming its field."""

    steps: int
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta: float = 4.0
    max_nodes: int = 8
    seed: int = 0
    mode: str = BASELINE
    policy: PolicyConfig | None = None

    def __post_init__(self):
        def expect(ok, name, msg):
            if not ok:
                raise TrainingError(f"config field {name!r}: {msg}, got {getattr(self, name)!r}")

        for name, low in (("steps", 0), ("batch_size", 1), ("max_nodes", 1), ("seed", 0)):
            # type(), not isinstance: True is an int and would pass as 1
            value = getattr(self, name)
            expect(type(value) is int and value >= low, name, f"must be an integer >= {low}")
        for name in ("learning_rate", "beta"):
            value = getattr(self, name)
            is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
            # an integer beyond the largest float compares above it, so it is refused too
            expect(is_number and 0 < value <= sys.float_info.max, name, "must be a positive finite number")
        expect(self.mode in (BASELINE, TRIOFORMER), "mode", f"must be {BASELINE!r} or {TRIOFORMER!r}")
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


def default_reward_fn(library: FragmentLibrary, weights: RewardWeights = DEFAULT_WEIGHTS):
    """A reward function: the blended quality of a list of terminal states in
    one pocket, as one column; ``train`` calls it once per pocket per step."""
    def fn(pocket: PocketGraph, states: list[LigandState]) -> np.ndarray:
        return state_quality(pocket, states, library, weights)

    return fn


def sample_trajectories(
    policy: PolicyNetwork,
    ctxs: dict[str, PocketContext],
    pocket_ids: Sequence[str],
    rngs: Sequence[np.random.Generator],
    max_nodes: int,
    library: FragmentLibrary,
) -> tuple[list[Trajectory], DiffTensor, np.ndarray]:
    """Roll one trajectory per (pocket id, rng) pair in lockstep, from the
    empty state until Stop (the node cap forces it), each drawing only from
    its own rng. Each round advances every live trajectory by one action;
    all live states then have the round's node count, so those of one pocket
    are scored in one policy pass, whose drawn rows are taken from its
    (R, 1) log-probability column with one gather. A forced Stop gets no
    pass and no entry (its log-probability is exactly 0). Returns the
    trajectories, the drawn log-probabilities as one (N, 1) column, recorded
    under an active tape, and the (N,) index of the trajectory that owns
    each entry."""
    trajs = [Trajectory(states=[initial_state()], actions=[]) for _ in pocket_ids]

    def advance(traj: Trajectory, action: LigandAction) -> None:
        traj.states.append(apply_action(traj.states[-1], action, library, max_nodes))
        traj.actions.append(action)

    columns, owners = [], []
    live = list(range(len(trajs)))
    while live:
        by_pocket: dict[str, list[int]] = defaultdict(list)
        for i in live:
            if stop_is_forced(trajs[i].states[-1], library, max_nodes):
                advance(trajs[i], STOP)
            else:
                by_pocket[pocket_ids[i]].append(i)
        for pid in sorted(by_pocket):
            members = by_pocket[pid]
            dist = policy.action_distribution([trajs[i].states[-1] for i in members], ctxs[pid], max_nodes)
            drawn = []
            for b, i in enumerate(members):
                action, row = sample_action(dist, rngs[i], b)
                advance(trajs[i], action)
                drawn.append(row)
            columns.append(ad.gather_rows(dist.log_probs, drawn))
            owners += members
        live = [i for i in live if not trajs[i].states[-1].terminal]
    return trajs, ad.concat(columns, axis=0), np.array(owners, dtype=np.intp)


def sample_trajectory(
    policy: PolicyNetwork,
    ctx: PocketContext,
    pocket_id: str,
    rng: np.random.Generator,
    max_nodes: int,
    library: FragmentLibrary,
) -> Trajectory:
    """One trajectory: the batch of one of :func:`sample_trajectories`."""
    return sample_trajectories(policy, {pocket_id: ctx}, [pocket_id], [rng], max_nodes, library)[0][0]


def trajectory_backward_log_prob(states: list[LigandState]) -> float:
    """Sum of fixed-backward-policy log-probs along a trajectory.

    The stop transition has a unique parent and contributes zero; each growth
    transition is scored at its child state.
    """
    total = 0.0
    for child in states[1:]:
        if child.terminal:
            continue
        total += step_backward_log_prob(child)
    return total


def shaped_log_reward(quality: float, terminal: LigandState, beta: float) -> float:
    if not quality > 0:
        raise TrainingError(f"reward must be positive, got quality {quality}")
    return beta * math.log(quality) + math.log(automorphism_count(terminal))


def tb_loss_tensor(log_z: DiffTensor, log_pf_sum: DiffTensor, log_reward, log_pb_sum) -> DiffTensor:
    """Squared balance gaps (log Z + sum log_pf - log R - sum log_pb)^2 of T
    trajectories, (T, 1): ``log_z`` and ``log_pf_sum`` are (T, 1) columns, and
    ``log_reward`` and ``log_pb_sum`` constant floats (T = 1) or length-T arrays."""
    shift = ad.constant(-(np.asarray(log_reward, dtype=np.float64) + log_pb_sum).reshape(-1, 1))
    return ad.square(ad.add(ad.add(log_z, log_pf_sum), shift))


def _materialize_params(policy: PolicyNetwork, ctx: PocketContext, library: FragmentLibrary, max_nodes: int) -> None:
    # lazily created parameters must all exist before checkpointing or Adam;
    # one pass on the empty state plus one on a 1-node state touches every head
    s0 = initial_state()
    dist = policy.action_distribution(s0, ctx, max_nodes)
    s1 = apply_action(s0, dist.actions[0], library, max_nodes)
    policy.action_distribution(s1, ctx, max_nodes)
    policy.log_z(ctx)


def training_store(config: TrainerConfig) -> ParamStore:
    """The store ``train`` makes when given none; a caller probing it live makes it here."""
    return ParamStore(np.random.default_rng([config.seed, 7]))


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

    Per step: roll the batch in lockstep under a tape, one policy pass per
    depth and pocket drawn, score each pocket's terminal states with one
    ``reward_fn(pocket, states)`` call (``default_reward_fn`` when none is
    given), and take one update on the batch mean of
    ``tb_loss_tensor``, built as one column expression: a 0/1 (T, N) segment
    matrix times the rollout's drawn column sums each trajectory's log P_F,
    and its log Z is gathered from the per-pocket column. Trajectory ``idx``
    of step ``step`` runs on sorted pocket ``(step * batch_size + idx) %
    len(pockets)``, so every pocket is trained whatever the batch size, and
    draws from its own RNG stream (seed, step, idx). Metrics rows go to
    ``metrics_path`` as JSON lines (a failed write raises ``OutputFileError``
    naming it). A non-finite loss, gradient or updated parameter aborts with
    a ``TrainingError`` naming the step (and the parameter). ``stop_fn(row)``
    returning True ends training early. The checkpoint meta records the
    policy config, so the checkpoint can be rebuilt for sampling; where
    importing the package could not pin the BLAS to one thread, it also
    records ``blas_setting()``, the only setting under which the checkpoint
    bytes are reproducible.
    """
    if not pockets:
        raise TrainingError("need at least one pocket")
    if reward_fn is None:
        reward_fn = default_reward_fn(library)
    if store is None:
        store = training_store(config)
    policy = PolicyNetwork(store, library, config.policy)
    pocket_ids = sorted(pockets)
    _materialize_params(policy, policy.pocket_context(pockets[pocket_ids[0]]), library, config.max_nodes)

    optimizer = Adam(store, lr=config.learning_rate)
    metrics: list[dict] = []
    steps_run = 0
    with output_file(metrics_path) if metrics_path else nullcontext() as sink:
        for step in range(config.steps):
            drawn = [pocket_ids[(step * config.batch_size + idx) % len(pocket_ids)]
                     for idx in range(config.batch_size)]
            with Tape():
                ctxs = {pid: policy.pocket_context(pockets[pid]) for pid in sorted(set(drawn))}
                log_z = {pid: policy.log_z(c) for pid, c in ctxs.items()}
                batch, log_pf, owner = sample_trajectories(
                    policy, ctxs, drawn,
                    [np.random.default_rng([config.seed, step, idx]) for idx in range(config.batch_size)],
                    config.max_nodes, library,
                )
                terminals = [t.states[-1] for t in batch]
                quality = np.empty(len(batch))
                for pid in ctxs:
                    rows = [idx for idx, p in enumerate(drawn) if p == pid]
                    quality[rows] = reward_fn(pockets[pid], [terminals[idx] for idx in rows])
                log_r = [shaped_log_reward(q, s, config.beta) for q, s in zip(quality.tolist(), terminals)]
                segments = ad.constant(np.arange(len(batch))[:, None] == owner)
                log_z_col = ad.gather_rows(ad.concat(list(log_z.values()), axis=0), [list(log_z).index(p) for p in drawn])
                log_pb = [trajectory_backward_log_prob(t.states) for t in batch]
                losses = tb_loss_tensor(log_z_col, ad.matmul(segments, log_pf), log_r, log_pb)
                total = ad.scale(ad.sum_all(losses), 1.0 / len(batch))
                loss_value = total.data.item()
                if not math.isfinite(loss_value):
                    raise TrainingError(f"training diverged: loss {loss_value} at step {step}")
                ad.backward(total)
            for name, p in store.items():
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise TrainingError(f"training diverged: non-finite gradient of {name} at step {step}")
            optimizer.step()
            for name, p in store.items():
                if not np.isfinite(p.data).all():
                    raise TrainingError(f"training diverged: non-finite parameter {name} after the update at step {step}")
            store.zero_grads()

            row = {
                "step": step,
                "loss": loss_value,
                "mean_reward": float(np.mean([math.exp(r) for r in log_r])),
                "log_Z_mean": float(np.mean([v.data[0, 0] for v in log_z.values()])),
            }
            metrics.append(row)
            steps_run = step + 1
            if sink:
                sink.write(json.dumps(row) + "\n")
            if stop_fn is not None and stop_fn(row):
                break

    if checkpoint_path:
        meta = {
            "mode": config.mode,
            "seed": config.seed,
            "beta": config.beta,
            "max_nodes": config.max_nodes,
            "steps_trained": steps_run,
            "attachment_counts": [list(pair) for pair in library.attachment_counts],
            "policy": asdict(config.policy),
        }
        if not pocketgfn.BLAS_PINNED:
            meta["blas"] = blas_setting()
        if extra_meta:
            meta.update(extra_meta)
        save_checkpoint(checkpoint_path, store, meta)
    return TrainResult(store=store, policy=policy, metrics=metrics, steps_run=steps_run)


# -- oracles -----------------------------------------------------------------


def _space_passes(
    policy: PolicyNetwork, ctx: PocketContext, library: FragmentLibrary, max_nodes: int
) -> tuple[EnumeratedSpace, list[ActionDistribution]]:
    """The cached space and one policy pass per depth, scoring all its states."""
    space = enumerated_space(library, max_nodes)
    return space, [policy.action_distribution(list(states), ctx, max_nodes) for states in space.depths]


def exact_terminal_distribution(
    policy: PolicyNetwork, ctx: PocketContext, library: FragmentLibrary, max_nodes: int
) -> dict[str, float]:
    """Exact model distribution over molecules (canonical keys).

    Pushing each state's mass through its action probabilities, depth by
    depth, reaches every raw state once, by its one action sequence;
    terminal mass is pooled by molecule. The states come from the cached
    space, so a call makes one policy pass per depth and no transitions.
    Each row's mass is the product of its state's mass and its probability,
    and a molecule's total adds its rows in walk order.
    """
    space, dists = _space_passes(policy, ctx, library, max_nodes)
    mass = np.ones(1)
    row_mass = []
    for dist, mol in zip(dists, space.row_mol):
        rows = np.repeat(mass, np.diff(dist.offsets)) * dist.probs
        row_mass.append(rows)
        mass = rows[mol < 0]  # the next depth's states, in row order
    mol = np.concatenate(space.row_mol)
    ends = mol >= 0
    total = np.bincount(mol[ends], weights=np.concatenate(row_mass)[ends], minlength=len(space.keys))
    return {space.keys[m]: total[m] for m in space.first_seen}


def target_distribution(
    pocket: PocketGraph, library: FragmentLibrary, max_nodes: int, reward_fn, beta: float
) -> dict[str, float]:
    """Reward-proportional distribution q^beta / Z over all molecules, each
    scored once in its canonical form, in sorted key order."""
    space = enumerated_space(library, max_nodes)
    raw = {}
    for key, q in zip(space.keys, np.asarray(reward_fn(pocket, list(space.molecules))).tolist()):
        if not q > 0:
            raise TrainingError(f"reward must be positive, got {q}")
        raw[key] = q**beta
    z = sum(raw.values())
    return {k: v / z for k, v in raw.items()}


def total_variation(p: dict[str, float], q: dict[str, float]) -> float:
    # fsum is correctly rounded, so the set's hash order cannot change the sum
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def empirical_terminal_distribution(
    policy: PolicyNetwork, ctx: PocketContext, library: FragmentLibrary, max_nodes: int, n_samples: int
) -> dict[str, float]:
    """Monte Carlo estimate of the terminal distribution over the molecules
    drawn: the exact oracle's passes, each step drawn with ``sample_action``.
    A row ends in its molecule or leads to its child at the next depth, so a
    forced Stop takes no draw."""
    space, dists = _space_passes(policy, ctx, library, max_nodes)
    child = [np.cumsum(mol < 0) - 1 for mol in space.row_mol]  # row -> next-depth state
    rng = np.random.default_rng([0, 104729])
    counts = np.zeros(len(space.keys), dtype=np.intp)
    for _ in range(n_samples):
        d, b = 0, 0
        while True:
            _, row = sample_action(dists[d], rng, b)
            m = space.row_mol[d][row]
            if m >= 0:
                break
            d, b = d + 1, child[d][row]
        counts[m] += 1
    return {space.keys[m]: counts[m] / n_samples for m in space.first_seen if counts[m]}


def proportional_sampling_check(
    policy: PolicyNetwork,
    library: FragmentLibrary,
    pocket: PocketGraph,
    reward_fn,
    n_samples: int,
    max_nodes: int,
    beta: float,
) -> float:
    """Total-variation distance between empirical molecule frequencies and
    the reward-proportional target."""
    target = target_distribution(pocket, library, max_nodes, reward_fn, beta)
    ctx = policy.pocket_context(pocket)
    empirical = empirical_terminal_distribution(policy, ctx, library, max_nodes, n_samples)
    return total_variation(empirical, target)
