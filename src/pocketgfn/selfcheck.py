"""Release criteria: one measurement per criterion, and the selfcheck suites.

The public measurement functions return what they measure and assert
nothing; the suites below and the release gate in ``tests/test_acceptance.py``
both call them and compare the value against their own pinned tolerance and
sample size. They cover the load-bearing guarantees: gradient correctness,
geometric invariance, the bias-ablation references and reward-proportional
sampling on the toy library. Enumeration-oracle consistency, checkpoint
integrity (including a deliberate-corruption negative control) and in-process
determinism are selfcheck-only suites.

Each suite returns (ok, detail).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, finite_diff_check, tensor
from .ligand import (
    AddFragment,
    STOP,
    apply_action,
    automorphism_count,
    backward_transitions,
    desk_library,
    enumerate_terminal_states,
    initial_state,
    legal_actions,
    toy_library,
)
from .nn import CheckpointError, ParamStore, load_checkpoint, save_checkpoint
from .pocket import build_knn_graph, encode_pocket, random_rotation, synthetic_pocket, transform_residues
from .policy import BASELINE, PolicyConfig, PolicyNetwork
from .rewards import docking_proxy
from .trioformer import (
    biased_cross_attention,
    reference_cross_attention,
    reference_pair_attention,
    rbf_basis,
    adjacency_onehot,
    triangle_update,
    trioformer_stack,
)
from .training import (
    TrainerConfig,
    exact_terminal_distribution,
    proportional_sampling_check,
    target_distribution,
    tb_loss_tensor,
    total_variation,
    train,
)


def small_policy(mode: str = BASELINE) -> PolicyConfig:
    return PolicyConfig(
        mode=mode, width=16, n_layers=1, n_heads=2, frag_emb_dim=4,
        pocket_width=8, pocket_layers=1, trio_layers=1, trio_heads=2,
        trio_head_dim=4, trio_c_pair=8,
    )


# -- shared measurements -------------------------------------------------------


def primitive_gradient_errors() -> dict[str, float]:
    """Max relative finite-difference error of each tape primitive, by name."""
    rng = np.random.default_rng(0)
    x23 = lambda: tensor(rng.normal(size=(2, 3)))
    # operands must be fixed ahead of time: finite differencing requires f deterministic
    c23 = tensor(rng.normal(size=(2, 3)))
    c34 = tensor(rng.normal(size=(3, 4)))
    c32 = tensor(rng.normal(size=(3, 2)))
    checks = [
        ("add", lambda x: ad.add(x, c23), x23()),
        ("mul", lambda x: ad.mul(x, c23), x23()),
        ("matmul", lambda x: ad.matmul(x, c34), x23()),
        ("einsum2", lambda x: ad.einsum2("ij,jk->ik", x, c32), x23()),
        ("softmax", ad.softmax_rows, x23()),
        ("log_softmax", ad.log_softmax_rows, x23()),
        ("layer_norm", ad.layer_norm_rows, x23()),
        ("exp", ad.exp, x23()),
        ("tanh", ad.tanh, x23()),
        ("log", lambda x: ad.log(ad.add(ad.mul(x, x), tensor(np.full((2, 3), 1.5)))), x23()),
        ("sqrt", lambda x: ad.sqrt(ad.add(ad.mul(x, x), tensor(np.full((2, 3), 1.5)))), x23()),
        ("concat", lambda x: ad.concat([x, ad.mul(x, x)], axis=1), x23()),
        ("gather", lambda x: ad.gather_rows(x, np.array([1, 0, 1])), x23()),
        ("mean_rows", ad.mean_rows, x23()),
    ]
    return {name: finite_diff_check(f, x).max_rel_err for name, f, x in checks}


def conditioning_gradient_errors() -> dict[str, float]:
    """Max relative finite-difference error of one trioformer layer on a
    2-residue pocket and a 2-node ligand, with respect to each node track."""
    rng = np.random.default_rng(1)
    store = ParamStore(np.random.default_rng(2))
    h_p = tensor(rng.normal(size=(2, 6)))
    h_l = tensor(rng.normal(size=(2, 6)))
    d_p = np.abs(rng.normal(size=(2, 2))) + np.abs(rng.normal(size=(2, 2))).T
    np.fill_diagonal(d_p, 0.0)
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])

    def layer(pocket, ligand):
        return trioformer_stack(pocket, ligand, d_p, adj, store, prefix="sc", n_layers=1, n_heads=2, head_dim=4, c_pair=8)

    return {
        "ligand": finite_diff_check(lambda x: layer(h_p, x), tensor(rng.normal(size=(2, 6)))).max_rel_err,
        "pocket": finite_diff_check(lambda x: layer(x, h_l), tensor(rng.normal(size=(2, 6)))).max_rel_err,
    }


def tb_loss_gradient_error() -> float:
    """Max relative finite-difference error of the balance loss with respect to log Z."""
    log_pf = tensor(np.array([[math.log(0.3)]]))

    def f(log_z):
        return tb_loss_tensor(log_z, log_pf, math.log(2.5), -math.log(2.0))

    return finite_diff_check(f, tensor(np.array([[0.4]]))).max_rel_err


def rigid_motion_drift(n_motions: int) -> float:
    """Worst relative drift, over random rotations and translations of a
    10-residue pocket, of its node embeddings, distance matrix, docking proxy
    and the trioformer output conditioned on it."""
    rng = np.random.default_rng(3)
    residues = synthetic_pocket(10, 3.0, seed=5)
    store = ParamStore(np.random.default_rng(6))
    lib = desk_library()
    term = apply_action(apply_action(initial_state(), AddFragment(None, None, 2, 0), lib, 4), STOP, lib, 4)
    h_l = tensor(rng.normal(size=(3, 8)))
    adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])

    def measure(graph):
        with Tape():
            emb = encode_pocket(graph, store, L_layers=1, c_pocket=8).node_embeddings.data
            out = trioformer_stack(
                tensor(emb), h_l, graph.dist_matrix, adj,
                store, prefix="inv", n_layers=1, n_heads=2, head_dim=4, c_pair=8,
            ).data
        return emb, graph.dist_matrix, docking_proxy(graph, term, lib), out

    base = measure(build_knn_graph(residues))
    drifts = []
    for _ in range(n_motions):
        moved = transform_residues(residues, random_rotation(rng), rng.normal(size=3) * 10.0)
        for a, b in zip(measure(build_knn_graph(moved)), base):
            drifts.append(np.max(np.abs(np.subtract(a, b))) / (np.max(np.abs(b)) + 1e-12))
    return float(np.max(drifts))  # np.max, unlike max(), keeps a NaN


def bias_ablation_deviation() -> float:
    """Max absolute deviation of the triangle updates (both axes) and the
    cross attention from their plain-attention references once the learned
    bias projections are zeroed."""
    rng = np.random.default_rng(7)
    deviations = []
    for axis, n_p, n_l in (("pocket", 3, 4), ("ligand", 3, 4)):
        store = ParamStore(np.random.default_rng(8))
        pair = tensor(rng.normal(size=(n_p, n_l, 8)))
        n_axis = n_p if axis == "pocket" else n_l
        if axis == "pocket":
            d = np.abs(rng.normal(size=(n_axis, n_axis)))
            feats = rbf_basis((d + d.T) / 2)
        else:
            feats = adjacency_onehot((np.ones((n_axis, n_axis)) - np.eye(n_axis)))
        with Tape():
            triangle_update(pair, feats, axis, store, "tp", n_heads=2, head_dim=4)
        store["tp.t.w"].data[:] = 0.0
        with Tape():
            out = triangle_update(pair, feats, axis, store, "tp", n_heads=2, head_dim=4)
        ref = reference_pair_attention(
            pair.data, axis, store["tp.q.w"].data, store["tp.k.w"].data,
            store["tp.v.w"].data, store["tp.o.w"].data, 2, 4,
        )
        deviations.append(np.max(np.abs(out.data - ref)))
    store = ParamStore(np.random.default_rng(9))
    h_p = tensor(rng.normal(size=(3, 8)))
    h_l = tensor(rng.normal(size=(2, 8)))
    pair = tensor(rng.normal(size=(3, 2, 8)))
    with Tape():
        biased_cross_attention(h_p, h_l, pair, store, "x", n_heads=2, head_dim=4)
    store["x.bias.w"].data[:] = 0.0
    with Tape():
        new_p, new_l = biased_cross_attention(h_p, h_l, pair, store, "x", n_heads=2, head_dim=4)
    ref_l = reference_cross_attention(
        h_l.data, h_p.data, store["x.lig.q.w"].data, store["x.lig.k.w"].data,
        store["x.lig.v.w"].data, store["x.lig.o.w"].data, 2, 4,
    )
    ref_p = reference_cross_attention(
        h_p.data, h_l.data, store["x.poc.q.w"].data, store["x.poc.k.w"].data,
        store["x.poc.v.w"].data, store["x.poc.o.w"].data, 2, 4,
    )
    deviations += [np.max(np.abs(new_l.data - ref_l)), np.max(np.abs(new_p.data - ref_p))]
    return float(np.max(deviations))


class SamplingRun(NamedTuple):
    tv: float  # empirical TV to the reward-proportional target
    steps: int
    exact_tv: float  # exact-model TV at the last probe


def proportional_sampling_tv(steps: int, stop_tv: float, n_samples: int) -> SamplingRun:
    """Train the small baseline policy on the toy library (cap 2, beta 1) for
    at most ``steps`` steps, stopping once the exact TV to the target drops
    below ``stop_tv`` (probed every 25 steps), then measure the empirical TV
    of ``n_samples`` draws."""
    lib = toy_library()
    pocket = build_knn_graph(synthetic_pocket(6, 2.0, seed=3), K=4)

    def reward_fn(p, s):
        return docking_proxy(p, s, lib)

    target = target_distribution(pocket, lib, 2, reward_fn, beta=1.0)
    cfg = TrainerConfig(
        steps=steps, batch_size=8, learning_rate=3e-3, beta=1.0,
        max_nodes=2, seed=12, mode=BASELINE, policy=small_policy(),
    )
    # share the parameter store so the probe policy tracks training live
    store = ParamStore(np.random.default_rng([cfg.seed, 7]))
    probe = PolicyNetwork(store, lib, cfg.policy)
    exact_tvs = [math.nan]

    def stop_fn(row):
        if row["step"] % 25 != 24:
            return False
        # training moves the pocket encoder too, so the context is rebuilt each probe
        exact = exact_terminal_distribution(probe, probe.pocket_context(pocket), lib, 2)
        exact_tvs.append(total_variation(exact, target))
        return exact_tvs[-1] < stop_tv

    result = train(cfg, lib, {"p": pocket}, reward_fn=reward_fn, store=store, stop_fn=stop_fn)
    tv = proportional_sampling_check(result.policy, lib, pocket, reward_fn, n_samples, max_nodes=2, beta=1.0)
    return SamplingRun(tv=tv, steps=result.steps_run, exact_tv=exact_tvs[-1])


def worst_error(errors: dict[str, float]) -> tuple[str, float]:
    """The name and value of the largest error, for reports; a NaN ranks first."""
    return max(errors.items(), key=lambda kv: math.inf if math.isnan(kv[1]) else kv[1])


# -- suites --------------------------------------------------------------------


def check_gradient_primitives() -> tuple[bool, str]:
    errors = primitive_gradient_errors()
    name, worst = worst_error(errors)
    return all(e < 1e-4 for e in errors.values()), f"{len(errors)} primitives vs 1e-4 (worst {name}: {worst:.2e})"


def check_gradient_trioformer() -> tuple[bool, str]:
    errors = conditioning_gradient_errors()
    return all(e < 1e-3 for e in errors.values()), (
        f"one layer vs 1e-3: wrt ligand {errors['ligand']:.2e}, wrt pocket {errors['pocket']:.2e}"
    )


def check_gradient_tb_loss() -> tuple[bool, str]:
    err = tb_loss_gradient_error()
    return err < 1e-6, f"wrt log Z: max rel err {err:.2e} vs 1e-6"


def check_pocket_invariance() -> tuple[bool, str]:
    worst = rigid_motion_drift(5)
    return worst < 1e-6, (
        f"embeddings, distances, docking proxy, conditioning output under 5 rigid motions: "
        f"max rel drift {worst:.2e} vs 1e-6"
    )


def check_bias_ablation() -> tuple[bool, str]:
    worst = bias_ablation_deviation()
    return worst < 1e-10, f"zero-bias triangle + cross attention vs unbiased references: max abs {worst:.2e} vs 1e-10"


def check_enumeration_oracle() -> tuple[bool, str]:
    lib = toy_library()
    states = enumerate_terminal_states(lib, 2)
    if len(states) != 5:
        return False, f"toy library should enumerate 5 molecules at cap 2, got {len(states)}"
    # uniform backward policy must be a distribution at every reachable state
    frontier = [initial_state()]
    seen = set()
    while frontier:
        s = frontier.pop()
        for a in legal_actions(s, lib, 2):
            child = apply_action(s, a, lib, 2)
            key = (child.nodes, child.edges, child.terminal)
            if key in seen:
                continue
            seen.add(key)
            if child.n >= 1 and not child.terminal:
                total = sum(math.exp(lp) for _, _, lp in backward_transitions(child, lib))
                if abs(total - 1.0) > 1e-12:
                    return False, f"backward probs sum to {total} at {child}"
            frontier.append(child)
    # symmetric dimer has two automorphisms
    s = apply_action(initial_state(), AddFragment(None, None, 0, 0), lib, 2)
    s = apply_action(s, AddFragment(0, 0, 0, 0), lib, 2)
    if automorphism_count(s) != 2:
        return False, f"symmetric dimer automorphism count {automorphism_count(s)} != 2"
    return True, f"5 molecules, backward sums to 1 over {len(seen)} states, symmetry counts agree"


def check_proportional_sampling(fast: bool = False) -> tuple[bool, str]:
    n_samples = 5000 if fast else 20000
    run = proportional_sampling_tv(150 if fast else 600, 0.04, n_samples)
    limit = 0.12 if fast else 0.08
    return run.tv < limit, (
        f"TV {run.tv:.4f} vs {limit} with {n_samples} samples after {run.steps} steps "
        f"(exact-model TV {run.exact_tv:.4f})"
    )


def check_checkpoint_integrity() -> tuple[bool, str]:
    store = ParamStore(np.random.default_rng(10))
    store.param("a.w", (3, 2))
    store.param("b.b", (4,))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.json")
        save_checkpoint(path, store, {"mode": "baseline"})
        state, meta = load_checkpoint(path)
        for name, arr in store.state_arrays().items():
            if not np.array_equal(state[name], arr):
                return False, f"round trip changed parameter {name}"
        with open(path) as fh:
            doc = json.load(fh)
        doc["a.w"]["data"][0] += 1.0  # corrupt one entry, keep valid JSON
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            load_checkpoint(path)
        except CheckpointError:
            return True, "round trip exact; corruption detected by checksum"
        return False, "corrupted checkpoint loaded without error (checksum not enforced)"


def check_determinism() -> tuple[bool, str]:
    lib = toy_library()
    pocket = {"p": build_knn_graph(synthetic_pocket(6, 2.0, seed=3), K=4)}
    cfg = lambda: TrainerConfig(steps=3, batch_size=4, max_nodes=2, seed=21, policy=small_policy())
    r1 = train(cfg(), lib, pocket)
    r2 = train(cfg(), lib, pocket)
    if r1.metrics != r2.metrics:
        return False, "same seed produced different metrics"
    for name in r1.store.names():
        if not np.array_equal(r1.store.state_arrays()[name], r2.store.state_arrays()[name]):
            return False, f"same seed produced different parameter {name}"
    return True, "3-step training reproduces metrics and parameters bit for bit"


SUITES = [
    ("gradient-primitives", check_gradient_primitives),
    ("gradient-trioformer", check_gradient_trioformer),
    ("gradient-tb-loss", check_gradient_tb_loss),
    ("pocket-invariance", check_pocket_invariance),
    ("bias-ablation", check_bias_ablation),
    ("enumeration-oracle", check_enumeration_oracle),
    ("proportional-sampling", check_proportional_sampling),
    ("checkpoint-integrity", check_checkpoint_integrity),
    ("determinism", check_determinism),
]


def run_all(fast: bool = False) -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in SUITES:
        t0 = time.monotonic()
        try:
            if fn is check_proportional_sampling:
                ok, detail = fn(fast=fast)
            else:
                ok, detail = fn()
        except Exception as e:  # a crashed suite is a failed suite
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        results.append((name, ok, f"{detail} [{time.monotonic() - t0:.1f}s]"))
    return results
