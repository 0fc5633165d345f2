"""Release criteria: one measurement per criterion, and the selfcheck suites.

The public measurement functions return what they measure and assert
nothing. Each suite in ``SUITES`` calls one or more of them and compares the
value against its pinned sizes and tolerance, which are written here and
nowhere else: ``pocketgfn selfcheck`` runs the suites, and the release gate
in ``tests/test_acceptance.py`` asserts each of them. They cover gradient
correctness, geometric invariance, the bias-ablation references,
enumeration-oracle consistency, reward-proportional sampling on the toy
library, checkpoint integrity (including a deliberate-corruption negative
control) and in-process determinism.

Each suite returns (ok, detail).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, finite_diff_check, tensor
from .ligand import (
    AddFragment,
    apply_action,
    automorphism_count,
    backward_transitions,
    desk_library,
    enumerated_space,
    initial_state,
    toy_library,
)
from .nn import CheckpointError, ParamStore, decode_param, encode_param, load_checkpoint, save_checkpoint
from .pocket import build_knn_graph, encode_pocket, random_rotation, synthetic_pocket, transform_residues
from .policy import BASELINE, PolicyConfig, PolicyNetwork
from .rewards import RewardWeights, state_quality
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
    default_reward_fn,
    exact_terminal_distribution,
    proportional_sampling_check,
    target_distribution,
    tb_loss_tensor,
    total_variation,
    train,
    training_store,
)


def small_policy(mode: str = BASELINE) -> PolicyConfig:
    return PolicyConfig(
        mode=mode, width=16, n_layers=1, n_heads=2, frag_emb_dim=4,
        pocket_width=8, pocket_layers=1, trio_layers=1, trio_heads=2,
        trio_head_dim=4, trio_c_pair=8,
    )


# -- shared measurements -------------------------------------------------------

DOCKING_ONLY = RewardWeights(1.0, 0.0, 0.0)  # the reward the rigid-motion and sampling measurements score

# The trioformer measurements run the layout the policy runs: a batch of two
# 3-fragment ligands with different bond graphs, bonds 0-1, 1-2 and 0-1, 0-2.
TWO_LIGAND_ADJACENCY = np.array(
    [[[0, 1, 0], [1, 0, 1], [0, 1, 0]], [[0, 1, 1], [1, 0, 0], [1, 0, 0]]], dtype=np.float64
)


def primitive_cases() -> list[tuple[str, Callable, ad.DiffTensor]]:
    """(name, f, x) per gradient case, checked by finite differences of ``f``
    at ``x``; each is named for its primitive, alone or with a suffix."""
    rng = np.random.default_rng(0)
    x23 = lambda: tensor(rng.normal(size=(2, 3)))
    # operands must be fixed ahead of time: finite differencing requires f deterministic
    c23 = tensor(rng.normal(size=(2, 3)))
    c34 = tensor(rng.normal(size=(3, 4)))
    c32 = tensor(rng.normal(size=(3, 2)))
    # the attention block, 2 heads: 3 queries over 4 keys (cross form) or
    # over themselves (self form, one track and one norm as both inputs, the
    # first 3 keys of the bias and mask); the bias is heads last and
    # broadcasts over the batch, and the mask drops one key of two rows
    att_ops = {
        name: rng.normal(size=shape)
        for name, shape in (("x_q", (2, 3, 4)), ("x_kv", (2, 4, 4)), ("norm_q_gain", (4,)), ("norm_q_bias", (4,)),
                            ("norm_kv_gain", (4,)), ("norm_kv_bias", (4,)), ("w_q", (4, 6)), ("w_k", (4, 6)),
                            ("w_v", (4, 6)), ("w_o", (6, 5)), ("bias", (1, 3, 4, 2)))
    }
    key_mask = np.array([[True, False, True, True], [True, True, True, True], [False, True, True, False]])
    cross_only = ("x_kv", "norm_kv_gain", "norm_kv_bias")

    def attend(wrt, form, masked, arrays=att_ops, tag=""):
        ops = {name: tensor(a if form == "cross" or name != "bias" else a[:, :, :3]) for name, a in arrays.items()}
        mask = (key_mask if form == "cross" else key_mask[:, :3]) if masked else None

        def f(x):
            args = dict(ops, **{wrt: x})
            x_q, norm_q = args["x_q"], (args["norm_q_gain"], args["norm_q_bias"])
            x_kv, norm_kv = x_q, norm_q
            if form == "cross":
                x_kv, norm_kv = args["x_kv"], (args["norm_kv_gain"], args["norm_kv_bias"])
            return ad.attention(x_q, x_kv, norm_q, norm_kv, *(args[k] for k in ("w_q", "w_k", "w_v", "w_o", "bias")),
                                1, mask=mask)

        return f"attention_{form}{tag}_{wrt}{'_masked' if masked else ''}", f, ops[wrt]

    # a two-layer MLP over (2, 3, 4) rows, widths 4 -> 5 -> 3, with and without a norm
    mlp_ops = {
        name: rng.normal(size=shape)
        for name, shape in (("x", (2, 3, 4)), ("norm_gain", (4,)), ("norm_bias", (4,)), ("w0", (4, 5)), ("b0", (5,)),
                            ("w1", (5, 3)), ("b1", (3,)))
    }

    def mlp(wrt, normed):
        ops = {name: tensor(a) for name, a in mlp_ops.items()}

        def f(x):
            args = dict(ops, **{wrt: x})
            norm = (args["norm_gain"], args["norm_bias"]) if normed else None
            return ad.mlp(args["x"], [(args["w0"], args["b0"]), (args["w1"], args["b1"])], norm=norm)

        return f"mlp_{'norm' if normed else 'plain'}_{wrt}", f, ops[wrt]

    checks = [
        ("add", lambda x: ad.add(x, c23), x23()),
        ("mul", lambda x: ad.mul(x, c23), x23()),
        ("matmul", lambda x: ad.matmul(x, c34), x23()),
        ("einsum2", lambda x: ad.einsum2("ij,jk->ik", x, c32), x23()),
        ("softmax_rows", ad.softmax_rows, x23()),
        # a ragged column of unequal rows, one of a single entry
        ("log_softmax_rows", lambda x: ad.log_softmax_rows(x, [0, 2, 3, 6]), tensor(rng.normal(size=(6, 1)))),
        ("layer_norm_rows", ad.layer_norm_rows, x23()),
        ("exp", ad.exp, x23()),
        ("tanh", ad.tanh, x23()),
        ("log", lambda x: ad.log(ad.add(ad.mul(x, x), tensor(np.full((2, 3), 1.5)))), x23()),
        ("sqrt", lambda x: ad.sqrt(ad.add(ad.mul(x, x), tensor(np.full((2, 3), 1.5)))), x23()),
        ("concat", lambda x: ad.concat([x, ad.mul(x, x)], axis=1), x23()),
        ("gather_rows", lambda x: ad.gather_rows(x, np.array([1, 0, 1])), x23()),
        ("mean_rows", ad.mean_rows, x23()),
        ("matmul_track", lambda x: ad.matmul(x, c34), tensor(rng.normal(size=(2, 2, 3)))),
        ("gather_rows_grid", lambda x: ad.gather_rows(x, np.array([[1, 0], [1, 1]])), x23()),
        ("sub", lambda x: ad.sub(x, c23), x23()),
        ("neg", ad.neg, x23()),
        ("scale", lambda x: ad.scale(x, 2.5), x23()),
        ("square", ad.square, x23()),
        ("relu", ad.relu, x23()),
        ("reshape", lambda x: ad.reshape(x, (3, 2)), x23()),
        ("permute", lambda x: ad.permute(x, (2, 0, 1)), tensor(rng.normal(size=(2, 3, 4)))),
        ("sum_all", ad.sum_all, x23()),
    ]
    checks += [
        attend(wrt, form, masked)
        for form in ("self", "cross") for masked in (False, True)
        for wrt in att_ops if form == "cross" or wrt not in cross_only
    ]
    checks += [mlp(wrt, normed) for normed in (False, True) for wrt in mlp_ops if normed or not wrt.startswith("norm")]
    # drawn after the cases above, which keep their inputs; einsum2 takes x
    # twice, so a wrong rule for either operand shows; the keys are cut to 3 wide
    c223 = tensor(rng.normal(size=(2, 2, 3)))
    checks += [
        ("add_broadcast", lambda x: ad.add(c23, x), tensor(rng.normal(size=(3,)))),
        ("sub_subtrahend", lambda x: ad.sub(c23, x), x23()),
        ("matmul_matrix", lambda x: ad.matmul(c23, x), tensor(rng.normal(size=(3, 4)))),
        ("matmul_track_matrix", lambda x: ad.matmul(c223, x), tensor(rng.normal(size=(3, 4)))),
        ("einsum2_batched", lambda x: ad.einsum2("hij,hjc->hic", x, x), tensor(rng.normal(size=(2, 3, 3)))),
        ("softmax_rows_masked", lambda x: ad.softmax_rows(x, mask=key_mask), tensor(rng.normal(size=(3, 4)))),
    ]
    narrow = {k: a[..., :3] if k in cross_only else a[:3] if k in ("w_k", "w_v") else a for k, a in att_ops.items()}
    checks.append(attend("x_kv", "cross", True, narrow, "_narrow_kv"))
    return checks


def primitive_gradient_errors() -> dict[str, float]:
    """Max relative finite-difference error of each case of ``primitive_cases``, by name."""
    return {name: finite_diff_check(f, x).max_rel_err for name, f, x in primitive_cases()}


def conditioning_gradient_errors() -> dict[str, float]:
    """Max relative finite-difference error of one trioformer layer on a
    2-residue pocket and the two-ligand batch, with respect to each node track
    (the shared pocket track and the (2, 3, c) ligand tracks)."""
    rng = np.random.default_rng(1)
    store = ParamStore(np.random.default_rng(2))
    h_p = tensor(rng.normal(size=(2, 6)))
    h_l = tensor(rng.normal(size=(2, 3, 6)))
    d_p = np.abs(rng.normal(size=(2, 2))) + np.abs(rng.normal(size=(2, 2))).T
    np.fill_diagonal(d_p, 0.0)

    def layer(pocket, ligand):
        return trioformer_stack(
            pocket, ligand, d_p, TWO_LIGAND_ADJACENCY, store, prefix="sc", n_layers=1, n_heads=2, head_dim=4, c_pair=8
        )

    return {
        "ligand": finite_diff_check(lambda x: layer(h_p, x), tensor(rng.normal(size=(2, 3, 6)))).max_rel_err,
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
    10-residue pocket, of its node embeddings, distance matrix, the docking
    qualities of the desk molecules of up to 2 fragments, and the trioformer
    output of the two-ligand batch conditioned on it."""
    rng = np.random.default_rng(3)
    residues = synthetic_pocket(10, 3.0, seed=5)
    store = ParamStore(np.random.default_rng(6))
    lib = desk_library()
    molecules = enumerated_space(lib, 2).molecules
    h_l = tensor(rng.normal(size=(2, 3, 8)))

    def measure(graph):
        with Tape():
            emb = encode_pocket(graph, store, L_layers=1, c_pocket=8).node_embeddings.data
            out = trioformer_stack(
                tensor(emb), h_l, graph.dist_matrix, TWO_LIGAND_ADJACENCY,
                store, prefix="inv", n_layers=1, n_heads=2, head_dim=4, c_pair=8,
            ).data
        return emb, graph.dist_matrix, state_quality(graph, molecules, lib, DOCKING_ONLY), out

    base = measure(build_knn_graph(residues))
    drifts = []
    for _ in range(n_motions):
        moved = transform_residues(residues, random_rotation(rng), rng.normal(size=3) * 10.0)
        for a, b in zip(measure(build_knn_graph(moved)), base):
            drifts.append(np.max(np.abs(np.subtract(a, b))) / (np.max(np.abs(b)) + 1e-12))
    return float(np.max(drifts))  # np.max, unlike max(), keeps a NaN


def bias_ablation_deviation() -> float:
    """Max absolute deviation of the triangle updates (both axes) and the
    cross attention (both directions) on the two-ligand batch from their
    plain-attention references, entry by entry, once the learned distance
    bias projections are zeroed and the pair bias is zero."""
    rng = np.random.default_rng(7)
    d = np.abs(rng.normal(size=(4, 4)))  # a 4-residue pocket, so the two pair axes differ in length
    feats = {"pocket": rbf_basis((d + d.T) / 2)[None], "ligand": adjacency_onehot(TWO_LIGAND_ADJACENCY)}
    deviations = []
    for axis in ("pocket", "ligand"):
        store = ParamStore(np.random.default_rng(8))
        pair = tensor(rng.normal(size=(2, 4, 3, 8)))
        with Tape():
            triangle_update(pair, feats[axis], axis, store, "tp", n_heads=2, head_dim=4)
        store["tp.t.w"].data[:] = 0.0
        with Tape():
            out = triangle_update(pair, feats[axis], axis, store, "tp", n_heads=2, head_dim=4)
        w = [store[f"tp.{k}.w"].data for k in "qkvo"]
        deviations += [np.max(np.abs(out.data[b] - reference_pair_attention(pair.data[b], axis, *w, 2, 4))) for b in range(2)]
    store = ParamStore(np.random.default_rng(9))
    h_p = tensor(rng.normal(size=(2, 4, 8)))
    h_l = tensor(rng.normal(size=(2, 3, 8)))
    # both directions with a zero pair bias: ligand over pocket, pocket over ligand
    for prefix, h_q, h_kv in (("x.lig", h_l, h_p), ("x.poc", h_p, h_l)):
        zero_bias = tensor(np.zeros((2, h_q.shape[1], h_kv.shape[1], 2)))
        with Tape():
            out = biased_cross_attention(h_q, h_kv, zero_bias, store, prefix, n_heads=2, head_dim=4)
        w = [store[f"{prefix}.{k}.w"].data for k in "qkvo"]
        for b in range(2):
            deviations.append(np.max(np.abs(out.data[b] - reference_cross_attention(h_q.data[b], h_kv.data[b], *w, 2, 4))))
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

    reward_fn = default_reward_fn(lib, DOCKING_ONLY)
    target = target_distribution(pocket, lib, 2, reward_fn, beta=1.0)
    cfg = TrainerConfig(
        steps=steps, batch_size=8, learning_rate=3e-3, beta=1.0,
        max_nodes=2, seed=12, mode=BASELINE, policy=small_policy(),
    )
    # share the parameter store so the probe policy tracks training live
    store = training_store(cfg)
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
    return all(e < 1e-4 for e in errors.values()), f"{len(errors)} primitive cases vs 1e-4 (worst {name}: {worst:.2e})"


def check_gradient_trioformer() -> tuple[bool, str]:
    errors = conditioning_gradient_errors()
    return all(e < 1e-3 for e in errors.values()), (
        f"one layer vs 1e-3: wrt ligand {errors['ligand']:.2e}, wrt pocket {errors['pocket']:.2e}"
    )


def check_gradient_tb_loss() -> tuple[bool, str]:
    err = tb_loss_gradient_error()
    return err < 1e-6, f"wrt log Z: max rel err {err:.2e} vs 1e-6"


def check_pocket_invariance() -> tuple[bool, str]:
    n_motions = 20
    worst = rigid_motion_drift(n_motions)
    return worst < 1e-6, (
        f"embeddings, distances, docking proxy, conditioning output under {n_motions} rigid motions: "
        f"max rel drift {worst:.2e} vs 1e-6"
    )


def check_bias_ablation() -> tuple[bool, str]:
    worst = bias_ablation_deviation()
    return worst < 1e-10, f"zero-bias triangle + cross attention vs unbiased references: max abs {worst:.2e} vs 1e-10"


def check_enumeration_oracle() -> tuple[bool, str]:
    lib = toy_library()
    space = enumerated_space(lib, 2)
    if len(space.molecules) != 5:
        return False, f"toy library should enumerate 5 molecules at cap 2, got {len(space.molecules)}"
    # uniform backward policy must be a distribution at every nonempty partial state
    partial = [s for states in space.depths[1:] for s in states] + list(space.forced)
    for s in partial:
        total = sum(math.exp(lp) for _, _, lp in backward_transitions(s))
        if abs(total - 1.0) > 1e-12:
            return False, f"backward probs sum to {total} at {s}"
    # symmetric dimer has two automorphisms
    s = apply_action(initial_state(), AddFragment(None, None, 0, 0), lib, 2)
    s = apply_action(s, AddFragment(0, 0, 0, 0), lib, 2)
    if automorphism_count(s) != 2:
        return False, f"symmetric dimer automorphism count {automorphism_count(s)} != 2"
    return True, f"5 molecules, backward sums to 1 over {len(partial)} partial states, symmetry counts agree"


def check_proportional_sampling() -> tuple[bool, str]:
    budget, n_samples, limit, seconds = 600, 100_000, 0.05, 900.0
    t0 = time.monotonic()
    run = proportional_sampling_tv(budget, 0.03, n_samples)
    elapsed = time.monotonic() - t0
    return run.tv < limit and elapsed < seconds, (
        f"TV {run.tv:.4f} vs {limit} with {n_samples} samples after {run.steps} steps of a {budget}-step budget "
        f"(exact-model TV {run.exact_tv:.4f}), {elapsed:.0f}s of {seconds:.0f}s"
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
            if state[name].tobytes() != arr.tobytes():
                return False, f"round trip changed parameter {name}"
        with open(path) as fh:
            doc = json.load(fh)
        values = decode_param(doc["a.w"], "a.w").copy()
        values[0] += 1.0  # corrupt one float, keep a well-formed entry
        doc["a.w"] = encode_param(values)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
        else:
            return False, "corrupted checkpoint loaded without error (checksum not enforced)"
        save_checkpoint(path, store, {"mode": "baseline"})
        with open(path) as fh:
            doc = json.load(fh)
        doc["__meta__"]["mode"] = "trioformer"  # a well-formed meta, not the one saved
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            load_checkpoint(path)
        except CheckpointError:
            return True, "round trip exact; parameter and meta corruption detected by checksum"
        return False, "checkpoint with an edited meta loaded without error (meta not under the checksum)"


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


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in SUITES:
        t0 = time.monotonic()
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed suite is a failed suite
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        results.append((name, ok, f"{detail} [{time.monotonic() - t0:.1f}s]"))
    return results
