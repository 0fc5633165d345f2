"""Release gate: one test per shipping criterion, one printed verdict each.

Every test ends by printing a single [PASS]/[FAIL] line (written to the real
stdout so it survives pytest capture) with the measured value next to the
pinned tolerance. The first nine are the ``pocketgfn.selfcheck`` suites, whose
sizes and tolerances are pinned there and only there; the rest are gate-only
criteria. Failures here mean the library is not fit to ship, not that a unit
regressed; the per-module suites are the place to localize breakage.
"""

import json

import numpy as np
import pytest

from pocketgfn import selfcheck
from pocketgfn.autodiff import Tape, tensor
from pocketgfn.cli import DATA_DIR, main
from pocketgfn.ligand import (
    AddFragment,
    apply_action,
    desk_library,
    enumerated_space,
    initial_state,
    toy_library,
)
from pocketgfn.nn import ParamStore
from pocketgfn.pocket import build_knn_graph, load_pocket_jsonl, radius_of_gyration, synthetic_pocket
from pocketgfn.policy import PolicyNetwork
from pocketgfn.rewards import (
    RewardWeights,
    combined_quality,
    diversity,
    tanimoto_distance,
    top_k_mean,
)
from pocketgfn.selfcheck import small_policy
from pocketgfn.trioformer import pool_graph_embedding
from pocketgfn.training import (
    TrainerConfig,
    default_reward_fn,
    exact_terminal_distribution,
    total_variation,
    train,
    training_store,
)

import rewards_reference


RESULTS: list[str] = []


def _report(name: str, ok: bool, detail: str) -> None:
    # collected by conftest's terminal-summary hook so the verdicts survive capture
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    RESULTS.append(line)
    print(line)


# ---------------------------------------------------------------------------
# 1-9. the selfcheck suites, each at the sizes and tolerance pinned there
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, check", selfcheck.SUITES, ids=[name for name, _ in selfcheck.SUITES])
def test_selfcheck_suite(name, check):
    ok, detail = check()
    _report(name, ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 10. conditioning is live: different pockets give different samplers
# ---------------------------------------------------------------------------

def test_pocket_conditioning_changes_sampling_distribution():
    lib = toy_library()
    pockets = {
        "compact": load_pocket_jsonl(str(DATA_DIR / "pocket_compact.jsonl")),
        "wide": load_pocket_jsonl(str(DATA_DIR / "pocket_wide.jsonl")),
    }
    rgs = {pid: radius_of_gyration(np.stack([r.ca for r in res])) for pid, res in pockets.items()}
    assert max(rgs.values()) >= 2.0 * min(rgs.values()), f"pockets too similar: {rgs}"
    graphs = {pid: build_knn_graph(res) for pid, res in pockets.items()}

    reward_fn = default_reward_fn(lib, RewardWeights(1.0, 0.0, 0.0))
    cfg = TrainerConfig(
        steps=2_000, batch_size=8, learning_rate=3e-3, beta=1.0,
        max_nodes=2, seed=12, mode="trioformer", policy=small_policy("trioformer"),
    )
    store = training_store(cfg)
    probe = PolicyNetwork(store, lib, cfg.policy)

    def separation() -> float:
        # contexts come from the live store: training moves the pocket encoder too
        exact = {pid: exact_terminal_distribution(probe, probe.pocket_context(g), lib, 2)
                 for pid, g in graphs.items()}
        return total_variation(exact["compact"], exact["wide"])

    def stop_fn(row):
        return row["step"] % 25 == 24 and separation() > 0.2

    result = train(cfg, lib, graphs, reward_fn=reward_fn, store=store, stop_fn=stop_fn)
    sep = separation()
    ok = sep > 0.1
    _report(
        "conditioning liveness",
        ok,
        f"exact sampling distributions for pockets with Rg {rgs['compact']:.1f} vs "
        f"{rgs['wide']:.1f} differ by TV {sep:.4f} vs floor 0.1 "
        f"({result.steps_run} steps, geometry-aware mode)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 11. metrics agree with brute force on random inputs
# ---------------------------------------------------------------------------

def test_metrics_agree_with_brute_force():
    rng = np.random.default_rng(42)
    lib = desk_library()
    pool = enumerated_space(lib, 2).molecules
    assert len(pool) >= 10

    for _ in range(100):
        n = int(rng.integers(1, 257))
        a = rng.integers(0, 2, size=n)
        b = rng.integers(0, 2, size=n)
        assert abs(tanimoto_distance(a, b) - rewards_reference.tanimoto_distance(a, b)) <= 1e-12

    for _ in range(100):
        m = int(rng.integers(2, 7))
        chosen = [pool[int(i)] for i in rng.integers(0, len(pool), size=m)]
        assert abs(diversity(chosen) - rewards_reference.diversity(chosen)) <= 1e-12

    for _ in range(100):
        n = int(rng.integers(1, 51))
        k = int(rng.integers(1, 11))
        scores = [float(v) for v in rng.normal(size=n) * 100.0]
        selected = sorted(scores)[: min(k, n)]
        assert top_k_mean(scores, k) == pytest.approx(float(np.mean(selected)), abs=1e-12)

    for _ in range(100):
        q = rng.uniform(0.0, 1.0, size=3)
        raw = rng.uniform(0.1, 1.0, size=3)
        w = raw / raw.sum()
        weights = RewardWeights(float(w[0]), float(w[1]), float(w[2]))
        expect = w[0] * q[0] + w[1] * q[1] + w[2] * q[2]
        assert abs(combined_quality(q[0], q[1], q[2], weights) - expect) <= 1e-12

    _report(
        "metric brute-force agreement",
        True,
        "tanimoto and diversity match tests/rewards_reference, top-k mean and "
        "weighted quality an inline reference, on 100 random inputs each within 1e-12",
    )


# ---------------------------------------------------------------------------
# 12. the command line train/sample path is bit-for-bit deterministic
# ---------------------------------------------------------------------------

def test_cli_train_and_sample_are_deterministic(tmp_path):
    artifacts = {}
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        cfg = {
            "library_file": "bundled:toy",
            "pocket_file": "bundled:compact",
            "checkpoint": str(d / "ck.json"),
            "steps": 6, "batch_size": 4, "learning_rate": 1e-3, "beta": 1.0,
            "max_nodes": 2, "seed": 7, "n_molecules": 3, "retry_cap": 50,
            "policy": {
                "width": 16, "n_layers": 1, "n_heads": 2, "frag_emb_dim": 4,
                "pocket_width": 8, "pocket_layers": 1,
            },
        }
        cfg_path = d / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        mol = d / "molecules.jsonl"
        assert main([
            "sample", "--config", str(cfg_path), "--checkpoint", str(d / "ck.json"),
            "--n", "3", "--out", str(mol),
        ]) == 0
        artifacts[run] = (
            (d / "ck.json").read_bytes(),
            (d / "ck.metrics.jsonl").read_bytes(),
            mol.read_bytes(),
        )

    same = [a == b for a, b in zip(artifacts["a"], artifacts["b"])]
    ok = all(same)
    _report(
        "end-to-end determinism",
        ok,
        f"two seeded train+sample runs: checkpoint bytes equal {same[0]}, metrics "
        f"bytes equal {same[1]}, molecule bytes equal {same[2]}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 13. embedding width and pooling contracts
# ---------------------------------------------------------------------------

def test_embedding_contracts():
    lib = toy_library()
    pocket = build_knn_graph(synthetic_pocket(6, 2.0, seed=3), K=4)
    width = 16
    store = ParamStore(np.random.default_rng(1))
    policy = PolicyNetwork(store, lib, small_policy("baseline"))
    ctx = policy.pocket_context(pocket)
    s = apply_action(initial_state(), AddFragment(None, None, 0, 0), lib, 2)
    with Tape():
        _, graph_emb = policy._ligand_track([s], ctx)

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        h = rng.normal(size=(2, n, 8))  # a batch of two graphs, as the policy pools them
        with Tape():
            base = pool_graph_embedding(tensor(h)).data
            permuted = pool_graph_embedding(tensor(h[:, rng.permutation(n)])).data
        worst = max(worst, float(np.max(np.abs(base - permuted))))

    ok = graph_emb.shape == (1, 2 * width) and worst <= 1e-12
    _report(
        "embedding contracts",
        ok,
        f"pooled graph embedding {graph_emb.shape[1]} wide vs twice the node width "
        f"({2 * width}); node pooling permutation-invariant on 100 random batches of "
        f"two graphs (max drift {worst:.2e} vs limit 1e-12)",
    )
    assert ok
