"""
Training a sampler until it draws molecules in proportion to reward
===================================================================

On a fragment space small enough to enumerate, the trained sampler can be
held to the exact standard: the probability of each molecule must approach
reward^beta / Z. This script trains for a few hundred steps at most, watches
the total-variation distance to that target fall, then draws samples and
compares frequencies.
"""

from pocketgfn.ligand import toy_library
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
from pocketgfn.policy import PolicyConfig, PolicyNetwork
from pocketgfn.rewards import docking_proxy
from pocketgfn.training import (
    TrainerConfig,
    empirical_terminal_distribution,
    exact_terminal_distribution,
    target_distribution,
    total_variation,
    train,
    training_store,
)

lib = toy_library()
pocket = build_knn_graph(synthetic_pocket(6, 2.0, seed=3), K=4)

def reward_fn(p, s):
    return docking_proxy(p, s, lib)

target = target_distribution(pocket, lib, max_nodes=2, reward_fn=reward_fn, beta=1.0)
print("reward-proportional target over the enumerable molecule space:")
for key, prob in sorted(target.items(), key=lambda kv: -kv[1]):
    print(f"  {prob:.4f}  {key}")

policy_cfg = PolicyConfig(mode="baseline", width=16, n_layers=1, n_heads=2,
                          frag_emb_dim=4, pocket_width=8, pocket_layers=1)
cfg = TrainerConfig(steps=600, batch_size=8, learning_rate=3e-3, beta=1.0,
                    max_nodes=2, seed=12, mode="baseline", policy=policy_cfg)

# a probe network on the same parameter store watches convergence live
store = training_store(cfg)
probe = PolicyNetwork(store, lib, policy_cfg)

def stop_fn(row):
    if row["step"] % 25 != 24:
        return False
    # training moves the pocket encoder too, so the context is rebuilt each probe
    ctx = probe.pocket_context(pocket)
    tv = total_variation(exact_terminal_distribution(probe, ctx, lib, 2), target)
    print(f"  step {row['step']:4d}  loss {row['loss']:8.4f}  exact TV {tv:.4f}")
    return tv < 0.03

print("\ntraining (stops once the exact model distribution is within 0.03):")
result = train(cfg, lib, {"pocket": pocket}, reward_fn=reward_fn, store=store, stop_fn=stop_fn)
print(f"stopped after {result.steps_run} steps")

ctx = result.policy.pocket_context(pocket)
empirical = empirical_terminal_distribution(result.policy, ctx, lib, 2, n_samples=20000)
print(f"\nempirical vs target over 20000 draws (TV {total_variation(empirical, target):.4f}):")
for key in sorted(target, key=target.get, reverse=True):
    print(f"  target {target[key]:.4f}  sampled {empirical.get(key, 0.0):.4f}  {key}")
