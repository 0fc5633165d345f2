"""The benchmark's tracer still fits the program.

``perfbench/spans.py`` wraps public pocketgfn names where callers look them
up, and ``perfbench/worker.py`` hooks two private ones. Renaming or deleting
any of them breaks only the traced benchmark, so this test installs the
tracer, runs one tiny training step and one policy pass under it, and
restores everything afterwards; the set-up hook is checked by counting calls.
"""

from pathlib import Path

import numpy as np

import pocketgfn
from pocketgfn import autodiff, cli, training
from pocketgfn.ligand import initial_state, toy_library
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
from pocketgfn.policy import TRIOFORMER, PolicyNetwork
from pocketgfn.selfcheck import small_policy
from pocketgfn.training import TrainerConfig, train

from conftest import load_file

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_worker_hooks_exist():
    assert callable(training._materialize_params)
    assert callable(cli._rebuild_policy)


def test_training_set_up_ends_in_one_materialize_call(monkeypatch):
    # the benchmark times set-up up to the return of this module attribute,
    # so train() must look it up there, once
    calls = []
    real = training._materialize_params

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(training, "_materialize_params", counted)
    pockets = {"p": build_knn_graph(synthetic_pocket(5, 2.0, seed=3), K=3)}
    train(TrainerConfig(steps=0, max_nodes=2, policy=small_policy()), toy_library(), pockets)
    assert len(calls) == 1


def test_tracer_installs_and_traces_a_step():
    spans = load_file(SPANS, "perfbench_spans")
    lib = toy_library()
    pockets = {"p": build_knn_graph(synthetic_pocket(5, 2.0, seed=3), K=3)}
    cfg = TrainerConfig(steps=1, batch_size=2, max_nodes=2, seed=0, mode=TRIOFORMER, policy=small_policy(TRIOFORMER))
    tracer = spans.Tracer(autodiff)
    try:
        spans.install(tracer, pocketgfn)
        op = tracer.open(spans.OP)
        result = train(cfg, lib, pockets)
        tracer.close(op)
        policy = PolicyNetwork(result.store, lib, cfg.policy)
        dist = policy.action_distribution(initial_state(), policy.pocket_context(pockets["p"]), cfg.max_nodes)
        report = spans.summarize(tracer, 1)
    finally:
        tracer.restore()
    assert result.steps_run == 1
    assert np.isclose(np.exp(dist.log_probs.data).sum(), 1.0)
    assert report["policy.calls_taped"] >= 1 and report["autodiff.tape_nodes"] > 0
    # training scores its rewards through the traced state_quality
    assert report["rewards.state_quality_s"] > 0
    assert report["trioformer.stack_nodes"] > 0
    # each block of the stack gets its own span; the triangle spans are named
    # from triangle_update's third argument, the axis
    for block in ("tri_pocket", "tri_ligand", "transition", "cross_attn"):
        assert report[f"trioformer.{block}_nodes"] > 0, block
    # the tracer still finds and times the log-softmax primitive the policy calls
    assert report["autodiff.log_softmax_rows_s"] > 0
    # backward time comes from timing each tape node's rule in place
    assert report["autodiff.backward_s"] > 0 and report["trioformer.stack_bwd_s"] > 0
    # a span's nodes and backward time are differences of tape sizes read at
    # its ends, so none is negative, the backward span's own included
    negative = {name: row for name, row in report["_layers"].items() if row["nodes"] < 0 or row["bwd"] < 0}
    assert "autodiff.backward" in report["_layers"] and not negative, negative
    # restore put every original back
    for fn in (autodiff.add, training.shaped_log_reward, PolicyNetwork.action_distribution):
        assert not hasattr(fn, "__wrapped__"), fn
