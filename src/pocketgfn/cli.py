"""Command-line entry point: train, sample, evaluate, selfcheck.

All artifacts are JSON or JSON Lines. Exit codes: 0 success, 1 runtime
failure (divergence, failed checks, exhausted retry budget), 2 config or IO
error. Bundled assets are addressed as "bundled:<name>" so a fresh install
works with no data preparation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .ligand import (
    DATA_DIR,
    FragmentLibrary,
    LibraryError,
    canonical_key,
    load_library,
    state_from_record,
    state_to_record,
    validate_state,
)
from .nn import CheckpointError, ParamStore, load_checkpoint
from .pocket import PocketError, PocketGraph, build_knn_graph, load_pocket_jsonl
from .policy import BASELINE, TRIOFORMER, PolicyConfig, PolicyNetwork
from .rewards import (
    MetricError,
    RewardWeights,
    diversity,
    docking_score,
    mean_and_se,
    qed_proxy,
    sa_proxy,
    top_k_mean,
)
from .training import (
    TrainerConfig,
    TrainingError,
    _materialize_params,
    default_reward_fn,
    sample_trajectory,
    train,
)

BUNDLED_POCKETS = {"compact": "pocket_compact.jsonl", "wide": "pocket_wide.jsonl"}
BUNDLED_LIBRARIES = {"toy": "toy_library.json", "desk": "desk_library.json"}


class ConfigError(ValueError):
    pass


def resolve_bundled(spec: str, table: dict[str, str], kind: str) -> str:
    if spec.startswith("bundled:"):
        name = spec[len("bundled:"):]
        if name not in table:
            raise ConfigError(f"unknown bundled {kind} {name!r}; choices: {sorted(table)}")
        return str(DATA_DIR / table[name])
    return spec


@dataclass
class RunConfig:
    pocket_file: object = "bundled:compact"  # str or list of str
    library_file: str = "bundled:desk"
    checkpoint: str = "checkpoint.json"
    metrics: str | None = None
    steps: int = 200
    batch_size: int = 16
    learning_rate: float = 1e-3
    beta: float = 4.0
    max_nodes: int = 8
    seed: int = 0
    mode: str = BASELINE
    weights: list = field(default_factory=lambda: [0.5, 0.25, 0.25])
    n_molecules: int = 16
    top_k: int = 10
    retry_cap: int = 20
    policy: dict = field(default_factory=dict)

    def validate(self, check_files: bool = True) -> None:
        def expect(cond, name, msg):
            if not cond:
                raise ConfigError(f"config field {name!r}: {msg}")

        expect(isinstance(self.pocket_file, (str, list)), "pocket_file", "must be a path or list of paths")
        if isinstance(self.pocket_file, list):
            expect(all(isinstance(p, str) for p in self.pocket_file) and self.pocket_file,
                   "pocket_file", "must be a nonempty list of paths")
        expect(isinstance(self.library_file, str), "library_file", "must be a path")
        expect(isinstance(self.checkpoint, str), "checkpoint", "must be a path")
        expect(self.metrics is None or isinstance(self.metrics, str), "metrics", "must be a path")
        for name in ("steps", "batch_size", "max_nodes", "seed", "n_molecules", "top_k", "retry_cap"):
            value = getattr(self, name)
            # bool is a subclass of int, so True would pass as 1
            expect(isinstance(value, int) and not isinstance(value, bool), name, f"must be an integer, got {value!r}")
        expect(self.steps >= 0, "steps", f"must be a nonnegative integer, got {self.steps!r}")
        expect(self.batch_size >= 1, "batch_size", f"must be a positive integer, got {self.batch_size!r}")
        for name in ("learning_rate", "beta"):
            value = getattr(self, name)
            expect(isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0,
                   name, f"must be a positive number, got {value!r}")
        expect(self.max_nodes >= 1, "max_nodes", f"must be a positive integer, got {self.max_nodes!r}")
        expect(self.mode in (BASELINE, TRIOFORMER), "mode", f"must be one of {BASELINE!r}, {TRIOFORMER!r}, got {self.mode!r}")
        expect(isinstance(self.weights, list) and len(self.weights) == 3, "weights", f"must be three numbers, got {self.weights!r}")
        try:
            RewardWeights(*[float(w) for w in self.weights])
        except (MetricError, TypeError, ValueError) as e:
            raise ConfigError(f"config field 'weights': {e}") from None
        expect(self.n_molecules >= 1, "n_molecules", f"must be a positive integer, got {self.n_molecules!r}")
        expect(self.top_k >= 1, "top_k", f"must be a positive integer, got {self.top_k!r}")
        expect(self.retry_cap >= 1, "retry_cap", f"must be a positive integer, got {self.retry_cap!r}")
        expect(isinstance(self.policy, dict), "policy", "must be an object of policy overrides")
        allowed = {f.name for f in fields(PolicyConfig)} - {"mode"}
        for key in self.policy:
            expect(key in allowed, "policy", f"unknown policy override {key!r}; choices: {sorted(allowed)}")
        try:
            _policy_config(self)
        except ValueError as e:
            raise ConfigError(f"config field 'policy': {e}") from None
        if check_files:
            for path in self.pocket_paths():
                if not os.path.exists(path):
                    raise ConfigError(f"config field 'pocket_file': file not found: {path}")
            lib = resolve_bundled(self.library_file, BUNDLED_LIBRARIES, "library")
            if not os.path.exists(lib):
                raise ConfigError(f"config field 'library_file': file not found: {lib}")

    def pocket_paths(self) -> list[str]:
        specs = self.pocket_file if isinstance(self.pocket_file, list) else [self.pocket_file]
        return [resolve_bundled(p, BUNDLED_POCKETS, "pocket") for p in specs]

    def library_path(self) -> str:
        return resolve_bundled(self.library_file, BUNDLED_LIBRARIES, "library")


def load_run_config(path: str | None, overrides: argparse.Namespace | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(RunConfig)}
        for key, value in doc.items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}; choices: {sorted(known)}")
            setattr(cfg, key, value)
    if overrides is not None:
        if getattr(overrides, "seed", None) is not None:
            cfg.seed = overrides.seed
        if getattr(overrides, "steps", None) is not None:
            cfg.steps = overrides.steps
        if getattr(overrides, "mode", None) is not None:
            cfg.mode = overrides.mode
        if getattr(overrides, "weights", None) is not None:
            try:
                cfg.weights = [float(w) for w in overrides.weights.split(",")]
            except ValueError:
                raise ConfigError(f"--weights must be three comma-separated numbers, got {overrides.weights!r}") from None
        if getattr(overrides, "pocket", None) is not None:
            cfg.pocket_file = overrides.pocket
        if getattr(overrides, "checkpoint", None) is not None:
            cfg.checkpoint = overrides.checkpoint
        if getattr(overrides, "n", None) is not None:
            cfg.n_molecules = overrides.n
        if getattr(overrides, "top_k", None) is not None:
            cfg.top_k = overrides.top_k
    return cfg


def _load_pockets(cfg: RunConfig) -> dict[str, PocketGraph]:
    pockets = {}
    for path in cfg.pocket_paths():
        pid = Path(path).stem
        if pid in pockets:
            raise ConfigError(f"duplicate pocket id {pid!r} from {path}")
        pockets[pid] = build_knn_graph(load_pocket_jsonl(path))
    return pockets


def _policy_config(cfg: RunConfig) -> PolicyConfig:
    return PolicyConfig(mode=cfg.mode, **cfg.policy)


# -- subcommands --------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    cfg.validate()
    out_path = args.out or cfg.checkpoint
    metrics_path = cfg.metrics or (os.path.splitext(out_path)[0] + ".metrics.jsonl")
    library = load_library(cfg.library_path())
    pockets = _load_pockets(cfg)
    weights = RewardWeights(*[float(w) for w in cfg.weights])
    trainer_cfg = TrainerConfig(
        steps=cfg.steps, batch_size=cfg.batch_size, learning_rate=cfg.learning_rate,
        beta=cfg.beta, max_nodes=cfg.max_nodes, seed=cfg.seed, mode=cfg.mode,
        policy=_policy_config(cfg),
    )
    result = train(
        trainer_cfg, library, pockets,
        reward_fn=default_reward_fn(library, weights),
        metrics_path=metrics_path, checkpoint_path=out_path,
        extra_meta={"weights": list(cfg.weights)},
    )
    last = result.metrics[-1]["loss"] if result.metrics else None
    print(f"trained {result.steps_run} steps; checkpoint {out_path}; metrics {metrics_path}"
          + (f"; final loss {last:.6f}" if last is not None else ""))
    return 0


def _rebuild_policy(checkpoint_path: str, library: FragmentLibrary, mode_flag: str | None,
                    pockets: dict[str, PocketGraph]):
    state, meta = load_checkpoint(checkpoint_path)
    for key in ("max_nodes", "library_ids", "policy"):
        if key not in meta:
            raise CheckpointError(f"checkpoint {checkpoint_path} meta is missing field {key!r}")
    if mode_flag is not None and mode_flag != meta.get("mode"):
        raise ConfigError(f"--mode {mode_flag!r} disagrees with checkpoint mode {meta.get('mode')!r}")
    if list(library.ids) != meta.get("library_ids"):
        raise ConfigError(
            f"fragment library ids {list(library.ids)} do not match checkpoint ids {meta.get('library_ids')}"
        )
    policy_cfg = PolicyConfig(**meta["policy"])
    store = ParamStore(np.random.default_rng(0))
    policy = PolicyNetwork(store, library, policy_cfg)
    first = next(iter(pockets.values()))
    _materialize_params(policy, policy.pocket_context(first), library, int(meta["max_nodes"]))
    store.load_state_arrays(state)
    return policy, meta


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    cfg.validate()
    if isinstance(cfg.pocket_file, list):
        raise ConfigError("config field 'pocket_file': sampling targets one pocket; pass a single path")
    checkpoint_path = cfg.checkpoint
    if not os.path.exists(checkpoint_path):
        raise ConfigError(f"checkpoint not found: {checkpoint_path}")
    library = load_library(cfg.library_path())
    pockets = _load_pockets(cfg)
    policy, meta = _rebuild_policy(checkpoint_path, library, args.mode, pockets)
    max_nodes = int(meta["max_nodes"])
    pid, graph = next(iter(pockets.items()))
    ctx = policy.pocket_context(graph)

    out_path = args.out or "molecules.jsonl"
    n = cfg.n_molecules
    unique: dict[str, dict] = {}
    attempts = 0
    budget = n * cfg.retry_cap
    while len(unique) < n and attempts < budget:
        rng = np.random.default_rng([cfg.seed, attempts])
        traj = sample_trajectory(policy, ctx, pid, rng, max_nodes, library)
        terminal = traj.states[-1]
        key = canonical_key(terminal)
        if key not in unique:
            rec = state_to_record(terminal)
            canon = state_from_record(rec)
            unique[key] = {
                "nodes": rec["nodes"],
                "edges": rec["edges"],
                "ds": docking_score(graph, canon, library),
                "qed": qed_proxy(canon),
                "sa": sa_proxy(canon),
            }
        attempts += 1
    with open(out_path, "w") as fh:
        for rec in unique.values():
            fh.write(json.dumps(rec) + "\n")
    if len(unique) < n:
        print(
            f"warning: only {len(unique)} of {n} unique molecules after {attempts} attempts; "
            f"partial output written to {out_path}",
            file=sys.stderr,
        )
        return 1
    print(f"wrote {len(unique)} molecules to {out_path} (pocket {pid}, {attempts} draws)")
    return 0


def _parse_molecule_file(path: str, library: FragmentLibrary):
    if not os.path.exists(path):
        raise ConfigError(f"molecule file not found: {path}")
    states = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}:{line_no}: not valid JSON: {e.msg}") from None
            if not isinstance(rec, dict) or "nodes" not in rec or "edges" not in rec:
                raise ConfigError(f"{path}:{line_no}: record needs 'nodes' and 'edges'")
            try:
                s = state_from_record(rec)
                validate_state(s, library)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{path}:{line_no}: bad record: {e}") from None
            if s.n == 0:
                raise ConfigError(f"{path}:{line_no}: empty molecule")
            states.append((line_no, rec, s))
    if not states:
        raise ConfigError(f"{path}: no molecule records")
    return states


METRIC_NAMES = ("diversity", "ds_mean", "ds_top10_mean", "qed_mean", "sa_mean")


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    cfg.validate()
    if isinstance(cfg.pocket_file, list):
        raise ConfigError("config field 'pocket_file': evaluation targets one pocket; pass a single path")
    library = load_library(cfg.library_path())
    pockets = _load_pockets(cfg)
    _, graph = next(iter(pockets.items()))
    per_set = []
    for path in args.molecules:
        rows = _parse_molecule_file(path, library)
        ds, qed, sa = [], [], []
        for line_no, rec, s in rows:
            d, q, a = docking_score(graph, s, library), qed_proxy(s), sa_proxy(s)
            for name, stored, recomputed in (("ds", rec.get("ds"), d), ("qed", rec.get("qed"), q), ("sa", rec.get("sa"), a)):
                if stored is not None and stored != recomputed:
                    raise ConfigError(
                        f"{path}:{line_no}: stored {name} {stored!r} disagrees with recomputation {recomputed!r}"
                    )
            ds.append(d)
            qed.append(q)
            sa.append(a)
        states = [s for _, _, s in rows]
        per_set.append({
            "file": path,
            "n": len(states),
            "diversity": diversity(states) if len(states) >= 2 else 0.0,
            "ds_mean": float(np.mean(ds)),
            "ds_top10_mean": top_k_mean(ds, cfg.top_k),
            "qed_mean": float(np.mean(qed)),
            "sa_mean": float(np.mean(sa)),
        })
    summary = {}
    print(f"{'metric':<16} {'mean':>10} {'se':>10}   (n_sets={len(per_set)})")
    for name in METRIC_NAMES:
        mean, se = mean_and_se([row[name] for row in per_set])
        summary[name] = {"mean": mean, "se": se}
        print(f"{name:<16} {mean:>10.4f} {se:>10.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"n_sets": len(per_set), "metrics": summary, "per_set": per_set}, fh, indent=1)
        print(f"report written to {args.out}")
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from . import selfcheck

    results = selfcheck.run_all(fast=args.fast)
    failures = [name for name, ok, _ in results if not ok]
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if failures:
        print(f"{len(failures)} of {len(results)} suites failed: {', '.join(failures)}")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--steps", type=int, help="override training step count")
    p.add_argument("--mode", choices=[BASELINE, TRIOFORMER], help="conditioning mode")
    p.add_argument("--weights", help="reward weights w_ds,w_qed,w_sa")
    p.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pocketgfn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a sampler and write a checkpoint")
    _add_common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_sample = sub.add_parser("sample", help="sample unique molecules from a checkpoint")
    _add_common(p_sample)
    p_sample.add_argument("--checkpoint", help="checkpoint path (defaults to config)")
    p_sample.add_argument("--pocket", help="pocket JSONL path (defaults to config)")
    p_sample.add_argument("--n", type=int, help="number of unique molecules")
    p_sample.set_defaults(fn=cmd_sample)

    p_eval = sub.add_parser("evaluate", help="score molecule sets against a pocket")
    _add_common(p_eval)
    p_eval.add_argument("molecules", nargs="+", help="molecule JSONL files, one set each")
    p_eval.add_argument("--pocket", help="pocket JSONL path (defaults to config)")
    p_eval.add_argument("--top-k", dest="top_k", type=int, help="k for the top-k score mean")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_check = sub.add_parser("selfcheck", help="run the verification suites")
    p_check.add_argument("--fast", action="store_true", help="shrink the sampling suite for quick runs")
    p_check.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, LibraryError, PocketError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, MetricError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
