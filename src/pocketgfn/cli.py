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
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .files import InputFileError, OutputFileError, check_writable, json_float, output_file, read_json, read_json_set
from .ligand import (
    DATA_DIR,
    FragmentLibrary,
    LibraryError,
    LigandState,
    MoleculeSet,
    canonical_form,
    canonical_key,
    load_library,
    molecule_from_record,
    molecule_set,
)
from .nn import CheckpointError, ParamStore, load_checkpoint
from .pocket import PocketError, PocketGraph, build_knn_graph, load_pocket_jsonl
from .policy import BASELINE, TRIOFORMER, PolicyConfig, PolicyNetwork
from .rewards import (
    DEFAULT_WEIGHTS,
    MetricError,
    RewardWeights,
    diversity,
    mean_and_se,
    set_scores,
    top_k_mean,
)
from .training import (
    TrainerConfig,
    TrainingError,
    _materialize_params,
    default_reward_fn,
    sample_trajectories,
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
    """A run config file. ``validate`` checks what every command reads; the
    training fields are checked by ``trainer_config``, which only the
    commands that read them call (train, and sample for its seed and mode)."""

    pocket_file: object = "bundled:compact"  # str or list of str
    library_file: str = "bundled:desk"
    checkpoint: str = "checkpoint.json"
    metrics: str | None = None
    steps: int = 200
    batch_size: int = TrainerConfig.batch_size
    learning_rate: float = TrainerConfig.learning_rate
    beta: float = TrainerConfig.beta
    max_nodes: int = TrainerConfig.max_nodes
    seed: int = TrainerConfig.seed
    mode: str = TrainerConfig.mode
    weights: list = field(default_factory=lambda: list(astuple(DEFAULT_WEIGHTS)))
    n_molecules: int = 16
    top_k: int = 10
    retry_cap: int = 20
    policy: dict = field(default_factory=dict)

    def trainer_config(self) -> TrainerConfig:
        """The training fields as a ``TrainerConfig``, with the policy overrides
        applied; a bad field raises a ``ConfigError`` naming it."""
        try:
            # the overrides go on after TrainerConfig has checked the mode they are built for
            trainer = TrainerConfig(**{f.name: getattr(self, f.name) for f in fields(TrainerConfig) if f.name != "policy"})
            trainer.policy = replace(trainer.policy, **self.policy)
        except TrainingError as e:
            raise ConfigError(str(e)) from None
        except ValueError as e:
            raise ConfigError(f"config field 'policy': {e}") from None
        return trainer

    def validate(self) -> None:
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
        for name in ("n_molecules", "top_k", "retry_cap"):
            value = getattr(self, name)
            expect(type(value) is int and value >= 1, name, f"must be a positive integer, got {value!r}")
        expect(isinstance(self.weights, list) and len(self.weights) == 3, "weights", f"must be three numbers, got {self.weights!r}")
        try:
            RewardWeights(*[json_float(w, "each entry") for w in self.weights])
        except (MetricError, ValueError) as e:
            raise ConfigError(f"config field 'weights': {e}") from None
        expect(isinstance(self.policy, dict), "policy", "must be an object of policy overrides")
        allowed = {f.name for f in fields(PolicyConfig)} - {"mode"}
        for key in self.policy:
            expect(key in allowed, "policy", f"unknown policy override {key!r}; choices: {sorted(allowed)}")
        self.pocket_paths()  # an unknown bundled name raises here, before any work
        self.library_path()

    def pocket_paths(self) -> list[str]:
        specs = self.pocket_file if isinstance(self.pocket_file, list) else [self.pocket_file]
        return [resolve_bundled(p, BUNDLED_POCKETS, "pocket") for p in specs]

    def library_path(self) -> str:
        return resolve_bundled(self.library_file, BUNDLED_LIBRARIES, "library")


# flags that replace a config field as given: (argparse dest, RunConfig field)
_FLAG_FIELDS = (("seed", "seed"), ("steps", "steps"), ("mode", "mode"), ("pocket", "pocket_file"),
                ("checkpoint", "checkpoint"), ("n", "n_molecules"), ("top_k", "top_k"))


def load_run_config(path: str | None, overrides: argparse.Namespace | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        known = {f.name for f in fields(RunConfig)}
        for key, value in read_json(path, ConfigError).items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}; choices: {sorted(known)}")
            setattr(cfg, key, value)
    if overrides is not None:
        for flag, name in _FLAG_FIELDS:
            if getattr(overrides, flag, None) is not None:
                setattr(cfg, name, getattr(overrides, flag))
        if getattr(overrides, "weights", None) is not None:
            try:
                cfg.weights = [float(w) for w in overrides.weights.split(",")]
            except ValueError:
                raise ConfigError(f"--weights must be three comma-separated numbers, got {overrides.weights!r}") from None
    return cfg


def _load_pockets(cfg: RunConfig) -> dict[str, PocketGraph]:
    pockets = {}
    for path in cfg.pocket_paths():
        pid = Path(path).stem
        if pid in pockets:
            raise ConfigError(f"duplicate pocket id {pid!r} from {path}")
        residues = load_pocket_jsonl(path)
        try:
            pockets[pid] = build_knn_graph(residues)
        except PocketError as e:
            raise PocketError(f"{path}: {e}") from None
    return pockets


# -- subcommands --------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    cfg.validate()
    trainer = cfg.trainer_config()
    out_path = args.out or cfg.checkpoint
    metrics_path = cfg.metrics or (os.path.splitext(out_path)[0] + ".metrics.jsonl")
    check_writable(out_path)
    check_writable(metrics_path)
    library = load_library(cfg.library_path())
    pockets = _load_pockets(cfg)
    weights = RewardWeights(*[float(w) for w in cfg.weights])
    result = train(
        trainer, library, pockets,
        reward_fn=default_reward_fn(library, weights),
        metrics_path=metrics_path, checkpoint_path=out_path,
        extra_meta={"weights": list(cfg.weights)},
    )
    last = result.metrics[-1]["loss"] if result.metrics else None
    print(f"trained {result.steps_run} steps; checkpoint {out_path}; metrics {metrics_path}"
          + (f"; final loss {last:.6f}" if last is not None else ""))
    return 0


def _check_attachment_counts(library: FragmentLibrary, trained, checkpoint_path: str) -> None:
    """Refuse a library whose (fragment id, attachment points) pairs differ
    from the ones the checkpoint was trained on, naming the first that differs."""
    if not (isinstance(trained, list) and all(
            isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in trained)):
        raise CheckpointError(f"checkpoint {checkpoint_path} meta field 'attachment_counts' must be a list of "
                              f"[fragment id, attachment points] pairs, got {trained!r}")
    for k, (have, want) in enumerate(zip_longest([list(p) for p in library.attachment_counts], trained)):
        if have == want:
            continue
        f = library.fragments[k] if have is not None else None
        if f is None or (want is not None and want[0] < f.id):
            problem = f"it has no fragment {want[0]}, which the checkpoint was trained with"
        elif want is not None and want[0] == f.id:
            problem = (f"fragment {f.id} ({f.name!r}) has {f.aps} attachment points, "
                       f"and the checkpoint was trained with {want[1]}")
        else:
            problem = f"fragment {f.id} ({f.name!r}) is not in the checkpoint's library"
        raise ConfigError(f"fragment library does not match the checkpoint: {problem}")


def _rebuild_policy(checkpoint_path: str, library: FragmentLibrary, mode: str | None,
                    pockets: dict[str, PocketGraph]):
    state, meta = load_checkpoint(checkpoint_path)
    for key in ("max_nodes", "attachment_counts", "policy"):
        if key not in meta:
            raise CheckpointError(f"checkpoint {checkpoint_path} meta is missing field {key!r}")
    max_nodes, policy_meta = meta["max_nodes"], meta["policy"]
    if type(max_nodes) is not int or max_nodes < 1:
        raise CheckpointError(f"checkpoint {checkpoint_path} meta field 'max_nodes' must be a positive integer, got {max_nodes!r}")
    if not isinstance(policy_meta, dict):
        raise CheckpointError(f"checkpoint {checkpoint_path} meta field 'policy' must be an object, got {policy_meta!r}")
    try:
        policy_cfg = PolicyConfig(**policy_meta)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"checkpoint {checkpoint_path} meta field 'policy': {e}") from None
    if mode is not None and mode != meta.get("mode"):
        raise ConfigError(f"mode {mode!r} disagrees with checkpoint mode {meta.get('mode')!r}")
    _check_attachment_counts(library, meta["attachment_counts"], checkpoint_path)
    store = ParamStore(np.random.default_rng(0))
    policy = PolicyNetwork(store, library, policy_cfg)
    first = next(iter(pockets.values()))
    _materialize_params(policy, policy.pocket_context(first), library, max_nodes)
    store.load_state_arrays(state)
    return policy, meta


def cmd_sample(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    cfg.validate()
    cfg.trainer_config()  # sample reads the seed and the mode
    if isinstance(cfg.pocket_file, list):
        raise ConfigError("config field 'pocket_file': sampling targets one pocket; pass a single path")
    out_path = args.out or "molecules.jsonl"
    check_writable(out_path)
    library = load_library(cfg.library_path())
    pockets = _load_pockets(cfg)
    # a mode named by --mode or the (loaded, so valid) config file must be the checkpoint's; naming none samples either kind
    named = args.mode is not None or (args.config is not None and "mode" in read_json(args.config, ConfigError))
    policy, meta = _rebuild_policy(cfg.checkpoint, library, cfg.mode if named else None, pockets)
    max_nodes = meta["max_nodes"]
    pid, graph = next(iter(pockets.items()))
    ctx = policy.pocket_context(graph)

    n = cfg.n_molecules
    unique: dict[str, LigandState] = {}
    attempts = 0
    budget = n * cfg.retry_cap
    while len(unique) < n and attempts < budget:
        # each draw adds at most one molecule, so rolling only the missing
        # count together stops at the same attempt as drawing one at a time
        k = min(n - len(unique), budget - attempts)
        rngs = [np.random.default_rng([cfg.seed, attempts + j]) for j in range(k)]
        for traj in sample_trajectories(policy, {pid: ctx}, [pid] * k, rngs, max_nodes, library)[0]:
            terminal = traj.states[-1]
            key = canonical_key(terminal)
            if key not in unique:
                unique[key] = LigandState(*canonical_form(terminal), terminal=True)
            attempts += 1
    scores = zip(*(column.tolist() for column in set_scores(graph, MoleculeSet.from_states(list(unique.values())), library)))
    with output_file(out_path) as fh:
        for s, (ds, qed, sa) in zip(unique.values(), scores):
            rec = {"nodes": list(s.nodes), "edges": [list(e) for e in s.edges], "ds": ds, "qed": qed, "sa": sa}
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


def _parse_molecule_file(path: str, library: FragmentLibrary) -> tuple[list[int], list[dict], MoleculeSet]:
    """The line numbers, records and molecule set of a molecule file, each
    record checked as ``molecule_from_record`` checks it."""
    return read_json_set(path, ConfigError, "molecule", lambda records: molecule_set(records, library),
                         lambda rec: molecule_from_record(rec, library))


METRIC_NAMES = ("diversity", "ds_mean", "ds_top10_mean", "qed_mean", "sa_mean")


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, args)
    cfg.validate()
    if isinstance(cfg.pocket_file, list):
        raise ConfigError("config field 'pocket_file': evaluation targets one pocket; pass a single path")
    if args.out:
        check_writable(args.out)
    library = load_library(cfg.library_path())
    pockets = _load_pockets(cfg)
    _, graph = next(iter(pockets.items()))
    per_set = []
    for path in args.molecules:
        lines, records, mset = _parse_molecule_file(path, library)
        scores = dict(zip(("ds", "qed", "sa"), (column.tolist() for column in set_scores(graph, mset, library))))
        for line_no, rec, *values in zip(lines, records, *scores.values()):
            for name, value in zip(scores, values):
                if rec.get(name) is None:
                    continue
                try:
                    stored = json_float(rec[name], f"stored {name!r}")
                except ValueError as e:
                    raise ConfigError(f"{path}:{line_no}: bad molecule record: {e}") from None
                if stored != value:
                    raise ConfigError(f"{path}:{line_no}: stored {name} {rec[name]!r} disagrees with recomputation {value!r}")
        per_set.append({
            "file": path,
            "n": len(mset),
            "diversity": diversity(mset) if len(mset) >= 2 else None,
            "ds_mean": float(np.mean(scores["ds"])),
            "ds_top10_mean": top_k_mean(scores["ds"], cfg.top_k),
            "qed_mean": float(np.mean(scores["qed"])),
            "sa_mean": float(np.mean(scores["sa"])),
        })
    summary = {}
    print(f"{'metric':<16} {'mean':>10} {'se':>10}   (n_sets={len(per_set)})")
    for name in METRIC_NAMES:
        # a one-molecule set has no pairs, so no diversity, and is left out of its mean
        values = [row[name] for row in per_set if row[name] is not None]
        if values:
            mean, se = mean_and_se(values)
            print(f"{name:<16} {mean:>10.4f} {se:>10.4f}")
        else:
            mean = se = None
            print(f"{name:<16} {'n/a':>10} {'n/a':>10}")
        summary[name] = {"mean": mean, "se": se}
    if args.out:
        with output_file(args.out) as fh:
            json.dump({"n_sets": len(per_set), "metrics": summary, "per_set": per_set}, fh, indent=1)
        print(f"report written to {args.out}")
    return 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from . import selfcheck

    results = selfcheck.run_all()
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
    p.add_argument("--out", help="output path")


def _add_seed_and_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--mode", choices=[BASELINE, TRIOFORMER], help="conditioning mode")


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads."""
    parser = argparse.ArgumentParser(prog="pocketgfn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a sampler and write a checkpoint")
    _add_common(p_train)
    _add_seed_and_mode(p_train)
    p_train.add_argument("--steps", type=int, help="override training step count")
    p_train.add_argument("--weights", help="reward weights w_ds,w_qed,w_sa")
    p_train.set_defaults(fn=cmd_train)

    p_sample = sub.add_parser("sample", help="sample unique molecules from a checkpoint")
    _add_common(p_sample)
    _add_seed_and_mode(p_sample)
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
    p_check.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, LibraryError, PocketError, InputFileError, OutputFileError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, MetricError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
