"""One benchmark process: make inputs, time set-up, or run a workload.

    python3 perfbench/worker.py inputs --workload W --seed N --work DIR
    python3 perfbench/worker.py setup  --workload W --seed N --work DIR
    python3 perfbench/worker.py run    --workload W --seed N --work DIR --seconds S --trace 0|1

``run.py`` starts these in order and reads the JSON object each prints as
its last line. Set-up time runs from the first statement of this file, so it
includes the import of numpy and pocketgfn.
"""

from time import perf_counter, process_time

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import pocketgfn  # noqa: E402
from pocketgfn import autodiff, cli, ligand, nn, pocket, policy, rewards, training  # noqa: E402

if os.path.dirname(os.path.abspath(pocketgfn.__file__)) != os.path.join(SRC, "pocketgfn"):
    sys.exit(f"error: imported pocketgfn from {pocketgfn.__file__}, not from {SRC}")

WORKLOADS = {
    "train-baseline": ("train", policy.BASELINE),
    "train-trioformer": ("train", policy.TRIOFORMER),
    "infer-baseline": ("infer", policy.BASELINE),
}
POCKET_RESIDUES = 10
BATCH_SIZE = 16
MAX_NODES = 8
# One repetition is a fresh seeded training run of this many distinct steps;
# the work of a step depends on its sampled trajectories, so more distinct
# steps make a run's median less dependent on the seed.
STEPS_PER_REP = {"train-baseline": 8, "train-trioformer": 5}
MIN_REPS = 2  # the determinism checks compare repetitions (train) or cycles (infer)
# A traced run first repeats untraced, to time the same work without the
# tracer once the process is warm; the last of these is the overhead base.
UNTRACED_FIRST = 2
SAMPLE_MOLECULES = 48
ORACLE_MAX_NODES = 3
ORACLE_MOLECULES = 360  # distinct desk molecules with at most 3 fragments
EVAL_SETS = 2
EVAL_SET_SIZE = 300
# The workload seed generates the pocket and the molecule sets. The seed of
# the program's own sampling (training trajectories, parameter init, draws)
# is fixed, so every workload seed does the same trajectory work: with it
# tied to the workload seed, batch sizes in tree nodes varied by about 7%
# between seeds and that, not the program, set the run-to-run spread.
RUN_SEED = 0
DRAWS_RE = re.compile(r", (\d+) draws\)")


# -- inputs ---------------------------------------------------------------------


def paths(work: str) -> dict[str, str]:
    return {
        "config": os.path.join(work, "config.json"),
        "pocket": os.path.join(work, "pocket.jsonl"),
        "checkpoint": os.path.join(work, "checkpoint.json"),
        "sets": [os.path.join(work, f"set{k}.jsonl") for k in range(EVAL_SETS)],
    }


def random_molecule(library, rng) -> ligand.LigandState:
    s = ligand.initial_state()
    while not s.terminal:
        actions = ligand.legal_actions(s, library, MAX_NODES)
        s = ligand.apply_action(s, actions[int(rng.integers(len(actions)))], library, MAX_NODES)
    return s


def make_inputs(workload: str, seed: int, work: str) -> dict:
    kind, mode = WORKLOADS[workload]
    p = paths(work)
    rng = np.random.default_rng([seed, 1])
    spread = float(rng.uniform(2.0, 5.0))
    polar = float(rng.uniform(0.2, 0.8))
    pocket.save_pocket_jsonl(p["pocket"], pocket.synthetic_pocket(POCKET_RESIDUES, spread, seed, polar))
    config = {
        "pocket_file": p["pocket"], "library_file": "bundled:desk", "checkpoint": p["checkpoint"],
        "steps": STEPS_PER_REP.get(workload, 1), "batch_size": BATCH_SIZE, "max_nodes": MAX_NODES, "seed": RUN_SEED,
        "mode": mode, "n_molecules": SAMPLE_MOLECULES,
    }
    with open(p["config"], "w") as fh:
        json.dump(config, fh)
    if kind == "infer":
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["train", "--config", p["config"], "--steps", "1", "--out", p["checkpoint"]])
        if rc != 0:
            raise RuntimeError(f"fixture training exited {rc}")
        library = ligand.load_library(cli.resolve_bundled("bundled:desk", cli.BUNDLED_LIBRARIES, "library"))
        mol_rng = np.random.default_rng([seed, 2])
        for path in p["sets"]:
            with open(path, "w") as fh:
                for _ in range(EVAL_SET_SIZE):
                    fh.write(json.dumps(ligand.state_to_record(random_molecule(library, mol_rng))) + "\n")
    return {"pocket_spread": spread, "pocket_polar_fraction": polar}


# -- set-up ---------------------------------------------------------------------


class TrainSetup:
    """Config, library and pockets as ``pocketgfn train`` loads them."""

    def __init__(self, work: str):
        self.cfg = cli.load_run_config(paths(work)["config"])
        self.cfg.validate()
        self.library = ligand.load_library(self.cfg.library_path())
        self.pockets = {"pocket": pocket.build_knn_graph(pocket.load_pocket_jsonl(self.cfg.pocket_paths()[0]))}
        self.weights = rewards.RewardWeights(*[float(w) for w in self.cfg.weights])

    def trainer_config(self, steps: int) -> training.TrainerConfig:
        cfg = self.cfg
        return training.TrainerConfig(
            steps=steps, batch_size=cfg.batch_size, learning_rate=cfg.learning_rate, beta=cfg.beta,
            max_nodes=cfg.max_nodes, seed=cfg.seed, mode=cfg.mode,
            policy=policy.PolicyConfig(mode=cfg.mode, **cfg.policy),
        )

    def train(self, steps: int, stop_fn=None, metrics_path=None, checkpoint_path=None):
        tcfg = self.trainer_config(steps)
        return training.train(
            tcfg, self.library, self.pockets,
            reward_fn=training.default_reward_fn(self.library, self.weights),
            metrics_path=metrics_path, checkpoint_path=checkpoint_path, stop_fn=stop_fn,
            extra_meta={"policy": dataclasses.asdict(tcfg.policy), "weights": list(self.cfg.weights)},
        )


class InferSetup:
    """Config, library, pocket and the checkpointed policy, as ``pocketgfn sample`` loads them."""

    def __init__(self, work: str):
        p = paths(work)
        self.paths = p
        self.cfg = cli.load_run_config(p["config"])
        self.cfg.validate()
        self.library = ligand.load_library(self.cfg.library_path())
        self.graph = pocket.build_knn_graph(pocket.load_pocket_jsonl(self.cfg.pocket_paths()[0]))
        self.policy, self.meta = cli._rebuild_policy(p["checkpoint"], self.library, None, {"pocket": self.graph})
        self.reward_fn = training.default_reward_fn(self.library, rewards.RewardWeights(*[float(w) for w in self.cfg.weights]))


class MaterializeMarks:
    """Timestamps the end of parameter materialization: the first step starts there."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []
        self.on_mark = None
        self._real = training._materialize_params

    def __enter__(self):
        real = self._real

        def marked(*args, **kwargs):
            out = real(*args, **kwargs)
            self.marks.append((perf_counter(), process_time()))
            if self.on_mark is not None:
                self.on_mark()
            return out

        training._materialize_params = marked
        return self

    def __exit__(self, *exc):
        training._materialize_params = self._real


def time_setup(workload: str, work: str) -> float:
    kind, _ = WORKLOADS[workload]
    if kind == "infer":
        InferSetup(work)
        return perf_counter() - T_START
    with MaterializeMarks() as m:
        TrainSetup(work).train(0)
    return m.marks[0][0] - T_START


# -- output checks ----------------------------------------------------------------


class Tally:
    """Operations attempted and failed; every output check is an operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)


def losses_finite(metrics_text: str) -> bool:
    rows = [json.loads(line) for line in metrics_text.splitlines() if line.strip()]
    return bool(rows) and all(isinstance(r.get("loss"), float) and math.isfinite(r["loss"]) for r in rows)


def molecule_problem(rec: dict, aps: dict[int, int]) -> str | None:
    """Why a sampled record is not a valid tree over the library, or None."""
    nodes, edges = rec.get("nodes"), rec.get("edges")
    if not isinstance(nodes, list) or not isinstance(edges, list) or not nodes:
        return "record needs nonempty nodes and an edge list"
    if len(nodes) > MAX_NODES:
        return f"{len(nodes)} nodes exceed the cap {MAX_NODES}"
    if any(fid not in aps for fid in nodes):
        return "unknown fragment id"
    if len(edges) != len(nodes) - 1:
        return "edge count is not nodes - 1"
    parent = list(range(len(nodes)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    used = set()
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 4):
            return "edge is not (i, ap_i, j, ap_j)"
        i, ap_i, j, ap_j = edge
        if not 0 <= i < j < len(nodes):
            return "edge endpoint out of range or unordered"
        for v, ap in ((i, ap_i), (j, ap_j)):
            if not 0 <= ap < aps[nodes[v]]:
                return "attachment point out of range"
            if (v, ap) in used:
                return "attachment point used twice"
            used.add((v, ap))
        ri, rj = find(i), find(j)
        if ri == rj:
            return "cycle"
        parent[ri] = rj
    return None


def molecules_ok(records: list[dict], library) -> tuple[int, bool, list[str]]:
    """(valid records, all unique by canonical key, the problems found)."""
    aps = {f.id: f.aps for f in library}
    problems = [molecule_problem(rec, aps) for rec in records]
    valid = [rec for rec, problem in zip(records, problems) if problem is None]
    keys = {ligand.canonical_key(ligand.state_from_record(rec)) for rec in valid}
    return len(valid), len(keys) == len(records), sorted({p for p in problems if p})


def distribution_ok(exact: dict, target: dict) -> bool:
    return set(exact) == set(target) and abs(math.fsum(exact.values()) - 1.0) <= 1e-9


def read_records(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- workloads ------------------------------------------------------------------


def min_reps(traced: bool) -> int:
    return UNTRACED_FIRST + 1 if traced else MIN_REPS


class Trace:
    """The traced half of a ``--trace 1`` run; a no-op holder when tracing is off."""

    def __init__(self):
        self.tracer = None

    def start(self):
        sys.path.insert(0, HERE)
        import spans as perftrace

        self.module = perftrace
        self.tracer = perftrace.Tracer(autodiff)
        perftrace.install(self.tracer, pocketgfn)

    def open(self, name):
        return self.tracer.open(name) if self.tracer else None

    def close(self, span):
        if self.tracer and span is not None:
            self.tracer.close(span)

    def stop(self):
        if self.tracer:
            self.tracer.restore()


def run_train(work: str, seconds: float, traced: bool, tally: Tally) -> dict:
    trace = Trace()
    with MaterializeMarks() as marks:
        setup = TrainSetup(work)
        steps = setup.cfg.steps
        reps = []  # per repetition: list of (wall, cpu) per step, metrics text, checkpoint digest
        setup_s = None
        t_measure = None
        state = {"span": None}
        stamps: list[tuple[float, float]] = []

        def open_op():
            state["span"] = trace.open("bench.op")

        def stop_fn(row):
            stamps.append((perf_counter(), process_time()))
            trace.close(state["span"])
            state["span"] = None
            if row["step"] + 1 < steps:
                open_op()
            return False

        marks.on_mark = open_op
        while True:
            rep = len(reps)
            if traced and rep == UNTRACED_FIRST:
                trace.start()
            metrics_path = os.path.join(work, f"rep{rep}.metrics.jsonl")
            ckpt_path = os.path.join(work, f"rep{rep}.checkpoint.json")
            stamps.clear()
            n_marks = len(marks.marks)
            try:
                result = setup.train(steps, stop_fn, metrics_path, ckpt_path)
                steps_run = result.steps_run
                del result
            except training.TrainingError as e:
                tally.op(False, f"training raised: {e}", steps)
                break
            if setup_s is None:
                setup_s = marks.marks[0][0] - T_START
                t_measure = marks.marks[0][0]
            prev = marks.marks[n_marks]
            ops = []
            for t, c in stamps:
                ops.append((t - prev[0], c - prev[1]))
                prev = (t, c)
            tally.op(steps_run == steps, f"rep {rep} ran {steps_run} of {steps} steps", steps)
            with open(metrics_path) as fh:
                metrics_text = fh.read()
            digest = sha256_file(ckpt_path)
            tally.op(losses_finite(metrics_text), f"rep {rep}: a loss is not finite")
            if reps:
                tally.op(metrics_text == reps[0]["metrics"], f"rep {rep}: metrics rows differ from rep 0")
                tally.op(digest == reps[0]["checkpoint"], f"rep {rep}: checkpoint bytes differ from rep 0")
            reps.append({"ops": ops, "metrics": metrics_text, "checkpoint": digest,
                         "checkpoint_bytes": os.path.getsize(ckpt_path), "traced": trace.tracer is not None})
            if rep > 0:
                os.remove(ckpt_path)
            elapsed = perf_counter() - t_measure
            rep_s = sum(w for w, _ in ops)
            if len(reps) >= min_reps(traced) and elapsed + rep_s > seconds:
                break
    trace.stop()
    if not reps:
        raise RuntimeError(f"no training repetition finished: {tally.failures}")

    # negative control: corrupted outputs must be counted as failed
    control = Tally()
    control.op(losses_finite(reps[0]["metrics"].replace('"loss": ', '"loss": NaN, "was": ', 1)), "nan loss")
    ckpt0 = os.path.join(work, "rep0.checkpoint.json")
    with open(ckpt0, "r+b") as fh:
        fh.seek(os.path.getsize(ckpt0) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(b"1" if byte != b"1" else b"2")
    control.op(sha256_file(ckpt0) == reps[0]["checkpoint"], "checkpoint bytes")

    out = {
        "setup_s": setup_s,
        "ops": [op for r in reps if not r["traced"] for op in r["ops"]],
        "reps": len(reps),
        "steps_per_rep": steps,
        "checkpoint_bytes": reps[0]["checkpoint_bytes"],
        "control": control,
    }
    if traced:
        traced_ops = [op for r in reps if r["traced"] for op in r["ops"]]
        out["trace"] = trace.module.summarize(trace.tracer, len(traced_ops))
        untraced_wall = sum(w for w, _ in reps[UNTRACED_FIRST - 1]["ops"])
        traced_wall = statistics.mean(sum(w for w, _ in r["ops"]) for r in reps if r["traced"])
        out["trace"]["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        out["trace"]["nn.checkpoint_bytes"] = reps[0]["checkpoint_bytes"]
    return out


def run_infer(work: str, seconds: float, traced: bool, tally: Tally) -> dict:
    trace = Trace()
    setup = InferSetup(work)
    setup_s = perf_counter() - T_START
    p = setup.paths
    config, library, graph = p["config"], setup.library, setup.graph
    mols = os.path.join(work, "molecules.jsonl")
    report = os.path.join(work, "report.json")
    cycles = []
    first = {}
    t_measure = perf_counter()
    while True:
        if traced and len(cycles) == UNTRACED_FIRST:
            trace.start()
        op_span = trace.open("bench.op")
        t0, c0 = perf_counter(), process_time()

        span = trace.open("bench.sample")
        rc, text = run_cli(["sample", "--config", config, "--checkpoint", p["checkpoint"], "--out", mols])
        trace.close(span)
        t1 = perf_counter()

        span = trace.open("bench.oracle")
        ctx = setup.policy.pocket_context(graph)
        exact = training.exact_terminal_distribution(setup.policy, ctx, library, ORACLE_MAX_NODES)
        target = training.target_distribution(graph, library, ORACLE_MAX_NODES, setup.reward_fn, setup.cfg.beta)
        tv = training.total_variation(exact, target)
        trace.close(span)
        t2 = perf_counter()

        span = trace.open("bench.evaluate")
        rc_eval, _ = run_cli(["evaluate", mols, *p["sets"], "--config", config, "--out", report])
        trace.close(span)
        t3, c3 = perf_counter(), process_time()
        trace.close(op_span)

        match = DRAWS_RE.search(text)
        draws = int(match.group(1)) if match else 0
        tally.op(rc == 0 and draws > 0, f"sample exited {rc}", max(draws, 1))
        records = read_records(mols) if rc == 0 else []
        valid, unique, problems = molecules_ok(records, library)
        total = len(records)
        tally.op(valid == total == SAMPLE_MOLECULES, f"{valid} valid of {total} sampled molecules: {problems}", max(total, 1))
        tally.op(unique, "sampled molecules are not unique by canonical key")
        tally.op(True, "oracle run")
        tally.op(distribution_ok(exact, target) and len(target) == ORACLE_MOLECULES,
                 f"model distribution sums to {math.fsum(exact.values())!r} over {len(exact)} keys, target {len(target)}")
        tally.op(rc_eval == 0, f"evaluate exited {rc_eval}", 1 + EVAL_SETS)
        digests = {"molecules": sha256_file(mols) if rc == 0 else None,
                   "report": sha256_file(report) if rc_eval == 0 else None, "tv": tv}
        if cycles:
            for key, value in digests.items():
                tally.op(value == first[key], f"cycle {len(cycles)}: {key} differs from cycle 0")
        else:
            first = digests
        n_scored = len(records) + EVAL_SETS * EVAL_SET_SIZE
        cycles.append({
            "wall": t3 - t0, "cpu": c3 - c0, "sample_s": t1 - t0, "oracle_s": t2 - t1, "evaluate_s": t3 - t2,
            "sample_mol_per_s": len(records) / (t1 - t0), "eval_mol_per_s": n_scored / (t3 - t2),
            "draws": draws, "unique": len(records), "oracle_molecules": len(exact), "tv": tv,
            "traced": trace.tracer is not None,
        })
        elapsed = perf_counter() - t_measure
        if len(cycles) >= min_reps(traced) and elapsed + cycles[-1]["wall"] > seconds:
            break

    # a saved copy of the loaded parameters must reproduce the checkpoint bytes
    round_trip = os.path.join(work, "round_trip.json")
    nn.save_checkpoint(round_trip, setup.policy.store, setup.meta)
    tally.op(sha256_file(round_trip) == sha256_file(p["checkpoint"]), "checkpoint round trip changed bytes")
    trace.stop()

    control = Tally()
    records = read_records(mols)
    bad = [dict(records[0], nodes=[999] + records[0]["nodes"][1:]), records[0]]
    valid, unique, _ = molecules_ok(records + bad, library)
    control.op(valid == len(records + bad), "unknown fragment id")
    control.op(unique, "duplicate molecule")
    skewed = dict(exact)
    skewed[next(iter(skewed))] *= 1.0 + 1e-6
    control.op(distribution_ok(skewed, target), "model distribution mass")
    corrupt_path = os.path.join(work, "corrupt.jsonl")
    with open(corrupt_path, "w") as fh:
        fh.write(json.dumps(bad[0]) + "\n")
    rc_bad, _ = run_cli(["evaluate", corrupt_path, "--config", config])
    control.op(rc_bad == 0, "evaluate of a corrupted file")

    untraced = [c for c in cycles if not c["traced"]]
    out = {
        "setup_s": setup_s,
        "ops": [(c["wall"], c["cpu"]) for c in untraced],
        "cycles": cycles,
        "checkpoint_bytes": os.path.getsize(p["checkpoint"]),
        "control": control,
    }
    if traced:
        traced_cycles = [c for c in cycles if c["traced"]]
        summary = trace.module.summarize(trace.tracer, len(traced_cycles))
        summary["trace.overhead_frac"] = statistics.mean(c["wall"] for c in traced_cycles) / untraced[-1]["wall"] - 1.0
        summary["nn.checkpoint_bytes"] = out["checkpoint_bytes"]
        warm = untraced[-1]
        summary["ligand.oracle_molecules"] = warm["oracle_molecules"]
        summary["cli.sample_unique_frac"] = warm["unique"] / max(warm["draws"], 1)
        summary["cli.sample_mol_per_s"] = warm["sample_mol_per_s"]
        summary["training.oracle_s"] = warm["oracle_s"]
        summary["cli.eval_mol_per_s"] = warm["eval_mol_per_s"]
        out["trace"] = summary
    return out


# -- environment ------------------------------------------------------------------


def blas_info() -> dict:
    info = {"library": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = deps.get("name"), deps.get("version")
    except (KeyError, TypeError):
        pass
    try:
        import ctypes
        import glob

        # numpy wheels ship their BLAS next to the package; loading it again
        # returns the handle numpy already uses
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
            dll = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def src_digest() -> str:
    h = hashlib.sha256()
    base = os.path.join(SRC, "pocketgfn")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json", ".jsonl")):
                full = os.path.join(dirpath, name)
                h.update(os.path.relpath(full, base).encode())
                h.update(b"\0")
                with open(full, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "src_sha256": src_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["inputs", "setup", "run"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if args.mode == "inputs":
        result = make_inputs(args.workload, args.seed, args.work)
    elif args.mode == "setup":
        result = {"setup_s": time_setup(args.workload, args.work)}
    else:
        tally = Tally()
        kind, _ = WORKLOADS[args.workload]
        runner = run_train if kind == "train" else run_infer
        result = runner(args.work, args.seconds, bool(args.trace), tally)
        control = result.pop("control")
        # a corrupted output that a check lets through means the check is broken
        missed = control.attempted - control.failed
        tally.op(missed == 0, f"negative control: {missed} corrupted outputs passed their checks", max(missed, 1))
        result.update({
            "attempted": tally.attempted,
            "failed": tally.failed,
            "failures": tally.failures,
            "negative_control": {"corrupted": control.attempted, "flagged": control.failed},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
