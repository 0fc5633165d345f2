"""pocketgfn benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-baseline --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each run starts fresh worker processes
(see worker.py): one makes the seeded inputs, a few time set-up alone, and
one sets up again and measures. With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run. Everything the run writes goes under ``.bench_build/`` in the
checkout and is removed at the end. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("train-baseline", "train-trioformer", "infer-baseline")
SETUP_PROBES = 4  # set-up is timed in these extra processes and in the measuring one
DEADLINE_S = 170.0  # the whole run, every process included
TRAFFIC = ("training.traj_len_mean", "training.cap_hit_frac", "ligand.oracle_states",
           "ligand.oracle_molecules", "cli.sample_draws", "cli.sample_unique_frac")


class BenchError(RuntimeError):
    pass


def call_worker(mode: str, args: argparse.Namespace, work: str, deadline: float, extra=()) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload, "--seed", str(args.seed), "--work", work, *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metric_specs() -> tuple[dict, dict]:
    with open(SPEC) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]})


def traffic_flags(workload: str, seed: int, counts: dict) -> dict:
    """Compare work counts with the seed-commit reference in reference.json.

    Without a reference for this seed, only the counts that were equal for
    every recorded seed are compared: those do not depend on the seed.
    """
    try:
        with open(REFERENCE) as fh:
            by_seed = json.load(fh)["traffic"][workload]
    except (OSError, KeyError, ValueError):
        return {"reference": None}
    ref = by_seed.get(str(seed))
    source = f"seed commit, seed {seed}"
    if ref is None:
        first, *rest = by_seed.values()
        ref = {k: v for k, v in first.items() if all(r.get(k) == v for r in rest)}
        source = "seed commit, counts equal for every recorded seed"
    changed = {k: {"reference": ref[k], "now": counts[k]} for k in ref
               if k in counts and abs(counts[k] - ref[k]) > 1e-9 * max(1.0, abs(ref[k]))}
    return {"reference": source, "compared": sorted(k for k in ref if k in counts), "changed": changed}


def measure(args: argparse.Namespace, work: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    e2e_units, layer_units = metric_specs()
    inputs = call_worker("inputs", args, work, deadline)
    setups = []
    if not args.trace:
        setups = [call_worker("setup", args, work, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = call_worker("run", args, work, deadline, ["--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append(res["setup_s"])
    walls = [w for w, _ in res["ops"]]
    cpus = [c for _, c in res["ops"]]
    values = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(walls),
        "op_cpu_s": statistics.median(cpus),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "environment": res["environment"],
        "inputs": inputs,
        "setup_s_samples": setups,
        "op_samples": len(walls),
        "op_s_samples": walls,
        "op_cpu_s_samples": cpus,
        "cpu_per_wall": sum(cpus) / sum(walls),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "negative_control": res["negative_control"],
        "checkpoint_bytes": res["checkpoint_bytes"],
    }
    if "cycles" in res:
        report["cycles"] = res["cycles"]
        untraced = [c for c in res["cycles"] if not c["traced"]]
        for key in ("sample_mol_per_s", "oracle_s", "eval_mol_per_s"):
            report[key] = statistics.median(c[key] for c in untraced)
        report["traffic"] = {"ligand.oracle_molecules": untraced[0]["oracle_molecules"],
                             "cli.sample_draws": untraced[0]["draws"],
                             "cli.sample_unique_frac": untraced[0]["unique"] / max(untraced[0]["draws"], 1)}
    if args.trace:
        layers = res["trace"]
        report["layers"] = layers.pop("_layers")
        report["per_layer"] = layers
        report["traffic"] = {k: layers[k] for k in TRAFFIC if k in layers}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in e2e_units.items()}
    if "traffic" in report:
        report["traffic_flags"] = traffic_flags(args.workload, args.seed, report["traffic"])
    return report, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "pocketgfn", "__init__.py")):
        print(f"error: no pocketgfn sources under {os.path.join(ROOT, 'src')}; run from a full checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch)
    try:
        report, metrics = measure(args, work)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
