"""Rewrite ``tests/artifact_ledger.json``, the artifact hashes that
``tests/test_artifact_ledger.py`` recomputes.

Run from the repository root:

    PYTHONPATH=src python3 experiments/record_ledger.py

The ledger holds one row per environment (numpy version, BLAS setting,
Python version, machine); this replaces the row of the running environment
and keeps the others. Each row holds the sha256 of:

- per mode, the checkpoint, metrics and molecules of a default-config
  ``pocketgfn train --mode M --steps 3`` followed by ``pocketgfn sample --n 24``;
- the molecules and the evaluate report of one seed-0 infer-baseline
  benchmark cycle: ``perfbench/worker.py``'s inputs, ``sample``, then
  ``evaluate`` of the sample and the two random sets. Every path is relative
  to the cycle's working directory, so the report names no absolute path.

A change that rewrites a row says why in ``CHANGES.md`` and quotes the old
and new hashes.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from pocketgfn import cli, training

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "artifact_ledger.json"
WORKER = ROOT / "perfbench" / "worker.py"
MODES = ("baseline", "trioformer")


def environment() -> dict:
    """What the artifact bytes may depend on beyond the source."""
    return {
        "numpy": np.__version__,
        "blas": training.blas_setting(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"pocketgfn {' '.join(argv)} exited {rc}")


@contextlib.contextmanager
def _working_directory(path: str):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _benchmark_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def artifacts() -> dict[str, str]:
    """The sha256 of every ledger artifact, computed in a temporary directory."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in MODES:
            os.mkdir(os.path.join(tmp, mode))
            with _working_directory(os.path.join(tmp, mode)):
                _run(["train", "--mode", mode, "--steps", "3"])
                _run(["sample", "--n", "24"])
                for name, path in (("checkpoint", "checkpoint.json"), ("metrics", "checkpoint.metrics.jsonl"),
                                   ("molecules", "molecules.jsonl")):
                    hashes[f"{mode}/{name}"] = _sha256(path)
        worker = _benchmark_worker()
        os.mkdir(os.path.join(tmp, "infer"))
        with _working_directory(os.path.join(tmp, "infer")):
            with contextlib.redirect_stdout(io.StringIO()):
                worker.make_inputs("infer-baseline", 0, ".")
            p = worker.paths(".")
            _run(["sample", "--config", p["config"], "--checkpoint", p["checkpoint"], "--out", "molecules.jsonl"])
            _run(["evaluate", "molecules.jsonl", *p["sets"], "--config", p["config"], "--out", "report.json"])
            hashes["infer-baseline/molecules"] = _sha256("molecules.jsonl")
            hashes["infer-baseline/report"] = _sha256("report.json")
    return hashes


def main() -> int:
    rows = json.loads(LEDGER.read_text())["rows"] if LEDGER.exists() else []
    env = environment()
    row = {"environment": env, "artifacts": artifacts()}
    rows = [r for r in rows if r["environment"] != env] + [row]
    LEDGER.write_text(json.dumps({"rows": rows}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(row, indent=1, sort_keys=True))
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
