"""Importing pocketgfn pins numpy's BLAS to one thread, so checkpoint bytes
do not depend on the thread count the environment asks for."""

import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pocketgfn
from pocketgfn.ligand import toy_library
from pocketgfn.nn import load_checkpoint
from pocketgfn.pocket import build_knn_graph, synthetic_pocket
from pocketgfn.policy import PolicyConfig
from pocketgfn.training import TrainerConfig, train

SRC = os.path.dirname(os.path.dirname(os.path.abspath(pocketgfn.__file__)))


def _bundled_openblas(symbols):
    """The first of ``symbols`` in an OpenBLAS in numpy's ``numpy.libs``, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in names:
        if "openblas" in name:
            dll = ctypes.CDLL(os.path.join(libs, name))
            for symbol in symbols:
                fn = getattr(dll, symbol, None)
                if fn is not None:
                    return fn
    return None


GET_THREADS = _bundled_openblas(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"))
SET_THREADS = _bundled_openblas(("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"))
needs_bundled_openblas = pytest.mark.skipif(
    GET_THREADS is None or SET_THREADS is None, reason="numpy ships no OpenBLAS in numpy.libs")


def _train_toy(path):
    cfg = TrainerConfig(steps=1, batch_size=2, max_nodes=2, policy=PolicyConfig(width=8, n_layers=1, n_heads=2,
                        frag_emb_dim=4, pocket_width=8, pocket_layers=1))
    pocket = build_knn_graph(synthetic_pocket(6, 2.0, seed=0))
    train(cfg, toy_library(), {"p": pocket}, checkpoint_path=str(path))
    return load_checkpoint(str(path))[1]


@needs_bundled_openblas
def test_import_pins_bundled_openblas_to_one_thread(tmp_path):
    assert pocketgfn.BLAS_PINNED
    assert GET_THREADS() == 1
    assert "blas" not in _train_toy(tmp_path / "ck.json")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: OpenBLAS runs one thread whatever it is asked")
def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"library_file": "bundled:desk", "mode": "trioformer", "steps": 3, "batch_size": 4}))
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = tmp_path / f"ck{threads}.json"
        cmd = [sys.executable, "-m", "pocketgfn", "train", "--config", str(cfg), "--out", str(out)]
        runs[out] = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for proc in runs.values():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    one, two = runs
    assert one.read_bytes() == two.read_bytes()
    assert one.with_suffix(".metrics.jsonl").read_bytes() == two.with_suffix(".metrics.jsonl").read_bytes()


@needs_bundled_openblas
def test_no_entry_point_leaves_threads_and_records_blas(tmp_path, monkeypatch):
    SET_THREADS(2)
    asked = GET_THREADS()  # 2, unless the machine caps it
    try:
        monkeypatch.setattr(pocketgfn, "BLAS_SET_THREADS_SYMBOLS", ("no_such_symbol",))
        assert pocketgfn._pin_blas_to_one_thread() is False
        assert GET_THREADS() == asked
    finally:
        SET_THREADS(1)
    monkeypatch.setattr(pocketgfn, "BLAS_PINNED", False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    blas = _train_toy(tmp_path / "ck.json")["blas"]
    assert blas == {"library": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
                    "thread_env": {"OPENBLAS_NUM_THREADS": "2"}}
