import json
import math

import numpy as np
import pytest

from pocketgfn.cli import (
    ConfigError,
    RunConfig,
    load_run_config,
    main,
)
from pocketgfn.ligand import desk_library, state_from_record, toy_library
from pocketgfn.pocket import build_knn_graph, load_pocket_jsonl, save_pocket_jsonl, synthetic_pocket
from pocketgfn.policy import PolicyConfig
from pocketgfn.rewards import diversity, docking_score, qed_proxy, sa_proxy, top_k_mean
from pocketgfn.training import TrainerConfig, train

SMALL_POLICY = {
    "width": 16, "n_layers": 1, "n_heads": 2, "frag_emb_dim": 4,
    "pocket_width": 8, "pocket_layers": 1, "trio_layers": 1,
    "trio_heads": 2, "trio_head_dim": 4, "trio_c_pair": 8,
}


@pytest.fixture
def workdir(tmp_path):
    cfg = {
        "pocket_file": "bundled:compact",
        "library_file": "bundled:toy",
        "checkpoint": str(tmp_path / "ckpt.json"),
        "metrics": str(tmp_path / "metrics.jsonl"),
        "steps": 3,
        "batch_size": 4,
        "max_nodes": 2,
        "seed": 1,
        "n_molecules": 3,
        "policy": SMALL_POLICY,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return tmp_path, path, cfg


def write_cfg(tmp_path, name, **updates):
    base = {
        "pocket_file": "bundled:compact",
        "library_file": "bundled:toy",
        "checkpoint": str(tmp_path / "ckpt.json"),
        "metrics": str(tmp_path / "metrics.jsonl"),
        "steps": 3, "batch_size": 4, "max_nodes": 2, "seed": 1,
        "n_molecules": 3, "policy": SMALL_POLICY,
    }
    base.update(updates)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


class TestRunConfig:
    def test_defaults_pass_validation(self):
        RunConfig().validate()

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"stepz": 5}))
        with pytest.raises(ConfigError, match="stepz"):
            load_run_config(str(path))

    def test_bad_type_names_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"steps": "many"}))
        with pytest.raises(ConfigError, match="'steps'"):
            load_run_config(str(path)).validate()

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param(name, True, id=name) for name in (
            "steps", "batch_size", "max_nodes", "seed", "n_molecules", "top_k", "retry_cap",
            "learning_rate", "beta",
        )]
        + [pytest.param("policy", {key: bad}, id=f"policy-{key}-{bad!r}")
           for key, bad in (("width", 0), ("width", "64"), ("n_heads", 0), ("width", 10), ("n_layers", True))],
    )
    def test_boolean_integer_field_exit_2(self, tmp_path, capsys, name, value):
        # bool is a subclass of int; true must not pass as 1, nor may a
        # malformed policy override reach training
        cfg = write_cfg(tmp_path, "c.json", **{name: value})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err

    def test_bad_weights_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"weights": [0.9, 0.9, 0.9]}))
        with pytest.raises(ConfigError, match="'weights'"):
            load_run_config(str(path)).validate()

    def test_missing_pocket_file_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"pocket_file": str(tmp_path / "nope.jsonl")}))
        with pytest.raises(ConfigError, match="nope.jsonl"):
            load_run_config(str(path)).validate()

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(str(path))

    def test_unknown_policy_override_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"policy": {"depth": 3}}))
        with pytest.raises(ConfigError, match="depth"):
            load_run_config(str(path)).validate()

    def test_bundled_names_resolve(self):
        cfg = RunConfig(pocket_file="bundled:wide", library_file="bundled:desk")
        cfg.validate()
        assert cfg.pocket_paths()[0].endswith("pocket_wide.jsonl")

    def test_unknown_bundled_name(self):
        cfg = RunConfig(pocket_file="bundled:tiny")
        with pytest.raises(ConfigError, match="tiny"):
            cfg.validate()


class TestTrainCommand:
    def test_train_writes_artifacts(self, workdir, capsys):
        tmp_path, cfg_path, cfg = workdir
        assert main(["train", "--config", str(cfg_path)]) == 0
        rows = [json.loads(l) for l in (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == 3
        ckpt = json.loads((tmp_path / "ckpt.json").read_text())
        assert ckpt["__meta__"]["mode"] == "baseline"
        assert ckpt["__meta__"]["policy"]["width"] == 16

    def test_steps_zero_checkpoint_is_initialization(self, tmp_path):
        a = write_cfg(tmp_path, "a.json", steps=0, checkpoint=str(tmp_path / "a_ck.json"),
                      metrics=str(tmp_path / "a_m.jsonl"))
        b = write_cfg(tmp_path, "b.json", steps=0, checkpoint=str(tmp_path / "b_ck.json"),
                      metrics=str(tmp_path / "b_m.jsonl"))
        assert main(["train", "--config", str(a)]) == 0
        assert main(["train", "--config", str(b)]) == 0
        da = json.loads((tmp_path / "a_ck.json").read_text())
        db = json.loads((tmp_path / "b_ck.json").read_text())
        assert da["__checksum__"] == db["__checksum__"]
        assert (tmp_path / "a_m.jsonl").read_text() == ""

    def test_same_seed_byte_identical_metrics(self, tmp_path):
        for tag in ("x", "y"):
            cfg = write_cfg(
                tmp_path, f"{tag}.json",
                checkpoint=str(tmp_path / f"{tag}_ck.json"),
                metrics=str(tmp_path / f"{tag}_m.jsonl"),
            )
            assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "x_m.jsonl").read_bytes() == (tmp_path / "y_m.jsonl").read_bytes()

    def test_missing_pocket_file_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", pocket_file=str(tmp_path / "gone.jsonl"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "gone.jsonl" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", steps=50)
        assert main(["train", "--config", str(cfg), "--steps", "2"]) == 0
        rows = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(rows) == 2

    def test_bad_weights_flag_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json")
        assert main(["train", "--config", str(cfg), "--weights", "0.5,banana,0.25"]) == 2
        assert "weights" in capsys.readouterr().err


class TestSampleCommand:
    def run_train(self, tmp_path, cfg_path):
        assert main(["train", "--config", str(cfg_path)]) == 0

    def test_sample_unique_canonical_records(self, workdir):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        out = tmp_path / "mols.jsonl"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(recs) == 3
        keys = {json.dumps([r["nodes"], r["edges"]]) for r in recs}
        assert len(keys) == 3
        for r in recs:
            assert set(r) == {"nodes", "edges", "ds", "qed", "sa"}

    def test_n_one_single_record(self, workdir):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        out = tmp_path / "one.jsonl"
        assert main(["sample", "--config", str(cfg_path), "--n", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_fixed_seed_identical_file(self, workdir):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        outs = []
        for tag in ("m1", "m2"):
            out = tmp_path / f"{tag}.jsonl"
            assert main(["sample", "--config", str(cfg_path), "--seed", "9", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_retry_cap_partial_output_warning_exit(self, tmp_path, capsys):
        # toy library at cap 2 has only 5 molecules; asking for 6 must exhaust retries
        cfg = write_cfg(tmp_path, "c.json", n_molecules=6, retry_cap=30)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "mols.jsonl"
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "warning" in err and "partial" in err
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert 1 <= len(recs) <= 5

    def test_mode_mismatch_exit_2(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        assert main(["sample", "--config", str(cfg_path), "--mode", "trioformer"]) == 2
        assert "mode" in capsys.readouterr().err

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", checkpoint=str(tmp_path / "absent.json"))
        assert main(["sample", "--config", str(cfg)]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_corrupted_checkpoint_exit_2(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        name = next(k for k in doc if not k.startswith("__"))
        doc[name]["data"][0] += 0.5
        (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        assert main(["sample", "--config", str(cfg_path)]) == 2
        assert "integrity" in capsys.readouterr().err

    def test_non_object_checkpoint_exit_2(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        (tmp_path / "ckpt.json").write_text("[1, 2]")
        assert main(["sample", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON object" in err

    def test_checkpoint_missing_meta_field_exit_2(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        del doc["__meta__"]["policy"]  # meta is outside the parameter checksum
        (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        assert main(["sample", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'policy'" in err

    def test_library_trained_checkpoint_samples(self, workdir):
        tmp_path, cfg_path, cfg = workdir
        pocket = build_knn_graph(load_pocket_jsonl(RunConfig(pocket_file="bundled:compact").pocket_paths()[0]))
        trainer_cfg = TrainerConfig(steps=1, batch_size=2, max_nodes=cfg["max_nodes"], seed=cfg["seed"],
                                    policy=PolicyConfig(**SMALL_POLICY))
        train(trainer_cfg, toy_library(), {"pocket_compact": pocket}, checkpoint_path=cfg["checkpoint"])
        out = tmp_path / "mols.jsonl"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == cfg["n_molecules"]


class TestEvaluateCommand:
    def make_molecules(self, tmp_path, cfg_path):
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "mols.jsonl"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
        return out

    def test_report_matches_recomputation(self, workdir, capsys):
        tmp_path, cfg_path, cfg = workdir
        mols = self.make_molecules(tmp_path, cfg_path)
        report_path = tmp_path / "report.json"
        assert main([
            "evaluate", str(mols), "--config", str(cfg_path), "--out", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        library = toy_library()
        graph = build_knn_graph(load_pocket_jsonl(RunConfig(pocket_file="bundled:compact").pocket_paths()[0]))
        states = [state_from_record(json.loads(l)) for l in mols.read_text().splitlines()]
        ds = [docking_score(graph, s, library) for s in states]
        assert report["metrics"]["ds_mean"]["mean"] == pytest.approx(np.mean(ds), abs=0)
        assert report["metrics"]["ds_top10_mean"]["mean"] == pytest.approx(top_k_mean(ds, 10), abs=0)
        assert report["metrics"]["diversity"]["mean"] == pytest.approx(diversity(states), abs=0)
        assert report["metrics"]["qed_mean"]["mean"] == pytest.approx(np.mean([qed_proxy(s) for s in states]), abs=0)
        assert report["metrics"]["sa_mean"]["mean"] == pytest.approx(np.mean([sa_proxy(s) for s in states]), abs=0)
        assert report["metrics"]["ds_mean"]["se"] == 0.0  # single set

    def test_identical_sets_zero_se(self, workdir):
        tmp_path, cfg_path, _ = workdir
        mols = self.make_molecules(tmp_path, cfg_path)
        copies = []
        for k in range(5):
            c = tmp_path / f"set{k}.jsonl"
            c.write_bytes(mols.read_bytes())
            copies.append(str(c))
        report_path = tmp_path / "report.json"
        assert main(["evaluate", *copies, "--config", str(cfg_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n_sets"] == 5
        for name, row in report["metrics"].items():
            assert row["se"] == 0.0, name

    def test_identical_molecules_zero_diversity(self, workdir):
        tmp_path, cfg_path, _ = workdir
        rec = {"nodes": [0], "edges": []}
        mols = tmp_path / "same.jsonl"
        mols.write_text("\n".join(json.dumps(rec) for _ in range(4)) + "\n")
        report_path = tmp_path / "r.json"
        assert main(["evaluate", str(mols), "--config", str(cfg_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["metrics"]["diversity"]["mean"] == 0.0

    def test_malformed_record_names_line(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        mols = tmp_path / "bad.jsonl"
        mols.write_text('{"nodes": [0], "edges": []}\n{oops\n')
        assert main(["evaluate", str(mols), "--config", str(cfg_path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_unknown_fragment_id_names_line(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        mols = tmp_path / "bad.jsonl"
        mols.write_text('{"nodes": [99], "edges": []}\n')
        assert main(["evaluate", str(mols), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert ":1:" in err and "99" in err

    @pytest.mark.parametrize("rec, problem", [
        # a hydroxyl has one attachment point; this ring reuses it and closes a cycle
        ({"nodes": [1, 1, 1], "edges": [[0, 0, 1, 0], [1, 0, 2, 0], [0, 0, 2, 0]]}, "used twice"),
        ({"nodes": [0, 0, 0, 1], "edges": [[0, 0, 1, 0], [1, 1, 2, 0], [0, 1, 2, 1]]}, "cycle"),
        ({"nodes": [1, 0, 0], "edges": [[0, 0, 1, 0], [0, 0, 2, 0]]}, "used twice"),
    ], ids=["ring", "cycle", "reused-ap"])
    def test_non_tree_record_names_line(self, tmp_path, capsys, rec, problem):
        cfg_path = write_cfg(tmp_path, "c.json", library_file="bundled:desk")
        mols = tmp_path / "bad.jsonl"
        mols.write_text('{"nodes": [0], "edges": []}\n' + json.dumps(rec) + "\n")
        assert main(["evaluate", str(mols), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert ":2:" in err and problem in err

    def test_tampered_scores_detected(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        mols = self.make_molecules(tmp_path, cfg_path)
        lines = mols.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["ds"] = rec["ds"] + 1.0
        lines[0] = json.dumps(rec)
        mols.write_text("\n".join(lines) + "\n")
        assert main(["evaluate", str(mols), "--config", str(cfg_path)]) == 2
        assert "disagrees" in capsys.readouterr().err


class TestSelfcheckCommand:
    def test_fast_selfcheck_passes(self, capsys):
        assert main(["selfcheck", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "all 9 suites passed" in out
        for name in ("gradient-primitives", "bias-ablation", "proportional-sampling", "checkpoint-integrity"):
            assert name in out
