import base64
import contextlib
import dataclasses
import io
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pocketgfn import cli, nn
from pocketgfn.cli import (
    BUNDLED_POCKETS,
    ConfigError,
    RunConfig,
    _rebuild_policy,
    load_run_config,
    main,
    resolve_bundled,
)
from pocketgfn.ligand import (
    AddFragment,
    apply_action,
    canonical_key,
    desk_library,
    initial_state,
    legal_actions,
    state_from_record,
    toy_library,
)
from pocketgfn.pocket import build_knn_graph, load_pocket_jsonl, save_pocket_jsonl, synthetic_pocket
from pocketgfn.policy import PolicyConfig
from pocketgfn.rewards import diversity, docking_score, qed_proxy, sa_proxy, top_k_mean
from pocketgfn.training import TrainerConfig, sample_trajectory, train

SMALL_POLICY = {
    "width": 16, "n_layers": 1, "n_heads": 2, "frag_emb_dim": 4,
    "pocket_width": 8, "pocket_layers": 1, "trio_layers": 1,
    "trio_heads": 2, "trio_head_dim": 4, "trio_c_pair": 8,
}


def _floats(entry):
    """The floats of a checkpoint parameter entry (read-only)."""
    return np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")


def _base64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _resign(doc):
    """Set a checkpoint document's checksum to match its other keys."""
    doc["__checksum__"] = nn._checksum({k: v for k, v in doc.items() if k != "__checksum__"})


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

    @pytest.mark.parametrize("argv, name, value", [
        pytest.param(argv, name, value, id=name) for argv, name, value in (
            (["train", "--seed", "5"], "seed", 5),
            (["train", "--steps", "2"], "steps", 2),
            (["train", "--mode", "trioformer"], "mode", "trioformer"),
            (["train", "--weights", "0.2,0.3,0.5"], "weights", [0.2, 0.3, 0.5]),
            (["sample", "--pocket", "bundled:wide"], "pocket_file", "bundled:wide"),
            (["sample", "--checkpoint", "other.json"], "checkpoint", "other.json"),
            (["sample", "--n", "7"], "n_molecules", 7),
            (["evaluate", "m.jsonl", "--top-k", "4"], "top_k", 4),
        )
    ])
    def test_flag_lands_in_its_field(self, tmp_path, argv, name, value):
        path = write_cfg(tmp_path, "c.json")
        from_file = load_run_config(str(path))
        cfg = load_run_config(str(path), cli.build_parser().parse_args(argv))
        assert getattr(from_file, name) != value
        assert dataclasses.replace(from_file, **{name: value}) == cfg

    @pytest.mark.parametrize("argv", [
        pytest.param(argv, id=f"{argv[0]}{argv[-2]}") for argv in (
            ["sample", "--steps", "2"],
            ["sample", "--weights", "0.2,0.3,0.5"],
            ["evaluate", "m.jsonl", "--seed", "5"],
            ["evaluate", "m.jsonl", "--steps", "2"],
            ["evaluate", "m.jsonl", "--mode", "trioformer"],
            ["evaluate", "m.jsonl", "--weights", "0.2,0.3,0.5"],
        )
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"stepz": 5}))
        with pytest.raises(ConfigError, match="stepz"):
            load_run_config(str(path))

    def test_bad_type_names_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"steps": "many"}))
        with pytest.raises(ConfigError, match="'steps'"):
            load_run_config(str(path)).trainer_config()

    @pytest.mark.parametrize(
        "name, value",
        [pytest.param(name, True, id=name) for name in (
            "steps", "batch_size", "max_nodes", "seed", "n_molecules", "top_k", "retry_cap",
            "learning_rate", "beta",
        )]
        + [pytest.param("policy", {key: bad}, id=f"policy-{key}-{bad!r}")
           for key, bad in (("width", 0), ("width", "64"), ("n_heads", 0), ("width", 10), ("n_layers", True))]
        + [pytest.param("learning_rate", math.inf, id="learning_rate-inf"),
           pytest.param("beta", math.inf, id="beta-inf"),
           pytest.param("learning_rate", 2**1024, id="learning_rate-beyond-float"),
           pytest.param("weights", [math.nan, 0.0, 0.0], id="weights-nan"),
           pytest.param("seed", -1, id="seed-negative"),
           pytest.param("mode", "geometric", id="mode-geometric")],
    )
    def test_boolean_integer_field_exit_2(self, tmp_path, capsys, name, value):
        # bool is a subclass of int; true must not pass as 1, nor may a
        # malformed policy override or a non-finite number reach training
        cfg = write_cfg(tmp_path, "c.json", **{name: value})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err

    @pytest.mark.parametrize("command", ["train", "sample"])
    @pytest.mark.parametrize("name, value", [("learning_rate", 0), ("batch_size", 0), ("mode", "geometric")])
    def test_training_field_checked_by_train_and_sample(self, tmp_path, capsys, command, name, value):
        cfg = write_cfg(tmp_path, "c.json", **{name: value})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err and "Traceback" not in err, err

    @pytest.mark.parametrize("name, value", [("learning_rate", 0), ("steps", -1), ("beta", "high"), ("seed", True)])
    def test_evaluate_ignores_training_fields(self, tmp_path, capsys, name, value):
        # evaluate reads the pocket, the library, top_k and the molecule files only
        cfg = write_cfg(tmp_path, "c.json", library_file="bundled:desk", **{name: value})
        mols = tmp_path / "mols.jsonl"
        mols.write_text(_molecule([0], []))
        assert main(["evaluate", str(mols), "--config", str(cfg), "--out", str(tmp_path / "report.json")]) == 0
        assert json.loads((tmp_path / "report.json").read_text())

    @pytest.mark.parametrize("command", ["train", "sample"])
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, "c.json")
        assert main([command, "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'seed'" in err and "Traceback" not in err, err

    def test_bad_weights_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"weights": [0.9, 0.9, 0.9]}))
        with pytest.raises(ConfigError, match="'weights'"):
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

    def test_lockstep_draws_match_one_at_a_time(self, tmp_path, capsys):
        # toy library at cap 2 has 5 molecules, so 4 unique ones take repeat draws
        cfg = write_cfg(tmp_path, "c.json", n_molecules=4, retry_cap=30)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "mols.jsonl"
        capsys.readouterr()
        assert main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        draws = int(re.search(r", (\d+) draws\)", capsys.readouterr().out).group(1))
        library = toy_library()
        graph = build_knn_graph(load_pocket_jsonl(resolve_bundled("bundled:compact", BUNDLED_POCKETS, "pocket")))
        policy, _ = _rebuild_policy(str(tmp_path / "ckpt.json"), library, None, {"p": graph})
        ctx = policy.pocket_context(graph)
        keys, attempts = [], 0
        while len(keys) < 4:
            traj = sample_trajectory(policy, ctx, "p", np.random.default_rng([1, attempts]), 2, library)
            attempts += 1
            if canonical_key(traj.states[-1]) not in keys:
                keys.append(canonical_key(traj.states[-1]))
        assert attempts > 4  # more than one lockstep round
        assert draws == attempts
        assert [canonical_key(state_from_record(json.loads(line))) for line in out.read_text().splitlines()] == keys

    def test_mode_mismatch_exit_2(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        assert main(["sample", "--config", str(cfg_path), "--mode", "trioformer"]) == 2
        assert "mode" in capsys.readouterr().err

    @pytest.mark.parametrize("trained, asked", [("baseline", "trioformer"), ("trioformer", "baseline")])
    def test_config_mode_disagreeing_with_checkpoint_exit_2(self, tmp_path, capsys, trained, asked):
        # the config file's mode is checked as --mode is, and both are named
        assert main(["train", "--config", str(write_cfg(tmp_path, "train.json", mode=trained))]) == 0
        capsys.readouterr()
        cfg = write_cfg(tmp_path, "c.json", mode=asked)
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "mols.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(asked) in err and repr(trained) in err, err
        assert not (tmp_path / "mols.jsonl").exists()

    @pytest.mark.parametrize("trained", ["baseline", "trioformer"])
    def test_config_without_mode_samples_either_kind(self, tmp_path, trained):
        assert main(["train", "--config", str(write_cfg(tmp_path, "train.json", mode=trained))]) == 0
        for name, mode in (("unnamed.json", {}), ("named.json", {"mode": trained})):
            out = tmp_path / f"{name}.mols.jsonl"
            assert main(["sample", "--config", str(write_cfg(tmp_path, name, **mode)), "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 3

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", checkpoint=str(tmp_path / "absent.json"))
        assert main(["sample", "--config", str(cfg)]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_corrupted_checkpoint_exit_2(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        name = next(k for k in doc if not k.startswith("__"))
        values = _floats(doc[name]).copy()
        values[0] += 0.5  # one float changed, the checksum left as it was
        doc[name]["data"] = _base64(values.tobytes())
        (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        assert main(["sample", "--config", str(cfg_path)]) == 2
        assert "integrity" in capsys.readouterr().err

    def test_non_object_checkpoint_exit_2(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        (tmp_path / "ckpt.json").write_text("[1, 2]")
        assert main(["sample", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON object" in err

    def test_edited_meta_fails_integrity_exit_2(self, workdir, capsys):
        # trained at cap 2: sampling at cap 5 would give another sampler
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        text = (tmp_path / "ckpt.json").read_text()
        assert text.count('"max_nodes": 2') == 1
        (tmp_path / "ckpt.json").write_text(text.replace('"max_nodes": 2', '"max_nodes": 5'))
        assert main(["sample", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "failed its integrity check" in err, err

    def test_checkpoint_missing_meta_field_exit_2(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        self.run_train(tmp_path, cfg_path)
        doc = json.loads((tmp_path / "ckpt.json").read_text())
        del doc["__meta__"]["policy"]
        _resign(doc)  # the meta is under the checksum; the field check must still name it
        (tmp_path / "ckpt.json").write_text(json.dumps(doc))
        assert main(["sample", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'policy'" in err

    @pytest.mark.parametrize("name, edit, named", [
        # ids 0-3 become 0, 1, 2, 5: same count, so every parameter shape still fits
        pytest.param("cyclohexane", {"id": 5}, "it has no fragment 3", id="fragment-id"),
        # max_aps stays 3, so every parameter shape still fits too
        pytest.param("hydroxyl", {"aps": 2}, "fragment 1 ('hydroxyl') has 2 attachment points, "
                     "and the checkpoint was trained with 1", id="attachment-count"),
    ])
    def test_edited_library_exit_2_naming_the_fragment(self, tmp_path, capsys, name, edit, named):
        assert main(["train", "--config", str(write_cfg(tmp_path, "train.json", library_file="bundled:desk",
                                                           max_nodes=4))]) == 0
        doc = json.loads((Path(cli.DATA_DIR) / "desk_library.json").read_text())
        (fragment,) = [f for f in doc["fragments"] if f["name"] == name]
        fragment.update(edit)
        (tmp_path / "lib.json").write_text(json.dumps(doc))
        cfg = write_cfg(tmp_path, "sample.json", library_file=str(tmp_path / "lib.json"), max_nodes=4)
        assert main(["sample", "--config", str(cfg), "--out", str(tmp_path / "mols.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err, err
        assert not (tmp_path / "mols.jsonl").exists()

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

    def test_one_molecule_set_has_no_diversity(self, workdir, capsys):
        tmp_path, cfg_path, _ = workdir
        recs = [{"nodes": [0], "edges": []}, {"nodes": [1], "edges": []}, {"nodes": [0, 1], "edges": [[0, 0, 1, 0]]}]
        one, three = tmp_path / "one.jsonl", tmp_path / "three.jsonl"
        one.write_text(json.dumps(recs[2]) + "\n")
        three.write_text("".join(json.dumps(r) + "\n" for r in recs))
        report_path = tmp_path / "r.json"
        assert main(["evaluate", str(one), str(three), "--config", str(cfg_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert [row["diversity"] for row in report["per_set"]] == [
            None, diversity([state_from_record(r) for r in recs])]
        assert report["metrics"]["diversity"] == {"mean": report["per_set"][1]["diversity"], "se": 0.0}
        assert report["metrics"]["qed_mean"]["se"] > 0.0  # the other metrics still span both sets
        assert "n/a" not in capsys.readouterr().out

        assert main(["evaluate", str(one), "--config", str(cfg_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["metrics"]["diversity"] == {"mean": None, "se": None}
        assert re.search(r"^diversity +n/a +n/a$", capsys.readouterr().out, re.M)

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


def _fragment_library(**fragment):
    return json.dumps({"fragments": [{"id": 0, "name": "a", "aps": 1, "size": 3, "polarity": 0.5, **fragment}]})


_RESIDUE = json.dumps({"index": 0, "res": 0, "ca": [0.0, 0.0, 0.0]}) + "\n"


def _with_first_value(entry, value):
    """A checkpoint parameter entry with its first float replaced."""
    values = _floats(entry).copy()
    values[0] = value
    return {**entry, "data": _base64(values.tobytes())}


def _as_version_1(doc):
    """The checkpoint laid out as format 1 wrote it: data as a list of floats."""
    doc["__format_version__"] = 1
    for name, entry in doc.items():
        if not name.startswith("__"):
            entry["data"] = _floats(entry).tolist()


def _as_version_2(doc):
    """The checkpoint as format 2 wrote it: the checksum over the parameters only."""
    doc["__format_version__"] = 2
    doc["__checksum__"] = nn._checksum({k: v for k, v in doc.items() if not k.startswith("__")})


def _as_version_3(doc):
    """The checkpoint as format 3 wrote it: the same layout, with root actions
    for every entry attachment point, so its root logits mean another lattice."""
    doc["__format_version__"] = 3
    _resign(doc)


def _as_version_4(doc):
    """The checkpoint as format 4 wrote it: the same layout, plus the weights
    of the last layers' track updates that nothing reads (a baseline
    checkpoint: the last pocket-encoder layer's vector update)."""
    doc["__format_version__"] = 4
    policy = doc["__meta__"]["policy"]
    name = f"pocket.layer{policy['pocket_layers'] - 1}"
    for suffix, shape in (("gate.w", (policy["pocket_width"], 2)), ("vmix.w", (2, 2))):
        doc[f"{name}.{suffix}"] = {"shape": list(shape), "data": _base64(np.zeros(shape).tobytes())}
    _resign(doc)


# (kind, payload, *texts the error line names): a library or pocket file's
# text, which `train` loads, or an edit of the trained checkpoint's meta, of
# one parameter entry or of the whole document, which `sample` loads;
# meta and parameter edits are re-signed, so the checksum matches
MALFORMED_INPUTS = {
    "library-invalid-json": ("library", "{not json"),
    "library-aps-not-integer": ("library", _fragment_library(aps="x")),
    "library-no-fragments": ("library", json.dumps({"fragments": []})),
    "library-size-negative": ("library", _fragment_library(size=-5), "fragment 'a' size"),
    "library-size-beyond-float": ("library", _fragment_library(size=10**400), "fragment 'a' size"),
    "pocket-array-line": ("pocket", _RESIDUE + "[1, 2, 3]\n"),
    "pocket-index-not-integer": ("pocket", _RESIDUE + json.dumps({"index": "x", "res": 0, "ca": [1.0, 0.0, 0.0]}) + "\n"),
    "pocket-ca-not-numbers": ("pocket", _RESIDUE + json.dumps({"index": 1, "res": 0, "ca": "abc"}) + "\n"),
    "pocket-one-residue": ("pocket", _RESIDUE, "bad_pocket.json: need at least 2 residues"),
    "pocket-geometry-overflows": (
        "pocket", "".join(json.dumps({"index": i, "res": 0, "ca": [x, 0.0, 0.0]}) + "\n" for i, x in enumerate([1e308, -1e308])),
        "bad_pocket.json: residue coordinates too far apart"),
    "pocket-coincident-residues": (
        "pocket", "".join(json.dumps({"index": i, "res": 0, "ca": ca}) + "\n"
                          for i, ca in enumerate([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])),
        "bad_pocket.json: residues 1 and 2 are at the same position [1.0, 2.0, 3.0]"),
    "pocket-all-residues-at-one-point": (
        "pocket", "".join(json.dumps({"index": i, "res": 0, "ca": [0.5, -0.0 if i else 0.0, 2.0]}) + "\n" for i in range(4)),
        "bad_pocket.json: residues 0 and 1 are at the same position"),
    "meta-not-object": ("meta", lambda doc: doc.update(__meta__=5)),
    "meta-policy-not-object": ("meta", lambda doc: doc["__meta__"].update(policy=5)),
    "meta-policy-unknown-key": ("meta", lambda doc: doc["__meta__"]["policy"].update(bogus=1)),
    "meta-policy-bad-value": ("meta", lambda doc: doc["__meta__"]["policy"].update(width=0)),
    "meta-max-nodes-not-integer": ("meta", lambda doc: doc["__meta__"].update(max_nodes="abc")),
    "meta-max-nodes-zero": ("meta", lambda doc: doc["__meta__"].update(max_nodes=0)),
    "meta-attachment-counts-not-pairs": (
        "meta", lambda doc: doc["__meta__"].update(attachment_counts=[[0, 1, 1]]), "'attachment_counts'"),
    "param-not-shape-data": ("param", lambda entry: [1.0, 2.0]),
    "param-data-misfits-shape": (
        "param", lambda entry: {"shape": entry["shape"], "data": _base64(_floats(entry)[:-1].tobytes())}, "bytes"),
    "param-data-json-list": ("param", lambda entry: {**entry, "data": _floats(entry).tolist()}, "base64 text"),
    "param-data-not-base64": ("param", lambda entry: {**entry, "data": entry["data"][:-4] + "*!*="}, "not base64"),
    "param-nan": ("param", lambda entry: _with_first_value(entry, math.nan), "not finite"),
    "param-inf": ("param", lambda entry: _with_first_value(entry, -math.inf), "not finite"),
    "param-data-bytes-not-whole-floats": (
        "param", lambda entry: {**entry, "data": _base64(base64.b64decode(entry["data"])[:-3])}, "bytes"),
    "format-version-1": ("document", _as_version_1, "version 1", "expected 5"),
    "format-version-2": ("document", _as_version_2, "checkpoint format version 2 is not supported (expected 5)"),
    "format-version-3": ("document", _as_version_3, "checkpoint format version 3 is not supported (expected 5)"),
    "format-version-4": ("document", _as_version_4, "checkpoint format version 4 is not supported (expected 5)"),
}


_COMPACT_POCKET = resolve_bundled("bundled:compact", BUNDLED_POCKETS, "pocket")


def _pocket_with_last(**fields):
    """The bundled compact pocket with fields of its last residue replaced."""
    with open(_COMPACT_POCKET) as fh:
        lines = fh.read().splitlines()
    last = json.loads(lines[-1])
    last.update(fields)
    return "\n".join([*lines[:-1], json.dumps(last)]) + "\n"


def _molecule(nodes, edges):
    return json.dumps({"nodes": nodes, "edges": edges}) + "\n"


# (kind, payload, the field the error line names): values where a file needs
# an integer, each of which int() would truncate to a valid one. Molecule
# files are loaded by `evaluate`; the toy library has fragments 0 and 1, one
# attachment point each.
NOT_INTEGER_INPUTS = {
    "library-aps-float": ("library", _fragment_library(aps=1.9), "'aps'"),
    "library-aps-bool": ("library", _fragment_library(aps=True), "'aps'"),
    "library-id-float": ("library", _fragment_library(id=0.7), "'id'"),
    "library-size-float": ("library", _fragment_library(size=2.5), "'size'"),
    "pocket-index-float": ("pocket", _pocket_with_last(index=len(load_pocket_jsonl(_COMPACT_POCKET)) - 0.4), "'index'"),
    "pocket-res-bool": ("pocket", _pocket_with_last(res=True), "'res'"),
    "molecule-node-float": ("molecule", _molecule([0.9, 1], [[0, 0, 1, 0]]), "'nodes'"),
    "molecule-node-bool": ("molecule", _molecule([0, True], [[0, 0, 1, 0]]), "'nodes'"),
    "molecule-edge-float": ("molecule", _molecule([0, 1], [[0, 0.2, 1.8, 0]]), "'edges'"),
}


# (kind, payload, the field the error line names): booleans and strings where
# a file needs a number, each of which float() would convert to a valid one,
# and integers no float can hold.
# Config payloads are run config fields.
NOT_NUMBER_INPUTS = {
    "weights-bool": ("config", {"weights": [True, False, False]}, "'weights'"),
    "weights-string": ("config", {"weights": ["0.5", "0.25", "0.25"]}, "'weights'"),
    "weights-beyond-float": ("config", {"weights": [2**1024, 0, 0]}, "'weights'"),
    "library-polarity-beyond-float": ("library", _fragment_library(polarity=2**1024), "'polarity'"),
    "library-polarity-string": ("library", _fragment_library(polarity="0.5"), "'polarity'"),
    "library-polarity-bool": ("library", _fragment_library(polarity=True), "'polarity'"),
    "pocket-ca-strings-and-bool": ("pocket", _pocket_with_last(ca=["1.5", True, "2"]), "'ca'"),
    "pocket-ca-bool": ("pocket", _pocket_with_last(ca=[1.5, True, 2.0]), "'ca'"),
}


DESK = desk_library()
DESK_APS = [f.aps for f in DESK]


@st.composite
def malformed_molecules(draw):
    """A desk-library molecule record broken in one way: a ring, a reused or
    out-of-range attachment point, an unknown fragment, a float or boolean
    where an integer belongs, or a bond with i >= j."""
    kind = draw(st.sampled_from(["ring", "reused-ap", "ap-out-of-range", "unknown-fragment", "not-integer", "i-not-below-j"]))
    if kind == "ring":
        # amides (two attachment points) bonded ap1 to ap0 around a closed loop
        k = draw(st.integers(2, 6))
        return {"nodes": [2] * k, "edges": [[m, 1, m + 1, 0] for m in range(k - 1)] + [[0, 0, k - 1, 1]]}
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    s, cap = initial_state(), draw(st.integers(2, 6))
    while s.n < cap:
        adds = [a for a in legal_actions(s, DESK, cap) if isinstance(a, AddFragment)]
        if not adds:
            break
        s = apply_action(s, adds[rng.integers(len(adds))], DESK, cap)
    nodes, edges = list(s.nodes), [list(e) for e in s.edges]
    e = draw(st.integers(0, len(edges) - 1))
    side = draw(st.sampled_from([0, 2]))
    if kind == "reused-ap":
        v, ap = edges[e][side], edges[e][side + 1]
        edges.append([v, ap, len(nodes), 0])
        nodes.append(draw(st.integers(0, len(DESK_APS) - 1)))
    elif kind == "ap-out-of-range":
        aps = DESK_APS[nodes[edges[e][side]]]
        edges[e][side + 1] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=aps)))
    elif kind == "unknown-fragment":
        nodes[draw(st.integers(0, len(nodes) - 1))] = draw(
            st.one_of(st.integers(max_value=-1), st.integers(min_value=len(DESK_APS))))
    elif kind == "not-integer":
        target = draw(st.sampled_from(["nodes", "edges"]))
        row = nodes if target == "nodes" else edges[e]
        pos = draw(st.integers(0, len(row) - 1))
        row[pos] = draw(st.one_of(st.booleans(), st.floats(allow_nan=False, allow_infinity=False), st.just(float(row[pos]))))
    else:
        i, ap_i, j, ap_j = edges[e]
        edges[e] = draw(st.sampled_from([[j, ap_j, i, ap_i], [i, ap_i, i, ap_j], [j, ap_j, j, ap_i]]))
    return {"nodes": nodes, "edges": edges}


@pytest.fixture(scope="module")
def desk_evaluate(tmp_path_factory):
    """(config path, molecule file path) for running `evaluate` on the desk library."""
    tmp_path = tmp_path_factory.mktemp("evaluate")
    return write_cfg(tmp_path, "c.json", library_file="bundled:desk"), tmp_path / "mols.jsonl"


@pytest.fixture(scope="module")
def trained_checkpoint_text(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    assert main(["train", "--config", str(write_cfg(tmp_path, "c.json"))]) == 0
    return (tmp_path / "ckpt.json").read_text()


@pytest.fixture(scope="module")
def trained_checkpoint(trained_checkpoint_text):
    return json.loads(trained_checkpoint_text)


@pytest.fixture(scope="module")
def sample_config(tmp_path_factory):
    """(config path, checkpoint path, molecule output path) for running `sample`."""
    tmp_path = tmp_path_factory.mktemp("sample")
    return write_cfg(tmp_path, "c.json"), tmp_path / "ckpt.json", tmp_path / "mols.jsonl"


def _same_document(raw: bytes, doc) -> bool:
    try:
        return json.loads(raw) == doc
    except ValueError:
        return False


@st.composite
def checkpoint_mutations(draw, text):
    """The checkpoint text cut short at some offset, with one byte replaced,
    or with one reserved key dropped. The checksum covers the ``__meta__``
    value too, so a replaced byte may fall anywhere. A replacement that
    leaves the same JSON value is not drawn: whitespace for whitespace
    between tokens, or ``4e0`` for the meta's ``4.0``."""
    raw = text.encode()
    kind = draw(st.sampled_from(["truncate", "replace-byte", "drop-key"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "drop-key":
        doc = json.loads(text)
        del doc[draw(st.sampled_from(["__format_version__", "__meta__", "__checksum__"]))]
        return json.dumps(doc, sort_keys=True).encode()
    pos = draw(st.integers(0, len(raw) - 1))
    new = draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    mutated = raw[:pos] + bytes([new]) + raw[pos + 1:]
    assume(not _same_document(mutated, json.loads(text)))
    return mutated


# Values of the wrong JSON type, non-finite or out-of-range numbers, booleans
# and nested objects or lists; each field below draws only from what it must
# refuse, so no drawn config is valid and none starts training.
_TEXT = st.text(max_size=6)
_NESTED = st.one_of(st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_BEYOND_FLOAT = st.integers(min_value=2**1024, max_value=2**1100)  # no float holds it
_NUMBERS = st.one_of(st.integers(-5, 5), st.floats(allow_nan=False, allow_infinity=False), _NON_FINITE)
_NOT_NUMBER = st.one_of(_TEXT, st.booleans(), st.none(), _NESTED)
_NOT_TEXT = st.one_of(_NUMBERS, st.booleans(), st.none(), _NESTED)


def _not_integer_from(low):
    """Anything but a JSON integer >= low."""
    return st.one_of(_NOT_NUMBER, st.floats(), st.integers(max_value=low - 1))


_NOT_POSITIVE_FINITE = st.one_of(_NOT_NUMBER, _NON_FINITE, st.floats(max_value=0.0), st.integers(max_value=0), _BEYOND_FLOAT)
_BAD_WEIGHT = st.one_of(_NOT_NUMBER, _NON_FINITE, st.floats(max_value=-1e-9), st.integers(max_value=-1), _BEYOND_FLOAT)
_POLICY_FIELDS = [f.name for f in dataclasses.fields(PolicyConfig) if f.name != "mode"]

INVALID_CONFIG_VALUES = {
    **{name: _not_integer_from(low) for name, low in (
        ("steps", 0), ("batch_size", 1), ("max_nodes", 1), ("seed", 0),
        ("n_molecules", 1), ("top_k", 1), ("retry_cap", 1))},
    "learning_rate": _NOT_POSITIVE_FINITE,
    "beta": _NOT_POSITIVE_FINITE,
    "mode": st.one_of(_NOT_TEXT, _TEXT.filter(lambda m: m not in ("baseline", "trioformer"))),
    "weights": st.one_of(
        _NOT_TEXT.filter(lambda w: not isinstance(w, list)), _TEXT,
        st.lists(st.just(0.25), max_size=5).filter(lambda w: len(w) != 3),
        st.tuples(_BAD_WEIGHT, st.sampled_from([[0.5, 0.5], [0.0, 1.0]])).map(lambda t: [t[0], *t[1]])),
    "pocket_file": st.one_of(
        _NOT_TEXT.filter(lambda p: not isinstance(p, list)), st.just([]),
        st.lists(_NOT_TEXT, min_size=1, max_size=3)),
    "library_file": _NOT_TEXT,
    "checkpoint": _NOT_TEXT,
    "metrics": _NOT_TEXT.filter(lambda m: m is not None),
    "policy": st.one_of(
        _NOT_TEXT.filter(lambda p: not isinstance(p, dict)), _TEXT,
        st.dictionaries(_TEXT.filter(lambda k: k not in _POLICY_FIELDS), st.integers(1, 4), min_size=1, max_size=1),
        st.sampled_from(_POLICY_FIELDS).flatmap(
            lambda k: _not_integer_from(0 if k.endswith("layers") else 1).map(lambda v: {k: v}))),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
    def test_exit_2_with_error_line(self, tmp_path, capsys, trained_checkpoint, case):
        kind, payload, *named = MALFORMED_INPUTS[case]
        if kind in ("library", "pocket"):
            bad = tmp_path / f"bad_{kind}.json"
            bad.write_text(payload)
            argv = ["train", "--config", str(write_cfg(tmp_path, "c.json", **{f"{kind}_file": str(bad)}))]
        else:
            doc = json.loads(json.dumps(trained_checkpoint))
            if kind == "param":
                name = next(k for k in doc if not k.startswith("__"))
                doc[name] = payload(doc[name])
            else:
                payload(doc)
            if kind != "document":
                _resign(doc)
            (tmp_path / "ckpt.json").write_text(json.dumps(doc))
            argv = ["sample", "--config", str(write_cfg(tmp_path, "c.json")), "--out", str(tmp_path / "mols.jsonl")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
        for text in named:
            assert text in err, err

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_mutated_checkpoint_exit_2(self, trained_checkpoint_text, sample_config, data):
        cfg_path, ckpt_path, out = sample_config
        ckpt_path.write_bytes(data.draw(checkpoint_mutations(trained_checkpoint_text)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 2, err.getvalue()
        assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue(), err.getvalue()

    @given(field=st.sampled_from(sorted(INVALID_CONFIG_VALUES)), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_config_exit_2_naming_the_field(self, sample_config, field, data):
        cfg_path, _, out = sample_config
        value = data.draw(INVALID_CONFIG_VALUES[field], label=field)
        bad = cfg_path.with_name("fuzzed.json")
        bad.write_text(json.dumps({**json.loads(cfg_path.read_text()), field: value}))
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            mp.setattr(cli, "train", lambda *a, **k: pytest.fail(f"config with {field}={value!r} started training"))
            assert main(["train", "--config", str(bad), "--out", str(out)]) == 2, err.getvalue()
        line = err.getvalue()
        assert line.startswith("error:") and "Traceback" not in line and repr(field) in line, line

    @pytest.mark.parametrize("fault", ["missing", "not-utf8", "directory", "integer-past-digit-limit"])
    @pytest.mark.parametrize("kind", ["config", "library", "pocket", "checkpoint", "molecule"])
    def test_unreadable_file_exit_2_naming_it(self, tmp_path, capsys, kind, fault):
        bad = tmp_path / f"bad_{kind}"
        if fault == "directory":
            bad.mkdir()
        elif fault == "not-utf8":
            bad.write_bytes(b'{"fragments": "\xff\xfe"}\n')
        elif fault == "integer-past-digit-limit":
            # json.loads raises a plain ValueError for an integer of more than
            # 4,300 digits; json.dumps refuses to write one, so the text is built here
            bad.write_text('{"steps": ' + "1" * 5000 + "}\n")
        if kind == "config":
            argv = ["train", "--config", str(bad)]
        elif kind in ("library", "pocket"):
            argv = ["train", "--config", str(write_cfg(tmp_path, "c.json", **{f"{kind}_file": str(bad)}))]
        elif kind == "checkpoint":
            argv = ["sample", "--config", str(write_cfg(tmp_path, "c.json", checkpoint=str(bad))),
                    "--out", str(tmp_path / "mols.jsonl")]
        else:
            argv = ["evaluate", str(bad), "--config", str(write_cfg(tmp_path, "c.json"))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
        assert str(bad) in err, err

    @pytest.mark.parametrize("case", list(NOT_INTEGER_INPUTS))
    def test_non_integer_rejected_naming_the_field(self, tmp_path, capsys, case):
        kind, payload, field = NOT_INTEGER_INPUTS[case]
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text(payload)
        if kind == "molecule":
            argv = ["evaluate", str(bad), "--config", str(write_cfg(tmp_path, "c.json"))]
        else:
            argv = ["train", "--config", str(write_cfg(tmp_path, "c.json", **{f"{kind}_file": str(bad)}))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
        assert field in err and "must be an integer" in err, err

    @pytest.mark.parametrize("case", list(NOT_NUMBER_INPUTS))
    def test_non_number_rejected_naming_the_field(self, tmp_path, capsys, case):
        kind, payload, field = NOT_NUMBER_INPUTS[case]
        if kind == "config":
            cfg = write_cfg(tmp_path, "c.json", **payload)
        else:
            bad = tmp_path / f"bad_{kind}.json"
            bad.write_text(payload)
            cfg = write_cfg(tmp_path, "c.json", **{f"{kind}_file": str(bad)})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
        assert field in err and "must be a number" in err, err

    @given(malformed_molecules())
    @settings(max_examples=100, deadline=None)
    def test_malformed_molecule_exit_2(self, desk_evaluate, record):
        # a valid molecule on line 1, so the error must name line 2
        cfg_path, mols = desk_evaluate
        mols.write_text(_molecule([0], []) + json.dumps(record) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["evaluate", str(mols), "--config", str(cfg_path)]) == 2, record
        assert err.getvalue().startswith("error:") and ":2:" in err.getvalue(), (record, err.getvalue())


    @pytest.mark.parametrize("line_5", [
        pytest.param(_molecule([0.0, 1], [[0, 0, 1, 0]]), id="float-node-id"),
        pytest.param("{oops\n", id="invalid-json"),
        pytest.param("[1, 2]\n", id="not-an-object"),
        pytest.param(json.dumps({"nodes": [0]}) + "\n", id="missing-field"),
    ])
    def test_first_bad_line_wins(self, desk_evaluate, capsys, line_5):
        # amides (two attachment points each) whose third bond closes a ring on line 3
        cfg_path, mols = desk_evaluate
        ring = _molecule([2, 2, 2], [[0, 1, 1, 0], [1, 1, 2, 0], [0, 0, 2, 1]])
        mols.write_text(_molecule([0], []) + _molecule([1], []) + ring + _molecule([3], []) + line_5)
        assert main(["evaluate", str(mols), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {mols}:3: bad molecule record: bond [0, 0, 2, 1] closes a cycle\n", err

    def test_stored_score_disagreement_names_its_line(self, desk_evaluate, capsys):
        cfg_path, mols = desk_evaluate
        nodes, edges = [2, 0], [[0, 0, 1, 0]]
        graph = build_knn_graph(load_pocket_jsonl(_COMPACT_POCKET))
        ds = docking_score(graph, state_from_record({"nodes": nodes, "edges": edges}), DESK)
        stored = {"nodes": nodes, "edges": edges, "ds": ds + 1e-9}
        mols.write_text(_molecule([0], []) + json.dumps(stored) + "\n" + _molecule([1], []))
        assert main(["evaluate", str(mols), "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {mols}:2: stored ds {ds + 1e-9!r} disagrees with recomputation {ds!r}\n", err
        stored["ds"] = ds  # the recomputed value itself is accepted
        mols.write_text(_molecule([0], []) + json.dumps(stored) + "\n" + _molecule([1], []))
        assert main(["evaluate", str(mols), "--config", str(cfg_path)]) == 0


class TestOutputPaths:
    @staticmethod
    def run_blocked(tmp_path, monkeypatch, checkpoint_text, output, blocked) -> int:
        """Run the command that writes ``output`` to the unwritable ``blocked``
        path; no training step, draw or scoring may start."""

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")

        for name in ("train", "sample_trajectories", "set_scores"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = str(write_cfg(tmp_path, "c.json"))
        if output == "train-out":
            argv = ["train", "--config", cfg, "--out", str(blocked)]
        elif output == "metrics":
            argv = ["train", "--config", str(write_cfg(tmp_path, "c.json", metrics=str(blocked)))]
        elif output == "sample-out":
            (tmp_path / "ckpt.json").write_text(checkpoint_text)
            argv = ["sample", "--config", cfg, "--out", str(blocked)]
        else:
            mols = tmp_path / "mols.jsonl"
            mols.write_text(_molecule([0], []))
            argv = ["evaluate", str(mols), "--config", cfg, "--out", str(blocked)]
        return main(argv)

    @pytest.mark.parametrize("output", ["train-out", "metrics", "sample-out", "evaluate-out"])
    def test_unwritable_output_exit_2_naming_it(self, tmp_path, capsys, monkeypatch, trained_checkpoint_text, output):
        blocked = tmp_path / "blocked"
        blocked.mkdir()  # an existing directory cannot be opened as a file
        assert self.run_blocked(tmp_path, monkeypatch, trained_checkpoint_text, output, blocked) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
        assert str(blocked) in err and "Is a directory" in err, err
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]

    @pytest.mark.parametrize("output", ["train-out", "metrics", "sample-out", "evaluate-out"])
    def test_output_in_missing_folder_exit_2_naming_it(self, tmp_path, capsys, monkeypatch, trained_checkpoint_text,
                                                       output):
        blocked = tmp_path / "missing" / "out.json"
        assert self.run_blocked(tmp_path, monkeypatch, trained_checkpoint_text, output, blocked) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, err
        assert str(blocked) in err and "No such file or directory" in err, err
        assert not (tmp_path / "missing").exists()


class TestSelfcheckCommand:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "all 9 suites passed" in out
        for name in ("gradient-primitives", "bias-ablation", "proportional-sampling", "checkpoint-integrity"):
            assert name in out

    def test_fast_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["selfcheck", "--fast"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err
