"""Parameter store, MLP shapes, Adam behavior, checkpoint round-trips."""

import base64
import hashlib
import json
import os

import numpy as np
import pytest

import pocketgfn.nn as nn
from pocketgfn.autodiff import Tape, backward, mlp, square, sub, sum_all, tensor
from pocketgfn.nn import (
    Adam,
    CheckpointError,
    ParamStore,
    layer_norm_affine,
    load_checkpoint,
    mlp_params,
    save_checkpoint,
)


def make_store(seed=0):
    return ParamStore(np.random.default_rng(seed))


def decode_data(entry):
    """A checkpoint entry's floats, as a writable array."""
    return np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()


def encode_data(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


class TestParamStore:
    def test_init_bounds_respect_fan_in(self):
        store = make_store()
        p = store.param("w", (50, 20))
        bound = 1.0 / np.sqrt(50)
        assert np.all(np.abs(p.data) <= bound)
        assert p.data.std() > 0.1 * bound  # actually random, not zeros

    def test_same_name_returns_same_tensor(self):
        store = make_store()
        a = store.param("w", (3, 3))
        b = store.param("w", (3, 3))
        assert a is b

    def test_shape_conflict_rejected(self):
        store = make_store()
        store.param("w", (3, 3))
        with pytest.raises(ValueError):
            store.param("w", (3, 4))

    def test_seeded_init_reproducible(self):
        a = make_store(5).param("w", (4, 4))
        b = make_store(5).param("w", (4, 4))
        np.testing.assert_array_equal(a.data, b.data)

    def test_insertion_order_preserved(self):
        store = make_store()
        store.param("z", (2,))
        store.param("a", (2,))
        assert store.names() == ["z", "a"]


class TestLayers:
    def test_mlp_hidden_relu_no_final_activation(self):
        store = make_store()
        layers = mlp_params(store, "mlp", [1, 1, 1])
        # identity weights make the network f(x) = relu(x) exactly, so the
        # hidden relu is observable and the absence of a final relu lets a
        # negative final bias pass through
        store["mlp.0.w"].data = np.array([[1.0]])
        store["mlp.0.b"].data = np.array([0.0])
        store["mlp.1.w"].data = np.array([[1.0]])
        store["mlp.1.b"].data = np.array([-2.0])
        x = tensor(np.array([[-5.0], [3.0]]))
        with Tape():
            y = mlp(x, layers)
        np.testing.assert_allclose(y.data, [[-2.0], [1.0]])

    def test_layer_norm_affine_identity_at_init(self):
        store = make_store()
        x = tensor(np.random.default_rng(0).normal(size=(4, 6)))
        with Tape():
            y = layer_norm_affine(store, "ln", x, 6)
        np.testing.assert_allclose(y.data.mean(axis=1), np.zeros(4), atol=1e-12)

    def test_mlp_trains_on_toy_regression(self):
        rng = np.random.default_rng(3)
        store = ParamStore(rng)
        layers = mlp_params(store, "mlp", [2, 16, 1])
        opt = Adam(store, lr=1e-2)
        xs = rng.uniform(-1, 1, size=(32, 2))
        ys = (xs[:, :1] * xs[:, 1:]) + 0.5
        first = None
        for _ in range(200):
            store.zero_grads()
            x = tensor(xs)
            with Tape():
                pred = mlp(x, layers)
                err = square(sub(pred, tensor(ys)))
                loss = sum_all(err)
            backward(loss)
            opt.step()
            if first is None:
                first = loss.data[0]
        assert loss.data[0] < 0.05 * first


class TestAdam:
    def test_skips_params_without_grad(self):
        store = make_store()
        p = store.param("w", (2, 2))
        before = p.data.copy()
        Adam(store, lr=1e-3).step()
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_matches_reference(self):
        store = make_store()
        p = store.param("w", (2,))
        p.grad = np.array([1.0, -2.0])
        before = p.data.copy()
        opt = Adam(store, lr=0.1)
        opt.step()
        # after one step the update direction is -lr * sign(grad) (up to eps)
        expected = before - 0.1 * np.sign(p.grad)
        np.testing.assert_allclose(p.data, expected, atol=1e-6)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        store = make_store(1)
        store.param("a.w", (3, 2))
        store.param("a.b", (2,))
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, store, meta={"mode": "demo"})
        state, meta = load_checkpoint(path)
        assert meta == {"mode": "demo"}
        store2 = make_store(99)
        store2.param("a.w", (3, 2))
        store2.param("a.b", (2,))
        store2.load_state_arrays(state)
        np.testing.assert_array_equal(store2["a.w"].data, store["a.w"].data)

    def test_round_trip_is_bit_exact(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        values = {
            "edges": np.array([[-0.0, 0.0], [tiny, -tiny], [1.7e308, -1.7e308]]),
            "scalar": np.array(-0.0),
            "empty": np.zeros((0, 3)),
            "mixed": np.array([np.pi, -1e-310, 2.0**-1074, np.finfo(np.float64).max]),
        }
        store = make_store(4)
        for name, arr in values.items():
            store.constant_param(name, arr)
        path = tmp_path / "ck.json"
        save_checkpoint(str(path), store, meta={"mode": "demo"})
        doc = json.loads(path.read_text())
        assert doc["__format_version__"] == 5
        for name, arr in values.items():
            assert doc[name]["shape"] == list(arr.shape)
            assert decode_data(doc[name]).tobytes() == arr.tobytes(), name
        state, meta = load_checkpoint(str(path))
        assert list(state) == sorted(values)
        for name, arr in values.items():
            assert state[name].shape == arr.shape
            assert state[name].tobytes() == arr.tobytes(), name
        reloaded = make_store(5)
        for name, arr in values.items():
            reloaded.constant_param(name, np.full(arr.shape, 7.0))
        reloaded.load_state_arrays(state)
        again = tmp_path / "again.json"
        save_checkpoint(str(again), reloaded, meta=meta)
        assert again.read_bytes() == path.read_bytes()

    def test_corrupted_data_fails_integrity(self, tmp_path):
        store = make_store(1)
        store.param("a.w", (3, 2))
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, store)
        doc = json.load(open(path))
        values = decode_data(doc["a.w"])
        values[0] += 1.0  # change one float without updating the checksum
        doc["a.w"]["data"] = encode_data(values)
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        store = make_store(1)
        store.param("a.w", (2, 2))
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, store)
        doc = json.load(open(path))
        doc["__format_version__"] = 999
        json.dump(doc, open(path, "w"))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_param_rejected_on_load(self, tmp_path):
        store = make_store(1)
        store.param("a.w", (2, 2))
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, store)
        state, _ = load_checkpoint(path)
        store2 = make_store(2)
        store2.param("a.w", (2, 2))
        store2.param("extra", (1,))
        with pytest.raises(CheckpointError):
            store2.load_state_arrays(state)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        store = make_store(1)
        store.param("a.w", (3, 2))
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, store, meta={"step": 1})
        before = open(path, "rb").read()
        store["a.w"].data = store["a.w"].data + 1.0

        def dump_then_fail(doc, fh, **kwargs):
            fh.write('{"__checksum__": "')  # part of a document, then the disk fills
            raise OSError("no space left on device")

        monkeypatch.setattr(nn.json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, store, meta={"step": 2})
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_streamed_checksum_equals_digest_of_whole_text(self):
        store = make_store(3)
        for name, shape in (("z.w", (4, 3)), ("a.b", (3,)), ('q"uote\u00e9', (2, 2)), ("scalar", ())):
            store.param(name, shape)
        for p in store.values():
            p.grad = np.full(p.shape, 0.5)
        Adam(store, lr=0.01).step()
        payload = {name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()} for name, p in store.items()}
        for doc in (payload, {}):
            whole = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            assert nn._checksum(doc) == hashlib.sha256(whole.encode()).hexdigest()

    def test_garbage_file_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as fh:
            fh.write("not json {")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
