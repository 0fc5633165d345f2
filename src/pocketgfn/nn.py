"""Parameter management, MLP and layer-norm parameters, Adam, and checkpoint serialization."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from typing import Iterable

import numpy as np

from .autodiff import DiffTensor, DimensionError, add, layer_norm_rows, mul, tensor
from .files import read_json, writing

CHECKPOINT_FORMAT_VERSION = 5
# Parameter data is stored as the base64 text of these bytes, in C order.
CHECKPOINT_DTYPE = "<f8"

# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """A checkpoint file is malformed, stale, or corrupted."""


class ParamStore:
    """Named, insertion-ordered collection of trainable tensors.

    Creation order is the iteration order everywhere (optimizer, checkpoint),
    which keeps training deterministic.
    """

    def __init__(self, rng: np.random.Generator):
        self._params: dict[str, DiffTensor] = {}
        self._rng = rng

    def param(self, name: str, shape: tuple[int, ...], fan_in: int | None = None) -> DiffTensor:
        """Create or fetch a parameter.

        New parameters are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in));
        ``fan_in`` defaults to the first dimension.
        """
        existing = self._params.get(name)
        if existing is not None:
            if existing.shape != tuple(shape):
                raise DimensionError(f"parameter {name!r} exists with shape {existing.shape}, requested {tuple(shape)}")
            return existing
        if fan_in is None:
            fan_in = shape[0] if shape else 1
        bound = 1.0 / np.sqrt(max(fan_in, 1))
        t = tensor(self._rng.uniform(-bound, bound, size=shape))
        self._params[name] = t
        return t

    def constant_param(self, name: str, value: np.ndarray) -> DiffTensor:
        """Create or fetch a parameter with a fixed initial value."""
        existing = self._params.get(name)
        if existing is not None:
            return existing
        t = tensor(np.asarray(value, dtype=np.float64))
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> DiffTensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, DiffTensor]]:
        return self._params.items()

    def values(self) -> list[DiffTensor]:
        return list(self._params.values())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self._params.items():
            if name not in state:
                raise CheckpointError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.shape:
                raise CheckpointError(f"parameter {name!r} has shape {arr.shape}, expected {p.shape}")
            p.data = arr.copy()
        extra = set(state) - set(self._params)
        if extra:
            raise CheckpointError(f"checkpoint has unknown parameters: {sorted(extra)}")


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def mlp_params(store: ParamStore, name: str, dims: list[int]) -> list[tuple[DiffTensor, DiffTensor]]:
    """Create the (weight, bias) list for an MLP with the given layer widths."""
    layers = []
    for i in range(len(dims) - 1):
        w = store.param(f"{name}.{i}.w", (dims[i], dims[i + 1]), fan_in=dims[i])
        b = store.param(f"{name}.{i}.b", (dims[i + 1],), fan_in=dims[i])
        layers.append((w, b))
    return layers


def layer_norm_params(store: ParamStore, name: str, dim: int) -> tuple[DiffTensor, DiffTensor]:
    """The (gain, bias) of a layer norm over ``dim`` features."""
    # Gain starts at 1 and bias at 0 so a fresh network begins as a plain
    # normalization; uniform init here would randomly rescale activations.
    return store.constant_param(f"{name}.gain", np.ones(dim)), store.constant_param(f"{name}.bias", np.zeros(dim))


def layer_norm_affine(store: ParamStore, name: str, x: DiffTensor, dim: int) -> DiffTensor:
    """A layer norm whose output is itself the track (a post-norm); a
    pre-norm block passes ``layer_norm_params`` to its fused node instead."""
    gain, bias = layer_norm_params(store, name, dim)
    return add(mul(layer_norm_rows(x), gain), bias)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for name, p in self.store.items():
            if p.grad is None:
                continue
            m = self._m.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                self._m[name] = m
                self._v[name] = np.zeros_like(p.data)
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * p.grad
            v *= b2
            v += (1.0 - b2) * p.grad**2
            p.data = p.data - self.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _checksum(doc: dict) -> str:
    """sha256 of ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``,
    fed one key at a time so the whole text is never built."""
    digest = hashlib.sha256(b"{")
    for k, name in enumerate(sorted(doc)):
        if k:
            digest.update(b",")
        entry = json.dumps(doc[name], sort_keys=True, separators=(",", ":"))
        digest.update(f"{json.dumps(name)}:{entry}".encode())
    digest.update(b"}")
    return digest.hexdigest()


def encode_param(values: np.ndarray) -> dict:
    """The checkpoint entry of an array: its shape, and the base64 text of
    its little-endian float64 bytes in C order."""
    data = np.asarray(values, dtype=CHECKPOINT_DTYPE).tobytes()
    return {"shape": list(np.shape(values)), "data": base64.b64encode(data).decode("ascii")}


def decode_param(entry, where: str) -> np.ndarray:
    """The array of one checkpoint entry, read-only. A malformed entry, or one
    holding a NaN or an infinity, raises a ``CheckpointError`` that begins
    with ``where``."""
    if not isinstance(entry, dict) or "shape" not in entry or "data" not in entry:
        raise CheckpointError(f"{where} must be an object with keys 'shape' and 'data'")
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise CheckpointError(f"{where} shape must be a list of non-negative integers, got {shape!r}")
    if not isinstance(data, str):
        raise CheckpointError(f"{where} data must be base64 text of {CHECKPOINT_DTYPE} bytes, got a JSON {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as e:
        raise CheckpointError(f"{where} data is not base64: {e}") from None
    expected = np.dtype(CHECKPOINT_DTYPE).itemsize * math.prod(shape)
    if len(raw) != expected:
        raise CheckpointError(f"{where} data holds {len(raw)} bytes; shape {shape} needs {expected}")
    values = np.frombuffer(raw, dtype=CHECKPOINT_DTYPE).reshape(shape)
    if not np.isfinite(values).all():
        raise CheckpointError(f"{where} holds a value that is not finite (NaN or infinity)")
    return values


def save_checkpoint(path: str, store: ParamStore, meta: dict | None = None) -> None:
    """Write a flat JSON checkpoint: {name -> ``encode_param`` entry} plus
    tagged keys. A load gives back every bit of every parameter, and saving
    it again gives back every byte of the file.

    Reserved keys: ``__format_version__``, ``__meta__``, ``__checksum__``.
    The checksum covers every other key, the meta included, so an edited
    meta fails the integrity check like an edited parameter.
    The file is written next to ``path`` under a temporary name and then
    renamed over it, so a failed write leaves the previous checkpoint intact;
    the failure names ``path``.
    """
    doc = {name: encode_param(p.data) for name, p in store.items()}
    doc.update(__format_version__=CHECKPOINT_FORMAT_VERSION, __meta__=meta or {})
    doc["__checksum__"] = _checksum(doc)
    tmp = f"{path}.{os.getpid()}.tmp"
    with writing(path):
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint, verifying format version, checksum (over the meta
    and the parameters) and each parameter's shape against its byte count."""
    doc = read_json(path, CheckpointError)
    version = doc.get("__format_version__")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"checkpoint format version {version!r} is not supported (expected {CHECKPOINT_FORMAT_VERSION})")
    checksum = doc.pop("__checksum__", None)
    if checksum != _checksum(doc):
        raise CheckpointError(f"checkpoint {path} failed its integrity check")
    del doc["__format_version__"]
    meta = doc.pop("__meta__", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint {path} meta must be a JSON object, got {type(meta).__name__}")
    return {name: decode_param(entry, f"checkpoint {path} parameter {name!r}") for name, entry in doc.items()}, meta
