"""Dense float64 tensors with reverse-mode differentiation.

Define-by-run: while a :class:`Tape` is active, every primitive records a
node, and its output gets that node's index on the tape as its gradient
slot.  A node keeps where its inputs' gradients go (a slot for an input
recorded on the same tape, the tensor itself for a leaf: a parameter, a
``tensor()`` or ``constant()`` input or an output of another tape), its
output's shape and a local vector-Jacobian rule.  The rule captures only
the arrays and shapes it reads, never a tensor, so an intermediate that no
rule reads (a residual sum, a relu's input) is freed as soon as the forward
drops it.  Rules read operand values as they were at record time.

``backward`` walks the recorded nodes in reverse creation order, which is a
valid reverse topological order because an operation can only consume
tensors that already exist.  It releases each node as the walk passes it, so
only leaves keep a ``grad``, and a step's peak memory is about that of its
forward tape.  Without an active tape, primitives run as plain numpy and
record nothing, so inference-only code pays no bookkeeping cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes cannot be combined."""


class TapeError(RuntimeError):
    """Misuse of the differentiation tape."""


# Entered tapes, innermost last.
_TAPES: list["Tape"] = []

# Variance floor of every layer normalization.
LN_EPS = 1e-5

# Central-difference step of finite_diff_check.
FD_STEP = 1e-5


def active_tape() -> "Tape | None":
    return _TAPES[-1] if _TAPES else None


class DiffTensor:
    """A dense float64 array with an optional gradient buffer.

    ``data`` is treated as read-only by every primitive; mutating it in place
    invalidates any tape that recorded the tensor (``finite_diff_check`` does
    so deliberately, between tapes).
    """

    __slots__ = ("data", "grad", "_tape", "_slot")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad: np.ndarray | None = None
        self._tape: Tape | None = None
        # index of the node that recorded this tensor on ``_tape``
        self._slot = -1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"DiffTensor(shape={self.shape}, on_tape={self._tape is not None})"


@dataclass(slots=True)
class TapeNode:
    """One recorded primitive: where its input gradients go, its output's
    shape, and the local gradient rule.

    Each entry of ``inputs`` is the slot of an input recorded on the same
    tape, or the input tensor itself if it is a leaf. ``vjp`` maps the
    output gradient to one gradient per input (``None`` for inputs the rule
    does not differentiate); it holds the arrays it reads, not tensors.
    ``backward`` sets all three fields to ``None`` once its walk has passed
    the node.
    """

    inputs: list[int | DiffTensor]
    shape: tuple[int, ...]
    vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


@dataclass
class Tape:
    """Ordered record of primitives; inputs always precede their consumers."""

    nodes: list[TapeNode] = field(default_factory=list)
    consumed: bool = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if not _TAPES or _TAPES[-1] is not self:
            raise TapeError("tape stack corrupted: exiting a tape that is not innermost")
        _TAPES.pop()


def tensor(data) -> DiffTensor:
    """Create a leaf tensor (not recorded on any tape) holding a float64 copy of ``data``."""
    return DiffTensor(np.array(data, dtype=np.float64))


class _Constant(DiffTensor):
    __slots__ = ()


def constant(data) -> DiffTensor:
    """Like :func:`tensor`, but ``backward`` never gives it a ``grad``: a
    leaf for input data (features, fixed weights), not for a parameter or
    for a point a gradient is taken at."""
    return _Constant(np.array(data, dtype=np.float64))


def _record(out_data: np.ndarray, inputs: tuple[DiffTensor, ...], vjp) -> DiffTensor:
    out = DiffTensor(out_data)
    if _TAPES:
        tape = _TAPES[-1]
        nodes = tape.nodes
        targets = []
        for t in inputs:
            targets.append(t._slot if t._tape is tape else t)
        out._tape = tape
        out._slot = len(nodes)
        nodes.append(TapeNode(targets, out_data.shape, vjp))
    return out


def backward(loss: DiffTensor) -> None:
    """Accumulate into ``grad`` the gradient of ``loss`` for every leaf it depends on.

    ``loss`` must be a scalar (a single element).  Leaves are the tensors not
    recorded on this tape (parameters, ``tensor()`` inputs, outputs of another
    tape); only they keep a gradient, and ``constant()`` leaves get none.
    Gradients of recorded tensors are summed in one list indexed by slot,
    local to the walk, so no recorded tensor's ``grad`` is ever set.  Each
    node is released as the walk passes it, once its rule has run or been
    skipped because its output got no gradient: its slot is cleared and its
    inputs, shape and rule are dropped,
    so the arrays its rule saved are freed as soon as nothing later in the
    walk needs them.  Nodes are hollowed in place and stay in ``tape.nodes``
    until the tape is dropped, so the tape and a list of them that a caller
    captured keep their length.
    Re-running backward on a tape that was already consumed is an error;
    rebuild the forward pass.  A gradient whose shape differs from its
    tensor's raises ``TapeError``.
    """
    if loss.data.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise TapeError("loss is a constant: it was not recorded on any tape")
    if tape.consumed:
        raise TapeError("backward already ran on this tape; rebuild the forward pass")
    tape.consumed = True

    nodes = tape.nodes
    grads: list[np.ndarray | None] = [None] * len(nodes)
    grads[loss._slot] = np.ones_like(loss.data)
    for slot in range(len(nodes) - 1, -1, -1):
        node = nodes[slot]
        g, grads[slot] = grads[slot], None
        if g is not None:
            for inp, gi in zip(node.inputs, node.vjp(g)):
                if gi is None:
                    continue
                recorded = type(inp) is int
                shape = nodes[inp].shape if recorded else inp.data.shape
                if gi.shape != shape:
                    raise TapeError(f"a gradient of shape {gi.shape} reached a tensor of shape {shape}")
                # The first gradient is stored as is. It may be a view of another
                # gradient (reshape, permute, add), so later ones are added out
                # of place.
                if recorded:
                    prev = grads[inp]
                    grads[inp] = gi if prev is None else prev + gi
                elif type(inp) is not _Constant:
                    inp.grad = gi if inp.grad is None else inp.grad + gi
        # release the node, so what only it kept alive is freed now
        node.inputs = node.shape = node.vjp = None


def held_by(rule: Callable) -> Iterator[object]:
    """Every object a node's rule reaches, each once, through tuples, lists
    and nested closures from its closure's cells; a view comes as a view."""
    stack, seen = [c.cell_contents for c in rule.__closure__ or ()], set()
    while stack:
        value = stack.pop()
        if id(value) not in seen:
            seen.add(id(value))
            yield value
            if isinstance(value, (tuple, list)):
                stack += value
            elif callable(value) and getattr(value, "__closure__", None):
                stack += [c.cell_contents for c in value.__closure__]


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along axes that numpy broadcast."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"add cannot broadcast {a.shape} with {b.shape}") from None
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _record(out, (a, b), vjp)


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return add(a, neg(b))


def neg(a: DiffTensor) -> DiffTensor:
    return _record(-a.data, (a,), lambda g: (-g,))


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul cannot broadcast {a.shape} with {b.shape}") from None
    a_data, b_data = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return _record(out, (a, b), vjp)


def scale(a: DiffTensor, factor: float) -> DiffTensor:
    f = float(factor)
    return _record(a.data * f, (a,), lambda g: (g * f,))


def square(a: DiffTensor) -> DiffTensor:
    return mul(a, a)


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """``a`` (..., k) projected by ``b`` (k, m) to (..., m): one GEMM over the rows of ``a``."""
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul takes a (..., k) track and a (k, m) matrix, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    a_shape = a.shape
    rows, b_data = a.data.reshape(-1, a_shape[-1]), b.data
    out = (rows @ b_data).reshape(*a_shape[:-1], b_data.shape[1])

    def vjp(g):
        g = g.reshape(-1, b_data.shape[1])
        return (g @ b_data.T).reshape(a_shape), rows.T @ g

    return _record(out, (a, b), vjp)


def _parse_einsum2(spec: str) -> tuple[str, str, str]:
    lhs, _, out_sub = spec.partition("->")
    if not _:
        raise DimensionError(f"einsum2 spec needs an explicit output: {spec!r}")
    parts = lhs.split(",")
    if len(parts) != 2:
        raise DimensionError(f"einsum2 takes exactly two operands: {spec!r}")
    a_sub, b_sub = parts
    for sub in (a_sub, b_sub):
        if len(set(sub)) != len(sub):
            raise DimensionError(f"einsum2 forbids repeated indices within one operand: {spec!r}")
    # The gradient of an operand is itself an einsum of (output grad, other
    # operand), which only reconstructs indices present in that pair.
    for sub, other in ((a_sub, b_sub), (b_sub, a_sub)):
        missing = set(sub) - set(out_sub) - set(other)
        if missing:
            raise DimensionError(
                f"einsum2 index {sorted(missing)} of {spec!r} appears in neither the "
                "output nor the other operand, so its gradient is not defined here"
            )
    return a_sub, b_sub, out_sub


def einsum2(spec: str, a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Two-operand einsum with reverse-mode support.

    Restricted to specs with no repeated index inside a single operand and
    where every operand index appears in the output or the other operand.
    """
    a_sub, b_sub, out_sub = _parse_einsum2(spec)
    try:
        out = np.einsum(spec, a.data, b.data)
    except ValueError:
        raise DimensionError(f"einsum2 {spec!r} rejects shapes {a.shape} and {b.shape}") from None
    a_data, b_data = a.data, b.data

    def vjp(g):
        ga = np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, b_data)
        gb = np.einsum(f"{out_sub},{a_sub}->{b_sub}", g, a_data)
        return ga, gb

    return _record(out, (a, b), vjp)


def relu(a: DiffTensor) -> DiffTensor:
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        # out > 0 exactly where the input is; reading out leaves the input
        # free, and the next layer's matmul holds out anyway. Since out >= 0,
        # sign(out) is the 0/1 mask, made in the gradient's own buffer.
        gx = np.sign(out)
        gx *= g
        return (gx,)

    return _record(out, (a,), vjp)


def tanh(a: DiffTensor) -> DiffTensor:
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _record(out, (a,), vjp)


def exp(a: DiffTensor) -> DiffTensor:
    out = np.exp(a.data)

    def vjp(g):
        return (g * out,)

    return _record(out, (a,), vjp)


def log(a: DiffTensor) -> DiffTensor:
    a_data = a.data
    out = np.log(a_data)

    def vjp(g):
        return (g / a_data,)

    return _record(out, (a,), vjp)


def sqrt(a: DiffTensor) -> DiffTensor:
    out = np.sqrt(a.data)

    def vjp(g):
        return (g * 0.5 / out,)

    return _record(out, (a,), vjp)


def softmax_rows(x: DiffTensor, mask: np.ndarray | None = None) -> DiffTensor:
    """Numerically stable softmax over the last axis.

    ``mask`` marks the entries that participate; masked entries come out as
    exactly 0 and receive exactly zero gradient.
    """
    data = x.data
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise DimensionError(f"mask shape {mask.shape} does not match input shape {x.shape}")
        if not mask.any(axis=-1).all():
            raise ValueError("softmax row is fully masked")
        data = np.where(mask, data, -np.inf)
    e = np.exp(data - np.max(data, axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _record(out, (x,), vjp)


def log_softmax_rows(x: DiffTensor, offsets) -> DiffTensor:
    """Log of softmax over each row ``offsets[b]:offsets[b + 1]`` of the (R, 1)
    column ``x``, computed on one (B, m) grid of the rows, m the longest,
    padded with -inf; no row may be empty."""
    offsets = np.asarray(offsets, dtype=np.intp)
    if x.shape[1:] != (1,) or offsets.ndim != 1 or len(offsets) < 2 or offsets[0] or offsets[-1] != len(x.data):
        raise DimensionError(f"offsets {offsets.tolist()} do not span the (R, 1) column {x.shape}")
    width = np.diff(offsets)
    if (width < 1).any():
        raise ValueError("log-softmax row is empty")
    grid = np.arange(width.max()) < width[:, None]
    data = np.full(grid.shape, -np.inf)
    data[grid] = x.data[:, 0]
    shifted = data - np.max(data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    out = (shifted - np.log(s))[grid][:, None]
    soft = e / s

    def vjp(g):
        g_grid = np.zeros(grid.shape)
        g_grid[grid] = g[:, 0]
        return ((g_grid - soft * g_grid.sum(axis=-1, keepdims=True))[grid][:, None],)

    return _record(out, (x,), vjp)


def _matmul_into(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """``target[...] = a @ b``, summed over the batch axes that ``target``
    broadcasts; written in place when nothing needs summing."""
    if np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) == target.shape[:-2]:
        np.matmul(a, b, out=target)
    else:
        target[...] = _unbroadcast(np.matmul(a, b), target.shape)


def _softmax_weights(
    logits: np.ndarray, f: float, mask: np.ndarray | None, stats: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The softmax weights over the last axis of ``f * logits``, masked
    entries at weight 0, made in the buffer of ``logits`` when there is no
    mask, and each row's (max, sum after exp), (..., 1). Given ``stats``,
    the rows are shifted and divided by those instead of their own, so the
    weights that they were taken from come back to the last bit."""
    logits *= f
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    row_max = logits.max(axis=-1, keepdims=True) if stats is None else stats[0]
    logits -= row_max
    w = np.exp(logits, out=logits)
    row_sum = w.sum(axis=-1, keepdims=True) if stats is None else stats[1]
    w /= row_sum
    return w, (row_max, row_sum)


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``x`` at zero mean and unit variance over the last axis,
    and each row's inverse standard deviation, (..., 1)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    return centered * inv, inv


def _normalize_vjp(g: np.ndarray, x_hat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient of ``_normalize``, given the gradient ``g`` of its rows."""
    gmean = g.mean(axis=-1, keepdims=True)
    gy = (g * x_hat).mean(axis=-1, keepdims=True)
    return inv * (g - gmean - x_hat * gy)


def _check_norm(x: DiffTensor, norm: tuple[DiffTensor, DiffTensor], where: str) -> None:
    gain, beta = norm
    if gain.shape != (x.shape[-1],) or beta.shape != (x.shape[-1],):
        raise DimensionError(
            f"{where}: a norm of {x.shape} needs gain and bias of shape ({x.shape[-1]},), "
            f"got {gain.shape} and {beta.shape}"
        )


def _pre_norm(rows: np.ndarray, norm: tuple[DiffTensor, DiffTensor]):
    """What a pre-norm rule keeps of the (n, c) ``rows`` of its input: the
    normalized rows, their inverse std and the gain and bias arrays, by
    reference; and the ``_scaled`` rows, which the rule drops."""
    x_hat, inv = _normalize(rows)
    kept = (x_hat, inv, norm[0].data, norm[1].data)
    return kept, _scaled(kept)


def _scaled(kept) -> np.ndarray:
    """``x_hat * gain + bias`` of what ``_pre_norm`` keeps."""
    x_hat, _, gain, beta = kept
    return x_hat * gain + beta


def _pre_norm_vjp(g: np.ndarray, kept, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the input, in ``shape``, and of the gain and bias of a
    ``_pre_norm`` input, given the gradient ``g`` of its scaled and shifted
    rows. The gain and bias gradients are summed over the leading axes of
    ``shape`` as ``add`` and ``mul`` sum a broadcast operand's."""
    x_hat, inv, gain, beta = kept
    g_gain = _unbroadcast((g * x_hat).reshape(shape), gain.shape)
    return _normalize_vjp(g * gain, x_hat, inv).reshape(shape), g_gain, _unbroadcast(g.reshape(shape), beta.shape)


def attention(
    x_q: DiffTensor,
    x_kv: DiffTensor,
    norm_q: tuple[DiffTensor, DiffTensor],
    norm_kv: tuple[DiffTensor, DiffTensor],
    w_q: DiffTensor,
    w_k: DiffTensor,
    w_v: DiffTensor,
    w_o: DiffTensor,
    bias: DiffTensor,
    axis: int,
    mask: np.ndarray | None = None,
) -> DiffTensor:
    """A pre-norm projected multi-head attention block along one axis, one node.

    ``x_q`` (*lead_q, c_q) is layer-normalized over its last axis and scaled
    and shifted by ``norm_q`` = (gain, bias), each (c_q,), then projected by
    ``w_q`` (c_q, heads * d) into q; ``x_kv`` (*lead_kv, c_kv) likewise by
    ``norm_kv`` and ``w_k`` and ``w_v`` (c_kv, heads * d) into k and v. Along
    lead axis ``axis``, each query attends over the keys, the other lead axes
    broadcasting: the heads ``softmax((q @ kᵀ + bias) / sqrt(d)) @ v`` are
    joined and projected by ``w_o`` (heads * d, c_out) into the (*lead,
    c_out) update in ``x_q``'s layout. ``bias`` (..., n_q, n_kv, heads), as
    a ``matmul`` projects it, sets the head count; it and the boolean
    ``mask`` (..., n_q, n_kv), True for entries that participate, broadcast
    against the lead axes other than ``axis``. Masked entries get weight
    exactly 0 and gradient exactly 0; a fully masked row raises
    ``ValueError``. With ``x_kv`` and ``norm_kv`` the very tensors of
    ``x_q`` and ``norm_q``, the block is self-attention over one normalized
    input, and ``x_kv`` and ``norm_kv`` get no gradient of their own.

    One GEMM per distinct input projects it over the concatenated weights,
    [q | k | v] for self-attention, else [q] and [k | v], and one more takes
    its gradient back. The rule keeps each distinct input's normalized rows
    and their inverse std, and the gain, bias and weight arrays by
    reference. It keeps the smaller of the softmax weights and the bias:
    where the bias broadcasts over lead axes, as the triangle folds' does,
    it keeps the bias, the mask and each softmax row's max and sum after
    ``exp`` in place of the weights. In backward it recomputes the scaled
    and shifted input, the concatenated weights, q, k, v, the weights if it
    did not keep them and the head outputs, with the forward's own
    operations, so every value and gradient is the same to the last bit.
    """
    nd = x_q.data.ndim
    c_q, c_kv = x_q.shape[-1], x_kv.shape[-1]
    hd = w_q.shape[1]
    if (
        x_kv.data.ndim != nd
        or not 0 <= axis < nd - 1
        or w_q.data.ndim != 2
        or w_q.shape[0] != c_q
        or w_k.shape != (c_kv, hd)
        or w_v.shape != (c_kv, hd)
        or w_o.data.ndim != 2
        or w_o.shape[0] != hd
        or bias.data.ndim < 3
        or not bias.shape[-1]
        or hd % bias.shape[-1]
    ):
        raise DimensionError(
            f"attention along axis {axis} rejects x_q {x_q.shape}, x_kv {x_kv.shape}, "
            f"weights {w_q.shape}, {w_k.shape}, {w_v.shape}, {w_o.shape} and bias {bias.shape}"
        )
    _check_norm(x_q, norm_q, "attention")
    _check_norm(x_kv, norm_kv, "attention")
    n_heads = bias.shape[-1]
    d = hd // n_heads
    f = 1.0 / np.sqrt(d)
    # (*lead, heads, d) -> (*lead without axis, heads, axis, d)
    fold = (*(i for i in range(nd - 1) if i != axis), nd - 1, axis, nd)
    unfold = tuple(np.argsort(fold))
    bias_heads = np.moveaxis(bias.data, -1, -3)  # a view, in the logits' layout
    bias_shape = bias_heads.shape
    wq, wk, wv, wo = w_q.data, w_k.data, w_v.data, w_o.data
    # (raw input, its norm, the weights it is projected by) per GEMM
    if x_q is x_kv and norm_q[0] is norm_kv[0] and norm_q[1] is norm_kv[1]:
        inputs = [(x_q, norm_q, (wq, wk, wv))]
    else:
        inputs = [(x_q, norm_q, (wq,)), (x_kv, norm_kv, (wk, wv))]
    groups, normed = [], []
    for x, norm, weights in inputs:
        kept, y = _pre_norm(x.data.reshape(-1, x.shape[-1]), norm)
        groups.append((kept, weights, x.shape))
        normed.append(y)

    def folded(arrays):
        # q, k and v: views of the groups' (*lead, projections, heads, d) arrays
        return [a[..., i, :, :].transpose(fold) for a in arrays for i in range(a.shape[-3])]

    def project(normed):
        # the concatenated weights, and q, k, v from the scaled and shifted rows
        w_cat = [ws[0] if len(ws) == 1 else np.concatenate(ws, axis=1) for _, ws, _ in groups]
        proj = [
            (y @ w).reshape(*shape[:-1], len(ws), n_heads, d) for y, w, (_, ws, shape) in zip(normed, w_cat, groups)
        ]
        return w_cat, folded(proj)

    def attend(w, v):
        # the head outputs w @ v, unfolded to (*lead, heads, d)
        shape = (*w.shape[:-1], d)
        heads = np.empty([shape[i] for i in unfold])
        np.matmul(w, v, out=heads.transpose(fold))
        return heads

    _, (q, k, v) = project(normed)
    try:
        logits = np.matmul(q, np.swapaxes(k, -1, -2)) + bias_heads
    except ValueError:
        raise DimensionError(f"attention rejects q {q.shape}, k {k.shape} and bias {bias.shape}") from None
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        shape = (*mask.shape[:-2], 1, *mask.shape[-2:])  # with the logits' heads axis
        if mask.ndim < 2 or len(shape) > logits.ndim or any(m not in (1, n) for m, n in zip(shape[::-1], logits.shape[::-1])):
            raise DimensionError(f"attention mask {mask.shape} does not broadcast to the logits {logits.shape}")
        mask = mask.reshape(shape)
        if not mask.any(axis=-1).all():
            raise ValueError("attention row is fully masked")
    w, stats = _softmax_weights(logits, f, mask)
    # the weights, or where the bias is the smaller what rebuilds them
    kept_w = (stats, bias_heads, mask) if bias_heads.size < w.size else w
    heads = attend(w, v)
    lead = heads.shape[:-2]
    out = (heads.reshape(-1, hd) @ wo).reshape(*lead, wo.shape[1])

    def vjp(g):
        normed = [_scaled(kept) for kept, _, _ in groups]
        w_cat, (q, k, v) = project(normed)
        w = kept_w
        if isinstance(w, tuple):
            stats, bias_heads, mask = w
            w, _ = _softmax_weights(np.matmul(q, np.swapaxes(k, -1, -2)) + bias_heads, f, mask, stats)
        heads = attend(w, v)
        g2 = g.reshape(-1, wo.shape[1])
        g_wo = heads.reshape(-1, hd).T @ g2
        gh = (g2 @ wo.T).reshape(*lead, n_heads, d).transpose(fold)
        # softmax backward; the row sums of gh ∘ (w @ v) are those of (gh @ vᵀ) ∘ w
        gl = np.matmul(gh, np.swapaxes(v, -1, -2))
        gl -= (gh * heads.transpose(fold)).sum(axis=-1, keepdims=True)
        del heads
        gl *= w
        gl *= f
        g_bias = np.moveaxis(_unbroadcast(gl, bias_shape), -3, -1)
        grads = [np.empty((*shape[:-1], len(ws), n_heads, d)) for _, ws, shape in groups]
        gq, gk, gv = folded(grads)
        _matmul_into(gq, gl, k)
        _matmul_into(gk, np.swapaxes(gl, -1, -2), q)
        _matmul_into(gv, np.swapaxes(w, -1, -2), gh)
        del q, k, v, w, gh, gl  # freed before the norm backward allocates its own buffers
        g_norms, g_w = [], []
        for (kept, ws, shape), y, w_c, g_cat in zip(groups, normed, w_cat, grads):
            g_cat = g_cat.reshape(len(y), -1)
            g_norms.append(_pre_norm_vjp(g_cat @ w_c.T, kept, shape))
            g_w += np.split(y.T @ g_cat, len(ws), axis=1)
        g_kv = g_norms[1] if len(g_norms) > 1 else (None, None, None)
        return (g_norms[0][0], g_kv[0], *g_norms[0][1:], *g_kv[1:], *g_w, g_wo, g_bias)

    return _record(out, (x_q, x_kv, *norm_q, *norm_kv, w_q, w_k, w_v, w_o, bias), vjp)


def mlp(
    x: DiffTensor,
    layers: Sequence[tuple[DiffTensor, DiffTensor]],
    norm: tuple[DiffTensor, DiffTensor] | None = None,
) -> DiffTensor:
    """A ReLU MLP over the last axis of ``x``, one node.

    ``layers`` lists (w, b) pairs, w (c_in, c_out) and b (c_out,), applied
    as ``h @ w + b`` with a ReLU between layers and none after the last.
    With ``norm`` = (gain, bias), each (c,), the rows of ``x`` (*lead, c)
    are first layer-normalized, scaled and shifted. Returns (*lead, c_out).

    The rule keeps only the first layer's input and the weight arrays by
    reference: the normalized rows, their inverse std and the gain and bias
    arrays (with ``norm``) or ``x`` itself (without). In backward it
    rebuilds the scaled and shifted rows and each hidden ReLU output with
    the forward's own operations, so every value and gradient is the same
    to the last bit, and writes each layer's input gradient into the
    rebuilt buffer of that input once its weight gradient and ReLU mask are
    taken.
    """
    layers = list(layers)
    if not layers:
        raise DimensionError("mlp needs at least one layer")
    width = x.shape[-1]
    for w, b in layers:
        if w.data.ndim != 2 or w.shape[0] != width or b.shape != (w.shape[1],):
            raise DimensionError(f"mlp rejects a layer of weight {w.shape} and bias {b.shape} after width {width}")
        width = w.shape[1]
    x_shape = x.shape
    params = [(w.data, b.data) for w, b in layers]
    has_norm = norm is not None
    rows = x.data.reshape(-1, x_shape[-1])
    if has_norm:
        _check_norm(x, norm, "mlp")
        kept, rows = _pre_norm(rows, norm)
    else:
        kept = rows

    def layer_outputs(h, n):
        # the outputs of the first n layers, each made in a buffer of its own
        outs = []
        for i, (w, b) in enumerate(params[:n]):
            h = h @ w
            h += b
            if i < len(params) - 1:
                np.maximum(h, 0.0, out=h)
            outs.append(h)
        return outs

    out = layer_outputs(rows, len(params))[-1].reshape(*x_shape[:-1], width)

    def vjp(g):
        g = g.reshape(-1, width)
        # each layer's input, rebuilt; without a norm the first is the
        # caller's own rows, so its gradient gets a buffer of its own
        inputs = [_scaled(kept) if has_norm else kept]
        inputs += layer_outputs(inputs[0], len(params) - 1)
        g_params = []
        for i in range(len(params) - 1, -1, -1):
            w, b = params[i]
            h = inputs.pop()
            g_params[:0] = [h.T @ g, _unbroadcast(g, b.shape)]
            if i:
                mask = h > 0.0
                g = np.matmul(g, w.T, out=h)
                g *= mask
            else:
                g = np.matmul(g, w.T, out=h) if has_norm else g @ w.T
        if not has_norm:
            return (g.reshape(x_shape), *g_params)
        g_x, g_gain, g_beta = _pre_norm_vjp(g, kept, g.shape)
        return (g_x.reshape(x_shape), g_gain, g_beta, *g_params)

    return _record(out, (x, *(norm or ()), *(t for layer in layers for t in layer)), vjp)


def layer_norm_rows(x: DiffTensor) -> DiffTensor:
    """Zero-mean unit-variance normalization over the last axis (no affine)."""
    out, inv = _normalize(x.data)

    def vjp(g):
        return (_normalize_vjp(g, out, inv),)

    return _record(out, (x,), vjp)


def concat(parts: Sequence[DiffTensor], axis: int = 0) -> DiffTensor:
    parts = list(parts)
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        shapes = [p.shape for p in parts]
        raise DimensionError(f"concat along axis {axis} rejects shapes {shapes}") from None
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _record(out, tuple(parts), vjp)


def gather_rows(x: DiffTensor, indices) -> DiffTensor:
    """Select rows along axis 0 by an index array of any shape; the output is
    ``indices.shape + x.shape[1:]``. Duplicate indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    out = x.data[idx]
    x_shape = x.shape

    def vjp(g):
        gx = np.zeros(x_shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _record(out, (x,), vjp)


def reshape(x: DiffTensor, shape: Sequence[int]) -> DiffTensor:
    shape = tuple(shape)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {x.shape} into {shape}") from None
    x_shape = x.shape

    def vjp(g):
        return (g.reshape(x_shape),)

    return _record(out, (x,), vjp)


def permute(x: DiffTensor, axes: Sequence[int]) -> DiffTensor:
    axes = tuple(axes)
    out = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _record(out, (x,), vjp)


def sum_all(x: DiffTensor) -> DiffTensor:
    out = np.array([x.data.sum()])
    x_shape = x.shape

    def vjp(g):
        return (np.full(x_shape, g[0]),)

    return _record(out, (x,), vjp)


def mean_rows(x: DiffTensor) -> DiffTensor:
    """Arithmetic mean over axis 0 of a 2-D tensor, kept as shape (1, c)."""
    if x.data.ndim != 2:
        raise DimensionError(f"mean_rows takes a 2-D tensor, got {x.shape}")
    n = x.shape[0]
    weights = constant(np.full(n, 1.0 / n))
    return reshape(einsum2("nc,n->c", x, weights), (1, x.shape[1]))


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    tol: float
    passed: bool
    n_checked: int

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"finite-diff {status}: max rel err {self.max_rel_err:.3e} vs tol {self.tol:.1e} ({self.n_checked} entries)"


def finite_diff_check(
    f: Callable[[DiffTensor], DiffTensor],
    x: DiffTensor,
    tol: float = 1e-4,
    seed: int = 0,
) -> FiniteDiffReport:
    """Compare the analytic gradient of ``f`` at ``x`` with central differences.

    ``f`` must be deterministic.  Non-scalar outputs are contracted with fixed
    random coefficients so a single backward pass covers them.  ``x.data`` is
    perturbed in place during the sweep and restored afterwards.
    """
    probe = f(x)
    if not isinstance(probe, DiffTensor):
        raise TypeError("finite_diff_check expects f to return a DiffTensor")
    coeffs = np.random.default_rng(seed).standard_normal(probe.shape)

    def scalarize_value(t: DiffTensor) -> float:
        return float((t.data * coeffs).sum())

    with Tape():
        y = f(x)
        loss = sum_all(mul(y, constant(coeffs)))
        saved_grad = x.grad
        x.grad = None
        backward(loss)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
        x.grad = saved_grad

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        f_plus = scalarize_value(f(x))
        flat[i] = orig - FD_STEP
        f_minus = scalarize_value(f(x))
        flat[i] = orig
        nflat[i] = (f_plus - f_minus) / (2.0 * FD_STEP)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
    return FiniteDiffReport(max_rel_err=max_rel, tol=tol, passed=max_rel < tol, n_checked=flat.size)
