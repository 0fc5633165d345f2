"""Gradient integrity and tape semantics for the reverse-mode engine."""

import gc
import inspect
import re
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

from pocketgfn import autodiff as ad, selfcheck
from pocketgfn.autodiff import (
    DimensionError,
    Tape,
    TapeError,
    backward,
    concat,
    einsum2,
    finite_diff_check,
    gather_rows,
    layer_norm_rows,
    log_softmax_rows,
    matmul,
    relu,
    softmax_rows,
    sum_all,
    tensor,
)
from pocketgfn.trioformer import reference_cross_attention, reference_pair_attention

import autodiff_reference as reference

RNG = np.random.default_rng(1234)

PRIMITIVE_TOL = 1e-4
COMPOSITE_TOL = 1e-3


def rand(*shape):
    # keep inputs in [-1, 1]; relu/sqrt variants shift as needed
    return tensor(RNG.uniform(-1.0, 1.0, size=shape))


class TestForwardValues:
    def test_softmax_rows_known_value(self):
        x = tensor([[1.0, 2.0, 3.0]])
        with Tape():
            y = softmax_rows(x)
        np.testing.assert_allclose(y.data, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-8)

    def test_matmul_known_value(self):
        a = tensor([[1.0, 2.0], [3.0, 4.0]])
        b = tensor([[1.0], [1.0]])
        with Tape():
            y = matmul(a, b)
        np.testing.assert_allclose(y.data, [[3.0], [7.0]])

    def test_softmax_rows_sum_to_one(self):
        x = rand(5, 7)
        with Tape():
            y = softmax_rows(x)
        np.testing.assert_allclose(y.data.sum(axis=1), np.ones(5), atol=1e-12)

    def test_masked_softmax_exact_zeros(self):
        x = rand(3, 4)
        mask = np.array(
            [
                [True, False, True, True],
                [False, True, True, False],
                [True, True, True, True],
            ]
        )
        with Tape():
            y = softmax_rows(x, mask=mask)
        assert np.all(y.data[~mask] == 0.0)
        np.testing.assert_allclose(y.data.sum(axis=1), np.ones(3), atol=1e-12)

    def test_fully_masked_row_rejected(self):
        x = rand(2, 3)
        mask = np.array([[True, True, True], [False, False, False]])
        with pytest.raises(ValueError):
            with Tape():
                softmax_rows(x, mask=mask)

    def test_log_softmax_ragged_rows_each_sum_to_one(self):
        x = rand(7, 1)
        with Tape():
            y = log_softmax_rows(x, [0, 3, 4, 7])
        assert y.shape == (7, 1)
        for lo, hi in ((0, 3), (3, 4), (4, 7)):
            np.testing.assert_allclose(np.exp(y.data[lo:hi]).sum(), 1.0, atol=1e-12)
        assert y.data[3, 0] == 0.0  # a row of one entry

    def test_log_softmax_row_change_leaves_other_rows_bit_for_bit(self):
        # rows of 2, 5, 1 and 3 entries; the longest row changes
        offsets = [0, 2, 7, 8, 11]
        x = RNG.uniform(-1.0, 1.0, size=(11, 1))
        moved = x.copy()
        moved[2:7] = RNG.uniform(-5.0, 5.0, size=(5, 1))
        base, out = log_softmax_rows(tensor(x), offsets).data, log_softmax_rows(tensor(moved), offsets).data
        others = np.r_[0:2, 7:11]
        np.testing.assert_array_equal(out[others], base[others])
        assert not np.array_equal(out[2:7], base[2:7])

    def test_log_softmax_empty_row_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            log_softmax_rows(rand(4, 1), [0, 2, 2, 4])

    def test_log_softmax_offsets_must_span_the_column(self):
        for offsets in ([0, 2, 3], [1, 2, 4], [0, 4, 5], [4]):
            with pytest.raises(DimensionError):
                log_softmax_rows(rand(4, 1), offsets)
        with pytest.raises(DimensionError):
            log_softmax_rows(rand(2, 2), [0, 1, 2])  # not a column

    def test_layer_norm_rows_standardizes(self):
        x = rand(4, 9)
        with Tape():
            y = layer_norm_rows(x)
        np.testing.assert_allclose(y.data.mean(axis=1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(y.data.var(axis=1), np.ones(4), atol=1e-4)

    def test_matmul_shape_error_names_shapes(self):
        # inner dimensions that disagree, of rows and of a track; a 3-D
        # right operand; a 1-D left one
        for a_shape, b_shape in (((2, 3), (4, 5)), ((2, 3, 4), (3, 5)), ((2, 3, 4), (4, 5, 1)), ((4,), (4, 5))):
            with pytest.raises(DimensionError, match=re.escape(f"{a_shape} x {b_shape}")):
                matmul(rand(*a_shape), rand(*b_shape))

    def test_einsum2_rejects_repeated_index_within_operand(self):
        a = rand(3, 3)
        b = rand(3, 2)
        with pytest.raises(DimensionError):
            einsum2("ii,ij->ij", a, b)

    def test_einsum2_rejects_unsummable_index(self):
        a = rand(3, 4)
        b = rand(5, 2)
        # 'j' appears only in the first operand and not in the output
        with pytest.raises(DimensionError):
            einsum2("ij,kl->ikl", a, b)

    def test_gather_rows_forward(self):
        x = tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with Tape():
            y = gather_rows(x, np.array([2, 0, 2]))
            grid = gather_rows(x, np.array([[2, 0], [2, 2]]))
        np.testing.assert_allclose(y.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])
        # the output is indices.shape + x.shape[1:]
        np.testing.assert_allclose(grid.data, [[[5.0, 6.0], [1.0, 2.0]], [[5.0, 6.0], [5.0, 6.0]]])


class TestTapeSemantics:
    def test_no_tape_no_graph(self):
        x = rand(2, 2)
        y = ad.add(x, x)
        assert y._tape is None
        with pytest.raises(TapeError):
            backward(y and sum_all(y))

    def test_backward_requires_scalar(self):
        x = rand(2, 2)
        with Tape():
            y = ad.add(x, x)
        with pytest.raises(TapeError):
            backward(y)

    def test_backward_twice_rejected(self):
        x = rand(3, 3)
        with Tape():
            loss = sum_all(ad.mul(x, x))
        backward(loss)
        with pytest.raises(TapeError):
            backward(loss)

    def test_grad_accumulates_across_uses(self):
        x = tensor([[2.0]])
        with Tape():
            y = ad.add(ad.mul(x, x), x)  # x^2 + x, d/dx = 2x + 1 = 5
            loss = sum_all(y)
        backward(loss)
        np.testing.assert_allclose(x.grad, [[5.0]])

    def test_nested_tapes_are_independent(self):
        x = rand(2, 2)
        with Tape():
            a = ad.mul(x, x)
            with Tape():
                b = ad.mul(x, x)
                backward(sum_all(b))
            inner_grad = x.grad.copy()
            x.grad = None
            backward(sum_all(a))
        np.testing.assert_allclose(x.grad, inner_grad)

    def test_gradient_of_wrong_shape_rejected(self):
        # a vjp that forgets to broadcast back: (3,) for a (2, 3) input
        x = rand(2, 3)
        with Tape():
            loss = sum_all(ad._record(x.data.sum(axis=0), (x,), lambda g: (g,)))
        with pytest.raises(TapeError, match=r"\(3,\).*\(2, 3\)"):
            backward(loss)

    def test_view_gradients_summed_without_aliasing(self):
        # add, reshape and permute hand back their output gradient or a view
        # of it. The add is recorded last, so the walk gives x and the leaf z
        # the same array first; x's later sums must leave z's gradient alone.
        # Only the leaves keep a gradient, so the views' own are None.
        x = tensor(np.arange(6.0).reshape(2, 3))
        z = tensor(np.zeros((2, 3)))
        c1 = tensor(np.linspace(3.0, 4.0, 6).reshape(3, 2))
        c2 = tensor(np.linspace(-1.0, 1.0, 6).reshape(3, 2))
        c3 = tensor(np.linspace(1.0, 2.0, 6).reshape(2, 3))
        with Tape():
            y1 = ad.permute(x, (1, 0))
            y2 = ad.reshape(x, (3, 2))
            y3 = ad.add(x, z)
            loss = ad.add(ad.add(sum_all(ad.mul(y1, c1)), sum_all(ad.mul(y2, c2))), sum_all(ad.mul(y3, c3)))
        backward(loss)
        assert y1.grad is None and y2.grad is None and y3.grad is None
        np.testing.assert_array_equal(z.grad, c3.data)
        # summed in walk order: add, then reshape, then permute
        np.testing.assert_array_equal(x.grad, c3.data + c2.data.reshape(2, 3) + c1.data.T)


def _composite(x, w, b):
    """A graph with shared uses, views, a fused attention and a branch the
    loss never reads. Returns (loss, intermediates, unused branch)."""
    h = ad.tanh(ad.add(matmul(x, w), b))
    bias = ad.reshape(matmul(h, ad.permute(concat([h, h], axis=0), (1, 0))), (3, 3, 2))  # 2 heads
    a = ad.attention(h, h, (b, b), (b, b), w, w, w, w, bias, 0)
    n = layer_norm_rows(ad.add(a, h))
    unused = ad.exp(x)
    loss = sum_all(ad.mul(log_softmax_rows(ad.reshape(n, (12, 1)), [0, 5, 6, 12]), ad.reshape(n, (12, 1))))
    return loss, (h, a, n), unused


def _retaining_backward(loss):
    # the same walk, releasing nothing: every slot keeps its gradient, and
    # the list of them is returned
    nodes = loss._tape.nodes
    grads = [None] * len(nodes)
    grads[loss._slot] = np.ones_like(loss.data)
    for slot in reversed(range(len(nodes))):
        if grads[slot] is not None:
            for inp, gi in zip(nodes[slot].inputs, nodes[slot].vjp(grads[slot])):
                if gi is None:
                    continue
                if type(inp) is int:
                    grads[inp] = gi if grads[inp] is None else grads[inp] + gi
                else:
                    inp.grad = gi if inp.grad is None else inp.grad + gi
    return grads


class TestBackwardReleasesTape:
    def leaves(self):
        rng = np.random.default_rng(5)
        return [tensor(rng.normal(size=shape)) for shape in ((3, 4), (4, 4), (4,))]

    def test_captured_node_list_keeps_its_length(self):
        with Tape() as tape:
            loss, _, _ = _composite(*self.leaves())
        nodes = tape.nodes
        n = len(nodes)
        backward(loss)
        # hollowed in place, never popped or rebound: the caller's list and
        # the tape's are one list, whole, so a size read after backward is
        # the size before it
        assert tape.nodes is nodes and len(nodes) == n > 0
        assert all(node.inputs is None and node.shape is None and node.vjp is None for node in nodes)

    def test_intermediate_array_freed_once_caller_drops_it(self):
        with Tape() as tape:
            loss, (h, a, n), unused = _composite(*self.leaves())
        nodes = tape.nodes  # held throughout, as a tracer holds it
        refs = [weakref.ref(t.data) for t in (h, a, n, unused)]
        del h, a, n, unused
        gc.disable()
        try:
            backward(loss)
            # by reference counting alone, the skipped branch included
            assert [r() for r in refs] == [None] * 4
        finally:
            gc.enable()

    def test_only_leaves_keep_gradients_and_they_are_unchanged(self):
        released, retained = self.leaves(), self.leaves()
        with Tape():
            loss, inner, unused = _composite(*released)
        with Tape():
            ref_loss, ref_inner, _ = _composite(*retained)
        backward(loss)
        ref_grads = _retaining_backward(ref_loss)
        assert all(ref_grads[t._slot] is not None for t in ref_inner)
        assert loss.grad is None and unused.grad is None
        assert all(t.grad is None for t in inner)
        for mine, ref in zip(released, retained):
            np.testing.assert_array_equal(mine.grad, ref.grad)


class TestTapeKeepsWhatRulesRead:
    def test_unread_intermediate_freed_during_forward(self, monkeypatch):
        # tanh's rule reads its output, not its input, and add's only the
        # shapes: the pre-tanh sum is freed before backward; h, which later
        # rules read, lives until the walk passes them
        pre_tanh = []
        real_tanh = ad.tanh

        def tanh(t):
            pre_tanh.append(weakref.ref(t.data))
            return real_tanh(t)

        monkeypatch.setattr(ad, "tanh", tanh)
        rng = np.random.default_rng(5)
        leaves = [tensor(rng.normal(size=shape)) for shape in ((3, 4), (4, 4), (4,))]
        gc.disable()
        try:
            with Tape():
                loss, (h, _, _), _ = _composite(*leaves)
            h_ref = weakref.ref(h.data)
            del h
            assert len(pre_tanh) == 1 and pre_tanh[0]() is None
            assert h_ref() is not None
            backward(loss)
            assert h_ref() is None
        finally:
            gc.enable()


NOT_PRIMITIVES = {"active_tape", "tensor", "constant", "backward", "held_by", "finite_diff_check"}


def public_primitives() -> set[str]:
    return {
        name for name, f in vars(ad).items()
        if callable(f) and getattr(f, "__module__", None) == ad.__name__
        and not isinstance(f, type) and not name.startswith("_")
    } - NOT_PRIMITIVES


def test_every_public_primitive_has_a_gradient_case():
    public = public_primitives()

    def primitive(case):
        # the longest leading run of the case's words that names a primitive
        words = case.split("_")
        for n in range(len(words), 0, -1):
            name = "_".join(words[:n])
            if name in public:
                return name
        return None

    cases = {name: primitive(name) for name, _, _ in selfcheck.primitive_cases()}
    unnamed = [case for case, name in cases.items() if name is None]
    assert not unnamed, f"cases named for no primitive: {unnamed}"
    missing = sorted(public - set(cases.values()))
    assert not missing, f"primitives with no gradient case: {missing}"


def rules_holding_tensors(name, f, x):
    """The rules on the tape of a gate case that reach a tensor."""
    with Tape() as tape:
        f(x)
    assert tape.nodes, name
    return [node.vjp.__qualname__ for node in tape.nodes
            if any(isinstance(v, ad.DiffTensor) for v in ad.held_by(node.vjp))]


CASES = selfcheck.primitive_cases()


class TestRulesHoldNoTensors:
    # a rule that captured a tensor would keep it, and through it every
    # array it holds, alive until backward

    @pytest.mark.parametrize("name, f, x", CASES, ids=[name for name, _, _ in CASES])
    def test_no_rule_closure_holds_a_tensor(self, name, f, x):
        assert rules_holding_tensors(name, f, x) == []

    def test_a_tensor_nested_in_a_rule_is_found(self, monkeypatch):
        # a copy of attention whose rule keeps x_q in a tuple in its groups
        # list, below the rule's cells and their items
        source = textwrap.dedent(inspect.getsource(ad.attention))
        line = "    _, (q, k, v) = project(normed)\n"
        assert source.count(line) == 1
        namespace = dict(vars(ad))
        exec(source.replace(line, line + "    groups.append((x_q,))\n"), namespace)
        monkeypatch.setattr(ad, "attention", namespace["attention"])
        held = {name: rules for name, f, x in selfcheck.primitive_cases() if (rules := rules_holding_tensors(name, f, x))}
        assert held and all(name.startswith("attention_") and set(rules) == {"attention.<locals>.vjp"}
                            for name, rules in held.items())


def test_log_softmax_rows_gradient_stays_in_its_row():
    # a loss on the entries of the middle row gives the other rows'
    # logits exactly zero gradient
    x = rand(7, 1)
    with Tape():
        y = log_softmax_rows(x, [0, 2, 5, 7])
        loss = sum_all(ad.mul(gather_rows(y, np.array([2, 3, 4])), rand(3, 1)))
    backward(loss)
    assert np.all(x.grad[np.r_[0:2, 5:7]] == 0.0)
    assert np.all(x.grad[2:5] != 0.0)


HEAD_DIM = 3
# the logit scale attention derives from its head width; the reference blocks take it
ATT_SCALE = 1.0 / np.sqrt(HEAD_DIM)
N_HEADS = 2


# The reference blocks below take the bias heads first, (..., heads, n_q,
# n_kv), the mask with a heads axis, and the fold of the heads to (...,
# heads, n, d) written out, where ``autodiff.attention`` derives it from
# the attended axis.


def _reference_attention(x_q, x_kv, norm_q, norm_kv, w_q, w_k, w_v, w_o, bias, fold, mask=None):
    return reference.pre_norm_attention(
        x_q, x_kv, norm_q, norm_kv, w_q, w_k, w_v, w_o, bias, ATT_SCALE, N_HEADS, fold, mask=mask
    )


def _composed_attention(x_q, x_kv, norm_q, norm_kv, w_q, w_k, w_v, w_o, bias, fold, mask=None):
    """The same block as a chain of primitives, the way every attention site
    recorded it before any fused node: a layer norm per input, one
    projection per weight, head splits and permutes, logits, softmax, the
    head outputs and ``w_o``."""
    lead = "abce"[: len(fold) - 2]  # the folded axes before the attended one

    def heads(x, w):
        flat = matmul(ad.reshape(x, (-1, x.shape[-1])), w)
        return ad.permute(ad.reshape(flat, (*x.shape[:-1], N_HEADS, -1)), fold)

    x_q, x_kv = reference.layer_norm_affine(x_q, norm_q), reference.layer_norm_affine(x_kv, norm_kv)
    if x_kv.shape[0] != x_q.shape[0]:  # a track shared by the batch, copied per entry
        x_kv = gather_rows(x_kv, [0] * x_q.shape[0])
    q, k, v = heads(x_q, w_q), heads(x_kv, w_k), heads(x_kv, w_v)
    logits = ad.scale(ad.add(einsum2(f"{lead}qd,{lead}kd->{lead}qk", q, k), bias), ATT_SCALE)
    n_kv = logits.shape[-1]
    rows_mask = None if mask is None else np.broadcast_to(mask, logits.shape).reshape(-1, n_kv)
    att = ad.reshape(softmax_rows(ad.reshape(logits, (-1, n_kv)), mask=rows_mask), logits.shape)
    out = ad.permute(einsum2(f"{lead}qk,{lead}kd->{lead}qd", att, v), np.argsort(fold))
    joined = ad.reshape(out, (-1, out.shape[-2] * out.shape[-1]))
    return ad.reshape(matmul(joined, w_o), (*out.shape[:-2], w_o.shape[1]))


GRAPH_MASK = np.array(
    [[[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]]],
    dtype=bool,
)

# layout -> (x_q shape, x_kv shape (None: self-attention), bias shape (heads
# last), attended axis, its fold, mask, numpy reference of one batch entry
# given (h_q, h_kv, weights)), as each call site lays them out: b = 2,
# n_P = 3, n_L = 4, c = 5, 2 heads of 3
ATTENTION_LAYOUTS = {
    "triangle-pocket": (
        (2, 3, 4, 5), None, (1, 1, 3, 3, 2), 1, (0, 2, 3, 1, 4), None,
        lambda h_q, h_kv, w: reference_pair_attention(h_q, "pocket", *w, N_HEADS, HEAD_DIM),
    ),
    "triangle-ligand": (
        (2, 3, 4, 5), None, (2, 1, 4, 4, 2), 2, (0, 1, 3, 2, 4), None,
        lambda h_q, h_kv, w: reference_pair_attention(h_q, "ligand", *w, N_HEADS, HEAD_DIM),
    ),
    # ligand queries over a pocket track that the batch shares
    "cross": (
        (2, 4, 5), (1, 3, 5), (2, 4, 3, 2), 1, (0, 2, 1, 3), None,
        lambda h_q, h_kv, w: reference_cross_attention(h_q, h_kv, *w, N_HEADS, HEAD_DIM),
    ),
    # the ligand graph transformer: an edge bias and an adjacency mask
    "graph": (
        (2, 4, 5), None, (2, 4, 4, 2), 1, (0, 2, 1, 3), GRAPH_MASK,
        lambda h_q, h_kv, w: reference_cross_attention(h_q, h_kv, *w, N_HEADS, HEAD_DIM),
    ),
}

# attended axis of a (B, n, c) track and of a (B, n_P, n_L, c) pair ->
# the fold of its (*lead, heads, d) heads, the attended axis before d
AXIS_FOLDS = {
    (3, 0): (1, 2, 0, 3),
    (3, 1): (0, 2, 1, 3),
    (4, 0): (1, 2, 3, 0, 4),
    (4, 1): (0, 2, 3, 1, 4),
    (4, 2): (0, 1, 3, 2, 4),
}


def _axis_layout(ndim, axis, cross, masked, broadcast_bias=False):
    """A layout that attends along ``axis`` of a (2, 3, c) track or a
    (2, 3, 4, c) pair: queries over themselves, or over a second input two
    longer along ``axis``, with a random mask in which every query keeps its
    first key. The bias is as large as the softmax weights, or with
    ``broadcast_bias`` 1 along every lead axis but ``axis``."""
    rng = np.random.default_rng(100 * ndim + 10 * axis + 2 * cross + masked)
    q_lead = (2, 3, 4)[: ndim - 1]
    kv_lead = tuple(n + 2 * (cross and i == axis) for i, n in enumerate(q_lead))
    other = tuple(n for i, n in enumerate(q_lead) if i != axis)
    scores = (*other, q_lead[axis], kv_lead[axis])
    mask = None
    if masked:
        mask = rng.random(scores) < 0.6
        mask[..., 0] = True
    bias = (*(1 if broadcast_bias else n for n in other), *scores[-2:], 2)
    return (*q_lead, 5), (*kv_lead, 5) if cross else None, bias, axis, AXIS_FOLDS[ndim, axis], mask, None


def _run_layout(layout, block, unit_norms=False, zero_bias=False):
    """One call of ``block`` at ``layout``, a tuple as in
    ``ATTENTION_LAYOUTS``, inside a residual, and a loss over it: the output,
    the gradient of every input (tracks, norms, weights, bias, heads last)
    and the number of tape nodes. Random gains and shifts unless
    ``unit_norms``; no bias and no mask with ``zero_bias``.
    ``autodiff.attention`` is given the attended axis; any other block is
    given the fold, a heads-first view of the bias and the mask with a
    heads axis, and its bias gradient is moved back."""
    q_shape, kv_shape, bias_shape, axis, fold, mask, _ = layout
    rng = np.random.default_rng(10)
    c = q_shape[-1]
    tracks = [tensor(rng.normal(size=q_shape))] + ([] if kv_shape is None else [tensor(rng.normal(size=kv_shape))])
    norms = [
        (tensor(np.ones(c)), tensor(np.zeros(c))) if unit_norms
        else (tensor(rng.uniform(0.5, 1.5, size=c)), tensor(rng.uniform(-0.5, 0.5, size=c)))
        for _ in tracks
    ]
    weights = [tensor(rng.normal(size=s)) for s in ((c, 6), (c, 6), (c, 6), (6, c))]
    bias = tensor(np.zeros(bias_shape) if zero_bias else rng.normal(size=bias_shape))
    heads_first = block is not ad.attention
    if zero_bias:
        mask = None
    if heads_first:
        bias = ad.DiffTensor(np.moveaxis(bias.data, -1, -3))
        mask = None if mask is None else np.expand_dims(mask, -3)
    coeffs = tensor(np.linspace(-1.0, 1.0, tracks[0].size).reshape(q_shape))
    with Tape() as tape:
        out = ad.add(tracks[0], block(tracks[0], tracks[-1], norms[0], norms[-1], *weights, bias,
                                      fold if heads_first else axis, mask))
        loss = sum_all(ad.mul(out, coeffs))
    n_nodes = len(tape.nodes)
    backward(loss)
    inputs = tracks + [t for norm in norms for t in norm] + weights
    g_bias = np.moveaxis(bias.grad, -3, -1) if heads_first else bias.grad
    return out.data, [t.grad for t in inputs] + [g_bias], n_nodes


def _attention_operands(rng):
    """x_q, x_kv, the query norm's gain and shift, the key norm's, w_q, w_k,
    w_v, w_o and bias, for fold (0, 2, 1, 3): 3 queries of width 4 over 5
    keys of width 3, 2 heads of 2, and a heads-last bias that broadcasts
    over the batch."""
    shapes = ((2, 3, 4), (2, 5, 3), (4,), (4,), (3,), (3,), (4, 4), (3, 4), (3, 4), (4, 2), (1, 3, 5, 2))
    return [tensor(rng.uniform(-1.0, 1.0, size=s)) for s in shapes]


def _attend(args, mask=None):
    x_q, x_kv, g_q, b_q, g_kv, b_kv, *weights, bias = args
    return ad.attention(x_q, x_kv, (g_q, b_q), (g_kv, b_kv), *weights, bias, 1, mask=mask)


class TestAttention:
    def test_self_attention_leaves_the_second_input_no_gradient(self):
        rng = np.random.default_rng(12)
        x, gain, shift = (tensor(rng.uniform(-1.0, 1.0, size=s)) for s in ((2, 3, 4), (4,), (4,)))
        w = tensor(rng.uniform(-1.0, 1.0, size=(4, 4)))
        with Tape() as tape:
            out = ad.attention(x, x, (gain, shift), (gain, shift), w, w, w, w, tensor(np.zeros((1, 3, 3, 2))), 1)
        grads = tape.nodes[-1].vjp(np.ones(out.shape))
        assert grads[1] is None and grads[4] is None and grads[5] is None
        assert grads[0].shape == x.shape and grads[2].shape == grads[3].shape == (4,)

    def test_mask_gives_exact_zero_weight_and_gradient(self):
        rng = np.random.default_rng(7)
        args = _attention_operands(rng)
        x_kv, bias = args[1], args[10]
        mask = np.array([[True, False, True, True, False], [False, True, True, True, False], [True, True, True, True, False]])
        with Tape():
            out = _attend(args, mask)
            loss = sum_all(ad.mul(out, rand(2, 3, 2)))
        backward(loss)
        assert np.all(bias.grad[:, ~mask] == 0.0)
        # key 4 is masked for every query, so neither its key nor its value gets a gradient
        assert np.all(x_kv.grad[:, 4] == 0.0)
        # a masked entry weighs exactly 0: neither what its logit would be
        # nor the input of key 4 changes a bit of the output
        bias.data[:, ~mask] = 1e6
        x_kv.data[:, 4] = rng.uniform(-5.0, 5.0, size=(2, 3))
        np.testing.assert_array_equal(_attend(args, mask).data, out.data)

    def test_fully_masked_row_rejected(self):
        args = _attention_operands(np.random.default_rng(8))
        mask = np.ones((3, 5), dtype=bool)
        mask[1] = False
        with pytest.raises(ValueError, match="fully masked"):
            _attend(args, mask=mask)

    def test_shape_errors(self):
        args = _attention_operands(np.random.default_rng(9))
        x_q, x_kv, g_q, b_q, g_kv, b_kv, w_q, w_k, w_v, w_o, bias = args
        for i, bad in (
            (7, rand(3, 2)),  # keys narrower than queries
            (8, rand(3, 2)),  # values narrower than keys
            (9, rand(3, 2)),  # w_o does not take the heads
            (1, rand(5, 3)),  # x_kv has no batch axis
            (10, rand(3, 4, 2)),  # bias for 4 keys, not 5
            (10, rand(1, 3, 5, 3)),  # 3 heads, which do not divide the 4-wide projections
            (10, rand(1, 3, 5, 0)),  # no heads
            (10, rand(5, 2)),  # bias with no query axis
            (2, rand(3)),  # a query gain for 3 features, not 4
            (5, rand(4)),  # a key shift for 4 features, not 3
        ):
            with pytest.raises(DimensionError):
                _attend([*args[:i], bad, *args[i + 1 :]])
        # the (2, 3, 4) tracks have lead axes 0 and 1 only
        for axis in (-1, 2, 3):
            with pytest.raises(DimensionError):
                ad.attention(x_q, x_kv, (g_q, b_q), (g_kv, b_kv), w_q, w_k, w_v, w_o, bias, axis)
        # the logits are (2, heads, 3, 5): a mask for 4 keys, one with no
        # query axis, and one with a heads axis of its own
        for shape in ((3, 4), (5,), (2, 2, 3, 5)):
            with pytest.raises(DimensionError):
                _attend(args, mask=np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("layout", list(ATTENTION_LAYOUTS))
    def test_fused_node_matches_composed_chain(self, layout):
        # each call site's layout: with its bias (and mask) the node matches
        # the primitive chain in value and in every gradient, norms
        # included, in fewer nodes; with unit norms, no bias and no mask it
        # matches the numpy reference of each batch entry
        out_f, grads_f, nodes_f = _run_layout(ATTENTION_LAYOUTS[layout], ad.attention)
        out_c, grads_c, nodes_c = _run_layout(ATTENTION_LAYOUTS[layout], _composed_attention)
        np.testing.assert_allclose(out_f, out_c, rtol=0, atol=1e-12)
        for g_f, g_c in zip(grads_f, grads_c):
            np.testing.assert_allclose(g_f, g_c, rtol=0, atol=1e-12)
        assert nodes_f == 4 < nodes_c  # the node, the residual, the loss's product and sum
        q_shape, kv_shape, *_, reference_entry = ATTENTION_LAYOUTS[layout]
        rng = np.random.default_rng(10)
        h_q = rng.normal(size=q_shape)
        h_kv = h_q if kv_shape is None else rng.normal(size=kv_shape)
        weights = [rng.normal(size=s) for s in ((q_shape[-1], 6),) * 3 + ((6, q_shape[-1]),)]
        plain, _, _ = _run_layout(ATTENTION_LAYOUTS[layout], ad.attention, unit_norms=True, zero_bias=True)
        for b in range(q_shape[0]):
            expected = reference_entry(h_q[b], h_kv[b % len(h_kv)], weights)
            np.testing.assert_allclose(plain[b], expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("layout", list(ATTENTION_LAYOUTS))
    def test_fused_node_is_the_unfused_pre_norm_block_bit_for_bit(self, layout):
        # against layer_norm_affine on each input followed by one attention
        # node over the normalized inputs: the same value and the same
        # gradient of every input, track, gain, shift, weight and bias, to
        # the last bit; the fused node only keeps less
        _assert_fused_is_reference(ATTENTION_LAYOUTS[layout])

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    @pytest.mark.parametrize("ndim, axis", list(AXIS_FOLDS), ids=[f"{n}d-axis{a}" for n, a in AXIS_FOLDS])
    def test_every_attended_axis_is_the_reference_bit_for_bit(self, ndim, axis, cross, masked):
        # the node derives the fold from the axis; the reference is given it
        # written out, so a wrong derivation changes a value or a gradient
        _assert_fused_is_reference(_axis_layout(ndim, axis, cross, masked))

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    @pytest.mark.parametrize("ndim, axis", list(AXIS_FOLDS), ids=[f"{n}d-axis{a}" for n, a in AXIS_FOLDS])
    def test_every_attended_axis_rebuilds_the_weights_bit_for_bit(self, ndim, axis, cross, masked):
        # a bias that the lead axes other than the attended one broadcast,
        # as the triangle folds' is, has fewer entries than the softmax
        # weights, so the rule rebuilds them in backward from each row's max
        # and sum, the mask included; the reference keeps them
        layout = _axis_layout(ndim, axis, cross, masked, broadcast_bias=True)
        q_shape, kv_shape, bias_shape = layout[:3]
        n_kv = (kv_shape or q_shape)[axis]
        assert np.prod(bias_shape) < np.prod(q_shape[:-1]) * n_kv * N_HEADS
        _assert_fused_is_reference(layout)

    def test_rule_keeps_the_smaller_of_weights_and_bias(self):
        # traced bytes held after the forward under a tape, beyond the
        # normalized rows and their inverse std. A pocket-axis triangle fold
        # of a (2, 32, 8, 8) pair, its bias broadcast over the batch and the
        # ligand axis, holds less than a quarter of its softmax weights: it
        # keeps each row's max and sum (32,768 B), and backward rebuilds the
        # weights bit for bit, as tested above; keeping them held about
        # 529 KB. A graph-transformer block, its bias as large as the
        # weights, keeps the weights and no row statistics beside them: 527
        # KB here, the bytes it held when every rule kept its weights.
        def held_after_forward(x_shape, bias_shape, axis, mask=None):
            rng = np.random.default_rng(19)
            c = x_shape[-1]
            x = tensor(rng.normal(size=x_shape))
            norm = (tensor(rng.uniform(0.5, 1.5, size=c)), tensor(rng.uniform(-0.5, 0.5, size=c)))
            weights = [tensor(rng.normal(size=(c, c))) for _ in range(4)]
            bias = tensor(rng.normal(size=bias_shape))
            tracemalloc.start()
            try:
                with Tape():
                    ad.attention(x, x, norm, norm, *weights, bias, axis, mask)
                    held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            return held - x.size * 8 - x.size // c * 8

        fold_weights = 2 * 8 * 4 * 32 * 32 * 8  # (batch, n_L, heads, n_P, n_P) float64
        pocket_fold = held_after_forward((2, 32, 8, 8), (1, 1, 32, 32, 4), 1)
        assert pocket_fold < fold_weights // 4, pocket_fold
        b, n = 4, 64
        mask = np.random.default_rng(20).random((b, n, n)) < 0.5
        mask[:, np.arange(n), np.arange(n)] = True
        graph_weights, graph_stats = b * 4 * n * n * 8, 2 * b * 4 * n * 8
        graph = held_after_forward((b, n, 8), (b, n, n, 4), 1, mask)
        assert graph_weights <= graph < graph_weights + graph_stats // 2, graph


def _assert_fused_is_reference(layout):
    out_f, grads_f, nodes_f = _run_layout(layout, ad.attention)
    out_r, grads_r, nodes_r = _run_layout(layout, _reference_attention)
    np.testing.assert_array_equal(out_f, out_r)
    assert len(grads_f) == len(grads_r)
    for g_f, g_r in zip(grads_f, grads_r):
        np.testing.assert_array_equal(g_f, g_r)
    assert nodes_f == nodes_r - 3 * (1 if layout[1] is None else 2)


MLP_DIMS = {1: [5, 2], 2: [5, 7, 2], 3: [5, 7, 6, 2]}


def _mlp_operands(rng, depth, x_shape=(4, 5)):
    x = tensor(rng.uniform(-1.0, 1.0, size=x_shape))
    norm = (tensor(rng.uniform(0.5, 1.5, size=5)), tensor(rng.uniform(-0.5, 0.5, size=5)))
    dims = MLP_DIMS[depth]
    layers = [
        (tensor(rng.uniform(-1.0, 1.0, size=(i, o))), tensor(rng.uniform(-0.5, 0.5, size=o))) for i, o in zip(dims, dims[1:])
    ]
    return x, norm, layers


class TestMatmulTrack:
    @pytest.mark.parametrize("layout", ["track", "shared", "permuted"])
    def test_is_the_reshape_chain_bit_for_bit(self, layout):
        # a (..., k) track against reshaping it to rows, one 2-D matmul and
        # reshaping back: a (2, 3, 4) track, a (1, 5, 4) track that a batch
        # shares, and a (2, 3, 4) view permuted from other memory
        def run(block):
            rng = np.random.default_rng(16)
            if layout == "permuted":
                a = ad.DiffTensor(rng.normal(size=(4, 3, 2)).transpose(2, 1, 0))
                assert not a.data.flags.c_contiguous
            else:
                a = tensor(rng.normal(size=(1, 5, 4) if layout == "shared" else (2, 3, 4)))
            b = tensor(rng.normal(size=(4, 5)))
            coeffs = tensor(rng.normal(size=(*a.shape[:-1], 5)))
            with Tape() as tape:
                out = block(a, b)
                n_nodes = len(tape.nodes)
                loss = sum_all(ad.mul(out, coeffs))
            backward(loss)
            return out.data, a.grad, b.grad, n_nodes

        def chain(a, b):
            return ad.reshape(matmul(ad.reshape(a, (-1, a.shape[-1])), b), (*a.shape[:-1], b.shape[1]))

        *track, nodes_track = run(matmul)
        *rows, nodes_rows = run(chain)
        for got, want in zip(track, rows):
            np.testing.assert_array_equal(got, want)
        assert track[0].shape == (*track[1].shape[:-1], 5)
        assert (nodes_track, nodes_rows) == (1, 3)


class TestMLP:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("normed", [False, True], ids=["plain", "norm"])
    @pytest.mark.parametrize("x_shape", [(4, 5), (2, 3, 5)], ids=["rows", "pair"])
    def test_is_the_unfused_chain_bit_for_bit(self, depth, normed, x_shape):
        # against layer_norm_affine on the rows, then mlp_apply's matmul,
        # add and relu nodes: the same value and the same gradient of x,
        # the gain and shift and every weight and bias, to the last bit
        def run(block):
            x, norm, layers = _mlp_operands(np.random.default_rng(14), depth, x_shape)
            norm = norm if normed else None
            coeffs = tensor(np.linspace(-1.0, 1.0, 2 * x.size // 5).reshape(*x_shape[:-1], 2))
            with Tape() as tape:
                out = block(x, layers, norm)
                loss = sum_all(ad.mul(out, coeffs))
            n_nodes = len(tape.nodes)
            backward(loss)
            inputs = [x, *(norm or ()), *(t for layer in layers for t in layer)]
            return out.data, [t.grad for t in inputs], n_nodes

        out_f, grads_f, nodes_f = run(ad.mlp)
        out_r, grads_r, nodes_r = run(reference.pre_norm_mlp)
        np.testing.assert_array_equal(out_f, out_r)
        for g_f, g_r in zip(grads_f, grads_r):
            np.testing.assert_array_equal(g_f, g_r)
        assert nodes_f == 3 < nodes_r

    @pytest.mark.parametrize("normed", [False, True], ids=["plain", "norm"])
    def test_rule_holds_no_hidden_layer(self, normed):
        # a wide two-layer mlp: after the forward the tape holds less than a
        # quarter of its one hidden layer, which backward rebuilds (its
        # gradients are the unfused chain's, bit for bit, as tested above).
        # Keeping the hidden layer held 8.39 MB (plain) and 8.67 MB (norm).
        rows, c, hidden = 2048, 16, 512
        rng = np.random.default_rng(18)
        x = tensor(rng.uniform(-1.0, 1.0, size=(rows, c)))
        norm = (tensor(rng.uniform(0.5, 1.5, size=c)), tensor(rng.uniform(-0.5, 0.5, size=c))) if normed else None
        layers = [(tensor(rng.uniform(-0.5, 0.5, size=(i, o))), tensor(rng.uniform(-0.5, 0.5, size=o)))
                  for i, o in ((c, hidden), (hidden, c))]
        tracemalloc.start()
        try:
            with Tape():
                ad.mlp(x, layers, norm)
                held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < rows * hidden * 8 // 4, held

    def test_relu_between_layers_only(self):
        # identity weights make the network relu(x - 1) + 1 exactly: the
        # hidden relu is observable, and no relu follows the last layer
        x = tensor(np.array([[-5.0], [3.0]]))
        one = tensor(np.ones((1, 1)))
        out = ad.mlp(x, [(one, tensor([-1.0])), (one, tensor([-2.0]))])
        np.testing.assert_array_equal(out.data, [[-2.0], [0.0]])

    def test_shape_errors(self):
        x, norm, layers = _mlp_operands(np.random.default_rng(15), 2)
        for bad_layers in ([], [layers[1]], [layers[0], (layers[1][0], rand(3))]):
            with pytest.raises(DimensionError):
                ad.mlp(x, bad_layers)
        with pytest.raises(DimensionError):
            ad.mlp(x, layers, norm=(rand(4), norm[1]))


class TestCompositeGradients:
    def test_two_layer_mlp(self):
        w1, b1, w2, b2 = rand(4, 8), rand(8), rand(8, 2), rand(2)

        def f(x):
            h = relu(ad.add(matmul(x, w1), b1))
            return ad.add(matmul(h, w2), b2)

        report = finite_diff_check(f, rand(5, 4), tol=COMPOSITE_TOL)
        assert report.passed, str(report)

    def test_attention_block(self):
        wq, wk, wv = rand(4, 4), rand(4, 4), rand(4, 4)

        def f(x):
            q = matmul(x, wq)
            k = matmul(x, wk)
            v = matmul(x, wv)
            logits = ad.scale(einsum2("ic,jc->ij", q, k), 0.5)
            att = softmax_rows(logits)
            return matmul(att, v)

        report = finite_diff_check(f, rand(6, 4), tol=COMPOSITE_TOL)
        assert report.passed, str(report)

    def test_layernorm_mlp_residual(self):
        w = rand(5, 5)

        def f(x):
            h = layer_norm_rows(x)
            return ad.add(x, relu(matmul(h, w)))

        report = finite_diff_check(f, rand(4, 5), tol=COMPOSITE_TOL)
        assert report.passed, str(report)


class TestNegativeControl:
    def test_wrong_backward_is_caught(self):
        # a deliberately wrong vjp (factor 3 instead of 2) must fail the check
        def bad_square(x):
            out = ad._record(x.data**2, (x,), lambda g, x=x: (3.0 * x.data * g,))
            return out

        report = finite_diff_check(bad_square, rand(3, 3), tol=PRIMITIVE_TOL)
        assert not report.passed

    def test_report_str_mentions_tolerance(self):
        report = finite_diff_check(ad.tanh, rand(2, 2), tol=PRIMITIVE_TOL)
        assert "1.0e-04" in str(report)


class TestDeterminism:
    def test_same_seed_same_check(self):
        x1 = tensor(np.linspace(-1, 1, 12).reshape(3, 4))
        x2 = tensor(np.linspace(-1, 1, 12).reshape(3, 4))
        r1 = finite_diff_check(ad.tanh, x1, seed=7)
        r2 = finite_diff_check(ad.tanh, x2, seed=7)
        assert r1.max_rel_err == r2.max_rel_err
