"""The pre-norm blocks as they were recorded before each became one node:
``layer_norm_affine`` on each input, then an attention node over the
normalized inputs, or ``mlp_apply``'s chain of matmul, add and relu nodes.
``autodiff.attention`` and ``autodiff.mlp`` must match them bit for bit, in
value and in every input gradient.
"""

import numpy as np

from pocketgfn import autodiff as ad
from pocketgfn.autodiff import DiffTensor


def layer_norm_affine(x: DiffTensor, norm: tuple[DiffTensor, DiffTensor]) -> DiffTensor:
    gain, bias = norm
    return ad.add(ad.mul(ad.layer_norm_rows(x), gain), bias)


def mlp_apply(x: DiffTensor, layers) -> DiffTensor:
    """Affine layers of 2-D ``x`` with ReLU between them and none after the last."""
    for i, (w, b) in enumerate(layers):
        x = ad.add(ad.matmul(x, w), b)
        if i < len(layers) - 1:
            x = ad.relu(x)
    return x


def pre_norm_mlp(x: DiffTensor, layers, norm=None) -> DiffTensor:
    """``mlp_apply`` on the rows of ``x``, normalized first with ``norm``."""
    rows = ad.reshape(x, (-1, x.shape[-1]))
    if norm is not None:
        rows = layer_norm_affine(rows, norm)
    out = mlp_apply(rows, layers)
    return ad.reshape(out, (*x.shape[:-1], out.shape[-1]))


def pre_norm_attention(x_q, x_kv, norm_q, norm_kv, w_q, w_k, w_v, w_o, bias, scale, n_heads, fold, mask=None):
    """``layer_norm_affine`` on each distinct input, then ``normed_attention``."""
    y_q = layer_norm_affine(x_q, norm_q)
    same = x_q is x_kv and all(a is b for a, b in zip(norm_q, norm_kv))
    y_kv = y_q if same else layer_norm_affine(x_kv, norm_kv)
    return normed_attention(y_q, y_kv, w_q, w_k, w_v, w_o, bias, scale, n_heads, fold, mask)


def normed_attention(x_q, x_kv, w_q, w_k, w_v, w_o, bias, scale, n_heads, fold, mask=None):
    """One attention node over already normalized inputs, the projections
    recomputed in backward; its rule keeps the inputs, the concatenated
    weights and the softmax weights."""
    fold = tuple(fold)
    f = float(scale)
    c_q, c_kv = x_q.shape[-1], x_kv.shape[-1]
    hd = w_q.shape[1]
    d = hd // n_heads
    unfold = tuple(np.argsort(fold))
    x_q_shape, x_kv_shape, bias_shape = x_q.shape, x_kv.shape, bias.shape
    wo = w_o.data
    xq = x_q.data.reshape(-1, c_q)
    if x_q is x_kv:
        groups = [(xq, np.concatenate([w_q.data, w_k.data, w_v.data], axis=1), x_q_shape[:-1], 3)]
    else:
        w_kv = np.concatenate([w_k.data, w_v.data], axis=1)
        groups = [(xq, w_q.data, x_q_shape[:-1], 1), (x_kv.data.reshape(-1, c_kv), w_kv, x_kv_shape[:-1], 2)]

    def folded(arrays):
        return [a[..., i, :, :].transpose(fold) for a in arrays for i in range(a.shape[-3])]

    def project():
        return folded([(x @ w_cat).reshape(*x_lead, n, n_heads, d) for x, w_cat, x_lead, n in groups])

    def attend(w, v):
        shape = (*w.shape[:-1], d)
        heads = np.empty([shape[i] for i in unfold])
        np.matmul(w, v, out=heads.transpose(fold))
        return heads

    q, k, v = project()
    logits = np.matmul(q, np.swapaxes(k, -1, -2)) + bias.data
    logits *= f
    if mask is not None:
        logits = np.where(np.asarray(mask, dtype=bool), logits, -np.inf)
    logits -= logits.max(axis=-1, keepdims=True)
    w = np.exp(logits, out=logits)
    w /= w.sum(axis=-1, keepdims=True)
    heads = attend(w, v)
    lead = heads.shape[:-2]
    out = (heads.reshape(-1, hd) @ wo).reshape(*lead, wo.shape[1])

    def vjp(g):
        q, k, v = project()
        heads = attend(w, v)
        g2 = g.reshape(-1, wo.shape[1])
        g_wo = heads.reshape(-1, hd).T @ g2
        gh = (g2 @ wo.T).reshape(*lead, n_heads, d).transpose(fold)
        gl = np.matmul(gh, np.swapaxes(v, -1, -2))
        gl -= (gh * heads.transpose(fold)).sum(axis=-1, keepdims=True)
        gl *= w
        gl *= f
        grads = [np.empty((*x_lead, n, n_heads, d)) for _, _, x_lead, n in groups]
        gq, gk, gv = folded(grads)
        ad._matmul_into(gq, gl, k)
        ad._matmul_into(gk, np.swapaxes(gl, -1, -2), q)
        ad._matmul_into(gv, np.swapaxes(w, -1, -2), gh)
        g_x, g_w = [], []
        for (x, w_cat, _, n), g_cat in zip(groups, grads):
            g_cat = g_cat.reshape(len(x), -1)
            g_x.append(g_cat @ w_cat.T)
            g_w += np.split(x.T @ g_cat, n, axis=1)
        return (
            g_x[0].reshape(x_q_shape),
            g_x[1].reshape(x_kv_shape) if len(g_x) > 1 else None,
            *g_w,
            g_wo,
            ad._unbroadcast(gl, bias_shape),
        )

    return ad._record(out, (x_q, x_kv, w_q, w_k, w_v, w_o, bias), vjp)
