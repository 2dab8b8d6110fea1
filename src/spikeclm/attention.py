"""Causal attention blocks: a spiking softmax-free one and a dense one.

The spiking block (sfsa_forward) processes all T time steps in one call:
its input is a [T, B, L, d] stack of spike trains, each product runs once
over the stack, and each neuron population runs over t from rest
(NeuronSpec.run). All mixing happens through binary spike trains, so the
only products a hardware target would see are accumulations:

    1. real projections  q, k, v = X Wq + bq, ...
    2. spike trains      sq, sk, sv = SN(q), SN(k), SN(v)
    3. integer scores    A = sq sk^T          (per head; entries in [0, d_head])
    4. causal masking    A <- M (.) A, then   sa = SN_attn(A)
    5. mixing            C = sa sv,           sc = SN(C)
    6. output            Y = sc Wout + bout,  out = SN(Y)

Masking is multiplicative (a Hadamard product with the 0/1 causal mask),
not an additive -inf bias: there is no softmax afterwards to absorb one,
and zeroed scores simply never drive the attention neuron. It is applied
only where some query row cannot see some key: a block that scores one
row, the last, sees every key and multiplies by no mask. No 1/sqrt(d)
scaling is applied anywhere; thresholds play that role.

The dense block (csa_forward) is the teacher's ordinary scaled-dot-product
causal attention. Both blocks read their weights from a dict keyed by
ATTN_NAMES, build their own mask with causal_mask and take batched input.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad, numerics
from .errors import ConfigError, ShapeError
from .neurons import NeuronSpec


# One block's [d, d] weights and [d] biases, in the order init_params draws them.
ATTN_NAMES = ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_out", "b_out")


def causal_mask(seq_len: int, offset: int = 0) -> np.ndarray:
    """Causal 0/1 mask [L, offset + L].

    Row i is the query at position offset + i, so it sees columns 0 through
    offset + i: the lower triangle when offset is 0, and the rectangle an
    incremental decode step needs when offset earlier positions are cached.
    """
    if seq_len < 1:
        raise ShapeError(f"seq_len must be >= 1, got {seq_len}")
    if offset < 0:
        raise ShapeError(f"offset must be >= 0, got {offset}")
    return np.tri(seq_len, offset + seq_len, k=offset)


def _split_heads(x, n_heads: int):
    """[..., L, d] -> [..., h, L, d/h]."""
    *lead, l, d = x.shape
    return x.reshape(tuple(lead) + (l, n_heads, d // n_heads)).swapaxes(-2, -3)


def _merge_heads(x):
    """[..., h, L, d/h] -> [..., L, h * d/h]."""
    *lead, h, l, dh = x.shape
    return x.swapaxes(-2, -3).reshape(tuple(lead) + (l, h * dh))


def _check_weights(w: dict, d: int, n_heads: int) -> None:
    """The head contract of an attention block of width d: heads, weights, biases."""
    if n_heads < 1 or d % n_heads != 0:
        raise ConfigError(f"d_model {d} is not divisible by n_heads {n_heads}")
    for name in ATTN_NAMES[0::2] + ATTN_NAMES[1::2]:
        want = (d, d) if name.startswith("w") else (d,)
        shape = np.shape(w[name])
        if shape != want:
            raise ShapeError(f"{name} must be {list(want)}, got {list(shape)}")


def _scores(q, k_t, mask, scale=None):
    """q @ k_t as one tape node, masked in place on the fresh product.

    With no scale (SFSA) the 0/1 mask, if any, multiplies the scores. With
    a scale (CSA) the scores are scaled, then the mask adds -1e9 where it is
    0. The gradient of the product is the upstream one masked (or scaled)
    the same way, formed once for both operands.
    """
    qv, kv = ad.value(q), ad.value(k_t)
    s = numerics.matmul(qv, kv)
    if scale is not None:
        s *= scale
        s += (mask - 1.0) * 1e9
    elif mask is not None:
        s *= mask
    held = [None, None]  # the upstream gradient and the product's, formed once

    def product_grad(g):
        if held[0] is not g:
            held[:] = g, (g * scale if scale is not None else g if mask is None else g * mask)
        return held[1]

    def k_vjp(g):
        gk = qv.swapaxes(-1, -2) @ product_grad(g)
        held[:] = None, None  # k_t's VJP runs last, so the tape need not keep them
        return gk
    return ad.custom_op(s, (q, lambda g: product_grad(g) @ kv.swapaxes(-1, -2)), (k_t, k_vjp))


def sfsa_forward(x, w: dict, sn: NeuronSpec, attn_sn: NeuronSpec,
                 n_heads: int, past=None, last_row: bool = False):
    """Causal spiking attention over all time steps.

    x holds the input spikes (or integer spike sums from residual paths) of
    every step, shape [T, B, L, d]; any other rank is a ShapeError. Every
    neuron starts from rest and runs over the T steps. Returns the spike
    stack of each population by name: q, k, v and out shaped like x, the
    score spikes attn [T, B, h, L, P + L] and the per-head context ctx
    [T, B, h, L, d/h].

    past, if given, is (k_spikes, v_spikes) of P earlier positions, each
    [T, B, P, d]: the L new queries then score against the keys of all
    P + L positions under the block's mask causal_mask(L, offset=P). Every
    neuron state belongs to one new position or one (query, key) entry, so
    running the new rows alone gives the same spikes as the last L rows of
    the full call.

    last_row=True runs the query, scores, attention, context and output of
    the last new position only (row P + L - 1 of the mask): q, attn, ctx
    and out then hold that one row, equal to the last row of the full call,
    while k and v still cover all L rows.

    The mask is built and applied only when some scored row cannot see
    some key. The last row sees all P + L keys, so a call with one new row
    or with last_row=True scores without one.
    """
    if x.ndim != 4:
        raise ShapeError(f"sfsa_forward input must be [T, B, L, d], got shape {x.shape}")
    t, b, l, d = x.shape
    _check_weights(w, d, n_heads)
    if past is not None:
        past_k, past_v = (np.asarray(p, dtype=np.float64) for p in past)
        if past_k.shape != past_v.shape or past_k.shape[:2] + past_k.shape[3:] != (t, b, d):
            raise ShapeError(f"past keys {past_k.shape} and values {past_v.shape} "
                             f"do not match input {x.shape}")
    mask = None
    if l != 1 and not (last_row and l):  # an empty L still meets causal_mask's check
        mask = causal_mask(l, 0 if past is None else past_k.shape[2])
    sn.check_spike_counts(x, "sfsa_forward")

    sq = sn.run(ad.linear(x[:, :, -1:] if last_row else x, w["w_q"], w["b_q"]))
    sk = sn.run(ad.linear(x, w["w_k"], w["b_k"]))
    sv = sn.run(ad.linear(x, w["w_v"], w["b_v"]))
    keys, values = sk, sv
    if past is not None:
        if ad.is_var(sk) or sn.relaxed:
            raise ConfigError("past keys and values need an untaped hard-threshold forward")
        keys = np.concatenate([past_k, sk], axis=2)
        values = np.concatenate([past_v, sv], axis=2)

    scores = _scores(_split_heads(sq, n_heads),
                     _split_heads(keys, n_heads).swapaxes(-1, -2), mask)
    s_attn = attn_sn.run(scores)
    s_ctx = sn.run(ad.matmul(s_attn, _split_heads(values, n_heads)))
    out = sn.run(ad.linear(_merge_heads(s_ctx), w["w_out"], w["b_out"]))
    return {"q": sq, "k": sk, "v": sv, "attn": s_attn, "ctx": s_ctx, "out": out}


def csa_forward(x, w: dict, n_heads: int):
    """Dense causal attention (softmax over scaled dot products).

    x is [B, L, d]; any other rank is a ShapeError. Returns (out, attn):
    out [B, L, d] and the post-softmax attention maps attn [B, h, L, L].
    """
    if x.ndim != 3:
        raise ShapeError(f"csa_forward input must be [B, L, d], got shape {x.shape}")
    b, l, d = x.shape
    _check_weights(w, d, n_heads)
    mask = causal_mask(l)

    q = _split_heads(ad.linear(x, w["w_q"], w["b_q"]), n_heads)
    k = _split_heads(ad.linear(x, w["w_k"], w["b_k"]), n_heads)
    v = _split_heads(ad.linear(x, w["w_v"], w["b_v"]), n_heads)
    d_head = d // n_heads

    # additive masking; -1e9 underflows to 0 after the softmax
    logits = _scores(q, k.swapaxes(-1, -2), mask, scale=1.0 / np.sqrt(d_head))
    attn = ad.softmax(logits, axis=-1)
    out = ad.linear(_merge_heads(ad.matmul(attn, v)), w["w_out"], w["b_out"])
    return out, attn
