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

The dense block (csa_forward) is the ordinary scaled-dot-product causal
attention used by the teacher, sharing the same weight container. Both
blocks build their own mask with causal_mask and take batched input only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError, ValidationError
from .neurons import NeuronSpec


@dataclass
class AttnWeights:
    """Projection weights for one attention block; entries [d, d] and [d]."""

    w_q: object
    b_q: object
    w_k: object
    b_k: object
    w_v: object
    b_v: object
    w_out: object
    b_out: object


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


def _check_spike_input(x, where: str, sn: NeuronSpec) -> None:
    """Spiking blocks consume spike counts: finite integer multiples of a spike.

    A binary spike is 1, so counts are nonnegative integers. A ternary spike
    is +-amp, so counts are signed integer multiples of amp.
    """
    d = x.data if ad.is_var(x) else x
    if not np.isfinite(d).all():
        raise ValidationError(f"{where}: input contains non-finite values")
    if sn.mode == "ternary":
        n = d / sn.ternary.amp
        if (np.abs(n - np.rint(n)) > 1e-9 * np.maximum(1.0, np.abs(n))).any():
            raise ValidationError(
                f"{where}: input is not a count of +-{sn.ternary.amp} spikes")
    elif (d < 0.0).any() or (d != np.rint(d)).any():
        raise ValidationError(f"{where}: input is not a spike-count tensor")


def _split_heads(x, n_heads: int):
    """[..., L, d] -> [..., h, L, d/h]."""
    *lead, l, d = x.shape
    return x.reshape(tuple(lead) + (l, n_heads, d // n_heads)).swapaxes(-2, -3)


def _merge_heads(x):
    """[..., h, L, d/h] -> [..., L, h * d/h]."""
    *lead, h, l, dh = x.shape
    return x.swapaxes(-2, -3).reshape(tuple(lead) + (l, h * dh))


def _check_weights(w: AttnWeights, d: int) -> None:
    for name in ("w_q", "w_k", "w_v", "w_out"):
        shape = np.shape(getattr(w, name))
        if shape != (d, d):
            raise ShapeError(f"{name} must be [{d}, {d}], got {list(shape)}")
    for name in ("b_q", "b_k", "b_v", "b_out"):
        shape = np.shape(getattr(w, name))
        if shape != (d,):
            raise ShapeError(f"{name} must be [{d}], got {list(shape)}")


def sfsa_forward(x, w: AttnWeights, sn: NeuronSpec, attn_sn: NeuronSpec,
                 n_heads: int, past=None, last_row: bool = False):
    """Causal spiking attention over all time steps.

    x holds the input spikes (or integer spike sums from residual paths) of
    every step, shape [T, B, L, d]; any other rank is a ShapeError. Every
    neuron starts from rest and runs over the T steps. Returns (out_spikes,
    attn_spikes, (k_spikes, v_spikes)): out and the key and value spikes are
    shaped like x, and attn_spikes [T, B, h, L, P + L].

    past, if given, is (k_spikes, v_spikes) of P earlier positions, each
    [T, B, P, d]: the L new queries then score against the keys of all
    P + L positions under the block's mask causal_mask(L, offset=P). Every
    neuron state belongs to one new position or one (query, key) entry, so
    running the new rows alone gives the same spikes as the last L rows of
    the full call.

    last_row=True runs the query, scores, attention, context and output of
    the last new position only (row P + L - 1 of the mask): out is then
    [T, B, 1, d] and attn_spikes [T, B, h, 1, P + L], equal to the last row
    of the full call, while the keys and values still cover all L rows.

    The mask is built and applied only when some scored row cannot see
    some key. The last row sees all P + L keys, so a call with one new row
    or with last_row=True scores without one.
    """
    if x.ndim != 4:
        raise ShapeError(f"sfsa_forward input must be [T, B, L, d], got shape {x.shape}")
    t, b, l, d = x.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ConfigError(f"d_model {d} is not divisible by n_heads {n_heads}")
    _check_weights(w, d)
    if past is not None:
        past_k, past_v = (np.asarray(p, dtype=np.float64) for p in past)
        if past_k.shape != past_v.shape or past_k.shape[:2] + past_k.shape[3:] != (t, b, d):
            raise ShapeError(f"past keys {past_k.shape} and values {past_v.shape} "
                             f"do not match input {x.shape}")
    mask = None
    if l != 1 and not (last_row and l):  # an empty L still meets causal_mask's check
        mask = causal_mask(l, 0 if past is None else past_k.shape[2])
    if not sn.relaxed:
        _check_spike_input(x, "sfsa_forward", sn)

    sq = sn.run(ad.linear(x[:, :, -1:] if last_row else x, w.w_q, w.b_q))
    sk = sn.run(ad.linear(x, w.w_k, w.b_k))
    sv = sn.run(ad.linear(x, w.w_v, w.b_v))
    keys, values = sk, sv
    if past is not None:
        if ad.is_var(sk) or sn.relaxed:
            raise ConfigError("past keys and values need an untaped hard-threshold forward")
        keys = np.concatenate([past_k, sk], axis=2)
        values = np.concatenate([past_v, sv], axis=2)

    scores = ad.matmul(_split_heads(sq, n_heads),
                       _split_heads(keys, n_heads).swapaxes(-1, -2))
    if mask is not None and ad.is_var(scores):
        scores = scores * mask
    elif mask is not None:
        scores *= mask  # a fresh array: no second [T, B, h, L, P + L] buffer
    s_attn = attn_sn.run(scores)
    s_ctx = sn.run(ad.matmul(s_attn, _split_heads(values, n_heads)))
    out = sn.run(ad.linear(_merge_heads(s_ctx), w.w_out, w.b_out))
    return out, s_attn, (sk, sv)


def csa_forward(x, w: AttnWeights, n_heads: int):
    """Dense causal attention (softmax over scaled dot products).

    x is [B, L, d]; any other rank is a ShapeError. Returns (out, attn):
    out [B, L, d] and the post-softmax attention maps attn [B, h, L, L].
    """
    if x.ndim != 3:
        raise ShapeError(f"csa_forward input must be [B, L, d], got shape {x.shape}")
    b, l, d = x.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ConfigError(f"d_model {d} is not divisible by n_heads {n_heads}")
    _check_weights(w, d)
    mask = causal_mask(l)

    q = _split_heads(ad.linear(x, w.w_q, w.b_q), n_heads)
    k = _split_heads(ad.linear(x, w.w_k, w.b_k), n_heads)
    v = _split_heads(ad.linear(x, w.w_v, w.b_v), n_heads)
    d_head = d // n_heads

    logits = ad.matmul(q, k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d_head))
    # additive masking; -1e9 underflows to 0 after the softmax
    logits = logits + (mask - 1.0) * 1e9
    attn = ad.softmax(logits, axis=-1)
    out = ad.linear(_merge_heads(ad.matmul(attn, v)), w.w_out, w.b_out)
    return out, attn
