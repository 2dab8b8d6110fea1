"""Causal attention blocks: a spiking softmax-free one and a dense one.

The spiking block (sfsa_forward) processes one time step per call; the
outer time loop lives with the model. All mixing happens through binary
spike trains, so the only products a hardware target would see are
accumulations:

    1. real projections  q, k, v = X Wq + bq, ...
    2. spike trains      sq, sk, sv = SN(q), SN(k), SN(v)
    3. integer scores    A = sq sk^T          (per head; entries in [0, d_head])
    4. causal masking    A <- M (.) A, then   sa = SN_attn(A)
    5. mixing            C = sa sv,           sc = SN(C)
    6. output            Y = sc Wout + bout,  out = SN(Y)

Masking is multiplicative (a Hadamard product with the 0/1 causal mask),
not an additive -inf bias: there is no softmax afterwards to absorb one,
and zeroed scores simply never drive the attention neuron. No 1/sqrt(d)
scaling is applied anywhere; thresholds play that role.

The dense block (csa_forward) is the ordinary scaled-dot-product causal
attention used by the teacher, sharing the same weight container.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError, ValidationError
from .neurons import NeuronSpec, NeuronState, fresh_state


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


@dataclass
class SfsaState:
    """Neuron states carried across time steps inside one spiking block."""

    q: NeuronState
    k: NeuronState
    v: NeuronState
    attn: NeuronState
    attn_out: NeuronState
    out: NeuronState


def fresh_sfsa_state() -> SfsaState:
    return SfsaState(*(fresh_state() for _ in range(6)))


def causal_mask(seq_len: int, pad_mask=None, offset: int = 0) -> np.ndarray:
    """Causal 0/1 mask [L, offset + L]; padded positions drop out entirely.

    Row i is the query at position offset + i, so it sees columns 0 through
    offset + i: the lower triangle when offset is 0, and the rectangle an
    incremental decode step needs when offset earlier positions are cached.
    pad_mask, if given, holds 1 for real tokens and 0 for padding over all
    offset + L positions; padded positions neither attend nor are attended to.
    """
    if seq_len < 1:
        raise ShapeError(f"seq_len must be >= 1, got {seq_len}")
    if offset < 0:
        raise ShapeError(f"offset must be >= 0, got {offset}")
    width = offset + seq_len
    m = np.tril(np.ones((seq_len, width), dtype=np.float64), k=offset)
    if pad_mask is not None:
        pad = np.asarray(pad_mask, dtype=np.float64)
        if pad.shape != (width,):
            raise ShapeError(f"pad_mask must have shape ({width},), got {pad.shape}")
        m = m * pad[None, :] * pad[offset:, None]
    return m


def _check_mask(mask: np.ndarray, seq_len: int, offset: int = 0) -> None:
    if mask.shape != (seq_len, offset + seq_len):
        raise ShapeError(f"mask shape {mask.shape} does not match seq_len {seq_len}"
                         + (f" after {offset} cached positions" if offset else ""))
    if np.any((mask != 0.0) & (mask != 1.0)):
        raise ValidationError("mask entries must be 0 or 1")
    if np.any(np.triu(mask, k=offset + 1) != 0.0):
        raise ValidationError("mask allows attention to future positions")


def _check_spike_input(x, where: str, sn: NeuronSpec) -> None:
    """Spiking blocks consume spike counts: finite integer multiples of a spike.

    A binary spike is 1, so counts are nonnegative integers. A ternary spike
    is +-amp, so counts are signed integer multiples of amp.
    """
    d = ad.value(x)
    if not np.isfinite(d).all():
        raise ValidationError(f"{where}: input contains non-finite values")
    if sn.mode == "ternary":
        n = d / sn.ternary.amp
        if np.any(np.abs(n - np.round(n)) > 1e-9 * np.maximum(1.0, np.abs(n))):
            raise ValidationError(
                f"{where}: input is not a count of +-{sn.ternary.amp} spikes")
    elif np.any(d < 0.0) or np.any(d != np.round(d)):
        raise ValidationError(f"{where}: input is not a spike-count tensor")


def _split_heads(x, n_heads: int):
    """[B, L, d] -> [B, h, L, d/h]."""
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).swapaxes(1, 2)


def _merge_heads(x):
    """[B, h, L, d/h] -> [B, L, d]."""
    b, h, l, dh = x.shape
    return x.swapaxes(1, 2).reshape(b, l, h * dh)


def _normalize_input(x):
    """Accept [L, d] or [B, L, d]; return 3-d plus a flag to squeeze back."""
    if x.ndim == 2:
        b, l, d = 1, x.shape[0], x.shape[1]
        return x.reshape(1, l, d), True
    if x.ndim == 3:
        return x, False
    raise ShapeError(f"attention input must be rank 2 or 3, got shape {x.shape}")


def _check_weights(w: AttnWeights, d: int) -> None:
    for name in ("w_q", "w_k", "w_v", "w_out"):
        shape = ad.value(getattr(w, name)).shape
        if shape != (d, d):
            raise ShapeError(f"{name} must be [{d}, {d}], got {list(shape)}")
    for name in ("b_q", "b_k", "b_v", "b_out"):
        shape = ad.value(getattr(w, name)).shape
        if shape != (d,):
            raise ShapeError(f"{name} must be [{d}], got {list(shape)}")


def sfsa_forward(x, w: AttnWeights, mask: np.ndarray, state: SfsaState,
                 sn: NeuronSpec, attn_sn: NeuronSpec, n_heads: int, past=None):
    """One time step of spiking attention.

    x holds this step's input spikes (or integer spike sums from residual
    paths), shape [L, d] or [B, L, d]. Returns (out_spikes, attn_spikes,
    new_state) with attn_spikes shaped [.., h, L, P + L].

    past, if given, is (k_spikes, v_spikes) of P earlier positions at this
    step, each [P, d] or [B, P, d] like x: the L new queries then score
    against the keys of all P + L positions, under a mask of shape
    [L, P + L] (causal_mask(L, offset=P)). Every neuron state belongs to
    one new position or one (query, key) entry, so running the new rows
    alone gives the same spikes as the last L rows of the full call.
    """
    x, squeeze = _normalize_input(x)
    b, l, d = x.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ConfigError(f"d_model {d} is not divisible by n_heads {n_heads}")
    _check_weights(w, d)
    if past is not None:
        past_k, past_v = (_normalize_input(np.asarray(p, dtype=np.float64))[0] for p in past)
        if past_k.shape != past_v.shape or past_k.shape[::2] != (b, d):
            raise ShapeError(f"past keys {past_k.shape} and values {past_v.shape} "
                             f"do not match input {x.shape}")
    _check_mask(mask, l, 0 if past is None else past_k.shape[1])
    if not sn.relaxed:
        _check_spike_input(x, "sfsa_forward", sn)

    q = ad.matmul(x, w.w_q) + w.b_q
    k = ad.matmul(x, w.w_k) + w.b_k
    v = ad.matmul(x, w.w_v) + w.b_v
    sq, st_q = sn.step(state.q, q)
    sk, st_k = sn.step(state.k, k)
    sv, st_v = sn.step(state.v, v)
    keys, values = sk, sv
    if past is not None:
        if ad.is_var(sk) or sn.relaxed:
            raise ConfigError("past keys and values need an untaped hard-threshold forward")
        keys = np.concatenate([past_k, sk], axis=1)
        values = np.concatenate([past_v, sv], axis=1)

    scores = ad.matmul(_split_heads(sq, n_heads),
                       _split_heads(keys, n_heads).swapaxes(-1, -2))
    masked = scores * mask
    s_attn, st_attn = attn_sn.step(state.attn, masked)

    ctx = ad.matmul(s_attn, _split_heads(values, n_heads))
    s_ctx, st_ctx = sn.step(state.attn_out, ctx)

    y = ad.matmul(_merge_heads(s_ctx), w.w_out) + w.b_out
    out, st_out = sn.step(state.out, y)

    new_state = SfsaState(st_q, st_k, st_v, st_attn, st_ctx, st_out)
    if squeeze:
        b_, l_, d_ = out.shape
        out = out.reshape(l_, d_)
        h_ = s_attn.shape[1]
        s_attn = s_attn.reshape(h_, l_, s_attn.shape[-1])
    return out, s_attn, new_state


def csa_forward(x, w: AttnWeights, mask: np.ndarray, n_heads: int):
    """Dense causal attention (softmax over scaled dot products).

    Returns (out, attn) where attn holds the post-softmax attention maps,
    shape [.., h, L, L]. Rows whose mask is entirely zero fall back to
    attending to themselves rather than producing NaNs.
    """
    x, squeeze = _normalize_input(x)
    b, l, d = x.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ConfigError(f"d_model {d} is not divisible by n_heads {n_heads}")
    _check_weights(w, d)
    _check_mask(mask, l)

    eff_mask = mask
    dead_rows = mask.sum(axis=-1) == 0
    if dead_rows.any():
        eff_mask = mask.copy()
        idx = np.where(dead_rows)[0]
        eff_mask[idx, idx] = 1.0

    q = _split_heads(ad.matmul(x, w.w_q) + w.b_q, n_heads)
    k = _split_heads(ad.matmul(x, w.w_k) + w.b_k, n_heads)
    v = _split_heads(ad.matmul(x, w.w_v) + w.b_v, n_heads)
    d_head = d // n_heads

    logits = ad.matmul(q, k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d_head))
    # additive masking; -1e9 underflows to 0 after the softmax
    logits = logits + (eff_mask - 1.0) * 1e9
    attn = ad.softmax(logits, axis=-1)
    out = ad.matmul(_merge_heads(ad.matmul(attn, v)), w.w_out) + w.b_out

    if squeeze:
        b_, l_, d_ = out.shape
        out = out.reshape(l_, d_)
        h_ = attn.shape[1]
        attn = attn.reshape(h_, l_, l_)
    return out, attn
