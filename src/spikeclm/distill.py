"""Alignment distillation from a dense teacher into the spiking student.

Five losses, each weighted by one entry of lambdas = (emb, attn, feat,
soft, hard):

  embedding  squared distance between the teacher's embedding output and
             the time-mean of the student's per-step embedding spikes,
             normalized by element count.
  attention  two branches mixed by gamma_attn. The rate branch encodes the
             teacher's attention map into spike trains (each entry drives
             a LIF neuron as a constant current for T steps) and compares
             time-means; the direct branch compares the raw teacher map
             against the student's time-mean spike map.
  feature    two branches mixed by gamma_feat. The rate branch compares
             the spike-encoded teacher features against the raw student
             time-mean; the direct branch compares both sides after a
             LayerNorm, which removes the scale gap between real features
             and firing rates.
  soft       tau^2 * KL(teacher softened distribution || student softened
             distribution), averaged over token positions.
  hard       next-token cross-entropy against the ground truth.

Teacher tensors are plain arrays (no gradients flow into the teacher);
student tensors may be taped Vars, and every loss preserves that.

Structural alignment: teacher layers are matched by uniform spacing
(layer_map), teacher heads are mean-pooled down to the student's head
count, and the embedding and feature losses need equal model widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (AlignmentError, ConfigError, InternalError, ValidationError,
                     require_finite_fields)
from .model import layer_norm, time_mean
from .neurons import LifParams, lif_constant_drive

LOSS_NAMES = ("emb", "attn", "feat", "soft", "hard")


@dataclass
class SpadConfig:
    lambdas: tuple = (0.2, 0.1, 0.1, 0.3, 0.3)
    tau: float = 2.0
    gamma_attn: float = 0.5
    gamma_feat: float = 0.5

    def validate(self) -> None:
        if len(self.lambdas) != 5:
            raise ConfigError(f"need 5 loss weights, got {len(self.lambdas)}")
        require_finite_fields(self)
        if not all(math.isfinite(l) for l in self.lambdas):
            raise ConfigError(f"loss weights must be finite, got {self.lambdas}")
        if any(l < 0 for l in self.lambdas):
            raise ConfigError(f"loss weights must be >= 0, got {self.lambdas}")
        if abs(sum(self.lambdas) - 1.0) > 1e-9:
            raise ConfigError(f"loss weights must sum to 1, got {sum(self.lambdas)}")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        for name in ("gamma_attn", "gamma_feat"):
            g = getattr(self, name)
            if not 0.0 < g < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {g}")


def layer_map(n_student: int, n_teacher: int) -> list:
    """Uniformly spaced teacher layer (0-based) for each student layer.

    Equal depths give the identity; a 2-layer student against a 4-layer
    teacher reads teacher layers 1 and 3 (counting from 0).
    """
    if n_student < 1 or n_teacher < 1:
        raise ConfigError("layer counts must be >= 1")
    if n_student > n_teacher:
        raise ConfigError(
            f"student has {n_student} layers but teacher only {n_teacher}")
    out = [int(np.floor(i * n_teacher / n_student + 0.5)) - 1
           for i in range(1, n_student + 1)]
    if len(set(out)) != len(out):
        raise InternalError(f"layer map {out} is not injective")
    return out


def pool_heads(attn: np.ndarray, n_heads_student: int) -> np.ndarray:
    """Mean-pool teacher attention heads down to the student head count."""
    attn = np.asarray(attn, dtype=np.float64)
    h_t = attn.shape[-3]
    if n_heads_student < 1 or h_t % n_heads_student != 0:
        raise AlignmentError(
            f"cannot pool {h_t} teacher heads onto {n_heads_student} student heads")
    group = h_t // n_heads_student
    shape = attn.shape[:-3] + (n_heads_student, group) + attn.shape[-2:]
    return attn.reshape(shape).mean(axis=-3)


def spike_encode(x: np.ndarray, t_steps: int, p: LifParams) -> np.ndarray:
    """Encode real values as spike trains: constant-current LIF, T steps.

    Entrywise, the time-mean of the result is empirical_rate(x_ij, T, p).
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValidationError("spike_encode: non-finite input")
    return lif_constant_drive(x, t_steps, p)


def _mse(target: np.ndarray, student):
    diff = target - student
    return (diff * diff).mean()


def loss_embedding(e_ann: np.ndarray, e_snn_steps):
    """Mean squared entry of E_ANN minus the student time-mean.

    Student activity here and in the other alignment losses is a [T, ...]
    stack of spikes (a Var when taped).
    """
    e_ann = np.asarray(e_ann, dtype=np.float64)
    mean = time_mean(e_snn_steps)
    if ad.value(mean).shape != e_ann.shape:
        raise AlignmentError(
            f"embedding shapes differ: teacher {e_ann.shape}, "
            f"student {ad.value(mean).shape}")
    return _mse(e_ann, mean)


def loss_attention(a_ann: np.ndarray, a_snn_steps, p: LifParams, gamma: float):
    """Rate branch vs direct branch on attention maps, mixed by gamma."""
    a_ann = np.asarray(a_ann, dtype=np.float64)
    mean = time_mean(a_snn_steps)
    if ad.value(mean).shape != a_ann.shape:
        raise AlignmentError(
            f"attention shapes differ after alignment: teacher {a_ann.shape}, "
            f"student {ad.value(mean).shape}")
    rate_target = spike_encode(a_ann, ad.value(a_snn_steps).shape[0], p).mean(axis=0)
    return gamma * _mse(rate_target, mean) + (1.0 - gamma) * _mse(a_ann, mean)


def loss_feature(h_ann: np.ndarray, h_snn_steps, p: LifParams, gamma: float):
    """Feature alignment; see the module docstring for the two branches."""
    h_ann = np.asarray(h_ann, dtype=np.float64)
    mean = time_mean(h_snn_steps)
    if ad.value(mean).shape != h_ann.shape:
        raise AlignmentError(
            f"feature shapes differ: teacher {h_ann.shape}, "
            f"student {ad.value(mean).shape}")
    rate_target = spike_encode(h_ann, ad.value(h_snn_steps).shape[0], p).mean(axis=0)
    rate_branch = _mse(rate_target, mean)
    ones, zeros = np.ones(h_ann.shape[-1]), np.zeros(h_ann.shape[-1])
    mse_branch = _mse(layer_norm(h_ann, ones, zeros), layer_norm(mean, ones, zeros))
    return gamma * rate_branch + (1.0 - gamma) * mse_branch


def loss_soft(z_ann: np.ndarray, z_snn, tau: float):
    """tau^2-scaled KL from teacher to student softened distributions."""
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    z_ann = np.asarray(z_ann, dtype=np.float64)
    if ad.value(z_snn).shape != z_ann.shape:
        raise AlignmentError(
            f"logit shapes differ: {z_ann.shape} vs {ad.value(z_snn).shape}")
    log_p = ad.log_softmax(z_ann / tau)
    log_q = ad.log_softmax(z_snn / tau)
    p = np.exp(log_p)
    kl_per_token = (p * (log_p - log_q)).sum(axis=-1)
    return (tau * tau) * kl_per_token.mean()


def loss_hard(z_snn, targets):
    """Mean next-token cross-entropy."""
    targets = np.asarray(targets)
    vocab = ad.value(z_snn).shape[-1]
    if ad.value(z_snn).shape[:-1] != targets.shape:
        raise AlignmentError(
            f"targets {targets.shape} do not match logits {ad.value(z_snn).shape}")
    if targets.min() < 0 or targets.max() >= vocab:
        raise ValidationError(
            f"targets must lie in [0, {vocab}), got [{targets.min()}, {targets.max()}]")
    picked = ad.gather_last(ad.log_softmax(z_snn), targets)
    return -picked.mean()


def loss_total(components, cfg: SpadConfig):
    """Weighted sum plus a per-component weighted breakdown for logging."""
    cfg.validate()
    if len(components) != 5:
        raise ConfigError(f"need 5 loss components, got {len(components)}")
    total = 0.0
    breakdown = {}
    for name, lam, comp in zip(LOSS_NAMES, cfg.lambdas, components):
        weighted = lam * comp if lam != 0.0 else 0.0
        breakdown[name] = float(ad.value(weighted))
        total = total + weighted
    return total, breakdown


def spad_losses(student_logits, student_trace, teacher_trace, targets,
                spad: SpadConfig, lif: LifParams):
    """All five losses for one batch, already layer/head aligned.

    Components with zero weight are skipped (reported as 0.0), so ablated
    runs pay nothing for the disabled terms. Returns (total, breakdown)
    where total is a Var whenever the student tensors were taped.
    """
    spad.validate()
    n_s = len(student_trace.hidden)
    n_t = len(teacher_trace.hidden)
    lmap = layer_map(n_s, n_t)
    lam = spad.lambdas

    comps: list = [0.0] * 5
    if lam[0] != 0.0:
        comps[0] = loss_embedding(ad.value(teacher_trace.embed),
                                  student_trace.embed_steps)
    if lam[1] != 0.0:
        h_s = ad.value(student_trace.attn_spikes[0]).shape[-3]
        total = 0.0
        for i, j in enumerate(lmap):
            pooled = pool_heads(ad.value(teacher_trace.attn_maps[j]), h_s)
            total = total + loss_attention(pooled, student_trace.attn_spikes[i],
                                           lif, spad.gamma_attn)
        comps[1] = total / n_s
    if lam[2] != 0.0:
        total = 0.0
        for i, j in enumerate(lmap):
            total = total + loss_feature(ad.value(teacher_trace.hidden[j]),
                                         student_trace.hidden[i], lif,
                                         spad.gamma_feat)
        comps[2] = total / n_s
    if lam[3] != 0.0:
        comps[3] = loss_soft(ad.value(teacher_trace.logits), student_logits, spad.tau)
    if lam[4] != 0.0:
        comps[4] = loss_hard(student_logits, targets)
    return loss_total(comps, spad)
