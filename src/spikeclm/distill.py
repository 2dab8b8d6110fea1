"""Alignment distillation from a dense teacher into the spiking student.

Five losses, each weighted by one entry of lambdas = (emb, attn, feat,
soft, hard):

  embedding  squared distance between the teacher's embedding output and
             the time-mean of the student's per-step embedding spikes,
             normalized by element count.
  attention  two branches mixed by gamma_attn. The rate branch encodes the
             teacher's attention map into spike trains (neurons.spike_encode:
             each entry drives a LIF neuron as a constant current for T
             steps) and compares time-means; the direct branch compares the
             raw teacher map against the student's time-mean spike map.
  feature    two branches mixed by gamma_feat. The rate branch compares
             the spike-encoded teacher features against the raw student
             time-mean; the direct branch compares both sides after a
             LayerNorm, which removes the scale gap between real features
             and firing rates.
  soft       tau^2 * KL(teacher softened distribution || student softened
             distribution), averaged over token positions.
  hard       next-token cross-entropy against the ground truth.

Teacher tensors are plain arrays (no gradients flow into the teacher);
student tensors may be taped Vars, and every loss preserves that. Each
loss is one tape node over its student tensor: its value is computed on
plain arrays, with the same expressions a composition of tape ops would
evaluate, and its gradient is closed-form (MSE against a time-mean, the
LayerNorm backward, tau * (q - p) / n for the KL and (softmax - onehot) / n
for the cross-entropy). The three squared-error losses share one gradient
rule, in _mean_loss. A taped loss therefore adds one scalar node, not a
chain of [T, ...]-sized ones.

Structural alignment: teacher layers are matched by uniform spacing
(layer_map), teacher heads are mean-pooled down to the student's head
count, and the embedding and feature losses need equal model widths.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (AlignmentError, ConfigError, ValidationError,
                     require_finite_fields)
from .model import time_mean, unit_layer_norm, unit_layer_norm_vjp
from .neurons import LifParams, spike_encode

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
    # the step n_teacher / n_student is >= 1, so no teacher layer repeats
    return [int(np.floor(i * n_teacher / n_student + 0.5)) - 1
            for i in range(1, n_student + 1)]


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


def _student_mean(steps, teacher: np.ndarray, mismatch: str):
    """(stack, mean) for a student [T, ...] stack, plain or taped.

    mean is time_mean's value of the stack, and must have the teacher's
    shape; mismatch opens the error otherwise.
    """
    stack = ad.value(steps)
    mean = time_mean(stack)
    if mean.shape != teacher.shape:
        raise AlignmentError(
            f"{mismatch}: teacher {teacher.shape}, student {mean.shape}")
    return stack, mean


def _mean_loss(value, steps, stack: np.ndarray, residual):
    """One node for a mean squared error of the time-mean of steps.

    The loss is a mean of squared residuals over the N entries of that
    mean; residual() is the target minus the mean, gamma-mixed over the
    loss's branches (a branch through a LayerNorm goes through its VJP).
    Each of the T steps receives -2 g residual / (N T), in a fresh array;
    residual runs only in the backward.
    """
    coef = -2.0 / stack.size

    def vjp(g):
        out = np.empty_like(stack)
        out[...] = (g * coef) * residual()
        return out
    return ad.custom_op(value, (steps, vjp))


def loss_embedding(e_ann: np.ndarray, e_snn_steps):
    """Mean squared entry of E_ANN minus the student time-mean.

    Student activity here and in the other alignment losses is a [T, ...]
    stack of spikes (a Var when taped).
    """
    e_ann = np.asarray(e_ann, dtype=np.float64)
    stack, mean = _student_mean(e_snn_steps, e_ann, "embedding shapes differ")
    diff = e_ann - mean
    return _mean_loss((diff * diff).mean(), e_snn_steps, stack, lambda: diff)


def loss_attention(a_ann: np.ndarray, a_snn_steps, p: LifParams, gamma: float):
    """Rate branch vs direct branch on attention maps, mixed by gamma."""
    a_ann = np.asarray(a_ann, dtype=np.float64)
    stack, mean = _student_mean(a_snn_steps, a_ann,
                                "attention shapes differ after alignment")
    d_rate = spike_encode(a_ann, len(stack), p).mean(axis=0) - mean
    d_map = a_ann - mean
    value = gamma * (d_rate * d_rate).mean() + (1.0 - gamma) * (d_map * d_map).mean()
    return _mean_loss(value, a_snn_steps, stack,
                      lambda: gamma * d_rate + (1.0 - gamma) * d_map)


def loss_feature(h_ann: np.ndarray, h_snn_steps, p: LifParams, gamma: float):
    """Feature alignment; see the module docstring for the two branches."""
    h_ann = np.asarray(h_ann, dtype=np.float64)
    stack, mean = _student_mean(h_snn_steps, h_ann, "feature shapes differ")
    d_rate = spike_encode(h_ann, len(stack), p).mean(axis=0) - mean
    y, r = unit_layer_norm(mean)
    d_ln = unit_layer_norm(h_ann)[0] - y
    value = gamma * (d_rate * d_rate).mean() + (1.0 - gamma) * (d_ln * d_ln).mean()
    return _mean_loss(value, h_snn_steps, stack, lambda: (
        gamma * d_rate + (1.0 - gamma) * unit_layer_norm_vjp(y, r, d_ln)))


def loss_soft(z_ann: np.ndarray, z_snn, tau: float):
    """tau^2-scaled KL from teacher to student softened distributions."""
    if tau <= 0:
        raise ConfigError(f"tau must be positive, got {tau}")
    z_ann = np.asarray(z_ann, dtype=np.float64)
    z = ad.value(z_snn)
    if z.shape != z_ann.shape:
        raise AlignmentError(f"logit shapes differ: {z_ann.shape} vs {z.shape}")
    log_p = ad.log_softmax(z_ann / tau)
    log_q = ad.log_softmax(z / tau)
    p = np.exp(log_p)
    kl_per_token = (p * (log_p - log_q)).sum(axis=-1)

    def vjp(g):
        out = np.exp(log_q)
        out -= p
        out *= g * (tau / kl_per_token.size)
        return out
    return ad.custom_op((tau * tau) * kl_per_token.mean(), (z_snn, vjp))


def loss_hard(z_snn, targets):
    """Mean next-token cross-entropy."""
    targets = np.asarray(targets)
    z = ad.value(z_snn)
    vocab = z.shape[-1]
    if z.shape[:-1] != targets.shape:
        raise AlignmentError(f"targets {targets.shape} do not match logits {z.shape}")
    if targets.min() < 0 or targets.max() >= vocab:
        raise ValidationError(
            f"targets must lie in [0, {vocab}), got [{targets.min()}, {targets.max()}]")
    log_q = ad.log_softmax(z)
    ids = targets[..., None]
    picked = np.take_along_axis(log_q, ids, axis=-1)[..., 0]

    def vjp(g):
        out = np.exp(log_q)
        np.put_along_axis(out, ids, np.take_along_axis(out, ids, axis=-1) - 1.0, axis=-1)
        out *= g * (1.0 / picked.size)
        return out
    return ad.custom_op(-picked.mean(), (z_snn, vjp))


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
    n_s, stacks = student_trace.n_layers, student_trace.activity
    n_t = len(teacher_trace.hidden)
    lmap = layer_map(n_s, n_t)
    lam = spad.lambdas

    comps: list = [0.0] * 5
    if lam[0] != 0.0:
        comps[0] = loss_embedding(ad.value(teacher_trace.embed),
                                  stacks["enc"])
    if lam[1] != 0.0:
        h_s = ad.value(stacks["layer0.attn"]).shape[-3]
        total = 0.0
        for i, j in enumerate(lmap):
            pooled = pool_heads(ad.value(teacher_trace.attn_maps[j]), h_s)
            total = total + loss_attention(pooled, stacks[f"layer{i}.attn"],
                                           lif, spad.gamma_attn)
        comps[1] = total / n_s
    if lam[2] != 0.0:
        total = 0.0
        for i, j in enumerate(lmap):
            total = total + loss_feature(ad.value(teacher_trace.hidden[j]),
                                         stacks[f"layer{i}.ffn2"], lif,
                                         spad.gamma_feat)
        comps[2] = total / n_s
    if lam[3] != 0.0:
        comps[3] = loss_soft(ad.value(teacher_trace.logits), student_logits, spad.tau)
    if lam[4] != 0.0:
        comps[4] = loss_hard(student_logits, targets)
    return loss_total(comps, spad)
