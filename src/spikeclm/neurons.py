"""Spiking neuron dynamics: leaky integrate-and-fire and a ternary variant.

The LIF neuron follows the soft-reset recurrence

    U_t = I_t + beta * U_{t-1} - S_{t-1} * U_thr
    S_t = 1[U_t >= U_thr]

with membrane potential U, binary spike S and decay beta in [0, 1]. The
hard threshold has zero gradient almost everywhere, so training uses an
arctangent surrogate: the backward pass pretends the spike was

    sigma(u) = (1/pi) * arctan((pi/2) * alpha * u) + 1/2

evaluated at u = U - U_thr, whose derivative is bounded by alpha/2. A
relaxed mode substitutes sigma for the threshold in the forward pass as
well, which makes the whole network differentiable end to end; finite
difference probes use that mode.

The ternary neuron emits {-amp, 0, +amp} by comparing the membrane against
+-amp, then rescales the membrane as U <- U * (amp - S) + U_reset * S.
Inputs accumulate onto the rescaled membrane with no extra decay term;
the rescaling itself plays that role.

All step functions accept either plain ndarrays or autodiff Vars and keep
whatever kind they were given, so the same dynamics code serves inference
and backprop-through-time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Var, value
from .errors import ConfigError, ValidationError


@dataclass
class LifParams:
    beta: float = 0.5            # membrane decay per step
    u_thr: float = 1.0           # firing threshold
    surrogate_alpha: float = 2.0  # slope of the arctan surrogate

    def validate(self) -> None:
        if not (0.0 <= self.beta <= 1.0):
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.u_thr <= 0.0:
            raise ConfigError(f"u_thr must be positive, got {self.u_thr}")
        if self.surrogate_alpha <= 0.0:
            raise ConfigError(f"surrogate_alpha must be positive, got {self.surrogate_alpha}")


@dataclass
class TernaryParams:
    amp: float = 1.0             # spike amplitude and firing band edge
    u_reset: float = 0.0         # membrane value blended in after a spike
    surrogate_alpha: float = 2.0

    def validate(self) -> None:
        if self.amp <= 0.0:
            raise ConfigError(f"amp must be positive, got {self.amp}")
        if self.surrogate_alpha <= 0.0:
            raise ConfigError(f"surrogate_alpha must be positive, got {self.surrogate_alpha}")


@dataclass
class NeuronState:
    """Carried state of one neuron population (membrane and last spike)."""

    u: object = 0.0
    s_prev: object = 0.0


def fresh_state() -> NeuronState:
    """Zero membrane, no prior spike; broadcasts against any input shape."""
    return NeuronState(u=0.0, s_prev=0.0)


# -- surrogate --------------------------------------------------------------


def surrogate_forward(u, alpha: float = 2.0):
    """Smoothed step sigma(u); maps R onto (0, 1), sigma(0) = 1/2."""
    return (1.0 / np.pi) * np.arctan((np.pi / 2.0) * alpha * np.asarray(u, dtype=np.float64)) + 0.5


def surrogate_grad(u, alpha: float = 2.0):
    """d sigma / d u; even, positive, maximum alpha/2 at u = 0."""
    x = np.array(u, dtype=np.float64)  # the one temporary; u is left as it was
    x *= (np.pi / 2.0) * alpha
    x *= x
    x += 1.0
    return np.divide(alpha / 2.0, x, out=x)


def _binary_spike(u, thr: float, alpha: float, relaxed: bool, taped: bool):
    """Threshold with surrogate backward; u is a Var when taped, else plain."""
    ud = u.data if taped else u
    if relaxed:
        s = surrogate_forward(ud - thr, alpha)
    else:
        s = np.greater_equal(ud, thr).astype(np.float64)
    if not taped:
        return s  # no tape to carry the surrogate slope
    return autodiff.custom_unary(u, s, surrogate_grad(ud - thr, alpha))


def _ternary_spike(u, amp: float, alpha: float, relaxed: bool, taped: bool):
    """Three-level threshold; backward sums surrogate slopes at +-amp."""
    ud = u.data if taped else u
    if relaxed:
        s = amp * (surrogate_forward(ud - amp, alpha) + surrogate_forward(ud + amp, alpha) - 1.0)
    else:
        s = amp * (np.greater(ud, amp).astype(np.float64) - np.less(ud, -amp).astype(np.float64))
    if not taped:
        return s
    local = amp * (surrogate_grad(ud - amp, alpha) + surrogate_grad(ud + amp, alpha))
    return autodiff.custom_unary(u, s, local)


# -- step functions ----------------------------------------------------------


def _identity(g):
    return g


def lif_step(state: NeuronState, input_current, p: LifParams, relaxed: bool = False):
    """One LIF update. Returns (spikes, new_state).

    On the tape the membrane update is one node whose backward sends g to
    the input, beta * g to U_prev and -U_thr * g to S_prev.
    """
    i, u, s = input_current, state.u, state.s_prev
    taped = isinstance(i, Var) or isinstance(u, Var) or isinstance(s, Var)
    if taped:
        operands = (i, _identity), (u, lambda g: g * p.beta), (s, lambda g: g * -p.u_thr)
        i, u, s = value(i), value(u), value(s)
    u = i + p.beta * u - s * p.u_thr
    if taped:
        u = autodiff.custom_op(u, *operands)
    s = _binary_spike(u, p.u_thr, p.surrogate_alpha, relaxed, taped)
    return s, NeuronState(u=u, s_prev=s)


def ternary_step(state: NeuronState, input_current, p: TernaryParams, relaxed: bool = False):
    """One ternary update. Returns (spikes, new_state).

    The input integrates onto the carried membrane, the spike is read out,
    and the membrane is rescaled by (amp - S) with U_reset blended in. On
    the tape the input add and the rescale are one node each.
    """
    i, u = input_current, state.u
    taped = isinstance(i, Var) or isinstance(u, Var)
    if taped:
        operands = (i, _identity), (u, _identity)
        i, u = value(i), value(u)
    u = i + u
    if taped:
        u = autodiff.custom_op(u, *operands)
    s = _ternary_spike(u, p.amp, p.surrogate_alpha, relaxed, taped)
    ud, sd = u, s
    if taped:
        ud, sd = u.data, s.data
    keep = p.amp - sd
    u_next = ud * keep + p.u_reset * sd
    if taped:
        # two terms for the spike, -U*g then U_reset*g, not one combined: its
        # gradient then sums in the same order as the generic-op expression's
        u_next = autodiff.custom_op(u_next, (u, lambda g: g * keep),
                                    (s, lambda g: -(g * ud)), (s, lambda g: g * p.u_reset))
    return s, NeuronState(u=u_next, s_prev=s)


@dataclass
class NeuronSpec:
    """Which neuron a network runs, plus its parameters and forward mode."""

    mode: str = "binary"  # "binary" or "ternary"
    lif: LifParams = field(default_factory=LifParams)
    ternary: TernaryParams = field(default_factory=TernaryParams)
    relaxed: bool = False

    def validate(self) -> None:
        if self.mode not in ("binary", "ternary"):
            raise ConfigError(f"unknown neuron mode {self.mode!r}")
        self.lif.validate()
        self.ternary.validate()

    def step(self, state: NeuronState, input_current):
        if self.mode == "binary":
            return lif_step(state, input_current, self.lif, relaxed=self.relaxed)
        return ternary_step(state, input_current, self.ternary, relaxed=self.relaxed)

    def with_threshold(self, u_thr: float) -> "NeuronSpec":
        """Copy with a different firing threshold (binary) or band (ternary)."""
        if self.mode == "binary":
            lif = LifParams(self.lif.beta, u_thr, self.lif.surrogate_alpha)
            return NeuronSpec("binary", lif, self.ternary, self.relaxed)
        tern = TernaryParams(u_thr, self.ternary.u_reset, self.ternary.surrogate_alpha)
        return NeuronSpec("ternary", self.lif, tern, self.relaxed)


# -- rate and trace helpers ---------------------------------------------------


def lif_constant_drive(a: np.ndarray, t_steps: int, p: LifParams) -> np.ndarray:
    """Spike trains of LIF neurons driven by constant currents a.

    Starts from a zero membrane and returns spikes of shape (t_steps, *a.shape).
    """
    if t_steps < 1:
        raise ValidationError(f"t_steps must be >= 1, got {t_steps}")
    a = np.asarray(a, dtype=np.float64)
    state = fresh_state()
    out = np.empty((t_steps,) + a.shape, dtype=np.float64)
    for t in range(t_steps):
        s, state = lif_step(state, a, p)
        out[t] = s
    return out


def empirical_rate(a: float, t_steps: int, p: LifParams) -> float:
    """Fraction of steps a constant-current LIF neuron fires, from rest."""
    spikes = lif_constant_drive(np.asarray(float(a)), t_steps, p)
    return float(spikes.mean())


def eligibility_trace(inputs, beta: float) -> list:
    """Running filter e_t = X_t + beta * e_{t-1}, e_0 = 0.

    With inputs bounded by M the trace is bounded by M / (1 - beta) for
    beta < 1. Returns one array per step.
    """
    if not (0.0 <= beta <= 1.0):
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    out = []
    e = None
    for x in inputs:
        x = np.asarray(x, dtype=np.float64)
        e = x.copy() if e is None else x + beta * e
        out.append(e)
    return out
