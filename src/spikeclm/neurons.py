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

The step functions take plain ndarrays (or floats) and advance one time
step, writing into buffers they are given. The carried membrane and last
spike are None at rest, and from there the LIF update is the single op
I + 0.0, which is what I + beta * 0 - 0 * U_thr computes, -0.0 included.
NeuronSpec.run is the one runner: it loops its mode's step over t into the
rows of a [T, ...] output. Untaped, one membrane buffer advances in place
over t; on the tape the run keeps every membrane and is the population's
one node, whose backward runs the BPTT recurrence in reverse over t
(Neftci, Mostafa & Zenke 2019), through the input, decay, reset and
surrogate paths. That backward writes dL/dI over the surrogate slope, row
by row. NeuronSpec also holds the rule for what its spikes sum to, which
the spiking blocks check their input against.

A taped population takes over the node that produced its current (a
linear map, attention scores or a matmul; autodiff.chain_op): it inherits
that node's parents, and its backward hands dL/dI straight to that node's
VJP. The tape then keeps no [T, ...] current, and the current is freed
when the forward returns, since the LIF backward reads only the
membranes. The ternary backward rebuilds the pre-spike membranes from the
currents, so a ternary run keeps them in its closure.

spike_encode is the one constant-drive encoder: each real value drives a
LIF neuron from rest for T steps. SpAD's rate branches encode teacher
tensors with it; empirical_rate is the time-mean of one such train.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Var
from .errors import ConfigError, ShapeError, ValidationError, require_finite_fields


@dataclass
class LifParams:
    beta: float = 0.5            # membrane decay per step
    u_thr: float = 1.0           # firing threshold
    surrogate_alpha: float = 2.0  # slope of the arctan surrogate

    def validate(self) -> None:
        require_finite_fields(self)
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
        require_finite_fields(self)
        if self.amp <= 0.0:
            raise ConfigError(f"amp must be positive, got {self.amp}")
        if self.surrogate_alpha <= 0.0:
            raise ConfigError(f"surrogate_alpha must be positive, got {self.surrogate_alpha}")


# -- surrogate --------------------------------------------------------------


def surrogate_forward(u, alpha: float = 2.0):
    """Smoothed step sigma(u); maps R onto (0, 1), sigma(0) = 1/2."""
    with np.errstate(over="ignore"):  # past the float range, +-inf gives the limits 1, 0
        scaled = (np.pi / 2.0) * alpha * np.asarray(u, dtype=np.float64)
    return (1.0 / np.pi) * np.arctan(scaled) + 0.5


def surrogate_grad(u, alpha: float = 2.0, shift: float = 0.0):
    """d sigma / d u at u - shift; even, positive, maximum alpha/2 at u = shift."""
    with np.errstate(over="ignore"):  # past |u - shift| ~ 1e154, inf gives the limit 0
        x = np.subtract(u, shift, out=np.empty(np.shape(u)))  # the one buffer
        x *= (np.pi / 2.0) * alpha
        x *= x
    x += 1.0
    return np.divide(alpha / 2.0, x, out=x)


# -- step functions ----------------------------------------------------------


def _buffers(u, s_prev, input_current, s_out, u_out, scratch):
    """The step's output and scratch arrays: those given, fresh ones for the rest."""
    shape = np.broadcast_shapes(np.shape(input_current), np.shape(u), np.shape(s_prev))
    return tuple(np.empty(shape) if b is None else b for b in (s_out, u_out, scratch))


def lif_step(u, s_prev, input_current, p: LifParams, relaxed: bool = False,
             s_out=None, u_out=None, scratch=None):
    """One LIF update on plain arrays. Returns (spikes, membrane).

    u and s_prev are the carried membrane and last spikes. At rest both are
    None and the update is I + 0.0, which is what I + beta * 0 - 0 * U_thr
    computes, -0.0 included. The spikes and the new membrane are written
    to s_out and u_out, and scratch holds a temporary; each is a fresh
    array when not given. u_out may be u, which then advances in place;
    scratch must share memory with nothing else.
    """
    if s_out is None or u_out is None or scratch is None:
        s_out, u_out, scratch = _buffers(u, s_prev, input_current, s_out, u_out, scratch)
    if u is None and s_prev is None:
        np.add(input_current, 0.0, out=u_out)
    else:
        # i + beta * U_prev - S_prev * U_thr
        np.add(input_current, np.multiply(u, p.beta, out=scratch), out=u_out)
        u_out -= np.multiply(s_prev, p.u_thr, out=scratch)
    if relaxed:  # the surrogate stands in for the threshold
        s_out[...] = surrogate_forward(u_out - p.u_thr, p.surrogate_alpha)
    else:
        np.greater_equal(u_out, p.u_thr, out=s_out)
    return s_out, u_out


def ternary_step(u, s_prev, input_current, p: TernaryParams, relaxed: bool = False,
                 s_out=None, u_out=None, scratch=None):
    """One ternary update on plain arrays. Returns (spikes, membrane).

    The input integrates onto the carried membrane u (0.0 at rest, when u
    is None), the spike is read out, and the membrane is rescaled by
    (amp - S) with U_reset blended in. s_prev goes unread; the buffers are
    those of lif_step.
    """
    if s_out is None or u_out is None or scratch is None:
        s_out, u_out, scratch = _buffers(u, s_prev, input_current, s_out, u_out, scratch)
    np.add(input_current, 0.0 if u is None else u, out=u_out)
    if relaxed:  # the surrogates stand in for the band edges +-amp
        s_out[...] = p.amp * (surrogate_forward(u_out - p.amp, p.surrogate_alpha)
                              + surrogate_forward(u_out + p.amp, p.surrogate_alpha) - 1.0)
    else:
        np.greater(u_out, p.amp, out=s_out)
        s_out -= np.less(u_out, -p.amp, out=scratch)
        s_out *= p.amp
    # u * (amp - s) + u_reset * s
    u_out *= np.subtract(p.amp, s_out, out=scratch)
    u_out += np.multiply(s_out, p.u_reset, out=scratch)
    return s_out, u_out


# -- multi-step runner ---------------------------------------------------------


def _lif_bptt(g, u, p: LifParams):
    """Reverse LIF recurrence: dL/dI [T, ...] from dL/dS [T, ...].

    u holds the forward membranes. S_t reaches the loss directly and
    through U_{t+1} (-U_thr); U_t through S_t (the surrogate slope) and
    through U_{t+1} (beta). Row t of the slope is overwritten with dL/dI_t
    once it is read, through one step-sized temporary.
    """
    gi = surrogate_grad(u, p.surrogate_alpha, p.u_thr)
    gi[-1, ...] *= g[-1]
    tmp = np.empty(u.shape[1:])
    for t in range(len(u) - 2, -1, -1):
        nxt, row = gi[t + 1, ...], gi[t, ...]
        # (g_t + dI_{t+1} * -U_thr) * slope_t + dI_{t+1} * beta
        np.multiply(nxt, -p.u_thr, out=tmp)
        tmp += g[t]
        row *= tmp
        row += np.multiply(nxt, p.beta, out=tmp)
    return gi


def _ternary_bptt(g, currents, u, s, p: TernaryParams):
    """Reverse ternary recurrence: dL/dI [T, ...] from dL/dS [T, ...].

    u holds the rescaled membranes U_t; the pre-spike membrane V_t =
    I_t + U_{t-1} is rebuilt from them. U_t = V_t (amp - S_t) + U_reset S_t
    feeds V_{t+1}, so S_t reaches the loss directly and through U_t with
    -V_t and U_reset, and V_t through S_t and through U_t with amp - S_t.
    As in _lif_bptt, the slope's rows become dL/dI_t.
    """
    v = np.empty(u.shape)
    v[0] = currents[0] + 0.0
    np.add(currents[1:], u[:-1], out=v[1:])
    gi = surrogate_grad(v, p.surrogate_alpha, p.amp)
    gi += surrogate_grad(v, p.surrogate_alpha, -p.amp)
    gi *= p.amp
    gi[-1, ...] *= g[-1]
    gs, tmp = np.empty(u.shape[1:]), np.empty(u.shape[1:])
    for t in range(len(u) - 2, -1, -1):
        gu, row = gi[t + 1, ...], gi[t, ...]
        # slope_t * (g_t - dI_{t+1} V_t + dI_{t+1} U_reset) + dI_{t+1} (amp - S_t)
        np.multiply(gu, v[t], out=gs)
        np.subtract(g[t], gs, out=gs)
        gs += np.multiply(gu, p.u_reset, out=tmp)
        row *= gs
        np.subtract(p.amp, s[t], out=tmp)
        tmp *= gu
        row += tmp
    return gi


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

    def run(self, currents, t_steps: int | None = None):
        """Spike trains [T, ...] of one population from rest.

        currents is a [T, ...] stack, or [1, ...] for a drive held constant
        over t_steps. At each t the mode's step (lif_step or ternary_step,
        looked up at each run) writes row t of the spike stack through one
        scratch buffer. A taped run keeps every membrane for the backward;
        an untaped one advances one membrane buffer in place. When currents
        is a Var the result is one tape node whose backward is the mode's
        BPTT, built by autodiff.chain_op over the currents' own node.
        """
        binary = self.mode == "binary"
        step, p = (lif_step, self.lif) if binary else (ternary_step, self.ternary)
        taped = isinstance(currents, Var)
        data = currents.data if taped else np.asarray(currents, dtype=np.float64)
        t_steps = len(data) if t_steps is None else t_steps
        if t_steps < 1 or len(data) != t_steps:
            if t_steps < 1:
                raise ValidationError(f"t_steps must be >= 1, got {t_steps}")
            if len(data) != 1:
                raise ShapeError(f"{len(data)} input steps do not drive {t_steps} time steps")
            data = np.broadcast_to(data, (t_steps,) + data.shape[1:])
        spikes = np.empty(data.shape)
        membranes = np.empty(data.shape if taped else data.shape[1:])
        scratch = np.empty(data.shape[1:])
        s = u = None
        for t in range(t_steps):
            # [t, ...] is a view even when a row is 0-d
            s, u = step(u, s, data[t], p, self.relaxed, spikes[t, ...],
                        membranes[t, ...] if taped else membranes, scratch)
        if not taped:
            return spikes
        if binary:  # the LIF backward reads no currents, so they are not kept
            return autodiff.chain_op(spikes, currents, lambda g: _lif_bptt(g, membranes, p))
        return autodiff.chain_op(
            spikes, currents, lambda g: _ternary_bptt(g, data, membranes, spikes, p))

    def check_spike_counts(self, x, where: str) -> None:
        """ValidationError unless x (an array or a Var) holds sums of this
        neuron's spikes: finite integer multiples of a spike.

        A binary spike is 1, so counts are nonnegative integers. A ternary
        spike is +-amp, so counts are signed integer multiples of amp. A
        relaxed neuron emits surrogate values, which are not checked.
        """
        if self.relaxed:
            return
        d = x.data if isinstance(x, Var) else x
        if not np.isfinite(d).all():
            raise ValidationError(f"{where}: input contains non-finite values")
        if self.mode == "ternary":
            n = d / self.ternary.amp
            if (np.abs(n - np.rint(n)) > 1e-9 * np.maximum(1.0, np.abs(n))).any():
                raise ValidationError(
                    f"{where}: input is not a count of +-{self.ternary.amp} spikes")
        elif (d < 0.0).any() or (d != np.rint(d)).any():
            raise ValidationError(f"{where}: input is not a spike-count tensor")


# -- rate and trace helpers ---------------------------------------------------


def spike_encode(x, t_steps: int, p: LifParams) -> np.ndarray:
    """Encode real values as spike trains: constant-current LIF, T steps.

    Each entry of x drives one LIF neuron from rest; returns spikes of shape
    (t_steps, *x.shape). A non-finite entry is a ValidationError.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValidationError("spike_encode: non-finite input")
    return NeuronSpec(lif=p).run(x[None], t_steps)


def empirical_rate(a: float, t_steps: int, p: LifParams) -> float:
    """Fraction of steps a constant-current LIF neuron fires, from rest."""
    return float(spike_encode(float(a), t_steps, p).mean())


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
