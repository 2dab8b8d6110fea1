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
step, writing into buffers they are given. From rest (the float zeros of
NeuronState()) the LIF update is the single op I + 0.0, which is what
I + beta * 0 - 0 * U_thr computes, -0.0 included. A network runs each
neuron population over all T steps at once through NeuronSpec.run: its
forward loops the step function over t into the rows of its [T, ...]
output. Untaped, one membrane buffer advances in place over t; on the tape
the run keeps every membrane and is the population's one node, whose
backward runs the BPTT recurrence in reverse over t (Neftci, Mostafa &
Zenke 2019), through the input, decay, reset and surrogate paths. That
backward writes dL/dI over the surrogate slope, row by row.

A taped population takes over the node that produced its current (a
linear map, attention scores or a matmul; autodiff.chain_op): it inherits
that node's parents, and its backward hands dL/dI straight to that node's
VJP. The tape then keeps no [T, ...] current, and the current is freed
when the forward returns, since the LIF backward reads only the membranes
and spikes. The ternary backward rebuilds the pre-spike membranes from the
currents, so a ternary run keeps them in its closure.
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


@dataclass
class NeuronState:
    """Carried state of one neuron population (membrane and last spike).

    The defaults are the fresh state: zero membrane, no prior spike, which
    broadcast against any input shape.
    """

    u: object = 0.0
    s_prev: object = 0.0


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


# The fresh state. Its float zeros are the objects every NeuronState() holds,
# so `state.u is _REST.u` recognises a step from rest without a comparison.
_REST = NeuronState()


def _buffers(state: NeuronState, input_current, s_out, u_out, scratch):
    """The step's output and scratch arrays: those given, fresh ones for the rest."""
    shape = np.broadcast_shapes(np.shape(input_current), np.shape(state.u),
                                np.shape(state.s_prev))
    return tuple(np.empty(shape) if b is None else b for b in (s_out, u_out, scratch))


def lif_step(state: NeuronState, input_current, p: LifParams, relaxed: bool = False,
             s_out=None, u_out=None, scratch=None):
    """One LIF update on plain arrays. Returns (spikes, new_state).

    The spikes and the new membrane are written to s_out and u_out, and
    scratch holds a temporary; each is a fresh array when not given. u_out
    may be the carried membrane state.u, which then advances in place;
    scratch must share memory with nothing else. From rest the update is
    I + 0.0, which is what I + beta * 0 - 0 * U_thr computes, -0.0 included.
    """
    if s_out is None or u_out is None or scratch is None:
        s_out, u_out, scratch = _buffers(state, input_current, s_out, u_out, scratch)
    if state.u is _REST.u and state.s_prev is _REST.s_prev:
        np.add(input_current, 0.0, out=u_out)
    else:
        # i + beta * U_prev - S_prev * U_thr
        np.add(input_current, np.multiply(state.u, p.beta, out=scratch), out=u_out)
        u_out -= np.multiply(state.s_prev, p.u_thr, out=scratch)
    if relaxed:  # the surrogate stands in for the threshold
        s_out[...] = surrogate_forward(u_out - p.u_thr, p.surrogate_alpha)
    else:
        np.greater_equal(u_out, p.u_thr, out=s_out)
    return s_out, NeuronState(u_out, s_out)


def ternary_step(state: NeuronState, input_current, p: TernaryParams, relaxed: bool = False,
                 s_out=None, u_out=None, scratch=None):
    """One ternary update on plain arrays. Returns (spikes, new_state).

    The input integrates onto the carried membrane, the spike is read out,
    and the membrane is rescaled by (amp - S) with U_reset blended in. The
    buffers are those of lif_step.
    """
    if s_out is None or u_out is None or scratch is None:
        s_out, u_out, scratch = _buffers(state, input_current, s_out, u_out, scratch)
    np.add(input_current, state.u, out=u_out)
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
    return s_out, NeuronState(u_out, s_out)


# -- multi-step runner ---------------------------------------------------------


def _lif_bptt(g, currents, u, s, p: LifParams):
    """Reverse LIF recurrence: dL/dI [T, ...] from dL/dS [T, ...].

    u and s are the forward membranes and spikes. S_t reaches the loss
    directly and through U_{t+1} (-U_thr); U_t through S_t (the surrogate
    slope) and through U_{t+1} (beta). Row t of the slope is overwritten
    with dL/dI_t once it is read, through one step-sized temporary.
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


def _run_population(step, bptt, currents, p, relaxed: bool = False, t_steps: int | None = None):
    """Spike trains [T, ...] of one neuron population from rest.

    currents is a [T, ...] stack, or [1, ...] for a drive held constant
    over t_steps. The forward calls step at each t on plain arrays, which
    writes row t of the spike stack through one scratch buffer. A taped run
    keeps every membrane in a [T, ...] stack for the backward; an untaped
    one advances a single membrane buffer in place, so the states a step
    returns are overwritten by the next. When currents is a Var the result
    is one tape node whose backward is bptt, built by autodiff.chain_op
    over the node that produced the currents.
    """
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
    state = _REST
    for t in range(t_steps):
        # [t, ...] is a view even when a row is 0-d
        u_out = membranes[t, ...] if taped else membranes
        _, state = step(state, data[t], p, relaxed, spikes[t, ...], u_out, scratch)
    if not taped:
        return spikes
    kept = data if bptt is _ternary_bptt else None  # only it reads the currents
    return autodiff.chain_op(
        spikes, currents, lambda g: bptt(g, kept, membranes, spikes, p))


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
        """Spikes [T, ...] of a population from rest; see _run_population."""
        if self.mode == "binary":
            return _run_population(lif_step, _lif_bptt, currents, self.lif,
                                   self.relaxed, t_steps)
        return _run_population(ternary_step, _ternary_bptt, currents, self.ternary,
                               self.relaxed, t_steps)

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
    return NeuronSpec(lif=p).run(np.asarray(a, dtype=np.float64)[None], t_steps)


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
