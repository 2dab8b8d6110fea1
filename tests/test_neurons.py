"""Neuron dynamics tests with hand-computed membrane traces."""

import tracemalloc
import weakref

import numpy as np
import pytest

from spikeclm import autodiff as ad
from spikeclm import attention, neurons, numerics
from spikeclm.errors import ConfigError, ShapeError, ValidationError
from spikeclm.neurons import LifParams, NeuronSpec, TernaryParams

from reference import same_bits


class TestLifHandTraces:
    def test_single_strong_input_spikes(self):
        """I=2.0 from rest: U=2.0 >= 1.0, so the neuron fires."""
        p = LifParams(beta=0.5, u_thr=1.0)
        s, u = neurons.lif_step(None, None, np.asarray(2.0), p)
        assert float(s) == 1.0
        assert float(u) == 2.0

    def test_no_decay_half_drive_alternates(self):
        """beta=1, I=0.5: membrane 0.5, 1.0, 0.5, 1.0; spikes 0,1,0,1."""
        p = LifParams(beta=1.0, u_thr=1.0)
        s = u = None
        us, ss = [], []
        for _ in range(4):
            s, u = neurons.lif_step(u, s, np.asarray(0.5), p)
            us.append(float(u))
            ss.append(float(s))
        assert us == [0.5, 1.0, 0.5, 1.0]
        assert ss == [0.0, 1.0, 0.0, 1.0]

    def test_leaky_unit_drive_membrane_trace(self):
        """beta=0.5, I=1.0: membranes 1.0, 0.5, 1.25, 0.625; rate 1/2."""
        p = LifParams(beta=0.5, u_thr=1.0)
        s = u = None
        us = []
        for _ in range(4):
            s, u = neurons.lif_step(u, s, np.asarray(1.0), p)
            us.append(float(u))
        np.testing.assert_allclose(us, [1.0, 0.5, 1.25, 0.625])
        assert neurons.empirical_rate(1.0, 4, p) == 0.5

    def test_subthreshold_decay(self):
        """One weak kick then silence: membrane halves each step, no spikes."""
        p = LifParams(beta=0.5, u_thr=1.0)
        s = u = None
        drives = [0.8, 0.0, 0.0]
        us, ss = [], []
        for d in drives:
            s, u = neurons.lif_step(u, s, np.asarray(d), p)
            us.append(float(u))
            ss.append(float(s))
        np.testing.assert_allclose(us, [0.8, 0.4, 0.2])
        assert ss == [0.0, 0.0, 0.0]

    def test_outputs_exactly_binary(self):
        p = LifParams()
        rng = np.random.default_rng(42)
        s = u = None
        for _ in range(10):
            s, u = neurons.lif_step(u, s, rng.normal(size=(4, 5)) * 3, p)
            assert set(np.unique(s)) <= {0.0, 1.0}


class TestSurrogate:
    def test_midpoint_and_symmetry(self):
        assert neurons.surrogate_forward(0.0, 2.0) == pytest.approx(0.5)
        u = np.linspace(-3, 3, 13)
        f = neurons.surrogate_forward(u, 2.0)
        np.testing.assert_allclose(f + neurons.surrogate_forward(-u, 2.0), 1.0, rtol=1e-12)

    def test_known_value_alpha2(self):
        """At u=1, alpha=2: sigma' = 1/(1+pi^2)."""
        got = neurons.surrogate_grad(1.0, 2.0)
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.pi ** 2), rtol=1e-12)

    def test_grad_bounded_by_half_alpha(self):
        for alpha in (0.5, 2.0, 10.0):
            u = np.linspace(-50, 50, 10001)
            g = neurons.surrogate_grad(u, alpha)
            assert g.max() <= alpha / 2.0 + 1e-12
            assert g.max() == pytest.approx(alpha / 2.0)  # attained at u=0
            assert (g > 0).all()

    def test_forward_monotone_and_saturating(self):
        u = np.linspace(-100, 100, 4001)
        f = neurons.surrogate_forward(u, 2.0)
        assert (np.diff(f) > 0).all()
        assert 0.0 < f.min() and f.max() < 1.0
        assert f[-1] > 0.99 and f[0] < 0.01

    def test_grad_is_derivative_of_forward(self):
        u = np.linspace(-2, 2, 9)
        eps = 1e-6
        fd = (neurons.surrogate_forward(u + eps, 2.0)
              - neurons.surrogate_forward(u - eps, 2.0)) / (2 * eps)
        np.testing.assert_allclose(neurons.surrogate_grad(u, 2.0), fd, rtol=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_overflow_gives_the_limits_silently(self):
        """Past the float range the scaled input and its square become inf;
        the results are the limits, with no overflow warning."""
        u = np.array([1e300, -1e300, 1e308, -1e308])
        np.testing.assert_array_equal(neurons.surrogate_forward(u, 2.0), [1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(neurons.surrogate_grad(u, 2.0), 0.0)
        assert neurons.surrogate_grad(0.0, 2.0, shift=1e300) == 0.0
        assert neurons.surrogate_forward(-1e308, 10.0) == 0.0


class TestTernary:
    def test_positive_spike_resets(self):
        """U=2, amp=1, reset=0: S=+1 and membrane rescales to 0."""
        p = TernaryParams(amp=1.0, u_reset=0.0)
        s, u = neurons.ternary_step(None, None, np.asarray(2.0), p)
        assert float(s) == 1.0
        assert float(u) == 0.0

    def test_three_levels(self):
        p = TernaryParams(amp=1.0)
        u = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        s, _ = neurons.ternary_step(None, None, u, p)
        np.testing.assert_array_equal(s, [-1.0, 0.0, 0.0, 0.0, 1.0])

    def test_amplitude_scales_output(self):
        p = TernaryParams(amp=0.5)
        s, u = neurons.ternary_step(None, None, np.asarray(3.0), p)
        assert float(s) == 0.5
        # U <- U*(amp - S) + 0 = 3 * 0 = 0
        assert float(u) == 0.0

    def test_silent_band_keeps_membrane(self):
        """|U| <= amp emits nothing and the membrane scales by amp."""
        p = TernaryParams(amp=1.0)
        s, u = neurons.ternary_step(None, None, np.asarray(0.6), p)
        assert float(s) == 0.0
        assert float(u) == pytest.approx(0.6)

    def test_reset_blend(self):
        p = TernaryParams(amp=1.0, u_reset=0.25)
        _, u = neurons.ternary_step(None, None, np.asarray(2.0), p)
        assert float(u) == pytest.approx(0.25)

    def test_outputs_in_three_point_set(self):
        p = TernaryParams(amp=1.0)
        rng = np.random.default_rng(1)
        s = u = None
        for _ in range(8):
            s, u = neurons.ternary_step(u, s, rng.normal(size=(3, 3)) * 2, p)
            assert set(np.unique(s)) <= {-1.0, 0.0, 1.0}


class TestRelaxedModeAndGradients:
    def test_relaxed_forward_is_surrogate(self):
        p = LifParams(beta=0.5, u_thr=1.0, surrogate_alpha=2.0)
        s, _ = neurons.lif_step(None, None, np.asarray(2.0), p, relaxed=True)
        np.testing.assert_allclose(float(s), neurons.surrogate_forward(1.0, 2.0))

    def test_untaped_spikes_match_taped(self):
        """Plain arrays skip the tape and give the same spikes as a taped run."""
        u = np.array([-2.5, -1.0, 0.3, 1.0, 1.5])
        for step, spec in ((neurons.lif_step, NeuronSpec("binary")),
                           (neurons.ternary_step, NeuronSpec("ternary"))):
            p = spec.lif if spec.mode == "binary" else spec.ternary
            s, _ = step(None, None, u, p)
            sv = spec.run(ad.Var(u[None].copy()))
            assert type(s) is np.ndarray
            assert ad.is_var(sv)
            np.testing.assert_array_equal(s, sv.data[0])


def generic_lif_step(u, s_prev, input_current, p, relaxed=False):
    """lif_step as generic tape ops with a surrogate spike node: the reference."""
    u, s_prev = (0.0 if a is None else a for a in (u, s_prev))  # rest: float zeros
    u = input_current + p.beta * u - s_prev * p.u_thr
    ud = ad.value(u)
    local = neurons.surrogate_grad(ud - p.u_thr, p.surrogate_alpha)
    if relaxed:
        spikes = neurons.surrogate_forward(ud - p.u_thr, p.surrogate_alpha)
    else:
        spikes = (ud >= p.u_thr).astype(np.float64)
    s = ad.custom_op(spikes, (u, lambda g: g * local))
    return s, u


def generic_ternary_step(u, s_prev, input_current, p, relaxed=False):
    """ternary_step as generic tape ops; the spike slope sums both band edges."""
    u = input_current + (0.0 if u is None else u)
    ud = ad.value(u)
    local = p.amp * (neurons.surrogate_grad(ud - p.amp, p.surrogate_alpha)
                     + neurons.surrogate_grad(ud + p.amp, p.surrogate_alpha))
    if relaxed:
        spikes = p.amp * (neurons.surrogate_forward(ud - p.amp, p.surrogate_alpha)
                          + neurons.surrogate_forward(ud + p.amp, p.surrogate_alpha) - 1.0)
    else:
        spikes = ((ud > p.amp).astype(np.float64) - (ud < -p.amp)) * p.amp
    s = ad.custom_op(spikes, (u, lambda g: g * local))
    return s, u * (p.amp - s) + p.u_reset * s


CHAIN_INPUTS = (np.array([0.9, 1.6, -0.4, 2.5, -1.3]),
                np.array([0.7, -1.2, 1.1, 0.2, -0.6]),
                np.array([1.3, 0.4, -2.2, 0.8, 1.9]))


def run_chain(step, p, relaxed, taped):
    """Three steps from rest; the inputs at `taped` are Vars.

    Returns the taped inputs and every step's spikes and membrane. When an
    input is taped, a loss that weights each output is run backward.
    """
    w = np.array([0.5, -1.0, 2.0, 0.25, -1.5])
    inputs = [ad.Var(x.copy()) if t in taped else x.copy()
              for t, x in enumerate(CHAIN_INPUTS)]
    s = u = None
    loss, outs = 0.0, []
    for t, x in enumerate(inputs):
        s, u = step(u, s, x, p, relaxed)
        outs += [s, u]
        loss = loss + (s * w).sum() * (t + 1.0) + (u * w).sum()
    if taped:
        loss.backward()
    return [x for x in inputs if ad.is_var(x)], outs


class TestFusedSteps:
    """The plain fused steps against the generic-op expressions that serve as
    the runner's gradient reference."""

    @pytest.mark.parametrize("taped", [(0, 1, 2), (0, 2), (1,)])
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("fused,generic,p", [
        (neurons.lif_step, generic_lif_step, LifParams(beta=0.5, u_thr=1.0)),
        (neurons.lif_step, generic_lif_step, LifParams(beta=0.9, u_thr=0.7)),
        (neurons.ternary_step, generic_ternary_step, TernaryParams()),
        (neurons.ternary_step, generic_ternary_step, TernaryParams(amp=0.5)),
        (neurons.ternary_step, generic_ternary_step, TernaryParams(amp=1.0, u_reset=0.25)),
        (neurons.ternary_step, generic_ternary_step, TernaryParams(amp=0.5, u_reset=-0.3)),
    ])
    def test_bit_identical_to_generic_ops(self, fused, generic, p, relaxed, taped):
        """Every spike and membrane of the plain step equals the taped
        reference's value bit for bit, and the reference's gradient reaches
        each taped input."""
        _, got = run_chain(fused, p, relaxed, ())
        want_in, want = run_chain(generic, p, relaxed, taped)
        assert all(type(g) is np.ndarray for g in got)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, ad.value(w))
        assert len(want_in) == len(taped)
        for v in want_in:
            assert np.any(v.grad != 0.0)


class TestRestStep:
    """A step from rest (None) skips the decay and reset terms of the
    carried zeros; it must still give what the full expressions give, bit
    for bit (same_bits tells -0.0 from 0.0)."""

    INPUTS = np.array([-0.0, 0.0, 1.0, -1.0, 0.5, -0.7, 2.5, 0.9999999999999999, 1e6])

    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("fused,generic,p", [
        (neurons.lif_step, generic_lif_step, LifParams(beta=0.5, u_thr=1.0)),
        (neurons.lif_step, generic_lif_step, LifParams(beta=0.0, u_thr=0.7)),
        (neurons.ternary_step, generic_ternary_step, TernaryParams(amp=1.0)),
        (neurons.ternary_step, generic_ternary_step, TernaryParams(amp=0.5, u_reset=-0.3)),
    ])
    def test_rest_step_bit_identical_to_generic(self, fused, generic, p, relaxed):
        s, u = fused(None, None, self.INPUTS.copy(), p, relaxed)
        want_s, want_u = generic(None, None, self.INPUTS.copy(), p, relaxed)
        assert same_bits(s, want_s)
        assert same_bits(u, want_u)

    def test_rest_membrane_drops_the_sign_of_zero(self):
        """-0.0 + beta * 0 - 0 * U_thr is +0.0, and so is the rest step's -0.0 + 0.0."""
        _, u = neurons.lif_step(None, None, np.array([-0.0]), LifParams())
        assert not np.signbit(u[0])

    def test_carried_zero_arrays_take_the_full_update(self):
        """Zeros held in arrays are a state like any other, with the same result."""
        p = LifParams(beta=0.5, u_thr=1.0)
        zeros = np.zeros(len(self.INPUTS))
        s, u = neurons.lif_step(zeros, zeros.copy(), self.INPUTS.copy(), p)
        want_s, want_u = generic_lif_step(zeros, zeros, self.INPUTS.copy(), p)
        assert same_bits(s, want_s)
        assert same_bits(u, want_u)
        rest_s, rest_u = neurons.lif_step(None, None, self.INPUTS.copy(), p)
        assert same_bits(s, rest_s)
        assert same_bits(u, rest_u)


def chained_reference(step, p, relaxed, currents, t_steps):
    """The runner's oracle: step chained over t from rest, one call per step.

    currents is [T, ...] or [1, ...] (held constant); when it is a Var each
    step reads its row through the tape. Returns the spike and membrane
    lists.
    """
    s = u = None
    spikes, membranes = [], []
    for t in range(t_steps):
        row = currents[t if currents.shape[0] > 1 else 0]
        s, u = step(u, s, row, p, relaxed)
        spikes.append(s)
        membranes.append(u)
    return spikes, membranes


RUNNER_SPECS = [
    NeuronSpec("binary", lif=LifParams(beta=0.5, u_thr=1.0)),
    NeuronSpec("binary", lif=LifParams(beta=0.9, u_thr=0.7)),
    NeuronSpec("ternary", ternary=TernaryParams(amp=1.0, u_reset=0.0)),
    NeuronSpec("ternary", ternary=TernaryParams(amp=1.0, u_reset=0.25)),
    NeuronSpec("ternary", ternary=TernaryParams(amp=0.5, u_reset=-0.3)),
]


class TestRunner:
    """NeuronSpec.run against steps chained over t.

    The forward is checked against lif_step/ternary_step, the gradient
    against their generic-op tape expressions.
    """

    @staticmethod
    def currents(t_steps, constant):
        rng = np.random.default_rng(20 + t_steps)
        return rng.normal(size=(1 if constant else t_steps, 3, 4)) * 1.5

    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("t_steps", [1, 2, 3])
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("spec", RUNNER_SPECS)
    def test_forward_matches_chained_steps(self, spec, relaxed, t_steps, constant,
                                           monkeypatch):
        spec = NeuronSpec(spec.mode, spec.lif, spec.ternary, relaxed)
        step = neurons.lif_step if spec.mode == "binary" else neurons.ternary_step
        p = spec.lif if spec.mode == "binary" else spec.ternary
        x = self.currents(t_steps, constant)
        want_s, want_u = chained_reference(step, p, relaxed, x, t_steps)
        seen = []

        def recording_step(*args):
            s, u = step(*args)
            seen.append(u.copy())  # an untaped run reuses one membrane buffer
            return s, u
        monkeypatch.setattr(neurons, step.__name__, recording_step)
        got = spec.run(x, t_steps)
        assert type(got) is np.ndarray and got.shape == (t_steps, 3, 4)
        np.testing.assert_array_equal(got, np.stack(want_s))
        np.testing.assert_array_equal(np.stack(seen), np.stack(want_u))
        monkeypatch.undo()
        taped = spec.run(ad.Var(x), t_steps)
        np.testing.assert_array_equal(taped.data, got)

    @pytest.mark.parametrize("constant", [False, True])
    @pytest.mark.parametrize("t_steps", [1, 2, 3])
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("spec", RUNNER_SPECS)
    def test_input_gradient_matches_chained_steps(self, spec, relaxed, t_steps, constant):
        spec = NeuronSpec(spec.mode, spec.lif, spec.ternary, relaxed)
        step = generic_lif_step if spec.mode == "binary" else generic_ternary_step
        p = spec.lif if spec.mode == "binary" else spec.ternary
        x = self.currents(t_steps, constant)
        weights = np.random.default_rng(7).normal(size=(t_steps, 3, 4))

        ref_in = ad.Var(x.copy())
        spikes, _ = chained_reference(step, p, relaxed, ref_in, t_steps)
        loss = 0.0
        for t, s in enumerate(spikes):
            loss = loss + (s * weights[t]).sum()
        loss.backward()

        got_in = ad.Var(x.copy())
        (spec.run(got_in, t_steps) * weights).sum().backward()
        assert np.any(ref_in.grad != 0.0)
        np.testing.assert_allclose(got_in.grad, ref_in.grad, rtol=1e-12, atol=0.0)

    def test_relaxed_gradient_matches_finite_differences(self):
        """Three relaxed steps, driven per step or by one constant [1, ...] row."""
        for spec in (NeuronSpec("binary", relaxed=True),
                     NeuronSpec("ternary", ternary=TernaryParams(u_reset=0.25), relaxed=True)):
            for x0 in (self.currents(3, False), self.currents(3, True)):

                def f(x):
                    out = spec.run(x, 3)
                    return (out * out).sum()
                v = ad.Var(x0.copy())
                f(v).backward()
                fd = numerics.finite_diff_grad(lambda z: float(f(z)), x0)
                np.testing.assert_allclose(v.grad, fd, rtol=1e-5, atol=1e-8)

    def test_hard_spike_backward_uses_surrogate(self):
        spec = NeuronSpec(lif=LifParams(beta=0.5, u_thr=1.0, surrogate_alpha=2.0))
        x = ad.Var(np.array([[0.3, 1.5]]))
        s = spec.run(x)
        np.testing.assert_array_equal(s.data, [[0.0, 1.0]])
        s.sum().backward()
        np.testing.assert_allclose(
            x.grad, neurons.surrogate_grad(np.array([[0.3, 1.5]]) - 1.0, 2.0))

    def test_decay_and_reset_paths_carry_gradient(self):
        """The first step's input reaches S_1 only through U_0 and S_0."""
        p = LifParams(beta=0.5, u_thr=1.0)
        x = ad.Var(np.array([[1.2, 0.9], [0.0, 0.0]]))
        NeuronSpec(lif=p).run(x)[1].sum().backward()
        s0 = np.array([1.0, 0.0])
        dsurr = neurons.surrogate_grad(np.array([1.2, 0.9]) - 1.0, 2.0)
        u1 = 0.5 * np.array([1.2, 0.9]) - s0
        # dL/du1 = sigma'(u1 - 1); u1 = beta*u0 - thr*s0; s0 = H(u0 - 1)
        dl_du1 = neurons.surrogate_grad(u1 - 1.0, 2.0)
        np.testing.assert_allclose(x.grad[0], dl_du1 * (0.5 - dsurr), rtol=1e-12)
        np.testing.assert_allclose(x.grad[1], dl_du1, rtol=1e-12)

    def test_taped_run_is_one_tape_node(self, monkeypatch):
        made = []
        init = ad.Var.__init__

        def counting_init(self, *args, **kw):
            made.append(self)
            init(self, *args, **kw)

        x = ad.Var(self.currents(3, False))
        monkeypatch.setattr(ad.Var, "__init__", counting_init)
        out = NeuronSpec("ternary").run(x)
        assert made == [out] and out._parents == (x,)

    @pytest.mark.parametrize("t_steps", [4, 8])
    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    def test_steps_write_in_place(self, mode, taped, t_steps):
        """Peak memory is the spike stack, the membrane stack when taped, and
        two step-sized buffers at most (the one untaped membrane and
        scratch), whatever T is: no per-step temporaries."""
        row = 1 << 17  # entries per step, 1 MiB of float64
        x = np.random.default_rng(t_steps).normal(size=(t_steps, row))
        x = ad.Var(x) if taped else x
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            NeuronSpec(mode).run(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        stacks = t_steps * (2 if taped else 1)
        assert peak <= (stacks + 2) * row * 8 + 65536

    @pytest.mark.parametrize("mode,full", [("binary", 1), ("ternary", 3)])
    def test_backward_writes_in_place(self, mode, full):
        """The backward's peak is its output, which first holds the surrogate
        slope, plus a few step rows, whatever T is. The ternary one also
        rebuilds the pre-spike membranes from the currents and adds a second
        surrogate term; the LIF one reads the membranes alone."""
        t_steps, row = 8, 1 << 16
        rng = np.random.default_rng(3)
        g, currents, u = (rng.normal(size=(t_steps, row)) for _ in range(3))
        s = (rng.random((t_steps, row)) < 0.3).astype(np.float64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            if mode == "binary":
                gi = neurons._lif_bptt(g, u, LifParams())
            else:
                gi = neurons._ternary_bptt(g, currents, u, s, TernaryParams(u_reset=0.25))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert gi.shape == (t_steps, row)
        assert peak <= (full * t_steps + 3) * row * 8 + 65536

    def test_step_count_checked(self):
        with pytest.raises(ShapeError, match="2 input steps"):
            NeuronSpec().run(np.zeros((2, 3)), 3)
        with pytest.raises(ValidationError, match="t_steps must be >= 1"):
            NeuronSpec().run(np.zeros((1, 3)), 0)


PRODUCERS = {
    "linear": lambda a, b: ad.linear(a, b, np.full(4, 0.1)),
    "scores": lambda a, b: attention._scores(a, b, None),
    "matmul": ad.matmul,
}


class TestTakeOver:
    """A taped population takes over the node that made its current."""

    @staticmethod
    def operands():
        rng = np.random.default_rng(31)
        return (ad.Var(rng.normal(size=(3, 2, 4))),
                ad.Var(rng.normal(size=(4, 4))))

    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    def test_only_ternary_runs_keep_the_current(self, mode, producer):
        a, b = self.operands()
        current = PRODUCERS[producer](a, b)
        alive = weakref.ref(current.data)
        out = NeuronSpec(mode).run(current)
        assert out._parents == current._parents == (a, b)
        del current
        assert (alive() is not None) == (mode == "ternary")
        out.sum().backward()
        assert np.count_nonzero(a.grad) and np.count_nonzero(b.grad)

    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    @pytest.mark.parametrize("spec", RUNNER_SPECS)
    def test_gradients_match_the_two_node_chain(self, spec, producer):
        """Bit for bit: the population's dL/dI fed to the producer's own node."""
        seed = np.random.default_rng(32).normal(size=(3, 2, 4))
        a, b = self.operands()
        spec.run(PRODUCERS[producer](a, b)).backward(seed)
        ra, rb = self.operands()
        current = PRODUCERS[producer](ra, rb)
        leaf = ad.Var(current.data.copy())
        spec.run(leaf).backward(seed)
        current.backward(leaf.grad)
        assert np.count_nonzero(leaf.grad)
        assert same_bits(a.grad, ra.grad)
        assert same_bits(b.grad, rb.grad)

    def test_constant_drive_takes_over_its_producer(self):
        """A [1, ...] current held over t_steps gets its gradient summed over t."""
        a, b = self.operands()
        seed = np.random.default_rng(33).normal(size=(3, 1, 2, 4))
        NeuronSpec().run((a @ b)[None], 3).backward(seed)
        leaf = ad.Var((a.data @ b.data)[None])
        NeuronSpec().run(leaf, 3).backward(seed)
        ra, rb = self.operands()
        (ra @ rb).backward(leaf.grad[0])
        assert same_bits(a.grad, ra.grad)
        assert same_bits(b.grad, rb.grad)


class TestRatesAndTraces:
    def test_constant_drive_matches_stepwise(self):
        p = LifParams(beta=0.5, u_thr=1.0)
        a = np.array([[0.3, 1.0], [2.5, 0.9]])
        got = neurons.spike_encode(a, 6, p)
        s = u = None
        for t in range(6):
            s, u = neurons.lif_step(u, s, a, p)
            np.testing.assert_array_equal(got[t], s)

    def test_rate_extremes(self):
        p = LifParams(beta=0.5, u_thr=1.0)
        assert neurons.empirical_rate(0.0, 64, p) == 0.0
        assert neurons.empirical_rate(10.0, 64, p) == 1.0
        for drive in (np.nan, np.inf, -np.inf):  # no rate for a non-finite drive
            with pytest.raises(ValidationError, match="non-finite input"):
                neurons.empirical_rate(drive, 64, p)

    def test_rate_monotone_in_drive(self):
        p = LifParams(beta=0.5, u_thr=1.0)
        rates = [neurons.empirical_rate(a, 256, p) for a in np.linspace(0, 2, 17)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[0] == 0.0 and rates[-1] == 1.0

    def test_rate_needs_positive_steps(self):
        with pytest.raises(ValidationError):
            neurons.spike_encode(np.asarray(1.0), 0, LifParams())

    def test_eligibility_hand_trace(self):
        """X=(1,1,1), beta=0.5 gives e=(1, 1.5, 1.75)."""
        e = neurons.eligibility_trace([np.asarray(1.0)] * 3, 0.5)
        np.testing.assert_allclose([float(v) for v in e], [1.0, 1.5, 1.75])

    def test_eligibility_beta_zero_is_identity(self):
        xs = [np.array([1.0, -2.0]), np.array([0.5, 0.5])]
        e = neurons.eligibility_trace(xs, 0.0)
        for a, b in zip(e, xs):
            np.testing.assert_array_equal(a, b)

    def test_eligibility_bound(self):
        """With |X| <= M the trace never exceeds M / (1 - beta)."""
        rng = np.random.default_rng(9)
        for beta in (0.3, 0.5, 0.9):
            xs = list(rng.uniform(-1, 1, size=(200, 4)))
            e = neurons.eligibility_trace(xs, beta)
            bound = 1.0 / (1.0 - beta)
            assert max(np.abs(v).max() for v in e) <= bound + 1e-12

    def test_eligibility_bad_beta(self):
        with pytest.raises(ConfigError):
            neurons.eligibility_trace([np.ones(2)], 1.5)


class TestNeuronSpec:
    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            NeuronSpec(mode="analog").validate()
        NeuronSpec(mode="ternary").validate()

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            LifParams(beta=1.5).validate()
        with pytest.raises(ConfigError):
            LifParams(u_thr=0.0).validate()
        with pytest.raises(ConfigError):
            TernaryParams(amp=-1.0).validate()
