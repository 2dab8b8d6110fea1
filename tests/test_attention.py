"""Attention block tests: the causal mask, spike algebra, causality, gradients.

Both blocks build their own causal mask and take batched inputs only:
sfsa_forward a [T, B, L, d] stack, csa_forward a [B, L, d] batch.
"""

import re

import numpy as np
import pytest

from spikeclm import attention, autodiff as ad, numerics
from spikeclm.attention import ATTN_NAMES, causal_mask, csa_forward, sfsa_forward
from spikeclm.errors import ConfigError, ShapeError, ValidationError
from spikeclm.neurons import LifParams, NeuronSpec, TernaryParams

from reference import same_bits


def out_attn(pops):
    """The output and score spikes of sfsa_forward's populations."""
    return pops["out"], pops["attn"]


def identity_weights(d):
    """Identity projections and zero biases, keyed by ATTN_NAMES."""
    return {name: np.eye(d) if name.startswith("w") else np.zeros(d) for name in ATTN_NAMES}


def random_weights(d, seed=0, std=0.5):
    """N(0, std) projections and biases keyed by ATTN_NAMES, drawn in that order."""
    r = numerics.Rng(seed)
    return {name: r.normal((d, d) if name.startswith("w") else (d,), std=std)
            for name in ATTN_NAMES}


def spec(beta=0.5, thr=1.0, relaxed=False):
    return NeuronSpec(mode="binary", lif=LifParams(beta=beta, u_thr=thr), relaxed=relaxed)


class TestCausalMask:
    def test_small_masks(self):
        np.testing.assert_array_equal(causal_mask(1), [[1.0]])
        np.testing.assert_array_equal(causal_mask(3),
                                      [[1, 0, 0], [1, 1, 0], [1, 1, 1]])

    def test_bad_args(self):
        with pytest.raises(ShapeError):
            causal_mask(0)
        with pytest.raises(ShapeError):
            causal_mask(2, offset=-1)

    def test_offset_gives_last_rows_of_full_mask(self):
        np.testing.assert_array_equal(causal_mask(2, offset=3), causal_mask(5)[3:])


class TestSfsaHandTrace:
    def test_identity_projection_trace(self):
        """Tiny block worked through by hand, one time step."""
        x = np.array([[[[1.0, 0.0], [1.0, 1.0]]]])
        out, attn = out_attn(sfsa_forward(x, identity_weights(2), spec(), spec(), 1))
        # q=k=v=x spike unchanged; scores [[1,1],[1,2]] masked to [[1,0],[1,2]]
        np.testing.assert_array_equal(attn[0, 0], [[[1, 0], [1, 1]]])
        np.testing.assert_array_equal(out[0, 0], [[1, 0], [1, 1]])

    def test_zero_input_zero_output(self):
        x = np.zeros((1, 1, 3, 4))
        out, attn = out_attn(sfsa_forward(x, random_weights(4, std=0.0), spec(), spec(), 2))
        np.testing.assert_array_equal(out[0, 0], np.zeros((3, 4)))
        np.testing.assert_array_equal(attn[0, 0], np.zeros((2, 3, 3)))


class TestSfsaProperties:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def random_spikes(self, shape):
        return (self.rng.random(shape) < 0.4).astype(np.float64)

    def test_all_stage_outputs_binary(self):
        """Outputs and attention spikes stay in {0,1} over carried steps."""
        w = random_weights(8, seed=1, std=1.0)
        x = self.random_spikes((4, 1, 5, 8))
        out, attn = out_attn(sfsa_forward(x, w, spec(), spec(), 2))
        assert out.shape == (4, 1, 5, 8) and attn.shape == (4, 1, 2, 5, 5)
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert set(np.unique(attn)) <= {0.0, 1.0}

    def test_integer_scores_bounded_by_head_dim(self):
        """Binary q/k spikes give integer scores in [0, d_head]."""
        d, h = 8, 2
        x = self.random_spikes((6, d))
        sq = attention._split_heads(x.reshape(1, 6, d), h)
        scores = sq @ sq.swapaxes(-1, -2)
        assert np.all(scores == np.round(scores))
        assert scores.min() >= 0 and scores.max() <= d // h

    def test_causality_probe(self):
        """Perturbing position j leaves outputs at positions < j unchanged."""
        w = random_weights(4, seed=3, std=1.0)
        x = np.stack([self.random_spikes((5, 4))] * 3)[:, None]
        x2 = x.copy()
        x2[:, :, 4] = 1.0 - x2[:, :, 4]
        o1, a1 = out_attn(sfsa_forward(x, w, spec(), spec(), 2))
        o2, a2 = out_attn(sfsa_forward(x2, w, spec(), spec(), 2))
        np.testing.assert_array_equal(o1[:, :, :4], o2[:, :, :4])
        np.testing.assert_array_equal(a1[..., :4, :], a2[..., :4, :])

    def test_batched_matches_per_sequence(self):
        w = random_weights(4, seed=5, std=1.0)
        xb = self.random_spikes((2, 3, 5, 4))
        outs = []
        for i in range(3):
            o = sfsa_forward(xb[:, i:i + 1], w, spec(), spec(), 2)["out"]
            outs.append(o)
        ob = sfsa_forward(xb, w, spec(), spec(), 2)["out"]
        np.testing.assert_array_equal(ob, np.concatenate(outs, axis=1))

    def test_integer_residual_counts_accepted(self):
        """Spike sums from residual paths (small ints) are valid inputs."""
        x = np.array([[[[2.0, 0.0], [1.0, 3.0]]]])
        out = sfsa_forward(x, identity_weights(2), spec(), spec(), 1)["out"]
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_non_spike_input_rejected(self):
        bad = np.full((1, 1, 2, 2), 0.5)
        with pytest.raises(ValidationError):
            sfsa_forward(bad, identity_weights(2), spec(), spec(), 1)
        neg = np.array([[[[-1.0, 0.0], [0.0, 0.0]]]])
        with pytest.raises(ValidationError):
            sfsa_forward(neg, identity_weights(2), spec(), spec(), 1)
        # every step of the stack is checked, not only the first
        late = np.concatenate([np.zeros_like(neg), neg])
        with pytest.raises(ValidationError):
            sfsa_forward(late, identity_weights(2), spec(), spec(), 1)

    def test_input_rank_checked(self):
        with pytest.raises(ShapeError, match=r"\[T, B, L, d\]"):
            sfsa_forward(np.zeros((2, 4)), random_weights(4), spec(), spec(), 2)

    def test_empty_sequence_reaches_causal_mask_check(self):
        with pytest.raises(ShapeError, match="seq_len must be >= 1"):
            sfsa_forward(np.zeros((1, 1, 0, 4)), random_weights(4), spec(), spec(), 2)
        with pytest.raises(ShapeError, match="seq_len must be >= 1"):
            csa_forward(np.zeros((1, 0, 4)), random_weights(4), 2)

    def test_bad_heads(self):
        x = np.zeros((1, 1, 2, 4))
        with pytest.raises(ConfigError):
            sfsa_forward(x, random_weights(4), spec(), spec(), 3)

    def test_ternary_spike_counts_accepted(self):
        """Ternary spikes are +-amp, so sums are signed multiples of amp."""
        amp = 0.3
        sn = NeuronSpec(mode="ternary", ternary=TernaryParams(amp=amp))
        x = np.array([[[[amp + amp + amp, -amp], [0.0, -amp - amp]]]])
        out = sfsa_forward(x, random_weights(2, std=1.0), sn, sn, 1)["out"]
        assert set(np.unique(out)) <= {-amp, 0.0, amp}
        with pytest.raises(ValidationError, match="not a count of"):
            sfsa_forward(x + 0.1, random_weights(2), sn, sn, 1)

    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused(self, mode, bad):
        """A non-finite entry anywhere in the stack is refused, and named as
        such before any count rule sees it."""
        sn = NeuronSpec(mode=mode)
        x = np.ones((2, 1, 2, 2))
        x[1, 0, 1, 0] = bad
        with pytest.raises(ValidationError,
                           match="^sfsa_forward: input contains non-finite values$"):
            sfsa_forward(x, identity_weights(2), sn, sn, 1)

    @pytest.mark.parametrize("bad,message", [
        ({"w_q": (4, 3)}, "w_q must be [4, 4], got [4, 3]"),
        ({"b_out": (3,)}, "b_out must be [4], got [3]"),
        ({"b_q": (3,), "w_out": (4,)}, "w_out must be [4, 4], got [4]")])
    def test_weight_shape_validation(self, bad, message):
        """Each misshapen tensor is named, the weights checked before the biases."""
        w = random_weights(4)
        w.update((name, np.zeros(shape)) for name, shape in bad.items())
        with pytest.raises(ShapeError, match=re.escape(message)):
            sfsa_forward(np.zeros((1, 1, 2, 4)), w, spec(), spec(), 2)


class TestCsa:
    def test_rows_sum_to_one_and_causal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 6, 8))
        out, attn = csa_forward(x, random_weights(8, seed=2, std=0.3), 2)
        np.testing.assert_allclose(attn.sum(axis=-1), np.ones((1, 2, 6)), rtol=1e-12)
        assert np.all(attn * (1 - causal_mask(6)) == 0)
        assert out.shape == (1, 6, 8)

    def test_uniform_attention_with_zero_weights(self):
        """Zero q/k projections make each row uniform over its visible prefix."""
        x = np.random.default_rng(1).normal(size=(1, 4, 4))
        w = identity_weights(4)
        w["w_q"] = np.zeros((4, 4))
        w["w_k"] = np.zeros((4, 4))
        _, attn = csa_forward(x, w, 1)
        for i in range(4):
            np.testing.assert_allclose(attn[0, 0, i, :i + 1], 1.0 / (i + 1), rtol=1e-12)

    def test_taped_csa_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 3, 4))
        w0 = rng.normal(size=(4, 4)) * 0.5

        def f(wq):
            w = identity_weights(4)
            w["w_q"] = wq
            out, _ = csa_forward(x, w, 2)
            return (out ** 2).sum() if isinstance(out, ad.Var) else float((out ** 2).sum())

        v = ad.Var(w0.copy())
        f(v).backward()
        fd = numerics.finite_diff_grad(lambda z: float(f(z)), w0)
        np.testing.assert_allclose(v.grad, fd, rtol=1e-4, atol=1e-7)


class TestSfsaGradients:
    def test_relaxed_two_steps_match_finite_differences(self):
        """BPTT through two carried time steps of the relaxed block."""
        rng = np.random.default_rng(6)
        d, l = 2, 3
        x_steps = np.stack([rng.normal(size=(l, d)) * 0.8 for _ in range(2)])[:, None]
        w0 = rng.normal(size=(d, d)) * 0.7
        sn = spec(relaxed=True)

        def run(wq):
            w = identity_weights(d)
            w["w_q"] = wq
            out = sfsa_forward(x_steps, w, sn, sn, 1)["out"]
            return (out * out).sum()

        v = ad.Var(w0.copy())
        run(v).backward()
        fd = numerics.finite_diff_grad(lambda z: float(run(z)), w0, eps=1e-6)
        np.testing.assert_allclose(v.grad, fd, rtol=1e-4, atol=1e-7)

    def test_hard_mode_taped_grads_finite(self):
        """Surrogate path produces finite grads even with hard thresholds."""
        rng = np.random.default_rng(8)
        d = 4
        x = (rng.random((1, 1, 3, d)) < 0.5).astype(np.float64)
        w = random_weights(d, seed=9, std=0.5)
        vw = {name: ad.Var(ad.value(t)) for name, t in w.items()}
        out = sfsa_forward(x, vw, spec(), spec(), 2)["out"]
        out.sum().backward()
        g = vw["w_q"].grad
        assert g is not None and np.isfinite(g).all()


class TestSfsaPast:
    """Queries for the last rows against cached keys and values of earlier ones."""

    def run_steps(self, xs, w, sn, past_len=0, n_heads=2):
        """Run the block over the step stack xs; with past_len, run only the
        rows from past_len on, reading keys and values of the earlier rows
        from a full run. Returns the output and attention spike stacks."""
        if not past_len:
            return out_attn(sfsa_forward(xs, w, sn, sn, n_heads))
        full = sfsa_forward(xs, w, sn, sn, n_heads)
        past = (full["k"][..., :past_len, :], full["v"][..., :past_len, :])
        return out_attn(sfsa_forward(xs[..., past_len:, :], w, sn, sn, n_heads, past=past))

    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    def test_past_matches_last_rows_of_full_call(self, mode):
        rng = np.random.default_rng(11)
        sn = NeuronSpec(mode=mode)
        w = random_weights(8, seed=12, std=1.0)
        w["b_q"] = w["b_q"] + 0.9
        w["b_k"] = w["b_k"] + 0.9
        xs = (rng.random((3, 3, 6, 8)) < 0.5).astype(np.float64)
        full_out, full_attn = self.run_steps(xs, w, sn)
        assert sum(np.count_nonzero(a) for a in full_attn) > 0
        for p in (1, 4, 5):
            outs, attns = self.run_steps(xs, w, sn, past_len=p)
            for t in range(3):
                np.testing.assert_array_equal(outs[t], full_out[t][:, p:])
                np.testing.assert_array_equal(attns[t], full_attn[t][:, :, p:, :])

    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    def test_rows_that_see_every_key_match_the_full_call(self, mode):
        """One new row after a past, and last_row=True with or without one,
        score without a mask; each equals the last row of the full call bit
        for bit."""
        rng = np.random.default_rng(5)
        sn = NeuronSpec(mode=mode)
        w = random_weights(8, seed=6, std=1.0)
        w["b_q"] = w["b_q"] + 0.9
        w["b_k"] = w["b_k"] + 0.9
        xs = (rng.random((2, 2, 6, 8)) < 0.5).astype(np.float64)
        full = sfsa_forward(xs, w, sn, sn, 2)
        full_out, full_attn, k, v = full["out"], full["attn"], full["k"], full["v"]
        assert np.count_nonzero(full_attn[..., -1, :]) > 0
        # the last query row sees some key that earlier rows do not
        assert np.count_nonzero(full_attn[..., -1, -1]) > 0
        past = (k[..., :5, :], v[..., :5, :])
        calls = [sfsa_forward(xs[..., 5:, :], w, sn, sn, 2, past=past),
                 sfsa_forward(xs, w, sn, sn, 2, last_row=True),
                 sfsa_forward(xs[..., 3:, :], w, sn, sn, 2,
                              past=(k[..., :3, :], v[..., :3, :]), last_row=True)]
        for out, attn in map(out_attn, calls):
            assert out.shape == (2, 2, 1, 8) and attn.shape == (2, 2, 2, 1, 6)
            np.testing.assert_array_equal(out.view(np.uint64),
                                          full_out[..., -1:, :].view(np.uint64))
            np.testing.assert_array_equal(attn.view(np.uint64),
                                          full_attn[..., -1:, :].view(np.uint64))

    def test_unbatched_layouts_rejected(self):
        """Without the batch axis, inputs and cached keys are ShapeErrors."""
        past = (np.zeros((1, 1, 3, 4)), np.zeros((1, 1, 3, 4)))
        with pytest.raises(ShapeError):
            sfsa_forward(np.zeros((1, 2, 4)), random_weights(4), spec(), spec(), 2)
        with pytest.raises(ShapeError):
            sfsa_forward(np.zeros((1, 2, 4)), random_weights(4), spec(), spec(), 2,
                         past=past)
        unbatched = (np.zeros((1, 3, 4)), np.zeros((1, 3, 4)))
        with pytest.raises(ShapeError):
            sfsa_forward(np.zeros((1, 1, 2, 4)), random_weights(4), spec(), spec(), 2,
                         past=unbatched)
        with pytest.raises(ShapeError, match=r"\[B, L, d\]"):
            csa_forward(np.zeros((3, 4)), random_weights(4), 1)

    def test_past_shapes_checked(self):
        x = np.zeros((1, 1, 2, 4))
        for past in ((np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3, 4))),
                     (np.zeros((1, 1, 3, 4)), np.zeros((1, 1, 2, 4))),
                     (np.zeros((1, 1, 3, 2)), np.zeros((1, 1, 3, 2))),
                     (np.zeros((2, 1, 3, 4)), np.zeros((2, 1, 3, 4)))):
            with pytest.raises(ShapeError):
                sfsa_forward(x, random_weights(4), spec(), spec(), 2, past=past)

    def test_past_needs_untaped_hard_forward(self):
        x = np.zeros((1, 1, 1, 4))
        past = (np.zeros((1, 1, 1, 4)), np.zeros((1, 1, 1, 4)))
        with pytest.raises(ConfigError):
            sfsa_forward(x, random_weights(4), spec(relaxed=True), spec(relaxed=True), 2,
                         past=past)
        w = random_weights(4)
        w["w_k"] = ad.Var(w["w_k"])
        with pytest.raises(ConfigError):
            sfsa_forward(x, w, spec(), spec(), 2, past=past)


def composed_scores(q, k_t, mask, scale=None):
    """The scores as separate tape nodes: the product, then the mask (and scale)."""
    s = ad.matmul(q, k_t)
    if scale is not None:
        return s * scale + (mask - 1.0) * 1e9
    return s if mask is None else s * mask


def taped_weights(w):
    """A taped leaf holding a copy of each of w's tensors."""
    return {name: ad.Var(ad.value(t).copy()) for name, t in w.items()}


class TestScoreNode:
    """Each block's scores are one node, masked in place on the product."""

    def run_block(self, block, scores_fn, monkeypatch):
        """(out, attn, weight grads) of a taped block under scores_fn."""
        monkeypatch.setattr(attention, "_scores", scores_fn)
        rng = np.random.default_rng(21)
        w = taped_weights(random_weights(8, seed=22, std=1.0))
        w["b_q"].data += 0.9
        w["b_k"].data += 0.9
        if block == "sfsa":
            x = (rng.random((2, 2, 6, 8)) < 0.5).astype(np.float64)
            sn = spec(thr=0.5, relaxed=False)
            out, attn = out_attn(sfsa_forward(x, w, sn, sn, 2))
        else:
            out, attn = csa_forward(rng.normal(size=(2, 6, 8)), w, 2)
        (out * np.random.default_rng(23).normal(size=out.shape)).sum().backward()
        return out, attn, [w[name].grad for name in ATTN_NAMES[0::2]]

    @pytest.mark.parametrize("block", ["sfsa", "csa"])
    def test_blocks_match_the_composed_scores_bit_for_bit(self, block, monkeypatch):
        one = self.run_block(block, attention._scores, monkeypatch)
        two = self.run_block(block, composed_scores, monkeypatch)
        assert np.count_nonzero(ad.value(one[1])) > 0
        assert same_bits(one[0], two[0]) and same_bits(one[1], two[1])
        for got, want in zip(one[2], two[2]):
            assert same_bits(got, want)
        assert np.abs(one[2][0]).max() > 0

    @pytest.mark.parametrize("scale", [None, 0.5])
    def test_score_node_matches_the_composed_nodes(self, scale):
        rng = np.random.default_rng(24)
        q, k_t = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(2, 3, 4, 5))
        seed = rng.normal(size=(2, 3, 5, 5))
        masks = [causal_mask(5)] if scale is not None else [None, causal_mask(5)]
        for mask in masks:
            runs = []
            for fn in (attention._scores, composed_scores):
                leaves = [ad.Var(a.copy()) for a in (q, k_t)]
                out = fn(*leaves, mask, scale)
                out.backward(seed)
                runs.append((out, leaves))
            (one, got), (two, want) = runs
            assert one._parents == tuple(got)
            assert same_bits(one, two)
            assert same_bits(got[0].grad, want[0].grad)
            assert same_bits(got[1].grad, want[1].grad)

    def test_masked_sfsa_scores_pass_no_gradient(self):
        """Whatever reaches a masked score entry, q and k get the same gradient."""
        rng = np.random.default_rng(25)
        q, k_t = rng.normal(size=(1, 2, 4, 3)), rng.normal(size=(1, 2, 3, 4))
        mask = causal_mask(4)
        seed = rng.normal(size=(1, 2, 4, 4))
        noisy = seed + (1.0 - mask) * rng.normal(size=seed.shape) * 1e6
        grads = []
        for g in (seed * mask, seed, noisy):
            leaves = [ad.Var(a.copy()) for a in (q, k_t)]
            attention._scores(*leaves, mask).backward(g)
            grads.append([v.grad for v in leaves])
        for got in grads[1:]:
            assert same_bits(got[0], grads[0][0]) and same_bits(got[1], grads[0][1])

    def test_masked_csa_scores_get_zero_gradient(self, monkeypatch):
        """Masked logits leave the softmax at exactly 0, so they pass back 0.

        The softmax reads a leaf holding the block's masked logits, which
        thus keeps their gradient.
        """
        logits = []
        real = ad.softmax

        def softmax_of_leaf(x, axis=-1):
            logits.append(ad.Var(ad.value(x)))
            return real(logits[-1], axis)
        monkeypatch.setattr(ad, "softmax", softmax_of_leaf)
        rng = np.random.default_rng(26)
        w = taped_weights(random_weights(8, seed=27))
        out, _ = csa_forward(rng.normal(size=(2, 5, 8)), w, 2)
        (out * rng.normal(size=out.shape)).sum().backward()
        [scores] = logits
        hidden = np.broadcast_to(causal_mask(5) == 0, scores.shape)
        assert np.all(scores.data[hidden] < -1e8)
        assert np.all(scores.grad[hidden] == 0.0)
        assert np.count_nonzero(scores.grad[~hidden]) > 0

    def test_rows_that_see_every_key_are_not_masked(self, monkeypatch):
        masks = []
        real = attention._scores

        def recording(q, k_t, mask, scale=None):
            masks.append(mask)
            return real(q, k_t, mask, scale)
        monkeypatch.setattr(attention, "_scores", recording)
        sn = NeuronSpec(mode="binary")
        w = random_weights(8, seed=28)
        xs = (np.random.default_rng(29).random((2, 1, 4, 8)) < 0.5).astype(np.float64)
        full = sfsa_forward(xs, w, sn, sn, 2)
        k, v = full["k"], full["v"]
        assert masks[-1] is not None
        sfsa_forward(xs, w, sn, sn, 2, last_row=True)
        sfsa_forward(xs[..., 3:, :], w, sn, sn, 2, past=(k[..., :3, :], v[..., :3, :]))
        sfsa_forward(xs[..., 2:, :], w, sn, sn, 2, past=(k[..., :2, :], v[..., :2, :]),
                     last_row=True)
        assert masks[1:] == [None, None, None]
