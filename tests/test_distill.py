"""Distillation loss tests with hand-computed values and fixed points."""

import numpy as np
import pytest

from spikeclm import autodiff as ad, numerics
from spikeclm.distill import (SpadConfig, layer_map, loss_attention, loss_embedding,
                              loss_feature, loss_hard, loss_soft, loss_total,
                              pool_heads, spad_losses, spike_encode)
from spikeclm.errors import AlignmentError, ConfigError, ValidationError
from spikeclm.model import ModelConfig, ann_forward, init_params, snn_forward
from spikeclm.neurons import LifParams, empirical_rate


class TestLayerMap:
    def test_identity_when_equal(self):
        assert layer_map(4, 4) == [0, 1, 2, 3]
        assert layer_map(1, 1) == [0]

    def test_uniform_spacing(self):
        assert layer_map(2, 4) == [1, 3]
        assert layer_map(3, 6) == [1, 3, 5]
        assert layer_map(1, 4) == [3]
        assert layer_map(2, 3) == [1, 2]

    def test_student_deeper_rejected(self):
        with pytest.raises(ConfigError):
            layer_map(4, 2)
        with pytest.raises(ConfigError):
            layer_map(0, 2)


class TestPoolHeads:
    def test_group_mean(self):
        a = np.stack([np.full((2, 2), v) for v in (1.0, 3.0, 5.0, 7.0)])
        pooled = pool_heads(a, 2)
        np.testing.assert_array_equal(pooled[0], np.full((2, 2), 2.0))
        np.testing.assert_array_equal(pooled[1], np.full((2, 2), 6.0))

    def test_identity_when_equal(self):
        a = np.random.default_rng(0).random((1, 4, 3, 3))
        np.testing.assert_array_equal(pool_heads(a, 4), a)

    def test_indivisible_rejected(self):
        with pytest.raises(AlignmentError):
            pool_heads(np.ones((4, 2, 2)), 3)


class TestSpikeEncode:
    def test_zeros_encode_to_silence(self):
        out = spike_encode(np.zeros((3, 3)), 4, LifParams())
        np.testing.assert_array_equal(out, np.zeros((4, 3, 3)))

    def test_time_mean_matches_empirical_rate(self):
        """Entrywise agreement with the scalar rate simulator."""
        p = LifParams(beta=0.5, u_thr=1.0)
        grid = np.linspace(0, 2, 9).reshape(3, 3)
        enc = spike_encode(grid, 16, p).mean(axis=0)
        for i in range(3):
            for j in range(3):
                assert enc[i, j] == empirical_rate(grid[i, j], 16, p)

    def test_binary_output(self):
        enc = spike_encode(np.random.default_rng(1).random((4, 4)), 8, LifParams())
        assert set(np.unique(enc)) <= {0.0, 1.0}

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            spike_encode(np.array([np.nan]), 2, LifParams())


class TestLossEmbedding:
    def test_identical_is_zero(self):
        e = np.random.default_rng(0).normal(size=(2, 3, 4))
        assert float(ad.value(loss_embedding(e, [e, e]))) == 0.0

    def test_constant_gap_is_squared(self):
        e_ann = np.zeros((2, 3))
        student = [np.full((2, 3), 0.7)]
        np.testing.assert_allclose(float(loss_embedding(e_ann, student)), 0.49)

    def test_time_mean_cancels(self):
        """Steps v and 3v against teacher 2v give zero."""
        v = np.random.default_rng(1).normal(size=(3, 4))
        assert float(loss_embedding(2 * v, [v, 3 * v])) == pytest.approx(0.0, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(AlignmentError):
            loss_embedding(np.zeros((2, 3)), [np.zeros((2, 4))])


class TestLossAttention:
    def test_hand_mse_direct_branch(self):
        """gamma=0 with a silent student: MSE = 0.375."""
        a_ann = np.array([[1.0, 0.0], [0.5, 0.5]])
        steps = [np.zeros((2, 2)), np.zeros((2, 2))]
        got = loss_attention(a_ann, steps, LifParams(), gamma=0.0)
        np.testing.assert_allclose(float(ad.value(got)), 0.375)

    def test_rate_branch_zero_on_identical_streams(self):
        """gamma=1 with student spikes equal to the encoded teacher."""
        p = LifParams(beta=0.5, u_thr=1.0)
        a_ann = np.random.default_rng(2).random((2, 3, 3))
        enc = spike_encode(a_ann, 4, p)
        got = loss_attention(a_ann, list(enc), p, gamma=1.0)
        assert float(ad.value(got)) == 0.0

    def test_convex_combination(self):
        rng = np.random.default_rng(3)
        a_ann = rng.random((2, 2))
        steps = [(rng.random((2, 2)) < 0.5).astype(float) for _ in range(3)]
        l0 = float(ad.value(loss_attention(a_ann, steps, LifParams(), 0.0)))
        l1 = float(ad.value(loss_attention(a_ann, steps, LifParams(), 1.0)))
        lh = float(ad.value(loss_attention(a_ann, steps, LifParams(), 0.25)))
        np.testing.assert_allclose(lh, 0.25 * l1 + 0.75 * l0, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(AlignmentError):
            loss_attention(np.zeros((2, 2)), [np.zeros((3, 3))], LifParams(), 0.5)


class TestLossFeature:
    def test_zero_everywhere_is_zero(self):
        got = loss_feature(np.zeros((3, 4)), [np.zeros((3, 4))], LifParams(), 0.5)
        assert float(ad.value(got)) == 0.0

    def test_silent_teacher_rate_branch_is_mean_square_rate(self):
        """h_ann = 0 encodes to silence, so the rate branch is mean(rate^2)."""
        steps = [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])]
        got = loss_feature(np.zeros((1, 2)), steps, LifParams(), gamma=1.0)
        np.testing.assert_allclose(float(ad.value(got)), 0.5)  # rates (1, 0)

    def test_identical_after_mapping_kills_mse_branch(self):
        h = np.random.default_rng(4).normal(size=(2, 5))
        got = loss_feature(h, [h], LifParams(), gamma=0.0)
        np.testing.assert_allclose(float(ad.value(got)), 0.0, atol=1e-20)

    def test_mse_branch_scale_invariant_via_layernorm(self):
        """Student features at 0.1x teacher scale still align after LN."""
        h = np.random.default_rng(5).normal(size=(3, 6))
        got = loss_feature(h, [0.1 * h], LifParams(), gamma=0.0)
        # LayerNorm removes per-row scale up to the eps term
        assert float(ad.value(got)) < 1e-6

    def test_convex_combination(self):
        rng = np.random.default_rng(6)
        h = rng.normal(size=(2, 4))
        steps = [(rng.random((2, 4)) < 0.4).astype(float)]
        l0 = float(ad.value(loss_feature(h, steps, LifParams(), 0.0)))
        l1 = float(ad.value(loss_feature(h, steps, LifParams(), 1.0)))
        lh = float(ad.value(loss_feature(h, steps, LifParams(), 0.5)))
        np.testing.assert_allclose(lh, 0.5 * (l0 + l1), rtol=1e-12)

    def test_width_mismatch_is_an_alignment_error(self):
        with pytest.raises(AlignmentError, match=r"teacher \(2, 6\), student \(2, 4\)"):
            loss_feature(np.zeros((2, 6)), [np.zeros((2, 4))], LifParams(), 0.5)


class TestLossSoft:
    def test_equal_logits_zero(self):
        z = np.random.default_rng(0).normal(size=(4, 7))
        assert float(ad.value(loss_soft(z, z.copy(), tau=2.0))) == 0.0

    def test_per_row_shift_invariance(self):
        z = np.random.default_rng(1).normal(size=(3, 5))
        shifted = z + np.arange(3.0)[:, None]
        np.testing.assert_allclose(float(ad.value(loss_soft(z, shifted, 2.0))),
                                   0.0, atol=1e-12)

    def test_hand_kl(self):
        """vocab 2, tau 1: teacher (ln3, 0) vs student (0, 0)."""
        z_ann = np.array([[np.log(3.0), 0.0]])
        z_snn = np.array([[0.0, 0.0]])
        want = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)
        np.testing.assert_allclose(float(ad.value(loss_soft(z_ann, z_snn, 1.0))),
                                   want, rtol=1e-12)

    def test_tau_scaling_and_validation(self):
        z1 = np.random.default_rng(2).normal(size=(2, 4))
        z2 = np.random.default_rng(3).normal(size=(2, 4))
        assert float(ad.value(loss_soft(z1, z2, 2.0))) > 0
        with pytest.raises(ConfigError):
            loss_soft(z1, z2, 0.0)
        with pytest.raises(AlignmentError):
            loss_soft(z1, np.zeros((2, 5)), 1.0)


class TestLossHard:
    def test_uniform_logits_ln_v(self):
        z = np.zeros((3, 11))
        np.testing.assert_allclose(float(ad.value(loss_hard(z, np.array([1, 5, 9])))),
                                   np.log(11), rtol=1e-12)

    def test_hand_two_way(self):
        z = np.array([[1.0, 0.0]])
        want = np.log(1 + np.exp(-1.0))
        np.testing.assert_allclose(float(ad.value(loss_hard(z, np.array([0])))),
                                   want, rtol=1e-12)

    def test_large_margin_reaches_exact_zero(self):
        z = np.full((2, 4), -1000.0)
        z[0, 2] = 0.0
        z[1, 0] = 0.0
        assert float(ad.value(loss_hard(z, np.array([2, 0])))) == 0.0

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            loss_hard(np.zeros((2, 4)), np.array([0, 4]))
        with pytest.raises(AlignmentError):
            loss_hard(np.zeros((2, 4)), np.array([0, 1, 2]))


class TestLossTotal:
    def test_weighted_sum_and_breakdown(self):
        cfg = SpadConfig(lambdas=(0.2, 0.1, 0.1, 0.3, 0.3))
        comps = [1.0, 2.0, 3.0, 4.0, 5.0]
        total, bd = loss_total(comps, cfg)
        np.testing.assert_allclose(float(ad.value(total)),
                                   0.2 + 0.2 + 0.3 + 1.2 + 1.5, rtol=1e-12)
        np.testing.assert_allclose(sum(bd.values()), float(ad.value(total)), rtol=1e-12)
        assert set(bd) == {"emb", "attn", "feat", "soft", "hard"}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SpadConfig(lambdas=(0.5, 0.5, 0.1, 0.0, 0.0)).validate()
        with pytest.raises(ConfigError):
            SpadConfig(lambdas=(0.2, 0.1, 0.1, 0.3)).validate()
        with pytest.raises(ConfigError):
            SpadConfig(tau=-1.0).validate()
        with pytest.raises(ConfigError):
            SpadConfig(gamma_attn=1.0).validate()
        SpadConfig(lambdas=(0.0, 0.0, 0.0, 0.0, 1.0)).validate()


def build_pair(d_s=8, d_t=8, layers_s=2, layers_t=2, heads_s=2, heads_t=2):
    cfg_s = ModelConfig(vocab_size=13, d_model=d_s, n_layers=layers_s,
                        n_heads=heads_s, d_ff=12, max_seq_len=8, t_steps=2)
    cfg_t = ModelConfig(vocab_size=13, d_model=d_t, n_layers=layers_t,
                        n_heads=heads_t, d_ff=12, max_seq_len=8, t_steps=1)
    return cfg_s, init_params(cfg_s, 1), cfg_t, init_params(cfg_t, 2, kind="teacher")


class TestSpadLosses:
    def test_end_to_end_components_finite(self):
        cfg_s, p_s, cfg_t, p_t = build_pair(layers_t=4, heads_t=4)
        ids = np.array([[1, 2, 3, 4, 5]])
        targets = np.array([[2, 3, 4, 5, 6]])
        _, t_trace = ann_forward(ids, cfg_t, p_t)
        vparams = {k: ad.Var(v, requires_grad=True) for k, v in p_s.items()}
        logits, s_trace = snn_forward(ids, cfg_s, vparams)
        total, bd = spad_losses(logits, s_trace, t_trace, targets,
                                SpadConfig(), cfg_s.neuron_spec().lif)
        assert isinstance(total, ad.Var)
        assert all(np.isfinite(v) for v in bd.values())
        assert all(v >= 0 for v in bd.values())
        total.backward()
        grads = [v.grad for v in vparams.values() if v.grad is not None]
        assert grads and all(np.isfinite(g).all() for g in grads)

    def test_zero_weight_components_skipped(self):
        cfg_s, p_s, cfg_t, p_t = build_pair()
        ids = np.array([[1, 2, 3]])
        targets = np.array([[2, 3, 4]])
        _, t_trace = ann_forward(ids, cfg_t, p_t)
        logits, s_trace = snn_forward(ids, cfg_s, p_s)
        total, bd = spad_losses(logits, s_trace, t_trace, targets,
                                SpadConfig(lambdas=(0, 0, 0, 0, 1.0)),
                                cfg_s.neuron_spec().lif)
        assert bd["emb"] == bd["attn"] == bd["feat"] == bd["soft"] == 0.0
        assert bd["hard"] > 0

    def test_incompatible_pair_raises_before_work(self):
        cfg_s, p_s, cfg_t, p_t = build_pair(layers_s=2, layers_t=1)
        ids = np.array([[1, 2]])
        _, t_trace = ann_forward(ids, cfg_t, p_t)
        logits, s_trace = snn_forward(ids, cfg_s, p_s)
        with pytest.raises(ConfigError):
            spad_losses(logits, s_trace, t_trace, np.array([[2, 3]]),
                        SpadConfig(), cfg_s.neuron_spec().lif)


class TestGradientFlow:
    def test_total_loss_grad_matches_fd_relaxed(self):
        """Relaxed-mode analytic gradients of the full objective vs FD."""
        cfg_s, p_s, cfg_t, p_t = build_pair(layers_t=2, heads_t=2)
        p_s = {k: v * 25.0 for k, v in p_s.items()}
        ids = np.array([[3, 1, 4, 1]])
        targets = np.array([[1, 4, 1, 5]])
        _, t_trace = ann_forward(ids, cfg_t, p_t)
        spad = SpadConfig()
        lif = cfg_s.neuron_spec().lif

        def full_loss(pdict):
            logits, s_trace = snn_forward(ids, cfg_s, pdict, relaxed=True)
            total, _ = spad_losses(logits, s_trace, t_trace, targets, spad, lif)
            return total

        for key in ("layers.1.attn.w_v", "layers.0.ffn.w2"):
            vparams = dict(p_s)
            v = ad.Var(p_s[key].copy(), requires_grad=True)
            vparams[key] = v
            full_loss(vparams).backward()

            def f(z, key=key):
                q = dict(p_s)
                q[key] = z
                return float(ad.value(full_loss(q)))

            fd = numerics.finite_diff_grad(f, p_s[key].copy(), eps=1e-5)
            denom = np.maximum(np.abs(fd), 1e-8)
            rel = np.abs(v.grad - fd) / denom
            assert np.percentile(rel, 99) < 1e-3, f"{key}: p99 rel err {np.percentile(rel, 99)}"
