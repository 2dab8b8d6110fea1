"""Model-level tests: wiring, traces, decoding, generation, checkpoints."""

import numpy as np
import pytest

from spikeclm import attention, autodiff as ad, data, energy, model, numerics, training
from spikeclm.distill import loss_hard
from spikeclm.errors import ConfigError, EvaluationError, ShapeError, ValidationError
from spikeclm.model import (DecodeCache, ModelConfig, ann_forward,
                            decode_logits, generate, init_params, load_model, read_checkpoint,
                            save_model, snn_forward, time_mean, write_checkpoint)
from spikeclm.neurons import NeuronState, lif_step, ternary_step


def tiny_cfg(**kw) -> ModelConfig:
    base = dict(vocab_size=11, d_model=8, n_layers=2, n_heads=2, d_ff=16,
                max_seq_len=10, t_steps=2)
    base.update(kw)
    return ModelConfig(**base)


def firing_params(cfg: ModelConfig, seed: int) -> dict:
    """init_params scaled so that the spiking attention fires.

    At the default std 0.02 the score neurons never reach threshold, and a
    test of attention state (the decode cache) would see only zeros.
    """
    p = init_params(cfg, seed)
    p["tok_emb"] *= 50.0
    p["pos_emb"] *= 50.0
    for i in range(cfg.n_layers):
        for name in ("q", "k", "v", "out"):
            p[f"layers.{i}.attn.w_{name}"] *= 25.0
            p[f"layers.{i}.attn.b_{name}"] += 0.9
    return p


class TestConfig:
    def test_defaults_valid(self):
        ModelConfig().validate()

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_cfg(d_model=8, n_heads=3).validate()

    def test_ranges(self):
        with pytest.raises(ConfigError):
            tiny_cfg(t_steps=0).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(vocab_size=1).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(beta=-0.1).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(neuron_mode="dense").validate()


class TestParams:
    def test_student_count_matches_closed_form(self):
        for cfg in (tiny_cfg(), tiny_cfg(d_model=12, n_heads=3, n_layers=1, d_ff=7)):
            p = init_params(cfg, seed=0)
            assert model.count_params(p) == model.expected_param_count(cfg)

    def test_teacher_count_matches_closed_form(self):
        cfg = tiny_cfg()
        p = init_params(cfg, seed=0, kind="teacher")
        assert model.count_params(p) == model.expected_param_count(cfg, "teacher")
        assert "layers.0.ln1.g" in p and "final_ln.g" in p

    def test_init_deterministic(self):
        cfg = tiny_cfg()
        a = init_params(cfg, seed=5)
        b = init_params(cfg, seed=5)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_biases_zero_weights_spread(self):
        p = init_params(tiny_cfg(), seed=1)
        assert np.all(p["layers.0.attn.b_q"] == 0)
        assert p["tok_emb"].std() > 0.01


class TestSnnForward:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.params = init_params(self.cfg, seed=3)
        self.ids = np.array([1, 4, 2, 9, 0, 5])

    def test_shapes_and_finiteness(self):
        logits, trace = snn_forward(self.ids, self.cfg, self.params)
        assert logits.shape == (6, 11)
        assert np.isfinite(logits).all()
        batch = np.stack([self.ids, self.ids[::-1]])
        logits2, _ = snn_forward(batch, self.cfg, self.params)
        assert logits2.shape == (2, 6, 11)

    def test_trace_complete(self):
        """One attention and one hidden trace per layer per time step."""
        _, trace = snn_forward(self.ids, self.cfg, self.params)
        assert len(trace.attn_spikes) == self.cfg.n_layers
        assert len(trace.hidden) == self.cfg.n_layers
        assert all(len(t) == self.cfg.t_steps for t in trace.attn_spikes)
        assert all(len(t) == self.cfg.t_steps for t in trace.hidden)
        assert len(trace.embed_steps) == self.cfg.t_steps
        assert trace.attn_spikes[0][0].shape == (1, 2, 6, 6)

    def test_inner_tensors_binary(self):
        params = init_params(self.cfg, seed=7)
        # scale weights up so plenty of spikes actually occur
        hot = {k: v * 40.0 for k, v in params.items()}
        _, trace = snn_forward(self.ids, self.cfg, hot)
        saw_spike = 0.0
        for l in range(self.cfg.n_layers):
            for t in range(self.cfg.t_steps):
                assert set(np.unique(trace.attn_spikes[l][t])) <= {0.0, 1.0}
                assert set(np.unique(trace.hidden[l][t])) <= {0.0, 1.0}
                saw_spike += trace.hidden[l][t].sum()
        for t in range(self.cfg.t_steps):
            assert set(np.unique(trace.embed_steps[t])) <= {0.0, 1.0}
        assert saw_spike > 0

    def test_zeroed_blocks_pass_encoder_through(self):
        """With all block weights zero, the head sees the raw spike code."""
        p = init_params(self.cfg, seed=3)
        for k in p:
            if k.startswith("layers."):
                p[k] = np.zeros_like(p[k])
        # strong embeddings so the encoder actually fires
        p["tok_emb"] = p["tok_emb"] * 80.0
        logits, trace = snn_forward(self.ids, self.cfg, p)
        enc_mean = time_mean(trace.embed_steps)[0]
        np.testing.assert_allclose(logits, enc_mean @ p["head.w"], rtol=1e-12)

    def test_deterministic(self):
        a, _ = snn_forward(self.ids, self.cfg, self.params)
        b, _ = snn_forward(self.ids, self.cfg, self.params)
        np.testing.assert_array_equal(a, b)

    def test_causal_at_model_level(self):
        other = self.ids.copy()
        other[-1] = 7
        a, _ = snn_forward(self.ids, self.cfg, self.params)
        b, _ = snn_forward(other, self.cfg, self.params)
        np.testing.assert_array_equal(a[:-1], b[:-1])
        assert a.shape == b.shape

    def test_batch_matches_single(self):
        batch = np.stack([self.ids, (self.ids + 3) % 11])
        lb, _ = snn_forward(batch, self.cfg, self.params)
        for i in range(2):
            li, _ = snn_forward(batch[i], self.cfg, self.params)
            np.testing.assert_allclose(lb[i], li, rtol=1e-12)

    def test_token_validation(self):
        with pytest.raises(ShapeError):
            snn_forward(np.arange(11), self.cfg, self.params)  # too long
        with pytest.raises(ValidationError):
            snn_forward(np.array([0, 11]), self.cfg, self.params)  # out of range
        with pytest.raises(ValidationError):
            snn_forward(np.array([0.5, 1.0]), self.cfg, self.params)
        with pytest.raises(ShapeError):
            snn_forward(np.array([], dtype=np.int64), self.cfg, self.params)

    def test_firing_counters(self):
        _, trace = snn_forward(self.ids, self.cfg, self.params)
        expect_total = self.cfg.t_steps * 1 * 6 * self.cfg.d_model
        assert trace.sfsa_in_total.tolist() == [expect_total] * 2
        assert trace.sffn_in_total.tolist() == [expect_total] * 2
        assert 0.0 <= trace.mean_firing_rate() <= 1.0

    def test_ternary_mode_runs(self):
        cfg = tiny_cfg(neuron_mode="ternary")
        p = init_params(cfg, seed=2)
        logits, trace = snn_forward(self.ids, cfg, p)
        assert np.isfinite(logits).all()
        vals = set(np.unique(trace.hidden[0][0]))
        assert vals <= {-cfg.ternary_amp, 0.0, cfg.ternary_amp}

    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    def test_tape_size_independent_of_t_steps(self, mode, monkeypatch):
        """Each neuron population is one tape node, however many steps it runs."""
        made = []
        init = ad.Var.__init__

        def counting_init(self, *args, **kw):
            made.append(self)
            init(self, *args, **kw)

        monkeypatch.setattr(ad.Var, "__init__", counting_init)
        counts = []
        for t_steps in (1, 2, 4):
            cfg = tiny_cfg(t_steps=t_steps, neuron_mode=mode)
            vparams = {k: ad.Var(v, requires_grad=True)
                       for k, v in firing_params(cfg, 2).items()}
            made.clear()
            logits, _ = snn_forward(self.ids, cfg, vparams)
            loss_hard(logits, np.roll(self.ids, -1))
            counts.append(len(made))
        assert counts[0] > 0 and counts == [counts[0]] * 3

    @pytest.mark.parametrize("amp, attn_thr", [(1.0, 1.0), (0.3, 0.1)])
    def test_firing_ternary_mode_runs(self, amp, attn_thr):
        """Residual sums of +-amp spikes are valid attention inputs."""
        cfg = tiny_cfg(neuron_mode="ternary", ternary_amp=amp, attn_thr=attn_thr)
        logits, trace = snn_forward(self.ids, cfg, firing_params(cfg, 2))
        assert np.isfinite(logits).all()
        assert np.any(trace.embed_steps[0] < 0) and np.any(trace.embed_steps[0] > 0)
        for i in range(cfg.n_layers):
            assert sum(np.count_nonzero(a) for a in trace.attn_spikes[i]) > 0
            assert set(np.unique(trace.hidden[i][0])) <= {-amp, 0.0, amp}


class TestDecodeLogits:
    def test_single_step_is_projection(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        w = np.random.default_rng(1).normal(size=(4, 5))
        np.testing.assert_allclose(decode_logits([x], w), x @ w, rtol=1e-12)

    def test_identical_steps_match_single(self):
        x = np.random.default_rng(2).normal(size=(3, 4))
        w = np.random.default_rng(3).normal(size=(4, 5))
        np.testing.assert_allclose(decode_logits([x, x, x], w),
                                   decode_logits([x], w), rtol=1e-12)

    def test_opposite_steps_cancel(self):
        x = np.random.default_rng(4).normal(size=(3, 4))
        w = np.ones((4, 2))
        np.testing.assert_allclose(decode_logits([x, -x], w), np.zeros((3, 2)),
                                   atol=1e-12)

    def test_empty_steps_rejected(self):
        with pytest.raises(ShapeError):
            decode_logits([], np.ones((4, 2)))


class TestTeacher:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.params = init_params(self.cfg, seed=9, kind="teacher")
        self.ids = np.array([3, 1, 4, 1, 5])

    def test_shapes_and_traces(self):
        logits, trace = ann_forward(self.ids, self.cfg, self.params)
        assert logits.shape == (5, 11)
        assert len(trace.attn_maps) == 2 and len(trace.hidden) == 2
        assert trace.attn_maps[0].shape == (1, 2, 5, 5)
        np.testing.assert_allclose(trace.attn_maps[0].sum(-1), 1.0, rtol=1e-10)
        assert trace.embed.shape == (1, 5, 8)

    def test_causality(self):
        other = self.ids.copy()
        other[-1] = 9
        a, _ = ann_forward(self.ids, self.cfg, self.params)
        b, _ = ann_forward(other, self.cfg, self.params)
        np.testing.assert_allclose(a[:-1], b[:-1], rtol=1e-12)

    def test_taped_teacher_grad_matches_fd(self):
        w0 = self.params["head.w"].copy()

        def f(w):
            p = dict(self.params)
            p["head.w"] = w
            logits, _ = ann_forward(self.ids, self.cfg, p)
            if isinstance(logits, ad.Var):
                return (logits * logits).mean()
            return float((logits * logits).mean())

        v = ad.Var(w0.copy(), requires_grad=True)
        f(v).backward()
        fd = numerics.finite_diff_grad(lambda z: float(f(z)), w0)
        np.testing.assert_allclose(v.grad, fd, rtol=1e-4, atol=1e-8)

    def test_layer_norm_basics(self):
        x = np.random.default_rng(5).normal(size=(4, 8)) * 3 + 1
        y = model.layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y.mean(-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(-1), 1.0, rtol=1e-3)
        z = model.layer_norm(np.zeros((2, 8)), np.ones(8), np.zeros(8))
        assert np.isfinite(z).all() and np.all(z == 0)


class TestGenerate:
    def setup_method(self):
        self.cfg = tiny_cfg(max_seq_len=4)
        self.params = init_params(self.cfg, seed=11)

    def test_greedy_deterministic(self):
        a = generate([1, 2], 5, self.cfg, self.params)
        b = generate([1, 2], 5, self.cfg, self.params)
        assert a.tokens == b.tokens
        assert len(a.tokens) == 7

    def test_tie_break_lowest_id(self):
        p = {k: np.zeros_like(v) for k, v in self.params.items()}
        out = generate([3], 2, self.cfg, p)
        assert out.tokens[1:] == [0, 0]

    def test_window_truncation_counted(self):
        out = generate([1, 2, 3, 4], 3, self.cfg, self.params)
        assert out.truncated_steps == 2
        out2 = generate([1, 2], 2, self.cfg, self.params)
        assert out2.truncated_steps == 0

    def test_sampling_reproducible(self):
        a = generate([1], 6, self.cfg, self.params, temperature=1.0,
                     rng=numerics.Rng(4))
        b = generate([1], 6, self.cfg, self.params, temperature=1.0,
                     rng=numerics.Rng(4))
        assert a.tokens == b.tokens
        assert all(0 <= t < 11 for t in a.tokens)

    def test_argument_errors(self):
        with pytest.raises(ValidationError):
            generate([], 3, self.cfg, self.params)
        with pytest.raises(ValidationError):
            generate([99], 3, self.cfg, self.params)
        with pytest.raises(ConfigError):
            generate([1], -1, self.cfg, self.params)
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="temperature must be finite"):
                generate([1], 1, self.cfg, self.params, temperature=bad, rng=numerics.Rng(0))
        with pytest.raises(ConfigError):
            generate([1], 1, self.cfg, self.params, temperature=1.0)


def reference_generate(prompt, n_new, cfg, params, temperature=0.0, rng=None,
                       forward=snn_forward):
    """Decode by a full forward over the window for every token."""
    ids, truncated = list(prompt), 0
    for _ in range(n_new):
        if len(ids) > cfg.max_seq_len:
            truncated += 1
        logits, _ = forward(np.asarray(ids[-cfg.max_seq_len:]), cfg, params,
                            collect=False)
        last = logits[-1]
        if temperature == 0.0:
            nxt = int(np.argmax(last))
        else:
            p = ad.softmax(last / temperature)
            nxt = min(int(np.searchsorted(np.cumsum(p), rng.uniform())),
                      cfg.vocab_size - 1)
        ids.append(nxt)
    return ids, truncated


class TestIncrementalDecode:
    """The decode cache against full forwards, with the attention firing."""

    MODES = ["binary", "ternary"]

    def make(self, mode):
        cfg = tiny_cfg(d_model=16, d_ff=32, max_seq_len=6, t_steps=3, neuron_mode=mode)
        return cfg, firing_params(cfg, 5)

    @pytest.mark.parametrize("mode", MODES)
    def test_attention_fires(self, mode):
        cfg, p = self.make(mode)
        _, trace = snn_forward(np.array([1, 4, 2, 9, 0, 5]), cfg, p)
        for i in range(cfg.n_layers):
            assert sum(np.count_nonzero(a) for a in trace.attn_spikes[i]) > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_cached_forward_matches_full(self, mode, monkeypatch):
        cfg, p = self.make(mode)
        ids = np.array([[1, 4, 2, 9, 0, 5], [3, 3, 7, 1, 10, 2]])
        full_kv = []

        def recording_sfsa(*args, **kwargs):
            out = attention.sfsa_forward(*args, **kwargs)
            full_kv.append(out[2])
            return out
        monkeypatch.setattr(model, "sfsa_forward", recording_sfsa)
        full, full_trace = snn_forward(ids, cfg, p)
        monkeypatch.undo()
        for split in ([6], [1, 5], [4, 1, 1], [1] * 6):
            cache = DecodeCache()
            for n in split:
                start, end = cache.length, cache.length + n
                logits, trace = snn_forward(ids[:, start:end], cfg, p, cache=cache)
                assert cache.length == end
                # one row, the last new position's; it agrees to rounding
                # only: a product over fewer rows may sum in another order
                # inside BLAS
                assert logits.shape == (2, 1, cfg.vocab_size)
                np.testing.assert_allclose(logits[:, 0], full[:, end - 1],
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_array_equal(
                    trace.attn_spikes[0], full_trace.attn_spikes[0][..., start:end, :end])
                np.testing.assert_array_equal(
                    trace.attn_spikes[1], full_trace.attn_spikes[1][..., end - 1:end, :end])
            for i, (k, v) in enumerate(full_kv):
                np.testing.assert_array_equal(cache.k[i][:, :, :6], k)
                np.testing.assert_array_equal(cache.v[i][:, :, :6], v)

    @pytest.mark.parametrize("mode", MODES)
    def test_post_slide_step_costs_analytic_macs(self, mode):
        """A window rerun after the slide pays the blocks before the last in
        full, the last block's key and value projections in full, and one
        row of everything else."""
        cfg, p = self.make(mode)
        l, t, d, f, v = cfg.max_seq_len, cfg.t_steps, cfg.d_model, cfg.d_ff, cfg.vocab_size
        # q/k/v/out projections, scores and context over h heads, FFN
        full_block = 4 * l * d * d + 2 * l * l * d + 2 * l * d * f
        # k/v projections over the window; q, out, scores, context, FFN of one row
        last_block = 2 * l * d * d + 2 * d * d + 2 * l * d + 2 * d * f
        want = t * ((cfg.n_layers - 1) * full_block + last_block) + d * v
        with numerics.count_macs() as c:
            generate([1, 4, 2, 9, 0, 5], 1, cfg, p)
        with numerics.count_macs() as c_full:
            snn_forward(np.array([1, 4, 2, 9, 0, 5]), cfg, p)
        with numerics.count_macs() as c_slide:
            out = generate([1, 4, 2, 9, 0, 5, 3], 1, cfg, p)
        assert out.truncated_steps == 1
        assert c.macs == c_slide.macs == want < c_full.macs

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    @pytest.mark.parametrize("prompt", [[1], [3, 7, 7], [1, 2, 3, 4, 5, 6],
                                        [9, 8, 7, 6, 5, 4, 3, 2]])
    def test_tokens_match_full_forward_per_token(self, mode, temperature, prompt):
        cfg, p = self.make(mode)
        rng = numerics.Rng(9) if temperature else None
        ref_rng = numerics.Rng(9) if temperature else None
        out = generate(prompt, 9, cfg, p, temperature=temperature, rng=rng)
        want, truncated = reference_generate(prompt, 9, cfg, p, temperature, ref_rng)
        assert out.tokens == want
        assert out.truncated_steps == truncated
        # step k decodes from len(prompt) + k tokens
        assert truncated == sum(len(prompt) + k > cfg.max_seq_len for k in range(9))

    def test_cache_errors(self):
        cfg, p = self.make("binary")
        cache = DecodeCache()
        snn_forward(np.array([[1, 2, 3, 4]]), cfg, p, cache=cache)
        with pytest.raises(ShapeError, match="max_seq_len"):
            snn_forward(np.array([[1, 2, 3]]), cfg, p, cache=cache)
        with pytest.raises(ShapeError, match="batch"):
            snn_forward(np.array([[1], [2]]), cfg, p, cache=cache)
        with pytest.raises(ConfigError):
            snn_forward(np.array([[1]]), cfg, p, relaxed=True, cache=cache)
        assert cache.length == 4
        # a taped forward is refused before a fresh cache is touched
        taped = {k: ad.Var(v, requires_grad=True) for k, v in p.items()}
        fresh = DecodeCache()
        with pytest.raises(ConfigError, match="untaped hard-threshold"):
            snn_forward(np.array([[1, 2]]), cfg, taped, cache=fresh)
        assert fresh.length == 0 and fresh.k == [] and fresh.v == []


def per_step_snn_forward(tokens, cfg, params, collect=True):
    """The spiking model run one time step at a time: the untaped oracle.

    Each step's spikes pass through every block before the next step
    starts, and every neuron population carries its NeuronState across
    steps. Returns (logits, TraceBundle) with the firing counters filled.
    """
    ids = np.asarray(tokens)
    squeeze = ids.ndim == 1
    ids = np.atleast_2d(ids)
    b, l = ids.shape
    n, h, t_steps = cfg.n_layers, cfg.n_heads, cfg.t_steps
    specs = {"attn": cfg.attn_spec()}
    states = {}

    def fire(name, current):
        sn = specs.get(name[-1], cfg.neuron_spec())
        state = states.get(name, NeuronState())
        if sn.mode == "binary":
            s, states[name] = lif_step(state, current, sn.lif, sn.relaxed)
        else:
            s, states[name] = ternary_step(state, current, sn.ternary, sn.relaxed)
        return s

    def split(x):
        return x.reshape(b, -1, h, cfg.d_model // h).swapaxes(1, 2)

    emb = params["tok_emb"][ids] + params["pos_emb"][:l]
    mask = attention.causal_mask(l)
    trace = model.TraceBundle(seq_len=l, t_steps=t_steps)
    counters = [np.zeros(n) for _ in range(4)]
    (trace.sfsa_in_active, trace.sfsa_in_total,
     trace.sffn_in_active, trace.sffn_in_total) = counters
    head = []
    for t in range(t_steps):
        stream = fire(("enc",), emb)
        for i in range(n):
            counters[0][i] += np.count_nonzero(stream)
            counters[1][i] += stream.size
            w = model._attn_weights(params, i)
            sq = fire((i, "q"), stream @ w.w_q + w.b_q)
            sk = fire((i, "k"), stream @ w.w_k + w.b_k)
            sv = fire((i, "v"), stream @ w.w_v + w.b_v)
            s_attn = fire((i, "attn"), (split(sq) @ split(sk).swapaxes(-1, -2)) * mask)
            s_ctx = fire((i, "ctx"), s_attn @ split(sv))
            merged = s_ctx.swapaxes(1, 2).reshape(b, l, cfg.d_model)
            y = stream + fire((i, "out"), merged @ w.w_out + w.b_out)
            counters[2][i] += np.count_nonzero(y)
            counters[3][i] += y.size
            pre = f"layers.{i}.ffn."
            hid = fire((i, "fc1"), y @ params[pre + "w1"] + params[pre + "b1"])
            stream = y + fire((i, "fc2"), hid @ params[pre + "w2"] + params[pre + "b2"])
        head.append(stream)
    total = head[0]
    for x in head[1:]:
        total = total + x
    logits = (total / t_steps) @ params["head.w"]
    return (logits[0] if squeeze else logits), trace


class TestMultiStepMatchesPerStep:
    """Untaped outputs are bit-identical to the per-step forward."""

    def make(self, mode, t_steps):
        cfg = tiny_cfg(vocab_size=257, d_model=16, d_ff=32, max_seq_len=6, t_steps=t_steps,
                       neuron_mode=mode, ternary_reset=0.25 if mode == "ternary" else 0.0)
        return cfg, firing_params(cfg, 5 + t_steps)

    @pytest.mark.parametrize("t_steps", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    def test_logits_and_energy_report(self, mode, t_steps):
        cfg, p = self.make(mode, t_steps)
        ids = np.array([[1, 4, 2, 9, 0, 5], [3, 3, 7, 1, 10, 2]])
        logits, trace = snn_forward(ids, cfg, p)
        want, want_trace = per_step_snn_forward(ids, cfg, p)
        assert all(np.count_nonzero(a) for a in trace.attn_spikes)
        np.testing.assert_array_equal(logits, want)
        assert (energy.render_report(energy.energy_report(cfg, trace))
                == energy.render_report(energy.energy_report(cfg, want_trace)))

    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    @pytest.mark.parametrize("temperature", [0.0, 0.8])
    @pytest.mark.parametrize("prompt", [[1, 2], [9, 8, 7, 6, 5, 4, 3, 2]])
    def test_generate_tokens(self, mode, temperature, prompt):
        cfg, p = self.make(mode, 2)
        rng = numerics.Rng(3) if temperature else None
        ref_rng = numerics.Rng(3) if temperature else None
        out = generate(prompt, 8, cfg, p, temperature=temperature, rng=rng)
        want, truncated = reference_generate(prompt, 8, cfg, p, temperature, ref_rng,
                                             forward=per_step_snn_forward)
        assert out.tokens == want and out.truncated_steps == truncated > 0

    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    def test_evaluate_ce(self, mode, monkeypatch):
        cfg, p = self.make(mode, 3)
        ws = data.make_windows(numerics.Rng(2).integers(0, 256, (90,)), 6)
        got = training.evaluate_ce(cfg, p, ws, batch_size=4)
        monkeypatch.setattr(training, "snn_forward", per_step_snn_forward)
        assert got == training.evaluate_ce(cfg, p, ws, batch_size=4)


class TestNonFinite:
    def test_generate_rejects_non_finite_logits(self):
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        p["head.w"][:] = np.nan
        with pytest.raises(EvaluationError, match="decode step 0"):
            generate([1, 2, 3], 5, cfg, p)

    def test_load_names_non_finite_tensor(self, tmp_path):
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        p["layers.0.attn.w_q"][0, 0] = np.nan
        p["layers.1.ffn.w1"][1, 1] = np.inf
        path = tmp_path / "nan.ckpt"
        save_model(path, cfg, p)
        with pytest.raises(ValidationError, match="layers.0.attn.w_q"):
            load_model(path)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "m.ckpt"
        rng = numerics.Rng(1)
        tensors = {"a": rng.normal((3, 4)), "b.c": rng.normal((2,)),
                   "scalarish": rng.normal((1,))}
        fields = {"alpha": "0.1", "note": "hello world"}
        write_checkpoint(path, fields, tensors)
        f2, t2 = read_checkpoint(path)
        assert f2 == fields
        assert set(t2) == set(tensors)
        for k in tensors:
            assert t2[k].dtype == np.float64
            np.testing.assert_array_equal(t2[k], tensors[k])

    def test_save_load_model(self, tmp_path):
        path = tmp_path / "model.ckpt"
        cfg = tiny_cfg()
        params = init_params(cfg, seed=2)
        save_model(path, cfg, params, extra_fields={"steps": 7})
        cfg2, p2, extra, opt2 = load_model(path)
        assert cfg2 == cfg
        assert extra["steps"] == "7" and extra["kind"] == "model"
        assert p2.keys() == params.keys()
        for k in params:
            np.testing.assert_array_equal(p2[k], params[k])
        assert opt2 == {}
        _, tensors = read_checkpoint(path)
        assert tensors.keys() == params.keys()

    def test_deterministic_bytes(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=2)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(p1, cfg, params)
        save_model(p2, cfg, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, {"n": "1"}, {"a": np.ones(3)})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            # "a" is written before "b" fails to convert
            write_checkpoint(path, {"n": "2"}, {"a": np.zeros(3), "b": ["x"]})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_corrupt_files_rejected(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValidationError):
            read_checkpoint(bad)
        good = tmp_path / "good.ckpt"
        write_checkpoint(good, {}, {"w": np.ones(4)})
        blob = good.read_bytes()
        (tmp_path / "trunc.ckpt").write_bytes(blob[:-8])
        with pytest.raises(ValidationError):
            read_checkpoint(tmp_path / "trunc.ckpt")
        (tmp_path / "trail.ckpt").write_bytes(blob + b"xx")
        with pytest.raises(ValidationError):
            read_checkpoint(tmp_path / "trail.ckpt")

    def test_bad_config_field_is_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(path, tiny_cfg(), init_params(tiny_cfg(), seed=1))
        fields, tensors = read_checkpoint(path)
        fields["d_model"] = "abc"
        write_checkpoint(path, fields, tensors)
        with pytest.raises(ConfigError, match="d_model"):
            load_model(path)

    def test_tensors_checked_against_config(self, tmp_path):
        """Missing, unexpected and misshapen tensors are rejected by name."""
        cfg = tiny_cfg()
        good = init_params(cfg, seed=1)
        cases = {
            "layers.0.ffn.w1": {k: v for k, v in good.items() if k != "layers.0.ffn.w1"},
            "final_ln.g": dict(good, **{"final_ln.g": np.ones(cfg.d_model)}),
            "head.w": dict(good, **{"head.w": np.ones((cfg.d_model, 3))}),
        }
        for name, params in cases.items():
            path = tmp_path / "m.ckpt"
            save_model(path, cfg, params)
            with pytest.raises(ValidationError, match=name):
                load_model(path)
        # the arch field selects the teacher layout, LayerNorm tensors included
        save_model(tmp_path / "t.ckpt", cfg, init_params(cfg, 1, kind="teacher"),
                   extra_fields={"arch": "dense"})
        load_model(tmp_path / "t.ckpt")

    def test_roundtrip_through_forward(self, tmp_path):
        """Loaded model reproduces the saved model's logits exactly."""
        cfg = tiny_cfg()
        params = init_params(cfg, seed=13)
        ids = np.array([1, 2, 3])
        before, _ = snn_forward(ids, cfg, params)
        save_model(tmp_path / "m.ckpt", cfg, params)
        cfg2, p2, _, _ = load_model(tmp_path / "m.ckpt")
        after, _ = snn_forward(ids, cfg2, p2)
        np.testing.assert_array_equal(before, after)


class TestRelaxedGradients:
    def test_model_grad_matches_fd_on_sampled_coords(self):
        """Relaxed-mode BPTT agrees with finite differences."""
        cfg = ModelConfig(vocab_size=7, d_model=4, n_layers=1, n_heads=2,
                          d_ff=6, max_seq_len=5, t_steps=2)
        params = init_params(cfg, seed=21)
        # move weights off the tiny init so thresholds see real variation
        params = {k: v * 30.0 for k, v in params.items()}
        ids = np.array([1, 3, 5])
        targets = np.array([3, 5, 0])

        def loss_from(pdict):
            logits, _ = snn_forward(ids, cfg, pdict, relaxed=True)
            lsm = ad.log_softmax(logits)
            picked = ad.gather_last(lsm, targets)
            return -(picked.mean() if isinstance(picked, ad.Var) else picked.mean())

        for key in ("layers.0.attn.w_q", "layers.0.ffn.w1", "tok_emb", "head.w"):
            vparams = dict(params)
            v = ad.Var(params[key].copy(), requires_grad=True)
            vparams[key] = v
            loss_from(vparams).backward()
            base = params[key].copy()

            def f(z, key=key):
                q = dict(params)
                q[key] = z
                return float(loss_from(q))

            fd = numerics.finite_diff_grad(f, base, eps=1e-5)
            denom = np.maximum(np.abs(fd), 1e-6)
            rel = np.abs(v.grad - fd) / denom
            frac_ok = float((rel < 1e-3).mean())
            assert frac_ok >= 0.95, f"{key}: only {frac_ok:.2%} coords match"
