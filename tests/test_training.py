"""Optimizer, schedule, and training-loop tests."""

import ctypes
import dataclasses
import platform
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from spikeclm import autodiff as ad, data, training
from spikeclm.distill import SpadConfig, loss_hard
from spikeclm.errors import ConfigError, EvaluationError, InternalError, ValidationError
from spikeclm.model import ModelConfig, ann_forward, init_params, snn_forward
from spikeclm.training import (MetricsRow, TrainConfig, adam_step, bptt_backward,
                               check_compat, clip_gradients, evaluate_ce,
                               format_metrics, global_norm, init_adam, lr_schedule,
                               parse_metrics, train_loop)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_rejections(self):
        bad = [dict(total_steps=-1), dict(batch_size=0), dict(seq_len=0),
               dict(lr_peak=0.0), dict(warmup_ratio=1.0), dict(grad_clip=0.0),
               dict(adam_beta1=1.0), dict(adam_eps=0.0), dict(val_fraction=-0.1)]
        for kw in bad:
            with pytest.raises(ConfigError):
                TrainConfig(**kw).validate()


class TestLrSchedule:
    def test_known_values(self):
        cfg = TrainConfig(total_steps=100, lr_peak=5e-4, warmup_ratio=0.2)
        assert lr_schedule(0, cfg) == 0.0
        np.testing.assert_allclose(lr_schedule(10, cfg), 2.5e-4, rtol=1e-12)
        np.testing.assert_allclose(lr_schedule(20, cfg), 5e-4, rtol=1e-12)
        np.testing.assert_allclose(lr_schedule(60, cfg), 2.5e-4, rtol=1e-12)
        assert abs(lr_schedule(100, cfg)) < 1e-12

    def test_warmup_monotone_then_decay(self):
        cfg = TrainConfig(total_steps=50, warmup_ratio=0.2)
        vals = [lr_schedule(s, cfg) for s in range(51)]
        assert all(b > a for a, b in zip(vals[:10], vals[1:11]))
        assert all(b <= a for a, b in zip(vals[10:50], vals[11:51]))
        assert max(vals) <= cfg.lr_peak + 1e-15

    def test_zero_warmup(self):
        cfg = TrainConfig(total_steps=10, warmup_ratio=0.0)
        assert lr_schedule(0, cfg) == cfg.lr_peak

    def test_step_out_of_range(self):
        cfg = TrainConfig(total_steps=10)
        with pytest.raises(ConfigError):
            lr_schedule(11, cfg)
        with pytest.raises(ConfigError):
            lr_schedule(-1, cfg)


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        g = {"a": np.array([0.3, 0.4])}  # norm 0.5
        out, norm = clip_gradients(g, 0.7)
        assert out["a"] is g["a"]
        np.testing.assert_allclose(norm, 0.5)

    def test_norm_seven_scaled_by_tenth(self):
        g = {"a": np.array([3.0]), "b": np.array([2.0, 6.0])}  # norm 7
        out, norm = clip_gradients(g, 0.7)
        np.testing.assert_allclose(norm, 7.0, rtol=1e-12)
        np.testing.assert_allclose(out["a"], [0.3], rtol=1e-12)
        np.testing.assert_allclose(global_norm(out), 0.7, atol=1e-12)

    def test_zero_grads_unchanged(self):
        g = {"a": np.zeros(4)}
        out, norm = clip_gradients(g, 0.7)
        assert norm == 0.0
        np.testing.assert_array_equal(out["a"], np.zeros(4))

    def test_clipped_norm_never_exceeds_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = {f"p{i}": rng.normal(size=rng.integers(1, 9)) * 10
                 for i in range(3)}
            out, _ = clip_gradients(g, 0.7)
            assert global_norm(out) <= 0.7 + 1e-9

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            clip_gradients({"a": np.ones(1)}, 0.0)


class TestAdam:
    def test_zero_grad_leaves_params(self):
        cfg = TrainConfig()
        params = {"w": np.array([1.0, -2.0])}
        st = init_adam(params)
        out = adam_step(params, {"w": np.zeros(2)}, st, 1e-3, cfg)
        np.testing.assert_array_equal(out["w"], params["w"])
        assert st.t == 1

    def test_first_step_is_signed_lr(self):
        """Bias correction makes step one exactly lr*sign(g) up to eps."""
        cfg = TrainConfig()
        params = {"w": np.array([0.0, 0.0])}
        g = {"w": np.array([0.3, -0.01])}
        out = adam_step(params, g, init_adam(params), 1e-3, cfg)
        np.testing.assert_allclose(out["w"], [-1e-3, 1e-3], rtol=1e-6)

    def test_constant_grad_step_magnitude_tends_to_lr(self):
        cfg = TrainConfig()
        params = {"w": np.array([0.0])}
        st = init_adam(params)
        g = {"w": np.array([0.37])}
        prev = params["w"].copy()
        for _ in range(300):
            params = adam_step(params, g, st, 1e-3, cfg)
        step = prev - params["w"]
        last = adam_step(params, g, st, 1e-3, cfg)
        np.testing.assert_allclose(params["w"][0] - last["w"][0], 1e-3, rtol=1e-3)

    def test_deterministic(self):
        cfg = TrainConfig()
        runs = []
        for _ in range(2):
            params = {"w": np.linspace(-1, 1, 5)}
            st = init_adam(params)
            for t in range(10):
                params = adam_step(params, {"w": np.sin(np.arange(5.0) + t)},
                                   st, 1e-2, cfg)
            runs.append(params["w"])
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_shape_mismatch_internal_error(self):
        cfg = TrainConfig()
        params = {"w": np.zeros(3)}
        with pytest.raises(InternalError):
            adam_step(params, {"w": np.zeros(2)}, init_adam(params), 1e-3, cfg)


class TestBpttBackward:
    def test_zero_upstream_gives_zero_grads(self):
        w = ad.Var(np.ones((2, 2)))
        loss = (w * 0.0).sum()
        grads = bptt_backward(loss, {"w": w})
        np.testing.assert_array_equal(grads["w"], np.zeros((2, 2)))

    def test_untouched_param_gets_zeros(self):
        w = ad.Var(np.ones(3))
        u = ad.Var(np.ones(2))
        loss = (w * w).sum()
        grads = bptt_backward(loss, {"w": w, "u": u})
        np.testing.assert_array_equal(grads["u"], np.zeros(2))
        np.testing.assert_array_equal(grads["w"], 2 * np.ones(3))

    def test_needs_taped_loss(self):
        with pytest.raises(InternalError):
            bptt_backward(1.0, {})


class TestCheckCompat:
    def test_ok_pair(self):
        s = ModelConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16, max_seq_len=8)
        t = ModelConfig(d_model=8, n_layers=4, n_heads=4, d_ff=16, max_seq_len=8)
        check_compat(s, t, SpadConfig())

    def test_vocab_mismatch(self):
        s = ModelConfig(vocab_size=100, d_model=8, n_layers=1, n_heads=1, d_ff=8)
        t = ModelConfig(vocab_size=257, d_model=8, n_layers=1, n_heads=1, d_ff=8)
        with pytest.raises(ConfigError):
            check_compat(s, t, SpadConfig())

    def test_student_deeper(self):
        s = ModelConfig(d_model=8, n_layers=3, n_heads=1, d_ff=8)
        t = ModelConfig(d_model=8, n_layers=2, n_heads=1, d_ff=8)
        with pytest.raises(ConfigError):
            check_compat(s, t, SpadConfig())

    def test_head_divisibility(self):
        s = ModelConfig(d_model=12, n_layers=1, n_heads=3, d_ff=8)
        t = ModelConfig(d_model=12, n_layers=1, n_heads=4, d_ff=8)
        with pytest.raises(ConfigError):
            check_compat(s, t, SpadConfig())

    def test_width_mismatch_needs_equal_widths(self):
        s = ModelConfig(d_model=8, n_layers=1, n_heads=1, d_ff=8)
        t = ModelConfig(d_model=16, n_layers=1, n_heads=1, d_ff=8)
        for lambdas in ((0.2, 0.1, 0.1, 0.3, 0.3), (0.2, 0.1, 0.0, 0.3, 0.4),
                        (0.0, 0.1, 0.2, 0.3, 0.4)):
            with pytest.raises(ConfigError, match="student d_model 8, teacher d_model 16"):
                check_compat(s, t, SpadConfig(lambdas=lambdas))
        # ablating the width-sensitive losses clears the requirement
        check_compat(s, t, SpadConfig(lambdas=(0.0, 0.2, 0.0, 0.4, 0.4)))


class TestMetricsFormat:
    def test_roundtrip(self):
        rows = [MetricsRow(1, 1e-4, 5.5, 0.1, 0.2, 0.3, 0.4, 4.5, 0.12),
                MetricsRow(2, 2e-4, 5.0, 0.1, 0.2, 0.3, 0.4, 4.0, 0.15)]
        back = parse_metrics(format_metrics(rows))
        assert [r.step for r in back] == [1, 2]
        np.testing.assert_allclose(back[1].hard, 4.0)

    def test_bad_magic(self):
        with pytest.raises(Exception):
            parse_metrics("step\tlr\n1\t0.1\n")

    def test_non_numeric_field_names_row(self):
        good = format_metrics([MetricsRow(1, 1e-4, 5.5, 0.1, 0.2, 0.3, 0.4, 4.5, 0.12)])
        for bad in (good.replace("\n1\t", "\nx\t"), good.replace("\t5.5\t", "\tabc\t")):
            with pytest.raises(ValidationError, match="malformed metrics row"):
                parse_metrics(bad)


def tiny_corpus(n=400):
    return data.encode("ab" * (n // 2))


def tiny_model(**kw):
    base = dict(vocab_size=257, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                max_seq_len=8, t_steps=2)
    base.update(kw)
    return ModelConfig(**base)


class TestTrainLoop:
    def test_zero_steps_returns_initial_params(self):
        cfg = TrainConfig(total_steps=0, batch_size=2, seq_len=8, seed=5)
        res = train_loop(cfg, tiny_model(), tiny_corpus())
        want = init_params(tiny_model(), 5)
        assert res.params.keys() == want.keys()
        for k in want:
            np.testing.assert_array_equal(res.params[k], want[k])
        assert res.metrics == []

    def test_deterministic_across_runs(self):
        cfg = TrainConfig(total_steps=3, batch_size=2, seq_len=8, seed=1)
        a = train_loop(cfg, tiny_model(), tiny_corpus())
        b = train_loop(cfg, tiny_model(), tiny_corpus())
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        assert format_metrics(a.metrics) == format_metrics(b.metrics)

    def test_metrics_file_written(self, tmp_path):
        path = tmp_path / "m.tsv"
        cfg = TrainConfig(total_steps=2, batch_size=2, seq_len=8)
        res = train_loop(cfg, tiny_model(), tiny_corpus(), metrics_path=path)
        rows = parse_metrics(path.read_text())
        assert [r.step for r in rows] == [1, 2]
        assert rows[0].loss == pytest.approx(res.metrics[0].loss)
        assert 0.0 <= rows[0].fire_rate <= 1.0

    def test_teacher_mode_learns_fast(self):
        cfg = TrainConfig(total_steps=80, batch_size=4, seq_len=8, lr_peak=0.02,
                          val_fraction=0.0, seed=3)
        res = train_loop(cfg, tiny_model(d_model=16, d_ff=32), tiny_corpus(),
                         mode="teacher")
        assert res.metrics[0].fire_rate == 0.0
        assert res.metrics[-1].loss < np.log(256)

    def test_each_step_is_one_batch(self, monkeypatch):
        """Step s reads batch s of batch_size windows through one forward and
        one backward, whose gradient is clipped and applied unscaled."""
        corpus = data.encode("the quick brown fox jumps over the lazy dog " * 8)
        cfg = TrainConfig(total_steps=2, batch_size=2, seq_len=8, seed=2,
                          val_fraction=0.0)
        m_cfg = tiny_model(u_thr=0.03, attn_thr=0.03)  # low enough to fire
        windows = data.make_windows(corpus, cfg.seq_len)
        start = want = init_params(m_cfg, cfg.seed)
        opt = init_adam(want)
        for step in range(cfg.total_steps):
            xb, yb = data.batch_at(windows, step, cfg.batch_size)
            vparams = {k: ad.Var(p) for k, p in want.items()}
            logits, _ = snn_forward(xb, m_cfg, vparams)
            loss = loss_hard(logits.reshape((-1, logits.shape[-1])), yb.reshape(-1))
            grads, _ = clip_gradients(bptt_backward(loss, vparams), cfg.grad_clip)
            want = adam_step(want, grads, opt, lr_schedule(step + 1, cfg), cfg)
        assert not np.array_equal(want["head.w"], start["head.w"])
        got = train_loop(cfg, m_cfg, corpus).params
        for k in want:
            assert np.array_equal(got[k], want[k]), k

        order = []
        batch_at, backward = data.batch_at, training.bptt_backward
        monkeypatch.setattr(data, "batch_at",
                            lambda w, i, b: order.append(i) or batch_at(w, i, b))
        monkeypatch.setattr(training, "bptt_backward",
                            lambda *a: order.append("backward") or backward(*a))
        train_loop(dataclasses.replace(cfg, total_steps=3), m_cfg, corpus)
        assert order == [0, "backward", 1, "backward", 2, "backward"]

    def test_one_tape_alive_per_step(self):
        """Each step's tape is released once its backward has run, so three
        steps peak where one does; a tape kept into the next forward reads ~1.65x."""
        m_cfg = tiny_model(d_model=32, n_layers=2, d_ff=128, max_seq_len=32)

        def peak(steps):
            cfg = TrainConfig(total_steps=steps, batch_size=4, seq_len=32,
                              val_fraction=0.0)
            tracemalloc.start()
            try:
                train_loop(cfg, m_cfg, tiny_corpus())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(3) <= 1.2 * peak(1)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_freed_pages_kept_mapped_on_glibc(self):
        assert training._keep_freed_pages_mapped()

    def test_runs_the_same_without_mallopt(self, monkeypatch):
        cfg = TrainConfig(total_steps=3, batch_size=2, seq_len=8, seed=1)
        want = train_loop(cfg, tiny_model(), tiny_corpus())
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert not training._keep_freed_pages_mapped()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = train_loop(cfg, tiny_model(), tiny_corpus())
        for k in want.params:
            assert np.array_equal(got.params[k], want.params[k]), k
        assert np.array_equal([dataclasses.astuple(r) for r in got.metrics],
                              [dataclasses.astuple(r) for r in want.metrics])
        assert got.val_ce == want.val_ce

    def test_spad_requires_teacher(self):
        cfg = TrainConfig(total_steps=1, batch_size=2, seq_len=8)
        with pytest.raises(ConfigError):
            train_loop(cfg, tiny_model(), tiny_corpus(), mode="spad")

    @pytest.mark.parametrize("t_kw,s_kw,match", [
        (dict(n_layers=1), dict(n_layers=2), "student has 2 layers but teacher only 1"),
        (dict(max_seq_len=4), {}, "train.seq_len 8 exceeds the teacher's max_seq_len 4"),
        ({}, dict(max_seq_len=4), "train.seq_len 8 exceeds model.max_seq_len 4")])
    def test_spad_incompatible_teacher_rejected_before_step(self, t_kw, s_kw, match,
                                                            monkeypatch):
        t_cfg = tiny_model(**t_kw)
        t_params = init_params(t_cfg, 0, arch="dense")
        cfg = TrainConfig(total_steps=1, batch_size=2, seq_len=8)

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(training, "_step_loss", no_step)
        with pytest.raises(ConfigError, match=match):
            train_loop(cfg, tiny_model(**s_kw), tiny_corpus(), mode="spad",
                       teacher_cfg=t_cfg, teacher_params=t_params)

    @pytest.mark.parametrize("mode,arch,teacher_arch,match", [
        ("hard", "dense", None, "hard training needs spiking parameters, got a dense model's"),
        ("spad", "dense", "dense",
         "spad training needs spiking parameters, got a dense model's"),
        ("teacher", "spiking", None,
         "teacher training needs dense parameters, got a spiking model's"),
        ("spad", None, "spiking", "spad training needs a dense teacher, got a spiking one")])
    def test_wrong_family_params_rejected_before_step(self, mode, arch, teacher_arch, match,
                                                      tmp_path, monkeypatch):
        """Given parameters of the other family fail before step 1, and no
        metrics file (nor its temp file) is made."""
        m_cfg = tiny_model()
        kw = {}
        if arch:
            kw["params"] = init_params(m_cfg, 0, arch)
        if teacher_arch:
            kw.update(teacher_cfg=m_cfg, teacher_params=init_params(m_cfg, 1, teacher_arch))

        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(training, "_step_loss", no_step)
        with pytest.raises(ConfigError, match=match):
            train_loop(TrainConfig(total_steps=2, batch_size=2, seq_len=8), m_cfg,
                       tiny_corpus(), mode=mode, metrics_path=tmp_path / "m.tsv", **kw)
        assert list(tmp_path.iterdir()) == []

    def test_spad_mode_runs_and_logs_components(self):
        t_cfg = tiny_model(n_layers=2, n_heads=2)
        t_params = init_params(t_cfg, 0, arch="dense")
        cfg = TrainConfig(total_steps=2, batch_size=2, seq_len=8, seed=4)
        res = train_loop(cfg, tiny_model(), tiny_corpus(), mode="spad",
                         teacher_cfg=t_cfg, teacher_params=t_params)
        r = res.metrics[0]
        np.testing.assert_allclose(r.loss, r.emb + r.attn + r.feat + r.soft + r.hard,
                                   rtol=1e-9)
        assert res.val_ce is not None and np.isfinite(res.val_ce)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            train_loop(TrainConfig(total_steps=1), tiny_model(), tiny_corpus(),
                       mode="qat")

    def test_non_finite_step_is_named(self, tmp_path):
        """The failed run leaves the earlier metrics file, and no temp file."""
        params = init_params(tiny_model(), 0)
        params["head.w"][0, 0] = np.nan
        path = tmp_path / "m.tsv"
        path.write_text("earlier")
        cfg = TrainConfig(total_steps=3, batch_size=2, seq_len=8)
        with pytest.raises(EvaluationError, match="training step 1"):
            train_loop(cfg, tiny_model(), tiny_corpus(), params=params,
                       metrics_path=path)
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "earlier"


    def test_divergence_checked_once_warmup_is_over(self, tmp_path):
        """A loss far above ln(vocab_size) stops the run at the first step
        past the warmup span (2 of 4 steps here), not during it."""
        params = init_params(tiny_model(), 0)
        params["tok_emb"] *= 100.0  # the encoder fires, so the head sees spikes
        params["head.w"] *= 1e4
        cfg = TrainConfig(total_steps=4, batch_size=2, seq_len=8, warmup_ratio=0.5,
                          lr_peak=1e-9)
        # the starting loss is already past the bound, so step 1 ran past it
        ws = data.make_windows(tiny_corpus(), 8)
        assert evaluate_ce(tiny_model(), params, ws) > 10 * np.log(257)
        path = tmp_path / "m.tsv"
        with pytest.raises(EvaluationError, match="diverged at step 2: loss .* exceeds 10 "):
            train_loop(cfg, tiny_model(), tiny_corpus(), params=params, metrics_path=path)
        assert list(tmp_path.iterdir()) == []

    def test_metrics_replace_the_file_only_after_validation(self, tmp_path, monkeypatch):
        """Rows stream into a temp file beside the target, which a failing
        validation pass removes, leaving the earlier file."""
        path = tmp_path / "m.tsv"
        path.write_text("earlier")
        seen = []

        def failing_eval(*args, **kwargs):
            seen.extend(p.name for p in tmp_path.iterdir())
            tmp = next(p for p in tmp_path.iterdir() if p != path)
            assert len(parse_metrics(tmp.read_text())) == 2
            raise EvaluationError("validation failed")
        monkeypatch.setattr(training, "evaluate_ce", failing_eval)
        cfg = TrainConfig(total_steps=2, batch_size=2, seq_len=8)
        with pytest.raises(EvaluationError, match="validation failed"):
            train_loop(cfg, tiny_model(), tiny_corpus(), metrics_path=path)
        assert len(seen) == 2 and any(name.endswith(".tmp") for name in seen)
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "earlier"


class TestEvaluateCe:
    def test_zero_params_give_uniform_ce(self):
        cfg = tiny_model()
        params = {k: np.zeros_like(v) for k, v in init_params(cfg, 0).items()}
        ws = data.make_windows(tiny_corpus(64), 8)
        np.testing.assert_allclose(evaluate_ce(cfg, params, ws, batch_size=4),
                                   np.log(257), rtol=1e-12)

    def test_dense_path(self):
        cfg = tiny_model()
        params = init_params(cfg, 0, arch="dense")
        ws = data.make_windows(tiny_corpus(64), 8)
        ce = evaluate_ce(cfg, params, ws, batch_size=4)
        assert np.isfinite(ce) and ce > 0

    @pytest.mark.parametrize("arch", ["dense", "spiking"])
    def test_forward_follows_the_params_family(self, arch):
        """On a teacher's parameters evaluate_ce is, bit for bit, the
        token-weighted mean CE of ann_forward over the batches; on a
        student's, that of snn_forward."""
        cfg = tiny_model()
        params = init_params(cfg, 0, arch)
        params["tok_emb"] *= 50.0  # so that the student fires
        ws = data.make_windows(tiny_corpus(64), 8)
        total, denom = 0.0, 0
        for start in range(0, len(ws), 3):
            xb, yb = ws.inputs[start:start + 3], ws.targets[start:start + 3]
            if arch == "dense":
                logits, _ = ann_forward(xb, cfg, params)
            else:
                logits, _ = snn_forward(xb, cfg, params, collect=False)
            total += float(loss_hard(logits.reshape(-1, 257), yb.reshape(-1))) * yb.size
            denom += yb.size
        ce = evaluate_ce(cfg, params, ws, batch_size=3)
        assert ce == total / denom and ce != np.log(257)

    def test_non_finite_logits_name_the_batch(self):
        cfg = tiny_model(d_model=16, d_ff=32)
        params = init_params(cfg, 0)
        params["head.w"][:] = np.nan
        ws = data.make_windows(tiny_corpus(64), 8)
        with pytest.raises(EvaluationError, match="batch 0"):
            evaluate_ce(cfg, params, ws, batch_size=4)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(batch_size=0), "batch_size"), (dict(batch_size=-2), "batch_size")])
    def test_bad_batch_args_rejected(self, kwargs, field):
        """Values below 1 raise ConfigError, not a ZeroDivisionError."""
        cfg = tiny_model()
        ws = data.make_windows(tiny_corpus(64), 8)
        with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
            evaluate_ce(cfg, init_params(cfg, 0), ws, **kwargs)
