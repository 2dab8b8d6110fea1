"""Energy model tests: FLOP counting, SOP conversion, report arithmetic."""

import numpy as np
import pytest

from spikeclm import autodiff as ad, energy, numerics
from spikeclm.data import make_windows
from spikeclm.distill import SpadConfig, spad_losses
from spikeclm.energy import count_flops, energy_report, sops
from spikeclm.errors import ConfigError, ValidationError
from spikeclm.model import ModelConfig, TraceBundle, ann_forward, init_params, snn_forward
from spikeclm.training import evaluate_ce


class TestFlopCounts:
    def test_toy_hand_count(self):
        """d=2, L=1, h=1, d_ff=4, V=4: proj 16, scores 2, values 2, ffn 16, head 8."""
        cfg = ModelConfig(vocab_size=4, d_model=2, n_layers=1, n_heads=1,
                          d_ff=4, max_seq_len=4, t_steps=1)
        fc = count_flops(cfg, 1)
        assert fc.embed == 0
        assert fc.sfsa == [16 + 2 + 2]
        assert fc.sffn == [16]
        assert fc.head == 8
        assert fc.total() == 20 + 16 + 8

    def test_quadratic_in_seq_len(self):
        cfg = ModelConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2,
                          d_ff=16, max_seq_len=64, t_steps=1)
        # projections scale linearly in L, score/value terms (2 * h * L^2 * d_head)
        # quadratically; here d=8, h=2, d_head=4
        assert count_flops(cfg, 8).sfsa[0] == 4 * 8 * 64 + 2 * 2 * 8 * 8 * 4
        assert count_flops(cfg, 16).sfsa[0] == 4 * 16 * 64 + 2 * 2 * 16 * 16 * 4

    def test_seq_len_validation(self):
        cfg = ModelConfig(max_seq_len=8)
        with pytest.raises(ConfigError):
            count_flops(cfg, 0)
        with pytest.raises(ConfigError):
            count_flops(cfg, 9)

    def test_teacher_macs_equal_counted_flops(self):
        """Dense forward performs exactly the analytically counted MACs."""
        cfg = ModelConfig(vocab_size=13, d_model=8, n_layers=2, n_heads=2,
                          d_ff=12, max_seq_len=9, t_steps=1)
        params = init_params(cfg, seed=1, arch="dense")
        ids = np.arange(7) % 13
        with numerics.count_macs() as c:
            ann_forward(ids, cfg, params)
        assert c.macs == count_flops(cfg, 7).total()

    def test_eval_and_taped_step_macs_equal_counted_flops(self):
        """evaluate_ce counts B * (T * (sfsa + sffn) + head) MACs; a taped SpAD
        step counts the student's and the teacher's forward, and its backward
        products none."""
        cfg = ModelConfig(vocab_size=257, d_model=8, n_layers=2, n_heads=2,
                          d_ff=12, max_seq_len=8, t_steps=2)
        tcfg = ModelConfig(vocab_size=257, d_model=8, n_layers=2, n_heads=2,
                           d_ff=12, max_seq_len=8, t_steps=1)
        params = init_params(cfg, seed=1)
        ids = np.array([[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]])
        fc = count_flops(cfg, 6)
        student = 2 * (2 * (sum(fc.sfsa) + sum(fc.sffn)) + fc.head)
        windows = make_windows(np.arange(24), 6)
        with numerics.count_macs() as c:
            evaluate_ce(cfg, params, windows, batch_size=2)
        assert c.macs == len(windows) // 2 * student
        with numerics.count_macs() as c:
            vparams = {k: ad.Var(v) for k, v in params.items()}
            logits, s_trace = snn_forward(ids, cfg, vparams)
            _, t_trace = ann_forward(ids, tcfg, init_params(tcfg, 2, arch="dense"))
            total, _ = spad_losses(logits, s_trace, t_trace, ids + 1,
                                   SpadConfig(), cfg.neuron_spec().lif)
            total.backward()
        assert c.macs == student + 2 * count_flops(tcfg, 6).total() == 88512

    def test_teacher_macs_scale_with_batch(self):
        cfg = ModelConfig(vocab_size=13, d_model=8, n_layers=1, n_heads=2,
                          d_ff=12, max_seq_len=9, t_steps=1)
        params = init_params(cfg, seed=1, arch="dense")
        batch = np.stack([np.arange(5), np.arange(5) + 2]) % 13
        with numerics.count_macs() as c:
            ann_forward(batch, cfg, params)
        assert c.macs == 2 * count_flops(cfg, 5).total()


class TestSops:
    def test_hand_value(self):
        assert sops(0.5, 4, 100) == 200

    def test_zero_rate_zero_sops(self):
        assert sops(0.0, 8, 12345) == 0

    def test_full_rate_is_t_times_flops(self):
        assert sops(1.0, 3, 10) == 30

    def test_rounding(self):
        assert sops(1.0 / 3.0, 1, 10) == 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            sops(1.5, 2, 10)
        with pytest.raises(ValidationError):
            sops(-0.1, 2, 10)
        with pytest.raises(ConfigError):
            sops(0.5, 0, 10)
        with pytest.raises(ConfigError):
            sops(0.5, 2, -1)


def synthetic_trace(cfg, seq_len, rates):
    """Trace with prescribed per-layer (sfsa, sffn) firing rates: the rates
    of 1000-entry layerN.in and layerN.mid stacks."""
    tr = TraceBundle(seq_len=seq_len, t_steps=cfg.t_steps, n_layers=cfg.n_layers)
    for i, layer_rates in enumerate(rates):
        for part, r in zip(("in", "mid"), layer_rates):
            tr.activity[f"layer{i}.{part}"] = (np.arange(1000) < r * 1000).astype(float)
    return tr


class TestEnergyReport:
    def setup_method(self):
        self.cfg = ModelConfig(vocab_size=4, d_model=2, n_layers=1, n_heads=1,
                               d_ff=4, max_seq_len=4, t_steps=2)

    def test_hand_arithmetic(self):
        """One layer at L=1 with known rates, checked against a calculator."""
        tr = synthetic_trace(self.cfg, 1, [(0.5, 0.25)])
        rep = energy_report(self.cfg, tr)
        assert (rep.e_mac, rep.e_ac) == (4.6e-12, 0.9e-12)  # the 45 nm figures
        le = rep.layers[0]
        assert le.sfsa_sops == round(0.5 * 2 * 20)   # 20
        assert le.sffn_sops == round(0.25 * 2 * 16)  # 8
        want_snn = 4.6e-12 * 8 + 0.9e-12 * 28
        want_ann = 4.6e-12 * (20 + 16 + 8)
        np.testing.assert_allclose(rep.snn_energy_j, want_snn, rtol=1e-12)
        np.testing.assert_allclose(rep.ann_energy_j, want_ann, rtol=1e-12)

    def test_zero_rates_leave_only_mac_stages(self):
        tr = synthetic_trace(self.cfg, 1, [(0.0, 0.0)])
        rep = energy_report(self.cfg, tr)
        np.testing.assert_allclose(rep.snn_energy_j, 4.6e-12 * 8, rtol=1e-12)

    def test_full_rate_single_step_accumulates_everything(self):
        cfg = ModelConfig(vocab_size=4, d_model=2, n_layers=1, n_heads=1,
                          d_ff=4, max_seq_len=4, t_steps=1)
        tr = synthetic_trace(cfg, 1, [(1.0, 1.0)])
        rep = energy_report(cfg, tr)
        np.testing.assert_allclose(
            rep.snn_energy_j, 4.6e-12 * 8 + 0.9e-12 * 36, rtol=1e-12)

    def test_report_from_real_forward(self):
        cfg = ModelConfig(vocab_size=9, d_model=8, n_layers=2, n_heads=2,
                          d_ff=12, max_seq_len=8, t_steps=2)
        params = init_params(cfg, seed=4)
        _, trace = snn_forward(np.arange(6) % 9, cfg, params)
        rep = energy_report(cfg, trace)
        assert rep.snn_energy_j >= 4.6e-12 * rep.head_flops
        assert len(rep.layers) == 2
        for le in rep.layers:
            assert 0.0 <= le.sfsa_rate <= 1.0 and 0.0 <= le.sffn_rate <= 1.0
            assert le.sfsa_sops <= cfg.t_steps * le.sfsa_flops

    def test_render_parse_roundtrip(self):
        tr = synthetic_trace(self.cfg, 1, [(0.5, 0.25)])
        rep = energy_report(self.cfg, tr)
        text = energy.render_report(rep)
        assert text.startswith("snn-energy-report v1\n")
        back = energy.parse_report(text)
        assert back["seq_len"] == 1 and back["t_steps"] == 2
        assert back["layer0.sfsa.sops"] == rep.layers[0].sfsa_sops
        np.testing.assert_allclose(back["snn_energy_mj"], rep.snn_energy_mj, rtol=1e-9)
        np.testing.assert_allclose(back["e_mac_pj"], 4.6)
        with pytest.raises(ValidationError):
            energy.parse_report("bogus\n")

    @pytest.mark.parametrize("line", ["seq_len: abc", "seq_len 16"])
    def test_parse_rejects_line_without_number(self, line):
        with pytest.raises(ValidationError, match=repr(line)):
            energy.parse_report(f"snn-energy-report v1\n{line}\n")
