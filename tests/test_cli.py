"""End-to-end CLI tests, run through main(): in-process, and selftest once in a
fresh process that cannot import pytest."""

import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from spikeclm import energy, selftest
from spikeclm.cli import RunConfig, apply_setting, main, to_ini
from spikeclm.errors import ConfigError
from spikeclm.model import (ModelConfig, init_params, load_model, read_checkpoint,
                            save_model, write_checkpoint)
from spikeclm.training import parse_metrics

MODEL_FLAGS = ["--set", "model.d_model=8", "--set", "model.n_layers=1",
               "--set", "model.n_heads=2", "--set", "model.d_ff=16",
               "--set", "model.max_seq_len=8"]


@pytest.fixture()
def corpus_file(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("hello world " * 300)
    return str(p)


def run_cli(*argv):
    return main(list(argv))


class TestConfigPlumbing:
    def test_ini_roundtrip(self):
        rc = RunConfig()
        rc.corpus = "/x/corpus.txt"
        rc.model.d_model = 48
        rc.train.lr_peak = 0.003
        rc.spad.lambdas = (0.0, 0.0, 0.0, 0.5, 0.5)
        text = to_ini(rc)
        rc2 = RunConfig()
        import configparser
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(text)
        for sec in cp.sections():
            for k, v in cp.items(sec):
                apply_setting(rc2, sec, k, v)
        assert rc2.corpus == rc.corpus
        assert rc2.model.d_model == 48
        assert rc2.train.lr_peak == 0.003
        assert rc2.spad.lambdas == (0.0, 0.0, 0.0, 0.5, 0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_setting(RunConfig(), "model", "hidden_size", "64")
        with pytest.raises(ConfigError):
            apply_setting(RunConfig(), "banana", "x", "1")

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match="train.lr_peak"):
            apply_setting(RunConfig(), "train", "lr_peak", "fast")


class TestTrainCommand:
    def test_writes_checkpoint_metrics_snapshot(self, tmp_path, corpus_file):
        out = str(tmp_path / "s.ckpt")
        metrics = str(tmp_path / "m.tsv")
        rc = run_cli("train", "--corpus", corpus_file, "--out", out,
                     "--metrics", metrics, "--steps", "3", "--seq-len", "8",
                     "--batch-size", "2", *MODEL_FLAGS)
        assert rc == 0
        cfg, params, extra, opt = load_model(out)
        assert cfg.d_model == 8 and extra["arch"] == "spiking"
        assert extra["trained_steps"] == "3"
        assert any(k.startswith("m.") for k in opt)
        rows = parse_metrics((tmp_path / "m.tsv").read_text())
        assert len(rows) == 3
        assert (tmp_path / "s.ckpt.config").exists()

    def test_snapshot_rerun_is_bit_exact(self, tmp_path, corpus_file):
        out = tmp_path / "s.ckpt"
        metrics = tmp_path / "m.tsv"
        args = ["train", "--corpus", corpus_file, "--out", str(out),
                "--metrics", str(metrics), "--steps", "3", "--seq-len", "8",
                "--batch-size", "2", *MODEL_FLAGS]
        assert run_cli(*args) == 0
        first_ckpt = out.read_bytes()
        first_metrics = metrics.read_bytes()
        assert run_cli("train", "--config", str(out) + ".config") == 0
        assert out.read_bytes() == first_ckpt
        assert metrics.read_bytes() == first_metrics

    def test_flag_overrides_config(self, tmp_path, corpus_file):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\ncorpus = {corpus_file}\n\n[train]\ntotal_steps = 9\n")
        out = str(tmp_path / "s.ckpt")
        assert run_cli("train", "--config", str(ini), "--out", out, "--steps", "2",
                       "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS) == 0
        _, _, extra, _ = load_model(out)
        assert extra["trained_steps"] == "2"


class TestDistillCommand:
    def test_distill_requires_dense_teacher(self, tmp_path, corpus_file):
        student = str(tmp_path / "s.ckpt")
        assert run_cli("train", "--corpus", corpus_file, "--out", student,
                       "--steps", "1", "--seq-len", "8", "--batch-size", "2",
                       *MODEL_FLAGS) == 0
        rc = run_cli("distill", "--corpus", corpus_file, "--teacher", student,
                     "--out", str(tmp_path / "d.ckpt"), "--steps", "1",
                     "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS)
        assert rc == 2

    def test_full_chain(self, tmp_path, corpus_file):
        teacher = str(tmp_path / "t.ckpt")
        student = str(tmp_path / "d.ckpt")
        assert run_cli("train-teacher", "--corpus", corpus_file, "--out", teacher,
                       "--steps", "4", "--seq-len", "8", "--batch-size", "2",
                       *MODEL_FLAGS) == 0
        _, _, extra, _ = load_model(teacher)
        assert extra["arch"] == "dense"
        assert run_cli("distill", "--corpus", corpus_file, "--teacher", teacher,
                       "--out", student, "--steps", "2", "--seq-len", "8",
                       "--batch-size", "2", *MODEL_FLAGS) == 0
        _, _, extra, _ = load_model(student)
        assert extra["arch"] == "spiking"


class TestGenerateCommand:
    @pytest.fixture()
    def ckpt(self, tmp_path, corpus_file):
        out = str(tmp_path / "g.ckpt")
        run_cli("train", "--corpus", corpus_file, "--out", out, "--steps", "2",
                "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS)
        return out

    def test_greedy_is_deterministic(self, ckpt, capsys):
        assert run_cli("generate", "--checkpoint", ckpt, "--prompt", "he",
                       "--n-new", "12") == 0
        a = capsys.readouterr().out
        assert run_cli("generate", "--checkpoint", ckpt, "--prompt", "he",
                       "--n-new", "12") == 0
        assert capsys.readouterr().out == a

    def test_sampling_seeded(self, ckpt, capsys):
        args = ("generate", "--checkpoint", ckpt, "--prompt", "he", "--n-new",
                "12", "--temperature", "0.9", "--seed", "5")
        assert run_cli(*args) == 0
        a = capsys.readouterr().out
        assert run_cli(*args) == 0
        assert capsys.readouterr().out == a

    def test_rejects_dense_checkpoint(self, tmp_path, corpus_file, capsys):
        t = str(tmp_path / "t.ckpt")
        run_cli("train-teacher", "--corpus", corpus_file, "--out", t, "--steps",
                "1", "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS)
        assert run_cli("generate", "--checkpoint", t, "--prompt", "x") == 2


class TestProfileEval:
    @pytest.fixture()
    def ckpt(self, tmp_path, corpus_file):
        out = str(tmp_path / "p.ckpt")
        run_cli("train", "--corpus", corpus_file, "--out", out, "--steps", "2",
                "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS)
        return out

    def test_profile_report_parses(self, ckpt, corpus_file, capsys):
        assert run_cli("profile", "--checkpoint", ckpt, "--corpus", corpus_file,
                       "--seq-len", "8") == 0
        rep = energy.parse_report(capsys.readouterr().out)
        assert rep["seq_len"] == 8
        assert 0.0 <= rep["layer0.sfsa.firing_rate"] <= 1.0
        assert rep["snn_energy_mj"] > 0

    def test_profile_t_steps_override(self, ckpt, corpus_file, capsys):
        assert run_cli("profile", "--checkpoint", ckpt, "--corpus", corpus_file,
                       "--seq-len", "8", "--t-steps", "4") == 0
        rep = energy.parse_report(capsys.readouterr().out)
        assert rep["t_steps"] == 4

    def test_profile_bad_t_steps_is_one_error_line(self, ckpt, corpus_file, capsys):
        capsys.readouterr()
        assert run_cli("profile", "--checkpoint", ckpt, "--corpus", corpus_file,
                       "--seq-len", "8", "--t-steps", "-3") == 2
        assert capsys.readouterr().err == "error: t_steps must be >= 1, got -3\n"

    def test_profile_rejects_dense_checkpoint(self, tmp_path, corpus_file, capsys):
        t = str(tmp_path / "t.ckpt")
        assert run_cli("train-teacher", "--corpus", corpus_file, "--out", t, "--steps",
                       "1", "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS) == 0
        capsys.readouterr()
        assert run_cli("profile", "--checkpoint", t, "--corpus", corpus_file,
                       "--seq-len", "8") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: profile needs a spiking checkpoint, got a dense one\n"

    def test_eval_reports_ce_and_rates(self, ckpt, corpus_file, capsys):
        assert run_cli("eval", "--checkpoint", ckpt, "--corpus", corpus_file,
                       "--seq-len", "8") == 0
        out = capsys.readouterr().out
        assert out.startswith("val_ce: ")
        assert "layer0.sfsa_rate:" in out

    def test_eval_out_file_and_snapshot(self, ckpt, corpus_file, tmp_path, capsys):
        out = tmp_path / "eval.txt"
        assert run_cli("eval", "--checkpoint", ckpt, "--corpus", corpus_file,
                       "--seq-len", "8", "--out", str(out)) == 0
        capsys.readouterr()
        assert out.read_text().startswith("val_ce: ")
        assert (tmp_path / "eval.txt.config").exists()


class TestErrorPaths:
    def test_unknown_flag(self, capsys):
        assert run_cli("train", "--bogus") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_corpus_file(self, tmp_path, capsys):
        assert run_cli("train", "--corpus", str(tmp_path / "nope.txt"), "--out",
                       str(tmp_path / "x.ckpt"), "--steps", "1", *MODEL_FLAGS) == 2

    def test_missing_required_setting(self, capsys):
        assert run_cli("train", "--steps", "1") == 2
        assert "corpus" in capsys.readouterr().err

    def test_bad_set_syntax(self, capsys):
        assert run_cli("train", "--set", "no_equals") == 2
        assert run_cli("train", "--set", "flat=1") == 2

    def test_bad_spad_section_rejected_by_every_command(self, tmp_path, corpus_file, capsys):
        """[spad] is in every snapshot, so train must not write one that distill rejects."""
        out = tmp_path / "h.ckpt"
        assert run_cli("train", "--corpus", corpus_file, "--out", str(out), "--steps", "1",
                       "--set", "spad.lambdas=1,2", *MODEL_FLAGS) == 2
        assert capsys.readouterr().err == "error: need 5 loss weights, got 2\n"
        assert not out.exists() and not (tmp_path / "h.ckpt.config").exists()

    def test_malformed_config_file(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[model\nd_model = 8\n")
        assert run_cli("train", "--config", str(p)) == 2

    def test_checkpoint_missing_tensor(self, tmp_path, capsys):
        cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        ckpt = str(tmp_path / "s.ckpt")
        save_model(ckpt, cfg, init_params(cfg, 0), extra_fields={"arch": "spiking"})
        fields, tensors = read_checkpoint(ckpt)
        del tensors["layers.0.ffn.w1"]
        write_checkpoint(ckpt, fields, tensors)
        assert run_cli("generate", "--checkpoint", ckpt, "--prompt", "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "layers.0.ffn.w1" in err

    def test_checkpoint_non_finite_tensor(self, tmp_path, capsys):
        cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        params = init_params(cfg, 0)
        params["layers.0.attn.w_q"][0, 0] = np.nan
        ckpt = str(tmp_path / "nan.ckpt")
        save_model(ckpt, cfg, params, extra_fields={"arch": "spiking"})
        assert run_cli("generate", "--checkpoint", ckpt, "--prompt", "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "layers.0.attn.w_q" in err

    def test_selftest_command_passes(self):
        """One line per check and exit 0, in a process that cannot import pytest."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selftest.__file__)))
        code = ("import sys; sys.modules['pytest'] = None; "
                "from spikeclm.cli import main; sys.exit(main(['selftest']))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        n = len(selftest.CHECKS)
        assert [line.split()[1] for line in lines[:-1]] == [name for name, _ in selftest.CHECKS]
        assert all(line.startswith("ok   ") for line in lines[:-1])
        assert lines[-1] == f"{n}/{n} checks passed"

    def test_selftest_failure_reported_and_others_run(self, monkeypatch, capsys):
        def boom():
            raise AssertionError("broken on purpose")
        monkeypatch.setattr(selftest, "CHECKS", [("boom", boom),
                                                 ("rng-uniform", selftest.check_rng_uniform)])
        assert run_cli("selftest") == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL boom: broken on purpose", "ok   rng-uniform", "1/2 checks passed"]

    def test_selftest_fails_under_optimize_flag(self):
        """python -O strips bare asserts; the checks must still fail."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selftest.__file__)))
        code = ("import sys; from spikeclm import data, selftest; "
                "data.decode = lambda ids: 'garbage'; "
                "selftest.CHECKS = [('data-pipeline', selftest.check_data_pipeline)]; "
                "from spikeclm.cli import main; sys.exit(main(['selftest']))")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == ["FAIL data-pipeline: byte round trip",
                                            "0/1 checks passed"]

    def test_selftest_rejects_config_flags(self, tmp_path, capsys):
        """selftest reads no config: --config and --set are unknown flags."""
        assert run_cli("selftest", "--config", str(tmp_path / "missing.ini"),
                       "--set", "bogus.key=1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("check,n_saved", [
        (selftest.check_checkpoint_roundtrip, 1),
        (selftest.check_determinism, 2),
    ], ids=["checkpoint-roundtrip", "determinism"])
    def test_selftest_checkpoint_leaves_no_file(self, check, n_saved, tmp_path, monkeypatch):
        """Checkpoints and metrics go to a temporary directory that is removed."""
        written = []

        def recording_save(path, *args, **kw):
            written.append(path)
            return save_model(path, *args, **kw)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(selftest, "save_model", recording_save)
        check()
        assert len(written) == n_saved
        assert all(os.path.commonpath([p, tmp_path]) == str(tmp_path) for p in written)
        assert list(tmp_path.iterdir()) == []
