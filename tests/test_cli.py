"""End-to-end CLI tests, run through main(): in-process, and selftest once in a
fresh process that cannot import pytest."""

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest

from spikeclm import energy, selftest, training
from spikeclm.cli import (CONFIG_MAGIC, FLAGS, RunConfig, apply_setting, build_parser,
                          load_ini, main, resolve, to_ini)
from spikeclm.distill import SpadConfig
from spikeclm.errors import ConfigError
from spikeclm.model import (ModelConfig, init_params, load_model, read_checkpoint,
                            save_model, write_checkpoint)
from spikeclm.neurons import LifParams, TernaryParams
from spikeclm.training import TrainConfig, parse_metrics

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


def reload(text: str, tmp_path) -> RunConfig:
    """The RunConfig that load_ini makes of a config file holding text."""
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    rc = RunConfig()
    load_ini(rc, ini)
    return rc


# the last holds every code point below U+0300, a line separator and a byte
# that was not UTF-8 on the command line (a surrogate escape)
TRICKY_PROMPTS = ["the spike ", "a\nb ", '  "q" ; # [x] %s \u00e9', "", "\"", "x\\n",
                  "".join(map(chr, range(0x300))) + "\u2028\udcff"]


def one_more_head_mac(count_flops):
    """count_flops with one MAC too many in the head."""
    def patched(*args):
        fc = count_flops(*args)
        return replace(fc, head=fc.head + 1)
    return patched


class TestConfigPlumbing:
    def test_ini_roundtrip(self, tmp_path):
        rc = RunConfig()
        rc.corpus = "/x/corpus.txt"
        rc.model.d_model = 48
        rc.train.lr_peak = 0.003
        rc.train.spad.lambdas = (0.0, 0.0, 0.0, 0.5, 0.5)
        text = to_ini(rc)
        assert text.startswith(CONFIG_MAGIC + "\n")
        assert reload(text, tmp_path) == rc

    def test_snapshot_names_every_config_field(self, tmp_path):
        """Every field the config dataclasses hold is written and read back:
        a snapshot of a config that differs from the defaults in every field
        reloads equal to it."""
        rc = RunConfig()
        nested = {"model", "train", "spad"}
        for obj in (rc, rc.model, rc.train, rc.train.spad):
            for f in fields(obj):
                if f.name in nested:
                    continue
                v = getattr(obj, f.name)
                setattr(obj, f.name, v + (1 if isinstance(v, int) else 0.5 if isinstance(v, float)
                                          else (1.0,) if isinstance(v, tuple) else " x "))
        assert all(getattr(rc, f.name) != getattr(RunConfig(), f.name) for f in fields(rc))
        assert reload(to_ini(rc), tmp_path) == rc

    @pytest.mark.parametrize("prompt", TRICKY_PROMPTS, ids=lambda p: ascii(p)[:24])
    def test_v2_keeps_strings_whole(self, prompt, tmp_path):
        """Surrounding whitespace, line breaks, quotes, comment and section
        characters, % and non-ASCII text survive a snapshot."""
        rc = RunConfig(prompt=prompt, corpus=prompt + ".txt")
        assert reload(to_ini(rc), tmp_path) == rc

    def test_v1_snapshot_still_loads(self, tmp_path):
        """A snapshot with no magic line and unquoted strings, as written
        before v2, loads as configparser reads it."""
        rc = RunConfig(command="generate", checkpoint="s.ckpt", prompt="the spike",
                       out="g.txt", temperature=0.8, gen_seed=3)
        rc.model.neuron_mode = "ternary"
        rc.train.spad.lambdas = (0.0, 0.0, 0.0, 0.5, 0.5)
        v1 = []
        for line in to_ini(rc).splitlines()[1:]:
            key, eq, value = line.partition(" = ")
            v1.append(key + eq + (json.loads(value) if value.startswith('"') else value))
        text = "\n".join(v1) + "\n"
        assert '"' not in text and "prompt = the spike\n" in text
        assert reload(text, tmp_path) == rc

    def test_quotes_are_kept_without_the_magic_line(self, tmp_path):
        assert reload('[run]\nprompt = "hi "\n', tmp_path).prompt == '"hi "'

    def test_bad_quoted_value_named(self, tmp_path):
        with pytest.raises(ConfigError, match="run.prompt"):
            reload(f'{CONFIG_MAGIC}\n[run]\nprompt = "open\n', tmp_path)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            apply_setting(RunConfig(), "model", "hidden_size", "64")
        with pytest.raises(ConfigError):
            apply_setting(RunConfig(), "banana", "x", "1")
        for text in ("[DEFAULT]\ntotal_steps = 3\n",
                     "[DEFAULT]\ntotal_steps = 3\n[model]\nd_model = 8\n"):
            with pytest.raises(ConfigError, match=r"^unknown config section \[DEFAULT\]$"):
                reload(text, tmp_path)

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match="train.lr_peak"):
            apply_setting(RunConfig(), "train", "lr_peak", "fast")


FLAG_CASES = [(command, flag, key) for command, flags in FLAGS.items()
              for flag, key in flags.items()]
SAMPLE_VALUES = {int: "7", float: "0.25", str: "some/value.txt"}


class TestFlagTable:
    """Every flag is a shorthand for `--set` of the setting FLAGS names."""

    @pytest.mark.parametrize("command,flag,key", FLAG_CASES,
                             ids=[f"{c}{f}" for c, f, _ in FLAG_CASES])
    def test_flag_equals_set(self, command, flag, key):
        section, _, name = key.partition(".")
        obj = {"run": RunConfig(), "model": ModelConfig(), "train": TrainConfig(),
               "spad": SpadConfig()}[section]
        value = SAMPLE_VALUES[type(getattr(obj, name))]
        parser = build_parser()
        by_flag = resolve(parser.parse_args([command, flag, value]))
        by_set = resolve(parser.parse_args([command, "--set", f"{key}={value}"]))
        assert by_flag == by_set
        assert by_flag != resolve(parser.parse_args([command]))

    def test_commands_keep_their_flags(self):
        train = {"--corpus", "--out", "--metrics", "--steps", "--seed", "--seq-len",
                 "--batch-size", "--lr"}
        want = {"train-teacher": train, "train": train, "distill": train | {"--teacher"},
                "generate": {"--checkpoint", "--prompt", "--n-new", "--temperature",
                             "--seed", "--out"},
                "profile": {"--checkpoint", "--corpus", "--seq-len", "--t-steps", "--out"},
                "eval": {"--checkpoint", "--corpus", "--seq-len", "--out"},
                "selftest": set()}
        assert {command: set(flags) for command, flags in FLAGS.items()} == want
        assert [FLAGS[c]["--seed"] for c in ("train-teacher", "train", "distill", "generate")] \
            == ["train.seed"] * 3 + ["run.gen_seed"]
        assert [FLAGS[c]["--seq-len"] for c in ("train-teacher", "train", "distill", "profile",
                                                 "eval")] \
            == ["train.seq_len"] * 3 + ["run.eval_seq_len"] * 2

    def test_flags_win_over_set_and_config(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nseed = 1\n")
        args = build_parser().parse_args(["train", "--config", str(ini), "--seed", "3",
                                          "--set", "train.seed=2"])
        assert resolve(args).train.seed == 3

    def test_set_keeps_surrounding_whitespace_as_a_flag_does(self):
        parser = build_parser()
        by_flag = resolve(parser.parse_args(["generate", "--prompt", " a "]))
        by_set = resolve(parser.parse_args(["generate", "--set", "run.prompt= a "]))
        assert by_flag == by_set
        assert by_set.prompt == " a "
        padded = resolve(parser.parse_args(["train", "--set", " train.total_steps = 5 "]))
        assert padded.train.total_steps == 5

    @pytest.mark.parametrize("flag,value,key", [("--steps", "abc", "train.total_steps"),
                                                ("--lr", "fast", "train.lr_peak")])
    def test_bad_flag_value_is_one_error_line(self, flag, value, key, capsys):
        assert run_cli("train", flag, value) == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: {value!r}\n"


FLOAT_FIELDS = [(cls, f.name)
                for cls in (LifParams, TernaryParams, ModelConfig, TrainConfig, SpadConfig)
                for f in fields(cls) if f.type is float]


class TestFiniteConfig:
    """nan and inf pass every range check written as a comparison, so each
    float field is checked for finiteness by name."""

    def test_every_float_field_listed(self):
        assert len(FLOAT_FIELDS) == 22
        assert (ModelConfig, "attn_thr") in FLOAT_FIELDS
        assert (TrainConfig, "grad_clip") in FLOAT_FIELDS

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
    def test_non_finite_field_named(self, cls, name, value):
        cfg = cls()
        cfg.validate()
        setattr(cfg, name, value)
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_loss_weight(self, value):
        with pytest.raises(ConfigError, match="loss weights must be finite"):
            SpadConfig(lambdas=(value, 0.0, 0.0, 0.0, 1.0)).validate()

    @pytest.mark.parametrize("setting", ["model.attn_thr=inf", "train.grad_clip=nan",
                                         "train.adam_eps=inf", "spad.tau=inf",
                                         "spad.lambdas=nan,0,0,0,1"])
    def test_cli_is_one_error_line(self, setting, tmp_path, corpus_file, capsys):
        out = tmp_path / "x.ckpt"
        assert run_cli("train", "--corpus", corpus_file, "--out", str(out), "--steps", "1",
                       *MODEL_FLAGS, "--set", setting) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err
        assert not out.exists()


class TestTrainCommand:
    @pytest.mark.parametrize("command,lr", [("train", "1e308"), ("train-teacher", "1e300")])
    def test_overflow_is_one_error_line(self, command, lr, tmp_path, corpus_file, capsys):
        """A step that overflows ends at the non-finite loss check, with no
        numpy warning before it (pytest makes any warning an error)."""
        out = tmp_path / "x.ckpt"
        assert run_cli(command, "--corpus", corpus_file, "--out", str(out), "--steps", "6",
                       "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS,
                       "--set", "model.d_model=16", "--set", f"train.lr_peak={lr}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") and err.count("\n") == 1, err
        assert not out.exists()

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
        assert opt == {} and "adam_t" not in extra
        _, tensors = read_checkpoint(out)
        assert tensors.keys() == params.keys()
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

    def test_failed_run_keeps_earlier_outputs(self, tmp_path, corpus_file, capsys):
        """A run that diverges over an earlier one's outputs leaves them byte
        for byte, with no temp file beside them."""
        out, metrics = tmp_path / "s.ckpt", tmp_path / "m.tsv"
        args = ["train", "--corpus", corpus_file, "--out", str(out), "--metrics",
                str(metrics), "--steps", "3", "--seq-len", "8", "--batch-size", "2",
                *MODEL_FLAGS]
        assert run_cli(*args) == 0
        names = sorted(tmp_path.iterdir())
        before = [p.read_bytes() for p in names]
        capsys.readouterr()
        assert run_cli(*args, "--lr", "1e9") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at step") and err.count("\n") == 1, err
        assert sorted(tmp_path.iterdir()) == names
        assert [p.read_bytes() for p in names] == before

    def test_window_past_max_seq_len_fails_first(self, tmp_path, corpus_file, capsys):
        out, metrics = tmp_path / "s.ckpt", tmp_path / "m.tsv"
        assert run_cli("train", "--corpus", corpus_file, "--out", str(out), "--metrics",
                       str(metrics), "--steps", "2", "--seq-len", "16", "--batch-size",
                       "2", *MODEL_FLAGS) == 2
        assert capsys.readouterr().err == "error: train.seq_len 16 exceeds model.max_seq_len 8\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "corpus.txt"]

    def test_output_in_missing_directory_fails_first(self, tmp_path, corpus_file,
                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("train", "--corpus", corpus_file, "--out", "nope/s.ckpt",
                       "--metrics", "m.tsv", "--steps", "2", "--seq-len", "8",
                       "--batch-size", "2", *MODEL_FLAGS) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nope/s.ckpt" in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "corpus.txt"]

    def test_flag_overrides_config(self, tmp_path, corpus_file):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\ncorpus = {corpus_file}\n\n[train]\ntotal_steps = 9\n")
        out = str(tmp_path / "s.ckpt")
        assert run_cli("train", "--config", str(ini), "--out", out, "--steps", "2",
                       "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS) == 0
        _, _, extra, _ = load_model(out)
        assert extra["trained_steps"] == "2"


class TestRetiredGradAccum:
    """train.grad_accum is gone: every snapshot written while it existed
    holds 1, which still loads; any other value is refused."""

    def test_snapshot_holding_one_replays(self, tmp_path, corpus_file):
        out, metrics = tmp_path / "s.ckpt", tmp_path / "m.tsv"
        assert run_cli("train", "--corpus", corpus_file, "--out", str(out), "--metrics",
                       str(metrics), "--steps", "3", "--seq-len", "8", "--batch-size",
                       "2", *MODEL_FLAGS) == 0
        first = out.read_bytes(), metrics.read_bytes()
        text = (tmp_path / "s.ckpt.config").read_text()
        assert "grad_accum" not in text
        # an older snapshot: the [train] line the field wrote, before seed
        older = tmp_path / "older.config"
        older.write_text(text.replace("\nseed = ", "\ngrad_accum = 1\nseed = ", 1))
        assert older.read_text().count("grad_accum = 1\n") == 1
        assert run_cli("train", "--config", str(older)) == 0
        assert (out.read_bytes(), metrics.read_bytes()) == first

    def test_other_values_are_one_error_line(self, tmp_path, corpus_file, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\ngrad_accum = 4\n")
        out = tmp_path / "s.ckpt"
        for source, value in ((["--set", "train.grad_accum=2"], 2), (["--config", str(ini)], 4)):
            assert run_cli("train", "--corpus", corpus_file, "--out", str(out), "--steps",
                           "1", "--seq-len", "8", *MODEL_FLAGS, *source) == 2
            assert capsys.readouterr().err == (
                f"error: train.grad_accum is retired and accepts only 1, got {value}; "
                f"set train.batch_size to the whole batch instead\n")
        assert not out.exists()


class TestDistillCommand:
    def test_distill_requires_dense_teacher(self, tmp_path, corpus_file, capsys):
        student = str(tmp_path / "s.ckpt")
        assert run_cli("train", "--corpus", corpus_file, "--out", student,
                       "--steps", "1", "--seq-len", "8", "--batch-size", "2",
                       *MODEL_FLAGS) == 0
        capsys.readouterr()
        out = tmp_path / "d.ckpt"
        rc = run_cli("distill", "--corpus", corpus_file, "--teacher", student,
                     "--out", str(out), "--metrics", str(tmp_path / "d.tsv"), "--steps", "1",
                     "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: distill needs a dense teacher, got a spiking one\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "s.ckpt",
                                                               "s.ckpt.config"]

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


    def test_width_mismatch_is_one_error_line(self, tmp_path, corpus_file, capsys):
        teacher = str(tmp_path / "t.ckpt")
        assert run_cli("train-teacher", "--corpus", corpus_file, "--out", teacher,
                       "--steps", "1", "--seq-len", "8", "--batch-size", "2",
                       *MODEL_FLAGS, "--set", "model.d_model=16") == 0
        capsys.readouterr()
        out = tmp_path / "d.ckpt"
        assert run_cli("distill", "--corpus", corpus_file, "--teacher", teacher,
                       "--out", str(out), "--steps", "1", "--seq-len", "8",
                       "--batch-size", "2", *MODEL_FLAGS) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: width mismatch: ") and err.count("\n") == 1
        assert "student d_model 8" in err and "teacher d_model 16" in err
        assert not out.exists()


class TestOlderCheckpoint:
    """Checkpoints once carried the Adam moments as opt.m.*/opt.v.* tensors and
    the step count as an adam_t field; such files still load and serve."""

    def test_moments_are_skipped(self, tmp_path, corpus_file, capsys):
        new = str(tmp_path / "new.ckpt")
        assert run_cli("train", "--corpus", corpus_file, "--out", new, "--steps", "2",
                       "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS) == 0
        fields_, params = read_checkpoint(new)
        rng = np.random.default_rng(0)
        moments = {f"opt.{m}.{k}": rng.normal(size=v.shape)
                   for k, v in params.items() for m in ("m", "v")}
        old = str(tmp_path / "old.ckpt")
        write_checkpoint(old, {**fields_, "adam_t": "2"}, {**params, **moments})

        _, loaded, extra, opt = load_model(old)
        assert loaded.keys() == params.keys()
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])
        assert extra["adam_t"] == "2"
        assert opt.keys() == {k[len("opt."):] for k in moments}

        capsys.readouterr()
        for command in (["generate", "--prompt", "he", "--n-new", "6"],
                        ["eval", "--corpus", corpus_file, "--seq-len", "8"],
                        ["profile", "--corpus", corpus_file, "--seq-len", "8"]):
            outputs = []
            for ckpt in (new, old):
                assert run_cli(command[0], "--checkpoint", ckpt, *command[1:]) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], command[0]


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
        capsys.readouterr()
        assert run_cli("generate", "--checkpoint", t, "--prompt", "x") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: generate needs a spiking checkpoint, got a dense one\n"

    @pytest.mark.parametrize("prompt", TRICKY_PROMPTS[:3], ids=ascii)
    def test_snapshot_rerun_keeps_the_prompt(self, ckpt, prompt, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--checkpoint", ckpt, "--prompt", prompt, "--n-new", "12",
                       "--temperature", "0.9", "--seed", "5", "--out", str(out)) == 0
        first, printed = out.read_bytes(), capsys.readouterr().out
        assert run_cli("generate", "--config", f"{out}.config") == 0
        assert out.read_bytes() == first and capsys.readouterr().out == printed


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

    def test_out_of_memory_is_one_error_line(self, tmp_path, corpus_file, monkeypatch,
                                             capsys):
        """A refused allocation, and one whose MemoryError says nothing, each end
        in one error line. The refusal is patched in: under overcommit a real
        oversized request can succeed and the process dies touching it."""
        out = tmp_path / "x.ckpt"
        for message, err in [("Unable to allocate 4.66 PiB for an array with shape "
                              "(10000000000000, 64) and data type float64",
                              "error: out of memory: Unable to allocate 4.66 PiB for an "
                              "array with shape (10000000000000, 64) and data type "
                              "float64\n"),
                             ("", "error: out of memory\n")]:
            def refuse(*args, **kw):
                raise MemoryError(message)
            monkeypatch.setattr(training, "init_params", refuse)
            assert run_cli("train", "--corpus", corpus_file, "--out", str(out),
                           "--steps", "1", "--seq-len", "8", *MODEL_FLAGS) == 2
            assert capsys.readouterr().err == err
            assert not out.exists()

    @pytest.mark.parametrize("setting", ["model.vocab_size=100000000000000000000000",
                                         "model.max_seq_len=100000000000000000000",
                                         "train.batch_size=100000000000000000000",
                                         "model.d_ff=100000000000000000000",
                                         "model.t_steps=100000000000000000000"])
    def test_integer_past_int64_is_one_error_line(self, setting, tmp_path, corpus_file,
                                                   capsys):
        """An integer setting that int64 cannot hold is refused by config
        validation, before any allocation, with its name and value."""
        out = tmp_path / "x.ckpt"
        assert run_cli("train", "--corpus", corpus_file, "--out", str(out), "--steps", "1",
                       "--set", "model.d_model=8", "--set", "model.n_heads=2",
                       "--set", setting) == 2
        name, value = setting.split(".")[1].split("=")
        assert capsys.readouterr() == ("", f"error: {name} must fit in int64, got {value}\n")
        assert not out.exists()

    def test_seed_past_int64_still_runs(self, tmp_path, corpus_file):
        """Rng masks a seed to 64 bits, so seeds keep their range."""
        out = tmp_path / "x.ckpt"
        assert run_cli("train", "--corpus", corpus_file, "--out", str(out), "--steps", "1",
                       "--set", "model.d_model=8", "--set", "model.n_heads=2",
                       "--set", "model.n_layers=1", "--seed", "18446744073709551615") == 0
        assert out.exists()

    def test_unknown_arch_is_one_error_line(self, tmp_path, corpus_file, capsys):
        cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        ckpt = str(tmp_path / "s.ckpt")
        save_model(ckpt, cfg, init_params(cfg, 0))
        fields, tensors = read_checkpoint(ckpt)
        fields["arch"] = "bogus"
        write_checkpoint(ckpt, fields, tensors)
        assert run_cli("eval", "--checkpoint", ckpt, "--corpus", corpus_file) == 2
        assert capsys.readouterr() == (
            "", f"error: {ckpt}: unknown arch 'bogus', expected 'spiking' or 'dense'\n")

    def test_diverging_run_is_one_error_line(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "x.ckpt"
        assert run_cli("train", "--corpus", corpus_file, "--out", str(out), "--steps", "3",
                       "--lr", "1e9", "--set", "model.d_model=32", "--set", "model.n_layers=1",
                       "--set", "model.max_seq_len=8", "--seq-len", "8") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at step ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_surrogate_is_one_error_line(self, tmp_path, corpus_file):
        """At lr 1e200 the membranes pass the float range of the surrogate
        slope; the run still ends in one error line, with no warning."""
        out = tmp_path / "x.ckpt"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selftest.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "spikeclm.cli", "train", "--corpus", corpus_file,
             "--out", str(out), "--steps", "3", "--seq-len", "8", "--batch-size", "2",
             "--lr", "1e200", *MODEL_FLAGS],
            env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: training diverged at step ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not out.exists()

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
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config ") and err.count("\n") == 1

    def test_generate_output_in_missing_directory(self, tmp_path, capsys):
        cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        ckpt = str(tmp_path / "s.ckpt")
        save_model(ckpt, cfg, init_params(cfg, 0))
        out = str(tmp_path / "nope" / "g.txt")
        assert run_cli("generate", "--checkpoint", ckpt, "--prompt", "x", "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: no such directory\n"

    def test_only_written_outputs_need_a_directory(self, tmp_path, corpus_file,
                                                   monkeypatch, capsys):
        """generate writes no metrics, so run.metrics in a missing directory
        stops train but not generate."""
        monkeypatch.chdir(tmp_path)
        cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        save_model("s.ckpt", cfg, init_params(cfg, 0))
        assert run_cli("generate", "--checkpoint", "s.ckpt", "--prompt", "ab",
                       "--n-new", "2", "--set", "run.metrics=nope/m.tsv") == 0
        capsys.readouterr()
        assert run_cli("train", "--corpus", corpus_file, "--out", "t.ckpt", "--metrics",
                       "nope/m.tsv", "--steps", "1", "--seq-len", "8", "--batch-size", "2",
                       *MODEL_FLAGS) == 2
        assert capsys.readouterr() == ("", "error: cannot write nope/m.tsv: no such directory\n")
        assert not (tmp_path / "t.ckpt").exists()

    @pytest.mark.parametrize("argv,err", [
        (["train", "--corpus", "c.txt", "--out", "a.ckpt", "--metrics", "a.ckpt"],
         "run.metrics a.ckpt names the same file as run.out"),
        (["train", "--corpus", "c.txt", "--out", "a.ckpt", "--metrics", "a.ckpt.config"],
         "run.metrics a.ckpt.config names the same file as run.out's snapshot"),
        (["train-teacher", "--corpus", "c.txt", "--out", "c.txt"],
         "run.out c.txt names the same file as run.corpus"),
        (["train", "--corpus", "c.txt", "--out", "a.ckpt", "--metrics", "./c.txt"],
         "run.metrics ./c.txt names the same file as run.corpus"),
        (["distill", "--corpus", "c.txt", "--teacher", "m.ckpt", "--out", "m.ckpt"],
         "run.out m.ckpt names the same file as run.teacher"),
        (["eval", "--checkpoint", "m.ckpt", "--corpus", "c.txt", "--out", "m.ckpt"],
         "run.out m.ckpt names the same file as run.checkpoint"),
        (["profile", "--checkpoint", "m.ckpt", "--corpus", "c.txt", "--out", "./m.ckpt"],
         "run.out ./m.ckpt names the same file as run.checkpoint"),
        (["generate", "--checkpoint", "m.ckpt.config", "--out", "m.ckpt"],
         "run.out's snapshot m.ckpt.config names the same file as run.checkpoint"),
        (["train", "--corpus", "c.txt", "--out", "outdir"],
         "cannot write outdir: it is a directory"),
        (["train", "--corpus", "c.txt", "--out", "m6.ckpt"],
         "cannot write m6.ckpt.config: it is a directory"),
        (["train", "--corpus", "c.txt", "--out", "a.ckpt", "--metrics", "outdir"],
         "cannot write outdir: it is a directory"),
        (["generate", "--checkpoint", "m.ckpt", "--n-new", "1", "--out", "outdir"],
         "cannot write outdir: it is a directory")])
    def test_colliding_paths_fail_first(self, argv, err, tmp_path, monkeypatch, capsys):
        """An output that names an input or another output, or that is a
        directory, is one error line before any work: every earlier file
        stays as it was, and no file, temporary or not, is written."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("hello world " * 40)
        assert run_cli("train", "--corpus", "c.txt", "--out", "m.ckpt", "--metrics", "m.tsv",
                       "--steps", "1", "--seq-len", "8", "--batch-size", "2",
                       *MODEL_FLAGS) == 0
        (tmp_path / "outdir").mkdir()
        (tmp_path / "m6.ckpt.config").mkdir()

        def files():
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        before = files()
        capsys.readouterr()
        assert run_cli(*argv, "--set", "train.total_steps=1", *MODEL_FLAGS) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert files() == before

    def test_unused_settings_are_not_compared(self, tmp_path, monkeypatch, capsys):
        """eval writes no metrics, so run.metrics naming its checkpoint is no
        collision."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("hello world " * 40)
        assert run_cli("train", "--corpus", "c.txt", "--out", "m.ckpt", "--steps", "1",
                       "--seq-len", "8", "--batch-size", "2", *MODEL_FLAGS) == 0
        ckpt = (tmp_path / "m.ckpt").read_bytes()
        assert run_cli("eval", "--checkpoint", "m.ckpt", "--corpus", "c.txt",
                       "--seq-len", "8", "--set", "run.metrics=m.ckpt") == 0
        assert (tmp_path / "m.ckpt").read_bytes() == ckpt

    def test_checkpoint_missing_tensor(self, tmp_path, capsys):
        cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
        ckpt = str(tmp_path / "s.ckpt")
        save_model(ckpt, cfg, init_params(cfg, 0))
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
        save_model(ckpt, cfg, params)
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
        assert all(name.startswith("criterion-") for name, _ in selftest.CHECKS)

    def test_selftest_failure_reported_and_others_run(self, monkeypatch, capsys):
        def boom():
            raise AssertionError("broken on purpose")
        monkeypatch.setattr(selftest, "CHECKS", [
            ("boom", boom), ("criterion-01-neuron-fidelity", selftest.check_neuron_fidelity)])
        assert run_cli("selftest") == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL boom: broken on purpose", "ok   criterion-01-neuron-fidelity",
            "1/2 checks passed"]

    @pytest.mark.parametrize("name,module,callee,patch,line", [
        ("criterion-07-spad-fixed-points", selftest, "loss_soft",
         lambda orig: lambda *args: orig(*args) + 1e-3,
         "FAIL criterion-07-spad-fixed-points: L_soft on equal logits is 0.001, not 0"),
        ("criterion-11-energy-model", energy, "count_flops", one_more_head_mac,
         "FAIL criterion-11-energy-model: toy FLOPs at L=1: sfsa 20, sffn 16, head 8, "
         "embed 0; got FlopCounts(embed=0, head=9, sfsa=[20], sffn=[16])")],
        ids=["criterion-07", "criterion-11"])
    def test_selftest_failure_names_the_clause(self, name, module, callee, patch, line,
                                               monkeypatch, capsys):
        """A criterion that checks several clauses names the one that failed."""
        monkeypatch.setattr(selftest, "CHECKS", [(name, dict(selftest.CHECKS)[name])])
        monkeypatch.setattr(module, callee, patch(getattr(module, callee)))
        assert run_cli("selftest") == 1
        assert capsys.readouterr().out.splitlines() == [line, "0/1 checks passed"]

    def test_selftest_fails_under_optimize_flag(self):
        """python -O strips bare asserts; the checks must still fail."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(selftest.__file__)))
        code = ("import sys; from spikeclm import selftest; "
                "selftest.lif_step = lambda u, s, current, p: (1.0, current); "
                "selftest.CHECKS = [('criterion-01', selftest.check_neuron_fidelity)]; "
                "from spikeclm.cli import main; sys.exit(main(['selftest']))")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == [
            "FAIL criterion-01: I=0 from rest: no spike, membrane 0", "0/1 checks passed"]

    def test_selftest_rejects_config_flags(self, tmp_path, capsys):
        """selftest reads no config: --config and --set are unknown flags."""
        assert run_cli("selftest", "--config", str(tmp_path / "missing.ini"),
                       "--set", "bogus.key=1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_selftest_checkpoint_leaves_no_file(self, tmp_path, monkeypatch):
        """Checkpoints and metrics go to a temporary directory that is removed."""
        written = []

        def recording_save(path, *args, **kw):
            written.append(path)
            return save_model(path, *args, **kw)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(selftest, "save_model", recording_save)
        selftest.check_determinism()
        assert len(written) == 2
        assert all(os.path.commonpath([p, tmp_path]) == str(tmp_path) for p in written)
        assert list(tmp_path.iterdir()) == []


# The fuzz test's inputs: every numeric setting at each value, through every
# command that reads the setting's section.
FUZZ_VALUES = ("0", "-1", "1e-320", "1e308")
FUZZ_COMMANDS = {"model": ("train-teacher", "train", "distill"),
                 "train": ("train-teacher", "train", "distill", "eval", "profile"),
                 "spad": ("distill",), "run": ("generate", "eval", "profile")}


def test_fuzzed_inputs_exit_0_or_one_error_line(tmp_path, capsys):
    """Mutated checkpoints, degenerate corpora and extreme settings: every run
    exits 0 with nothing on stderr, or prints one error line and exits 2.
    pytest turns any warning into a failure."""
    rng = np.random.default_rng(8)
    cfg = ModelConfig(d_model=8, n_layers=1, n_heads=2, d_ff=16, max_seq_len=8)
    ckpt, teacher = tmp_path / "s.ckpt", tmp_path / "t.ckpt"
    save_model(ckpt, cfg, init_params(cfg, 0))
    save_model(teacher, cfg, init_params(cfg, 0, arch="dense"))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("hello world " * 20)
    tiny = [a for s in ("model.d_model=8", "model.n_layers=1", "model.n_heads=2",
                        "model.d_ff=16", "model.max_seq_len=8", "train.total_steps=2",
                        "train.seq_len=8", "train.batch_size=2") for a in ("--set", s)]
    out = ["--out", str(tmp_path / "o.ckpt"), "--metrics", str(tmp_path / "o.tsv")]
    # flags win over --set, so no setting a run fuzzes is given as a flag;
    # the second of two steps has learning rate 0, the first does not
    uses = {"train": ["--corpus", str(corpus), *out, *tiny],
            "train-teacher": ["--corpus", str(corpus), *out, *tiny],
            "distill": ["--corpus", str(corpus), "--teacher", str(teacher), *out, *tiny],
            "generate": ["--checkpoint", str(ckpt), "--prompt", "he", "--set", "run.n_new=3"],
            "eval": ["--checkpoint", str(ckpt), "--corpus", str(corpus)],
            "profile": ["--checkpoint", str(ckpt), "--corpus", str(corpus)]}
    runs = []
    good = ckpt.read_bytes()
    for i in range(12):
        bad = bytearray(good)
        pos = int(rng.integers(len(bad)))
        if i % 3 == 0:
            bad = bad[:pos]
        elif i % 3 == 1:
            bad[pos] = int(rng.integers(256))
        else:
            bad[pos] ^= 1 << int(rng.integers(8))
        path = tmp_path / f"bad{i}.ckpt"
        path.write_bytes(bytes(bad))
        runs += [[c, *uses[c], "--checkpoint", str(path)]
                 for c in ("eval", "generate", "profile")]
    for i, text in enumerate((b"", b"h", b"\xff\xfe\x80 \xc3(" * 9)):
        path = tmp_path / f"corpus{i}.txt"
        path.write_bytes(text)
        runs += [[c, *uses[c], "--corpus", str(path)] for c in ("train", "eval", "profile")]
    for section, obj in (("model", ModelConfig), ("train", TrainConfig),
                         ("spad", SpadConfig), ("run", RunConfig)):
        names = [f.name for f in fields(obj) if f.type in (int, float)]
        names += ["lambdas"] if section == "spad" else []
        runs += [[c, *uses[c], "--set", f"{section}.{name}={value}"]
                 for name in names for value in FUZZ_VALUES
                 for c in FUZZ_COMMANDS[section]]
    bad_runs = []
    for argv in runs:
        code = run_cli(*argv)
        err = capsys.readouterr().err
        if not ((code == 0 and err == "") or
                (code == 2 and err.startswith("error: ") and err.count("\n") == 1)):
            bad_runs.append((argv[0], argv[-1], code, err))
    assert not bad_runs, bad_runs
