"""Command-line entry point.

Subcommands: train-teacher, train, distill, generate, profile, eval,
selftest. Runs are configured by an INI-style file (`key = value` under
[run]/[model]/[train]/[spad] sections), then `--set section.key=value`,
then flags, each a shorthand for the setting FLAGS names; later wins.
Every run that writes an output file also writes a resolved config
snapshot at `<output>.config`, and re-running from that snapshot
reproduces the output byte for byte.
"""

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import data, energy
from .distill import SpadConfig
from .errors import ConfigError
from .model import (ModelConfig, arch_of, atomic_open, generate, load_model,
                    parse_field, save_model, snn_forward)
from .numerics import Rng
from .training import TrainConfig, evaluate_ce, train_loop


@dataclass
class RunConfig:
    command: str = ""
    corpus: str = ""
    teacher: str = ""
    checkpoint: str = ""
    out: str = ""
    metrics: str = ""
    prompt: str = ""
    n_new: int = 64
    temperature: float = 0.0
    gen_seed: int = 0
    eval_seq_len: int = 0   # 0 means min(the model's max_seq_len, train.seq_len)
    eval_t_steps: int = 0   # 0 means the checkpoint's t_steps
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(spad=SpadConfig()))


def _simple_fields(cls):
    return [f for f in dc_fields(cls) if f.type in (int, float, str)]


def _sections(rc: RunConfig) -> dict:
    """Config sections in file order; each key is a simple field of its object."""
    return {"run": rc, "model": rc.model, "train": rc.train, "spad": rc.train.spad}


# A v2 snapshot starts with this line and writes every string as a JSON
# string, which configparser keeps whole: it strips a value's surrounding
# whitespace and reads a line break as a continuation line.
CONFIG_MAGIC = "# spikeclm-config v2"


def to_ini(rc: RunConfig) -> str:
    blocks = []
    for section, obj in _sections(rc).items():
        lines = [f"[{section}]"]
        if section == "spad":
            lines.append("lambdas = " + ", ".join(repr(v) for v in obj.lambdas))
        for f in _simple_fields(type(obj)):
            v = getattr(obj, f.name)
            lines.append(f"{f.name} = {json.dumps(v) if isinstance(v, str) else v}")
        blocks.append("\n".join(lines))
    return CONFIG_MAGIC + "\n" + "\n\n".join(blocks) + "\n"


def apply_setting(rc: RunConfig, section: str, key: str, raw: str) -> None:
    full = f"{section}.{key}"
    obj = _sections(rc).get(section)
    if obj is None:
        raise ConfigError(f"unknown config section [{section}]")
    if full == "train.grad_accum":  # retired; every snapshot written holds 1
        value = parse_field(full, raw, int)
        if value != 1:
            raise ConfigError(f"train.grad_accum is retired and accepts only 1, got {value}; "
                              f"set train.batch_size to the whole batch instead")
        return
    if section == "spad" and key == "lambdas":
        parts = [p for p in raw.replace(",", " ").split() if p]
        obj.lambdas = tuple(parse_field(full, p, float) for p in parts)
        return
    for f in _simple_fields(type(obj)):
        if f.name == key:
            setattr(obj, key, parse_field(full, raw, f.type))
            return
    raise ConfigError(f"unknown config key {full}")


def load_ini(rc: RunConfig, path) -> None:
    """Apply a config file: a v2 snapshot, or a v1 snapshot or hand-written
    INI file, whose values are taken as configparser reads them."""
    # `[]` is never a header, so [DEFAULT] is an ordinary, unknown section
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            text = fh.read()
        cp.read_string(text, source=str(path))
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from None
    except configparser.Error as e:
        raise ConfigError(f"malformed config {path}: {e}") from None
    v2 = text.partition("\n")[0] == CONFIG_MAGIC
    for section in cp.sections():
        for key, raw in cp.items(section):
            if v2 and raw.startswith('"'):
                try:
                    raw = json.loads(raw)
                except ValueError:
                    raise ConfigError(f"malformed config {path}: "
                                      f"bad quoted value for {section}.{key}") from None
            apply_setting(rc, section, key, raw)


def _write_snapshot(rc: RunConfig, out_path) -> None:
    with atomic_open(str(out_path) + ".config") as fh:
        fh.write(to_ini(rc))


def _write_output(rc: RunConfig, text: str) -> None:
    """Write text to run.out, if set, with its .config snapshot beside it."""
    if rc.out:
        with atomic_open(rc.out) as fh:
            fh.write(text)
        _write_snapshot(rc, rc.out)


def _require(rc: RunConfig, *names) -> None:
    for name in names:
        if not getattr(rc, name):
            raise ConfigError(f"missing required setting run.{name}")


def _load_checkpoint(rc: RunConfig, key: str = "checkpoint", need: str = ""):
    """Load run.<key>; its family, "dense" or "spiking", must be `need` if set."""
    cfg, params, _, _ = load_model(getattr(rc, key))
    if need and arch_of(params) != need:
        raise ConfigError(f"{rc.command} needs a {need} {key}, got a {arch_of(params)} one")
    return cfg, params


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics instead of usage dumps
        raise ConfigError(message)


_TRAIN_FLAGS = {"--corpus": "run.corpus", "--out": "run.out", "--metrics": "run.metrics",
                "--steps": "train.total_steps", "--seed": "train.seed",
                "--seq-len": "train.seq_len", "--batch-size": "train.batch_size",
                "--lr": "train.lr_peak"}
_EVAL_FLAGS = {"--checkpoint": "run.checkpoint", "--corpus": "run.corpus",
               "--seq-len": "run.eval_seq_len", "--out": "run.out"}

# Each command's flags, each a shorthand for `--set` of the setting it names.
FLAGS = {
    "train-teacher": _TRAIN_FLAGS,
    "train": _TRAIN_FLAGS,
    "distill": {**_TRAIN_FLAGS, "--teacher": "run.teacher"},
    "generate": {"--checkpoint": "run.checkpoint", "--prompt": "run.prompt",
                 "--n-new": "run.n_new", "--temperature": "run.temperature",
                 "--seed": "run.gen_seed", "--out": "run.out"},
    "profile": {**_EVAL_FLAGS, "--t-steps": "run.eval_t_steps"},
    "eval": _EVAL_FLAGS,
    "selftest": {},
}


def build_parser() -> _Parser:
    p = _Parser(prog="spikeclm", description=__doc__, add_help=True)
    sub = p.add_subparsers(dest="command", required=True)
    for command, flags in FLAGS.items():
        sp = sub.add_parser(command)
        if flags:  # a command with settings reads a config too
            sp.add_argument("--config", help="INI config file")
            sp.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                            help="override one config value; repeatable")
        for flag, key in flags.items():
            sp.add_argument(flag, dest=key, metavar="VAL", help=f"sets {key}")
    return p


def _apply(rc: RunConfig, key: str, raw: str) -> None:
    section, _, name = key.partition(".")
    apply_setting(rc, section, name, raw)


def resolve(args) -> RunConfig:
    """The run's settings: the --config file, then each --set, then flags."""
    rc = RunConfig()
    if getattr(args, "config", None):
        load_ini(rc, args.config)
    for item in getattr(args, "set", None) or ():
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        if "." not in key:
            raise ConfigError(f"--set key must be section.key, got {key!r}")
        _apply(rc, key.strip(), raw)
    rc.command = args.command
    for key in FLAGS[args.command].values():
        raw = getattr(args, key)
        if raw is not None:
            _apply(rc, key, raw)
    return rc


def cmd_train(rc: RunConfig, mode: str) -> int:
    _require(rc, "corpus", "out")
    corpus = data.load_corpus(rc.corpus)
    teacher_cfg = teacher_params = None
    if mode == "spad":
        _require(rc, "teacher")
        teacher_cfg, teacher_params = _load_checkpoint(rc, "teacher", need="dense")
    res = train_loop(rc.train, rc.model, corpus, mode=mode,
                     teacher_cfg=teacher_cfg, teacher_params=teacher_params,
                     metrics_path=rc.metrics or None)
    save_model(rc.out, rc.model, res.params,
               extra_fields={"trained_steps": rc.train.total_steps})
    _write_snapshot(rc, rc.out)
    last = res.metrics[-1].loss if res.metrics else float("nan")
    val = "n/a" if res.val_ce is None else f"{res.val_ce:.4f}"
    print(f"wrote {rc.out} after {rc.train.total_steps} steps "
          f"(final loss {last:.4f}, val ce {val})")
    return 0


def cmd_generate(rc: RunConfig) -> int:
    _require(rc, "checkpoint")
    cfg, params = _load_checkpoint(rc, need="spiking")
    ids = [data.BOS_ID] + data.encode(rc.prompt).tolist()
    rng = Rng(rc.gen_seed) if rc.temperature > 0 else None
    res = generate(ids, rc.n_new, cfg, params, temperature=rc.temperature, rng=rng)
    text = data.decode(np.array(res.tokens[len(ids):]))
    _write_output(rc, text)
    sys.stdout.write(text + "\n")
    return 0


def _eval_slice(rc: RunConfig, cfg: ModelConfig):
    corpus = data.load_corpus(rc.corpus)
    seq_len = rc.eval_seq_len or min(cfg.max_seq_len, rc.train.seq_len)
    _, val = data.split_corpus(corpus, rc.train.val_fraction)
    ids = val if len(val) >= seq_len else corpus
    return data.make_windows(ids, seq_len), seq_len


def _first_batch_trace(rc: RunConfig, cfg: ModelConfig, params: dict, windows):
    xb, _ = data.batch_at(windows, 0, min(rc.train.batch_size, len(windows)))
    return snn_forward(xb, cfg, params)[1]


def cmd_profile(rc: RunConfig) -> int:
    _require(rc, "checkpoint", "corpus")
    cfg, params = _load_checkpoint(rc, need="spiking")
    if rc.eval_t_steps:
        cfg.t_steps = rc.eval_t_steps  # profile at a different T than trained
        cfg.validate()
    trace = _first_batch_trace(rc, cfg, params, _eval_slice(rc, cfg)[0])
    text = energy.render_report(energy.energy_report(cfg, trace))
    _write_output(rc, text)
    sys.stdout.write(text)
    return 0


def cmd_eval(rc: RunConfig) -> int:
    _require(rc, "checkpoint", "corpus")
    cfg, params = _load_checkpoint(rc)
    windows, seq_len = _eval_slice(rc, cfg)
    ce = evaluate_ce(cfg, params, windows, rc.train.batch_size)
    lines = [f"val_ce: {ce:.10g}", f"seq_len: {seq_len}", f"windows: {len(windows)}"]
    if arch_of(params) == "spiking":
        trace = _first_batch_trace(rc, cfg, params, windows)
        for i, rates in enumerate(energy.measure_firing_rates(trace)):
            lines.append(f"layer{i}.sfsa_rate: {rates['sfsa']:.10g}")
            lines.append(f"layer{i}.sffn_rate: {rates['sffn']:.10g}")
    text = "\n".join(lines) + "\n"
    _write_output(rc, text)
    sys.stdout.write(text)
    return 0


def cmd_selftest(rc: RunConfig) -> int:
    from .selftest import run_selftest
    return 1 if run_selftest() else 0


COMMANDS = {
    "train-teacher": lambda rc: cmd_train(rc, "teacher"),
    "train": lambda rc: cmd_train(rc, "hard"),
    "distill": lambda rc: cmd_train(rc, "spad"),
    "generate": cmd_generate,
    "profile": cmd_profile,
    "eval": cmd_eval,
    "selftest": cmd_selftest,
}


def _check_outputs(rc: RunConfig, used) -> None:
    """Fail, before any work, when an output the command writes has no
    directory, is a directory, or would replace one of its inputs or another
    of its outputs; `used` holds the settings it reads."""
    def paths(*keys):
        return [(k, getattr(rc, k[len("run."):])) for k in keys
                if k in used and getattr(rc, k[len("run."):])]
    seen = {os.path.realpath(p): k for k, p in paths("run.corpus", "run.teacher",
                                                      "run.checkpoint")}
    outputs = paths("run.out")
    outputs += [("run.out's snapshot", p + ".config") for _, p in outputs]
    for key, path in outputs + paths("run.metrics"):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path}: no such directory")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{key} {path} names the same file as {seen[real]}")
        seen[real] = key


def run_command(args) -> int:
    rc = resolve(args)
    for section in (rc.model, rc.train, rc.train.spad):
        section.validate()
    _check_outputs(rc, FLAGS[args.command].values())
    return COMMANDS[args.command](rc)


def main(argv=None) -> int:
    try:
        return run_command(build_parser().parse_args(argv))
    except (ValueError, OSError, MemoryError, OverflowError) as e:  # package errors: ValueError
        detail = " ".join(str(e).splitlines())
        if isinstance(e, MemoryError):  # numpy's names the allocation it could not make
            detail = "out of memory" + (": " + detail if detail else "")
        elif isinstance(e, OverflowError):  # such as an integer setting past int64
            detail = "overflow: " + detail
        print("error: " + detail, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
