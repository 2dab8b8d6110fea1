"""Command-line entry point.

Subcommands: train-teacher, train, distill, generate, profile, eval,
selftest. Runs are configured by an INI-style file (`key = value` under
[run]/[model]/[train]/[spad] sections) plus flags; flags win over file
values. Every run that writes an output file also writes a resolved
config snapshot at `<output>.config`, and re-running from that snapshot
reproduces the output byte for byte.
"""

import argparse
import sys
import configparser
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import data, energy
from .distill import SpadConfig
from .errors import ConfigError
from .model import (ModelConfig, atomic_open, generate, load_model, parse_field,
                    save_model, snn_forward)
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
    eval_seq_len: int = 0   # 0 means the model's max_seq_len
    eval_t_steps: int = 0   # 0 means the checkpoint's t_steps
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    spad: SpadConfig = field(default_factory=SpadConfig)


def _simple_fields(cls):
    return [f for f in dc_fields(cls) if f.type in (int, float, str, "int", "float", "str")]


def _sections(rc: RunConfig) -> dict:
    """Config sections in file order; each key is a simple field of its object."""
    return {"run": rc, "model": rc.model, "train": rc.train, "spad": rc.spad}


def to_ini(rc: RunConfig) -> str:
    blocks = []
    for section, obj in _sections(rc).items():
        lines = [f"[{section}]"]
        if section == "spad":
            lines.append("lambdas = " + ", ".join(repr(v) for v in rc.spad.lambdas))
        lines.extend(f"{f.name} = {getattr(obj, f.name)}" for f in _simple_fields(type(obj)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def apply_setting(rc: RunConfig, section: str, key: str, raw: str) -> None:
    full = f"{section}.{key}"
    obj = _sections(rc).get(section)
    if obj is None:
        raise ConfigError(f"unknown config section [{section}]")
    if section == "spad" and key == "lambdas":
        parts = [p for p in raw.replace(",", " ").split() if p]
        rc.spad.lambdas = tuple(parse_field(full, p, float) for p in parts)
        return
    for f in _simple_fields(type(obj)):
        if f.name == key:
            setattr(obj, key, parse_field(full, raw, f.type))
            return
    raise ConfigError(f"unknown config key {full}")


def load_ini(rc: RunConfig, path) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from None
    except configparser.Error as e:
        raise ConfigError(f"malformed config {path}: {e}") from None
    for section in cp.sections():
        for key, raw in cp.items(section):
            apply_setting(rc, section, key, raw)


def _apply_sets(rc: RunConfig, sets) -> None:
    for item in sets or ():
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        key, _, raw = item.partition("=")
        if "." not in key:
            raise ConfigError(f"--set key must be section.key, got {key!r}")
        section, _, name = key.strip().partition(".")
        apply_setting(rc, section, name, raw.strip())


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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics instead of usage dumps
        raise ConfigError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="spikeclm", description=__doc__, add_help=True)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                        help="override one config value; repeatable")

    for name in ("train-teacher", "train", "distill"):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--corpus")
        sp.add_argument("--out")
        sp.add_argument("--metrics")
        sp.add_argument("--steps", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--seq-len", type=int)
        sp.add_argument("--batch-size", type=int)
        sp.add_argument("--lr", type=float)
        if name == "distill":
            sp.add_argument("--teacher")

    sp = sub.add_parser("generate")
    common(sp)
    sp.add_argument("--checkpoint")
    sp.add_argument("--prompt")
    sp.add_argument("--n-new", type=int)
    sp.add_argument("--temperature", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("profile")
    common(sp)
    sp.add_argument("--checkpoint")
    sp.add_argument("--corpus")
    sp.add_argument("--seq-len", type=int)
    sp.add_argument("--t-steps", type=int)
    sp.add_argument("--out")

    sp = sub.add_parser("eval")
    common(sp)
    sp.add_argument("--checkpoint")
    sp.add_argument("--corpus")
    sp.add_argument("--seq-len", type=int)
    sp.add_argument("--out")

    sub.add_parser("selftest")
    return p


def resolve(args) -> RunConfig:
    rc = RunConfig()
    if getattr(args, "config", None):
        load_ini(rc, args.config)
    _apply_sets(rc, getattr(args, "set", None))
    rc.command = args.command
    for name in ("corpus", "out", "metrics", "teacher", "checkpoint", "prompt",
                 "n_new", "temperature"):
        v = getattr(args, name, None)
        if v is not None:
            setattr(rc, name, v)
    if getattr(args, "steps", None) is not None:
        rc.train.total_steps = args.steps
    if getattr(args, "batch_size", None) is not None:
        rc.train.batch_size = args.batch_size
    if getattr(args, "lr", None) is not None:
        rc.train.lr_peak = args.lr
    if getattr(args, "seed", None) is not None:
        if args.command == "generate":
            rc.gen_seed = args.seed
        else:
            rc.train.seed = args.seed
    if getattr(args, "seq_len", None) is not None:
        if args.command in ("profile", "eval"):
            rc.eval_seq_len = args.seq_len
        else:
            rc.train.seq_len = args.seq_len
    if getattr(args, "t_steps", None) is not None:
        rc.eval_t_steps = args.t_steps
    return rc


def cmd_train(rc: RunConfig, mode: str) -> int:
    _require(rc, "corpus", "out")
    corpus = data.load_corpus(rc.corpus)
    teacher_cfg = teacher_params = None
    if mode == "spad":
        _require(rc, "teacher")
        teacher_cfg, teacher_params, extra, _ = load_model(rc.teacher)
        if extra.get("arch") != "dense":
            raise ConfigError("run.teacher must point at a dense (train-teacher) checkpoint")
        rc.train.spad = rc.spad
    res = train_loop(rc.train, rc.model, corpus, mode=mode,
                     teacher_cfg=teacher_cfg, teacher_params=teacher_params,
                     metrics_path=rc.metrics or None)
    arch = "dense" if mode == "teacher" else "spiking"
    save_model(rc.out, rc.model, res.params,
               extra_fields={"arch": arch, "trained_steps": rc.train.total_steps})
    _write_snapshot(rc, rc.out)
    last = res.metrics[-1].loss if res.metrics else float("nan")
    val = "n/a" if res.val_ce is None else f"{res.val_ce:.4f}"
    print(f"wrote {rc.out} after {rc.train.total_steps} steps "
          f"(final loss {last:.4f}, val ce {val})")
    return 0


def cmd_generate(rc: RunConfig) -> int:
    _require(rc, "checkpoint")
    cfg, params, extra, _ = load_model(rc.checkpoint)
    if extra.get("arch") == "dense":
        raise ConfigError("generate needs a spiking checkpoint, got a dense one")
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


def cmd_profile(rc: RunConfig) -> int:
    _require(rc, "checkpoint", "corpus")
    cfg, params, extra, _ = load_model(rc.checkpoint)
    if extra.get("arch") == "dense":
        raise ConfigError("profile needs a spiking checkpoint, got a dense one")
    if rc.eval_t_steps:
        cfg.t_steps = rc.eval_t_steps  # profile at a different T than trained
        cfg.validate()
    windows, _ = _eval_slice(rc, cfg)
    xb, _ = data.batch_at(windows, 0, min(rc.train.batch_size, len(windows)))
    _, trace = snn_forward(xb, cfg, params)
    report = energy.energy_report(cfg, trace)
    text = energy.render_report(report)
    _write_output(rc, text)
    sys.stdout.write(text)
    return 0


def cmd_eval(rc: RunConfig) -> int:
    _require(rc, "checkpoint", "corpus")
    cfg, params, extra, _ = load_model(rc.checkpoint)
    dense = extra.get("arch") == "dense"
    windows, seq_len = _eval_slice(rc, cfg)
    ce = evaluate_ce(cfg, params, windows, rc.train.batch_size, dense=dense)
    lines = [f"val_ce: {ce:.10g}", f"seq_len: {seq_len}", f"windows: {len(windows)}"]
    if not dense:
        xb, _ = data.batch_at(windows, 0, min(rc.train.batch_size, len(windows)))
        _, trace = snn_forward(xb, cfg, params)
        for i, rates in enumerate(energy.measure_firing_rates(trace)):
            lines.append(f"layer{i}.sfsa_rate: {rates['sfsa']:.10g}")
            lines.append(f"layer{i}.sffn_rate: {rates['sffn']:.10g}")
    text = "\n".join(lines) + "\n"
    _write_output(rc, text)
    sys.stdout.write(text)
    return 0


def run_command(args) -> int:
    if args.command == "selftest":
        from .selftest import run_selftest
        return 1 if run_selftest() else 0
    rc = resolve(args)
    rc.model.validate()
    rc.train.validate()
    rc.spad.validate()
    if args.command == "train-teacher":
        return cmd_train(rc, "teacher")
    if args.command == "train":
        return cmd_train(rc, "hard")
    if args.command == "distill":
        return cmd_train(rc, "spad")
    if args.command == "generate":
        return cmd_generate(rc)
    if args.command == "profile":
        return cmd_profile(rc)
    if args.command == "eval":
        return cmd_eval(rc)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run_command(args)
    except ValueError as e:  # the package error family derives from ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
