"""Fingerprint a fixed-seed CLI walkthrough: the sha256 of every file it writes.

    PYTHONPATH=src python tools/fingerprint.py OUTDIR
    PYTHONPATH=src python tools/fingerprint.py OUTDIR --against OTHER/src

Writes a small repeating corpus to OUTDIR, then runs train-teacher, binary
and ternary train, distill (each 20 steps with --metrics), greedy and
seeded generate, eval and profile there. Thresholds are low enough that
every neuron population fires. A ternary spike is +-ternary_amp and fires
past the same amp, so a std-0.02 projection of spikes never reaches the band
in one step; the ternary run sets amp 3, under which a silent membrane
grows threefold per step, with 4 steps and a larger learning rate.

Then it re-runs every command, in the same order, from the `<out>.config`
snapshot that its first run wrote, and exits non-zero naming the first file
whose digest changed. Otherwise it prints `sha256  name` for each of the 21
files, sorted by name. spikeclm is imported from PYTHONPATH.

With --against, the walkthrough runs into OUTDIR/here with that spikeclm,
and again in a subprocess whose PYTHONPATH is OTHER/src, into
OUTDIR/against. It prints the name of each file whose digest differs
between the two, or is missing from one, and exits 1 if any does.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

from spikeclm.cli import main as spikeclm_main

CORPUS = "the spike gate leaks a burst of charge; " * 300
MODEL = ("model.d_model=32", "model.n_layers=2", "model.n_heads=4", "model.d_ff=64",
         "model.max_seq_len=32", "model.t_steps=2", "model.u_thr=0.03",
         "model.attn_thr=0.03", "model.ternary_amp=0.03")
TRAIN = ("--steps", "20", "--seq-len", "32", "--batch-size", "4", "--seed", "1")


def commands() -> list:
    """The walkthrough's argument lists, in the order they must run.

    Paths are relative to the output directory, so the config snapshots,
    which record them, do not depend on where it lies.
    """
    def train(command, name, *sets, extra=()):
        return [command, "--corpus", "corpus.txt", "--out", f"{name}.ckpt",
                "--metrics", f"{name}.metrics", *TRAIN, *extra,
                *(a for s in MODEL + sets for a in ("--set", s))]

    def use(command, name, ckpt, *args):
        return [command, "--checkpoint", f"{ckpt}.ckpt", "--out", f"{name}.txt", *args]

    return [
        train("train-teacher", "teacher", "model.n_layers=4"),
        train("train", "hard"),
        train("train", "ternary", "model.neuron_mode=ternary", "model.ternary_amp=3",
              "model.attn_thr=3", "model.t_steps=4", extra=("--lr", "0.1")),
        train("distill", "spad", extra=("--teacher", "teacher.ckpt")),
        use("generate", "greedy", "hard", "--prompt", "the spike ", "--n-new", "24"),
        use("generate", "seeded", "spad", "--prompt", "the spike ", "--n-new", "24",
            "--temperature", "0.8", "--seed", "3"),
        use("eval", "eval", "ternary", "--corpus", "corpus.txt"),
        use("profile", "profile", "spad", "--corpus", "corpus.txt", "--t-steps", "4"),
    ]


def run(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = spikeclm_main(argv)
    if code != 0:
        raise SystemExit(f"fingerprint: spikeclm {' '.join(argv)} exited {code}")


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def fingerprint(out: Path) -> dict:
    """Run the walkthrough into the empty directory `out`, then again from its
    snapshots; return each file's digest by name."""
    out = out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"fingerprint: {out} is not empty")
    (out / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    with contextlib.chdir(out):
        for argv in commands():
            run(argv)
        first = digests(out)
        for argv in commands():
            run([argv[0], "--config", argv[argv.index("--out") + 1] + ".config"])
    again = digests(out)
    for name, digest in first.items():
        if again.get(name) != digest:
            raise SystemExit(f"fingerprint: {name} changed when re-run from its .config snapshot")
    return first


def against(out: Path, src: str) -> int:
    """Run the walkthrough here and under the spikeclm in src; print each
    file whose digest differs and return 1 if any does."""
    here = fingerprint(out / "here")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, __file__, str(out / "against")], env=env,
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"fingerprint: the walkthrough under {src} exited {proc.returncode}")
    there = {name: digest for digest, name in
             (line.split("  ") for line in proc.stdout.splitlines())}
    differ = sorted(name for name in here.keys() | there.keys()
                    if here.get(name) != there.get(name))
    print("\n".join(differ) if differ else f"all {len(here)} digests equal")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[2] == "--against":
        sys.exit(against(Path(sys.argv[1]), sys.argv[3]))
    if len(sys.argv) != 2:
        raise SystemExit("usage: fingerprint.py OUTDIR [--against SRC]")
    found = fingerprint(Path(sys.argv[1]))
    print("\n".join(f"{digest}  {name}" for name, digest in found.items()))
