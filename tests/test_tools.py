"""Smoke test of the scripts under tools/."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the corpus, then per training run a checkpoint, its snapshot and its
# metrics, and per use of a checkpoint an output and its snapshot
FINGERPRINT_FILES = ({"corpus.txt"}
                     | {f"{run}.{ext}" for run in ("teacher", "hard", "ternary", "spad")
                        for ext in ("ckpt", "ckpt.config", "metrics")}
                     | {f"{use}.{ext}" for use in ("greedy", "seeded", "eval", "profile")
                        for ext in ("txt", "txt.config")})


def test_fingerprint_lists_every_walkthrough_file(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"),
                           str(tmp_path / "walk")], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    assert [line.split("  ")[1] for line in lines] == sorted(FINGERPRINT_FILES)
    assert len(lines) == len(FINGERPRINT_FILES) == 21
