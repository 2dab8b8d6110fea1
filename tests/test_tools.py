"""Smoke test of the scripts under tools/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spikeclm import model

ROOT = Path(__file__).resolve().parent.parent

# the corpus, then per training run a checkpoint, its snapshot and its
# metrics, and per use of a checkpoint an output and its snapshot
FINGERPRINT_FILES = ({"corpus.txt"}
                     | {f"{run}.{ext}" for run in ("teacher", "hard", "ternary", "spad")
                        for ext in ("ckpt", "ckpt.config", "metrics")}
                     | {f"{use}.{ext}" for use in ("greedy", "seeded", "eval", "profile")
                        for ext in ("txt", "txt.config")})


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The fingerprint tool's directory and its printed lines."""
    out = tmp_path_factory.mktemp("fingerprint") / "walk"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"),
                           str(out)], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    return out, proc.stdout.splitlines()


def test_fingerprint_lists_every_walkthrough_file(walkthrough):
    _, lines = walkthrough
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    assert [line.split("  ")[1] for line in lines] == sorted(FINGERPRINT_FILES)
    assert len(lines) == len(FINGERPRINT_FILES) == 21


@pytest.mark.parametrize("student", ["hard", "ternary", "spad"])
def test_no_walkthrough_student_has_a_silent_sublayer(walkthrough, student, monkeypatch):
    """Every layer's attention map, SFSA output and SFFN output fires on the
    corpus, so the digests cover live spikes in every sublayer."""
    out, _ = walkthrough
    cfg, params, _, _ = model.load_model(out / f"{student}.ckpt")
    text = (out / "corpus.txt").read_bytes()[:4 * cfg.max_seq_len]
    ids = np.frombuffer(text, dtype=np.uint8).astype(np.int64).reshape(4, -1)
    sfsa_forward, sffn_forward = model.sfsa_forward, model.sffn_forward
    sfsa_out, sffn_out = [], []

    def recording_sfsa(*args, **kwargs):
        res = sfsa_forward(*args, **kwargs)
        sfsa_out.append(res[0])
        return res

    def recording_sffn(*args, **kwargs):
        res = sffn_forward(*args, **kwargs)
        sffn_out.append(res)
        return res
    monkeypatch.setattr(model, "sfsa_forward", recording_sfsa)
    monkeypatch.setattr(model, "sffn_forward", recording_sffn)
    _, trace = model.snn_forward(ids, cfg, params)
    for i in range(cfg.n_layers):
        assert np.count_nonzero(trace.attn_spikes[i]), f"layer {i} attention"
        assert np.count_nonzero(sfsa_out[i]), f"layer {i} SFSA output"
        assert np.count_nonzero(sffn_out[i]), f"layer {i} SFFN output"
