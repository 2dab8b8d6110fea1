"""Smoke tests of the scripts under tools/ and of the benchmark's workloads."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spikeclm import model
from spikeclm.distill import LOSS_NAMES
from spikeclm.training import METRICS_COLUMNS, parse_metrics

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


def test_fingerprint_against_its_own_src_finds_no_difference(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fingerprint.py"),
                           str(tmp_path / "fp"), "--against", str(ROOT / "src")], env=env,
                          text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (0, "all 21 digests equal\n"), proc.stderr
    assert sorted(p.name for p in (tmp_path / "fp").iterdir()) == ["against", "here"]


def test_walkthrough_metrics_parse_and_add_up(walkthrough):
    """Each training run's metrics read back with one row per step. A row's
    loss is the sum of its five weighted terms; a CE-only row's is all hard."""
    out, _ = walkthrough
    assert METRICS_COLUMNS[3:8] == LOSS_NAMES
    for run in ("teacher", "hard", "ternary", "spad"):
        rows = parse_metrics((out / f"{run}.metrics").read_text())
        assert [r.step for r in rows] == list(range(1, 21)), run
        for r in rows:
            terms = [getattr(r, name) for name in LOSS_NAMES]
            if run == "spad":
                np.testing.assert_allclose(r.loss, sum(terms), rtol=1e-9)
            else:
                assert terms == [0.0, 0.0, 0.0, 0.0, r.loss], run


@pytest.mark.parametrize("student", ["hard", "ternary", "spad"])
def test_no_walkthrough_student_has_a_silent_sublayer(walkthrough, student):
    """Every neuron population fires on the corpus, and none at every entry,
    so the digests cover live spikes in every sublayer."""
    out, _ = walkthrough
    cfg, params, _, _ = model.load_model(out / f"{student}.ckpt")
    text = (out / "corpus.txt").read_bytes()[:4 * cfg.max_seq_len]
    ids = np.frombuffer(text, dtype=np.uint8).astype(np.int64).reshape(4, -1)
    _, trace = model.snn_forward(ids, cfg, params)
    # the encoder and eight per layer; layerN.in and .mid are residual sums
    populations = [name for name in trace.activity if not name.endswith((".in", ".mid"))]
    assert len(populations) == 1 + 8 * cfg.n_layers == 17
    for name in populations:
        assert 0.0 < trace.rate(name) < 1.0, name


@pytest.mark.parametrize("name", ["train-hard", "distill-spad", "infer"])
def test_benchmark_workload_runs_once(name, tmp_path, monkeypatch):
    """One repeat or round of each perfbench workload, with its own set-up,
    oracles and failure tally: a package change that breaks the benchmark's
    use of the API fails here."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    seed = 1
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(seed, tmp_path)
    clock, tally = workloads.Clock(), workloads.Tally()
    clock.install()
    try:
        phase = wl.measure(ctx, 0, seed, clock, tracer.NullTracer(), tally)
    finally:
        clock.uninstall()
    assert tally.attempted > 0 and tally.failed == 0, tally.reasons
    assert phase.units > 0
    assert list(tmp_path.iterdir()) == []
