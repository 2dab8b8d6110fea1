"""Shared fixtures: corpora and the trained artifacts the slow tests reuse.

Everything here is deterministic. The expensive session-scoped runs are
shared between the CLI tests and the acceptance suite so the whole tree
trains each model exactly once.
"""

import time

import pytest

from spikeclm import data
from spikeclm.distill import SpadConfig
from spikeclm.model import ModelConfig
from spikeclm.numerics import Rng
from spikeclm.training import TrainConfig, train_loop

WORDS = ("spike", "gate", "leak", "burst", "charge", "drift", "pulse", "route",
         "sum", "fire", "decay", "bind", "carry", "mask", "fuse", "clock")


def word_stream_text(n_words: int, seed: int = 11) -> str:
    """Uniform random word stream: high-entropy boundaries, byte-regular words."""
    rng = Rng(seed)
    return " ".join(WORDS[int(rng.integers(0, len(WORDS)))] for _ in range(n_words)) + " "


@pytest.fixture(scope="session")
def smoke_corpus():
    """~100 KB of word-stream text for the desk-scale learning run."""
    ids = data.encode(word_stream_text(18500))
    assert len(ids) >= 100_000
    return ids


@pytest.fixture(scope="session")
def distill_corpus():
    """~280 KB so 1000-step student runs stay within a single epoch."""
    return data.encode(word_stream_text(50000))


@pytest.fixture(scope="session")
def periodic_corpus():
    return data.encode("ab" * 2048)


@pytest.fixture(scope="session")
def smoke_model_cfg():
    return ModelConfig(d_model=64, n_layers=2, n_heads=4, d_ff=256,
                       max_seq_len=64, t_steps=2)


@pytest.fixture(scope="session")
def smoke_run(smoke_corpus, smoke_model_cfg):
    """Hard-only training at smoke scale; reused by energy and CE checks."""
    tc = TrainConfig(total_steps=800, batch_size=8, seq_len=64, lr_peak=1e-2,
                     seed=0, val_fraction=0.1)
    t0 = time.time()
    res = train_loop(tc, smoke_model_cfg, smoke_corpus)
    return {"cfg": smoke_model_cfg, "train_cfg": tc, "result": res,
            "seconds": time.time() - t0}


@pytest.fixture(scope="session")
def periodic_run(periodic_corpus, smoke_model_cfg):
    """Same architecture trained on the alternating corpus."""
    tc = TrainConfig(total_steps=500, batch_size=8, seq_len=32, lr_peak=1e-2,
                     seed=0, val_fraction=0.1)
    t0 = time.time()
    res = train_loop(tc, smoke_model_cfg, periodic_corpus)
    return {"cfg": smoke_model_cfg, "train_cfg": tc, "result": res,
            "seconds": time.time() - t0}


DISTILL_TEACHER_CFG = ModelConfig(d_model=32, n_layers=4, n_heads=4, d_ff=128,
                                  max_seq_len=32, t_steps=1)
DISTILL_STUDENT_CFG = ModelConfig(d_model=32, n_layers=2, n_heads=4, d_ff=128,
                                  max_seq_len=32, t_steps=2)


@pytest.fixture(scope="session")
def distill_teacher(distill_corpus):
    tc = TrainConfig(total_steps=300, batch_size=8, seq_len=32, lr_peak=1e-2,
                     seed=0, val_fraction=0.1)
    res = train_loop(tc, DISTILL_TEACHER_CFG, distill_corpus, mode="teacher")
    return {"cfg": DISTILL_TEACHER_CFG, "result": res}


def train_student(corpus, teacher, lambdas=None, seed=1, steps=1000):
    """Student run at the defaults' learning rate; lambdas None = hard mode."""
    spad = SpadConfig(lambdas=lambdas) if lambdas is not None else None
    tc = TrainConfig(total_steps=steps, batch_size=8, seq_len=32, lr_peak=5e-4,
                     seed=seed, val_fraction=0.1, spad=spad)
    if lambdas is None:
        return train_loop(tc, DISTILL_STUDENT_CFG, corpus, mode="hard")
    return train_loop(tc, DISTILL_STUDENT_CFG, corpus, mode="spad",
                      teacher_cfg=DISTILL_TEACHER_CFG,
                      teacher_params=teacher["result"].params)


@pytest.fixture(scope="session")
def student_hard(distill_corpus, distill_teacher):
    return train_student(distill_corpus, distill_teacher, None)


@pytest.fixture(scope="session")
def student_spad(distill_corpus, distill_teacher):
    return train_student(distill_corpus, distill_teacher, (0.2, 0.1, 0.1, 0.3, 0.3))


@pytest.fixture(scope="session")
def student_sta_hta(distill_corpus, distill_teacher):
    return train_student(distill_corpus, distill_teacher, (0.0, 0.0, 0.0, 0.5, 0.5))
