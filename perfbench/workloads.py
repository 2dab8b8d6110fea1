"""The three benchmark workloads, their seeded inputs and their oracles.

Every workload is a closed loop: one client in one process, each operation
starting when the previous one returns. An operation is a train step, a
generate request, an eval batch or a profile; it fails on an exception or a
failed correctness check.

Inputs come from the workload seed through ``numerics.Rng``, so the same seed
gives the same corpus, initial weights, prompts and sampling streams.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from spikeclm import data, energy, model, numerics, training
from spikeclm.distill import SpadConfig
from spikeclm.model import ModelConfig
from spikeclm.training import TrainConfig
from tracer import percentile

# The 16 words of the test suite's corpus: byte-regular words with
# high-entropy boundaries, so a few dozen steps visibly lower the loss.
WORDS = ("spike", "gate", "leak", "burst", "charge", "drift", "pulse", "route",
         "sum", "fire", "decay", "bind", "carry", "mask", "fuse", "clock")
CORPUS_WORDS = 18500  # ~100 KB

SMOKE_CFG = ModelConfig(d_model=64, n_layers=2, n_heads=4, d_ff=256,
                        max_seq_len=64, t_steps=2)
# The dense teacher of distill-spad: the README's four-layer teacher at the
# student's width and window. The student is SMOKE_CFG, not the README's
# d=32, L=32 test scale: on a shared 2-vCPU host, its eval_tokens_per_s
# spread 26-35% (IQR/median) over ten runs of the same code, past the
# benchmark's 25% bound; at the smoke size each timing spread 18% or less.
TEACHER_CFG = ModelConfig(d_model=64, n_layers=4, n_heads=4, d_ff=256,
                          max_seq_len=64, t_steps=1)
TEACHER_STEPS = 20

# init_params draws embeddings with std 0.02, far below the firing threshold,
# so a fresh spiking model stays silent for ~50 steps at lr 1e-2 and its loss
# reads ln(257) throughout. Scaling the embedding tables to std 1 makes the
# encoder fire from the first step: the cost per step is the same (every
# product is dense), but the loss and val_ce then move, and guard quality.
EMB_SCALE = 50.0

BATCH = 8
VAL_FRACTION = 0.1  # the TrainConfig default
ROUND_REQUESTS = 8


def word_stream(seed: int, n_words: int = CORPUS_WORDS) -> np.ndarray:
    """Token ids of a seeded uniform stream of WORDS separated by spaces."""
    idx = numerics.Rng(seed).integers(0, len(WORDS), (n_words,))
    return data.encode(" ".join(WORDS[i] for i in idx) + " ")


def firing_init(cfg: ModelConfig, seed: int) -> dict:
    """init_params with the embedding tables scaled to std 1 (see EMB_SCALE)."""
    params = model.init_params(cfg, seed)
    params["tok_emb"] *= EMB_SCALE
    params["pos_emb"] *= EMB_SCALE
    return params


# -- oracles ------------------------------------------------------------------


def all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def expected_eval_macs(cfg: ModelConfig, seq_len: int, n_windows: int) -> int:
    """Forward MACs of evaluate_ce over n_windows: B*(T*sum(sfsa+sffn) + head)."""
    fc = energy.count_flops(cfg, seq_len)
    return n_windows * (cfg.t_steps * (sum(fc.sfsa) + sum(fc.sffn)) + fc.head)


def greedy_matches(tokens, prompt_len: int, cfg: ModelConfig, params: dict) -> bool:
    """Every generated token is the argmax of a full snn_forward over its window."""
    for j in range(prompt_len, len(tokens)):
        window = np.asarray(tokens[max(0, j - cfg.max_seq_len):j], dtype=np.int64)
        logits, _ = model.snn_forward(window, cfg, params, collect=False)
        if int(np.argmax(logits[-1])) != tokens[j]:
            return False
    return True


def report_roundtrips(rep, text: str) -> bool:
    """parse_report(text) gives back the fields of rep that text renders."""
    got = energy.parse_report(text)
    want = {"seq_len": rep.seq_len, "t_steps": rep.t_steps,
            "embed_flops": rep.embed_flops, "lmhead_flops": rep.head_flops}
    for i, le in enumerate(rep.layers):
        for part in ("sfsa", "sffn"):
            want[f"layer{i}.{part}.flops"] = getattr(le, f"{part}_flops")
            want[f"layer{i}.{part}.sops"] = getattr(le, f"{part}_sops")
            want[f"layer{i}.{part}.firing_rate"] = getattr(le, f"{part}_rate")
    want["snn_energy_mj"] = rep.snn_energy_mj
    want["ann_energy_mj"] = rep.ann_energy_mj
    for key, val in want.items():
        if key not in got:
            return False
        if isinstance(val, int) and got[key] != val:
            return False
        if not math.isclose(got[key], val, rel_tol=1e-9, abs_tol=1e-12):
            return False
    return True


# -- bookkeeping ----------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, n: int, ok: bool, why: str = "") -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.reasons) < 5:
                self.reasons.append(why)


class Clock:
    """Timestamps optimizer and evaluate_ce calls from the benchmark's side.

    train_loop has no per-step hook, so a step ends when its adam_step
    returns and the next one starts there.
    """

    def __init__(self):
        self.step_ends: list[float] = []
        self.evals: list[tuple[float, int, float]] = []  # seconds, tokens, ce
        self._saved = []

    def install(self) -> None:
        adam, evaluate = training.adam_step, training.evaluate_ce

        def timed_adam(*args, **kwargs):
            out = adam(*args, **kwargs)
            self.step_ends.append(time.perf_counter())
            return out

        def timed_eval(cfg, params, windows, batch_size=8, **kwargs):
            t0 = time.perf_counter()
            ce = evaluate(cfg, params, windows, batch_size, **kwargs)
            self.evals.append((time.perf_counter() - t0,
                               int(windows.targets.size), ce))
            return ce

        self._saved = [("adam_step", adam), ("evaluate_ce", evaluate)]
        training.adam_step, training.evaluate_ce = timed_adam, timed_eval

    def uninstall(self) -> None:
        for attr, orig in self._saved:
            setattr(training, attr, orig)
        self._saved = []


@dataclass
class Phase:
    """What one timed phase measured; e2e metrics are computed from it.

    Throughputs are medians over repeats (training) or rounds (infer), so
    that a burst of interference moves them less than a total over the run.
    """

    op_ms: list = field(default_factory=list)      # step ms, or decode ms/token
    op_rates: list = field(default_factory=list)   # tokens/s of each repeat or round
    eval_rates: list = field(default_factory=list)  # tokens/s of each evaluate_ce
    op_tokens: int = 0
    val_ce: float = float("nan")
    units: int = 0        # train steps, or infer rounds
    firing: dict = field(default_factory=dict)

    def same_ce(self, ce: float) -> bool:
        """ce is finite and equals every earlier val_ce of this phase."""
        return math.isfinite(ce) and (math.isnan(self.val_ce) or ce == self.val_ce)

    def add_evals(self, evals) -> None:
        for secs, toks, ce in evals:
            self.eval_rates.append(toks / secs)
            self.val_ce = ce

    def end_to_end(self) -> dict:
        return {
            "tokens_per_s": percentile(self.op_rates, 50),
            "op_ms_p50": percentile(self.op_ms, 50),
            "op_ms_p90": percentile(self.op_ms, 90),
            "eval_tokens_per_s": percentile(self.eval_rates, 50),
            "val_ce": self.val_ce,
        }


# -- workloads ----------------------------------------------------------------


class TrainWorkload:
    """Repeated seeded train_loop runs of a fixed length until time is up.

    Each repeat trains from the same initial weights, so all repeats must
    end with the bit-identical val_ce; steps are timed between consecutive
    optimizer calls, which drops each repeat's first step and its set-up.
    """

    kind = "train"

    def __init__(self, mode: str, cfg: ModelConfig, steps: int):
        self.mode, self.cfg, self.steps = mode, cfg, steps

    def train_config(self, seed: int) -> TrainConfig:
        spad = SpadConfig() if self.mode == "spad" else None
        return TrainConfig(total_steps=self.steps, batch_size=BATCH,
                           seq_len=self.cfg.max_seq_len, lr_peak=1e-2, seed=seed,
                           val_fraction=VAL_FRACTION, spad=spad)

    def setup(self, seed: int, workdir) -> dict:
        ctx = {"corpus": word_stream(seed), "params": firing_init(self.cfg, seed),
               "teacher": None}
        if self.mode == "spad":
            tc = TrainConfig(total_steps=TEACHER_STEPS, batch_size=BATCH,
                             seq_len=TEACHER_CFG.max_seq_len, lr_peak=1e-2,
                             seed=seed, val_fraction=VAL_FRACTION)
            res = training.train_loop(tc, TEACHER_CFG, ctx["corpus"], mode="teacher")
            if not all_finite([res.val_ce] + [r.loss for r in res.metrics]):
                raise RuntimeError("teacher training produced a non-finite loss")
            ctx["teacher"] = res.params
        return ctx

    def measure(self, ctx, seconds, seed, clock, tracer, tally, phase=None) -> Phase:
        """Repeat until `seconds` have passed, at least once; add to `phase`."""
        phase = phase or Phase()
        tc = self.train_config(seed)
        n_eval = math.ceil(len(data.make_windows(
            data.split_corpus(ctx["corpus"], VAL_FRACTION)[1], tc.seq_len)) / BATCH)
        repeats = 0
        deadline = time.perf_counter() + seconds
        while repeats == 0 or time.perf_counter() < deadline:
            repeats += 1
            mark_step, mark_eval = len(clock.step_ends), len(clock.evals)
            tracer.begin_steps()
            try:
                res = training.train_loop(
                    tc, self.cfg, ctx["corpus"], mode=self.mode,
                    teacher_cfg=TEACHER_CFG if self.mode == "spad" else None,
                    teacher_params=ctx["teacher"], params=ctx["params"])
            except Exception as exc:  # a failed op is counted, not fatal
                tally.record(self.steps + n_eval, False, f"train_loop: {exc!r}")
                continue
            losses = [r.loss for r in res.metrics]
            steps_ok = all_finite(losses) and losses[-1] < losses[0]
            tally.record(self.steps, steps_ok, f"losses {losses[0]} -> {losses[-1]}")
            tally.record(n_eval, phase.same_ce(res.val_ce),
                         f"val_ce {res.val_ce} (before {phase.val_ce})")
            gaps = np.diff(clock.step_ends[mark_step:])
            phase.op_ms.extend((gaps * 1e3).tolist())
            phase.op_rates.append(len(gaps) * BATCH * tc.seq_len / float(gaps.sum()))
            phase.op_tokens += len(gaps) * BATCH * tc.seq_len
            phase.units += len(gaps)
            phase.add_evals(clock.evals[mark_eval:])
        return phase


@dataclass
class Request:
    prompt: list
    n_new: int
    temperature: float
    rng_seed: int


class InferWorkload:
    """Untaped inference from a checkpoint: generate, evaluate_ce, one profile.

    One round is ROUND_REQUESTS generate requests, an eval pass over a fixed
    window set and one energy profile; rounds repeat until time is up.
    """

    kind = "infer"
    cfg = SMOKE_CFG
    SETUP_STEPS = 20
    EVAL_WINDOWS = 32

    def setup(self, seed: int, workdir) -> dict:
        corpus = word_stream(seed)
        n_hold = self.EVAL_WINDOWS * self.cfg.max_seq_len + 4096
        train_ids, held = corpus[:-n_hold], corpus[-n_hold:]
        tc = TrainConfig(total_steps=self.SETUP_STEPS, batch_size=BATCH,
                         seq_len=self.cfg.max_seq_len, lr_peak=1e-2, seed=seed,
                         val_fraction=0.0)
        res = training.train_loop(tc, self.cfg, train_ids,
                                  params=firing_init(self.cfg, seed))
        path = os.path.join(workdir, f"infer-{os.getpid()}.ckpt")
        try:
            model.save_model(path, self.cfg, res.params)
            cfg, params, _, _ = model.load_model(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        if cfg != self.cfg or params.keys() != res.params.keys() or not all(
                np.array_equal(params[k], res.params[k]) for k in params):
            raise RuntimeError("checkpoint did not round-trip bit-identically")
        eval_ids = held[-self.EVAL_WINDOWS * self.cfg.max_seq_len:]
        return {"cfg": cfg, "params": params,
                "windows": data.make_windows(eval_ids, self.cfg.max_seq_len),
                "requests": make_requests(seed, held[:4096], self.cfg.max_seq_len)}

    def measure(self, ctx, seconds, seed, clock, tracer, tally, phase=None) -> Phase:
        """Run rounds until `seconds` have passed, at least one; add to `phase`."""
        phase = phase or Phase()
        cfg, params, windows = ctx["cfg"], ctx["params"], ctx["windows"]
        n_eval = math.ceil(len(windows) / BATCH)
        want_macs = expected_eval_macs(cfg, cfg.max_seq_len, len(windows))
        requests = ctx["requests"]
        greedy_seen = rounds = 0
        deadline = time.perf_counter() + seconds
        while rounds == 0 or time.perf_counter() < deadline:
            rounds += 1
            start = phase.units * ROUND_REQUESTS
            round_tokens, round_seconds = 0, 0.0
            for i in range(start, start + ROUND_REQUESTS):
                req = requests[i % len(requests)]
                tracer.next_op()
                rng = numerics.Rng(req.rng_seed) if req.temperature > 0 else None
                try:
                    with tracer.span("op.generate", n_new=req.n_new):
                        t0 = time.perf_counter()
                        out = model.generate(req.prompt, req.n_new, cfg, params,
                                             temperature=req.temperature, rng=rng)
                        dt = time.perf_counter() - t0
                except Exception as exc:
                    tally.record(1, False, f"generate: {exc!r}")
                    continue
                toks = out.tokens
                ok = (len(toks) == len(req.prompt) + req.n_new
                      and toks[:len(req.prompt)] == req.prompt
                      and all(0 <= t < cfg.vocab_size for t in toks))
                if ok and req.temperature == 0.0:
                    greedy_seen += 1
                    if greedy_seen % 2 == 1:
                        with tracer.span("perfbench.check"):
                            ok = greedy_matches(toks, len(req.prompt), cfg, params)
                tally.record(1, ok, f"generate request {i} failed its check")
                phase.op_ms.append(dt * 1e3 / req.n_new)
                round_tokens += req.n_new
                round_seconds += dt
            if round_seconds > 0:
                phase.op_rates.append(round_tokens / round_seconds)
                phase.op_tokens += round_tokens

            tracer.next_op()
            mark = len(clock.evals)
            try:
                with tracer.span("op.eval"), numerics.count_macs() as mc:
                    ce = training.evaluate_ce(cfg, params, windows, BATCH)
                ok = phase.same_ce(ce) and mc.macs == want_macs
                tally.record(n_eval, ok, f"eval ce {ce} macs {mc.macs} != {want_macs}")
            except Exception as exc:
                tally.record(n_eval, False, f"evaluate_ce: {exc!r}")
            phase.add_evals(clock.evals[mark:])

            tracer.next_op()
            try:
                with tracer.span("op.profile"):
                    _, trace = model.snn_forward(windows.inputs[:BATCH], cfg, params)
                    rep = energy.energy_report(cfg, trace)
                    text = energy.render_report(rep)
                ok = report_roundtrips(rep, text)
                tally.record(1, ok, "energy report did not round-trip")
                phase.firing = {f"layer{i}.{part}": getattr(le, f"{part}_rate")
                                for i, le in enumerate(rep.layers)
                                for part in ("sfsa", "sffn")}
            except Exception as exc:
                tally.record(1, False, f"profile: {exc!r}")
            phase.units += 1
        return phase


def make_requests(seed: int, source: np.ndarray, max_seq_len: int, n: int = 256) -> list:
    """Seeded generate requests over held-out text, ROUND_REQUESTS to a round.

    The shapes follow a fixed plan, so every seed pays about the same per
    round: prompts of 1/4, 3/8, 1/2 and 5/8 of the window, outputs of 1/4 to
    a whole window rotating by round, so that most requests pass max_seq_len
    and slide the window. The first four of a round are greedy, the last
    four sample at 0.8. The seed picks the prompt text and sampling streams.
    """
    rng = numerics.Rng(seed ^ 0x5EED)
    quarter = max_seq_len // 4
    out = []
    for i in range(n):
        r, k = divmod(i, ROUND_REQUESTS)
        plen = quarter + (k % 4) * max_seq_len // 8
        n_new = quarter * (1 + (k + r) % 4)
        start = rng.integers(0, len(source) - plen)
        out.append(Request(prompt=[int(t) for t in source[start:start + plen]],
                           n_new=n_new, temperature=0.0 if k < ROUND_REQUESTS // 2 else 0.8,
                           rng_seed=int(rng.integers(0, 2**31))))
    return out


# Repeats are short so that a 30-s run holds eight or more of them, and as
# many val passes, for the medians over repeats. They are long enough that
# the loss falls by half or more and val_ce varies ~1.5% between seeds.
WORKLOADS = {
    "train-hard": TrainWorkload("hard", SMOKE_CFG, steps=15),
    "distill-spad": TrainWorkload("spad", SMOKE_CFG, steps=15),
    "infer": InferWorkload(),
}
