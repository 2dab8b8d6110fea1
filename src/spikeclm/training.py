"""Optimization: BPTT through the unrolled time steps, Adam, schedules.

The backward pass is plain reverse-mode differentiation over the taped
forward; each neuron population is one tape node whose backward runs the
membrane recurrence (surrogate, decay and reset paths) in reverse through
all T steps. The eligibility-trace form exists in the neuron
module as a cross-check for single-layer cases, not as the training path.

Training modes:
  "teacher"  dense model, cross-entropy only
  "hard"     spiking model, cross-entropy only
  "spad"     spiking student against a frozen dense teacher, five-term loss

Metrics are tab-separated, one line per optimizer step, after a magic
header line and a column-name line; the columns are MetricsRow's fields:
  step       optimizer step, from 1
  lr         the step's learning rate
  loss       the loss the step's gradient is taken of
  emb..hard  the lambda-weighted terms in LOSS_NAMES order, summing to loss
             (CE-only modes report hard = loss and the other four as 0)
  fire_rate  pooled firing rate of the blocks' residual inputs (0 if dense)
Each step takes one batch, the next batch_size windows. Rows stream,
flushed one per step, into a temporary file that replaces the metrics
path once the run and its validation pass end without an error.
"""

import ctypes
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad, data
from .distill import LOSS_NAMES, SpadConfig, layer_map, loss_hard, spad_losses
from .errors import (ConfigError, EvaluationError, InternalError, ValidationError,
                     require_finite_fields)
from .model import (ModelConfig, ann_forward, arch_of, atomic_open, init_params,
                    snn_forward)

METRICS_MAGIC = "# spikeclm-metrics v1"
# A step loss above DIVERGED_NATS_PER_LN_VOCAB * ln(vocab_size) once warmup is
# over means the run has diverged: a uniform prediction costs ln(vocab_size).
DIVERGED_NATS_PER_LN_VOCAB = 10.0


@dataclass
class TrainConfig:
    total_steps: int = 100
    batch_size: int = 8
    seq_len: int = 64
    lr_peak: float = 5e-4
    warmup_ratio: float = 0.2
    grad_clip: float = 0.7
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    val_fraction: float = 0.1
    spad: SpadConfig | None = None

    def validate(self) -> None:
        require_finite_fields(self, seeds=("seed",))
        if self.total_steps < 0:
            raise ConfigError(f"total_steps must be >= 0, got {self.total_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.seq_len < 1:
            raise ConfigError(f"seq_len must be positive, got {self.seq_len}")
        if self.lr_peak <= 0:
            raise ConfigError(f"lr_peak must be > 0, got {self.lr_peak}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ConfigError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.grad_clip <= 0:
            raise ConfigError(f"grad_clip must be > 0, got {self.grad_clip}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ConfigError("adam betas must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be > 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> lr_peak over the warmup span, cosine to 0 after."""
    if not 0 <= step <= cfg.total_steps:
        raise ConfigError(f"step {step} outside [0, {cfg.total_steps}]")
    warmup = cfg.warmup_ratio * cfg.total_steps
    if step < warmup:
        return cfg.lr_peak * step / warmup
    if cfg.total_steps == warmup:
        return cfg.lr_peak
    frac = (step - warmup) / (cfg.total_steps - warmup)
    return cfg.lr_peak * 0.5 * (1.0 + math.cos(math.pi * frac))


def global_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return math.sqrt(total)


def clip_gradients(grads: dict, threshold: float):
    """Scale all gradients by threshold/norm when the global L2 norm exceeds
    the threshold. Returns (grads, pre-clip norm)."""
    if threshold <= 0:
        raise ConfigError(f"clip threshold must be > 0, got {threshold}")
    norm = global_norm(grads)
    if norm > threshold:
        scale = threshold / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads, norm


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def init_adam(params: dict) -> AdamState:
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()},
                     t=0)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              cfg: TrainConfig) -> dict:
    """Bias-corrected Adam update. Mutates state, returns new params dict."""
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    out = {}
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise InternalError(f"gradient shape {g.shape} != param shape {p.shape} for {k}")
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = state.m[k] / c1
        v_hat = state.v[k] / c2
        out[k] = p - lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    return out


def bptt_backward(loss, vparams: dict) -> dict:
    """Run the tape backward from a scalar loss; zero for untouched params."""
    if not ad.is_var(loss):
        raise InternalError("bptt_backward needs a taped scalar loss")
    loss.backward()
    grads = {}
    for k, v in vparams.items():
        g = v.grad if ad.is_var(v) else None
        grads[k] = np.zeros(np.shape(ad.value(v))) if g is None else g
    return grads


def check_compat(student_cfg: ModelConfig, teacher_cfg: ModelConfig,
                 spad: SpadConfig) -> None:
    """Reject student/teacher pairs SpAD cannot align, before any step runs."""
    if student_cfg.vocab_size != teacher_cfg.vocab_size:
        raise ConfigError(
            f"vocab mismatch: student {student_cfg.vocab_size} vs "
            f"teacher {teacher_cfg.vocab_size}")
    layer_map(student_cfg.n_layers, teacher_cfg.n_layers)
    if teacher_cfg.n_heads % student_cfg.n_heads != 0:
        raise ConfigError(
            f"teacher heads {teacher_cfg.n_heads} not divisible by "
            f"student heads {student_cfg.n_heads}")
    lam = spad.lambdas
    if student_cfg.d_model != teacher_cfg.d_model and (lam[0] != 0.0 or lam[2] != 0.0):
        raise ConfigError(
            f"width mismatch: student d_model {student_cfg.d_model}, teacher "
            f"d_model {teacher_cfg.d_model}: the emb and feat losses need equal "
            f"widths or weight 0")


@dataclass
class MetricsRow:
    step: int
    lr: float
    loss: float
    emb: float
    attn: float
    feat: float
    soft: float
    hard: float
    fire_rate: float

    def as_line(self) -> str:
        vals = (getattr(self, f.name) for f in fields(self))
        return "\t".join(repr(v) if isinstance(v, int) else f"{v:.10g}" for v in vals)


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


def format_metrics(rows) -> str:
    lines = [METRICS_MAGIC, "\t".join(METRICS_COLUMNS)]
    lines.extend(r.as_line() for r in rows)
    return "\n".join(lines) + "\n"


def parse_metrics(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != METRICS_MAGIC:
        raise ValidationError("not a metrics file (bad magic line)")
    if len(lines) < 2 or tuple(lines[1].split("\t")) != METRICS_COLUMNS:
        raise ValidationError("metrics file missing column header")
    rows = []
    for ln in lines[2:]:
        if not ln:
            continue
        parts = ln.split("\t")
        if len(parts) != len(METRICS_COLUMNS):
            raise ValidationError(f"malformed metrics row: {ln!r}")
        try:
            rows.append(MetricsRow(*(f.type(p) for f, p in zip(fields(MetricsRow), parts))))
        except ValueError:
            raise ValidationError(f"malformed metrics row: {ln!r}") from None
    return rows


@dataclass
class TrainResult:
    params: dict
    metrics: list
    val_ce: float | None


def _flat_ce(logits, targets):
    return loss_hard(logits.reshape((-1, logits.shape[-1])),
                     np.reshape(targets, (-1,)))


def evaluate_ce(cfg: ModelConfig, params: dict, windows, batch_size: int = 8) -> float:
    """Mean next-token cross-entropy over a window set, taped nowhere: through
    ann_forward or snn_forward, as model.arch_of reads params' family."""
    n = len(windows)
    if n == 0:
        raise ValidationError("no evaluation windows")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n_batches = (n + batch_size - 1) // batch_size
    total, denom = 0.0, 0
    for b in range(n_batches):
        rows = np.arange(b * batch_size, min(n, (b + 1) * batch_size))
        xb, yb = windows.inputs[rows], windows.targets[rows]
        # an overflow shows once, as the non-finite logits checked below
        with np.errstate(over="ignore", invalid="ignore"):
            if arch_of(params) == "dense":
                logits, _ = ann_forward(xb, cfg, params)
            else:
                logits, _ = snn_forward(xb, cfg, params, collect=False)
        if not np.isfinite(ad.value(logits)).all():
            raise EvaluationError(f"non-finite logits in evaluation batch {b}")
        total += float(ad.value(_flat_ce(logits, yb))) * yb.size
        denom += yb.size
    return total / denom


def _step_loss(mode, xb, yb, model_cfg, vparams, teacher_cfg, teacher_params,
               spad, lif):
    """One batch's taped loss and its record: every metrics column after lr,
    by name."""
    if mode == "spad":
        # the teacher runs frozen on plain arrays, the student on the tape
        _, t_trace = ann_forward(xb, teacher_cfg, teacher_params)
        logits, trace = snn_forward(xb, model_cfg, vparams)
        total, record = spad_losses(logits, trace, t_trace, yb, spad, lif)
    else:
        forward = ann_forward if mode == "teacher" else snn_forward
        logits, trace = forward(xb, model_cfg, vparams)
        total = _flat_ce(logits, yb)
        record = dict.fromkeys(LOSS_NAMES, 0.0)
        record["hard"] = float(ad.value(total))
    record["loss"] = float(ad.value(total))
    record["fire_rate"] = 0.0 if mode == "teacher" else trace.mean_firing_rate()
    return total, record


def _keep_freed_pages_mapped() -> bool:
    """Keep the heap pages a released tape frees mapped, for the rest of the
    process, so each step's forward reuses them without page faults.

    By default glibc mmaps large arrays afresh and trims the heap's freed top,
    so every step would fault its tape's pages in again. A fixed mmap
    threshold of 32 MiB (which also ends glibc's dynamic threshold) puts the
    tape's arrays on the heap, and a 1 GiB trim threshold keeps them there.
    Returns whether both were set: without glibc's mallopt nothing is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(-3, 32 << 20) == 1     # M_MMAP_THRESHOLD
            and mallopt(-1, 1 << 30) == 1)  # M_TRIM_THRESHOLD


def train_loop(cfg: TrainConfig, model_cfg: ModelConfig, corpus,
               mode: str = "hard", teacher_cfg: ModelConfig | None = None,
               teacher_params: dict | None = None, params: dict | None = None,
               metrics_path=None) -> TrainResult:
    """Train for cfg.total_steps optimizer steps in one of the modes above.

    Given params (the starting point) must be of the mode's family, and
    SpAD's teacher_params dense: a mismatch, like a bad setting, is a
    ConfigError before step 1 and before the metrics file is opened.
    On glibc it sets two allocator thresholds for the rest of the process
    (_keep_freed_pages_mapped).
    """
    cfg.validate()
    model_cfg.validate()
    if mode not in ("teacher", "hard", "spad"):
        raise ConfigError(f"unknown training mode {mode!r}")
    spad = cfg.spad if cfg.spad is not None else SpadConfig()
    limits = {"model.max_seq_len": model_cfg.max_seq_len}
    if mode == "spad":
        if teacher_cfg is None or teacher_params is None:
            raise ConfigError("spad mode requires teacher_cfg and teacher_params")
        if arch_of(teacher_params) != "dense":
            raise ConfigError("spad training needs a dense teacher, got a spiking one")
        spad.validate()
        check_compat(model_cfg, teacher_cfg, spad)
        limits["the teacher's max_seq_len"] = teacher_cfg.max_seq_len
    for name, limit in limits.items():
        if cfg.seq_len > limit:
            raise ConfigError(f"train.seq_len {cfg.seq_len} exceeds {name} {limit}")

    train_ids, val_ids = data.split_corpus(np.asarray(corpus), cfg.val_fraction)
    windows = data.make_windows(train_ids, cfg.seq_len)
    val_windows = (data.make_windows(val_ids, cfg.seq_len)
                   if len(val_ids) >= cfg.seq_len else None)

    arch = "dense" if mode == "teacher" else "spiking"
    if params is None:
        params = init_params(model_cfg, cfg.seed, arch)
    elif arch_of(params) != arch:
        raise ConfigError(f"{mode} training needs {arch} parameters, "
                          f"got a {arch_of(params)} model's")
    else:
        params = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    opt = init_adam(params)
    lif = model_cfg.neuron_spec().lif
    warmup = cfg.warmup_ratio * cfg.total_steps
    diverged = DIVERGED_NATS_PER_LN_VOCAB * math.log(model_cfg.vocab_size)

    _keep_freed_pages_mapped()
    rows = []
    with atomic_open(metrics_path) if metrics_path is not None else io.StringIO() as fh:
        fh.write(format_metrics([]))
        for step in range(cfg.total_steps):
            lr = lr_schedule(step + 1, cfg)
            vparams = {k: ad.Var(p) for k, p in params.items()}
            xb, yb = data.batch_at(windows, step, cfg.batch_size)
            # an overflow shows once, as the non-finite loss or norm checked below
            with np.errstate(over="ignore", invalid="ignore"):
                total, record = _step_loss(mode, xb, yb, model_cfg, vparams,
                                           teacher_cfg, teacher_params, spad, lif)
                grads = bptt_backward(total, vparams)
                # release the tape, so the next forward builds its own in the
                # pages this one freed
                del total
                grads, norm = clip_gradients(grads, cfg.grad_clip)
            row = MetricsRow(step=step + 1, lr=lr, **record)
            loss = row.loss
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise EvaluationError(f"non-finite loss {loss} or gradient norm {norm} "
                                      f"at training step {step + 1}")
            if step + 1 >= warmup and loss > diverged:
                raise EvaluationError(
                    f"training diverged at step {step + 1}: loss {loss:.4g} exceeds "
                    f"{DIVERGED_NATS_PER_LN_VOCAB:g} ln(vocab_size) = {diverged:.4g}")
            params = adam_step(params, grads, opt, lr, cfg)
            rows.append(row)
            fh.write(row.as_line() + "\n")
            fh.flush()

        val_ce = None if val_windows is None else evaluate_ce(
            model_cfg, params, val_windows, cfg.batch_size)
    return TrainResult(params=params, metrics=rows, val_ce=val_ce)
