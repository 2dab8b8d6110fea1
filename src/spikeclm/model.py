"""Causal language models: a spiking student and a dense teacher.

The student stacks residual blocks over binary spike streams. Token plus
position embeddings drive an encoder neuron population for t_steps; the
[T, B, L, d] stack of its spikes flows through the blocks layer by layer
(spiking attention, then a spiking two-layer FFN, each over all T steps in
one call), the pre-head representations are averaged over time, and one
real-valued projection produces logits. Residual connections add spike
trains, so deeper blocks see small integer spike sums; every tensor
produced inside a block is strictly binary.

The teacher is an ordinary pre-norm transformer (dense attention, ReLU
FFN, LayerNorm) over the same weight layout, run once per sequence with no
time dimension. Both models read parameters from a flat name -> tensor
dict so the training loop can swap plain arrays for taped Vars.

Checkpoints are a small self-describing binary format, documented at
write_checkpoint, with every multi-byte value little-endian.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from . import autodiff as ad
from .attention import AttnWeights, csa_forward, sfsa_forward
from .errors import (ConfigError, EvaluationError, ShapeError, ValidationError,
                     require_finite_fields)
from .neurons import LifParams, NeuronSpec, TernaryParams
from .numerics import Rng

LN_EPS = 1e-5


@dataclass
class ModelConfig:
    vocab_size: int = 257      # byte vocabulary plus BOS
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_seq_len: int = 64
    t_steps: int = 2           # simulation steps per token position
    neuron_mode: str = "binary"
    beta: float = 0.5
    u_thr: float = 1.0
    attn_thr: float = 1.0      # threshold of the attention-score neurons
    surrogate_alpha: float = 2.0
    ternary_amp: float = 1.0
    ternary_reset: float = 0.0

    def validate(self) -> None:
        require_finite_fields(self)
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        for name in ("d_model", "n_layers", "n_heads", "d_ff", "max_seq_len", "t_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} is not divisible by n_heads {self.n_heads}")
        if self.attn_thr <= 0.0:
            raise ConfigError(f"attn_thr must be positive, got {self.attn_thr}")
        self.neuron_spec().validate()

    def neuron_spec(self, relaxed: bool = False) -> NeuronSpec:
        return NeuronSpec(
            mode=self.neuron_mode,
            lif=LifParams(self.beta, self.u_thr, self.surrogate_alpha),
            ternary=TernaryParams(self.ternary_amp, self.ternary_reset,
                                  self.surrogate_alpha),
            relaxed=relaxed)

    def attn_spec(self, relaxed: bool = False) -> NeuronSpec:
        return self.neuron_spec(relaxed).with_threshold(self.attn_thr)


# -- parameters ---------------------------------------------------------------


def init_params(cfg: ModelConfig, seed: int, kind: str = "student") -> dict:
    """Fresh parameter dict; kind 'teacher' adds LayerNorm tensors.

    Weights and embeddings draw N(0, 0.02) from one splitmix64 stream in a
    fixed order; biases start at zero, norm gains at one.
    """
    cfg.validate()
    if kind not in ("student", "teacher"):
        raise ConfigError(f"unknown model kind {kind!r}")
    rng = Rng(seed)
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    p: dict[str, np.ndarray] = {}
    p["tok_emb"] = rng.normal((v, d), std=0.02)
    p["pos_emb"] = rng.normal((cfg.max_seq_len, d), std=0.02)
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        for name in ("w_q", "w_k", "w_v", "w_out"):
            p[pre + "attn." + name] = rng.normal((d, d), std=0.02)
            p[pre + "attn." + name.replace("w", "b")] = np.zeros(d)
        p[pre + "ffn.w1"] = rng.normal((d, f), std=0.02)
        p[pre + "ffn.b1"] = np.zeros(f)
        p[pre + "ffn.w2"] = rng.normal((f, d), std=0.02)
        p[pre + "ffn.b2"] = np.zeros(d)
        if kind == "teacher":
            p[pre + "ln1.g"] = np.ones(d)
            p[pre + "ln1.b"] = np.zeros(d)
            p[pre + "ln2.g"] = np.ones(d)
            p[pre + "ln2.b"] = np.zeros(d)
    if kind == "teacher":
        p["final_ln.g"] = np.ones(d)
        p["final_ln.b"] = np.zeros(d)
    p["head.w"] = rng.normal((d, v), std=0.02)
    return p


def expected_param_count(cfg: ModelConfig, kind: str = "student") -> int:
    """Closed-form size of init_params output, for cross-checking."""
    d, f, v, s, n = cfg.d_model, cfg.d_ff, cfg.vocab_size, cfg.max_seq_len, cfg.n_layers
    per_layer = 4 * (d * d + d) + (d * f + f) + (f * d + d)
    total = v * d + s * d + n * per_layer + d * v
    if kind == "teacher":
        total += n * 4 * d + 2 * d
    return total


def count_params(params: dict) -> int:
    return sum(int(np.prod(ad.value(t).shape)) for t in params.values())


def _attn_weights(params: dict, layer: int) -> AttnWeights:
    pre = f"layers.{layer}.attn."
    return AttnWeights(params[pre + "w_q"], params[pre + "b_q"],
                       params[pre + "w_k"], params[pre + "b_k"],
                       params[pre + "w_v"], params[pre + "b_v"],
                       params[pre + "w_out"], params[pre + "b_out"])


# -- spiking feed-forward ------------------------------------------------------


def sffn_forward(x, w1, b1, w2, b2, sn: NeuronSpec):
    """Spiking FFN over all time steps: two linear maps, a neuron after each.

    x is a [T, ..., d] stack; both neuron populations start from rest.
    """
    d_in = ad.value(x).shape[-1]
    if ad.value(w1).shape[0] != d_in or ad.value(w2).shape[1] != d_in:
        raise ShapeError(
            f"ffn weights {ad.value(w1).shape}/{ad.value(w2).shape} do not match input width {d_in}")
    h = sn.run(ad.linear(x, w1, b1))
    return sn.run(ad.linear(h, w2, b2))


# -- traces --------------------------------------------------------------------


@dataclass
class TraceBundle:
    """Per-step activity recorded by snn_forward for distillation/profiling.

    embed_steps is the [T, B, L, d] stack of encoder spikes; attn_spikes[l]
    is layer l's [T, B, h, L, L] stack of attention spike maps and
    hidden[l] the [T, B, L, d] stack of its FFN output spikes, so
    attn_spikes[l][t] is the map at step t. The *_active/_total pairs count
    nonzero entries against all entries of each sublayer's input, summed
    over time steps, for firing-rate estimates.
    """

    seq_len: int
    t_steps: int
    embed_steps: object = None
    attn_spikes: list = field(default_factory=list)
    hidden: list = field(default_factory=list)
    sfsa_in_active: np.ndarray | None = None
    sfsa_in_total: np.ndarray | None = None
    sffn_in_active: np.ndarray | None = None
    sffn_in_total: np.ndarray | None = None

    def mean_firing_rate(self) -> float:
        active = self.sfsa_in_active.sum() + self.sffn_in_active.sum()
        total = self.sfsa_in_total.sum() + self.sffn_in_total.sum()
        return float(active / total) if total else 0.0


def _count_active(x) -> tuple[int, int]:
    d = ad.value(x)
    return int(np.count_nonzero(d)), int(d.size)


# -- student forward -----------------------------------------------------------


def _check_tokens(tokens, cfg: ModelConfig) -> np.ndarray:
    ids = np.asarray(tokens)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2:
        raise ShapeError(f"tokens must be rank 1 or 2, got shape {ids.shape}")
    if ids.shape[1] < 1:
        raise ShapeError("empty token sequence")
    if ids.shape[1] > cfg.max_seq_len:
        raise ShapeError(
            f"sequence length {ids.shape[1]} exceeds max_seq_len {cfg.max_seq_len}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValidationError("token ids must be integers")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValidationError(
            f"token ids must lie in [0, {cfg.vocab_size}), got range "
            f"[{ids.min()}, {ids.max()}]")
    return ids.astype(np.int64)


@dataclass
class DecodeCache:
    """Key and value spikes of the positions an incremental decode has run.

    k[i] and v[i] are layer i's [T, B, max_seq_len, d] buffers, allocated
    when a forward starts on an empty cache; positions below `length` hold
    the key and value spikes at each time step. snn_forward reads them as
    the past of its new positions and writes those positions in place; a
    forward with a cache returns the logits of its last new position only.
    """

    length: int = 0
    k: list = field(default_factory=list)
    v: list = field(default_factory=list)


def snn_forward(tokens, cfg: ModelConfig, params: dict, relaxed: bool = False,
                collect: bool = True, cache: DecodeCache | None = None):
    """Run the spiking model over a token batch.

    tokens: int array [L] or [B, L]. Returns (logits, TraceBundle) with
    logits [B, L, vocab] ([L, vocab] when the input was rank 1). Set
    collect=False to skip storing the spike stacks (counters are still
    filled); relaxed=True replaces every threshold with its smooth
    surrogate, making the forward differentiable end to end.

    The forward runs layer by layer: each block takes the [T, B, L, d]
    stack of its input spikes and returns the stack of its output spikes.

    With a cache holding P positions, tokens are positions P..P+L-1 of the
    same sequences: they read pos_emb[P:P+L], attend to the cached keys and
    values, and are written to the cache. Only the logits of the last new
    position are returned, [B, 1, vocab] ([1, vocab] for rank-1 tokens), so
    the forward computes only what they and the cache need: the blocks
    before the last and the last block's keys and values run over all L new
    rows, and the last block's query, attention, output and FFN and the
    head over the last row. The trace then holds that one query row for the
    last layer (attn_spikes[-1] [T, B, h, 1, P+L], hidden[-1] [T, B, 1, d]),
    and its last SFFN counters count that row. The logits match the last
    row of a full forward over all P+L tokens up to rounding: a product
    over fewer rows may sum in another order inside BLAS, while spikes,
    scores and context sums are exact. Prefill is the same call on an
    empty cache.
    """
    ids = _check_tokens(tokens, cfg)
    squeeze = np.asarray(tokens).ndim == 1
    b, l = ids.shape
    n, t_steps = cfg.n_layers, cfg.t_steps
    past_len = 0
    if cache is not None:
        if relaxed or any(map(ad.is_var, params.values())):
            raise ConfigError("the decode cache needs an untaped hard-threshold forward")
        past_len = cache.length
        if past_len + l > cfg.max_seq_len:
            raise ShapeError(f"{past_len} cached plus {l} new positions exceed "
                             f"max_seq_len {cfg.max_seq_len}")
        if past_len and cache.k[0].shape[:2] != (t_steps, b):
            raise ShapeError(f"cache holds {cache.k[0].shape[0]} steps of batch "
                             f"{cache.k[0].shape[1]}, tokens need {t_steps} of batch {b}")

    # [1, B, L, d]: one current that drives the encoder at every step
    emb = ad.take_rows(params["tok_emb"], ids[None]) + params["pos_emb"][past_len:past_len + l]
    sn = cfg.neuron_spec(relaxed)
    attn_sn = cfg.attn_spec(relaxed)

    trace = TraceBundle(seq_len=l, t_steps=t_steps)
    trace.sfsa_in_active = np.zeros(n)
    trace.sfsa_in_total = np.zeros(n)
    trace.sffn_in_active = np.zeros(n)
    trace.sffn_in_total = np.zeros(n)
    if cache is not None and not past_len:
        shape = (t_steps, b, cfg.max_seq_len, cfg.d_model)
        cache.k = [np.empty(shape) for _ in range(n)]
        cache.v = [np.empty(shape) for _ in range(n)]

    stream = sn.run(emb, t_steps)
    if collect:
        trace.embed_steps = stream
    for i in range(n):
        trace.sfsa_in_active[i], trace.sfsa_in_total[i] = _count_active(stream)
        past = None
        if past_len:
            past = (cache.k[i][:, :, :past_len], cache.v[i][:, :, :past_len])
        # with a cache only the last position's logits are returned: beyond
        # its keys and values, the last block runs that row alone
        last_row = cache is not None and i == n - 1
        attn_out, attn_spk, (sk, sv) = sfsa_forward(
            stream, _attn_weights(params, i), sn, attn_sn, cfg.n_heads, past=past,
            last_row=last_row)
        if cache is not None:
            cache.k[i][:, :, past_len:past_len + l] = sk
            cache.v[i][:, :, past_len:past_len + l] = sv
        if last_row:
            stream = stream[:, :, -1:]
        y = stream + attn_out
        trace.sffn_in_active[i], trace.sffn_in_total[i] = _count_active(y)
        pre = f"layers.{i}.ffn."
        ffn_out = sffn_forward(y, params[pre + "w1"], params[pre + "b1"],
                               params[pre + "w2"], params[pre + "b2"], sn)
        if collect:
            trace.attn_spikes.append(attn_spk)
            trace.hidden.append(ffn_out)
        stream = y + ffn_out

    logits = decode_logits(stream, params["head.w"])
    if cache is not None:
        cache.length = past_len + l
    if squeeze:
        logits = logits.reshape(-1, cfg.vocab_size)
    return logits, trace


def time_mean(steps):
    """Mean over the leading time axis of a [T, ...] stack (array or Var).

    The steps are summed in t order; a plain array is then divided by T and
    a Var multiplied by 1/T, as Var division by a number does.
    """
    d = ad.value(steps)
    if d.ndim == 0 or len(d) == 0:
        raise ShapeError("time_mean needs at least one time step")
    total = d[0]
    for s in d[1:]:
        total = total + s
    n = len(d)
    if not isinstance(steps, ad.Var):
        return total / n
    return ad.custom_op(total * (1.0 / n),
                        (steps, lambda g: np.broadcast_to(g * (1.0 / n), d.shape)))


def decode_logits(head_inputs, w_head):
    """Average a [T, ...] stack of representations over time, then project."""
    return ad.matmul(time_mean(head_inputs), w_head)


# -- dense teacher -------------------------------------------------------------


def layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * ((var + LN_EPS) ** -0.5) * g + b


@dataclass
class TeacherTrace:
    """Dense-model activity consumed by the alignment losses."""

    logits: object
    embed: object        # [B, L, d] after position add
    attn_maps: list      # per layer, [B, h, L, L] post-softmax
    hidden: list         # per layer, [B, L, d] block outputs


def ann_forward(tokens, cfg: ModelConfig, params: dict):
    """Run the dense teacher once (no time dimension).

    Pre-norm blocks: x += attn(LN(x)); x += ffn(LN(x)); final LayerNorm
    before the head. Returns (logits, TeacherTrace).
    """
    ids = _check_tokens(tokens, cfg)
    squeeze = np.asarray(tokens).ndim == 1
    b, l = ids.shape

    x = ad.take_rows(params["tok_emb"], ids) + params["pos_emb"][:l]
    trace = TeacherTrace(logits=None, embed=x, attn_maps=[], hidden=[])

    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        h = layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        attn_out, attn_map = csa_forward(h, _attn_weights(params, i), cfg.n_heads)
        x = x + attn_out
        h2 = layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        mid = ad.relu(ad.linear(h2, params[pre + "ffn.w1"], params[pre + "ffn.b1"]))
        x = x + ad.linear(mid, params[pre + "ffn.w2"], params[pre + "ffn.b2"])
        trace.attn_maps.append(attn_map)
        trace.hidden.append(x)

    x = layer_norm(x, params["final_ln.g"], params["final_ln.b"])
    logits = ad.matmul(x, params["head.w"])
    trace.logits = logits
    if squeeze:
        logits = logits.reshape(l, cfg.vocab_size)
    return logits, trace


# -- generation ----------------------------------------------------------------


@dataclass
class GenerateResult:
    tokens: list
    truncated_steps: int  # decode steps whose context no longer fit


def generate(prompt, n_new: int, cfg: ModelConfig, params: dict,
             temperature: float = 0.0, rng: Rng | None = None) -> GenerateResult:
    """Autoregressive decoding with a sliding context window.

    The prompt is prefilled into a DecodeCache and each new token then runs
    one position. Once the window slides past max_seq_len every position
    shifts under pos_emb, so each later token prefills a fresh cache with
    the whole window: one full pass of the blocks before the last and of
    the last block's keys and values, plus one row of the rest. temperature
    0 picks the argmax (lowest id on ties); positive values sample from
    softmax(logits / temperature) using the supplied rng.
    """
    ids = [int(t) for t in prompt]
    if not ids:
        raise ValidationError("prompt must not be empty")
    if any(t < 0 or t >= cfg.vocab_size for t in ids):
        raise ValidationError("prompt contains out-of-range token ids")
    if n_new < 0:
        raise ConfigError(f"n_new must be >= 0, got {n_new}")
    if not (np.isfinite(temperature) and temperature >= 0.0):
        raise ConfigError(f"temperature must be finite and >= 0, got {temperature}")
    if temperature > 0.0 and rng is None:
        raise ConfigError("sampling with temperature > 0 requires an rng")

    truncated = 0
    cache = DecodeCache()
    for step in range(n_new):
        if len(ids) > cfg.max_seq_len:
            truncated += 1
            cache, new = DecodeCache(), ids[-cfg.max_seq_len:]
        else:
            new = ids[cache.length:]
        logits, _ = snn_forward(np.asarray(new, dtype=np.int64), cfg, params,
                                collect=False, cache=cache)
        last = ad.value(logits)[0]
        if not np.isfinite(last).all():
            raise EvaluationError(f"non-finite logits at decode step {step}")
        if temperature == 0.0:
            nxt = int(np.argmax(last))  # first hit, so ties go to the lowest id
        else:
            p = ad.softmax(last / temperature)
            nxt = int(np.searchsorted(np.cumsum(p), rng.uniform()))
            nxt = min(nxt, cfg.vocab_size - 1)
        ids.append(nxt)
    return GenerateResult(tokens=ids, truncated_steps=truncated)


# -- checkpoints ---------------------------------------------------------------

CKPT_MAGIC = b"SCLM"
CKPT_VERSION = 1


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a new file beside path for writing ("w" or "wb").

    On a clean exit the file replaces path in one os.replace; if the block
    raises, the file is removed and path keeps its earlier contents.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, mode.replace("w", "x"))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_checkpoint(path, fields: dict, tensors: dict) -> None:
    """Serialize string fields plus named float64 tensors.

    Layout (all integers little-endian, strings utf-8):

        magic   4 bytes  b"SCLM"
        version u32
        nfields u32, then per field:  u16 key_len, key, u32 val_len, value
        ntensors u32, then per tensor (sorted by name):
            u16 name_len, name, u8 rank, u32 dim per axis, raw <f8 data

    The file at path is replaced whole or not at all.
    """
    with atomic_open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(fields)))
        for k in fields:
            kb = str(k).encode("utf-8")
            vb = str(fields[k]).encode("utf-8")
            fh.write(struct.pack("<H", len(kb)) + kb)
            fh.write(struct.pack("<I", len(vb)) + vb)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)) + nb)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8", copy=False).tobytes())


def read_checkpoint(path):
    """Inverse of write_checkpoint; returns (fields, tensors)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(blob):
            raise ValidationError(f"checkpoint truncated at byte {off}")
        out = blob[off:off + n]
        off += n
        return out

    if take(4) != CKPT_MAGIC:
        raise ValidationError(f"{path} is not a model checkpoint")
    (ver,) = struct.unpack("<I", take(4))
    if ver != CKPT_VERSION:
        raise ValidationError(f"unsupported checkpoint version {ver}")
    fields = {}
    (nf,) = struct.unpack("<I", take(4))
    for _ in range(nf):
        (klen,) = struct.unpack("<H", take(2))
        key = take(klen).decode("utf-8")
        (vlen,) = struct.unpack("<I", take(4))
        fields[key] = take(vlen).decode("utf-8")
    tensors = {}
    (nt,) = struct.unpack("<I", take(4))
    for _ in range(nt):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(8 * count), dtype="<f8").astype(np.float64)
        tensors[name] = data.reshape(shape)
    if off != len(blob):
        raise ValidationError(f"checkpoint has {len(blob) - off} trailing bytes")
    return fields, tensors


def config_to_fields(cfg: ModelConfig) -> dict:
    return {f.name: str(getattr(cfg, f.name)) for f in dc_fields(ModelConfig)}


def config_from_fields(fields: dict) -> ModelConfig:
    kwargs = {}
    for f in dc_fields(ModelConfig):
        if f.name in fields:
            kwargs[f.name] = parse_field(f.name, fields[f.name], f.type)
    cfg = ModelConfig(**kwargs)
    cfg.validate()
    return cfg


def parse_field(name: str, raw: str, typ):
    """Parse a stored string as the int, float or str a config field declares.

    typ is a dataclass field's type, either the class or, under postponed
    annotations, its name.
    """
    try:
        if typ in (int, "int"):
            return int(raw)
        if typ in (float, "float"):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {name}: {raw!r}") from None


def save_model(path, cfg: ModelConfig, params: dict,
               extra_fields: dict | None = None) -> None:
    fields = config_to_fields(cfg)
    fields["kind"] = "model"
    if extra_fields:
        fields.update({str(k): str(v) for k, v in extra_fields.items()})
    write_checkpoint(path, fields, {k: ad.value(v) for k, v in params.items()})


def load_model(path):
    """Returns (cfg, params, extra_fields, opt_tensors).

    The parameter tensors must match init_params for the stored config by
    name and shape: the teacher layout when the arch field says "dense",
    the student layout otherwise. Every parameter value must be finite.
    opt_tensors holds the "opt." tensors of older checkpoints (their Adam
    moments, unread) and is {} for files save_model writes; non-config
    fields, such as an older file's adam_t, land in extra_fields.
    """
    fields, tensors = read_checkpoint(path)
    cfg = config_from_fields(fields)
    params = {k: v for k, v in tensors.items() if not k.startswith("opt.")}
    opt = {k[len("opt."):]: v for k, v in tensors.items() if k.startswith("opt.")}
    known = {f.name for f in dc_fields(ModelConfig)}
    extra = {k: v for k, v in fields.items() if k not in known}
    kind = "teacher" if extra.get("arch") == "dense" else "student"
    expected = init_params(cfg, 0, kind)
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise ValidationError(f"{path}: {kind} checkpoint lacks tensor {name}")
        if name not in expected:
            raise ValidationError(f"{path}: unexpected tensor {name} in {kind} checkpoint")
        if params[name].shape != expected[name].shape:
            raise ValidationError(
                f"{path}: tensor {name} has shape {params[name].shape}, "
                f"expected {expected[name].shape}")
        if not np.isfinite(params[name]).all():
            raise ValidationError(f"{path}: tensor {name} holds non-finite values")
    return cfg, params, extra, opt
