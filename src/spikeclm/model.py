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

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dc_fields, replace

import numpy as np

from . import autodiff as ad
from .attention import ATTN_NAMES, csa_forward, sfsa_forward
from .errors import (ConfigError, EvaluationError, ShapeError, ValidationError,
                     require_finite_fields)
from .neurons import LifParams, NeuronSpec, TernaryParams
from .numerics import Rng

LN_EPS = 1e-5
# A block's sublayers and their tensors, stored as "layers.N.<sublayer>.<name>".
FFN_NAMES = ("w1", "b1", "w2", "b2")
SUBLAYERS = {"attn": ATTN_NAMES, "ffn": FFN_NAMES}


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
        """neuron_spec with attn_thr as the LIF threshold and the ternary band."""
        sn = self.neuron_spec(relaxed)
        return replace(sn, lif=replace(sn.lif, u_thr=self.attn_thr),
                       ternary=replace(sn.ternary, amp=self.attn_thr))


# -- parameters ---------------------------------------------------------------


def param_shapes(cfg: ModelConfig, arch: str = "spiking") -> dict:
    """Name -> shape of every tensor of the given family, in init_params'
    order; "dense" adds LayerNorm gains (".g") and biases (".b")."""
    if arch not in ("spiking", "dense"):
        raise ConfigError(f"unknown model arch {arch!r}")
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    sub_shapes = {"attn": [(d, d), (d,)] * 4, "ffn": [(d, f), (f,), (f, d), (d,)]}
    norm = (".g", ".b") if arch == "dense" else ()  # LayerNorm gain, bias
    shapes = {"tok_emb": (v, d), "pos_emb": (cfg.max_seq_len, d)}
    for i in range(cfg.n_layers):
        for sub, names in SUBLAYERS.items():
            shapes.update((f"layers.{i}.{sub}.{name}", shape)
                          for name, shape in zip(names, sub_shapes[sub], strict=True))
        shapes.update((f"layers.{i}.{ln}{x}", (d,)) for ln in ("ln1", "ln2") for x in norm)
    shapes.update((f"final_ln{x}", (d,)) for x in norm)
    shapes["head.w"] = (d, v)
    return shapes


def init_params(cfg: ModelConfig, seed: int, arch: str = "spiking") -> dict:
    """Fresh parameter dict in param_shapes' layout and order.

    Weights and embeddings (the 2-D tensors) draw N(0, 0.02) from one
    splitmix64 stream in that order; biases start at zero, norm gains at one.
    """
    cfg.validate()
    rng = Rng(seed)
    return {name: (rng.normal(shape, std=0.02) if len(shape) == 2
                   else np.ones(shape) if name.endswith(".g") else np.zeros(shape))
            for name, shape in param_shapes(cfg, arch).items()}


def arch_of(params: dict) -> str:
    """The family a parameter dict belongs to: "dense" when it holds the
    teacher's LayerNorm tensors, "spiking" otherwise."""
    return "dense" if "final_ln.g" in params else "spiking"


def sublayer(params: dict, layer: int, sub: str) -> dict:
    """Layer `layer`'s "attn" or "ffn" tensors, keyed by their SUBLAYERS names."""
    pre = f"layers.{layer}.{sub}."
    return {name: params[pre + name] for name in SUBLAYERS[sub]}


# -- spiking feed-forward ------------------------------------------------------


def sffn_forward(x, w: dict, sn: NeuronSpec) -> dict:
    """Spiking FFN over all time steps: two linear maps, a neuron after each.

    x is a [T, ..., d] stack and w maps FFN_NAMES to tensors; both neuron
    populations start from rest and are returned by name: ffn1
    [T, ..., d_ff] and ffn2, shaped like x.
    """
    d_in = ad.value(x).shape[-1]
    w1, w2 = ad.value(w["w1"]).shape, ad.value(w["w2"]).shape
    if w1[0] != d_in or w2[1] != d_in:
        raise ShapeError(f"ffn weights {w1}/{w2} do not match input width {d_in}")
    h = sn.run(ad.linear(x, w["w1"], w["b1"]))
    return {"ffn1": h, "ffn2": sn.run(ad.linear(h, w["w2"], w["b2"]))}


# -- traces --------------------------------------------------------------------


@dataclass
class TraceBundle:
    """The spike stacks of one snn_forward, by population name.

    activity maps each name to the [T, ...] stack produced under it, a Var
    when the forward was taped: "enc" for the encoder, then per layer N
    "layerN.in" (the block's input, into SFSA), "layerN.q", ".k", ".v",
    ".attn" (the [T, B, h, L, P + L] score spikes), ".ctx" (per head),
    ".out", "layerN.mid" (the residual sum into SFFN), ".ffn1" and ".ffn2".
    A forward run with collect=False records nothing. Counts are taken
    when a rate is read, over all time steps.
    """

    seq_len: int
    t_steps: int
    n_layers: int
    activity: dict = field(default_factory=dict)

    def count(self, name: str) -> tuple[int, int]:
        """(nonzero entries, all entries) of the stack recorded under name."""
        if name not in self.activity:
            raise ValidationError(f"no {name!r} activity recorded (collect=False records none)")
        d = ad.value(self.activity[name])
        return int(np.count_nonzero(d)), d.size

    def rate(self, name: str) -> float:
        active, total = self.count(name)
        return active / total

    def mean_firing_rate(self) -> float:
        """Pooled rate of every block's two residual inputs, in and mid."""
        counts = [self.count(f"layer{i}.{part}")
                  for i in range(self.n_layers) for part in ("in", "mid")]
        return sum(a for a, _ in counts) / sum(t for _, t in counts)


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
    logits [B, L, vocab] ([L, vocab] when the input was rank 1). The trace
    records every neuron population's spike stack by name; collect=False
    records none. relaxed=True replaces every threshold with its smooth
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
    head over the last row. The trace records the rows that ran: all L for
    the last layer's "in", "k" and "v", the last for its other populations.
    The logits match the last row of a full forward over all P+L tokens up
    to rounding: a product over fewer rows may sum in another order inside
    BLAS, while spikes, scores and context sums are exact. Prefill is the
    same call on an empty cache.

    A dense teacher's parameters are refused with a ConfigError.
    """
    if arch_of(params) == "dense":
        raise ConfigError("snn_forward needs a spiking model's parameters, got a dense one's")
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

    trace = TraceBundle(seq_len=l, t_steps=t_steps, n_layers=n)
    if cache is not None and not past_len:
        shape = (t_steps, b, cfg.max_seq_len, cfg.d_model)
        cache.k = [np.empty(shape) for _ in range(n)]
        cache.v = [np.empty(shape) for _ in range(n)]

    def record(prefix: str, stacks: dict) -> None:
        if collect:
            trace.activity.update((prefix + name, s) for name, s in stacks.items())

    stream = sn.run(emb, t_steps)
    record("", {"enc": stream})
    for i in range(n):
        past = None
        if past_len:
            past = (cache.k[i][:, :, :past_len], cache.v[i][:, :, :past_len])
        # with a cache only the last position's logits are returned: beyond
        # its keys and values, the last block runs that row alone
        last_row = cache is not None and i == n - 1
        attn = sfsa_forward(stream, sublayer(params, i, "attn"), sn, attn_sn, cfg.n_heads,
                            past=past, last_row=last_row)
        if cache is not None:
            cache.k[i][:, :, past_len:past_len + l] = attn["k"]
            cache.v[i][:, :, past_len:past_len + l] = attn["v"]
        record(f"layer{i}.", {"in": stream, **attn})
        if last_row:
            stream = stream[:, :, -1:]
        y = stream + attn["out"]
        ffn = sffn_forward(y, sublayer(params, i, "ffn"), sn)
        record(f"layer{i}.", {"mid": y, **ffn})
        stream = y + ffn["ffn2"]
        del attn, ffn  # stacks not recorded are freed before the next layer runs

    logits = decode_logits(stream, params["head.w"])
    if cache is not None:
        cache.length = past_len + l
    if squeeze:
        logits = logits.reshape(-1, cfg.vocab_size)
    return logits, trace


def time_mean(steps):
    """Mean over the leading time axis of a [T, ...] stack (array or Var).

    The steps are summed in t order, then divided by T.
    """
    d = ad.value(steps)
    if d.ndim == 0 or len(d) == 0:
        raise ShapeError("time_mean needs at least one time step")
    total = d[0]
    for s in d[1:]:
        total = total + s
    n = len(d)
    return ad.custom_op(total / n, (steps, lambda g: np.broadcast_to(g / n, d.shape)))


def decode_logits(head_inputs, w_head):
    """Average a [T, ...] stack of representations over time, then project."""
    return ad.matmul(time_mean(head_inputs), w_head)


# -- dense teacher -------------------------------------------------------------


def unit_layer_norm(x: np.ndarray):
    """LayerNorm of x over its last axis with unit gain and zero bias.

    Returns (y, r): the normalized x and the 1/std it was scaled by.
    """
    xc = x - x.mean(axis=-1, keepdims=True)
    r = ((xc * xc).mean(axis=-1, keepdims=True) + LN_EPS) ** -0.5
    return xc * r, r


def unit_layer_norm_vjp(y: np.ndarray, r: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of x given dy, for y, r = unit_layer_norm(x)."""
    return r * (dy - dy.mean(axis=-1, keepdims=True)
                - y * (dy * y).mean(axis=-1, keepdims=True))


def layer_norm(x, g, b):
    """unit_layer_norm(x) * g + b on either kind, as one node."""
    gv = ad.value(g)
    y, r = unit_layer_norm(ad.value(x))
    return ad.custom_op(y * gv + ad.value(b),
                        (x, lambda dy: unit_layer_norm_vjp(y, r, dy * gv)),
                        (g, lambda dy: dy * y), (b, lambda dy: dy))


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
    before the head. Returns (logits, TeacherTrace). A spiking model's
    parameters are refused with a ConfigError.
    """
    if arch_of(params) != "dense":
        raise ConfigError("ann_forward needs a dense model's parameters, got a spiking one's")
    ids = _check_tokens(tokens, cfg)
    squeeze = np.asarray(tokens).ndim == 1
    b, l = ids.shape

    x = ad.take_rows(params["tok_emb"], ids) + params["pos_emb"][:l]
    trace = TeacherTrace(logits=None, embed=x, attn_maps=[], hidden=[])

    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        h = layer_norm(x, params[pre + "ln1.g"], params[pre + "ln1.b"])
        attn_out, attn_map = csa_forward(h, sublayer(params, i, "attn"), cfg.n_heads)
        x = x + attn_out
        h2 = layer_norm(x, params[pre + "ln2.g"], params[pre + "ln2.b"])
        w = sublayer(params, i, "ffn")
        x = x + ad.linear(ad.relu(ad.linear(h2, w["w1"], w["b1"])), w["w2"], w["b2"])
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
            # shifted first, so a tiny temperature sends all but the top
            # logits to -inf instead of every logit to +-inf
            with np.errstate(over="ignore"):
                p = ad.softmax((last - last.max()) / temperature)
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
    raises, the file is removed and path keeps its earlier contents. A
    file that cannot be made raises an OSError that names path.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode.replace("w", "x"))
    except OSError as e:
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
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
        count = math.prod(shape)
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
    """Parse a stored string as the int, float or str a config field declares."""
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {name}: {raw!r}") from None


def save_model(path, cfg: ModelConfig, params: dict,
               extra_fields: dict | None = None) -> None:
    """Write params under cfg's fields, kind "model", arch_of(params) as arch,
    then extra_fields, which may not set arch."""
    fields = config_to_fields(cfg)
    fields["kind"] = "model"
    fields["arch"] = arch_of(params)
    if extra_fields:
        if "arch" in extra_fields:
            raise ConfigError("save_model writes arch itself; extra_fields may not set it")
        fields.update({str(k): str(v) for k, v in extra_fields.items()})
    write_checkpoint(path, fields, {k: ad.value(v) for k, v in params.items()})


def load_model(path):
    """Returns (cfg, params, extra_fields, opt_tensors).

    The parameter tensors must match param_shapes for the stored config and
    arch by name and shape, and every value must be finite. A file without
    an arch field is spiking; an arch other than "spiking" or "dense" is refused.
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
    arch = extra.get("arch", "spiking")
    if arch not in ("spiking", "dense"):
        raise ValidationError(f"{path}: unknown arch {arch!r}, expected 'spiking' or 'dense'")
    expected = param_shapes(cfg, arch)
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise ValidationError(f"{path}: {arch} checkpoint lacks tensor {name}")
        if name not in expected:
            raise ValidationError(f"{path}: unexpected tensor {name} in {arch} checkpoint")
        if params[name].shape != expected[name]:
            raise ValidationError(
                f"{path}: tensor {name} has shape {params[name].shape}, "
                f"expected {expected[name]}")
        if not np.isfinite(params[name]).all():
            raise ValidationError(f"{path}: tensor {name} holds non-finite values")
    return cfg, params, extra, opt
