"""In-memory spans around the calls into spikeclm's modules.

The tracer never edits the package. It replaces module attributes with thin
wrappers, at the place the caller looks the name up (``training.snn_forward``
and ``model.snn_forward`` are two lookups of one function), and puts every
original back on ``uninstall``. Spans are kept in a list and written out when
the run ends.

A span is (name, start, end, parent, op, attrs). ``op`` is the step or request
id current when the span opened. Training steps have no hook at their start,
so ``close_step`` makes their spans after the fact: step k runs from the end
of optimizer call k-1 to the end of optimizer call k, and every root span
opened in between becomes its child.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field

from spikeclm import autodiff, data, energy, model, neurons, numerics, training

# (module, attribute, span name). The span name is the layer that owns the
# work, which is not always the module the attribute is read from.
WRAPPED = (
    (training, "snn_forward", "model.snn_forward"),
    (model, "snn_forward", "model.snn_forward"),
    (training, "ann_forward", "model.ann_forward"),
    (autodiff, "take_rows", "model.embed"),
    (model, "sfsa_forward", "attention.sfsa"),
    (model, "sffn_forward", "model.sffn"),
    (model, "decode_logits", "model.head"),
    (neurons, "lif_step", "neurons.step"),
    (neurons, "ternary_step", "neurons.step"),
    (numerics, "matmul", "numerics.matmul"),
    (data, "batch_at", "data.batch"),
    (training, "_flat_ce", "training.loss"),
    (training, "spad_losses", "distill.spad_losses"),
    (training, "bptt_backward", "autodiff.backward"),
    (training, "clip_gradients", "training.optimizer"),
    (training, "adam_step", "training.optimizer"),
    (training, "evaluate_ce", "training.eval"),
    (energy, "energy_report", "energy.report"),
    (model, "save_model", "model.save"),
    (model, "load_model", "model.load"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


# Span attributes read from a wrapped call's arguments.
ATTRS = {
    # neurons.lif_step(state, input_current, ...): taped when the input is a Var
    "neurons.step": lambda args: {"taped": autodiff.is_var(args[1])},
    # snn_forward(tokens, cfg, ...): sfsa/sffn children cycle through the layers
    "model.snn_forward": lambda args: {"n_layers": args[1].n_layers},
}


class Tracer:
    """Span stack plus per-op counters; single-threaded, like the package."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.vars_per_op: dict[int, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._macs = None
        self._step_start = None
        self._step_index = 0
        self._step_first_span = 0
        self._step_macs = 0

    # -- spans ------------------------------------------------------------

    def start(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        if parent is None and self._macs is not None:
            attrs["macs0"] = self._macs.macs
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op,
                               attrs=attrs))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is None and "macs0" in span.attrs:
            span.attrs["macs"] = self._macs.macs - span.attrs.pop("macs0")

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self.start(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def next_op(self) -> None:
        self.op += 1

    # -- training steps -----------------------------------------------------

    def begin_steps(self) -> None:
        """Start of a train_loop call: the first step includes its set-up."""
        self.next_op()
        self._step_start = self.clock()
        self._step_index = 0
        self._step_first_span = len(self.spans)
        self._step_macs = self._macs.macs if self._macs is not None else 0

    def close_step(self) -> None:
        """End of an optimizer call: turn the interval since the last one into a step."""
        if self._step_start is None or self._stack:
            return
        now = self.clock()
        macs = self._macs.macs if self._macs is not None else 0
        step = Span("training.step", self._step_start, now, op=self.op,
                    attrs={"index": self._step_index, "macs": macs - self._step_macs})
        self.spans.append(step)
        idx = len(self.spans) - 1
        for i in range(self._step_first_span, idx):
            s = self.spans[i]
            if s.parent is None and s.op == self.op:
                s.parent = idx
                s.attrs.pop("macs", None)
        self.next_op()
        self._step_start = now
        self._step_index += 1
        self._step_first_span = len(self.spans)
        self._step_macs = macs

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.start(name, **(attrs_of(args) if attrs_of else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                if after is not None:
                    after()
        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPPED and count Var constructions per op."""
        for mod, attr, name in WRAPPED:
            orig = getattr(mod, attr, None)
            if orig is None:
                print(f"perfbench: {mod.__name__}.{attr} is gone; not traced",
                      file=sys.stderr)
                continue
            self._saved.append((mod, attr, orig))
            after = self.close_step if (mod, attr) == (training, "adam_step") else None
            setattr(mod, attr, self.wrap(orig, name, after))
        init = autodiff.Var.__init__
        counts = self.vars_per_op

        def counting_init(var, *args, **kwargs):
            counts[self.op] = counts.get(self.op, 0) + 1
            init(var, *args, **kwargs)
        self._saved.append((autodiff.Var, "__init__", init))
        autodiff.Var.__init__ = counting_init
        self._macs = numerics.count_macs().__enter__()

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        if self._macs is not None:
            self._macs.__exit__(None, None, None)
            self._macs = None

    def dump(self, path) -> None:
        """Write the spans as JSON lines with their self times."""
        own = self_times(self.spans)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     "self_ms": own[i], **s.attrs}) + "\n")


def wrapped_call_us(n: int = 20000) -> float:
    """Measured cost in microseconds that one traced call adds to a bare call."""
    def noop():
        return None
    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n * 1e6


class NullTracer:
    """Stands in for Tracer in untraced runs; records nothing."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def next_op(self):
        pass

    def begin_steps(self):
        pass


def self_times(spans) -> list:
    """Each span's time in ms minus the time its child spans cover.

    Spans of one thread nest, so the children of a span never overlap and
    their durations add up to the covered time.
    """
    own = [s.ms for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.ms
    return own


def percentile(values, q: float) -> float:
    """q-th percentile (0-100) with linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


LAYERS = ("data", "neurons", "autodiff", "attention", "model", "distill",
          "training", "numerics", "energy")
N_LAYERS = 2  # every model the benchmark runs has two spiking layers


def _per_call(spans, name: str, in_setup: bool = False) -> float:
    """Mean ms of the calls to `name`; set-up spans (op 0) count if in_setup."""
    ms = [s.ms for s in spans if s.name == name and (s.op > 0 or in_setup)]
    return sum(ms) / len(ms) if ms else 0.0


def layer_metrics(tracer: Tracer, roots: list, n_units: int, train_tokens: int,
                  decode_tokens: int) -> dict:
    """Per-layer figures over the subtrees of `roots`, per unit of work.

    A unit is a counted train step or an infer round. Times are inclusive
    span times except self.* (span time minus its children). The per-call
    exceptions are training.eval_ms, model.save_ms and model.load_ms.
    """
    spans = tracer.spans
    own = self_times(spans)
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)

    total: dict = {}

    def add(key, val):
        total[key] = total.get(key, 0.0) + val

    macs = vars_ = 0
    for r in roots:
        add("trace.spans", 1)
        add("trace.unit_ms", spans[r].ms)
        add("trace.unattributed_ms", own[r])
        if spans[r].name in ("training.step", "op.generate"):
            macs += spans[r].attrs.get("macs", 0)
        vars_ += tracer.vars_per_op.get(spans[r].op, 0)
        todo = list(children[r])
        while todo:
            i = todo.pop()
            s = spans[i]
            todo.extend(children[i])
            add("trace.spans", 1)
            add(s.name + "_ms", s.ms)
            add("self." + s.name.split(".")[0] + "_ms", own[i])
            if s.name == "neurons.step":
                add("neurons.step_calls", 1)
                add("neurons.taped_step_ms" if s.attrs["taped"]
                    else "neurons.untaped_step_ms", s.ms)
            if s.name != "model.snn_forward":
                continue
            seen: dict = {}
            for c in children[i]:
                sc = spans[c]
                if sc.name in ("attention.sfsa", "model.sffn"):
                    k = seen.get(sc.name, 0)
                    seen[sc.name] = k + 1
                    add(f"{sc.name}.layer{k % s.attrs['n_layers']}_ms", sc.ms)
                elif sc.name in ("neurons.step", "model.embed"):
                    add("model.encoder_ms", sc.ms)

    units = max(n_units, 1)
    out = {}
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = total.get(f"self.{layer}_ms", 0.0) / units
    for name in ("trace.spans", "trace.unit_ms", "trace.unattributed_ms",
                 "autodiff.backward_ms", "neurons.taped_step_ms", "neurons.untaped_step_ms",
                 "neurons.step_calls", "model.encoder_ms", "model.head_ms",
                 "model.snn_forward_ms", "model.ann_forward_ms",
                 "numerics.matmul_ms", "distill.spad_losses_ms",
                 "training.loss_ms", "training.optimizer_ms", "data.batch_ms",
                 "energy.report_ms"):
        out[name] = total.get(name, 0.0) / units
    for i in range(N_LAYERS):
        for block in ("attention.sfsa", "model.sffn"):
            key = f"{block}.layer{i}_ms"
            out[key] = total.get(key, 0.0) / units
    fwd = total.get("model.snn_forward_ms", 0.0)
    out["attention.sfsa_share"] = total.get("attention.sfsa_ms", 0.0) / fwd if fwd else 0.0
    out["model.sffn_share"] = total.get("model.sffn_ms", 0.0) / fwd if fwd else 0.0
    out["autodiff.tape_nodes"] = vars_ / units
    out["numerics.macs_per_train_token"] = macs / train_tokens if train_tokens else 0.0
    out["numerics.macs_per_decode_token"] = macs / decode_tokens if decode_tokens else 0.0
    out["training.eval_ms"] = _per_call(spans, "training.eval")
    out["model.save_ms"] = _per_call(spans, "model.save", in_setup=True)
    out["model.load_ms"] = _per_call(spans, "model.load", in_setup=True)
    return out
