"""Tensor-valued reverse-mode autodiff on numpy arrays.

A Var wraps a float64 ndarray plus a closure that routes an upstream
gradient to its parents. Ops build the tape eagerly; Var.backward walks it
once in reverse topological order. Only the handful of operations the
models need exist here, and each module-level function also accepts plain
ndarrays so inference paths can skip the tape entirely.

Ops whose gradient is not built from these primitives are wired in by
their owning modules through custom_op: the caller supplies the forward
value and, per operand, a vector-Jacobian product. A neuron population's
run over all time steps is one such node, whose backward is the BPTT
recurrence.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .errors import InternalError, ShapeError


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape`, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


class Var:
    """Node in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # keep numpy from absorbing Vars into object arrays; reflected ops run instead
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Var(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph walk ---------------------------------------------------------

    def backward(self, seed=1.0) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        seed is the upstream gradient at this node (scalar or array of the
        node's shape); 1.0 is the usual choice for a scalar loss.
        """
        if not self.requires_grad:
            raise InternalError("backward called on a node with no gradient path")
        topo: list[Var] = []
        visited: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        seed_arr = np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != self.data.shape:
            seed_arr = np.broadcast_to(seed_arr, self.data.shape).copy()
        _accum(self, seed_arr)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = as_var(other)
        out = Var(self.data + o.data, _parents=(self, o))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    _accum(self, _unbroadcast(g, self.data.shape))
                if o.requires_grad:
                    _accum(o, _unbroadcast(g, o.data.shape))
            out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Var(-self.data, _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: _accum(self, -g)
        return out

    def __sub__(self, other):
        o = as_var(other)
        out = Var(self.data - o.data, _parents=(self, o))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    _accum(self, _unbroadcast(g, self.data.shape))
                if o.requires_grad:
                    _accum(o, -_unbroadcast(g, o.data.shape))
            out._backward = bw
        return out

    def __rsub__(self, other):
        return as_var(other) - self

    def __mul__(self, other):
        o = as_var(other)
        out = Var(self.data * o.data, _parents=(self, o))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    _accum(self, _unbroadcast(g * o.data, self.data.shape))
                if o.requires_grad:
                    _accum(o, _unbroadcast(g * self.data, o.data.shape))
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        return self * as_var(other) ** -1.0

    def __rtruediv__(self, other):
        return as_var(other) * self ** -1.0

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise ShapeError("Var ** exponent must be a Python scalar")
        out = Var(self.data ** p, _parents=(self,))
        if out.requires_grad:
            base = self.data
            out._backward = lambda g: _accum(self, g * p * base ** (p - 1))
        return out

    def __matmul__(self, other):
        o = as_var(other)
        out = Var(numerics.matmul(self.data, o.data), _parents=(self, o))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    ga = g @ o.data.swapaxes(-1, -2)
                    _accum(self, _unbroadcast(ga, self.data.shape))
                if o.requires_grad:
                    gb = self.data.swapaxes(-1, -2) @ g
                    _accum(o, _unbroadcast(gb, o.data.shape))
            out._backward = bw
        return out

    def __rmatmul__(self, other):
        return as_var(other) @ self

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        out = Var(self.data.reshape(shape), _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: _accum(self, g.reshape(orig))
        return out

    def swapaxes(self, a: int, b: int):
        out = Var(self.data.swapaxes(a, b), _parents=(self,))
        if out.requires_grad:
            out._backward = lambda g: _accum(self, g.swapaxes(a, b))
        return out

    def __getitem__(self, idx):
        out = Var(self.data[idx], _parents=(self,))
        if out.requires_grad:
            def bw(g):
                buf = np.zeros_like(self.data)
                np.add.at(buf, idx, g)
                _accum(self, buf)
            out._backward = bw
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out = Var(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,))
        if out.requires_grad:
            shape = self.data.shape

            def bw(g):
                if axis is None:
                    _accum(self, np.broadcast_to(g, shape).copy())
                    return
                axes = axis if isinstance(axis, tuple) else (axis,)
                gg = g if keepdims else np.expand_dims(g, axes)
                _accum(self, np.broadcast_to(gg, shape).copy())
            out._backward = bw
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = 1
            for a in axes:
                n *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def is_var(x) -> bool:
    return isinstance(x, Var)


def value(x) -> np.ndarray:
    """Raw ndarray behind x, whether taped or not."""
    return x.data if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _accum(node: Var, g: np.ndarray) -> None:
    # Never in place: one g may be handed to several parents, so a stored g
    # can be another node's gradient too. A gradient keeps node.data's memory
    # layout, since a matmul or sum over another layout may round differently,
    # so g is stored as is only when its strides match.
    if node.grad is None and g.shape == node.data.shape and g.strides == node.data.strides:
        node.grad = g
        return
    out = np.empty_like(node.data)
    if node.grad is None:
        np.copyto(out, g)
    else:
        np.add(node.grad, g, out=out)
    node.grad = out


# -- elementwise functions (dispatch on taped vs plain input) ----------------


def relu(x):
    if isinstance(x, Var):
        out = Var(np.maximum(x.data, 0.0), _parents=(x,))
        if out.requires_grad:
            mask = (x.data > 0.0).astype(np.float64)
            out._backward = lambda g: _accum(x, g * mask)
        return out
    return np.maximum(x, 0.0)


def _softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def softmax(x, axis: int = -1):
    if isinstance(x, Var):
        s = _softmax_np(x.data, axis=axis)
        out = Var(s, _parents=(x,))
        if out.requires_grad:
            def bw(g):
                dot = (g * s).sum(axis=axis, keepdims=True)
                _accum(x, (g - dot) * s)
            out._backward = bw
        return out
    return _softmax_np(x, axis=axis)


def log_softmax(x, axis: int = -1):
    if isinstance(x, Var):
        y = _log_softmax_np(x.data, axis=axis)
        out = Var(y, _parents=(x,))
        if out.requires_grad:
            sm = np.exp(y)

            def bw(g):
                _accum(x, g - sm * g.sum(axis=axis, keepdims=True))
            out._backward = bw
        return out
    return _log_softmax_np(x, axis=axis)


def matmul(a, b):
    """a @ b on either kind; plain arrays still hit the MAC counter."""
    if isinstance(a, Var) or isinstance(b, Var):
        return as_var(a) @ as_var(b)
    return numerics.matmul(a, b)


def linear(x, w, b):
    """x @ w + b on either kind; on plain arrays the bias is added in place."""
    if isinstance(x, Var) or isinstance(w, Var) or isinstance(b, Var):
        return as_var(x) @ as_var(w) + b
    y = numerics.matmul(x, w)
    y += b
    return y


def take_rows(table, ids):
    """table[ids] where ids is an integer array; rows may repeat."""
    ids = np.asarray(ids)
    if isinstance(table, Var):
        out = Var(table.data[ids], _parents=(table,))
        if out.requires_grad:
            def bw(g):
                buf = np.zeros_like(table.data)
                np.add.at(buf, ids, g)
                _accum(table, buf)
            out._backward = bw
        return out
    return np.asarray(table, dtype=np.float64)[ids]


def gather_last(x, ids):
    """Pick x[..., ids[...]] along the trailing axis (one pick per row)."""
    ids = np.asarray(ids)
    if isinstance(x, Var):
        picked = np.take_along_axis(x.data, ids[..., None], axis=-1)[..., 0]
        out = Var(picked, _parents=(x,))
        if out.requires_grad:
            def bw(g):
                buf = np.zeros_like(x.data)
                np.put_along_axis(buf, ids[..., None], g[..., None], axis=-1)
                _accum(x, buf)
            out._backward = bw
        return out
    return np.take_along_axis(np.asarray(x), ids[..., None], axis=-1)[..., 0]


def custom_op(fwd_value: np.ndarray, *operands):
    """Build one node over several operands from a precomputed forward value.

    operands are (x, vjp) pairs, x a Var or a plain value: vjp maps the
    node's upstream gradient to x's, before it is summed down to x's shape.
    Plain operands join no tape and their vjp is never called. The caller
    evaluates fwd_value on the raw values.
    """
    out = Var(fwd_value, _parents=tuple(x for x, _ in operands if isinstance(x, Var)))
    if out.requires_grad:
        def bw(g):
            for x, vjp in operands:
                if isinstance(x, Var) and x.requires_grad:
                    _accum(x, _unbroadcast(vjp(g), x.data.shape))
        out._backward = bw
    return out
