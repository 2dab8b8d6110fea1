"""Tensor-valued reverse-mode autodiff on numpy arrays.

A Var wraps a float64 ndarray plus a closure that routes an upstream
gradient to its parents. Ops build the tape eagerly; Var.backward walks it
once in reverse topological order. Only the handful of operations the
models need exist here.

custom_op is the constructor of tape nodes: every op, here or in its
owning module, computes its forward value on raw arrays and hands it to
custom_op with one vector-Jacobian product per operand. Each op is thus
written once for plain and taped input: with no Var operand custom_op
returns the plain value, so inference paths skip the tape entirely, and a
taped op's value is its plain value bit for bit. The tape only adds
gradients: every Var is differentiable, and constants are plain arrays. A
neuron population's run over all time steps is one such node, whose
backward is the BPTT recurrence; chain_op builds it over the node that
produced its input current, so the tape does not hold that current.

A gradient lives only as long as backward reads it. Once a node's VJP has
run, backward drops the node's .grad, so after backward only the leaves
hold gradients. That also makes backward repeatable: a second call on the
same graph adds the first pass's leaf gradients once more.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .errors import ShapeError


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g down to `shape`, inverting numpy broadcasting.

    Extra leading axes collapse into one and are summed in a single pass,
    as linear sums its bias gradient.
    """
    if g.ndim > len(shape):
        g = g.reshape((-1,) + g.shape[g.ndim - len(shape):]).sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


class Var:
    """Node in the gradient tape; constructed directly it is a leaf.

    Every Var gets a gradient from backward: a value that needs none is
    passed as a plain array.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    # keep numpy from absorbing Vars into object arrays; reflected ops run instead
    __array_ufunc__ = None

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    # -- graph walk ---------------------------------------------------------

    def backward(self, seed=1.0) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        seed is the upstream gradient at this node (scalar or array of the
        node's shape); 1.0 is the usual choice for a scalar loss. Each
        non-leaf node's .grad is dropped once its VJP has read it, so only
        the leaves keep gradients.
        """
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
                if id(p) not in visited:
                    stack.append((p, False))
        seed_arr = np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != self.data.shape:
            seed_arr = np.broadcast_to(seed_arr, self.data.shape).copy()
        _accum(self, seed_arr)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                g, node.grad = node.grad, None
                node._backward(g)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return custom_op(self.data + value(other), (self, _identity), (other, _identity))

    __radd__ = __add__

    def __neg__(self):
        return custom_op(-self.data, (self, np.negative))

    def __sub__(self, other):
        return custom_op(self.data - value(other), (self, _identity), (other, np.negative))

    def __rsub__(self, other):
        return custom_op(value(other) - self.data, (self, np.negative))

    def __mul__(self, other):
        o = value(other)
        return custom_op(self.data * o, (self, lambda g: g * o),
                         (other, lambda g: g * self.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # a quotient, not a product with the reciprocal, so it equals numpy's
        o = value(other)
        out = self.data / o
        return custom_op(out, (self, lambda g: g / o), (other, lambda g: -g * out / o))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise ShapeError("Var ** exponent must be a Python scalar")
        base = self.data
        return custom_op(base ** p, (self, lambda g: g * p * base ** (p - 1)))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.data.shape
        return custom_op(self.data.reshape(shape), (self, lambda g: g.reshape(orig)))

    def swapaxes(self, a: int, b: int):
        return custom_op(self.data.swapaxes(a, b), (self, lambda g: g.swapaxes(a, b)))

    def __getitem__(self, idx):
        return _pick(self, idx)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        shape = self.data.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape).copy()
        return custom_op(self.data.sum(axis=axis, keepdims=keepdims), (self, vjp))

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else np.prod(np.take(self.data.shape, axis))
        return self.sum(axis=axis, keepdims=keepdims) / n


def is_var(x) -> bool:
    return isinstance(x, Var)


def value(x) -> np.ndarray:
    """Raw ndarray behind x, whether taped or not."""
    return x.data if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _identity(g):
    return g


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


def custom_op(fwd_value: np.ndarray, *operands):
    """Build one node over several operands from a precomputed forward value.

    operands are (x, vjp) pairs, x a Var or a plain value: vjp maps the
    node's upstream gradient to x's, before it is summed down to x's shape.
    Plain operands join no tape and their vjp is never called. The caller
    evaluates fwd_value on the raw values; with no Var operand it is
    returned as is.
    """
    parents = [x for x, _ in operands if isinstance(x, Var)]
    if not parents:
        return fwd_value

    def bw(g):
        for x, vjp in operands:
            if isinstance(x, Var):
                _accum(x, _unbroadcast(vjp(g), x.data.shape))
    out = Var(fwd_value)
    out._parents = tuple(parents)
    out._backward = bw
    return out


def chain_op(fwd_value: np.ndarray, x, vjp):
    """custom_op(fwd_value, (x, vjp)) that takes over the node x came from.

    When x is a non-leaf Var, the new node gets x's parents, and its
    backward hands vjp(g), summed down to x's shape, straight to x's own
    VJP. The tape then holds neither x nor x.data: only the caller's
    references keep them alive. A producer consumed elsewhere as well still
    gets every gradient, once from each consumer. vjp's result should be
    C-ordered, as BPTT's is: a product made fresh is, so that is the layout
    _accum would have given x's gradient.
    """
    if not (isinstance(x, Var) and x._backward is not None):
        return custom_op(fwd_value, (x, vjp))
    shape, producer = x.data.shape, x._backward
    out = Var(fwd_value)
    out._parents = x._parents
    out._backward = lambda g: producer(_unbroadcast(vjp(g), shape))
    return out


# -- module-level ops (plain or taped input) ----------------------------------


def relu(x):
    xv = value(x)
    return custom_op(np.maximum(xv, 0.0), (x, lambda g: g * (xv > 0.0)))


def softmax(x, axis: int = -1):
    z = value(x)
    s = z - z.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)
    return custom_op(s, (x, lambda g: (g - (g * s).sum(axis=axis, keepdims=True)) * s))


def log_softmax(x, axis: int = -1):
    z = value(x)
    y = z - z.max(axis=axis, keepdims=True)
    y -= np.log(np.exp(y).sum(axis=axis, keepdims=True))
    return custom_op(y, (x, lambda g: g - np.exp(y) * g.sum(axis=axis, keepdims=True)))


def _rows(a: np.ndarray) -> np.ndarray:
    """[..., k] -> [rows, k]: every leading axis folded into one."""
    return a.reshape(-1, a.shape[-1])


def matmul(a, b):
    """a @ b on either kind; numerics.matmul computes it, so it hits the MAC counter.

    A 2-D b broadcast over a's leading axes gets its gradient from one 2-D
    product over all of a's rows, as linear's weight does.
    """
    av, bv = value(a), value(b)
    if bv.ndim == 2 and av.ndim > 2:
        def b_vjp(g):
            return _rows(av).T @ _rows(g)
    else:
        def b_vjp(g):
            return av.swapaxes(-1, -2) @ g
    return custom_op(numerics.matmul(av, bv), (a, lambda g: g @ bv.swapaxes(-1, -2)),
                     (b, b_vjp))


def linear(x, w, b):
    """x @ w + b on either kind, as one node; the bias is added in place.

    The weight gradient is one 2-D product over all rows of x, and the bias
    gradient one sum over the rows of g.
    """
    xv, wv = value(x), value(w)
    y = numerics.matmul(xv, wv)
    y += value(b)
    return custom_op(y, (x, lambda g: g @ wv.swapaxes(-1, -2)),
                     (w, lambda g: _rows(xv).T @ _rows(g)),
                     (b, lambda g: _rows(g).sum(axis=0)))


def _pick(x, idx):
    """x[idx] on either kind; picks that repeat sum their gradients."""
    xv = value(x)

    def vjp(g):
        buf = np.zeros_like(xv)
        np.add.at(buf, idx, g)
        return buf
    return custom_op(xv[idx], (x, vjp))


def take_rows(table, ids):
    """table[ids] where ids is an integer array; rows may repeat."""
    return _pick(table, np.asarray(ids))
