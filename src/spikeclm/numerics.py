"""Deterministic numeric substrate: PRNG, matmul, finite differences.

Tensors throughout the package are C-order float64 numpy arrays. Everything
that consumes randomness goes through Rng below, so a run is reproducible
bit-for-bit from a single integer seed on any platform.

PRNG recurrence (splitmix64). State advances by a fixed odd constant and
each output is a finalizer over the new state:

    state  = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
    z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
    z ^= z >> 31
    output = z

Uniforms take the top 53 bits of the output (u = z >> 11, times 2^-53).
Normals are Box-Muller pairs over two uniforms, with the first uniform
shifted into (0, 1] so the log never sees zero.
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError, ShapeError

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0 ** -53)


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, vectorized over uint64 arrays
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """splitmix64 stream with uniform/normal draws and integer helpers."""

    def __init__(self, seed: int):
        self.state = np.uint64(seed & _U64_MASK)

    def _raw(self, n: int) -> np.ndarray:
        """Next n outputs as uint64, advancing the state by n increments."""
        idx = np.arange(1, n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            out = _mix(self.state + idx * _GAMMA)
            self.state = self.state + np.uint64(n) * _GAMMA
        return out

    def next_u64(self) -> int:
        return int(self._raw(1)[0])

    def uniform(self, shape=()) -> np.ndarray:
        """Uniforms in [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return u.reshape(shape) if shape else u[0]

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        """Standard normals scaled by std, via Box-Muller."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        half = (n + 1) // 2
        raw = self._raw(2 * half)
        # u1 in (0, 1] keeps the log finite; u2 in [0, 1)
        u1 = ((raw[:half] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (raw[half:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n] * std
        return z.reshape(shape) if shape else z[0]

    def integers(self, lo: int, hi: int, shape=()) -> np.ndarray:
        """Integers in [lo, hi) by scaling uniforms; fine for small ranges."""
        u = self.uniform(shape if shape else (1,))
        out = lo + np.floor(u * (hi - lo)).astype(np.int64)
        return out.reshape(shape) if shape else int(out[0])


# --- matmul with an optional multiply-accumulate counter -------------------
#
# The counter exists so an analytical FLOP count can be cross-checked against
# the multiplies a forward pass actually performs. Single-threaded use only.

_mac_counter_stack: list["count_macs"] = []


class count_macs:
    """Context manager accumulating MACs of every matmul() run inside it."""

    def __enter__(self):
        self.macs = 0
        _mac_counter_stack.append(self)
        return self

    def __exit__(self, *exc):
        # counters compare by identity, so this drops this one even when an
        # enclosing counter holds the same count
        _mac_counter_stack.remove(self)
        return False


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matrix product with shape validation and MAC counting.

    Leading dimensions broadcast numpy-style; the trailing two must chain
    ([..., m, k] @ [..., k, n]). Shapes are diagnosed only when numpy
    rejects the product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands need rank >= 2, got {a.shape} and {b.shape}")
    try:
        out = a @ b
    except ValueError as e:
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}") from e
        raise ShapeError(f"matmul: batch dims do not broadcast, {a.shape} @ {b.shape}") from e
    for counter in _mac_counter_stack:  # batch * m * k * n
        counter.macs += out.size * a.shape[-1]
    return out


def finite_diff_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x.

    O(2 * x.size) evaluations; intended for small probes in tests. Raises
    EvaluationError if f returns a non-finite value anywhere on the stencil.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x))
        flat[i] = orig - eps
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"finite_diff_grad: non-finite value at index {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return g
