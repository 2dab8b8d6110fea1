"""Reference operations that only the tests use, kept out of the package."""

import numpy as np

from spikeclm import autodiff as ad


def gather_last(x, ids):
    """Pick x[..., ids[...]] along the trailing axis (one pick per row)."""
    ids = np.asarray(ids)[..., None]
    xv = ad.value(x)

    def vjp(g):
        buf = np.zeros_like(xv)
        np.put_along_axis(buf, ids, g[..., None], axis=-1)
        return buf
    return ad.custom_op(np.take_along_axis(xv, ids, axis=-1)[..., 0], (x, vjp))


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes once any Var is unwrapped to its array."""
    a, b = np.asarray(ad.value(a)), np.asarray(ad.value(b))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
