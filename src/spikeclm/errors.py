"""Error taxonomy shared across the package.

Every public operation raises one of these (or a subclass) so callers can
tell malformed inputs apart from internal bugs. CLI entry points catch the
ValueError family and turn it into a one-line diagnostic plus a nonzero
exit code; InternalError is allowed to propagate with a traceback.
"""

import math
from dataclasses import fields


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ValidationError(ValueError):
    """Tensor values violate a documented domain (non-spike input, NaN, ...)."""


class ConfigError(ValueError):
    """A configuration field is out of range or inconsistent with another."""


class AlignmentError(ValueError):
    """Teacher/student structures cannot be aligned (depths, heads, dims)."""


class EvaluationError(ValueError):
    """A numeric probe (finite differences, profiling) hit a non-finite value."""


class InternalError(RuntimeError):
    """Invariant broken inside the package; indicates a bug, not bad input."""


def require_finite_fields(cfg, seeds=()) -> None:
    """ConfigError naming the first field of dataclass cfg that no machine
    number holds: a float that is nan or inf, or an int outside int64.

    nan slips past every range check written as a comparison, and numpy
    refuses an int past int64 without naming the setting, so config
    validation runs this first. Fields named in seeds are exempt: Rng masks
    a seed to 64 bits.
    """
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.type is float and not math.isfinite(v):
            raise ConfigError(f"{f.name} must be finite, got {v}")
        if f.type is int and f.name not in seeds and not -2 ** 63 <= v < 2 ** 63:
            raise ConfigError(f"{f.name} must fit in int64, got {v}")
