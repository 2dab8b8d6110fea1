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


def require_finite_fields(cfg) -> None:
    """ConfigError naming the first float field of dataclass cfg that is nan or inf.

    A non-finite value slips past every range check written as a comparison
    (nan <= 0 is false), so config validation runs this first.
    """
    for f in fields(cfg):
        if f.type in (float, "float") and not math.isfinite(getattr(cfg, f.name)):
            raise ConfigError(f"{f.name} must be finite, got {getattr(cfg, f.name)}")
