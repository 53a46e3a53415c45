"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat:
input/configuration problems, numeric failures, and autograd misuse.
"""


class ShapeError(ValueError):
    """Operands have incompatible or malformed shapes, or a layer's
    parameter has another float dtype than its input."""


class ConfigError(ValueError):
    """Invalid configuration value, unknown key, or unusable input file."""


class DataError(ValueError):
    """Malformed dataset artifact (image payload, manifest record)."""


class NumericError(RuntimeError):
    """Non-finite value detected, or a numeric contract was violated."""


class AutogradError(RuntimeError):
    """Backward called on a non-scalar, on a tensor with no live graph,
    or through an eval-mode batch norm."""
