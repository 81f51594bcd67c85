"""Exception types shared across the package.

The CLI maps these onto its exit-code contract (see ``cli.py``).
"""


class StrandError(Exception):
    """Base class for all errors raised by this package."""


class NotAntisymmetricError(StrandError):
    """Matrix handed to ``vee`` is too far from antisymmetric."""


class NearAnglePiError(StrandError):
    """Rotation angle is too close to pi for the logarithm to be unique."""


class TooFarFromGroupError(StrandError):
    """Matrix is outside the trust region of the polar projection."""


class NotFlatError(StrandError):
    """Curvature residual exceeds the tolerance required for reconstruction."""


class BlowupError(StrandError):
    """A field norm exceeded the blow-up guard during time stepping."""

    def __init__(self, step, norm, field, node):
        super().__init__(f"solution norm {norm:.3e} exceeded guard at step "
                         f"{step} (field {field}, node {node})")
        self.step = step
        self.norm = norm
        self.field = field
        self.node = node


class ConfigError(StrandError):
    """Bad configuration file or inconsistent run setup."""

    def __init__(self, message, key=None, line=None):
        loc = ""
        if key is not None:
            loc += f" [{key}]"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)
        self.key = key
        self.line = line


class UnknownPresetError(ConfigError):
    """Requested initial-condition preset does not exist."""

    def __init__(self, name):
        super().__init__(f"unknown preset '{name}'", key="init.preset")
        self.name = name
