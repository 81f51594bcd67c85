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
        self.step, self.norm, self.field, self.node = step, norm, field, node


class ConfigError(StrandError):
    """Bad configuration file or inconsistent run setup; the message ends
    with the config key ``[key]`` and its ``(line N)`` where they are known."""

    def __init__(self, message, key=None, line=None):
        super().__init__(message + (f" [{key}]" if key is not None else "")
                         + (f" (line {line})" if line is not None else ""))
