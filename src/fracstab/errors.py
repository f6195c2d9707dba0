"""Exception and warning types shared across the package."""


class FracstabError(Exception):
    """Base class for package-specific failures."""


class ConvergenceError(FracstabError, RuntimeError):
    """An iterative computation hit its iteration cap before its tolerance."""


class CriterionError(FracstabError, ValueError):
    """A sufficient stability criterion fails structurally (no admissible
    constant exists)."""


class ProfileDivergenceError(FracstabError, RuntimeError):
    """A long-horizon profile grew through the end of its grid: either the
    matrix is out of the stability sector or the horizon is too short."""


class SimulationNumericError(FracstabError, RuntimeError):
    """A simulated path produced non-finite values.  ``path_indices`` holds
    the offending path numbers, ``node`` the first bad time node."""

    def __init__(self, message, path_indices=(), node=None):
        super().__init__(message)
        self.path_indices = tuple(path_indices)
        self.node = node


class ConfigError(FracstabError, ValueError):
    """A run configuration failed validation.  ``field`` is the dotted path
    of the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class AccuracyWarning(UserWarning):
    """A special-function evaluation is returned with reduced accuracy
    (its roundoff estimate exceeds the relative tolerance)."""
