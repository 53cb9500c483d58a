"""Exception hierarchy shared across the package.

Domain violations on individual operations (negative depth, bad rotation
angle, ...) raise plain ``ValueError``; the classes below mark failures
that the CLI maps to distinct exit codes.
"""

from contextlib import contextmanager


class StereoVoError(Exception):
    """Base class for package-specific failures."""


class ConfigError(StereoVoError):
    """Invalid configuration; the message names the offending field path."""


class DataFormatError(StereoVoError):
    """Malformed trajectory or observation file."""


class NumericalError(StereoVoError):
    """Numerical failure (degenerate geometry, non-finite values, ...)."""


class DegenerateGeometryError(NumericalError):
    """A FramePairProblem's points are collinear in either frame; its pose is not observable."""


class InsufficientKeypointsError(NumericalError):
    """A FramePairProblem has fewer pairs than a pose needs (optimizer.MIN_PAIRS)."""


@contextmanager
def config_field(path: str):
    """Re-raise a malformed value met while reading or checking a config
    field as a ConfigError naming the field path."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
