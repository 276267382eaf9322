"""Exception types shared across the package."""


class BistarError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometryError(BistarError, ValueError):
    """Geometry is too close to a singular configuration to evaluate."""


class DetectionError(BistarError, RuntimeError):
    """A signal-level estimator could not find a usable peak."""


class ConfigError(BistarError, ValueError):
    """A scenario configuration is malformed or inconsistent."""
