"""Exception types shared across the package.

Everything derives from HaarLmsmError so callers can catch library failures
with one except clause; the subclasses separate bad inputs from bad state so
the command line tool can map them to distinct exit codes.
"""


class HaarLmsmError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(HaarLmsmError, ValueError):
    """A scalar argument or configuration value violates its contract."""


class DepthError(HaarLmsmError, ValueError):
    """A truncation depth exceeds what a coefficient pyramid holds."""


class StatisticsError(HaarLmsmError, ValueError):
    """Too little data for the requested statistical procedure."""


class ComputeError(HaarLmsmError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class ConfigError(HaarLmsmError, ValueError):
    """A config file, CLI argument set, or input file schema is malformed."""
