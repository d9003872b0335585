"""Exception types shared across the package.

Everything raised deliberately by this package derives from GpprogError so
callers can catch one base class at an API boundary.
"""


class GpprogError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GpprogError):
    """The caller's input is invalid: a data file, an option or an argument."""


class SchemaError(InputError):
    """A data file does not have the expected column layout."""


class DataError(InputError):
    """Row-level data is invalid (duplicates, non-positive capacity, ...)."""


class BoundsError(InputError):
    """An index, label, or split position is out of range."""


class ConfigError(InputError):
    """A configuration value or expression is invalid."""


class ContractError(GpprogError):
    """An operation was called on an object that cannot support it."""


class DegenerateInputError(InputError):
    """Too little data for the requested operation."""


class NumericalError(GpprogError):
    """A numerical routine failed beyond recoverable measures."""


class UndefinedMetricError(GpprogError):
    """A metric is undefined for the given inputs."""


class TrainingError(GpprogError):
    """Every optimisation restart failed.

    ``diagnostics`` holds one entry per restart describing what went wrong.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics) if diagnostics is not None else []


class UsageError(InputError):
    """Command line arguments are structurally invalid."""
