"""Exception types shared across the package."""


class KringError(Exception):
    """Base class for package-specific errors."""


class StructureError(KringError):
    """Structurally incompatible arguments, e.g. mismatched ambient dimensions."""


class DomainError(KringError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class SeriesOrderError(KringError):
    """A coefficient beyond the configured truncation order was requested."""


class ModelParseError(KringError):
    """A model document could not be parsed; carries the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
