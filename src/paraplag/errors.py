"""Shared exception base for the package, and its integer argument check.

Every error raised deliberately by this package derives from ParaplagError,
so callers (the CLI in particular) can distinguish expected failure modes
from genuine bugs.
"""

import copyreg
import numbers


class ParaplagError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Rebuild from the message, not the constructor arguments (some
        # subclasses take others), so an error keeps its class and message
        # on its way back from a pool worker.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class MissingFile(ParaplagError):
    """A file or directory the caller pointed at does not exist."""


def is_integer(value) -> bool:
    """True for an integer, numpy's included; False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
