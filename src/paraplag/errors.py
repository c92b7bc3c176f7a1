"""Shared exception base for the package, its integer check and its UTF-8 decoding.

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


def decode_utf8(raw: bytes, path) -> str:
    """`raw` as text; a bad byte raises ParaplagError naming `path` and its line.

    One leading byte-order mark is dropped: it marks the encoding, not text.
    Lines are counted as universal-newline readers count them: a line ends
    at CR LF, CR or LF.
    """
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParaplagError(f"{path}:{line_no}: invalid UTF-8") from None


def is_integer(value) -> bool:
    """True for an integer, numpy's included; False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
