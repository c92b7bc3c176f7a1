"""Shared exception base for the package, its integer check, its UTF-8 and JSON decoding.

Every error raised deliberately by this package derives from ParaplagError,
so callers (the CLI in particular) can distinguish expected failure modes
from genuine bugs.
"""

import copyreg
import json
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


def _unique_keys(pairs: list) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:  # json alone would keep the last value
            raise ValueError(f"gives key {key!r} twice")
        obj[key] = value
    return obj


def load_json(raw: bytes | str, where=None):
    """The JSON value `raw` holds; bytes are decoded by `decode_utf8(raw, where)`.

    An object that gives one key twice raises ValueError, as malformed JSON
    raises json.JSONDecodeError (a ValueError too); neither names where the
    text came from, so the caller adds the file or the line.
    """
    if isinstance(raw, bytes):
        raw = decode_utf8(raw, where)
    return json.loads(raw, object_pairs_hook=_unique_keys)


def is_integer(value) -> bool:
    """True for an integer, numpy's included; False for a bool or a float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
