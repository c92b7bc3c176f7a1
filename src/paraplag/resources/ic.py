"""Information-content tables for synset specificity scoring.

Consumes the common precomputed frequency-count file format: a header line
beginning ``wnver``, then one line per synset of the form

    <offset><pos> <count>[ ROOT]

Counts propagate up the hypernym hierarchy in such files, so a root's count
is the total for its part of speech (summed across roots when a taxonomy
has several).  The loader converts counts to information content,
``-log(count / pos_total)``, which makes roots score about zero and rare,
specific synsets score high.  Synsets with a zero count carry no IC value.

``ICTable(values)`` builds a table directly from an id-to-IC mapping;
every value must be finite and non-negative.
"""

from __future__ import annotations

import math
import os
import re
from typing import Mapping, Optional

from .lexdb import MalformedLine, MissingFile, SynsetId

__all__ = ["ICTable", "load_ic"]

_LINE_RE = re.compile(r"^(\d+)([nvar])\s+(\S+)(\s+ROOT)?\s*$")


class ICTable:
    """Mapping from synset id to a finite, non-negative IC value."""

    def __init__(self, values: Mapping[SynsetId, float]):
        clean: dict[SynsetId, float] = {}
        for sid, value in values.items():
            v = float(value)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"IC value for {sid!r} must be finite and >= 0, got {value!r}")
            clean[sid] = v
        self._values = clean

    def get(self, sid: SynsetId) -> Optional[float]:
        return self._values.get(sid)

    def __contains__(self, sid: SynsetId) -> bool:
        return sid in self._values


def load_ic(path) -> ICTable:
    """Load a frequency-count file and convert counts to IC values."""
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise MissingFile(f"information-content file not found: {path}")
    counts: dict[SynsetId, float] = {}
    root_total: dict[str, float] = {}
    # "utf-8-sig" drops one leading byte-order mark
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        header = fh.readline()
        if not header.lower().startswith("wnver"):
            raise MalformedLine(path, 1, "missing wnver header")
        for line_no, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            m = _LINE_RE.match(line)
            if m is None:
                raise MalformedLine(path, line_no, "expected '<offset><pos> <count>[ ROOT]'")
            offset, pos, count_text, root_flag = m.groups()
            try:
                count = float(count_text)
            except ValueError:
                raise MalformedLine(path, line_no, f"bad count {count_text!r}") from None
            if not math.isfinite(count):
                raise MalformedLine(path, line_no, f"non-finite count {count_text!r}")
            if count < 0:
                raise MalformedLine(path, line_no, "negative count")
            sid = (int(offset), pos)
            counts[sid] = counts.get(sid, 0.0) + count
            if root_flag:
                root_total[pos] = root_total.get(pos, 0.0) + count
            if not (math.isfinite(counts[sid]) and math.isfinite(root_total.get(pos, 0.0))):
                raise MalformedLine(path, line_no, "counts sum to more than a float holds")
    values: dict[SynsetId, float] = {}
    for (offset, pos), count in counts.items():
        total = root_total.get(pos, 0.0)
        if count <= 0.0 or total <= 0.0:
            continue
        # counts can fractionally exceed the root sum in noisy tables
        values[(offset, pos)] = max(0.0, -math.log(count / total))
    return ICTable(values)
