"""Syntactic similarity: compares word order via position vectors.

The source sentence fixes the reference order.  Each source token gets a
component holding its own 1-based position (base vector) and the position
of the matching token in the suspect sentence (other vector, 0 when the
word never appears there).  Two sentences with the same words in the same
order produce identical vectors; reordering lowers the cosine even though
a bag-of-words comparison would still report 1.0.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .resources import cosine
from .textprep import Token


def build_order_vectors(
    sp_tokens: Sequence[Token], sr_tokens: Sequence[Token]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(base, other) position vectors for the source sequence against the suspect.

    Tokens are compared by normalized form.  Repeated words pair up in
    left-to-right order: the i-th source occurrence takes the i-th suspect
    occurrence, and occurrences left over on either side stay unmatched
    (component 0).
    """
    positions: dict[str, deque[int]] = {}
    for pos, token in enumerate(sp_tokens, start=1):
        positions.setdefault(token.normalized, deque()).append(pos)
    base = tuple(range(1, len(sr_tokens) + 1))
    other = []
    for token in sr_tokens:
        queue = positions.get(token.normalized)
        other.append(queue.popleft() if queue else 0)
    return base, tuple(other)


def syntactic_similarity(sp_tokens: Sequence[Token], sr_tokens: Sequence[Token]) -> float:
    """Cosine of the order vectors; 0.0 when there is nothing to compare."""
    base, other = build_order_vectors(sp_tokens, sr_tokens)
    if not base or not any(other):
        return 0.0
    return cosine(base, other)
