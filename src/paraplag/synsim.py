"""Syntactic similarity: compares word order via position vectors.

The source sentence fixes the reference order.  Each source token gets a
component holding its own 1-based position (base vector) and the position
of the matching token in the suspect sentence (other vector, 0 when the
word never appears there).  Two sentences with the same words in the same
order produce identical vectors; reordering lowers the cosine even though
a bag-of-words comparison would still report 1.0.

Tokens are compared by normalized form.  Repeated words pair up in
left-to-right order: the i-th source occurrence takes the i-th suspect
occurrence, and occurrences left over on either side stay unmatched
(component 0).  The vectors are never materialised: their dot product and
squared norms are summed as Python ints, and the suspect's position lists
are built once per suspect sentence and reused against every candidate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .textprep import Token


def max_syntactic_similarity(
    sp_tokens: Sequence[Token], candidates: Iterable[Sequence[Token]]
) -> float:
    """Largest order-vector cosine of sp_tokens against any candidate sentence.

    Each cosine is `dot / sqrt(na * nb)`, clamped to [-1, 1] as
    `resources.cosine` does, or 0.0 when there is nothing to compare (an
    empty source or no shared word); with no candidates the result is 0.0.
    dot, na = n(n+1)(2n+1)/6 and nb are exact ints, and they convert to
    float64 exactly while below 2**53, which holds for any sentence under
    about 200k tokens.  The result then equals `cosine` of the two vectors
    bit for bit, since both divide the same doubles by the correctly
    rounded square root of the same product.  The search stops at the
    first 1.0, which no candidate can beat.
    """
    positions: dict[str, list[int]] = {}
    for pos, token in enumerate(sp_tokens, start=1):
        positions.setdefault(token.normalized, []).append(pos)
    best = 0.0
    for sr_tokens in candidates:
        taken: dict[str, int] = {}
        dot = nb = 0
        for base, token in enumerate(sr_tokens, start=1):
            slots = positions.get(token.normalized)
            if slots is None:
                continue
            k = taken.get(token.normalized, 0)
            if k < len(slots):
                taken[token.normalized] = k + 1
                other = slots[k]
                dot += base * other
                nb += other * other
        if not nb:
            continue
        n = len(sr_tokens)
        na = n * (n + 1) * (2 * n + 1) // 6
        value = min(1.0, max(-1.0, float(dot) / math.sqrt(float(na) * float(nb))))
        if value > best:
            best = value
            if best == 1.0:
                break
    return best


def syntactic_similarity(sp_tokens: Sequence[Token], sr_tokens: Sequence[Token]) -> float:
    """Cosine of the order vectors; 0.0 when there is nothing to compare."""
    return max_syntactic_similarity(sp_tokens, [sr_tokens])
