"""Insert/delete similarity: word-level edit distance between sentences.

Distance counts unit-cost insertions, deletions, and replacements over
token lists (callers pass content-word stems).  Similarity normalizes by
the longer list so the value always lands in [0, 1].  The best similarity
against several candidates skips a candidate whose length alone rules it
out, since the distance is at least the difference in length.

The distance is bit-parallel: Myers' bit-vector algorithm (Myers 1999, in
Hyyrö's 2001 formulation) keeps one column of the m x n dynamic program as
vertical +1/-1 delta bitmasks over the m pattern tokens and advances it
one text token at a time.  Python ints have no width limit, so one path
serves every length at O(n * ceil(m / w)) word operations, w being the
machine word.  The pattern's per-token position masks are built once per
suspect sentence and reused against each candidate.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

Masks = dict[str, int]


def _pattern_masks(tokens: Sequence[str]) -> Masks:
    """Token -> bitmask with bit i set where tokens[i] is that token."""
    masks: Masks = {}
    bit = 1
    for token in tokens:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    return masks


def _masked_distance(masks: Masks, m: int, sr_tokens: Sequence[str]) -> int:
    """Edit distance between the m-token pattern behind masks and sr_tokens."""
    if m == 0:
        return len(sr_tokens)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = full, 0, m
    get = masks.get
    for token in sr_tokens:
        eq = get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # the carry-in of 1 is row 0's +1 per column: global distance
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def word_edit_distance(sp_tokens: Sequence[str], sr_tokens: Sequence[str]) -> int:
    """Minimal number of insert/delete/replace steps turning sp into sr."""
    return _masked_distance(_pattern_masks(sp_tokens), len(sp_tokens), sr_tokens)


def insdel_similarity(sp_tokens: Sequence[str], sr_tokens: Sequence[str]) -> float:
    """1 - distance/max(len); both lists empty count as identical (1.0)."""
    longer = max(len(sp_tokens), len(sr_tokens))
    if longer == 0:
        return 1.0
    return 1.0 - word_edit_distance(sp_tokens, sr_tokens) / longer


def max_insdel_similarity(
    sp_tokens: Sequence[str], candidates: Iterable[Sequence[str]]
) -> float:
    """Largest `insdel_similarity` of sp_tokens against any candidate.

    A candidate is skipped when `1 - |m - n| / max(m, n)`, an upper bound on
    its similarity, cannot beat the best so far; the bound is computed with
    the same float operations as the similarity, so the result is exactly
    the unpruned maximum.  sp_tokens must be non-empty, and so must
    candidates.
    """
    m = len(sp_tokens)
    masks = _pattern_masks(sp_tokens)
    best = None
    for sr_tokens in candidates:
        n = len(sr_tokens)
        longer = max(m, n)
        if best is not None and 1.0 - abs(m - n) / longer <= best:
            continue
        value = 1.0 - _masked_distance(masks, m, sr_tokens) / longer
        if best is None or value > best:
            best = value
    return best
