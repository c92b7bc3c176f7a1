"""Insert/delete similarity: word-level edit distance between sentences.

Distance counts unit-cost insertions, deletions, and replacements over
token lists (callers pass content-word stems).  Similarity normalizes by
the longer list so the value always lands in [0, 1].

The best similarity against several candidates compares only the
candidates that can win.  Let c be the size of the multiset intersection
of a candidate's tokens with the suspect's.  An alignment keeps at most c
tokens unchanged and spends a step on every other position of the longer
list, so the distance is at least ``longer - c`` and the similarity at most
``1 - (longer - c) / longer``.  Candidates are compared in falling order of
that bound until the bound cannot beat the best so far, and a candidate
sharing no token, which scores exactly 0.0, is never compared.  The bound
is computed with the same float operations as the similarity, so the
result is the unpruned maximum bit for bit.

The distance is bit-parallel: Myers' bit-vector algorithm (Myers 1999, in
Hyyrö's 2001 formulation) keeps one column of the m x n dynamic program as
vertical +1/-1 delta bitmasks over the m pattern tokens and advances it
one text token at a time.  Python ints have no width limit, so one path
serves every length at O(n * ceil(m / w)) word operations, w being the
machine word.  The pattern's per-token position masks are built once per
suspect sentence, when a first candidate is compared, and reused against
each candidate.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

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
    sp_tokens: Sequence[str],
    candidates: Sequence[Sequence[str]],
    shared: Mapping[int, int],
) -> float:
    """Largest `insdel_similarity` of sp_tokens against any of candidates.

    `shared` maps the position in candidates of each candidate that shares
    a token with sp_tokens to c, the size of their multiset intersection;
    `semsim.PairTables.shared_stems` reads it off a source's postings.
    Candidates are compared in falling order of the bound
    `1 - (longer - c) / longer`, and the search stops at the first bound
    that does not beat the best so far; a candidate left out of `shared`
    scores exactly 0.0 and is never compared.  The result is exactly the
    unpruned maximum.  sp_tokens must be non-empty, and so must candidates.
    """
    m = len(sp_tokens)
    bounds = []
    for j, c in shared.items():
        longer = max(m, len(candidates[j]))
        bounds.append((1.0 - (longer - c) / longer, longer, j))
    bounds.sort(reverse=True)
    masks = None
    best = 0.0
    for bound, longer, j in bounds:
        if bound <= best:
            break
        if masks is None:
            masks = _pattern_masks(sp_tokens)
        value = 1.0 - _masked_distance(masks, m, candidates[j]) / longer
        if value > best:
            best = value
    return best
