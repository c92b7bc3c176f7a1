"""Insert/delete similarity: word-level edit distance between sentences.

Distance counts unit-cost insertions, deletions, and replacements over
token lists (callers pass content-word stems).  Similarity normalizes by
the longer list so the value always lands in [0, 1].  The best similarity
against several candidates skips a candidate whose length alone rules it
out, since the distance is at least the difference in length.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def word_edit_distance(sp_tokens: Sequence[str], sr_tokens: Sequence[str]) -> int:
    """Minimal number of insert/delete/replace steps turning sp into sr."""
    m, n = len(sp_tokens), len(sr_tokens)
    if m == 0:
        return n
    if n == 0:
        return m
    # Rolling single row keeps memory at O(min side); iterate over the longer.
    if m < n:
        sp_tokens, sr_tokens = sr_tokens, sp_tokens
        m, n = n, m
    row = list(range(n + 1))
    for i in range(1, m + 1):
        prev_diag = row[0]
        row[0] = i
        a = sp_tokens[i - 1]
        for j in range(1, n + 1):
            prev_row = row[j]
            if a == sr_tokens[j - 1]:
                row[j] = prev_diag
            else:
                row[j] = 1 + min(prev_diag, prev_row, row[j - 1])
            prev_diag = prev_row
    return row[n]


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
    best = None
    for sr_tokens in candidates:
        n = len(sr_tokens)
        if best is not None and 1.0 - abs(m - n) / max(m, n) <= best:
            continue
        value = insdel_similarity(sp_tokens, sr_tokens)
        if best is None or value > best:
            best = value
    return best
