"""Greedy string tiling: canonical text, round matches, tiles, containment."""

from __future__ import annotations

import dataclasses
import heapq
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paraplag import gst
from paraplag.gst import (
    EmptySuspect,
    GstParams,
    InputTooLarge,
    Tile,
    canonicalize,
    gst_containment,
    tiling_matches,
)

LOOSE = GstParams(min_tile=3)


def oracle_true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    edges = np.flatnonzero(
        np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    )
    return [(int(s), int(e - s)) for s, e in zip(edges[::2], edges[1::2])]


def oracle_tiling_matches(suspect: str, source: str, min_match: int) -> list[Tile]:
    """The unseeded matcher: scans every one of the m+n-1 diagonals."""
    m, n = len(suspect), len(source)
    if min(m, n) < min_match:
        return []
    sus = np.frombuffer(suspect.encode("utf-32-le"), dtype="<u4")
    src = np.frombuffer(source.encode("utf-32-le"), dtype="<u4")

    heap: list[tuple[int, int, int]] = []
    for diag in range(-(m - 1), n):
        sus_lo = max(0, -diag)
        src_lo = sus_lo + diag
        span = min(m - sus_lo, n - src_lo)
        if span < min_match:
            continue
        eq = sus[sus_lo : sus_lo + span] == src[src_lo : src_lo + span]
        for start, length in oracle_true_runs(eq):
            if length >= min_match:
                heapq.heappush(heap, (-length, sus_lo + start, src_lo + start))

    marked_sus = np.zeros(m, dtype=bool)
    marked_src = np.zeros(n, dtype=bool)
    matches: list[Tile] = []
    while heap:
        neg_length, a, b = heapq.heappop(heap)
        length = -neg_length
        blocked = marked_sus[a : a + length] | marked_src[b : b + length]
        if not blocked.any():
            matches.append(Tile(a, b, length))
            marked_sus[a : a + length] = True
            marked_src[b : b + length] = True
            continue
        for start, sub_length in oracle_true_runs(~blocked):
            if sub_length >= min_match:
                heapq.heappush(heap, (-sub_length, a + start, b + start))
    return matches


# ASCII, Latin-1, BMP and astral (4-byte UTF-8, 2-unit UTF-16) codepoints
SYMBOLS = st.sampled_from(
    list("ab c.xyz") + ["\u00e9", "\u00df", "\u0416", "\u4e2d", "\u05d0"]
    + ["\U0001f600", "\U0001d538", "\U00020000", "\U0010fffd"]
) | st.characters(exclude_categories=("Cs",))


@st.composite
def tiling_cases(draw):
    """Suspect and source assembled from shared, repeated blocks, up to 300 chars."""
    alphabet = draw(st.lists(SYMBOLS, min_size=1, max_size=20, unique=True))
    blocks = draw(
        st.lists(st.text(st.sampled_from(alphabet), max_size=30), min_size=1, max_size=5)
    )
    pieces = st.tuples(st.integers(0, len(blocks) - 1), st.integers(1, 5))

    def text() -> str:
        return "".join(blocks[i] * r for i, r in draw(st.lists(pieces, max_size=10)))[:300]

    return text(), text(), draw(st.integers(1, 8))


@st.composite
def wide_tiling_cases(draw):
    """Texts over 200 to 4000 code points, most of them astral, up to 600 chars.

    With min_tile up to 30 the source alphabet is wide enough that gram
    keys would overflow at width min_tile, so they are keyed narrower.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # any code point but a surrogate
    points = rng.sample(range(0x110000 - 0x800), draw(st.integers(200, 4000)))
    alphabet = [chr(c + 0x800 if c >= 0xD800 else c) for c in points]
    blocks = [
        "".join(rng.choices(alphabet, k=rng.randint(1, 80))) for _ in range(rng.randint(1, 5))
    ]

    def text() -> str:
        pieces = [
            rng.choice(blocks) * rng.randint(1, 3)
            if rng.random() < 0.7
            else "".join(rng.choices(alphabet, k=rng.randint(1, 20)))
            for _ in range(rng.randint(0, 8))
        ]
        return "".join(pieces)[:600]

    return text(), text(), draw(st.integers(1, 30))


def oracle_rounds(sus: str, src: str, min_match: int) -> list[tuple[int, int, int]]:
    """Re-mark the longest unmarked common substring until none remains."""
    free_a = [True] * len(sus)
    free_b = [True] * len(src)
    rounds = []
    while True:
        best = None
        for a in range(len(sus)):
            for b in range(len(src)):
                length = 0
                while (
                    a + length < len(sus)
                    and b + length < len(src)
                    and sus[a + length] == src[b + length]
                    and free_a[a + length]
                    and free_b[b + length]
                ):
                    length += 1
                if length >= min_match:
                    candidate = (-length, a, b)
                    if best is None or candidate < best:
                        best = candidate
        if best is None:
            return rounds
        length, a, b = -best[0], best[1], best[2]
        rounds.append((a, b, length))
        for i in range(length):
            free_a[a + i] = False
            free_b[b + i] = False


def oracle_merge_tiles(tiles: list[Tile]) -> list[Tile]:
    """Join tiles that sit back-to-back on both the suspect and source side."""
    ordered = sorted(tiles, key=lambda t: t.suspect_offset)
    merged: list[Tile] = []
    for tile in ordered:
        if merged:
            last = merged[-1]
            if (
                last.suspect_offset + last.length == tile.suspect_offset
                and last.source_offset + last.length == tile.source_offset
            ):
                merged[-1] = Tile(
                    last.suspect_offset, last.source_offset, last.length + tile.length
                )
                continue
        merged.append(tile)
    return merged


def oracle_two_length_tiles(rounds, sus: str, src: str, min_match: int, min_tile: int):
    """Tiling in two lengths: `rounds` down to min_match, merged, then cut at min_tile."""
    return [t for t in oracle_merge_tiles(rounds(sus, src, min_match)) if t.length >= min_tile]


def round_oracle_tiles(sus: str, src: str, min_match: int) -> list[Tile]:
    return [Tile(a, b, length) for a, b, length in oracle_rounds(sus, src, min_match)]


def assert_one_length_tiles_as_two(sus: str, src: str, min_match: int, min_tile: int, rounds):
    """Tiling at min_tile lays the tiles, and scores the containment, of
    `rounds` down to min_match, merged, then cut at min_tile."""
    params = GstParams(min_tile=min_tile)
    want = oracle_two_length_tiles(rounds, sus, src, min_match, min_tile)
    assert sorted(tiling_matches(sus, src, params), key=dataclasses.astuple) == sorted(
        want, key=dataclasses.astuple
    )
    canon_sus, canon_src = canonicalize(sus), canonicalize(src)
    if canon_sus:
        want = oracle_two_length_tiles(rounds, canon_sus, canon_src, min_match, min_tile)
        assert gst_containment(sus, src, params) == sum(t.length for t in want) / len(canon_sus)


class TestCanonicalize:
    def test_case_folded(self):
        assert canonicalize("A  Cat") == "a cat"

    def test_empty(self):
        assert canonicalize("") == ""
        assert canonicalize(" \t\n ") == ""

    def test_whitespace_runs_collapse(self):
        assert canonicalize("Tab\tand\nnewline") == "tab and newline"

    def test_idempotent(self):
        rng = random.Random(41)
        for _ in range(100):
            text = "".join(rng.choices("aB \t\nc!", k=rng.randint(0, 30)))
            once = canonicalize(text)
            assert canonicalize(once) == once

    @given(st.text())
    def test_idempotent_on_any_text(self, text):
        once = canonicalize(text)
        assert canonicalize(once) == once

    def test_compatibility_characters_fold(self):
        assert canonicalize("The ﬁne  ＦＵＬＬ café") == "the fine full café"
        suspect, source = "The ﬁne dining was ﬂawless tonight.", "The fine dining was flawless tonight."
        assert gst_containment(suspect, source) == gst_containment(source, suspect) == 1.0

    def test_the_cap_applies_to_the_folded_text(self):
        # one "ﷺ" folds to 18 characters
        params = GstParams(min_tile=3, max_chars=20)
        assert gst_containment("a ﷺ", "a ﷺ", params) == 1.0
        with pytest.raises(InputTooLarge, match="^text of 4 chars is 21 once folded, over cap 20$"):
            gst_containment("ab ﷺ", "a ﷺ", params)
        with pytest.raises(InputTooLarge, match="^text of 4 chars is 21 once folded, over cap 20$"):
            gst_containment("a ﷺ", "ab ﷺ", params)


class TestParams:
    def test_defaults(self):
        p = GstParams()
        assert (p.min_tile, p.max_chars) == (10, 50_000)

    def test_min_tile_positive(self):
        with pytest.raises(ValueError, match="^min_tile must be >= 1, got 0$"):
            GstParams(min_tile=0)


class TestTiles:
    def test_identical_strings_single_tile(self):
        text = "abcdefghijklmnopqrst"
        assert tiling_matches(text, text) == [Tile(0, 0, 20)]

    def test_no_long_enough_match(self):
        assert tiling_matches("abcdqqqq", "abcdzzzz") == []

    def test_embedded_substring(self):
        assert tiling_matches("abcdefghij", "XXabcdefghijYY".lower()) == [Tile(0, 2, 10)]

    def test_short_tile_discarded_after_marking(self):
        # seven shared chars form a tile at a floor of 5, and none at the default 10
        tiles = tiling_matches("abcdefgXYZ".lower(), "abcdefgQRS".lower())
        assert tiles == []
        assert tiling_matches("abcdefgxyz", "abcdefgqrs", GstParams(min_tile=5)) == [Tile(0, 0, 7)]

    def test_tie_break_prefers_low_offsets(self):
        # two equal-length candidates; the earlier suspect offset wins round one
        matches = tiling_matches("abcde123fghij", "fghij000abcde", GstParams(min_tile=5))
        assert matches[0] == Tile(0, 8, 5)
        assert matches[1] == Tile(8, 0, 5)

    def test_round_order_is_longest_first(self):
        sus = "aaaaaaaXbbbbb"
        src = "bbbbbYaaaaaaa"
        matches = tiling_matches(sus, src, GstParams(min_tile=5))
        assert [t.length for t in matches] == [7, 5]
        assert matches[0] == Tile(0, 6, 7)

    def test_input_cap(self):
        params = GstParams(max_chars=100)
        with pytest.raises(InputTooLarge):
            tiling_matches("a" * 101, "abc", params)

    def test_json_dump(self):
        tiles = tiling_matches("abcdefghij", "abcdefghij")
        payload = json.loads(json.dumps([dataclasses.asdict(t) for t in tiles]))
        assert payload == [{"suspect_offset": 0, "source_offset": 0, "length": 10}]


class TestContainment:
    def test_identical_passages(self):
        text = "The cat sat on the mat and purred."
        assert gst_containment(text, text) == 1.0

    def test_no_surviving_tiles(self):
        assert gst_containment("abcdqqqq", "zzzzabcd" * 3) == 0.0

    def test_quarter_coverage(self):
        suspect = "abcdefghij" + "k" * 30
        source = "abcdefghij" + "m" * 20
        assert gst_containment(suspect, source) == pytest.approx(0.25)

    def test_canonicalization_applied(self):
        assert gst_containment("THE CAT  SAT HERE", "the cat sat here") == 1.0

    def test_empty_suspect_rejected(self):
        with pytest.raises(EmptySuspect):
            gst_containment(" \t ", "abcdefghij")

    def test_empty_source_scores_zero(self):
        assert gst_containment("abcdefghij", "") == 0.0


class TestProperties:
    ALPHABET = "abc "

    def _random_text(self, rng: random.Random, max_len: int) -> str:
        return "".join(rng.choices(self.ALPHABET, k=rng.randint(0, max_len)))

    def test_matches_agree_with_round_oracle(self):
        rng = random.Random(42)
        for _ in range(200):
            sus = self._random_text(rng, 25)
            src = self._random_text(rng, 25)
            params = rng.choice([LOOSE, GstParams(min_tile=5)])
            got = [(t.suspect_offset, t.source_offset, t.length) for t in tiling_matches(sus, src, params)]
            assert got == oracle_rounds(sus, src, params.min_tile)

    def test_non_overlap_and_coverage_bound(self):
        rng = random.Random(43)
        for _ in range(200):
            sus = self._random_text(rng, 60)
            src = self._random_text(rng, 60)
            tiles = tiling_matches(sus, src, LOOSE)
            sus_cover: set[int] = set()
            src_cover: set[int] = set()
            for t in tiles:
                sus_span = set(range(t.suspect_offset, t.suspect_offset + t.length))
                src_span = set(range(t.source_offset, t.source_offset + t.length))
                assert not (sus_cover & sus_span)
                assert not (src_cover & src_span)
                assert sus[t.suspect_offset : t.suspect_offset + t.length] == (
                    src[t.source_offset : t.source_offset + t.length]
                )
                sus_cover |= sus_span
                src_cover |= src_span
            assert sum(t.length for t in tiles) <= min(len(sus), len(src))

    def test_shared_suffix_never_reduces_coverage(self):
        rng = random.Random(44)
        for _ in range(200):
            sus = self._random_text(rng, 30)
            src = self._random_text(rng, 30)
            if not canonicalize(sus):
                continue
            suffix = "".join(rng.choices(self.ALPHABET.strip(), k=rng.randint(10, 15)))
            before = sum(t.length for t in tiling_matches(canonicalize(sus), canonicalize(src)))
            after = sum(
                t.length
                for t in tiling_matches(canonicalize(sus + suffix), canonicalize(src + suffix))
            )
            assert after >= before

    @given(tiling_cases())
    def test_seeded_matches_equal_the_full_scan(self, case):
        sus, src, min_tile = case
        params = GstParams(min_tile=min_tile)
        assert tiling_matches(sus, src, params) == oracle_tiling_matches(sus, src, min_tile)

    @given(wide_tiling_cases())
    def test_wide_alphabet_matches_equal_the_full_scan(self, case):
        sus, src, min_tile = case
        params = GstParams(min_tile=min_tile)
        assert tiling_matches(sus, src, params) == oracle_tiling_matches(sus, src, min_tile)

    @given(
        st.text(st.sampled_from("ab c\u00e9\U0001f600\t\n"), max_size=120),
        st.integers(1, 20),
    )
    def test_identical_text_is_fully_contained(self, text, min_tile):
        params = GstParams(min_tile=min_tile)
        if len(canonicalize(text)) >= params.min_tile:
            assert gst_containment(text, text, params) == 1.0

    @given(tiling_cases(), st.data())
    def test_one_length_tiles_as_rounds_merged_and_cut(self, case, data):
        # short enough for the brute-force round oracle
        sus, src, min_tile = case
        min_match = data.draw(st.integers(1, min_tile))
        assert_one_length_tiles_as_two(sus[:40], src[:40], min_match, min_tile, round_oracle_tiles)

    @given(wide_tiling_cases(), st.data())
    def test_one_length_tiles_as_rounds_merged_and_cut_on_narrow_grams(self, case, data):
        # with hundreds of symbols most gram widths fall below min_tile
        sus, src, min_tile = case
        min_match = data.draw(st.integers(1, min_tile))
        assert_one_length_tiles_as_two(sus, src, min_match, min_tile, oracle_tiling_matches)

    @given(tiling_cases())
    def test_no_two_tiles_are_back_to_back_on_both_sides(self, case):
        sus, src, min_tile = case
        tiles = tiling_matches(sus, src, GstParams(min_tile=min_tile))
        ends = {(t.suspect_offset + t.length, t.source_offset + t.length) for t in tiles}
        assert not ends & {(t.suspect_offset, t.source_offset) for t in tiles}

    def test_deterministic(self):
        rng = random.Random(45)
        for _ in range(50):
            sus = self._random_text(rng, 40)
            src = self._random_text(rng, 40)
            assert tiling_matches(sus, src, LOOSE) == tiling_matches(sus, src, LOOSE)


INT64_MAX = int(np.iinfo(np.int64).max)


def _largest_base(width: int) -> int:
    """The largest base whose `width`-th power fits an int64."""
    base = int(INT64_MAX ** (1 / width))
    while base**width > INT64_MAX:
        base -= 1
    while (base + 1) ** width <= INT64_MAX:
        base += 1
    return base


@st.composite
def gram_key_cases(draw):
    """Ranks, base and width; often the widest base, and ranks at its top digit."""
    width = draw(st.integers(1, 30))
    top = _largest_base(width)
    base = draw(st.just(top) | st.integers(2, min(top, 0x110002)))
    digit = st.integers(0, base - 1) | st.just(base - 1)
    return draw(st.lists(digit, max_size=3 * width)), base, width


def horner_keys(ranks: list[int], base: int, width: int) -> list[int]:
    keys = []
    for start in range(len(ranks) - width + 1):
        key = 0
        for rank in ranks[start : start + width]:
            key = key * base + rank
        keys.append(key)
    return keys


class TestSeeding:
    @given(gram_key_cases())
    @example(([5, 0, 7], 9, 1))  # width 1: each rank is its own key
    @example(([3, 1], 9, 3))  # fewer ranks than the width
    @example(([5000] * 7, 5001, 5))  # 5001 ** 5 fits an int64
    @example(([_largest_base(3) - 1] * 4, _largest_base(3), 3))  # a key near INT64_MAX
    def test_gram_keys_read_ranks_as_numbers(self, case):
        ranks, base, width = case
        keys = gst._gram_keys(np.array(ranks, dtype=np.int64), base, width)
        assert keys.dtype == np.int64
        assert keys.tolist() == horner_keys(ranks, base, width)

    @pytest.mark.parametrize("kind", ["random", "repetitive"])
    @given(data=st.data())
    def test_seed_blocks_list_the_runs_of_one_block(self, kind, data):
        if kind == "random":
            text = st.text(st.sampled_from("ab c"), max_size=300)
            sus, src, min_tile = data.draw(text), data.draw(text), data.draw(st.integers(1, 8))
        else:
            sus, src, min_tile = data.draw(tiling_cases())
        grams = gst.SourceGrams(src, GstParams(min_tile=min_tile))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gst, "_SEED_BLOCK", len(sus) * len(src) + 1)
            whole = grams.runs(sus)
            patch.setattr(gst, "_SEED_BLOCK", data.draw(st.integers(1, 64)))
            assert grams.runs(sus) == whole

    def test_repetitive_text_stays_in_linear_memory(self):
        # every suspect position seeds ~4000 source positions: 16M seeds in all
        text = "a" * 4000
        tracemalloc.start()
        try:
            matches = tiling_matches(text, text, GstParams(min_tile=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matches == [Tile(0, 0, 4000)]
        assert peak < 16 * 2**20

    def test_no_shared_gram_gives_no_runs(self):
        assert gst.SourceGrams("zzzzabcd" * 3, GstParams(min_tile=5)).runs("abcdqqqq") == []

    def test_each_shared_run_is_listed_once(self):
        # "hello" sits on one diagonal, "world" on another: one run each,
        # as (-length, suspect offset, source offset)
        grams = gst.SourceGrams("world, and hello", GstParams(min_tile=5))
        assert grams.runs("hello there world") == [(-5, 12, 0), (-5, 0, 11)]

    def test_wide_alphabet_keys_narrower_grams(self):
        # 5001 ** 5 fits an int64, 5001 ** 6 does not: 5-grams seed runs of 30
        rng = random.Random(46)
        alphabet = [chr(c) for c in range(0x4E00, 0x4E00 + 5000)]
        shared = "".join(rng.choices(alphabet, k=40))
        source = "".join(alphabet) + shared
        suspect = "".join(rng.choices(alphabet, k=50)) + shared[:35] + alphabet[0] * 30
        params = GstParams(min_tile=30)
        assert gst.SourceGrams(source, params).width == 5
        matches = tiling_matches(suspect, source, params)
        assert Tile(50, 5000, 35) in matches
        assert matches == oracle_tiling_matches(suspect, source, 30)

    def test_oversized_source_is_rejected_before_it_is_keyed(self, monkeypatch):
        calls = []
        gram_keys = gst._gram_keys
        monkeypatch.setattr(gst, "_gram_keys", lambda *a: calls.append(a) or gram_keys(*a))
        params = GstParams(max_chars=100)
        with pytest.raises(InputTooLarge, match="^text of 101 chars exceeds cap 100$"):
            gst.source_grams("a" * 101, params)
        assert calls == []
        with pytest.raises(InputTooLarge):
            gst_containment("abc", "a" * 101, params)
        assert calls == []
        gst.source_grams("a" * 100, params)
        assert len(calls) == 1
