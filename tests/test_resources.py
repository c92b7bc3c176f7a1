"""External resource stores: lexical database, IC tables, embeddings."""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import random
import shutil
import tracemalloc
import weakref
import zlib
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paraplag.resources import (
    DimMismatch,
    EmbeddingStore,
    HeaderMismatch,
    ICTable,
    MalformedLine,
    MissingFile,
    TruncatedVector,
    UnknownSynset,
    cosine,
    load_embeddings,
    load_ic,
    load_lexdb,
    resnik,
    subsumer_ics,
    synonyms,
)
from paraplag.resources import embeddings
from paraplag.textprep import normalize

from embedding_oracle import assert_same_store, embedding_store

FIXTURES = Path(__file__).parent / "fixtures"

ENTITY = (1740, "n")
ANIMAL = (15388, "n")
CANINE = (2083346, "n")
DOG = (2084071, "n")
CAT = (2121620, "n")
TRACTOR_CAT = (2970849, "n")
VEHICLE = (4524313, "n")
MOVE = (1835496, "v")
FIXTURE_SYNSETS = [
    ENTITY, ANIMAL, CANINE, DOG, (2120997, "n"), CAT, (2958343, "n"), TRACTOR_CAT, VEHICLE,
    MOVE, (1904930, "v"), (1926311, "v"), (1000, "a"),
]
FIXTURE_WORDS = ["dog", "cat", "car", "feline", "canine", "vehicle", "entity", "walk", "run",
                 "move", "content", "zzgronk"]


@pytest.fixture(scope="module")
def store():
    return load_lexdb(FIXTURES / "lexdb")


class TestLexdbLoading:
    def test_counts(self, store):
        assert store.synset_count("n") == 9
        assert store.synset_count("v") == 3
        assert store.synset_count("a") == 1

    def test_lemmas_lowercased_and_markers_stripped(self, store):
        assert "canis_familiaris" in store.synset(DOG).lemmas
        assert "content" in store.synset((1000, "a")).lemmas

    def test_sense_order_preserved(self, store):
        assert store.senses("cat", "n") == (CAT, TRACTOR_CAT)

    def test_hypernym_pointers(self, store):
        assert store.synset(DOG).hypernyms == (CANINE,)
        assert store.synset(ENTITY).hypernyms == ()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingFile):
            load_lexdb(tmp_path / "nowhere")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(MissingFile):
            load_lexdb(tmp_path)

    def test_files_may_start_with_a_byte_order_mark(self, tmp_path, store):
        self._copy_fixture(tmp_path)
        for path in tmp_path.iterdir():
            path.write_bytes("\ufeff".encode() + path.read_bytes())
        marked = load_lexdb(tmp_path)
        assert [marked.synset_count(pos) for pos in "nvar"] == [
            store.synset_count(pos) for pos in "nvar"]
        assert [marked.synset(sid) for sid in FIXTURE_SYNSETS] == [
            store.synset(sid) for sid in FIXTURE_SYNSETS]
        assert [marked.senses(word, pos) for word in FIXTURE_WORDS for pos in "nvar"] == [
            store.senses(word, pos) for word in FIXTURE_WORDS for pos in "nvar"]

    def test_malformed_data_line_reports_location(self, tmp_path):
        self._copy_fixture(tmp_path)
        data = tmp_path / "data.noun"
        data.write_text(data.read_text() + "9999 05 n xx broken\n")
        with pytest.raises(MalformedLine) as exc:
            load_lexdb(tmp_path)
        assert "data.noun" in str(exc.value)

    def test_unresolved_hypernym_rejected(self, tmp_path):
        self._copy_fixture(tmp_path)
        data = tmp_path / "data.noun"
        data.write_text(
            data.read_text()
            + "00099999 05 n 01 orphan 0 001 @ 00777777 n 0000 | dangling pointer\n"
        )
        with pytest.raises(MalformedLine) as exc:
            load_lexdb(tmp_path)
        assert "00777777" in str(exc.value) or "777777" in str(exc.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0000x001 05 n 01 w 0 000 | g", "invalid literal for int() with base 10: '0000x001'"),
            ("00000001 05 q 01 w 0 000 | g", "'q'"),
            ("00000001 05 n zz w 0 000 | g", "invalid literal for int() with base 16: 'zz'"),
            ("00000001 05 n", "too few fields"),
            ("00000001 05 n 01", "list index out of range"),
            ("00000001 05 n 01 w", "list index out of range"),
            ("00000001 05 n 01 w zz 000 | g", "invalid literal for int() with base 16: 'zz'"),
            ("00000001 05 n 01 w 0", "list index out of range"),
            ("00000001 05 n 01 w 0 x01 | g", "invalid literal for int() with base 10: 'x01'"),
            ("00000001 05 n 01 w 0 001", "list index out of range"),
            ("00000001 05 n 01 w 0 001 @", "list index out of range"),
            ("00000001 05 n 01 w 0 001 @ 00001740", "list index out of range"),
            ("00000001 05 n 01 w 0 001 @ 00001740 n", "list index out of range"),
            ("00000001 05 n 01 w 0 001 @ 0000174x n 0000 | g",
             "invalid literal for int() with base 10: '0000174x'"),
        ],
        ids=["bad-offset", "unknown-ss-type", "non-hex-word-count", "too-few-fields",
             "missing-lemma", "missing-lex-id", "bad-lex-id", "missing-pointer-count",
             "bad-pointer-count", "missing-pointer-symbol", "missing-pointer-offset",
             "missing-pointer-pos", "missing-pointer-source-target", "bad-pointer-offset"],
    )
    def test_malformed_data_line_message(self, tmp_path, line, message):
        self._copy_fixture(tmp_path)
        data = tmp_path / "data.noun"
        n = len(data.read_text().splitlines())
        data.write_text(data.read_text() + line + "\n")
        with pytest.raises(MalformedLine) as exc:
            load_lexdb(tmp_path)
        assert (exc.value.file, exc.value.line_no) == (str(data), n + 1)
        assert str(exc.value) == f"{data}:{n + 1}: {message}"

    def test_index_entry_naming_a_missing_synset_rejected(self, tmp_path):
        self._copy_fixture(tmp_path)
        index = tmp_path / "index.verb"
        n = len(index.read_text().splitlines())
        index.write_text(index.read_text() + "ghost v 1 1 @ 1 0 01835497\n")
        with pytest.raises(MalformedLine) as exc:
            load_lexdb(tmp_path)
        assert str(exc.value) == (
            f"{index}:{n + 1}: index entry 'ghost' references missing synset (1835497, 'v')"
        )

    @pytest.mark.parametrize(
        "line",
        ["dog n 2 0 2 0 02084071", "dog n 0 0 0 0 02084071", "dog n 9 0 0 0 02084071",
         "dog n 1 2 @ 1 0 02084071", "dog n 1 -1 1 0 02084071"],
        ids=["tagsense-count-as-offset", "no-synsets", "too-few-offsets",
             "too-few-pointer-symbols", "negative-pointer-count"],
    )
    def test_index_line_off_its_layout_rejected(self, tmp_path, line):
        self._copy_fixture(tmp_path)
        index = tmp_path / "index.noun"
        n = len(index.read_text().splitlines())
        index.write_text(index.read_text() + line + "\n")
        with pytest.raises(MalformedLine) as exc:
            load_lexdb(tmp_path)
        assert str(exc.value) == f"{index}:{n + 1}: bad synset count"

    @pytest.mark.parametrize(
        "appended, on_cycle",
        [
            (["00000001 05 n 01 hen 0 001 @ 00000002 n 0000 | one side of a loop",
              "00000002 05 n 01 egg 0 001 @ 00000001 n 0000 | the other side"], {1, 2}),
            (["00000001 05 n 01 ouroboros 0 001 @ 00000001 n 0000 | itself"], {1}),
            # leaf -> mid <-> top -> entity: only mid and top are on the cycle
            (["00000003 05 n 01 leaf 0 001 @ 00000002 n 0000 | under the loop",
              "00000002 05 n 01 mid 0 001 @ 00000001 n 0000 | on the loop",
              "00000001 05 n 01 top 0 002 @ 00000002 n 0000 @ 00001740 n 0000 | on it too"],
             {2, 3}),
        ],
        ids=["two-synsets", "self-loop", "above-a-chain"],
    )
    def test_hypernym_cycle_rejected(self, tmp_path, appended, on_cycle):
        self._copy_fixture(tmp_path)
        data = tmp_path / "data.noun"
        n = len(data.read_text().splitlines())
        data.write_text(data.read_text() + "".join(line + "\n" for line in appended))
        with pytest.raises(MalformedLine, match="hypernym cycle") as exc:
            load_lexdb(tmp_path)
        assert exc.value.file == str(data)
        assert exc.value.line_no - n in on_cycle

    def test_ancestors_of_a_deep_chain(self, tmp_path):
        # synset i's hypernym is i + 1, and the top one's is ENTITY: far
        # deeper than the interpreter's recursion limit
        depth = 3000
        self._copy_fixture(tmp_path)
        data = tmp_path / "data.noun"
        chain = [
            f"{90000000 + i:08d} 05 n 01 link{i} 0 001 @ {90000001 + i:08d} n 0000 | chain\n"
            for i in range(depth - 1)
        ]
        chain.append(f"{90000000 + depth - 1:08d} 05 n 01 top 0 001 @ 00001740 n 0000 | top\n")
        data.write_text(data.read_text() + "".join(chain))
        store = load_lexdb(tmp_path)

        def oracle(i):
            return {(90000000 + j, "n") for j in range(i, depth)} | {ENTITY}

        # the middle one first: an answer must not depend on what was asked before
        middle = depth // 2
        assert store.ancestors((90000000 + middle, "n")) == oracle(middle)
        assert store.ancestors((90000000, "n")) == oracle(0)
        assert store.ancestors((90000000 + depth - 1, "n")) == oracle(depth - 1)

    def test_index_lines_folding_to_one_lemma_keep_every_sense(self, tmp_path):
        (tmp_path / "data.noun").write_text(
            "00000100 05 n 01 Résumé 0 000 | a summary\n"
            "00000200 05 n 01 resume 0 000 | a new start\n"
            "00000300 05 n 01 cv 0 000 | a record\n",
            encoding="utf-8",
        )
        (tmp_path / "index.noun").write_text(
            "cv n 1 0 1 0 00000300\n"
            "résumé n 2 0 2 0 00000100 00000300\n"
            "resume n 2 0 2 0 00000200 00000100\n",
            encoding="utf-8",
        )
        store = load_lexdb(tmp_path)
        # both lines' senses, in file order, each once
        assert store.senses("resume", "n") == ((100, "n"), (300, "n"), (200, "n"))
        assert store.synset((100, "n")).lemmas == {"resume"}
        assert synonyms(store, "resume") == {"cv"}

    def test_queries_leave_the_store_as_loaded(self):
        store = load_lexdb(FIXTURES / "lexdb")

        def shape():
            return {key: len(value) for key, value in vars(store).items()}

        loaded = shape()
        table = ICTable({sid: 1.0 + i for i, sid in enumerate(FIXTURE_SYNSETS)})
        for sid in FIXTURE_SYNSETS:
            store.ancestors(sid)
        for w1 in FIXTURE_WORDS:
            synonyms(store, w1)
            subsumer_ics(store, table, w1)
            for w2 in FIXTURE_WORDS:
                resnik(store, table, w1, w2)
        assert shape() == loaded

    def test_unknown_synset_access(self, store):
        with pytest.raises(UnknownSynset):
            store.synset((123456789, "n"))

    @staticmethod
    def _copy_fixture(dest: Path):
        for f in (FIXTURES / "lexdb").iterdir():
            shutil.copy(f, dest / f.name)


class TestSynonyms:
    def test_multi_lemma_synset(self, store):
        assert synonyms(store, "car") == {"auto", "automobile", "machine", "motorcar"}

    def test_union_across_senses(self, store):
        assert synonyms(store, "cat") == {"true_cat", "caterpillar"}

    def test_single_lemma_synset_empty(self, store):
        assert synonyms(store, "entity") == set()

    def test_unknown_word_empty(self, store):
        assert synonyms(store, "zzgronk") == set()

    def test_never_contains_the_word_itself(self, store):
        for word in ("car", "cat", "dog", "run", "happy"):
            assert word not in synonyms(store, word)


class TestResnik:
    def test_subsumer_ic_value(self, store):
        table = ICTable({ANIMAL: 2.0, ENTITY: 0.0})
        assert resnik(store, table, "cat", "dog") == pytest.approx(2.0)

    def test_maximum_over_sense_pairs(self, store):
        # cat as tractor shares the vehicle subsumer with car
        table = ICTable({VEHICLE: 1.5, ANIMAL: 2.0, ENTITY: 0.0})
        assert resnik(store, table, "cat", "car") == pytest.approx(1.5)

    def test_unknown_word_none(self, store):
        table = ICTable({ANIMAL: 2.0})
        assert resnik(store, table, "cat", "zzgronk") is None

    def test_no_ic_on_subsumers_none(self, store):
        assert resnik(store, ICTable({}), "cat", "dog") is None

    def test_only_nouns_and_verbs_participate(self, store):
        table = ICTable({(1000, "a"): 9.9})
        assert resnik(store, table, "happy", "glad") is None

    def test_verb_taxonomy(self, store):
        table = ICTable({MOVE: 1.2})
        assert resnik(store, table, "run", "walk") == pytest.approx(1.2)

    def test_subsumer_ics_keyed_by_sense_pos(self, store):
        table = ICTable({VEHICLE: 1.5, ANIMAL: 2.0, CAT: 4.0, MOVE: 1.2})
        assert subsumer_ics(store, table, "cat") == {
            ("n", CAT): 4.0, ("n", ANIMAL): 2.0, ("n", VEHICLE): 1.5,
        }
        assert subsumer_ics(store, table, "walk") == {("v", MOVE): 1.2}
        assert subsumer_ics(store, table, "happy") == {}
        assert subsumer_ics(store, table, "zzgronk") == {}

    @given(
        values=st.dictionaries(
            st.sampled_from(FIXTURE_SYNSETS), st.floats(0.0, 20.0), max_size=len(FIXTURE_SYNSETS)
        ),
        w1=st.sampled_from(FIXTURE_WORDS),
        w2=st.sampled_from(FIXTURE_WORDS),
    )
    def test_symmetric(self, store, values, w1, w2):
        table = ICTable(values)
        assert resnik(store, table, w1, w2) == resnik(store, table, w2, w1)

    def test_memo_is_kept_per_ic_table(self, store):
        low = ICTable({ANIMAL: 2.0})
        high = ICTable({ANIMAL: 3.0})
        assert resnik(store, low, "cat", "dog") == pytest.approx(2.0)
        assert resnik(store, high, "cat", "dog") == pytest.approx(3.0)
        assert resnik(store, low, "cat", "dog") == pytest.approx(2.0)

    def test_memo_does_not_keep_stores_alive(self):
        lexdb = load_lexdb(FIXTURES / "lexdb")
        table = ICTable({ANIMAL: 2.0})
        assert resnik(lexdb, table, "cat", "dog") == pytest.approx(2.0)
        assert resnik(lexdb, table, "cat", "car") is None
        refs = [weakref.ref(lexdb), weakref.ref(table)]
        del lexdb, table
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestICTable:
    def test_values_validated(self):
        with pytest.raises(ValueError):
            ICTable({ENTITY: -1.0})
        with pytest.raises(ValueError):
            ICTable({ENTITY: float("inf")})

    def test_load_converts_counts_to_ic(self, tmp_path):
        path = tmp_path / "ic.dat"
        count = 1000.0 * math.exp(-2.0)
        path.write_text(
            "wnver::30\n"
            f"1740n 1000.0 ROOT\n"
            f"15388n {count!r}\n"
            "2121620n 0\n"
            "1835496v 600 ROOT\n"
            "1904930v 150\n"
        )
        table = load_ic(path)
        assert table.get(ENTITY) == pytest.approx(0.0, abs=1e-12)
        assert table.get(ANIMAL) == pytest.approx(2.0, abs=1e-12)
        assert table.get(CAT) is None  # zero count carries no value
        assert table.get((1904930, "v")) == pytest.approx(-math.log(150 / 600), abs=1e-12)

    def test_load_accepts_a_byte_order_mark(self, tmp_path):
        text = "wnver::30\n1740n 1000 ROOT\n15388n 10\n"
        path = tmp_path / "ic.dat"
        path.write_text(text, encoding="utf-8")
        plain = load_ic(path)
        path.write_text("\ufeff" + text, encoding="utf-8")
        marked = load_ic(path)
        assert [marked.get(sid) for sid in (ENTITY, ANIMAL)] == [
            plain.get(sid) for sid in (ENTITY, ANIMAL)]
        assert marked.get(ANIMAL) == pytest.approx(math.log(100))

    def test_load_sums_multiple_roots_per_pos(self, tmp_path):
        path = tmp_path / "ic.dat"
        path.write_text(
            "wnver::30\n"
            "100v 300 ROOT\n"
            "200v 100 ROOT\n"
            "300v 40\n"
        )
        table = load_ic(path)
        assert table.get((300, "v")) == pytest.approx(-math.log(40 / 400), abs=1e-12)

    def test_load_skips_blank_lines_and_counts_them(self, tmp_path):
        path = tmp_path / "ic.dat"
        path.write_text("wnver::30\n\n100v 300 ROOT\n   \n300v 40\n")
        assert load_ic(path).get((300, "v")) == pytest.approx(-math.log(40 / 300), abs=1e-12)
        path.write_text("wnver::30\n\n100v 300 ROOT\n   \nnot a valid line\n")
        with pytest.raises(MalformedLine) as exc:
            load_ic(path)
        assert exc.value.line_no == 5

    def test_load_rejects_missing_header(self, tmp_path):
        path = tmp_path / "ic.dat"
        path.write_text("1740n 1000 ROOT\n")
        with pytest.raises(MalformedLine):
            load_ic(path)

    def test_load_rejects_bad_line(self, tmp_path):
        path = tmp_path / "ic.dat"
        path.write_text("wnver::30\nnot a valid line\n")
        with pytest.raises(MalformedLine):
            load_ic(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_ic(tmp_path / "absent.dat")

    def test_load_rejects_infinite_root_count(self, tmp_path):
        path = tmp_path / "ic.dat"
        path.write_text("wnver::30\n1740n inf ROOT\n15388n 10\n")
        with pytest.raises(MalformedLine) as exc:
            load_ic(path)
        assert (exc.value.file, exc.value.line_no) == (str(path), 2)
        assert "non-finite count 'inf'" in str(exc.value)

    def test_load_rejects_nan_count(self, tmp_path):
        path = tmp_path / "ic.dat"
        path.write_text("wnver::30\n1740n 1000 ROOT\n15388n nan\n")
        with pytest.raises(MalformedLine) as exc:
            load_ic(path)
        assert (exc.value.file, exc.value.line_no) == (str(path), 3)

    def test_load_rejects_counts_summing_past_float_range(self, tmp_path):
        path = tmp_path / "ic.dat"
        path.write_text("wnver::30\n100v 1e308 ROOT\n200v 1e308 ROOT\n300v 40\n")
        with pytest.raises(MalformedLine) as exc:
            load_ic(path)
        assert (exc.value.file, exc.value.line_no) == (str(path), 3)


class TestEmbeddings:
    def test_text_load(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\napple 1 0 0\nbanana 0 1 0\n")
        store = load_embeddings(path, "text")
        assert store.dim == 3
        assert len(store) == 2
        assert "apple" in store
        np.testing.assert_array_equal(store.lookup_folded("apple"), [1, 0, 0])
        assert "cherry" not in store and store.lookup_folded("cherry") is None

    def test_text_store_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("\ufeff2 2\nParis 1 0\nlondon 0 1\n", encoding="utf-8")
        for _ in ("parsed", "cached"):
            store = load_embeddings(path, "text")
            assert len(store) == 2 and "Paris" in store
            np.testing.assert_array_equal(store.lookup_folded("paris"), [1, 0])
        # the binary header is ASCII: a mark there is no number
        binary = tmp_path / "vecs.bin"
        binary.write_bytes("\ufeff".encode() + b"1 1\na " + np.ones(1, "<f4").tobytes())
        with pytest.raises(HeaderMismatch, match="non-integer header"):
            load_embeddings(binary, "binary")

    def test_component_count_enforced(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 3\napple 1 0\n")
        with pytest.raises(TruncatedVector) as exc:
            load_embeddings(path, "text")
        assert exc.value.word == "apple"

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("header", ["-1 3", "2 0"])
    def test_implausible_header_rejected(self, tmp_path, fmt, header):
        path = tmp_path / "vecs"
        path.write_bytes(header.encode("ascii") + b"\napple 1 0 0\n")
        with pytest.raises(HeaderMismatch) as exc:
            load_embeddings(path, fmt)
        assert str(exc.value) == f"{path}: implausible header values {header}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile, match="embedding file not found"):
            load_embeddings(tmp_path / "absent.txt", "text")

    def test_header_count_enforced(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 3\napple 1 0 0\nbanana 0 1 0\n")
        with pytest.raises(HeaderMismatch):
            load_embeddings(path, "text")

    def test_whitespace_only_line_skipped(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\napple 1 0 0\n   \n\t\nbanana 0 1 0\n")
        store = load_embeddings(path, "text")
        assert len(store) == 2 and "apple" in store and "banana" in store

    def test_whitespace_only_line_is_not_a_word(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 3\napple 1 0 0\n   \nbanana 0 1 0\n")
        with pytest.raises(HeaderMismatch, match="declares 3 words, file holds 2"):
            load_embeddings(path, "text")

    def test_repeated_word_rejected(self, tmp_path):
        # two distinct words would match the header if the repeat were merged
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\na 1 0\nb 0 1\n\na 0.5 0.5\n")
        with pytest.raises(HeaderMismatch) as exc:
            load_embeddings(path, "text")
        # the line of the second occurrence, counting the header and the blank line
        assert str(exc.value) == f"{path}:5: word 'a' is repeated"

    def test_binary_round_trip(self, tmp_path):
        text_path = tmp_path / "vecs.txt"
        text_path.write_text("2 3\napple 1.5 -0.25 0.125\nbanana 0.1 0.2 0.3\n")
        store = load_embeddings(text_path, "text")
        bin_path = tmp_path / "vecs.bin"
        bin_path.write_bytes(
            b"2 3\n"
            + b"apple " + store.lookup_folded("apple").astype("<f4").tobytes() + b"\n"
            + b"banana " + store.lookup_folded("banana").astype("<f4").tobytes() + b"\n"
        )
        loaded = load_embeddings(bin_path, "binary")
        assert loaded.dim == store.dim and len(loaded) == len(store)
        for word in ("apple", "banana"):
            assert word in loaded
            np.testing.assert_array_equal(loaded.lookup_folded(word), store.lookup_folded(word))

    def test_binary_truncated_vector(self, tmp_path):
        path = tmp_path / "vecs.bin"
        payload = b"2 3\napple " + np.arange(3, dtype="<f4").tobytes() + b"\nbanana " + b"\x00" * 7
        path.write_bytes(payload)
        with pytest.raises(TruncatedVector) as exc:
            load_embeddings(path, "binary")
        assert exc.value.word == "banana"

    def test_binary_repeated_word_rejected(self, tmp_path):
        path = tmp_path / "vecs.bin"
        vec = np.arange(2, dtype="<f4").tobytes()
        path.write_bytes(b"3 2\na " + vec + b"\nb " + vec + b"\na " + vec + b"\n")
        with pytest.raises(HeaderMismatch, match="word 'a' is repeated") as exc:
            load_embeddings(path, "binary")
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("header", [b"1 1000000000000", b"100000000000000 3"])
    def test_binary_header_beyond_file_size_rejected(self, tmp_path, header):
        # checked before any read, so a corrupt header cannot size a huge buffer
        path = tmp_path / "vecs.bin"
        path.write_bytes(header + b"\napple " + b"\x00" * 12)
        with pytest.raises(HeaderMismatch, match="more data than the file holds"):
            load_embeddings(path, "binary")

    @pytest.mark.parametrize(
        "trailer",
        [b"x", b"\n" * 9 + b"x", b"\n" * 70000 + b"\x00"],
        ids=["byte", "byte-after-9-newlines", "byte-after-70000-newlines"],
    )
    def test_binary_data_after_the_last_vector_rejected(self, tmp_path, trailer):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"1 2\napple " + np.arange(2, dtype="<f4").tobytes() + trailer)
        with pytest.raises(HeaderMismatch, match="trailing data after 1 declared words") as exc:
            load_embeddings(path, "binary")
        assert str(path) in str(exc.value)

    def test_binary_trailing_newlines_load(self, tmp_path):
        path = tmp_path / "vecs.bin"
        path.write_bytes(b"1 2\napple " + np.arange(2, dtype="<f4").tobytes() + b"\n" * 70000)
        assert "apple" in load_embeddings(path, "binary")

    def test_case_folded_lookup_is_explicit(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\nParis 1 0\nlondon 0 1\n")
        store = load_embeddings(path, "text")
        assert "paris" not in store
        np.testing.assert_array_equal(store.lookup_folded("paris"), [1, 0])
        np.testing.assert_array_equal(store.lookup_folded("london"), [0, 1])

    @pytest.mark.parametrize("word, probes, row", [
        # the word, the alias table with its form, and the word table with its
        # form only where the form is another word
        ("paros", 2, None),
        ("Paros", 3, None),
        ("London", 3, 1),
        ("paris", 2, 0),
        ("CAFÉ", 2, 2),
    ])
    def test_a_lookup_probes_the_form_only_when_it_is_another_word(self, word, probes, row):
        store = embedding_store({"Paris": [1, 0], "london": [0, 1], "Café": [1, 1]}, 2)
        with mock.patch.object(store.exact, "get", wraps=store.exact.get) as exact, \
                mock.patch.object(store.folded, "get", wraps=store.folded.get) as folded:
            assert store.row(word) == row
        assert exact.call_count + folded.call_count == probes

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_looked_up_vectors_are_read_only(self, tmp_path, fmt):
        path = tmp_path / "vecs"
        if fmt == "text":
            path.write_text("2 2\nParis 1 0\nlondon 0 1\n")
        else:
            rows = np.eye(2, dtype="<f4")
            path.write_bytes(b"2 2\nParis " + rows[0].tobytes() + b"london " + rows[1].tobytes())
        for _ in ("parsed", "cached"):
            store = load_embeddings(path, fmt)
            for word in ("Paris", "paris", "london"):
                vec = store.lookup_folded(word)
                with pytest.raises(ValueError):
                    vec *= 2
                with pytest.raises(ValueError):
                    vec[0] = 5.0
            np.testing.assert_array_equal(store.lookup_folded("paris"), [1, 0])
            np.testing.assert_array_equal(store.lookup_folded("london"), [0, 1])

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("0 3\n")
        with pytest.raises(ValueError):
            load_embeddings(path, "parquet")


def _load(path, fmt="text"):
    """load_embeddings(path, fmt), and whether it parsed the store."""
    parse = getattr(embeddings, f"_load_{fmt}")
    with mock.patch.object(embeddings, f"_load_{fmt}", wraps=parse) as spy:
        store = load_embeddings(path, fmt)
    return store, spy.called


def _cache_regions(data: bytes) -> dict[str, tuple[int, int]]:
    """Where each region of a cache's bytes starts and ends: the matrix, the
    offsets, row ids, CRC-32s and key blob of the word table ("words-...") and
    of the normalized-form table ("forms-..."), and the seal line."""
    seal_at = data.rindex(b"\n") + 1
    rows, dim, *sizes = [int(field) for field in data[seal_at:].split(b" ")[-7:-1]]
    regions = {"matrix": (0, 4 * rows * dim)}
    at = regions["matrix"][1]
    for table, keys, blob in [("words", *sizes[:2]), ("forms", *sizes[2:])]:
        at = -(-at // 8) * 8
        for region, size in [("offsets", 8 * (keys + 1)), ("rows", 4 * keys),
                             ("hashes", 4 * keys), ("blob", blob)]:
            regions[f"{table}-{region}"] = (at, at + size)
            at += size
    regions["seal"] = (seal_at, len(data))
    return regions


TABLE_REGIONS = [f"{table}-{region}" for table in ("words", "forms")
                 for region in ("offsets", "rows", "hashes", "blob")]


def _cut_in(region):
    def cut(data):
        start, end = _cache_regions(data)[region]
        return data[:(start + end) // 2]
    return cut


def _flip_in(region):
    def flip(data):
        start, end = _cache_regions(data)[region]
        at = (start + end) // 2
        return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
    return flip


def _resealed(region, dtype, pick, value):
    """A corruption that sets element `pick(elements)` of `region` to `value`
    and fixes the seal's CRC-32 to match: only the tables' shape checks find it."""
    def corrupt(data):
        regions = _cache_regions(data)
        start, end = regions[region]
        elements = np.frombuffer(data[start:end], dtype).copy()
        elements[pick(elements)] = value
        data = data[:start] + elements.tobytes() + data[end:]
        tables_at, seal_at = regions["words-offsets"][0], regions["seal"][0]
        crc = zlib.crc32(data[tables_at:seal_at - 1])
        return data[:seal_at] + data[seal_at:].rsplit(b" ", 1)[0] + b" %d" % crc
    return corrupt


# The seal's fields after the key, before the CRC-32.
SEAL_SIZES = ["count", "dim", "words-keys", "words-blob", "forms-keys", "forms-blob"]


def _seal_size(name, change):
    """A corruption that sets the seal's size `name` to `change` of its value."""
    def corrupt(data):
        *head, seal = data.rsplit(b"\n", 1)
        fields = seal.split(b" ")
        at = SEAL_SIZES.index(name) - len(SEAL_SIZES) - 1
        fields[at] = b"%d" % change(int(fields[at]))
        return b"\n".join([*head, b" ".join(fields)])
    return corrupt


# Each takes a good cache's bytes and returns a corrupted copy.
CORRUPTIONS = {
    "empty": lambda data: b"",
    "cut-to-20-bytes": lambda data: data[:20],
    "cut-in-matrix": lambda data: data[:_cache_regions(data)["matrix"][1] - 3],
    **{f"cut-in-{region}": _cut_in(region) for region in TABLE_REGIONS},
    **{f"flipped-byte-in-{region}": _flip_in(region) for region in TABLE_REGIONS},
    "cut-in-seal": lambda data: data[:-1],
    "flipped-key-byte": lambda data: data[:-60] + bytes([data[-60] ^ 1]) + data[-59:],
    "flipped-checksum-digit": lambda data: data[:-1] + bytes([data[-1] ^ 1]),
    "one-word-more": _seal_size("words-keys", lambda n: n + 1),
    "one-form-fewer": _seal_size("forms-keys", lambda n: n - 1),
    # the matrix's shape, which only the seal gives
    "one-row-more": _seal_size("count", lambda n: n + 1),
    "one-dimension-more": _seal_size("dim", lambda n: n + 1),
    "no-dimensions": _seal_size("dim", lambda n: 0),
    "negative-row-count": _seal_size("count", lambda n: -n),
    "row-count-past-any-index": _seal_size("count", lambda n: n + 2**63),
    "word-count-past-any-index": _seal_size("words-keys", lambda n: n + 2**63),
    # resealed: the CRC-32 matches, so the tables' shape checks alone refuse them
    "resealed-falling-offsets": _resealed("words-offsets", "<i8", lambda e: 1, 12),
    "resealed-offsets-past-the-blob": _resealed("forms-offsets", "<i8", lambda e: -1, 99),
    "resealed-row-id-past-the-matrix": _resealed("forms-rows", "<i4", lambda e: 0, 4),
    "resealed-negative-row-id": _resealed("words-rows", "<i4", lambda e: 2, -1),
    "resealed-falling-hashes": _resealed("words-hashes", "<u4", lambda e: -1, 0),
}


# Two keys of one CRC-32, 1306201125.
COLLIDING = ["plumless", "buckeroo"]


class TestWordTable:
    @given(st.lists(st.text(max_size=3), unique=True, max_size=40), st.lists(st.text(max_size=3)))
    @example(COLLIDING, [])
    @example(COLLIDING[:1], COLLIDING[1:])
    @example(COLLIDING[1:], COLLIDING[:1])
    def test_finds_each_key_at_its_row_and_nothing_else(self, keys, others):
        rows = [3 * k + 1 for k in range(len(keys))]
        table = embeddings.WordTable.build(keys, rows)
        assert len(table) == len(keys) and table.is_sound(3 * len(keys) + 1)
        for word in [*keys, *others, "\ud800"]:
            assert table.get(word) == (rows[keys.index(word)] if word in keys else None)

    @given(st.data())
    def test_garbled_arrays_still_end_every_lookup(self, data):
        # a table `is_sound` would refuse still ends every lookup, with None or one of its rows
        words = ["a", "bb", "ccc", *COLLIDING]
        offsets, rows, hashes, blob = embeddings.WordTable.build(words, range(5)).regions
        garbled = {
            "offsets": st.lists(st.integers(-20, 40), min_size=6, max_size=6).map(
                lambda e: np.array(e, "<i8")),
            "rows": st.lists(st.integers(-(2**31), 2**31 - 1), min_size=5, max_size=5).map(
                lambda e: np.array(e, "<i4")),
            "hashes": st.lists(st.sampled_from([0, *hashes.tolist(), 2**32 - 1]),
                               min_size=5, max_size=5).map(lambda e: np.array(e, "<u4")),
        }
        regions = {"offsets": offsets, "rows": rows, "hashes": hashes, "blob": blob}
        for name in data.draw(st.lists(st.sampled_from(sorted(garbled)), min_size=1, unique=True)):
            regions[name] = data.draw(garbled[name], label=name)
        table = embeddings.WordTable(**regions)
        for word in [*words, "", "absent"]:
            assert table.get(word) in [None, *regions["rows"].tolist()]

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_the_shape_checks_read_every_block(self, block):
        table = embeddings.WordTable.build(["a", "bb", "ccc", "dddd", "e", "ff"], range(6))
        offsets, rows, hashes, blob = table.regions
        with mock.patch.object(embeddings, "_CHECK_BLOCK", block):
            assert table.is_sound(6)
            for at in range(1, 6):
                falling = offsets.copy()
                falling[at] = falling[at + 1] + 1
                assert not embeddings.WordTable(falling, rows, hashes, blob).is_sound(6)
                swapped = hashes.copy()
                swapped[[at - 1, at]] = swapped[[at, at - 1]]
                assert not embeddings.WordTable(offsets, rows, swapped, blob).is_sound(6)


class TestEmbeddingCache:
    """The cache beside a store: hits, misses, and writes that fail."""

    # The last component is 0.0: its bytes are valid UTF-8, so a matrix read
    # from too early an offset leaves a tail that still decodes.  "Éclair" is
    # the one alias: no stored word is its normalized form.
    TEXT = "4 2\napple 1.5 -0.25\nbanana 0.1 0.2\nÉclair 2 1\nApple 3 0\n"
    WORDS = ["apple", "banana", "Éclair", "Apple"]

    def test_same_size_edit_with_the_old_mtime_is_a_miss(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text(self.TEXT)
        load_embeddings(path)
        before = os.stat(path)
        path.write_text(self.TEXT.replace("apple 1.5", "apple 2.5"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert (os.stat(path).st_size, os.stat(path).st_mtime_ns) == (
            before.st_size, before.st_mtime_ns)
        store, did_parse = _load(path)
        assert did_parse
        np.testing.assert_array_equal(store.lookup_folded("apple"), [2.5, -0.25])
        assert_same_store(_load(path)[0], store, self.WORDS)

    def test_the_format_is_part_of_the_key(self, tmp_path):
        # a valid store in both formats: to the binary loader, "1.5\n" is a float32
        path = tmp_path / "vecs"
        path.write_bytes(b"1 1\na 1.5\n")
        for fmt, want in [("text", [1.5]), ("binary", np.frombuffer(b"1.5\n", "<f4"))] * 2:
            store, did_parse = _load(path, fmt)
            assert did_parse
            assert store.lookup_folded("a").tobytes() == np.asarray(want, "<f4").tobytes()

    @pytest.mark.parametrize("fmt, data, error, message", [
        ("text", b"2 2\napple 1 0\n", HeaderMismatch, "declares 2 words, file holds 1"),
        ("text", b"1 2\napple 1 x\n", TruncatedVector, "truncated vector for 'apple'"),
        ("binary", b"1 2\napple \x00\x00", TruncatedVector, "truncated vector for 'apple'"),
    ])
    def test_failed_parse_raises_as_before_and_leaves_no_cache(self, tmp_path, fmt, data,
                                                               error, message):
        path = tmp_path / "vecs"
        path.write_bytes(data)
        for _ in range(2):
            with pytest.raises(error, match=message):
                load_embeddings(path, fmt)
            assert [p.name for p in tmp_path.iterdir()] == ["vecs"]

    @pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
    def test_corrupt_cache_is_a_miss_and_rewritten(self, tmp_path, corrupt):
        path = tmp_path / "vecs.txt"
        path.write_text(self.TEXT)
        parsed = load_embeddings(path)
        cache = tmp_path / "vecs.txt.paraplag-cache"
        good = cache.read_bytes()
        bad = corrupt(good)
        assert bad != good
        cache.write_bytes(bad)
        store, did_parse = _load(path)
        assert did_parse
        assert_same_store(store, parsed, self.WORDS)
        assert cache.read_bytes() == good

    def test_older_layout_version_is_a_miss(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text(self.TEXT)
        with mock.patch.object(embeddings, "_CACHE_VERSION", 0):
            load_embeddings(path)
        assert _load(path)[1]
        assert not _load(path)[1]

    def test_a_version_1_cache_is_a_miss_and_rewritten(self, tmp_path):
        # the layout before the word tables: the matrix, then each word and the
        # key line, one a line
        path = tmp_path / "vecs.txt"
        path.write_text(self.TEXT)
        parsed = load_embeddings(path)
        cache = tmp_path / "vecs.txt.paraplag-cache"
        good = cache.read_bytes()
        key = f"paraplag-embedding-cache 1 text sha256:{embeddings._digest(str(path))}"
        with open(cache, "wb") as fh:
            np.save(fh, parsed.matrix)
            offset = fh.tell() - parsed.matrix.nbytes
            fh.write("\n".join([*self.WORDS, f"{key} {offset} {parsed.matrix.shape}"]).encode())
        store, did_parse = _load(path)
        assert did_parse and cache.read_bytes() == good
        assert_same_store(store, parsed, self.WORDS)

    def test_a_version_2_cache_is_a_miss_and_rewritten(self, tmp_path):
        # the layout before the seal described the matrix alone: the matrix in
        # .npy format, then the same tables, and a seal giving the matrix's
        # offset and shape tuple in place of its row count and dimension
        path = tmp_path / "vecs.txt"
        path.write_text(self.TEXT)
        parsed = load_embeddings(path)
        cache = tmp_path / "vecs.txt.paraplag-cache"
        good = cache.read_bytes()
        regions = _cache_regions(good)
        key = f"paraplag-embedding-cache 2 text sha256:{embeddings._digest(str(path))}"
        sizes_and_crc = good[regions["seal"][0]:].split(b" ")[-5:]
        with open(cache, "wb") as fh:
            np.save(fh, parsed.matrix)
            offset = fh.tell() - parsed.matrix.nbytes
            fh.write(bytes(-fh.tell() % 8))
            fh.write(good[regions["words-offsets"][0]:regions["seal"][0]])
            fh.write(f"{key} {offset} {parsed.matrix.shape} ".encode() + b" ".join(sizes_and_crc))
        store, did_parse = _load(path)
        assert did_parse and cache.read_bytes() == good
        assert_same_store(store, parsed, self.WORDS)

    @pytest.mark.parametrize("call, error", [("open", PermissionError), ("replace", OSError)])
    def test_failed_write_still_loads_and_leaves_no_file(self, tmp_path, call, error):
        path = tmp_path / "vecs.txt"
        path.write_text(self.TEXT)
        with mock.patch.object(embeddings.os, call, side_effect=error("no room")):
            store = load_embeddings(path)
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.txt"]
        np.testing.assert_array_equal(store.lookup_folded("APPLE"), [1.5, -0.25])
        assert_same_store(_load(path)[0], store, self.WORDS)

    def test_store_changed_while_loading_is_not_cached(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text(self.TEXT)
        parse = embeddings._load_text

        def parse_then_touch(p):
            store = parse(p)
            os.utime(path, ns=(0, os.stat(path).st_mtime_ns + 10**9))
            return store

        with mock.patch.object(embeddings, "_load_text", side_effect=parse_then_touch):
            load_embeddings(path)
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.txt"]

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_empty_store_round_trips(self, tmp_path, fmt):
        path = tmp_path / "vecs"
        path.write_bytes(b"0 3\n")
        parsed, _ = _load(path, fmt)
        cached, did_parse = _load(path, fmt)
        assert not did_parse and len(cached) == 0 and cached.matrix.shape == (0, 3)
        assert_same_store(cached, parsed, [])

    def test_an_empty_store_sealed_with_no_dimensions_is_a_miss(self, tmp_path):
        # no rows take no bytes at any dimension: only the check of the seal's
        # dimension refuses this one
        path = tmp_path / "vecs"
        path.write_bytes(b"0 3\n")
        load_embeddings(path)
        cache = tmp_path / "vecs.paraplag-cache"
        good = cache.read_bytes()
        cache.write_bytes(_seal_size("dim", lambda n: 0)(good))
        store, did_parse = _load(path)
        assert did_parse and store.dim == 3 and cache.read_bytes() == good

    @pytest.mark.parametrize("text, aliases", [
        # every word is its own normalized form
        ("2 2\napple 1 0\ncafe 0 1\n", []),
        # a form stored after another spelling of it is that spelling's alias;
        # one stored first needs none, however many spellings follow
        ("4 2\nApple 1 0\napple 0 1\ncafe 1 1\nCafé 0 0\n", ["apple"]),
        # a form stored nowhere is its first spelling's alias
        ("3 2\nCAFÉ 1 0\nCafé 0 1\nApple 1 1\n", ["cafe", "apple"]),
        # an alias of one CRC-32 with a stored word
        ("2 2\nPlumless 1 0\nbuckeroo 0 1\n", ["plumless"]),
    ])
    def test_the_form_table_holds_only_aliases(self, tmp_path, text, aliases):
        path = tmp_path / "vecs.txt"
        path.write_text(text)
        parsed, _ = _load(path)
        cached, did_parse = _load(path)
        assert not did_parse
        words = [line.split()[0] for line in text.splitlines()[1:]]
        for store in (parsed, cached):
            assert len(store.folded) == len(aliases)
            for alias in aliases:
                first = next(w for w in words if normalize(w) == alias)
                assert store.folded.get(alias) == store.row(alias.upper()) == words.index(first)
            for word in words:
                first = next(w for w in words if normalize(w) == normalize(word))
                assert store.row(word.upper()) == words.index(first)
        assert_same_store(cached, parsed, words)
        # after the key the seal gives the matrix's shape, then sizes both
        # tables, the form table's blob last, before the CRC-32
        seal = (tmp_path / "vecs.txt.paraplag-cache").read_bytes().rsplit(b"\n", 1)[1]
        assert seal.split(b" ")[-7:-1] == [b"%d" % len(words), b"2", b"%d" % len(words),
                                           b"%d" % len("".join(words).encode()),
                                           b"%d" % len(aliases), b"%d" % len("".join(aliases))]

    def test_binary_words_keep_every_line_break_but_newline(self, tmp_path):
        # each word is found at its own row, parsed and cached alike: a split of
        # the words on str.splitlines() would lose the first four
        words = ["a\x85b", "c\u2028d", "e\tf", "g\rh", "\r"]
        path = tmp_path / "vecs.bin"
        path.write_bytes(f"{len(words)} 2\n".encode("ascii") + b"".join(
            word.encode("utf-8") + b" " + np.array([row, -row], dtype="<f4").tobytes()
            for row, word in enumerate(words)
        ))
        parsed, _ = _load(path, "binary")
        cached, did_parse = _load(path, "binary")
        assert not did_parse and len(cached) == len(words)
        for store in (parsed, cached):
            assert [store.row(word) for word in words] == list(range(len(words)))
        assert_same_store(cached, parsed, words)

    def test_writer_racing_a_rival_leaves_one_complete_cache(self, tmp_path):
        # a second process (another pid) loads the cold store and renames its
        # cache into place between this process's write and its rename
        path = tmp_path / "vecs.txt"
        path.write_text(self.TEXT)
        replace = os.replace
        rival = {}

        def rival_then_replace(src, dst):
            if not rival:
                rival["pid"] = os.getpid() + 1
                with mock.patch.object(embeddings.os, "getpid", return_value=rival["pid"]):
                    rival["parsed"] = _load(path)[1]
            replace(src, dst)

        with mock.patch.object(embeddings.os, "replace", side_effect=rival_then_replace):
            parsed = load_embeddings(path)
        assert rival["parsed"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vecs.txt", "vecs.txt.paraplag-cache"]
        cached, did_parse = _load(path)
        assert not did_parse
        assert_same_store(cached, parsed, self.WORDS)

    def test_a_warm_load_builds_nothing_per_word(self, tmp_path):
        # 200k words, 4k of them cased spellings and 4k accented ones of
        # others; a warm load maps its tables, so its peak allocation is the
        # hash's two read blocks and a little more, whatever the word count
        # (a dict of the words alone would take over 20 MiB)
        count = 200_000
        words = [f"w{i}" for i in range(count)] + [
            f"{prefix}{i}" for prefix in ("W", "É", "é") for i in range(0, count, 50)]
        path = tmp_path / "vecs.bin"
        vectors = np.arange(len(words), dtype="<f4")
        path.write_bytes(f"{len(words)} 1\n".encode("ascii") + b"".join(
            word.encode("utf-8") + b" " + vectors[row:row + 1].tobytes()
            for row, word in enumerate(words)
        ))
        parsed, _ = _load(path, "binary")
        tracemalloc.start()
        try:
            warm, did_parse = _load(path, "binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not did_parse and len(warm) == len(words)
        assert peak < 2 * embeddings._READ_BLOCK + (1 << 20), peak
        # the parse against dicts of the rule: the word's row, else the row of
        # the first stored spelling of its normalized form
        rows = {word: row for row, word in enumerate(words)}
        first: dict[str, int] = {}
        for row, word in enumerate(words):
            first.setdefault(normalize(word), row)
        sample = random.Random(3).sample(words, 2000) + [f"w{i}" for i in range(count, count + 500)]
        for word in sample:
            assert parsed.row(word) == rows.get(word, first.get(normalize(word))), word
        assert_same_store(warm, parsed, sample)

    def test_pool_workers_racing_on_a_cold_cache(self, tmp_path):
        # 3,000 words, 150 cased spellings of them and 150 accented spellings
        # of no stored word, so that the workers pickle back 150 aliases too
        words = [f"w{i}" for i in range(3000)] + [
            f"{prefix}{i}" for prefix in ("W", "é") for i in range(0, 3000, 20)]
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((len(words), 16)).astype("<f4")
        path = tmp_path / "vecs.bin"
        path.write_bytes(f"{len(words)} 16\n".encode("ascii") + b"".join(
            f"{word} ".encode() + vec.tobytes() for word, vec in zip(words, matrix)
        ))
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=4, mp_context=spawn) as pool:
            futures = [pool.submit(load_embeddings, path, "binary") for _ in range(8)]
            stores = [future.result(timeout=120) for future in futures]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vecs.bin", "vecs.bin.paraplag-cache"]
        cached, did_parse = _load(path, "binary")
        assert not did_parse
        assert cached.matrix.tobytes() == matrix.tobytes() and len(cached.folded) == 150
        for store in stores:
            assert_same_store(store, cached, words)


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_identical_integer_vector_exactly_one(self):
        v = list(range(1, 14))
        assert cosine(v, v) == 1.0

    def test_word_position_example(self):
        base = list(range(1, 14))
        other = [13, 12, 1, 2, 3, 4, 5, 8, 7, 6, 9, 10, 11]
        expected = Fraction(671, 819)
        assert abs(cosine(base, other) - float(expected)) < 1e-9

    def test_scale_invariance(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 8)
            v1 = [rng.uniform(-5, 5) for _ in range(n)]
            v2 = [rng.uniform(-5, 5) for _ in range(n)]
            alpha = rng.uniform(0.01, 100.0)
            scaled = [alpha * x for x in v1]
            assert abs(cosine(v1, v2) - cosine(scaled, v2)) < 1e-9

    def test_zero_vector_convention(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n), min_size=2, max_size=2
            )
        )
    )
    def test_symmetric(self, vectors):
        u, v = vectors
        assert cosine(u, v) == cosine(v, u)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            cosine([1.0], [1.0, 2.0])

    def test_bounded(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(1, 6)
            v1 = [rng.uniform(-10, 10) for _ in range(n)]
            v2 = [rng.uniform(-10, 10) for _ in range(n)]
            c = cosine(v1, v2)
            assert -1.0 <= c <= 1.0
