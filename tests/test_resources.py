"""External resource stores: lexical database, IC tables, embeddings."""

from __future__ import annotations

import gc
import math
import random
import shutil
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
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
        assert store.hypernyms(DOG) == (CANINE,)
        assert store.hypernyms(ENTITY) == ()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingFile):
            load_lexdb(tmp_path / "nowhere")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(MissingFile):
            load_lexdb(tmp_path)

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

        # the middle one first, so the walk from the bottom meets its memo
        middle = depth // 2
        assert store.ancestors((90000000 + middle, "n")) == oracle(middle)
        assert store.ancestors((90000000, "n")) == oracle(0)
        assert store.ancestors((90000000 + depth - 1, "n")) == oracle(depth - 1)

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
        np.testing.assert_array_equal(store.lookup("apple"), [1, 0, 0])
        assert store.lookup("cherry") is None

    def test_component_count_enforced(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 3\napple 1 0\n")
        with pytest.raises(TruncatedVector) as exc:
            load_embeddings(path, "text")
        assert exc.value.word == "apple"

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

    def test_binary_round_trip(self, tmp_path):
        text_path = tmp_path / "vecs.txt"
        text_path.write_text("2 3\napple 1.5 -0.25 0.125\nbanana 0.1 0.2 0.3\n")
        store = load_embeddings(text_path, "text")
        bin_path = tmp_path / "vecs.bin"
        bin_path.write_bytes(
            b"2 3\n"
            + b"apple " + store.lookup("apple").astype("<f4").tobytes() + b"\n"
            + b"banana " + store.lookup("banana").astype("<f4").tobytes() + b"\n"
        )
        loaded = load_embeddings(bin_path, "binary")
        assert loaded.dim == store.dim and len(loaded) == len(store)
        for word in ("apple", "banana"):
            np.testing.assert_array_equal(loaded.lookup(word), store.lookup(word))

    def test_binary_truncated_vector(self, tmp_path):
        path = tmp_path / "vecs.bin"
        payload = b"2 3\napple " + np.arange(3, dtype="<f4").tobytes() + b"\nbanana " + b"\x00" * 7
        path.write_bytes(payload)
        with pytest.raises(TruncatedVector) as exc:
            load_embeddings(path, "binary")
        assert exc.value.word == "banana"

    @pytest.mark.parametrize("header", [b"1 1000000000000", b"100000000000000 3"])
    def test_binary_header_beyond_file_size_rejected(self, tmp_path, header):
        # checked before any read, so a corrupt header cannot size a huge buffer
        path = tmp_path / "vecs.bin"
        path.write_bytes(header + b"\napple " + b"\x00" * 12)
        with pytest.raises(HeaderMismatch, match="more data than the file holds"):
            load_embeddings(path, "binary")

    def test_case_folded_lookup_is_explicit(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 2\nParis 1 0\nlondon 0 1\n")
        store = load_embeddings(path, "text")
        assert store.lookup("paris") is None
        np.testing.assert_array_equal(store.lookup_folded("paris"), [1, 0])
        np.testing.assert_array_equal(store.lookup_folded("london"), [0, 1])

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("0 3\n")
        with pytest.raises(ValueError):
            load_embeddings(path, "parquet")


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
