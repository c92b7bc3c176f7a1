"""Per-source word tables, checked against the scalar cascade they replaced.

The scalar oracle's Resnik score is the sense-pair form: per noun or verb
sense pair, the IC of the lowest common subsumer chosen by IC, then by
depth, then by id; the maximum over sense pairs wins.  The scan oracle
reads a table's verdicts but matches as the cascade did before candidate
lists: each suspect word scans every remaining source word.
"""

from __future__ import annotations

import dataclasses
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paraplag import engine, semsim, textprep
from paraplag._porter import porter_stem
from paraplag.classify import score_source
from paraplag.config import EngineConfig
from paraplag.corpus import LabelledPair
from paraplag.engine import score_pairs
from paraplag.resources import (
    ICTable,
    KnowledgeStores,
    cosine,
    load_lexdb,
    resnik,
    synonyms,
)
from paraplag.semsim import (
    PairTables,
    SemThresholds,
    Vocabulary,
    WordMatch,
    match_sentence,
)
from paraplag.textprep import preprocess_passage

from embedding_oracle import embedding_store

FIXTURES = Path(__file__).parent / "fixtures"
LEXDB = load_lexdb(FIXTURES / "lexdb")


# ---------------------------------------------------------------------------
# Oracle: the cascade as one scalar pass per sentence pair, with no tables,
# and Resnik through a lowest common subsumer per sense pair.


def _oracle_depth(store, sid):
    hypernyms = store.synset(sid).hypernyms
    return 1 + max(_oracle_depth(store, h) for h in hypernyms) if hypernyms else 0


def oracle_lcs(store, c1, c2, ic):
    common = store.ancestors(c1) & store.ancestors(c2)
    if not common:
        return None
    scored = [(v, cid) for cid in common if (v := ic.get(cid)) is not None]
    if scored:
        return max(
            scored,
            key=lambda t: (t[0], _oracle_depth(store, t[1]), (-t[1][0], t[1][1])),
        )[1]
    return max(common, key=lambda cid: (_oracle_depth(store, cid), (-cid[0], cid[1])))


def oracle_resnik(store, ic, w1, w2):
    best = None
    for pos in ("n", "v"):
        for s1 in store.senses(w1, pos):
            for s2 in store.senses(w2, pos):
                subsumer = oracle_lcs(store, s1, s2, ic)
                if subsumer is None:
                    continue
                value = ic.get(subsumer)
                if value is None:
                    continue
                if best is None or value > best:
                    best = value
    return best


def _oracle_db_form(lexdb, token):
    if lexdb.synsets_of(token.normalized):
        return token.normalized
    return token.stem


def _oracle_expand(lexdb, token):
    if lexdb is None:
        return set()
    return synonyms(lexdb, _oracle_db_form(lexdb, token))


def oracle_match_word(query, source_remaining, stores, th):
    for tok in source_remaining:
        if tok.stem == query.stem or tok.normalized == query.normalized:
            return WordMatch(query.index, tok.index, "exact", 1.0)

    syns = _oracle_expand(stores.lexdb, query)
    if syns:
        stemmed = {porter_stem(s) for s in syns}
        for tok in source_remaining:
            if tok.normalized in syns or tok.stem in stemmed:
                return WordMatch(query.index, tok.index, "synonym", 1.0)

    emb = stores.embeddings
    if emb is not None:
        query_words = sorted(syns) if syns else [query.normalized]
        query_vecs = [vec for w in query_words if (vec := emb.lookup_folded(w)) is not None]
        if query_vecs:
            best_tok, best_score = None, 0.0
            for tok in source_remaining:
                svec = emb.lookup_folded(tok.normalized)
                if svec is None:
                    continue
                score = max(cosine(qvec, svec) for qvec in query_vecs)
                if score >= th.embed_min and (best_tok is None or score > best_score):
                    best_tok, best_score = tok, score
            if best_tok is not None:
                return WordMatch(query.index, best_tok.index, "embedding", best_score)

    if stores.lexdb is not None and stores.ic is not None:
        qform = _oracle_db_form(stores.lexdb, query)
        best_tok, best_ic = None, 0.0
        for tok in source_remaining:
            value = oracle_resnik(
                stores.lexdb, stores.ic, qform, _oracle_db_form(stores.lexdb, tok)
            )
            if value is None or value < th.resnik_min:
                continue
            if best_tok is None or value > best_ic:
                best_tok, best_ic = tok, value
        if best_tok is not None:
            return WordMatch(query.index, best_tok.index, "resnik", best_ic)
    return None


def oracle_match_sentence(sp, sr, stores, th):
    remaining = list(sr.content_tokens)
    matches = []
    for query in sp.content_tokens:
        found = oracle_match_word(query, remaining, stores, th)
        if found is not None:
            matches.append(found)
            remaining = [t for t in remaining if t.index != found.source_index]
    return matches


def scan_match_word(query, source_remaining, tables):
    """The source word with the smallest verdict: earliest channel, highest score, first."""
    verdict = tables._judge(query)
    best_tok, best = None, (len(semsim.CHANNELS), 0.0)
    for tok in source_remaining:
        judged = verdict.get(tok.normalized)
        if judged is not None and judged < best:
            best_tok, best = tok, judged
    if best_tok is None:
        return None
    return WordMatch(query.index, best_tok.index, semsim.CHANNELS[best[0]], -best[1])


def scan_match_sentence(sp, sr, tables):
    remaining = list(sr.content_tokens)
    matches = []
    for query in sp.content_tokens:
        found = scan_match_word(query, remaining, tables)
        if found is not None:
            matches.append(found)
            remaining = [t for t in remaining if t.index != found.source_index]
    return matches


# ---------------------------------------------------------------------------
# Random stores and sentences over the fixture lexdb

# headwords, inflections that fall back to their stem, and words no store knows
VOCAB = (
    "cat cats dog dogs car cars auto automobile machine motorcar canine feline "
    "animal entity vehicle caterpillar run running walk walked move moves go "
    "displace happy glad cheerful content zzqx quartz violin"
).split()
LEMMAS = "canid canis_familiaris domestic_dog felid true_cat animate_being".split()
SYNSETS = [
    (1740, "n"), (15388, "n"), (4524313, "n"), (2083346, "n"), (2084071, "n"),
    (2120997, "n"), (2121620, "n"), (2958343, "n"), (2970849, "n"),
    (1835496, "v"), (1904930, "v"), (1926311, "v"), (1000, "a"),
]
DIM = 4


@st.composite
def vectors(draw):
    """Word vectors with OOV words, zero vectors and case-folded aliases.

    Small integer vectors give exact ties and exact 1.0 cosines under any
    summation order; generic float vectors come from a seeded generator, so
    they tie with nothing.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = {}
    for word in VOCAB + LEMMAS:
        kind = draw(st.sampled_from(["absent", "zero", "int", "float"]))
        if kind == "absent":
            continue
        if kind == "zero":
            vec = np.zeros(DIM)
        elif kind == "int":
            vec = np.array(draw(st.lists(st.integers(-2, 2), min_size=DIM, max_size=DIM)))
        else:
            vec = rng.standard_normal(DIM)
        casing = draw(st.sampled_from(["lower", "title", "both"]))
        if casing != "lower":
            out[word.title()] = vec.astype(np.float32)
        if casing == "lower":
            out[word] = vec.astype(np.float32)
        elif casing == "both":
            out[word] = rng.standard_normal(DIM).astype(np.float32)
    return embedding_store(out, DIM)


def sentence_text(draw):
    return " ".join(draw(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8))) + "."


@st.composite
def ic_tables(draw):
    """IC tables over some of the fixture synsets, with exact ties."""
    values = st.one_of(st.none(), st.sampled_from([0.0, 1.5, 3.0, 4.5]), st.floats(0.0, 6.0))
    return ICTable({sid: v for sid in SYNSETS if (v := draw(values)) is not None})


@st.composite
def stores_and_thresholds(draw):
    present = st.sampled_from([True, True, True, False])
    stores = KnowledgeStores(
        lexdb=LEXDB if draw(present) else None,
        ic=draw(ic_tables()) if draw(present) else None,
        embeddings=draw(vectors()) if draw(present) else None,
    )
    th = SemThresholds(
        embed_min=draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))),
        resnik_min=draw(st.one_of(st.sampled_from([0.0, 1.5, 3.0]), st.floats(0.0, 6.0))),
    )
    return stores, th


@st.composite
def cases(draw):
    stores, th = draw(stores_and_thresholds())
    [sp] = preprocess_passage(sentence_text(draw))
    sources = [
        dataclasses.replace(preprocess_passage(sentence_text(draw))[0], sentence_id=i)
        for i in range(draw(st.integers(1, 3)))
    ]
    return stores, th, sp, sources


# one part of speech drawn first, so that pairs within a group come up often
RESNIK_WORDS = st.sampled_from([
    ["cat", "dog", "car", "canine", "feline", "animal", "entity", "vehicle", "caterpillar"]
    + LEMMAS,
    ["run", "walk", "move", "go", "displace"],
    ["happy", "glad", "cheerful", "content"],
    ["cats", "running", "zzqx", "quartz", "violin"],
]).flatmap(st.sampled_from)


@given(RESNIK_WORDS, RESNIK_WORDS, ic_tables())
def test_resnik_agrees_with_the_sense_pair_oracle(w1, w2, ic):
    assert resnik(LEXDB, ic, w1, w2) == oracle_resnik(LEXDB, ic, w1, w2)


def test_cross_pos_hypernym_shares_no_subsumer(tmp_path):
    # the verb "act" has the noun "action" as its hypernym
    (tmp_path / "data.noun").write_text(
        "00000100 03 n 01 thing 0 000 | a thing\n"
        "00000200 03 n 01 action 0 001 @ 00000100 n 0000 | an act\n"
    )
    (tmp_path / "index.noun").write_text(
        "action n 1 1 @ 1 0 00000200\nthing n 1 0 1 0 00000100\n"
    )
    (tmp_path / "data.verb").write_text(
        "00000300 41 v 01 act 0 001 @ 00000200 n 0000 01 + 02 00 | do something\n"
    )
    (tmp_path / "index.verb").write_text("act v 1 1 @ 1 0 00000300\n")
    lexdb = load_lexdb(tmp_path)
    ic = ICTable({(100, "n"): 1.0, (200, "n"): 2.0})
    for w1, w2 in (("act", "action"), ("action", "act"), ("act", "thing")):
        assert oracle_resnik(lexdb, ic, w1, w2) is None
        assert resnik(lexdb, ic, w1, w2) is None
    assert oracle_resnik(lexdb, ic, "act", "act") == resnik(lexdb, ic, "act", "act") == 2.0
    assert resnik(lexdb, ic, "action", "thing") == 1.0


def _key(matches):
    return [(m.query_index, m.source_index, m.channel) for m in matches]


@given(cases())
def test_tables_agree_with_the_scalar_cascade(case):
    stores, th, sp, sources = case
    shared = PairTables(sources, Vocabulary(stores), th)
    for sr in sources:
        expected = oracle_match_sentence(sp, sr, stores, th)
        got = match_sentence(sp, sr, stores, th, shared)
        assert got == scan_match_sentence(sp, sr, shared)
        # a pair's score depends only on its two words, not on the table's other words
        assert got == match_sentence(sp, sr, stores, th)
        assert _key(got) == _key(expected)
        for g, e in zip(got, expected):
            if e.channel in ("exact", "synonym"):
                assert g.score == 1.0
            else:
                assert abs(g.score - e.score) <= 1e-12


@given(cases())
def test_candidates_hold_exactly_the_sentences_a_word_matches_in(case):
    stores, th, sp, sources = case
    tables = PairTables(sources, Vocabulary(stores), th)
    for query in sp.content_tokens:
        candidates = tables.candidates(query)
        for sr in sources:
            found = scan_match_word(query, sr.content_tokens, tables)
            assert (sr.sentence_id in candidates) == (found is not None)
            assert (found is not None) == (
                oracle_match_word(query, sr.content_tokens, stores, th) is not None
            )
            if found is not None:
                # the first candidate is the one the scan picks in a fresh sentence
                index, channel, score = candidates[sr.sentence_id][0]
                assert found == WordMatch(query.index, index, channel, score)


def passage_text(draw):
    return " ".join(sentence_text(draw) for _ in range(draw(st.integers(1, 3))))


@given(st.builds(KnowledgeStores, st.just(LEXDB), ic_tables(), vectors()), st.data())
def test_suspect_order_moves_no_score(stores, data):
    # the words a passage judges first depend on the passages before it
    source, a, b = (passage_text(data.draw) for _ in range(3))
    alone = [next(score_source(source, [suspect], Vocabulary(stores))) for suspect in (a, b)]
    assert list(score_source(source, [a, b], Vocabulary(stores))) == alone
    assert list(score_source(source, [b, a], Vocabulary(stores))) == alone[::-1]


# ---------------------------------------------------------------------------
# The embedding kernel: a pair's score depends only on its two words

STORE_WORDS = [f"v{i}" for i in range(24)]


class _FixedRows(Vocabulary):
    """A vocabulary whose query words have given embedding rows and no synonyms."""

    def __init__(self, stores, rows_of):
        super().__init__(stores)
        self.rows_of = rows_of

    def word(self, normalized):
        return semsim.WordFacts((), self.rows_of[normalized])


def _sentence(words):
    tokens = tuple(textprep.Token(i, w, w, w) for i, w in enumerate(words))
    return textprep.ProcessedSentence(0, " ".join(words), tokens, tokens)


def _embedding_scores(store, rows_of, source, passage, query):
    """Source word -> the query's best cosine, with the table judging `passage` at once."""
    vocab = _FixedRows(KnowledgeStores(embeddings=store), rows_of)
    tables = PairTables([_sentence(source)], vocab, SemThresholds(embed_min=0.0))
    tables.embed(_sentence(passage).content_tokens)
    return dict(tables._embedded[query])


@st.composite
def embedding_contexts(draw):
    """A store of non-negative vectors, so every cosine clears embed_min 0.0, and words around.

    The query "q" has rows of its own and more synonym rows; the source has
    more words in any order; the passage has other query words.
    """
    dim = draw(st.sampled_from([1, 3, 4, 7, 8, 16, 50, 64, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero = draw(st.sets(st.sampled_from(STORE_WORDS), max_size=3))
    store = embedding_store(
        {w: np.zeros(dim) if w in zero else np.abs(rng.standard_normal(dim)) for w in STORE_WORDS},
        dim,
    )
    row_lists = st.lists(st.integers(0, len(STORE_WORDS) - 1), min_size=1, max_size=6)
    others = draw(st.lists(row_lists.map(tuple), max_size=30))
    rows_of = {f"o{i}": rows for i, rows in enumerate(others)}
    rows_of["q"], rows_of["q+"] = tuple(draw(row_lists)), tuple(draw(row_lists))
    source = draw(st.lists(st.sampled_from(STORE_WORDS), min_size=1, max_size=8, unique=True))
    more = draw(st.permutations(
        source + [w for w in STORE_WORDS if w not in source and draw(st.booleans())]
    ))
    passage = draw(st.permutations(["q"] + [f"o{i}" for i in range(len(others))]))
    return store, rows_of, source, more, passage


@given(embedding_contexts(), st.integers(1, 64))
def test_an_embedding_score_depends_only_on_its_two_words(context, budget):
    store, rows_of, source, more, passage = context
    scores = _embedding_scores(store, rows_of, source, ["q"], "q")
    assert list(scores) == source
    for word, score in scores.items():
        expected = max(cosine(store.matrix[row], store.lookup_folded(word)) for row in rows_of["q"])
        assert abs(score - expected) <= 1e-12
    # more source words, in another order
    wider = _embedding_scores(store, rows_of, more, ["q"], "q")
    assert {w: wider[w] for w in source} == scores
    # more words in the same suspect passage, stacked in blocks of any size
    with mock.patch.object(semsim, "_BLOCK_ELEMENTS", budget):
        assert _embedding_scores(store, rows_of, source, passage, "q") == scores
    # more synonyms: each score is the better of the two sets' scores
    synonyms_only = _embedding_scores(store, rows_of, source, ["q+"], "q+")
    rows_of = {**rows_of, "q+": rows_of["q"] + rows_of["q+"]}
    assert _embedding_scores(store, rows_of, source, ["q+"], "q+") == {
        w: max(scores[w], synonyms_only[w]) for w in source
    }


def test_the_embedding_pass_does_no_numpy_work_without_rows(monkeypatch):
    blocks = []
    monkeypatch.setattr(PairTables, "_embed_block", lambda self, *args: blocks.append(args))
    source, [suspect] = "Machines run. A dog slept.", preprocess_passage("The cat hid.")
    store = embedding_store({"machine": np.ones(DIM, np.float32)}, DIM)
    for stores in (KnowledgeStores(lexdb=LEXDB), KnowledgeStores(embeddings=store)):
        vocab = Vocabulary(stores)
        tables = PairTables(preprocess_passage(source, forms=vocab.forms), vocab, SemThresholds())
        tables.embed(suspect.content_tokens)
        assert "_source_vectors" not in vars(tables)
    assert blocks == []


def test_source_sentence_ids_must_increase():
    a, b = preprocess_passage("Dogs ran. Cats hid.")
    with pytest.raises(ValueError, match="increase"):
        PairTables([a, dataclasses.replace(b, sentence_id=0)], Vocabulary(KnowledgeStores()),
                   SemThresholds())


def _count_calls(monkeypatch, name, module=semsim):
    """Counter of the word each call of `<module>.<name>` asks about."""
    calls = Counter()
    original = getattr(module, name)

    def counted(*args):
        calls[args[-1]] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _headwords(texts):
    """The lexdb headword of each distinct content word (normalized form) of the texts."""
    words = {
        t.normalized: t for text in texts for s in preprocess_passage(text) for t in s.content_tokens
    }
    return Counter(_oracle_db_form(LEXDB, t) for t in words.values())


def _surfaces(texts):
    return Counter(
        {t.surface for text in texts for s in preprocess_passage(text) for t in s.all_tokens}
    )


def _counting_stores():
    return KnowledgeStores(
        lexdb=LEXDB, ic=ICTable({(15388, "n"): 3.5}),
        embeddings=embedding_store({"machine": np.ones(DIM, np.float32)}, DIM),
    )


def _channels(score):
    return {m.channel for best in score.best_semantic for m in best.matches}


def test_each_suspect_word_is_expanded_once_per_pair(monkeypatch):
    calls = _count_calls(monkeypatch, "synonyms")
    ics_calls = _count_calls(monkeypatch, "subsumer_ics")
    suspect = "The car chased a cat. A dog and the car slept."
    source = "An automobile passed. The canine barked loudly. A feline hid. Machines run."
    score = next(score_source(source, [suspect], Vocabulary(_counting_stores())))
    assert "synonym" in _channels(score)
    # every suspect word is judged; source words are asked about subsumers only
    assert calls == _headwords([suspect])
    assert ics_calls == _headwords([suspect, source])
    assert max(calls.values()) == max(ics_calls.values()) == 1


def test_each_suspect_word_is_expanded_once_per_source(monkeypatch):
    calls = _count_calls(monkeypatch, "synonyms")
    ics_calls = _count_calls(monkeypatch, "subsumer_ics")
    source = "An automobile passed. The canine barked loudly. A feline hid. Machines run."
    suspects = [
        "The car chased a cat. A dog and the car slept.",
        "A dog chased the car.",
        "The car slept. The cat hid.",
    ]
    pairs = [
        LabelledPair(f"p{i}", suspect, source, "paraphrased", "synthetic", "")
        for i, suspect in enumerate(suspects)
    ]
    scores = score_pairs(pairs, EngineConfig(), stores=_counting_stores())
    assert all("synonym" in _channels(score) for score in scores)
    assert calls == _headwords(suspects)
    # "hid" is on both sides, and asked about once
    assert ics_calls == _headwords(suspects + [source])
    assert max(calls.values()) == max(ics_calls.values()) == 1


# Crowd-shaped: every pair has its own source, and the pairs share words, on
# both sides and in more than one casing.
CROWD = [
    ("The car chased a cat.", "An automobile chased the feline. Machines run."),
    ("A dog chased the Car.", "The canine barked at an automobile."),
    ("The cat hid. A dog slept.", "A feline hid from the dog."),
    ("Machines run. The dog barked.", "The cat slept. Car machines run."),
]


def _crowd_pairs():
    return [
        LabelledPair(f"p{i}", suspect, source, "paraphrased", "synthetic", "")
        for i, (suspect, source) in enumerate(CROWD)
    ]


def test_each_word_is_looked_up_once_per_run_across_sources(monkeypatch):
    calls = _count_calls(monkeypatch, "synonyms")
    ics_calls = _count_calls(monkeypatch, "subsumer_ics")
    normalized = _count_calls(monkeypatch, "normalize", textprep)
    stores = _counting_stores()
    scores = score_pairs(_crowd_pairs(), EngineConfig(), stores=stores)
    # taken before the expectations below preprocess the texts again
    calls, ics_calls, normalized = map(Counter, (calls, ics_calls, normalized))
    suspects = [suspect for suspect, _ in CROWD]
    texts = [text for pair in CROWD for text in pair]
    assert {"exact", "synonym", "resnik"} <= set().union(*map(_channels, scores))
    assert normalized == _surfaces(texts)
    assert calls == _headwords(suspects)
    assert ics_calls == _headwords(texts)
    assert max(normalized.values()) == max(calls.values()) == max(ics_calls.values()) == 1
    # the same scores as each pair on its own, with a vocabulary of its own
    assert scores == [
        next(score_source(source, [suspect], Vocabulary(stores))) for suspect, source in CROWD
    ]


def test_each_run_looks_words_up_afresh_and_drops_its_vocabulary(monkeypatch):
    refs = []

    class Tracked(semsim.Vocabulary):
        def __init__(self, stores):
            super().__init__(stores)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(engine, "Vocabulary", Tracked)
    counters = [
        _count_calls(monkeypatch, "synonyms"),
        _count_calls(monkeypatch, "subsumer_ics"),
        _count_calls(monkeypatch, "normalize", textprep),
    ]
    stores = _counting_stores()
    first = score_pairs(_crowd_pairs(), EngineConfig(), stores=stores)
    once = [Counter(counter) for counter in counters]
    assert len(refs) == 1 and refs[0]() is None
    assert score_pairs(_crowd_pairs(), EngineConfig(), stores=stores) == first
    assert counters == [counter + counter for counter in once]
    assert len(refs) == 2 and refs[1]() is None
