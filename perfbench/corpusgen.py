"""Seeded synthetic inputs for the evaluate benchmark.

Everything the benchmark feeds to paraplag is made here from one seed:
both corpus shapes as JSON lines, a noun taxonomy in the
``data.noun``/``index.noun`` layout, a matching ``wnver`` information-content
file, and clustered word vectors in the text and binary formats.  Only the
standard library and numpy are used, so the inputs never depend on the code
under test.

The lexicon is shaped so that each semantic channel has its own kind of
word substitution:

  synonym    another lemma of the word's synset
  embedding  a lemma of a sibling synset whose vectors sit in the family's
             cluster (cosine about 0.8, above the 0.6 default ``embed_min``)
  resnik     a lemma of a sibling synset with unrelated vectors, or with no
             vector at all; a family node's information content clears the
             3.0 default ``resnik_min``, a group node's does not

Synthetic words are consonant-vowel syllables ending in a consonant that no
Porter rule strips, so every word is its own stem and no two words collide.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Function words from paraplag's built-in stopword list.  They fill the
# sentences so that word order (which counts every token) sees them.
STOPWORDS = ("the", "of", "and", "a", "to", "in", "was", "for", "with", "that",
             "by", "on", "as", "from", "at", "this", "is", "into")

_ONSETS = "bdgkmnprtvz"
_VOWELS = "aiou"
_CODAS = "bdgkmptvz"

GROUPS = 12
FAMILIES_PER_GROUP = 10
SYNSETS_PER_FAMILY = 4
FILLER_WORDS = 400          # content words with no synset
TOPIC_FILLER = 150          # filler words one topic draws from
FILLER_SHARE = 0.25         # share of a topic's words that are filler
STOPWORD_SHARE = 0.45       # chance of a function word before each content word
EMB_OOV_SHARE = 0.15        # taxonomy words left without a vector
FILLER_OOV_SHARE = 0.30     # filler words left without a vector

# Vector shape: word = family + CLUSTER_SPREAD * synset + WORD_SPREAD * noise
# for clustered synsets, synset + WORD_SPREAD * noise otherwise.
CLUSTER_SPREAD = 0.4
WORD_SPREAD = 0.3

PARAPHRASED = "paraphrased"
NOT_PARAPHRASED = "not_paraphrased"

# Per content word: probabilities of keep, synonym, embedding neighbour,
# taxonomy neighbour, unrelated word, drop.  The rest of the mass keeps.
# A heavy revision sits at some level between "heavy" and "extreme", and a
# non-paraphrase takes some share of its content words from its source,
# between the NON_BORROW bounds, the way an answer written on the same task
# reuses its key terms.  The two ranges overlap a little, so the
# classifiers cannot be perfect.  Levels are spread evenly over each
# category's pairs rather than drawn at random, which keeps the share of
# hard pairs, and so F1, nearly the same from seed to seed.
_EDITS = {
    "light": np.array([0.50, 0.20, 0.09, 0.07, 0.08, 0.06]),
    "heavy": np.array([0.15, 0.15, 0.15, 0.12, 0.25, 0.18]),
    "extreme": np.array([0.06, 0.10, 0.12, 0.10, 0.37, 0.25]),
}
NON_BORROW = (0.3, 0.75)


@dataclass
class Lexicon:
    words: list[str]                 # taxonomy lemmas, then filler words
    synset_of: dict[str, int]        # lemma -> synset index (taxonomy words only)
    synsets: list[list[str]]         # lemmas per synset
    family_of: list[int]             # synset -> family
    clustered: list[bool]            # synset vectors share the family cluster
    families: list[list[int]]        # family -> synsets
    group_of: list[int]              # family -> group
    filler: list[str]
    no_vector: set[str]


def _unique_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        ) + _CODAS[rng.integers(len(_CODAS))]
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def make_lexicon(rng: np.random.Generator) -> Lexicon:
    taken: set[str] = set()
    synsets: list[list[str]] = []
    family_of: list[int] = []
    clustered: list[bool] = []
    families: list[list[int]] = []
    group_of: list[int] = []
    for group in range(GROUPS):
        for _ in range(FAMILIES_PER_GROUP):
            family = len(families)
            members = []
            for slot in range(SYNSETS_PER_FAMILY):
                members.append(len(synsets))
                synsets.append(_unique_words(rng, int(rng.integers(2, 4)), taken))
                family_of.append(family)
                clustered.append(slot < SYNSETS_PER_FAMILY // 2)
            families.append(members)
            group_of.append(group)
    lemmas = [w for s in synsets for w in s]
    filler = _unique_words(rng, FILLER_WORDS, taken)
    no_vector = {w for w in lemmas if rng.random() < EMB_OOV_SHARE}
    no_vector |= {w for w in filler if rng.random() < FILLER_OOV_SHARE}
    return Lexicon(
        words=lemmas + filler,
        synset_of={w: i for i, s in enumerate(synsets) for w in s},
        synsets=synsets,
        family_of=family_of,
        clustered=clustered,
        families=families,
        group_of=group_of,
        filler=filler,
        no_vector=no_vector,
    )


# ---------------------------------------------------------------------------
# Resources on disk


def write_lexdb(lex: Lexicon, rng: np.random.Generator, directory: str, ic_path: str) -> None:
    """Taxonomy entity > group > family > synset, nouns only, and its counts."""
    os.makedirs(directory, exist_ok=True)
    root = 1000
    group_ids = [2000 + g for g in range(GROUPS)]
    family_ids = [10000 + f for f in range(len(lex.families))]
    synset_ids = [100000 + s for s in range(len(lex.synsets))]
    nodes = [(root, ["entity"], None)]
    nodes += [(gid, [f"group_{g}"], root) for g, gid in enumerate(group_ids)]
    nodes += [
        (fid, [f"family_{f}"], group_ids[lex.group_of[f]]) for f, fid in enumerate(family_ids)
    ]
    nodes += [
        (sid, lex.synsets[s], family_ids[lex.family_of[s]]) for s, sid in enumerate(synset_ids)
    ]
    senses: dict[str, list[int]] = {}
    with open(os.path.join(directory, "data.noun"), "w", encoding="utf-8") as fh:
        fh.write("  1 synthetic taxonomy for the paraplag benchmark\n")
        for offset, lemmas, parent in nodes:
            words = " ".join(f"{w} 0" for w in lemmas)
            pointer = f"001 @ {parent:08d} n 0000" if parent is not None else "000"
            fh.write(f"{offset:08d} 03 n {len(lemmas):02x} {words} {pointer} | synthetic\n")
            for w in lemmas:
                senses.setdefault(w, []).append(offset)
    with open(os.path.join(directory, "index.noun"), "w", encoding="utf-8") as fh:
        for lemma in sorted(senses):
            offsets = senses[lemma]
            refs = " ".join(f"{o:08d}" for o in offsets)
            fh.write(f"{lemma} n {len(offsets)} 1 @ {len(offsets)} 0 {refs}\n")
    write_ic(lex, rng, ic_path, root, group_ids, family_ids, synset_ids)


def write_ic(lex, rng, path, root, group_ids, family_ids, synset_ids) -> None:
    """Counts that propagate up the taxonomy, the root flagged ROOT."""
    synset_counts = rng.integers(5, 60, size=len(synset_ids))
    family_counts = np.zeros(len(family_ids), dtype=np.int64)
    for s, count in enumerate(synset_counts):
        family_counts[lex.family_of[s]] += count
    family_counts += rng.integers(0, 5, size=len(family_ids))
    group_counts = np.zeros(len(group_ids), dtype=np.int64)
    for f, count in enumerate(family_counts):
        group_counts[lex.group_of[f]] += count
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("wnver::synthetic\n")
        fh.write(f"{root}n {int(group_counts.sum())} ROOT\n")
        for ids, counts in ((group_ids, group_counts), (family_ids, family_counts),
                            (synset_ids, synset_counts)):
            for offset, count in zip(ids, counts):
                fh.write(f"{offset}n {int(count)}\n")


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def word_vectors(lex: Lexicon, rng: np.random.Generator, dim: int, total: int):
    """(words, float32 matrix): corpus words with vectors, then unused padding."""
    family_centre = [_unit(rng, dim) for _ in lex.families]
    synset_centre = []
    for s in range(len(lex.synsets)):
        own = _unit(rng, dim)
        if lex.clustered[s]:
            own = family_centre[lex.family_of[s]] + CLUSTER_SPREAD * own
        synset_centre.append(own)
    words, rows = [], []
    for w in lex.words:
        if w in lex.no_vector:
            continue
        s = lex.synset_of.get(w)
        base = synset_centre[s] if s is not None else _unit(rng, dim)
        words.append(w)
        rows.append(base + WORD_SPREAD * _unit(rng, dim))
    padding = max(0, total - len(words))
    words += [f"pad{i}x" for i in range(padding)]
    matrix = np.vstack([np.asarray(rows), rng.standard_normal((padding, dim))])
    return words, matrix.astype(np.float32)


def write_embeddings(words, matrix: np.ndarray, path: str, fmt: str) -> None:
    count, dim = matrix.shape
    if fmt == "text":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{count} {dim}\n")
            for word, row in zip(words, matrix):
                fh.write(word + " " + " ".join(f"{x:.6f}" for x in row.tolist()) + "\n")
    else:
        with open(path, "wb") as fh:
            fh.write(f"{count} {dim}\n".encode("ascii"))
            for word, row in zip(words, matrix):
                fh.write(word.encode("ascii") + b" " + row.astype("<f4").tobytes() + b"\n")


# ---------------------------------------------------------------------------
# Sentences and paraphrases
#
# A sentence is a list of (word, is_content) tokens; rendering capitalises
# the first word and ends it with a period.


def _topic(lex: Lexicon, rng: np.random.Generator, groups: int) -> tuple[list[int], list[str]]:
    chosen = rng.choice(GROUPS, size=groups, replace=False)
    fams = [f for f in range(len(lex.families)) if lex.group_of[f] in set(chosen.tolist())]
    filler = [lex.filler[i] for i in rng.choice(len(lex.filler), size=TOPIC_FILLER, replace=False)]
    return fams, filler


def _topic_word(lex, rng, topic) -> str:
    fams, filler = topic
    if rng.random() < FILLER_SHARE:
        return filler[rng.integers(len(filler))]
    fam = fams[rng.integers(len(fams))]
    synset = lex.families[fam][rng.integers(SYNSETS_PER_FAMILY)]
    lemmas = lex.synsets[synset]
    return lemmas[rng.integers(len(lemmas))]


def make_sentence(lex, rng, topic, content: int, borrow=(), share=0.0) -> list[tuple[str, bool]]:
    """Fresh sentence on the topic; ``share`` of its words come from ``borrow``."""
    tokens: list[tuple[str, bool]] = []
    for _ in range(content):
        if rng.random() < STOPWORD_SHARE:
            tokens.append((STOPWORDS[rng.integers(len(STOPWORDS))], False))
        if borrow and rng.random() < share:
            word = borrow[rng.integers(len(borrow))]
        else:
            word = _topic_word(lex, rng, topic)
        tokens.append((word, True))
    return tokens


def _content(sentences) -> list[str]:
    return [w for s in sentences for w, is_content in s if is_content]


def _neighbour(lex, rng, word: str, embedding: bool) -> str | None:
    """A lemma of a sibling synset: clustered vectors on both sides or not."""
    s = lex.synset_of.get(word)
    if s is None:
        return None
    siblings = [
        t for t in lex.families[lex.family_of[s]]
        if t != s and (lex.clustered[s] and lex.clustered[t]) == embedding
    ]
    if not siblings:
        return None
    lemmas = lex.synsets[siblings[rng.integers(len(siblings))]]
    return lemmas[rng.integers(len(lemmas))]


def plan(rng, mix: dict[str, int], sentences: tuple[int, ...]) -> list[tuple[str, float, int]]:
    """(category, level, sentence count) per pair, in random order.

    Levels are spread evenly over (0, 1) within each category, and sentence
    counts cycle through ``sentences``, so the corpus's cost and difficulty
    barely change from seed to seed.
    """
    rows = [(c, (k + 0.5) / n) for c, n in mix.items() for k in range(n)]
    counts = [sentences[i % len(sentences)] for i in rng.permutation(len(rows))]
    return [rows[i] + (counts[j],) for j, i in enumerate(rng.permutation(len(rows)))]


def edit_profile(category: str, level: float) -> np.ndarray:
    if category == "light":
        return _EDITS["light"]
    return (1 - level) * _EDITS["heavy"] + level * _EDITS["extreme"]


def borrow_share(level: float) -> float:
    low, high = NON_BORROW
    return low + level * (high - low)


def paraphrase(lex, rng, topic, sentence, category: str, profile) -> list[tuple[str, bool]]:
    """The sentence rewritten word by word under ``profile``, then reordered."""
    keep, syn, emb, res, other, drop = np.cumsum(profile)
    out: list[tuple[str, bool]] = []
    for word, is_content in sentence:
        if not is_content:
            if rng.random() < (0.1 if category == "light" else 0.3):
                continue
            out.append((word, False))
            continue
        r = rng.random()
        new = word
        if keep <= r < syn:
            others = [w for w in lex.synsets[lex.synset_of[word]] if w != word] \
                if word in lex.synset_of else []
            if others:
                new = others[rng.integers(len(others))]
        elif syn <= r < emb:
            new = _neighbour(lex, rng, word, True) or word
        elif emb <= r < res:
            new = _neighbour(lex, rng, word, False) or word
        elif res <= r < other:
            new = _topic_word(lex, rng, topic)
        elif other <= r < drop:
            continue
        out.append((new, True))
    if not any(c for _, c in out):
        out.append((_topic_word(lex, rng, topic), True))
    if category == "heavy" and rng.random() < 0.6 and len(out) > 3:
        cut = int(rng.integers(1, len(out) - 1))
        out = out[cut:] + out[:cut]
    elif rng.random() < 0.3 and len(out) > 2:
        i = int(rng.integers(len(out) - 1))
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def render(sentences) -> str:
    texts = []
    for sentence in sentences:
        words = [w for w, _ in sentence]
        words[0] = words[0][0].upper() + words[0][1:]
        texts.append(" ".join(words) + ".")
    return " ".join(texts)


def _pair(pair_id, suspect, source, category, origin) -> dict:
    label = PARAPHRASED if category in ("light", "heavy") else NOT_PARAPHRASED
    return {
        "pair_id": pair_id,
        "suspect_text": render(suspect),
        "source_text": render(source),
        "label": label,
        "origin": origin,
        "raw_category": category,
    }


# ---------------------------------------------------------------------------
# Corpus shapes

# Short-answer shape: every task has one source passage and this many
# answers of each category; "cut" answers copy a run of source sentences.
ANSWER_TASKS = 5
ANSWER_MIX = {"cut": 5, "light": 8, "heavy": 8, "non": 9}
SOURCE_SENTENCES = 10


def answers_pairs(lex, rng) -> list[dict]:
    pairs = []
    for task in range(ANSWER_TASKS):
        topic = _topic(lex, rng, 3)
        # 8 to 10 content words per sentence, in equal shares
        source = [make_sentence(lex, rng, topic, 8 + int(i) % 3)
                  for i in rng.permutation(SOURCE_SENTENCES)]
        for n, (category, level, k) in enumerate(plan(rng, ANSWER_MIX, (3, 4, 5, 6))):
            if category == "cut":
                start = int(rng.integers(0, SOURCE_SENTENCES - k + 1))
                suspect = source[start:start + k]
            elif category == "non":
                suspect = [make_sentence(lex, rng, topic, int(rng.integers(8, 11)),
                                         _content([source[rng.integers(SOURCE_SENTENCES)]]),
                                         borrow_share(level))
                           for _ in range(k)]
            else:
                picked = sorted(rng.choice(SOURCE_SENTENCES, size=k, replace=False).tolist())
                profile = edit_profile(category, level)
                suspect = [paraphrase(lex, rng, topic, source[i], category, profile)
                           for i in picked]
                if category == "heavy":
                    rng.shuffle(suspect)
            pairs.append(_pair(f"t{task}a{n:02d}", suspect, source, category, "answers"))
    return pairs


# Crowd shape: short pairs, each with a source of its own.
CROWD_MIX = {"cut": 60, "light": 150, "heavy": 150, "non": 240}


def crowd_pairs(lex, rng) -> list[dict]:
    pairs = []
    for n, (category, level, k) in enumerate(plan(rng, CROWD_MIX, (1, 2, 3))):
        topic = _topic(lex, rng, 2)
        source = [make_sentence(lex, rng, topic, int(rng.integers(6, 11))) for _ in range(k)]
        if category == "cut":
            suspect = source
        elif category == "non":
            suspect = [make_sentence(lex, rng, topic, int(rng.integers(6, 11)),
                                     _content([s]), borrow_share(level))
                       for s in source]
        else:
            profile = edit_profile(category, level)
            suspect = [paraphrase(lex, rng, topic, s, category, profile) for s in source]
        pairs.append(_pair(f"c{n:04d}", suspect, source, category, "crowd"))
    return pairs


def write_jsonl(pairs: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps(pair, sort_keys=True) + "\n")


# Embedding stores: (word count, dimensions, format) per corpus shape.
STORES = {"answers": (12_000, 64, "text"), "crowd": (40_000, 100, "binary")}


def generate(shape: str, seed: int, directory: str) -> dict:
    """Write one corpus shape and its resources; return their paths."""
    rng = np.random.default_rng([seed, 0 if shape == "answers" else 1])
    lex = make_lexicon(rng)
    lexdb_dir = os.path.join(directory, "lexdb")
    ic_file = os.path.join(directory, "ic.dat")
    write_lexdb(lex, rng, lexdb_dir, ic_file)
    total, dim, fmt = STORES[shape]
    words, matrix = word_vectors(lex, rng, dim, total)
    emb_path = os.path.join(directory, f"vectors.{'txt' if fmt == 'text' else 'bin'}")
    write_embeddings(words, matrix, emb_path, fmt)
    pairs = answers_pairs(lex, rng) if shape == "answers" else crowd_pairs(lex, rng)
    corpus_path = os.path.join(directory, f"{shape}.jsonl")
    write_jsonl(pairs, corpus_path)
    return {
        "corpus": corpus_path,
        "lexdb_dir": lexdb_dir,
        "ic_file": ic_file,
        "embedding_file": emb_path,
        "embedding_format": fmt,
    }


if __name__ == "__main__":
    import sys

    shape, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(json.dumps(generate(shape, seed, directory)))
