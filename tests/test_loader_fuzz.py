"""Corrupt resource files fail with a ParaplagError, and only with one.

Each loader gets a small valid file with a few random edits: a cut, bytes
put in or dropped, or one whitespace-separated field swapped for a
troublesome token.  Loading must either succeed, leaving a store whose
queries work, or raise a ParaplagError (which the CLI turns into exit 2):
never an IndexError, UnicodeError, ValueError, RecursionError or
MemoryError.  Generated hypernym graphs check the lexdb's cycle rejection
against a reachability oracle.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from paraplag.errors import ParaplagError
from paraplag.resources import (
    ICTable,
    MalformedLine,
    load_embeddings,
    load_ic,
    load_lexdb,
    subsumer_ics,
    synonyms,
)

FIXTURES = Path(__file__).parent / "fixtures"
LEXDB_FILES = ("data.noun", "index.noun", "data.verb", "index.verb", "data.adj", "index.adj")

TOKENS = [
    "", "0", "-1", "1e999", "nan", "inf", "ffffffff", "99999999999999999999",
    "@", "@i", "n", "s", "x", "ROOT", "00001740", "00015388", "01835496",
    "é", "\x00", "|",
]

_AT = st.integers(0, 10**6)
EDIT = st.one_of(
    st.tuples(st.just("cut"), _AT),
    st.tuples(st.just("put"), _AT, st.binary(min_size=1, max_size=3)),
    st.tuples(st.just("drop"), _AT, st.integers(1, 6)),
    st.tuples(st.just("field"), _AT, _AT, st.sampled_from(TOKENS)),
)
EDITS = st.lists(EDIT, min_size=1, max_size=3)


def mutate(data: bytes, edits) -> bytes:
    for kind, at, *args in edits:
        if kind == "field":
            lines = data.split(b"\n")
            fields = lines[at % len(lines)].split(b" ")
            fields[args[0] % len(fields)] = args[1].encode("utf-8")
            lines[at % len(lines)] = b" ".join(fields)
            data = b"\n".join(lines)
            continue
        at %= len(data) + 1
        if kind == "cut":
            data = data[:at]
        elif kind == "put":
            data = data[:at] + args[0] + data[at:]
        else:
            data = data[:at] + data[at + args[0]:]
    return data


TEXT_VECTORS = b"3 3\napple 1 0 0\nbanana 0 1 0.5\ncherry -0.25 0.5 0\n"
BINARY_VECTORS = b"3 3\n" + b"".join(
    word + b" " + np.array(vec, dtype="<f4").tobytes() + b"\n"
    for word, vec in ((b"apple", [1, 0, 0]), (b"banana", [0, 1, 0.5]), (b"cherry", [-0.25, 0.5, 0]))
)
IC_COUNTS = b"wnver::3.0\n1740n 1000 ROOT\n15388n 400\n2083346n 50\n1835496v 80 ROOT\n"


@given(st.sampled_from([("text", TEXT_VECTORS), ("binary", BINARY_VECTORS)]), EDITS)
def test_corrupt_embeddings_raise_only_paraplag_errors(source, edits):
    fmt, data = source
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vectors"
        path.write_bytes(mutate(data, edits))
        try:
            store = load_embeddings(path, fmt)
        except ParaplagError:
            return
    for word in ("apple", "Banana", "durian"):
        vec = store.lookup_folded(word)
        assert vec is None or vec.shape == (store.dim,)


@given(EDITS)
def test_corrupt_ic_files_raise_only_paraplag_errors(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ic.dat"
        path.write_bytes(mutate(IC_COUNTS, edits))
        try:
            table = load_ic(path)
        except ParaplagError:
            return
    assert all(table.get(sid) >= 0.0 for sid in [(1740, "n"), (15388, "n")] if sid in table)


@given(st.sampled_from(LEXDB_FILES), EDITS)
def test_corrupt_lexdb_files_raise_only_paraplag_errors(name, edits):
    with tempfile.TemporaryDirectory() as tmp:
        for f in (FIXTURES / "lexdb").iterdir():
            shutil.copy(f, Path(tmp) / f.name)
        target = Path(tmp) / name
        target.write_bytes(mutate(target.read_bytes(), edits))
        try:
            store = load_lexdb(tmp)
        except ParaplagError:
            return
    ic = ICTable({(1740, "n"): 0.5, (15388, "n"): 2.0, (1835496, "v"): 1.0})
    for word in ("dog", "cat", "car", "walk", "content"):
        synonyms(store, word)
        subsumer_ics(store, ic, word)


def _reachable(edges: list[list[int]], start: int) -> set[int]:
    """Synsets reachable from start along one or more hypernym pointers."""
    seen: set[int] = set()
    todo = list(edges[start])
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(edges[node])
    return seen


GRAPHS = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=2), min_size=n, max_size=n)
)


@given(GRAPHS)
def test_generated_hypernym_graphs(edges):
    # synset i sits on line i + 1 of data.noun, with offset 10 + i and lemma wi
    data = "".join(
        f"{10 + i:08d} 05 n 01 w{i} 0 {len(targets):03d} "
        + "".join(f"@ {10 + t:08d} n 0000 " for t in targets)
        + "| generated\n"
        for i, targets in enumerate(edges)
    )
    index = "".join(f"w{i} n 1 1 @ 1 0 {10 + i:08d}\n" for i in range(len(edges)))
    on_cycle = {i for i in range(len(edges)) if i in _reachable(edges, i)}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "data.noun").write_text(data, encoding="utf-8")
        (Path(tmp) / "index.noun").write_text(index, encoding="utf-8")
        try:
            store = load_lexdb(tmp)
        except MalformedLine as exc:
            assert "hypernym cycle" in str(exc)
            assert exc.line_no - 1 in on_cycle
            return
    assert not on_cycle
    for i in range(len(edges)):
        expected = {(10 + j, "n") for j in _reachable(edges, i) | {i}}
        assert store.ancestors((10 + i, "n")) == expected
