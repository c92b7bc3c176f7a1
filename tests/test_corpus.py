"""Corpus ingestion: crowd layout, short-answer layout, JSON-lines."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from paraplag.corpus import (
    LabelledPair,
    MalformedPair,
    MalformedTruthRow,
    MetadataParse,
    MissingFile,
    UnknownCategory,
    count_labels,
    load_clough_stevenson,
    load_crowd,
    load_pairs_jsonl,
    save_pairs_jsonl,
)

FIXTURES = Path(__file__).parent / "fixtures"

RECORD = {
    "pair_id": "s1",
    "suspect_text": "abc defgh ijklm.",
    "source_text": "abc defgh ijklm.",
    "label": "paraphrased",
    "origin": "synthetic",
    "raw_category": "light",
}

# (second line of a pairs file, what its error says after "<path>:2: ")
MALFORMED_LINES = [
    ('{"pair_id": "s2", ', "invalid JSON"),
    ('["s2", "abc", "abc"]', "expected a JSON object, got list"),
    (json.dumps({k: v for k, v in RECORD.items() if k != "raw_category"}), "missing key raw_category"),
    (json.dumps(dict(RECORD, origin=7)), "origin must be a string, got int"),
    (json.dumps(dict(RECORD, label="maybe")), "label must be paraphrased/not_paraphrased"),
    (json.dumps(dict(RECORD, pair_id="s\ud800")), "pair_id holds a lone surrogate at index 1"),
    (json.dumps(dict(RECORD, suspect_text="abc\ud800 defgh ijklm.")),
     "suspect_text holds a lone surrogate at index 3"),
    (json.dumps(dict(RECORD, source_text="\udfff abc.")),
     "source_text holds a lone surrogate at index 0"),
    # outputs and errors name a pair only by its id
    (json.dumps(dict(RECORD, label="not_paraphrased")), "pair_id 's1' repeats line 1"),
    # json alone would keep the last value, a valid label
    (json.dumps(dict(RECORD, pair_id="s2"))[:-1] + ', "label": "not_paraphrased"}',
     "gives key 'label' twice"),
]


def copy_crowd(dest: Path) -> Path:
    target = dest / "crowd"
    shutil.copytree(FIXTURES / "crowd", target)
    return target


BOM = "\ufeff".encode()


def prepend_bom(*paths: Path) -> None:
    for path in paths:
        path.write_bytes(BOM + path.read_bytes())


class TestLabelledPair:
    def test_label_validated(self):
        with pytest.raises(ValueError):
            LabelledPair("x", "text", "text", "maybe", "crowd", "?")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            LabelledPair("x", "  ", "text", "paraphrased", "crowd", "yes")

    def test_is_paraphrased(self):
        pair = LabelledPair("x", "suspect", "source", "paraphrased", "crowd", "yes")
        assert pair.is_paraphrased
        other = LabelledPair("y", "suspect", "source", "not_paraphrased", "crowd", "no")
        assert not other.is_paraphrased


class TestLoadCrowd:
    def test_fixture_pairs(self):
        pairs = load_crowd(FIXTURES / "crowd")
        assert [p.pair_id for p in pairs] == ["1", "2", "10"]
        assert [p.is_paraphrased for p in pairs] == [True, False, True]
        assert all(p.origin == "crowd" for p in pairs)
        assert pairs[0].suspect_text.startswith("After an extended discussion")
        assert pairs[0].source_text.startswith("The committee approved")

    def test_counts(self):
        assert count_labels(load_crowd(FIXTURES / "crowd")) == (3, 2, 1)

    def test_deterministic(self):
        assert load_crowd(FIXTURES / "crowd") == load_crowd(FIXTURES / "crowd")

    def test_metadata_formats_tolerated(self):
        pairs = {p.pair_id: p for p in load_crowd(FIXTURES / "crowd")}
        assert pairs["10"].raw_category == "true"  # "Paraphrase = TRUE" line
        assert pairs["2"].raw_category == "no"

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingFile):
            load_crowd(tmp_path / "absent")

    def test_missing_paraphrase_file(self, tmp_path):
        root = copy_crowd(tmp_path)
        (root / "2-paraphrase.txt").unlink()
        with pytest.raises(MissingFile):
            load_crowd(root)

    def test_missing_metadata_is_parse_error(self, tmp_path):
        root = copy_crowd(tmp_path)
        (root / "1-metadata.txt").unlink()
        with pytest.raises(MetadataParse):
            load_crowd(root)

    def test_unrecognized_verdict(self, tmp_path):
        root = copy_crowd(tmp_path)
        (root / "1-metadata.txt").write_text("paraphrase: perhaps\n")
        with pytest.raises(MetadataParse):
            load_crowd(root)

    def test_one_number_spelled_twice_is_malformed(self, tmp_path):
        root = copy_crowd(tmp_path)
        shutil.copy(root / "1-original.txt", root / "01-original.txt")
        with pytest.raises(MalformedPair) as info:
            load_crowd(root)
        assert str(info.value) == f"{root}: 01-original.txt and 1-original.txt are both pair 1"

    def test_zero_padded_number_opens_the_files_it_names(self, tmp_path):
        root = copy_crowd(tmp_path)
        for kind in ("original", "paraphrase", "metadata"):
            (root / f"1-{kind}.txt").rename(root / f"01-{kind}.txt")
        pairs = load_crowd(root)
        assert [p.pair_id for p in pairs] == ["1", "2", "10"]
        # same texts, labels and verdicts as the unpadded fixture
        assert pairs == load_crowd(FIXTURES / "crowd")

    def test_files_may_start_with_a_byte_order_mark(self, tmp_path):
        root = copy_crowd(tmp_path)
        prepend_bom(*root.iterdir())
        assert load_crowd(root) == load_crowd(FIXTURES / "crowd")

    def test_metadata_without_verdict_line(self, tmp_path):
        root = copy_crowd(tmp_path)
        (root / "1-metadata.txt").write_text("author: worker_3\n")
        with pytest.raises(MetadataParse):
            load_crowd(root)


class TestLoadCloughStevenson:
    def test_fixture_pairs(self):
        pairs = load_clough_stevenson(FIXTURES / "cs", FIXTURES / "cs" / "truth.csv")
        assert [p.pair_id for p in pairs] == [
            "g0pA_taska",
            "g0pB_taska",
            "g0pC_taska",
            "g1pA_taskb",
        ]
        assert count_labels(pairs) == (4, 2, 2)
        assert all(p.origin == "clough_stevenson" for p in pairs)

    def test_category_mapping(self):
        pairs = {p.pair_id: p for p in load_clough_stevenson(
            FIXTURES / "cs", FIXTURES / "cs" / "truth.csv"
        )}
        assert pairs["g0pA_taska"].label == "paraphrased"  # light
        assert pairs["g0pB_taska"].label == "paraphrased"  # heavy
        assert pairs["g0pC_taska"].label == "not_paraphrased"  # cut and paste
        assert pairs["g1pA_taskb"].label == "not_paraphrased"  # non-plagiarised

    def test_sources_follow_task(self):
        pairs = {p.pair_id: p for p in load_clough_stevenson(
            FIXTURES / "cs", FIXTURES / "cs" / "truth.csv"
        )}
        assert pairs["g0pA_taska"].source_text.startswith("Object-oriented")
        assert pairs["g1pA_taskb"].source_text.startswith("The PageRank")

    def test_unknown_category(self, tmp_path):
        root = tmp_path / "cs"
        shutil.copytree(FIXTURES / "cs", root)
        (root / "truth.csv").write_text("g0pA_taska.txt,a,garbled\n")
        with pytest.raises(UnknownCategory):
            load_clough_stevenson(root, root / "truth.csv")

    def test_missing_answer_file(self, tmp_path):
        root = tmp_path / "cs"
        shutil.copytree(FIXTURES / "cs", root)
        (root / "g0pB_taska.txt").unlink()
        with pytest.raises(MissingFile):
            load_clough_stevenson(root, root / "truth.csv")

    def test_missing_original_file(self, tmp_path):
        root = tmp_path / "cs"
        shutil.copytree(FIXTURES / "cs", root)
        (root / "orig_taskb.txt").unlink()
        with pytest.raises(MissingFile):
            load_clough_stevenson(root, root / "truth.csv")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(MissingFile, match="corpus directory not found"):
            load_clough_stevenson(tmp_path / "absent", FIXTURES / "cs" / "truth.csv")

    def test_files_may_start_with_a_byte_order_mark(self, tmp_path):
        root = tmp_path / "cs"
        shutil.copytree(FIXTURES / "cs", root)
        prepend_bom(*root.iterdir())
        expected = load_clough_stevenson(FIXTURES / "cs", FIXTURES / "cs" / "truth.csv")
        assert load_clough_stevenson(root, root / "truth.csv") == expected

    def test_missing_truth_table(self, tmp_path):
        with pytest.raises(MissingFile):
            load_clough_stevenson(FIXTURES / "cs", tmp_path / "absent.csv")

    # (bad row, error class, what its error says after "<truth file>:3: ");
    # the bad row is line 3 but sorts first, ahead of the good row on line 2.
    @pytest.mark.parametrize("row, error, message", [
        ("g0pA_taska.txt,a", MalformedTruthRow, "truth row needs file, task, category"),
        ("g0pA_taska.txt,taskzz,light", MalformedTruthRow,
         "task field must name a single task letter, got 'taskzz'"),
        ("g0pA_taska.txt,a,weird", UnknownCategory, "unrecognized rewrite category 'weird'"),
        ("g0pB_taska.txt,a,cut", MalformedTruthRow, "pair_id 'g0pB_taska' repeats line 2"),
    ])
    def test_bad_row_names_truth_file_and_line(self, tmp_path, row, error, message):
        root = tmp_path / "cs"
        shutil.copytree(FIXTURES / "cs", root)
        truth = root / "truth.csv"
        truth.write_text(f"File,Task,Category\ng0pB_taska.txt,a,heavy\n{row}\n")
        with pytest.raises(error) as info:
            load_clough_stevenson(root, truth)
        assert str(info.value).startswith(f"{truth}:3: {message}")

    def test_tab_delimited_truth(self, tmp_path):
        root = tmp_path / "cs"
        shutil.copytree(FIXTURES / "cs", root)
        (root / "truth.csv").write_text(
            "g0pA_taska.txt\ta\tlight\ng0pC_taska.txt\ta\tcut\n"
        )
        pairs = load_clough_stevenson(root, root / "truth.csv")
        assert count_labels(pairs) == (2, 1, 1)

    def test_blank_and_comment_lines_between_truth_rows_skipped(self, tmp_path):
        root = tmp_path / "cs"
        shutil.copytree(FIXTURES / "cs", root)
        header, *rows = (FIXTURES / "cs" / "truth.csv").read_text().splitlines()
        spaced = [header, "# rows follow", ""]
        for row in rows:
            spaced += [row, "", "  # a note", "   "]
        (root / "truth.csv").write_text("\n".join(spaced) + "\n")
        expected = load_clough_stevenson(FIXTURES / "cs", FIXTURES / "cs" / "truth.csv")
        assert load_clough_stevenson(root, root / "truth.csv") == expected


class TestJsonl:
    def test_round_trip(self, tmp_path):
        pairs = load_crowd(FIXTURES / "crowd")
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, path)
        assert load_pairs_jsonl(path) == pairs

    def test_unicode_and_newlines_survive(self, tmp_path):
        pair = LabelledPair(
            pair_id="u1",
            suspect_text="Vor fünf Jahren.\nZweite Zeile mit Умлаут.",
            source_text="Five years ago.\nSecond line.",
            label="paraphrased",
            origin="synthetic",
            raw_category="light",
        )
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl([pair], path)
        assert load_pairs_jsonl(path) == [pair]

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_pairs_jsonl(tmp_path / "absent.jsonl")

    def test_extra_keys_ignored(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(dict(RECORD, note="kept out")) + "\n", encoding="utf-8")
        assert load_pairs_jsonl(path) == [LabelledPair(**RECORD)]

    def test_first_line_may_start_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        record = json.dumps(RECORD).encode()
        path.write_bytes(BOM + record + b"\n")
        assert load_pairs_jsonl(path) == [LabelledPair(**RECORD)]
        # only the file's first line: elsewhere a mark is no JSON
        path.write_bytes(BOM + record + b"\n" + BOM + record + b"\n")
        with pytest.raises(MalformedPair, match=":2: invalid JSON"):
            load_pairs_jsonl(path)

    def test_blank_lines_ignored(self, tmp_path):
        pairs = load_crowd(FIXTURES / "crowd")
        path = tmp_path / "pairs.jsonl"
        save_pairs_jsonl(pairs, path)
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert load_pairs_jsonl(path) == pairs

    @pytest.mark.parametrize("line, message", MALFORMED_LINES)
    def test_malformed_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(RECORD) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedPair) as info:
            load_pairs_jsonl(path)
        assert str(info.value).startswith(f"{path}:2: {message}")

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_bytes(json.dumps(RECORD).encode() + b'\n{"pair_id": "s\xff"}\n')
        with pytest.raises(MalformedPair, match=r":2: invalid UTF-8 at byte 15$"):
            load_pairs_jsonl(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(RECORD) + "\n\n\n[]\n", encoding="utf-8")
        with pytest.raises(MalformedPair, match=r":4: expected a JSON object"):
            load_pairs_jsonl(path)
