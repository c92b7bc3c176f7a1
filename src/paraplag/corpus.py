"""Corpus loaders: labelled suspect/source passage pairs from disk.

Two on-disk layouts are understood: the crowd-corpus layout (flat
directory of ``<n>-original.txt`` / ``<n>-paraphrase.txt`` /
``<n>-metadata.txt`` triples) and the short-answer corpus layout (five
``orig_task<x>.txt`` prompts, one answer file per writer, and a
delimited truth table naming each answer's rewrite category).  Either
loader produces the same in-memory pairs, which also round-trip through
a JSON-lines interchange file so synthetic datasets can be fed to the
evaluation pipeline without inventing a directory layout.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import MissingFile, ParaplagError, load_json

PARAPHRASED = "paraphrased"
NOT_PARAPHRASED = "not_paraphrased"

# verdict values accepted in crowd metadata files
_TRUE_WORDS = frozenset({"yes", "true", "1"})
_FALSE_WORDS = frozenset({"no", "false", "0"})

# rewrite-category prefixes and the label each one carries
_CATEGORY_LABELS = {
    "light": PARAPHRASED,
    "heavy": PARAPHRASED,
    "cut": NOT_PARAPHRASED,
    "near": NOT_PARAPHRASED,
    "non": NOT_PARAPHRASED,
}

_METADATA_RE = re.compile(r"^\s*paraphrase\s*[:=]\s*(\S+)\s*$", re.IGNORECASE)
_ORIGINAL_RE = re.compile(r"^(\d+)-original\.txt$")


class MetadataParse(ParaplagError):
    """Pair metadata is absent or holds no usable verdict."""


class UnknownCategory(ParaplagError):
    """Truth table names a rewrite category outside the known set."""


class MalformedTruthRow(ParaplagError):
    """A truth-table row lacks a field or names no single task."""


class MalformedPair(ParaplagError):
    """A JSON-lines record or a crowd file set is no well-formed pair, or repeats a pair_id."""


@dataclass(frozen=True)
class LabelledPair:
    pair_id: str
    suspect_text: str
    source_text: str
    label: str
    origin: str
    raw_category: str

    def __post_init__(self):
        if self.label not in (PARAPHRASED, NOT_PARAPHRASED):
            raise ValueError(f"label must be paraphrased/not_paraphrased, got {self.label!r}")
        if not self.suspect_text.strip() or not self.source_text.strip():
            raise ValueError(f"pair {self.pair_id}: texts must be non-empty")

    @property
    def is_paraphrased(self) -> bool:
        return self.label == PARAPHRASED


_PAIR_FIELDS = tuple(f.name for f in fields(LabelledPair))


def _read_text(path: Path) -> str:
    # crowd-sourced files carry occasional stray bytes, keep the rest; a
    # leading byte-order mark marks the encoding, not text
    return path.read_text(encoding="utf-8", errors="replace").removeprefix("\ufeff")


def count_labels(pairs: list[LabelledPair]) -> tuple[int, int, int]:
    """(total, paraphrased, not_paraphrased)."""
    positive = sum(1 for p in pairs if p.is_paraphrased)
    return len(pairs), positive, len(pairs) - positive


# ---------------------------------------------------------------------------
# Crowd corpus


def _parse_metadata(path: Path, pair_id: str) -> tuple[str, str]:
    """(label, raw verdict word) from a metadata file's paraphrase line."""
    if not path.is_file():
        raise MetadataParse(f"pair {pair_id}: metadata file missing: {path}")
    for line in _read_text(path).splitlines():
        matched = _METADATA_RE.match(line)
        if not matched:
            continue
        word = matched.group(1).lower()
        if word in _TRUE_WORDS:
            return PARAPHRASED, word
        if word in _FALSE_WORDS:
            return NOT_PARAPHRASED, word
        raise MetadataParse(f"pair {pair_id}: unrecognized verdict {word!r}")
    raise MetadataParse(f"pair {pair_id}: no paraphrase line in {path}")


def load_crowd(directory) -> list[LabelledPair]:
    """Every pair in a crowd-layout directory, ordered by pair number."""
    root = Path(directory)
    if not root.is_dir():
        raise MissingFile(f"corpus directory not found: {root}")
    originals: dict[int, str] = {}
    for name in sorted(entry.name for entry in root.iterdir()):
        if m := _ORIGINAL_RE.match(name):
            number = int(m.group(1))
            first = originals.setdefault(number, name)
            if first != name:
                raise MalformedPair(f"{root}: {first} and {name} are both pair {number}")
    pairs = []
    for number, name in sorted(originals.items()):
        # the pair's files share the number as its original spells it ("01")
        prefix = name.removesuffix("-original.txt")
        paraphrase = root / f"{prefix}-paraphrase.txt"
        if not paraphrase.is_file():
            raise MissingFile(f"pair {number}: paraphrase file missing: {paraphrase}")
        label, raw = _parse_metadata(root / f"{prefix}-metadata.txt", str(number))
        pairs.append(
            LabelledPair(
                pair_id=str(number),
                suspect_text=_read_text(paraphrase),
                source_text=_read_text(root / name),
                label=label,
                origin="crowd",
                raw_category=raw,
            )
        )
    return pairs


# ---------------------------------------------------------------------------
# Short-answer corpus


def _category_label(category: str, where: str) -> str:
    lowered = category.strip().lower()
    for prefix, label in _CATEGORY_LABELS.items():
        if lowered.startswith(prefix):
            return label
    raise UnknownCategory(f"{where}: unrecognized rewrite category {category!r}")


def _task_letter(task: str, where: str) -> str:
    lowered = task.strip().lower()
    if lowered.startswith("task"):
        lowered = lowered[len("task") :]
    if len(lowered) != 1 or not lowered.isalpha():
        raise MalformedTruthRow(
            f"{where}: task field must name a single task letter, got {task!r}"
        )
    return lowered


def _truth_rows(truth_path: Path) -> list[tuple[str, str, str, int]]:
    """(file, task, category, line number) of each row of a truth table.

    A row whose pair_id (its file's stem) an earlier row used raises `MalformedTruthRow`.
    """
    rows = []
    lines_by_id: dict[str, int] = {}
    for line_no, line in enumerate(_read_text(truth_path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in re.split(r"[,\t]", stripped)]
        if fields[0].lower() == "file":  # header row
            continue
        if len(fields) < 3:
            raise MalformedTruthRow(
                f"{truth_path}:{line_no}: truth row needs file, task, category: {line!r}"
            )
        pair_id = Path(fields[0]).stem
        first = lines_by_id.setdefault(pair_id, line_no)
        if first != line_no:
            raise MalformedTruthRow(
                f"{truth_path}:{line_no}: pair_id {pair_id!r} repeats line {first}"
            )
        rows.append((fields[0], fields[1], fields[2], line_no))
    return rows


def load_clough_stevenson(directory, truth_file) -> list[LabelledPair]:
    """Answer-vs-prompt pairs labelled through the ground-truth table."""
    root = Path(directory)
    if not root.is_dir():
        raise MissingFile(f"corpus directory not found: {root}")
    truth_path = Path(truth_file)
    if not truth_path.is_file():
        raise MissingFile(f"truth table not found: {truth_path}")

    originals: dict[str, str] = {}
    pairs = []
    for answer_name, task, category, line_no in sorted(_truth_rows(truth_path)):
        where = f"{truth_path}:{line_no}"
        answer_path = root / answer_name
        if not answer_path.is_file():
            raise MissingFile(f"answer file missing: {answer_path}")
        letter = _task_letter(task, where)
        if letter not in originals:
            original_path = root / f"orig_task{letter}.txt"
            if not original_path.is_file():
                raise MissingFile(f"original task file missing: {original_path}")
            originals[letter] = _read_text(original_path)
        pairs.append(
            LabelledPair(
                pair_id=Path(answer_name).stem,
                suspect_text=_read_text(answer_path),
                source_text=originals[letter],
                label=_category_label(category, where),
                origin="clough_stevenson",
                raw_category=category.strip().lower(),
            )
        )
    return pairs


# ---------------------------------------------------------------------------
# JSON-lines interchange


def save_pairs_jsonl(pairs: list[LabelledPair], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps(asdict(pair), sort_keys=True))
            fh.write("\n")


def _pair_from_json(line: bytes) -> LabelledPair:
    """The pair one JSON-lines record holds; ValueError says what is wrong."""
    try:
        record = load_json(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"invalid UTF-8 at byte {exc.start + 1}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg} at character {exc.pos + 1}") from None
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    missing = [key for key in _PAIR_FIELDS if key not in record]
    if missing:
        raise ValueError(f"missing key {', '.join(missing)}")
    for key in _PAIR_FIELDS:
        value = record[key]
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {type(value).__name__}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            # JSON escapes can spell one half of a surrogate pair, which no
            # text encoding accepts, so every later stage would fail on it.
            raise ValueError(f"{key} holds a lone surrogate at index {exc.start}") from None
    return LabelledPair(**{key: record[key] for key in _PAIR_FIELDS})


def load_pairs_jsonl(path) -> list[LabelledPair]:
    """Pairs of a JSON-lines file, one object per non-blank line; a byte-order mark may lead.

    A line that does not hold a valid pair, or repeats an earlier line's
    pair_id (outputs and errors name a pair only by its id), raises
    `MalformedPair` naming the file and the 1-based line number.
    """
    jsonl_path = Path(path)
    if not jsonl_path.is_file():
        raise MissingFile(f"pairs file not found: {jsonl_path}")
    pairs = []
    lines_by_id: dict[str, int] = {}
    with open(jsonl_path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1:
                line = line.removeprefix(b"\xef\xbb\xbf")
            if not line.strip():
                continue
            try:
                pair = _pair_from_json(line)
            except ValueError as exc:
                raise MalformedPair(f"{jsonl_path}:{line_no}: {exc}") from None
            first = lines_by_id.setdefault(pair.pair_id, line_no)
            if first != line_no:
                raise MalformedPair(
                    f"{jsonl_path}:{line_no}: pair_id {pair.pair_id!r} repeats line {first}"
                )
            pairs.append(pair)
    return pairs
