"""Morphological analyses, the suffix inventory, and lemma-suffix statistics.

An analysis is a lemma plus the ordered morpheme tags produced by a
morphological disambiguator (``insan+Noun+A3pl+Gen`` style).  The leading
element of the tag sequence is the root part of speech and is kept apart
from the suffix tags proper, so a bare root has an empty tag tuple.

The suffix inventory is the fixed list of suffix tags that defines the
column order of the lemma-suffix co-occurrence matrix.  The default
inventory shipped with the package has 81 entries, each classified as
inflectional or derivational.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from itertools import repeat
from typing import IO, Iterable, Iterator

from .errors import InputFormatError
from .textio import join_or_write, lines_of

INFLECTIONAL = "inflectional"
DERIVATIONAL = "derivational"

# Root POS tag -> Universal Dependencies POS, used when a token carries no
# UPOS of its own.  The root POS tags may open (or, after a derivation
# boundary, appear inside) a morpheme tag sequence; they are not suffixes
# and never occupy matrix columns.
ROOT_POS_TO_UPOS = {
    "Noun": "NOUN",
    "Verb": "VERB",
    "Adj": "ADJ",
    "Adv": "ADV",
    "Pron": "PRON",
    "Det": "DET",
    "Conj": "CCONJ",
    "Postp": "ADP",
    "Num": "NUM",
    "Interj": "INTJ",
    "Ques": "PART",
    "Dup": "X",
    "Punc": "PUNCT",
}
ROOT_POS_TAGS = frozenset(ROOT_POS_TO_UPOS)


@dataclass(frozen=True, slots=True)
class MorphAnalysis:
    """A disambiguated morphological analysis of one token.

    ``tags`` holds the suffix tags only; the root part of speech lives in
    ``pos``.  ``insan+Noun+A3pl+Gen`` therefore becomes
    ``MorphAnalysis("insan", "Noun", ("A3pl", "Gen"))``.  The sidecar
    readers share one object among the positions with the same analysis.
    """

    lemma: str
    pos: str
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.lemma:
            raise ValueError("analysis lemma must be non-empty")
        if not self.pos:
            raise ValueError("analysis root POS must be non-empty")


@dataclass(frozen=True)
class SuffixInventory:
    """Ordered suffix tags with their inflectional/derivational class.

    The position of a tag in ``entries`` is its column index in every
    matrix built against this inventory.
    """

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        tags = [tag for tag, _ in self.entries]
        if len(set(tags)) != len(tags):
            raise ValueError("duplicate tags in suffix inventory")
        for tag, cls in self.entries:
            if cls not in (INFLECTIONAL, DERIVATIONAL):
                raise ValueError(f"tag {tag!r} has unknown class {cls!r}")

    @cached_property
    def tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.entries)

    @cached_property
    def index(self) -> dict[str, int]:
        return {tag: i for i, (tag, _) in enumerate(self.entries)}

    @cached_property
    def inflectional(self) -> frozenset[str]:
        return frozenset(t for t, c in self.entries if c == INFLECTIONAL)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tag: str) -> bool:
        return tag in self.index


def load_inventory(source: str | IO[str] | None = None) -> SuffixInventory:
    """Load a suffix inventory from a ``tag<TAB>class`` stream.

    With no argument the packaged default (81 tags) is loaded.  Lines
    starting with ``#`` and blank lines are ignored; entry order defines
    column order.  A stream with no entries is rejected.
    """
    if source is None:
        source = resources.files("ruleparse").joinpath(
            "data/suffix_inventory.txt").read_text(encoding="utf-8")
    entries = []
    for line_no, line in enumerate(lines_of(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise InputFormatError(
                f"inventory line {line_no}: expected 'tag<TAB>class', got {line!r}")
        entries.append((parts[0], parts[1]))
    if not entries:
        raise InputFormatError("invalid suffix inventory: no entries")
    try:
        return SuffixInventory(tuple(entries))
    except ValueError as exc:
        raise InputFormatError(f"invalid suffix inventory: {exc}") from exc


@cache
def default_inventory() -> SuffixInventory:
    """The packaged 81-tag inventory, loaded once and cached."""
    return load_inventory()


# Markers that are neither a root POS nor a suffix: ``Prop`` marks a
# proper noun (``Noun+Prop+A3sg+Nom``).  The packaged inventory does not
# list it.
_NON_SUFFIX_MARKERS = frozenset({"Prop"})


def inflectional_suffixes(analysis: MorphAnalysis,
                          inventory: SuffixInventory | None = None) -> tuple[str, ...]:
    """The subsequence of the analysis tags classified as inflectional.

    Root-POS tags inside the sequence (derivation boundaries) are passed
    over, and so are the non-suffix markers (``Prop``) that the inventory
    does not list; an inventory that lists one gives it its class.  Any
    other tag missing from the inventory raises.
    """
    if inventory is None:
        inventory = default_inventory()
    keep = []
    for tag in analysis.tags:
        if tag in ROOT_POS_TAGS:
            continue
        if tag not in inventory:
            if tag in _NON_SUFFIX_MARKERS:
                continue
            raise InputFormatError(f"unknown morpheme tag: {tag!r}")
        if tag in inventory.inflectional:
            keep.append(tag)
    return tuple(keep)


def last_suffix(analysis: MorphAnalysis) -> str | None:
    """The final morpheme tag regardless of class; None for a bare root."""
    return analysis.tags[-1] if analysis.tags else None


@dataclass(frozen=True)
class LemmaSuffixMatrix:
    """Row-normalized lemma/suffix co-occurrence counts.

    ``rows`` maps a lemma to its vector, one entry per inventory tag.
    Rows are normalized to sum to one unless the lemma was never seen
    with a suffix, in which case the row is all zeros.  Treat as
    read-only after construction.
    """

    inventory: SuffixInventory
    rows: dict[str, tuple[float, ...]]

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, lemma: str) -> bool:
        return lemma in self.rows


def suffix_vector(matrix: LemmaSuffixMatrix, lemma: str) -> tuple[float, ...]:
    """The stored row for ``lemma``, or an all-zero vector if unseen."""
    row = matrix.rows.get(lemma)
    if row is None:
        return (0.0,) * len(matrix.inventory)
    return row


def check_cap(cap: int) -> None:
    """Raise ValueError unless ``cap`` is a :func:`build_matrix` cap."""
    if cap < 1:
        raise ValueError("cap must be a positive integer")


class SuffixCounts:
    """How often each lemma of a corpus occurs, and each tag with it: what
    :func:`build_matrix` normalizes.

    ``lemmas`` maps a lemma to its count of analyses and ``tags`` maps it
    to a count per tag of those analyses, every tag counted, whether the
    inventory lists it or not.  The counts of two parts of a corpus add
    up (:meth:`update`) to the counts of the whole.
    """

    __slots__ = ("lemmas", "tags")

    def __init__(self):
        self.lemmas: dict[str, int] = {}
        self.tags: dict[str, dict[str, int]] = {}

    def add(self, lemma: str, tags: Iterable[str], count: int = 1) -> None:
        """Count ``count`` analyses of ``lemma`` with ``tags``."""
        self.lemmas[lemma] = self.lemmas.get(lemma, 0) + count
        row = self.tags.get(lemma)
        if row is None:
            row = self.tags[lemma] = {}
        for tag in tags:
            row[tag] = row.get(tag, 0) + count

    def update(self, other: SuffixCounts) -> None:
        """Add the counts of ``other`` to these."""
        for lemma, count in other.lemmas.items():
            self.lemmas[lemma] = self.lemmas.get(lemma, 0) + count
        for lemma, other_row in other.tags.items():
            row = self.tags.setdefault(lemma, {})
            for tag, count in other_row.items():
                row[tag] = row.get(tag, 0) + count


def build_matrix(corpus: Iterable[MorphAnalysis] | SuffixCounts,
                 cap: int = 40000,
                 inventory: SuffixInventory | None = None,
                 unknown_tags: Counter | None = None) -> LemmaSuffixMatrix:
    """Count suffix tags per lemma over ``corpus`` and normalize rows.

    ``corpus`` is the analyses, each counted as it is drawn, or their
    :class:`SuffixCounts`, as ``ruleparse matrix`` counts a sidecar, so
    the build holds one count per lemma and per (lemma, tag) whatever the
    corpus length.  Keeps the ``cap`` most frequent lemmas (ties broken
    lexicographically).  Tags absent from the inventory are skipped;
    pass a Counter as ``unknown_tags`` to collect them for diagnostics.
    ``cap`` is checked (:func:`check_cap`) before ``corpus`` is read.
    """
    check_cap(cap)
    if inventory is None:
        inventory = default_inventory()
    if isinstance(corpus, SuffixCounts):
        counts = corpus
    else:
        counts = SuffixCounts()
        add = counts.add
        for analysis in corpus:
            add(analysis.lemma, analysis.tags)
    index = inventory.index
    if unknown_tags is not None:
        for row in counts.tags.values():
            for tag, count in row.items():
                if tag not in index and tag not in ROOT_POS_TAGS:
                    unknown_tags[tag] += count
    # Most frequent lemmas first; lexicographic order breaks ties so the
    # kept set is deterministic.
    freq = counts.lemmas
    ranked = sorted(freq, key=lambda lemma: (-freq[lemma], lemma))
    width = len(index)
    rows = {}
    for lemma in sorted(ranked[:cap]):
        # A row counts inventory tags only; a lemma never seen with one
        # keeps the all-zero vector.
        kept = [(index[tag], count) for tag, count in counts.tags[lemma].items()
                if tag in index]
        vector = [0.0] * width
        total = sum(count for _, count in kept)
        if total:
            for column, count in kept:
                vector[column] = count / total
        rows[lemma] = tuple(vector)
    return LemmaSuffixMatrix(inventory, rows)


class _Formatted(dict):
    """Each distinct value's 9-decimal text, formatted on first use."""

    def __missing__(self, value: float) -> str:
        text = self[value] = f"{value:.9f}"
        return text


def _matrix_lines(matrix: LemmaSuffixMatrix) -> Iterator[str]:
    """The lines of :func:`write_matrix`, each with its line break.

    Each distinct value is formatted once per write.  ``-0.0`` equals
    ``0.0`` as a dict key but prints with its sign, so a row holding a
    value with the sign bit set is formatted value by value.
    """
    formatted = _Formatted().__getitem__
    copysign = math.copysign
    yield "lemma\t" + "\t".join(matrix.inventory.tags) + "\n"
    for lemma in sorted(matrix.rows):
        row = matrix.rows[lemma]
        if row and min(map(copysign, repeat(1.0), row)) < 0.0:
            values = "\t".join(f"{v:.9f}" for v in row)
        else:
            values = "\t".join(map(formatted, row))
        yield f"{lemma}\t{values}\n"


def write_matrix(matrix: LemmaSuffixMatrix,
                 out: IO[str] | None = None) -> str | None:
    """Serialize a matrix: a tag header row, then one 9-decimal row per lemma.

    Returns the text or, given a text handle ``out``, writes it there a
    line at a time.
    """
    return join_or_write(_matrix_lines(matrix), out)


def _parse_row(line_no: int, texts: list[str]) -> tuple[float, ...]:
    try:
        row = tuple(map(float, texts))
    except ValueError as exc:
        raise InputFormatError(f"matrix line {line_no}: bad value ({exc})") from exc
    # A row holds normalized counts: NaN, infinities and negative values
    # have no meaning there, and JSON cannot carry the first two.
    for text, value in zip(texts, row):
        if not 0.0 <= value < math.inf:
            raise InputFormatError(
                f"matrix line {line_no}: value {text!r} is not a finite "
                "number >= 0")
    return row


def read_matrix(source: str | IO[str],
                inventory: SuffixInventory | None = None) -> LemmaSuffixMatrix:
    """Parse a matrix file written by :func:`write_matrix`.

    The header must list the inventory tags in order, and each lemma has
    one row; rows reload to the exact floats that reserialize to the same
    bytes.  A handle is read line by line, and each distinct value text
    is parsed and checked once per read: the rows share one float per
    text.
    """
    if inventory is None:
        inventory = default_inventory()
    lines = lines_of(source)
    header = next(lines, None)
    if header is None:
        raise InputFormatError("matrix stream is empty")
    header = header.split("\t")
    if header[:1] != ["lemma"] or tuple(header[1:]) != inventory.tags:
        raise InputFormatError("matrix header does not match the suffix inventory")
    width = len(inventory)
    rows: dict[str, tuple[float, ...]] = {}
    # Value text -> its float, for the texts that passed the checks.
    # Keyed by text, so "-0.000000000" stays apart from "0.000000000".
    known: dict[str, float] = {}
    parsed = known.__getitem__
    for line_no, line in enumerate(lines, start=2):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != width + 1:
            raise InputFormatError(
                f"matrix line {line_no}: expected {width + 1} columns, got {len(cols)}")
        if cols[0] in rows:
            raise InputFormatError(
                f"matrix line {line_no}: duplicate lemma {cols[0]!r}")
        texts = cols[1:]
        try:
            row = tuple(map(parsed, texts))
        except KeyError:
            # A text not seen yet: the whole row is parsed and checked
            # as one, so its first bad value is the one reported.
            for text, value in zip(texts, _parse_row(line_no, texts)):
                known.setdefault(text, value)
            row = tuple(map(parsed, texts))
        rows[cols[0]] = row
    return LemmaSuffixMatrix(inventory, rows)
