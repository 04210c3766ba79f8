"""Multiword lexicons: compounds, complex predicates, and adverb lists.

Six plain-text files with fixed names make up a lexicon directory:

    cpi.txt         complex predicates and idioms
    nc.txt          bare noun compounds
    pc.txt          possessive-marked noun compounds
    redup.txt       reduplicated compounds
    adv_degree.txt  adverbs of quantity or degree
    adv_emph.txt    adverbs that emphasize the preceding word

One entry per line, components separated by spaces, ``#`` comments
allowed.  Compound files require at least two components per entry.
Matching is insensitive to Turkish case variants (I/ı and İ/i fold to
their lowercase dotted/dotless counterparts).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import LexiconError

COMPOUND_CLASSES = ("cpi", "nc", "pc", "redup")

_FILENAMES = {
    "cpi": "cpi.txt",
    "nc": "nc.txt",
    "pc": "pc.txt",
    "redup": "redup.txt",
    "degree": "adv_degree.txt",
    "emph": "adv_emph.txt",
}


def fold(text: str) -> str:
    """Lowercase with Turkish dotted/dotless i handled correctly."""
    return text.replace("I", "ı").replace("İ", "i").lower()


@dataclass(frozen=True)
class Lexicon:
    """Loaded lexicon entries plus the derived pair-match sets.

    Entry sets hold full (folded, whitespace-normalized) entries.  The
    ``pairs`` map holds, per compound class, every matchable adjacent
    bigram: a two-word entry contributes itself, a longer entry
    contributes each consecutive word pair so it can be matched greedily
    left to right.  Every set holds folded text only: the rule engine
    looks already-folded words up in them directly.
    """

    complex_predicates: frozenset[str]
    noun_compounds: frozenset[str]
    possessive_compounds: frozenset[str]
    reduplicated_compounds: frozenset[str]
    degree_adverbs: frozenset[str]
    head_emphasizing_adverbs: frozenset[str]
    pairs: dict[str, frozenset[str]]

    def match_pair(self, cls: str, first: str, second: str) -> bool:
        """True iff the folded, space-joined pair is matchable in ``cls``."""
        if cls not in COMPOUND_CLASSES:
            raise ValueError(f"unknown compound class {cls!r}")
        return f"{fold(first)} {fold(second)}" in self.pairs[cls]

    def is_degree_adverb(self, *words: str) -> bool:
        return any(fold(w) in self.degree_adverbs for w in words if w)

    def is_emphasizing_adverb(self, *words: str) -> bool:
        return any(fold(w) in self.head_emphasizing_adverbs for w in words if w)


def _read_entries(path: Path, require_compound: bool) -> list[tuple[str, ...]]:
    if not path.is_file():
        raise LexiconError(f"missing lexicon file: {path}")
    entries = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        components = tuple(fold(part) for part in line.split())
        if require_compound and len(components) < 2:
            raise LexiconError(
                f"{path}, line {line_no}: compound entry needs >= 2 components, "
                f"got {line!r}")
        entries.append(components)
    return entries


def _pair_keys(entries: list[tuple[str, ...]]) -> frozenset[str]:
    keys = set()
    for entry in entries:
        for first, second in zip(entry, entry[1:]):
            keys.add(f"{first} {second}")
    return frozenset(keys)


def load_lexicon(directory: str | Path) -> Lexicon:
    """Load the six conventional lexicon files from ``directory``.

    Loading the same directory twice yields equal lexicons.
    """
    directory = Path(directory)
    raw = {}
    for cls, name in _FILENAMES.items():
        raw[cls] = _read_entries(directory / name,
                                 require_compound=cls in COMPOUND_CLASSES)
    joined = {cls: frozenset(" ".join(e) for e in raw[cls]) for cls in raw}
    pairs = {cls: _pair_keys(raw[cls]) for cls in COMPOUND_CLASSES}
    return Lexicon(
        complex_predicates=joined["cpi"],
        noun_compounds=joined["nc"],
        possessive_compounds=joined["pc"],
        reduplicated_compounds=joined["redup"],
        degree_adverbs=joined["degree"],
        head_emphasizing_adverbs=joined["emph"],
        pairs=pairs,
    )


def default_lexicon_dir() -> Path:
    """Directory of the starter lexicons shipped with the package."""
    return Path(str(resources.files("ruleparse").joinpath("data/lexicons")))
