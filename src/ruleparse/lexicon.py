"""Multiword lexicons: compounds, complex predicates, and adverb lists.

Six plain-text files with fixed names make up a lexicon directory:

    cpi.txt         complex predicates and idioms
    nc.txt          bare noun compounds
    pc.txt          possessive-marked noun compounds
    redup.txt       reduplicated compounds
    adv_degree.txt  adverbs of quantity or degree
    adv_emph.txt    adverbs that emphasize the preceding word

One entry per line (a line ends at LF, CRLF or CR), components
separated by whitespace, ``#`` comments allowed.  Compound files require
at least two components per entry.  A file that is missing, is not UTF-8
or holds a malformed entry raises :class:`LexiconError` naming it.
Matching is insensitive to Turkish case variants (I/ı and İ/i fold to
their lowercase dotted/dotless counterparts).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import LexiconError
from .textio import lines_of

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
    """What the rule engine reads of a lexicon directory.

    The two adverb sets hold the folded, whitespace-normalized entries of
    ``adv_degree.txt`` and ``adv_emph.txt``.  The ``pairs`` map holds,
    per compound class, every matchable adjacent bigram as a first-word
    map: ``pairs[cls][first]`` is the frozenset of words that may follow
    ``first``.  A two-word entry contributes itself, a longer entry each
    consecutive word pair, so it can be matched greedily left to right.
    The map's keys are the words that start a pair.  Every word is folded
    text without whitespace (entry components come from ``str.split()``):
    the rule engine looks already-folded words up directly, and a word
    holding whitespace or an empty word matches nothing.
    """

    degree_adverbs: frozenset[str]
    head_emphasizing_adverbs: frozenset[str]
    pairs: dict[str, dict[str, frozenset[str]]]


def _read_entries(path: Path, require_compound: bool) -> list[tuple[str, ...]]:
    if not path.is_file():
        raise LexiconError(f"missing lexicon file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: {exc}") from exc
    entries = []
    for line_no, line in enumerate(lines_of(text), 1):
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


def _pair_map(entries: list[tuple[str, ...]]) -> dict[str, frozenset[str]]:
    follows: dict[str, set[str]] = {}
    for entry in entries:
        for first, second in zip(entry, entry[1:]):
            follows.setdefault(first, set()).add(second)
    return {first: frozenset(seconds) for first, seconds in follows.items()}


def load_lexicon(directory: str | Path) -> Lexicon:
    """Load the six conventional lexicon files from ``directory``.

    Loading the same directory twice yields equal lexicons.
    """
    directory = Path(directory)
    raw = {}
    for cls, name in _FILENAMES.items():
        raw[cls] = _read_entries(directory / name,
                                 require_compound=cls in COMPOUND_CLASSES)
    return Lexicon(
        degree_adverbs=frozenset(" ".join(e) for e in raw["degree"]),
        head_emphasizing_adverbs=frozenset(" ".join(e) for e in raw["emph"]),
        pairs={cls: _pair_map(raw[cls]) for cls in COMPOUND_CLASSES},
    )


def default_lexicon_dir() -> Path:
    """Directory of the starter lexicons shipped with the package."""
    return Path(str(resources.files("ruleparse").joinpath("data/lexicons")))
