"""CoNLL-U treebank reading/writing and the morphological sidecar format.

Annotations produced by this package ride in the MISC column, so gold
HEAD/DEPREL columns are never overwritten.  Multiword-token range lines
are preserved verbatim for round-tripping but excluded from the token
list; empty-node lines are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator, Sequence

from .errors import ConlluError, SidecarError
from .morpho import MorphAnalysis

ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC = range(10)


@dataclass(frozen=True)
class Token:
    """One syntactic word.  Absent CoNLL-U fields are None."""

    id: int
    form: str
    lemma: str | None = None
    upos: str | None = None
    xpos: str | None = None
    feats: tuple[tuple[str, str], ...] = ()
    head: int | None = None
    deprel: str | None = None
    deps: str | None = None
    misc: tuple[tuple[str, str | None], ...] = ()

    def __post_init__(self):
        if self.id < 1:
            raise ValueError(f"token id must be >= 1, got {self.id}")
        if not self.form:
            raise ValueError("token form must be non-empty")
        if self.head is not None:
            if self.head < 0:
                raise ValueError(f"head must be >= 0, got {self.head}")
            if self.head == self.id:
                raise ValueError(f"token {self.id} has itself as head")
        keys = [k for k, _ in self.feats]
        if len(set(keys)) != len(keys):
            raise ValueError(f"token {self.id} has duplicate feature keys")

    def feats_dict(self) -> dict[str, str]:
        return dict(self.feats)

    def misc_dict(self) -> dict[str, str | None]:
        return dict(self.misc)


@dataclass(frozen=True)
class Sentence:
    """An ordered, validated token sequence.

    ``ranges`` holds preserved multiword-token lines as
    ``(token_index, raw_line)`` pairs: the raw line is emitted before the
    token at that index on serialization.
    """

    tokens: tuple[Token, ...]
    comments: tuple[str, ...] = ()
    ranges: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        ids = [t.id for t in self.tokens]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError("non-contiguous ids")
        n = len(ids)
        for t in self.tokens:
            if t.head is not None and t.head > n:
                raise ValueError(f"head {t.head} of token {t.id} out of range")
        if self.tokens and all(t.head is not None for t in self.tokens):
            self._check_tree()

    def _check_tree(self):
        roots = [t.id for t in self.tokens if t.head == 0]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        heads = {t.id: t.head for t in self.tokens}
        for start in heads:
            seen = set()
            cur = start
            while cur != 0:
                if cur in seen:
                    raise ValueError("head graph contains a cycle")
                seen.add(cur)
                cur = heads[cur]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def _read_text(source: str | IO[str]) -> str:
    return source.read() if hasattr(source, "read") else source


def parse_conllu(source: str | IO[str]) -> list[Sentence]:
    """Parse a CoNLL-U character stream into a list of sentences.

    Raises :class:`ConlluError` naming the sentence ordinal and line
    number on any structural problem (wrong column count, non-contiguous
    ids, out-of-range heads, broken trees, empty-node lines).
    """
    text = _read_text(source)
    sentences: list[Sentence] = []
    comments: list[str] = []
    rows: list[tuple[int, list[str]]] = []
    ranges: list[tuple[int, str]] = []

    def ordinal() -> int:
        return len(sentences) + 1

    def flush(line_no: int) -> None:
        nonlocal comments, rows, ranges
        if not comments and not rows and not ranges:
            return
        if not rows:
            raise ConlluError(ordinal(), line_no, "sentence has no token lines")
        tokens = []
        for ln, cols in rows:
            tokens.append(_token_from_columns(ln, cols, ordinal()))
        ids = [t.id for t in tokens]
        if ids != list(range(1, len(ids) + 1)):
            raise ConlluError(ordinal(), rows[0][0], "non-contiguous ids")
        n = len(tokens)
        for (ln, _), t in zip(rows, tokens):
            if t.head is not None and t.head > n:
                raise ConlluError(ordinal(), ln, f"head {t.head} out of range")
        try:
            sentence = Sentence(tuple(tokens), tuple(comments), tuple(ranges))
        except ValueError as exc:
            raise ConlluError(ordinal(), rows[0][0], str(exc)) from exc
        sentences.append(sentence)
        comments, rows, ranges = [], [], []

    line_no = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line == "":
            flush(line_no)
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(ordinal(), line_no,
                              f"expected 10 tab-separated columns, got {len(cols)}")
        if any(c == "" for c in cols):
            raise ConlluError(ordinal(), line_no, "empty column")
        id_col = cols[ID]
        if "-" in id_col:
            parts = id_col.split("-")
            if len(parts) != 2 or not all(p.isdigit() for p in parts) \
                    or int(parts[0]) > int(parts[1]):
                raise ConlluError(ordinal(), line_no, f"bad token range {id_col!r}")
            ranges.append((len(rows), line))
            continue
        if "." in id_col:
            raise ConlluError(ordinal(), line_no, "empty-node lines are not supported")
        rows.append((line_no, cols))
    flush(line_no + 1)
    return sentences


def _token_from_columns(line_no: int, cols: list[str], ordinal: int) -> Token:
    def absent(value):
        return None if value == "_" else value

    try:
        token_id = int(cols[ID])
    except ValueError:
        raise ConlluError(ordinal, line_no, f"bad token id {cols[ID]!r}") from None
    head_raw = absent(cols[HEAD])
    if head_raw is None:
        head = None
    else:
        try:
            head = int(head_raw)
        except ValueError:
            raise ConlluError(ordinal, line_no, f"bad head {head_raw!r}") from None

    feats: tuple[tuple[str, str], ...] = ()
    if cols[FEATS] != "_":
        items = []
        seen = set()
        for item in cols[FEATS].split("|"):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ConlluError(ordinal, line_no, f"bad feature item {item!r}")
            if key in seen:
                raise ConlluError(ordinal, line_no, f"duplicate feature key {key!r}")
            seen.add(key)
            items.append((key, value))
        feats = tuple(items)

    misc: tuple[tuple[str, str | None], ...] = ()
    if cols[MISC] != "_":
        items = []
        for item in cols[MISC].split("|"):
            if not item:
                raise ConlluError(ordinal, line_no, "empty item in MISC column")
            key, sep, value = item.partition("=")
            items.append((key, value if sep else None))
        misc = tuple(items)

    try:
        return Token(
            id=token_id,
            form=cols[FORM],
            lemma=absent(cols[LEMMA]),
            upos=absent(cols[UPOS]),
            xpos=absent(cols[XPOS]),
            feats=feats,
            head=head,
            deprel=absent(cols[DEPREL]),
            deps=absent(cols[DEPS]),
            misc=misc,
        )
    except ValueError as exc:
        raise ConlluError(ordinal, line_no, str(exc)) from exc


def format_misc(items: Sequence[tuple[str, str | None]]) -> str:
    """The MISC column text of ``(key, value)`` items; ``_`` when empty."""
    if not items:
        return "_"
    return "|".join(k if v is None else f"{k}={v}" for k, v in items)


def _token_line(token: Token, misc: str | None = None) -> str:
    def col(value):
        return "_" if value is None else str(value)

    feats = "|".join(f"{k}={v}" for k, v in token.feats) if token.feats else "_"
    return "\t".join([
        str(token.id), token.form, col(token.lemma), col(token.upos),
        col(token.xpos), feats, col(token.head), col(token.deprel),
        col(token.deps), format_misc(token.misc) if misc is None else misc,
    ])


def write_conllu(sentences: Sequence[Sentence],
                 misc: Sequence[Sequence[str]] | None = None) -> str:
    """Serialize sentences; inverse of :func:`parse_conllu` on its output.

    ``misc``, when given, holds one MISC column text per token of every
    sentence and is written in place of the tokens' own MISC items.
    """
    chunks = []
    for s_index, sentence in enumerate(sentences):
        lines = list(sentence.comments)
        range_at: dict[int, list[str]] = {}
        for idx, raw in sentence.ranges:
            range_at.setdefault(idx, []).append(raw)
        sentence_misc = misc[s_index] if misc is not None else None
        for i, token in enumerate(sentence.tokens):
            lines.extend(range_at.get(i, ()))
            lines.append(_token_line(
                token, sentence_misc[i] if sentence_misc is not None else None))
        lines.extend(range_at.get(len(sentence.tokens), ()))
        chunks.append("\n".join(lines) + "\n\n")
    return "".join(chunks)


def _iter_sidecar(text: str) -> Iterator[tuple[int, tuple[int, int], MorphAnalysis]]:
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise SidecarError(line_no, f"expected 4 tab-separated columns, got {len(cols)}")
        try:
            sent_ord, token_id = int(cols[0]), int(cols[1])
        except ValueError:
            raise SidecarError(line_no, "sentence ordinal and token id must be integers") from None
        if sent_ord < 1 or token_id < 1:
            raise SidecarError(line_no, "sentence ordinal and token id must be >= 1")
        if not cols[2]:
            raise SidecarError(line_no, "empty lemma")
        parts = cols[3].split("+")
        if not parts or any(not p for p in parts):
            raise SidecarError(line_no, f"unparseable morpheme sequence {cols[3]!r}")
        analysis = MorphAnalysis(lemma=cols[2], pos=parts[0], tags=tuple(parts[1:]))
        yield line_no, (sent_ord, token_id), analysis


def iter_morph_sidecar(source: str | IO[str]) -> Iterator[tuple[tuple[int, int], MorphAnalysis]]:
    """Stream ``(sentence_ordinal, token_id) -> analysis`` pairs.

    Use this for corpus-scale ingestion where duplicate checking and full
    materialization are unnecessary.
    """
    for _, key, analysis in _iter_sidecar(_read_text(source)):
        yield key, analysis


def read_morph_sidecar(source: str | IO[str]) -> dict[tuple[int, int], MorphAnalysis]:
    """Read a sidecar stream into a position-keyed map, rejecting duplicates.

    Format: ``sentence_ordinal<TAB>token_id<TAB>lemma<TAB>tag1+tag2+...``
    with ``#`` comment lines ignored.  Sentence ordinals are 1-based.
    """
    result: dict[tuple[int, int], MorphAnalysis] = {}
    for line_no, key, analysis in _iter_sidecar(_read_text(source)):
        if key in result:
            raise SidecarError(
                line_no, f"duplicate entry for sentence {key[0]} token {key[1]}")
        result[key] = analysis
    return result
