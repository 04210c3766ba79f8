"""CoNLL-U treebank reading/writing and the morphological sidecar format.

Annotations produced by this package ride in the MISC column, so gold
HEAD/DEPREL columns are never overwritten.  Multiword-token range lines
are preserved verbatim for round-tripping but excluded from the token
list; empty-node lines are rejected.

The readers take their lines from :func:`~ruleparse.textio.lines_of`:
a line ends at LF, CRLF or CR only, so a field may hold U+2028 and the
like, and :func:`parse_conllu` reads back what :func:`write_conllu` wrote.

:func:`group_by_sentence` is the one place a sidecar meets its treebank.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain, count, repeat
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import AlignmentError, AnalysisError, ConlluError, SidecarError
from .morpho import MorphAnalysis, SuffixCounts
from .textio import join_or_write, lines_of

ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC = range(10)


def _token_problem(token_id: int, form: str, head: int | None) -> str | None:
    """What is wrong with a token's id, form and head on their own, if
    anything: the checks a token runs, and the parser runs per line."""
    if token_id < 1:
        return f"token id must be >= 1, got {token_id}"
    if not form:
        return "token form must be non-empty"
    if head is not None:
        if head < 0:
            return f"head must be >= 0, got {head}"
        if head == token_id:
            return f"token {token_id} has itself as head"
    return None


def _tree_problem(heads: Sequence[int]) -> str | None:
    """What is wrong with a full head column (``heads[i]`` is the head of
    token ``i + 1``, every head in range), if anything: not exactly one
    root, or a cycle."""
    roots = heads.count(0)
    if roots != 1:
        return f"expected exactly one root, found {roots}"
    # 0: not visited yet, 1: on the current walk, 2: known to reach the root.
    state = [0] * (len(heads) + 1)
    state[0] = 2
    for start in range(1, len(heads) + 1):
        walk = []
        cur = start
        while state[cur] == 0:
            state[cur] = 1
            walk.append(cur)
            cur = heads[cur - 1]
        if state[cur] == 1:
            return "head graph contains a cycle"
        for node in walk:
            state[node] = 2
    return None


@dataclass(frozen=True, slots=True)
class Token:
    """One syntactic word.  Absent CoNLL-U fields are None.

    A token is built only if the line :func:`write_conllu` writes for it
    reads back as it, except that ``_``, the mark of an absent value,
    reads back as absent in any column but FORM.
    """

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
        problem = _token_problem(self.id, self.form, self.head) \
            or _written_problem(self)
        if problem is not None:
            raise ValueError(problem)

    def feats_dict(self) -> dict[str, str]:
        return dict(self.feats)

    def misc_dict(self) -> dict[str, str | None]:
        return dict(self.misc)


@dataclass(frozen=True, slots=True)
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
        heads = [t.head for t in self.tokens]
        if heads and None not in heads:
            problem = _tree_problem(heads)
            if problem is not None:
                raise ValueError(problem)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


# The readers check every field themselves, so they build tokens,
# sentences and analyses through these slot setters, which skip
# ``__post_init__``.  Objects built any other way are validated.
_new = object.__new__
(_set_id, _set_form, _set_lemma, _set_upos, _set_xpos, _set_feats, _set_head,
 _set_deprel, _set_deps, _set_misc) = (
    Token.__dict__[f.name].__set__ for f in fields(Token))
_set_tokens, _set_comments, _set_ranges = (
    Sentence.__dict__[f.name].__set__ for f in fields(Sentence))
_set_analysis_lemma, _set_analysis_pos, _set_analysis_tags = (
    MorphAnalysis.__dict__[f.name].__set__ for f in fields(MorphAnalysis))


# One sentence as the checking core yields it: its token rows as
# ``(line number, columns)``, its HEAD column, comments and range lines.
_Checked = tuple[list[tuple[int, list[str]]], list[int | None], list[str],
                 list[tuple[int, str]]]
# A sentence's HEAD and DEPREL columns, as :func:`read_columns` gives them.
Columns = tuple[tuple[int | None, ...], tuple[str | None, ...]]


def _checked_sentences(source: str | IO[str], feats_of: dict[str, tuple],
                       misc_of: dict[str, tuple]) -> Iterator[_Checked]:
    """The checking core of the CoNLL-U readers: each sentence, once every
    check of its lines, its token rows and its tree has passed.

    A handle is read line by line, not whole.  Raises :class:`ConlluError`
    naming the sentence ordinal and line number on any structural problem
    (wrong column count, non-contiguous ids, out-of-range heads, broken
    trees, empty-node lines).  A line's own problems are raised as it is
    read; at the end of a sentence come its token problems, in line
    order, then the sentence's.  ``feats_of`` and ``misc_of`` map each
    FEATS and MISC column checked so far to its items, so a repeated
    column is parsed once.
    """
    comments: list[str] = []
    rows: list[tuple[int, list[str]]] = []
    ranges: list[tuple[int, str]] = []
    ordinal = 1
    # The blank line after the last one ends the last sentence.
    for line_no, line in enumerate(chain(lines_of(source), ("",)), start=1):
        if line == "":
            if not comments and not rows and not ranges:
                continue
            if not rows:
                raise ConlluError(ordinal, line_no, "sentence has no token lines")
            heads = _checked_heads(rows, ordinal, feats_of, misc_of)
            yield rows, heads, comments, ranges
            ordinal += 1
            comments, rows, ranges = [], [], []
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(ordinal, line_no,
                              f"expected 10 tab-separated columns, got {len(cols)}")
        if "" in cols:
            raise ConlluError(ordinal, line_no, "empty column")
        id_col = cols[ID]
        if "-" in id_col:
            parts = id_col.split("-")
            if len(parts) != 2 or not all(p.isdigit() for p in parts) \
                    or int(parts[0]) > int(parts[1]):
                raise ConlluError(ordinal, line_no, f"bad token range {id_col!r}")
            ranges.append((len(rows), line))
            continue
        if "." in id_col:
            raise ConlluError(ordinal, line_no, "empty-node lines are not supported")
        rows.append((line_no, cols))


def _checked_heads(rows: list[tuple[int, list[str]]], ordinal: int,
                   feats_of: dict[str, tuple], misc_of: dict[str, tuple]
                   ) -> list[int | None]:
    """The HEAD column of one sentence's token rows, once each row, in
    line order, and then the sentence have passed their checks."""
    ids = []
    heads: list[int | None] = []
    for line_no, cols in rows:
        try:
            token_id = int(cols[ID])
        except ValueError:
            raise ConlluError(ordinal, line_no, f"bad token id {cols[ID]!r}") from None
        head_raw = cols[HEAD]
        if head_raw == "_":
            head = None
        else:
            try:
                head = int(head_raw)
            except ValueError:
                raise ConlluError(ordinal, line_no, f"bad head {head_raw!r}") from None
        try:
            if cols[FEATS] not in feats_of:
                feats_of[cols[FEATS]] = _feats_items(cols[FEATS])
            if cols[MISC] not in misc_of:
                misc_of[cols[MISC]] = _misc_items(cols[MISC])
        except ValueError as exc:
            raise ConlluError(ordinal, line_no, str(exc)) from None
        problem = _token_problem(token_id, cols[FORM], head)
        if problem is not None:
            raise ConlluError(ordinal, line_no, problem)
        ids.append(token_id)
        heads.append(head)
    if ids != list(range(1, len(ids) + 1)):
        raise ConlluError(ordinal, rows[0][0], "non-contiguous ids")
    n = len(ids)
    for (line_no, _), head in zip(rows, heads):
        if head is not None and head > n:
            raise ConlluError(ordinal, line_no, f"head {head} out of range")
    if None not in heads:
        problem = _tree_problem(heads)
        if problem is not None:
            raise ConlluError(ordinal, rows[0][0], problem)
    return heads


def _feats_items(column: str) -> tuple:
    """The items of a FEATS column other than ``_``; ValueError names the
    first bad item."""
    items = []
    seen = set()
    for item in column.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"bad feature item {item!r}")
        if key in seen:
            raise ValueError(f"duplicate feature key {key!r}")
        seen.add(key)
        items.append((key, value))
    return tuple(items)


def _misc_items(column: str) -> tuple:
    """The items of a MISC column other than ``_``; ValueError on an
    empty item."""
    items = []
    for item in column.split("|"):
        if not item:
            raise ValueError("empty item in MISC column")
        key, sep, value = item.partition("=")
        items.append((key, value if sep else None))
    return tuple(items)


def _written_problem(token: Token) -> str | None:
    """What keeps the line written for ``token`` from reading back as
    ``token``, if anything: the reader's checks of a line's columns, run
    on that line."""
    line = _token_line(token)
    cols = line.split("\t")
    if len(cols) != 10 or "\n" in line or "\r" in line:
        return f"token {token.id} has a tab or line break in a field"
    if "" in cols:
        return f"token {token.id} has an empty field"
    try:
        if token.feats and _feats_items(cols[FEATS]) != token.feats:
            return f"token {token.id}: FEATS {cols[FEATS]!r} reads back as other items"
        if token.misc and _misc_items(cols[MISC]) != token.misc:
            return f"token {token.id}: MISC {cols[MISC]!r} reads back as other items"
    except ValueError as exc:
        return f"token {token.id}: {exc}"
    return None


def parse_conllu(source: str | IO[str]) -> list[Sentence]:
    """Parse a CoNLL-U character stream into a list of sentences.

    Checks it as :func:`_checked_sentences` does, raising
    :class:`ConlluError` on the first problem.  Equal FORM, LEMMA, UPOS,
    XPOS, DEPREL and DEPS values, and equal FEATS and MISC columns, are
    one shared object within one call.
    """
    # Per-read sharing: a form maps to itself, any other string value to
    # itself ("_" to None), and a FEATS or MISC column to its parsed items.
    form_of = {}.setdefault
    shared = {"_": None}.setdefault
    feats_of: dict[str, tuple] = {"_": ()}
    misc_of: dict[str, tuple] = {"_": ()}
    sentences = []
    for rows, heads, comments, ranges in _checked_sentences(source, feats_of,
                                                            misc_of):
        tokens = []
        for token_id, (_, cols), head in zip(count(1), rows, heads):
            token = _new(Token)
            _set_id(token, token_id)
            _set_form(token, form_of(cols[FORM], cols[FORM]))
            _set_lemma(token, shared(cols[LEMMA], cols[LEMMA]))
            _set_upos(token, shared(cols[UPOS], cols[UPOS]))
            _set_xpos(token, shared(cols[XPOS], cols[XPOS]))
            _set_feats(token, feats_of[cols[FEATS]])
            _set_head(token, head)
            _set_deprel(token, shared(cols[DEPREL], cols[DEPREL]))
            _set_deps(token, shared(cols[DEPS], cols[DEPS]))
            _set_misc(token, misc_of[cols[MISC]])
            tokens.append(token)
        sentence = _new(Sentence)
        _set_tokens(sentence, tuple(tokens))
        _set_comments(sentence, tuple(comments))
        _set_ranges(sentence, tuple(ranges))
        sentences.append(sentence)
    return sentences


def read_columns(source: str | IO[str]) -> list[Columns]:
    """Each sentence's HEAD and DEPREL columns, ``_`` read as None.

    Checks the stream exactly as :func:`parse_conllu` does and raises the
    same errors, but builds no :class:`Token` or :class:`Sentence`: what
    scoring needs, at a fraction of the cost.
    """
    deprel = {"_": None}.setdefault
    return [(tuple(heads), tuple([deprel(cols[DEPREL], cols[DEPREL])
                                  for _, cols in rows]))
            for rows, heads, _, _ in _checked_sentences(source, {"_": ()},
                                                        {"_": ()})]


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


def _conllu_chunks(sentences: Iterable[Sentence],
                   misc: Iterable[Sequence[str]] | None) -> Iterator[str]:
    """The text of :func:`write_conllu`, one sentence (and the blank line
    after it) per chunk."""
    for sentence, sentence_misc in zip(sentences,
                                       repeat(None) if misc is None else misc):
        lines = list(sentence.comments)
        range_at: dict[int, list[str]] = {}
        for idx, raw in sentence.ranges:
            range_at.setdefault(idx, []).append(raw)
        for i, token in enumerate(sentence.tokens):
            lines.extend(range_at.get(i, ()))
            lines.append(_token_line(
                token, sentence_misc[i] if sentence_misc is not None else None))
        lines.extend(range_at.get(len(sentence.tokens), ()))
        yield "\n".join(lines) + "\n\n"


def write_conllu(sentences: Iterable[Sentence],
                 misc: Iterable[Sequence[str]] | None = None,
                 out: IO[str] | None = None) -> str | None:
    """Serialize sentences; inverse of :func:`parse_conllu` on its output.

    ``misc``, when given, holds one MISC column text per token of every
    sentence and is written in place of the tokens' own MISC items.
    Returns the text or, given a text handle ``out``, writes it there a
    sentence at a time.
    """
    return join_or_write(_conllu_chunks(sentences, misc), out)


def _sidecar_lines(source: str | IO[str], start: int = 0
                   ) -> Iterator[tuple[int, int, int, str | None]]:
    """``(line number, sentence ordinal, token id, entry text)`` per line
    of ``source``, numbered on from ``start``, its columns checked: the
    checking core of the sidecar readers.  The entry text is the lemma
    and morpheme string columns; a blank or comment line gives None for
    it and zeros for the numbers."""
    for line_no, line in enumerate(lines_of(source), start=start + 1):
        if not line or line.isspace() or line.startswith("#"):
            yield line_no, 0, 0, None
            continue
        tabs = line.count("\t")
        if tabs != 3:
            raise SidecarError(line_no, f"expected 4 tab-separated columns, got {tabs + 1}")
        sent_col, token_col, entry = line.split("\t", 2)
        try:
            sent_ord, token_id = int(sent_col), int(token_col)
        except ValueError:
            raise SidecarError(line_no, "sentence ordinal and token id must be integers") from None
        if sent_ord < 1 or token_id < 1:
            raise SidecarError(line_no, "sentence ordinal and token id must be >= 1")
        yield line_no, sent_ord, token_id, entry


def _entry_parts(line_no: int, entry: str) -> tuple[str, list[str]]:
    """The lemma and the morpheme tags of an entry text, each checked."""
    lemma, morphemes = entry.split("\t")
    if not lemma:
        raise SidecarError(line_no, "empty lemma")
    parts = morphemes.split("+")
    if "" in parts:
        raise SidecarError(line_no, f"unparseable morpheme sequence {morphemes!r}")
    return lemma, parts


def _duplicate(line_no: int, ordinal: int, token_id: int) -> SidecarError:
    return SidecarError(line_no, f"duplicate entry for sentence {ordinal} token {token_id}")


@dataclass
class SidecarCount:
    """What :func:`count_morph_sidecar` keeps of the sidecar lines it read."""

    lines: int  # the number of the last line read
    positions: set[int]  # each entry's ``ordinal << 32 | token_id``
    counts: SuffixCounts


def count_morph_sidecar(source: str | IO[str],
                        after: SidecarCount | None = None) -> SidecarCount:
    """The analyses of a sidecar stream counted per lemma and tag, with
    every check :func:`read_morph_sidecar` makes, in its order, and one
    more: a token id of 2**32 or more is rejected, so that each position
    is kept as one packed int, ``ordinal << 32 | token_id``, for the
    duplicate check.

    Each distinct entry text is checked on its first line and counted
    once for all its lines, so the read holds the position set and one
    count per distinct entry text, not an analysis per position.  A
    handle is read line by line.  Given the count of the stream's lines
    before ``source`` as ``after``, the lines are numbered on from its
    last one and a position it holds is a duplicate too.
    """
    line_no = after.lines if after else 0
    earlier = after.positions if after else frozenset()
    positions: set[int] = set()
    # entry text -> [lines holding it, lemma, tags]
    entries: dict[str, list] = {}
    for line_no, ordinal, token_id, entry in _sidecar_lines(source, line_no):
        if entry is None:
            continue
        seen = entries.get(entry)
        if seen is None:
            lemma, parts = _entry_parts(line_no, entry)
            seen = entries[entry] = [0, lemma, parts[1:]]
        if token_id >> 32:
            raise SidecarError(line_no, f"token id {token_id} is not below 2**32")
        packed = ordinal << 32 | token_id
        if packed in positions or packed in earlier:
            raise _duplicate(line_no, ordinal, token_id)
        positions.add(packed)
        seen[0] += 1
    counts = SuffixCounts()
    for lines, lemma, tags in entries.values():
        counts.add(lemma, tags, lines)
    return SidecarCount(line_no, positions, counts)


def read_morph_sidecar(source: str | IO[str]) -> dict[tuple[int, int], MorphAnalysis]:
    """Read a sidecar stream into a position-keyed map, rejecting duplicates.

    Format: ``sentence_ordinal<TAB>token_id<TAB>lemma<TAB>tag1+tag2+...``
    with ``#`` comment lines ignored.  Sentence ordinals are 1-based.
    Each distinct entry text (the lemma and morpheme string columns) is
    checked and made into an analysis on its first line, so positions
    with the same lemma and morpheme string share one analysis object;
    equal lemmas and tags are one string.
    """
    result: dict[tuple[int, int], MorphAnalysis] = {}
    shared: dict[str, MorphAnalysis] = {}
    text = {}.setdefault
    for line_no, ordinal, token_id, entry in _sidecar_lines(source):
        if entry is None:
            continue
        analysis = shared.get(entry)
        if analysis is None:
            lemma, parts = _entry_parts(line_no, entry)
            parts = tuple(map(text, parts, parts))
            analysis = shared[entry] = _new(MorphAnalysis)
            _set_analysis_lemma(analysis, text(lemma, lemma))
            _set_analysis_pos(analysis, parts[0])
            _set_analysis_tags(analysis, parts[1:])
        key = ordinal, token_id
        if key in result:
            raise _duplicate(line_no, ordinal, token_id)
        result[key] = analysis
    return result


def group_by_sentence(sidecar: Mapping[tuple[int, int], MorphAnalysis],
                      sentences: Sequence[Sentence]
                      ) -> list[dict[int, MorphAnalysis]]:
    """The treebank–sidecar join: one ``{token_id: analysis}`` dict per
    sentence, in treebank order, each in the sidecar's order.

    Raises :class:`AlignmentError` on the first entry, in sidecar order,
    that names no token, then :class:`AnalysisError` on the first token,
    in treebank order, without an analysis.
    """
    lengths = [len(sentence.tokens) for sentence in sentences]
    n_sentences = len(lengths)
    grouped: list[dict[int, MorphAnalysis]] = [{} for _ in lengths]
    for (ordinal, token_id), analysis in sidecar.items():
        if not (0 < ordinal <= n_sentences and 0 < token_id <= lengths[ordinal - 1]):
            raise AlignmentError(
                f"sidecar entry for sentence {ordinal} token {token_id} "
                "names no token of the treebank")
        grouped[ordinal - 1][token_id] = analysis
    # Every entry is in range and names one position, so a sentence is
    # complete exactly when its dict has an entry per token.
    for ordinal, (length, analyses) in enumerate(zip(lengths, grouped), start=1):
        if len(analyses) != length:
            token = next(t for t in sentences[ordinal - 1].tokens
                         if t.id not in analyses)
            raise AnalysisError(f"sentence {ordinal}: token {token.id} "
                                f"({token.form!r}) has no morphological analysis")
    return grouped
