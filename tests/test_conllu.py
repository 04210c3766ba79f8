"""Parsing and serialization of CoNLL-U streams and morph sidecars."""

from collections import Counter
import io
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleparse import (AlignmentError, AnalysisError, ConlluError,
                       MorphAnalysis, Sentence, SidecarError, Token,
                       group_by_sentence, parse_conllu, read_morph_sidecar,
                       write_conllu)
from ruleparse.conllu import count_morph_sidecar, read_columns

from conftest import (OTHER_BREAKS, ShortReads, random_conllu_sentence,
                      random_treebank, sent, tok)

BASIC = """\
# sent_id = 1
# text = Kuru yemiş aldım.
1\tKuru\tkuru\tNOUN\t_\tCase=Nom\t2\tnmod\t_\t_
2\tyemiş\tyemiş\tNOUN\t_\tCase=Nom\t3\tobj\t_\tSpaceAfter=No
3\taldım\tal\tVERB\t_\tNumber=Sing|Person=1\t0\troot\t_\t_

1\tGeldim\tgel\tVERB\t_\t_\t0\troot\t_\t_

"""


def test_parses_sentences_and_fields():
    sentences = parse_conllu(BASIC)
    assert len(sentences) == 2
    first = sentences[0]
    assert first.comments == ("# sent_id = 1", "# text = Kuru yemiş aldım.")
    assert [t.form for t in first] == ["Kuru", "yemiş", "aldım"]
    assert first.tokens[0].upos == "NOUN"
    assert first.tokens[2].feats_dict() == {"Number": "Sing", "Person": "1"}
    assert first.tokens[1].misc_dict() == {"SpaceAfter": "No"}
    assert first.tokens[2].head == 0
    assert len(sentences[1]) == 1


def test_accepts_file_objects():
    assert len(parse_conllu(io.StringIO(BASIC))) == 2


def test_underscore_means_absent():
    (s,) = parse_conllu("1\tword\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    t = s.tokens[0]
    assert t.lemma is None and t.upos is None and t.head is None
    assert t.feats == () and t.misc == ()


def test_missing_trailing_blank_line_is_tolerated():
    (s,) = parse_conllu("1\tword\t_\t_\t_\t_\t0\troot\t_\t_")
    assert s.tokens[0].form == "word"


def test_valueless_misc_item():
    (s,) = parse_conllu("1\tword\t_\t_\t_\t_\t_\t_\t_\tFlag|Key=Val\n\n")
    assert s.tokens[0].misc == (("Flag", None), ("Key", "Val"))


def test_multiword_range_line_is_kept_but_not_a_token():
    text = ("1-2\tevdeki\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tev\tev\tNOUN\t_\t_\t2\tnmod\t_\t_\n"
            "2\tdeki\tki\tADP\t_\t_\t0\troot\t_\t_\n\n")
    (s,) = parse_conllu(text)
    assert [t.form for t in s] == ["ev", "deki"]
    assert s.ranges == ((0, "1-2\tevdeki\t_\t_\t_\t_\t_\t_\t_\t_"),)
    assert write_conllu([s]) == text


def test_empty_node_line_rejected():
    text = ("1\tword\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "1.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    with pytest.raises(ConlluError, match="empty-node"):
        parse_conllu(text)


@pytest.mark.parametrize("line,message", [
    ("1\tword\t_\t_\t_\t_\t0\troot\t_", "expected 10"),
    ("1\tword\t_\t_\t_\t_\t0\troot\t_\t_\textra", "expected 10"),
    ("1\tword\t_\t_\t\t_\t0\troot\t_\t_", "empty column"),
    ("x\tword\t_\t_\t_\t_\t0\troot\t_\t_", "bad token id"),
    ("1\tword\t_\t_\t_\t_\ty\troot\t_\t_", "bad head"),
    ("2-1\tword\t_\t_\t_\t_\t_\t_\t_\t_", "bad token range"),
    ("1\tword\t_\t_\t_\tCase\t0\troot\t_\t_", "bad feature item"),
    ("1\tword\t_\t_\t_\tCase=Nom|Case=Acc\t0\troot\t_\t_",
     "duplicate feature key"),
])
def test_malformed_token_lines(line, message):
    with pytest.raises(ConlluError, match=message):
        parse_conllu(line + "\n\n")


def test_error_carries_sentence_and_line():
    text = ("1\tok\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "\n"
            "1\tok\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tbad\t_\t_\t_\t_\t9\tdep\t_\t_\n\n")
    with pytest.raises(ConlluError) as excinfo:
        parse_conllu(text)
    assert excinfo.value.sentence == 2
    assert excinfo.value.line == 4
    assert "out of range" in str(excinfo.value)


def test_non_contiguous_ids_rejected():
    text = ("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "3\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n\n")
    with pytest.raises(ConlluError, match="non-contiguous"):
        parse_conllu(text)


def test_self_head_rejected():
    with pytest.raises(ConlluError, match="itself as head"):
        parse_conllu("1\ta\t_\t_\t_\t_\t1\tdep\t_\t_\n\n")


def test_two_roots_rejected():
    text = ("1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t0\troot\t_\t_\n\n")
    with pytest.raises(ConlluError, match="exactly one root"):
        parse_conllu(text)


def test_cycle_rejected():
    text = ("1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t1\tdep\t_\t_\n"
            "3\tc\t_\t_\t_\t_\t0\troot\t_\t_\n\n")
    with pytest.raises(ConlluError, match="cycle"):
        parse_conllu(text)


def test_partial_heads_skip_tree_validation():
    # Pre-annotation output has heads for only some tokens; that must load.
    text = ("1\ta\t_\t_\t_\t_\t2\tdep\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    (s,) = parse_conllu(text)
    assert s.tokens[0].head == 2
    assert s.tokens[1].head is None


def test_comment_only_chunk_rejected():
    with pytest.raises(ConlluError, match="no token lines"):
        parse_conllu("# text = boş\n\n")


def test_write_empty_list():
    assert write_conllu([]) == ""


def test_round_trip_on_fixture():
    sentences = parse_conllu(BASIC)
    assert parse_conllu(write_conllu(sentences)) == sentences


@pytest.mark.parametrize("char", OTHER_BREAKS, ids=ascii)
def test_round_trip_of_fields_holding_a_character_that_ends_no_line(char):
    # ``str.splitlines`` breaks at each of these; CoNLL-U does not.
    sentence = sent(
        tok(1, f"a{char}b", "NOUN", f"{char}a", feats=[("Case", f"N{char}om")],
            head=0, deprel="root", misc=[("Note", f"x{char}"), (char, None)]),
        tok(2, char, "PUNCT", char, head=1, deprel="punct"))
    text = write_conllu([sentence])
    assert parse_conllu(text) == [sentence]
    assert parse_conllu(ShortReads(text, 3)) == [sentence]


@pytest.mark.parametrize("fields,message", [
    ({"form": "a\tb"}, "token 1 has a tab or line break in a field"),
    ({"form": "a\nb"}, "token 1 has a tab or line break in a field"),
    ({"form": "a\rb"}, "token 1 has a tab or line break in a field"),
    ({"upos": "NO\tUN"}, "token 1 has a tab or line break in a field"),
    ({"upos": "NOUN\n"}, "token 1 has a tab or line break in a field"),
    ({"lemma": ""}, "token 1 has an empty field"),
    ({"deprel": ""}, "token 1 has an empty field"),
    ({"feats": (("Case", "Gen|x"),)}, "token 1: bad feature item 'x'"),
    ({"feats": (("", "Gen"),)}, "token 1: bad feature item '=Gen'"),
    ({"feats": (("Case", "Gen"), ("Case", "Nom"))},
     "token 1: duplicate feature key 'Case'"),
    ({"feats": (("Case", "Gen|Number=Sing"),)},
     "token 1: FEATS 'Case=Gen|Number=Sing' reads back as other items"),
    ({"misc": (("a|b", None),)}, "token 1: MISC 'a|b' reads back as other items"),
    ({"misc": (("", None),)}, "token 1 has an empty field"),
])
def test_a_token_that_would_not_read_back_is_rejected(fields, message):
    # Each of these was once built, and write_conllu wrote a line that
    # parse_conllu rejected or read back as another token.
    with pytest.raises(ValueError) as excinfo:
        Token(**{"id": 1, "form": "ev", **fields})
    assert str(excinfo.value) == message


def test_underscore_is_the_one_value_that_reads_back_as_absent():
    token = Token(1, "_", lemma="_", upos="_", xpos="_", deprel="_", deps="_",
                  misc=(("_", None),))
    assert parse_conllu(write_conllu([sent(token)])) == [sent(Token(1, "_"))]


def test_round_trip_randomized():
    rng = random.Random(20240817)
    sentences = [random_conllu_sentence(rng) for _ in range(300)]
    text = write_conllu(sentences)
    assert parse_conllu(text) == sentences
    assert write_conllu(parse_conllu(text)) == text


_name = st.text("abcçdefgğhıijklmnoöprsştuüvyz", min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.lists(_name, min_size=1, max_size=8), st.booleans())
def test_round_trip_property(forms, with_heads):
    n = len(forms)
    tokens = [tok(i, form,
                  head=(0 if i == n else i + 1) if with_heads else None,
                  deprel=("root" if i == n else "dep") if with_heads else None)
              for i, form in enumerate(forms, start=1)]
    original = [sent(*tokens)]
    assert parse_conllu(write_conllu(original)) == original


# -- morph sidecar ----------------------------------------------------------

SIDECAR = """\
# ord\ttoken\tlemma\tmorphemes
1\t1\tinsan\tNoun+A3pl+Gen
1\t2\tgel\tVerb+Past+A3sg
2\t1\tev\tNoun+A3sg+Nom
"""


def test_sidecar_parses_analyses():
    entries = read_morph_sidecar(SIDECAR)
    assert set(entries) == {(1, 1), (1, 2), (2, 1)}
    a = entries[(1, 1)]
    assert a.lemma == "insan"
    assert a.pos == "Noun"
    assert a.tags == ("A3pl", "Gen")


# Every token of BASIC, its sentences interleaved and its tokens out of order.
BASIC_SIDECAR = """\
1\t3\tal\tVerb+Past+A1sg
2\t1\tgel\tVerb+Past+A1sg
1\t1\tkuru\tAdj
1\t2\tyemiş\tNoun+A3sg+Nom
"""


def without_line(text, prefix):
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith(prefix))


def test_group_by_sentence_keeps_every_entry_in_file_order():
    sentences = parse_conllu(BASIC)
    sidecar = read_morph_sidecar(BASIC_SIDECAR)
    grouped = group_by_sentence(sidecar, sentences)
    assert isinstance(grouped, list)
    assert [list(analyses) for analyses in grouped] == [[3, 1, 2], [1]]
    # The analyses are the objects the reader made, not copies.
    assert all(grouped[ordinal - 1][token_id] is analysis
               for (ordinal, token_id), analysis in sidecar.items())


def test_group_by_sentence_is_aligned_with_the_sentences():
    rng = random.Random(5)
    sentences, _, analyses = random_treebank(rng, 40, max_len=12)
    entries = list(analyses.items())
    rng.shuffle(entries)
    grouped = group_by_sentence(dict(entries), sentences)
    assert len(grouped) == len(sentences)
    for ordinal, (sentence, sentence_analyses) in enumerate(
            zip(sentences, grouped), start=1):
        assert sorted(sentence_analyses) == [t.id for t in sentence.tokens]
        assert list(sentence_analyses) == [token_id for (o, token_id), _ in entries
                                           if o == ordinal]


def test_group_by_sentence_of_no_sentences():
    assert group_by_sentence({}, []) == []


@pytest.mark.parametrize("extra,ordinal,token_id", [
    ("1\t4\tev\tNoun", 1, 4), ("3\t1\tev\tNoun", 3, 1),
])
def test_group_by_sentence_rejects_an_entry_naming_no_token(extra, ordinal,
                                                            token_id):
    # The sidecar also lacks an analysis: the alignment error comes first.
    sidecar = read_morph_sidecar(without_line(BASIC_SIDECAR, "1\t1\t") + extra)
    with pytest.raises(AlignmentError) as excinfo:
        group_by_sentence(sidecar, parse_conllu(BASIC))
    assert str(excinfo.value) == (f"sidecar entry for sentence {ordinal} "
                                  f"token {token_id} names no token of the treebank")


@pytest.mark.parametrize("position", [(0, 1), (1, 0), (-1, 2)])
def test_group_by_sentence_rejects_a_position_below_one(position):
    sidecar = read_morph_sidecar(BASIC_SIDECAR)
    sidecar[position] = MorphAnalysis("ev", "Noun")
    with pytest.raises(AlignmentError, match="names no token of the treebank"):
        group_by_sentence(sidecar, parse_conllu(BASIC))


@pytest.mark.parametrize("dropped,message", [
    (("1\t1\t",), "sentence 1: token 1 ('Kuru')"),
    (("1\t3\t", "1\t2\t"), "sentence 1: token 2 ('yemiş')"),
    (("2\t1\t", "1\t3\t"), "sentence 1: token 3 ('aldım')"),
    (("2\t1\t",), "sentence 2: token 1 ('Geldim')"),
])
def test_group_by_sentence_reports_the_first_token_without_analysis(dropped,
                                                                    message):
    text = BASIC_SIDECAR
    for prefix in dropped:
        text = without_line(text, prefix)
    with pytest.raises(AnalysisError) as excinfo:
        group_by_sentence(read_morph_sidecar(text), parse_conllu(BASIC))
    assert str(excinfo.value) == message + " has no morphological analysis"


def test_sidecar_bare_root_has_no_tags():
    entries = read_morph_sidecar("1\t1\tve\tConj\n")
    assert entries[(1, 1)].tags == ()


def suffix_counts(analyses) -> tuple[dict, dict]:
    """Per lemma, the count of its analyses and of each tag in them:
    what :func:`count_morph_sidecar` counts, made from analyses."""
    lemmas, tags = Counter(), {}
    for analysis in analyses:
        lemmas[analysis.lemma] += 1
        tags.setdefault(analysis.lemma, Counter()).update(analysis.tags)
    return dict(lemmas), {lemma: dict(row) for lemma, row in tags.items()}


def counted(source) -> tuple[dict, dict]:
    counts = count_morph_sidecar(source).counts
    return counts.lemmas, counts.tags


def as_counted(read_outcome):
    """A :func:`read_morph_sidecar` outcome as :func:`counted` gives it."""
    if read_outcome[0] != "ok":
        return read_outcome
    return "ok", suffix_counts(read_outcome[1].values())


def test_sidecar_streaming_matches_dict():
    assert counted(SIDECAR) == suffix_counts(read_morph_sidecar(SIDECAR).values())


@pytest.mark.parametrize("line,message", [
    ("1\t1\tlemma", "expected 4"),
    ("x\t1\tlemma\tNoun", "must be integers"),
    ("0\t1\tlemma\tNoun", "must be >= 1"),
    ("1\t1\t\tNoun", "empty lemma"),
    ("1\t1\tlemma\tNoun++Gen", "unparseable morpheme sequence"),
])
def test_sidecar_malformed_lines(line, message):
    with pytest.raises(SidecarError, match=message):
        read_morph_sidecar(line + "\n")


def test_sidecar_duplicate_rejected():
    text = "1\t1\tev\tNoun\n1\t1\tev\tNoun+Acc\n"
    with pytest.raises(SidecarError, match="duplicate"):
        read_morph_sidecar(text)


def test_token_validation():
    with pytest.raises(ValueError):
        Token(id=0, form="x")
    with pytest.raises(ValueError):
        Token(id=1, form="")
    with pytest.raises(ValueError, match="itself"):
        Token(id=1, form="x", head=1)


def test_sentence_validation():
    with pytest.raises(ValueError, match="non-contiguous"):
        sent(tok(2, "x"))
    with pytest.raises(ValueError, match="head 3 of token 1 out of range"):
        sent(tok(1, "x", head=3), tok(2, "y", head=0))
    with pytest.raises(ValueError, match="exactly one root, found 0"):
        sent(tok(1, "x", head=2), tok(2, "y", head=1))
    with pytest.raises(ValueError, match="cycle"):
        sent(tok(1, "x", head=2), tok(2, "y", head=3), tok(3, "z", head=2),
             tok(4, "w", head=0))
    # Partial heads skip the tree checks.
    assert len(sent(tok(1, "x", head=2), tok(2, "y"))) == 2


# -- the readers against their earlier bodies -------------------------------
#
# ``reference_*`` below are the readers as they were before they checked
# each field once, shared repeated values and built objects without
# ``__post_init__``; the token and sentence checks they relied on are
# spelled out as ``reference_*_problem``.  On valid and mutated inputs
# the readers must return equal objects, or raise the same error with the
# same text and line.


def reference_token_problem(token):
    if token.id < 1:
        return f"token id must be >= 1, got {token.id}"
    if not token.form:
        return "token form must be non-empty"
    if token.head is not None:
        if token.head < 0:
            return f"head must be >= 0, got {token.head}"
        if token.head == token.id:
            return f"token {token.id} has itself as head"
    keys = [k for k, _ in token.feats]
    if len(set(keys)) != len(keys):
        return f"token {token.id} has duplicate feature keys"
    return None


def reference_sentence_problem(tokens):
    ids = [t.id for t in tokens]
    if ids != list(range(1, len(ids) + 1)):
        return "non-contiguous ids"
    n = len(ids)
    for t in tokens:
        if t.head is not None and t.head > n:
            return f"head {t.head} of token {t.id} out of range"
    if tokens and all(t.head is not None for t in tokens):
        roots = [t.id for t in tokens if t.head == 0]
        if len(roots) != 1:
            return f"expected exactly one root, found {len(roots)}"
        heads = {t.id: t.head for t in tokens}
        for start in heads:
            seen = set()
            cur = start
            while cur != 0:
                if cur in seen:
                    return "head graph contains a cycle"
                seen.add(cur)
                cur = heads[cur]
    return None


def reference_parse_conllu(text):
    sentences = []
    comments = []
    rows = []
    ranges = []

    def ordinal():
        return len(sentences) + 1

    def flush(line_no):
        nonlocal comments, rows, ranges
        if not comments and not rows and not ranges:
            return
        if not rows:
            raise ConlluError(ordinal(), line_no, "sentence has no token lines")
        tokens = []
        for ln, cols in rows:
            tokens.append(reference_token_from_columns(ln, cols, ordinal()))
        ids = [t.id for t in tokens]
        if ids != list(range(1, len(ids) + 1)):
            raise ConlluError(ordinal(), rows[0][0], "non-contiguous ids")
        n = len(tokens)
        for (ln, _), t in zip(rows, tokens):
            if t.head is not None and t.head > n:
                raise ConlluError(ordinal(), ln, f"head {t.head} out of range")
        problem = reference_sentence_problem(tokens)
        if problem is not None:
            raise ConlluError(ordinal(), rows[0][0], problem)
        sentences.append(Sentence(tuple(tokens), tuple(comments), tuple(ranges)))
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
        id_col = cols[0]
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


def reference_token_from_columns(line_no, cols, ordinal):
    def absent(value):
        return None if value == "_" else value

    try:
        token_id = int(cols[0])
    except ValueError:
        raise ConlluError(ordinal, line_no, f"bad token id {cols[0]!r}") from None
    head_raw = absent(cols[6])
    if head_raw is None:
        head = None
    else:
        try:
            head = int(head_raw)
        except ValueError:
            raise ConlluError(ordinal, line_no, f"bad head {head_raw!r}") from None

    feats = ()
    if cols[5] != "_":
        items = []
        seen = set()
        for item in cols[5].split("|"):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ConlluError(ordinal, line_no, f"bad feature item {item!r}")
            if key in seen:
                raise ConlluError(ordinal, line_no, f"duplicate feature key {key!r}")
            seen.add(key)
            items.append((key, value))
        feats = tuple(items)

    misc = ()
    if cols[9] != "_":
        items = []
        for item in cols[9].split("|"):
            if not item:
                raise ConlluError(ordinal, line_no, "empty item in MISC column")
            key, sep, value = item.partition("=")
            items.append((key, value if sep else None))
        misc = tuple(items)

    values = dict(id=token_id, form=cols[1], lemma=absent(cols[2]),
                  upos=absent(cols[3]), xpos=absent(cols[4]), feats=feats,
                  head=head, deprel=absent(cols[7]), deps=absent(cols[8]),
                  misc=misc)
    problem = reference_token_problem(SimpleNamespace(**values))
    if problem is not None:
        raise ConlluError(ordinal, line_no, problem)
    return Token(**values)


def reference_read_morph_sidecar(text):
    result = {}
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
        key = (sent_ord, token_id)
        if key in result:
            raise SidecarError(
                line_no, f"duplicate entry for sentence {key[0]} token {key[1]}")
        result[key] = analysis
    return result


def outcome(read, text):
    """What ``read(text)`` returns, or the type, text and place of its error."""
    try:
        return "ok", read(text)
    except (ConlluError, SidecarError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "sentence", None), exc.line


def kind_of(outcome):
    """The kind of an outcome: ok, or its error message without the
    place, numbers and quoted values."""
    if outcome[0] == "ok":
        return "ok"
    return re.sub(r"\d+|'.*'", "", outcome[1].split(": ", 1)[1])


def mutate_conllu_line(rng, line, n_tokens):
    """One of the ways a CoNLL-U token line goes wrong (or a valid variant)."""
    cols = line.split("\t")
    if len(cols) != 10:
        return rng.choice([line, ""])
    kind = rng.randrange(16)
    if kind == 0:
        cols[0] = rng.choice(["x", "0", "+1", " 2", "1_0", "-1", "3.1", "1-",
                              "2-1", "1-2-3", "a-b", "1-2", str(n_tokens + 2)])
    elif kind == 1:
        cols[6] = rng.choice(["y", "-1", "-0", cols[0], "0", str(n_tokens + 1),
                              "1", "_", " 1", "1.0"])
    elif kind == 2:
        cols[5] = rng.choice(["Case=Nom|Case=Acc", "Case", "=Nom", "Case=",
                              "A=1|B=2|A=3", "Case=Nom|", "Number[psor]=Sing"])
    elif kind == 3:
        cols[9] = rng.choice(["a||b", "|", "Flag", "K=V|", "SpaceAfter=No",
                              "=x", "a=b=c"])
    elif kind == 4:
        cols[rng.randrange(10)] = ""
    elif kind == 5:
        del cols[rng.randrange(10)]
    elif kind == 6:
        cols.append("extra")
    elif kind == 7:
        cols[0] = cols[0] + ".1"
    elif kind == 8:
        cols[1] = "_"
    elif kind == 9:
        cols[rng.choice([2, 3, 4, 7, 8])] = rng.choice(["_", "NOUN", "x y", "İ"])
    elif kind == 10:
        return "# " + line
    elif kind == 11:
        return ""
    elif kind == 12:
        return line + "\n" + line
    elif kind == 13:
        return "   "
    elif kind == 14:
        cols[6] = str(rng.randint(0, n_tokens + 1))
    else:
        cols[0] = str(rng.randint(0, n_tokens + 1))
    return "\t".join(cols)


def mutate_sidecar_line(rng, line):
    cols = line.split("\t")
    if len(cols) != 4:
        return rng.choice([line, ""])
    kind = rng.randrange(12)
    if kind == 0:
        cols[rng.randrange(2)] = rng.choice(["x", "0", "-1", "+3", " 2", "1_0", ""])
    elif kind == 1:
        cols[2] = ""
    elif kind == 2:
        cols[3] = rng.choice(["Noun++Gen", "+Noun", "Noun+", "", "+", "Noun"])
    elif kind == 3:
        del cols[rng.randrange(4)]
    elif kind == 4:
        cols.append("extra")
    elif kind == 5:
        return line + "\n" + line
    elif kind == 6:
        return "# " + line
    elif kind == 7:
        return rng.choice(["", "   ", "\t", " \u3000"])
    elif kind == 8:
        cols[2] = rng.choice(["ev", "gel", cols[2] + " "])
    elif kind == 9:
        return line + "\n" + "\t".join(cols[:2] + ["ev", "Noun+A3sg"])
    elif kind == 10:
        cols[0], cols[1] = cols[1], cols[0]
    else:
        cols[3] = "Verb+Past+A3sg"
    return "\t".join(cols)


def mutated(rng, lines, mutate):
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(lines))
        lines[at] = mutate(lines[at])
    return "\n".join(lines) + rng.choice(["\n", "\n\n", ""])


def reference_columns(text):
    """Each sentence's heads and deprels, as the reference reads them."""
    return [(tuple(t.head for t in s.tokens), tuple(t.deprel for t in s.tokens))
            for s in reference_parse_conllu(text)]


def test_parse_conllu_matches_reference():
    kinds = set()
    for seed in range(4):
        rng = random.Random(seed)
        sentences = [random_conllu_sentence(rng) for _ in range(200)]
        text = write_conllu(sentences)
        assert outcome(parse_conllu, text) == outcome(reference_parse_conllu, text) \
            == ("ok", sentences)
        assert outcome(read_columns, text) == outcome(reference_columns, text)
        blocks = text.split("\n\n")

        def mutate(line):
            if not line or line.startswith("#"):
                return rng.choice([line, "", "# x",
                                   "1\tw\t_\t_\t_\t_\t0\troot\t_\t_"])
            return mutate_conllu_line(rng, line, 12)

        for _ in range(400):
            start = rng.randrange(len(blocks) - 3)
            lines = "\n\n".join(blocks[start:start + rng.randint(1, 3)]).splitlines()
            case = mutated(rng, lines, mutate)
            got = outcome(parse_conllu, case)
            assert got == outcome(reference_parse_conllu, case), case
            # The column reader runs the same checks, and keeps only
            # the heads and deprels.
            assert outcome(read_columns, case) == outcome(reference_columns, case), case
            kinds.add(kind_of(got))
    assert kinds == {
        "ok", "sentence has no token lines", "expected  tab-separated columns, got ",
        "empty column", "bad token range ", "empty-node lines are not supported",
        "bad token id ", "bad head ", "bad feature item ", "duplicate feature key ",
        "empty item in MISC column", "token id must be >= , got ",
        "head must be >= , got -", "token  has itself as head",
        "non-contiguous ids", "head  out of range",
        "expected exactly one root, found ", "head graph contains a cycle"}


def test_read_morph_sidecar_matches_reference():
    kinds = set()
    for seed in range(4):
        rng = random.Random(seed)
        lemmas = ["ev", "gel", "göz", "kapı", "insan"]
        morphemes = ["Noun+A3sg+Nom", "Noun+A3pl+Gen", "Verb+Past+A3sg", "Adv", "Adj"]
        lines = ["# ord\ttoken\tlemma\tmorphemes"]
        for ordinal in range(1, 30):
            for token_id in range(1, rng.randint(2, 12)):
                lines.append(f"{ordinal}\t{token_id}\t{rng.choice(lemmas)}\t"
                             f"{rng.choice(morphemes)}")
        text = "\n".join(lines) + "\n"
        expected = reference_read_morph_sidecar(text)
        assert read_morph_sidecar(text) == expected
        assert counted(text) == suffix_counts(expected.values())
        for _ in range(200):
            case = mutated(rng, lines, lambda line: mutate_sidecar_line(rng, line))
            got = outcome(read_morph_sidecar, case)
            assert got == outcome(reference_read_morph_sidecar, case), case
            assert outcome(counted, case) == as_counted(got), case
            kinds.add(kind_of(got))
    assert kinds == {
        "ok", "expected  tab-separated columns, got ",
        "sentence ordinal and token id must be integers",
        "sentence ordinal and token id must be >= ", "empty lemma",
        "unparseable morpheme sequence ", "duplicate entry for sentence  token "}


def test_a_count_read_on_from_an_earlier_one_counts_the_whole_stream():
    # What ``matrix`` does when it counts the second half of a corpus
    # after the first: the same counts, errors and line numbers as one
    # count of the whole.
    rng = random.Random(81)
    lines = [f"{ordinal}\t{token_id}\t{rng.choice(['ev', 'gel', 'göz'])}\t"
             f"{rng.choice(['Noun+A3sg', 'Verb+Past+A3sg', 'Adv'])}"
             for ordinal in range(1, 15) for token_id in range(1, 5)]

    def in_two(at):
        def count(text):
            first = count_morph_sidecar(text[:at])
            second = count_morph_sidecar(text[at:], first)
            first.counts.update(second.counts)
            return first.counts.lemmas, first.counts.tags
        return count

    kinds = set()
    for _ in range(300):
        case = mutated(rng, lines, lambda line: mutate_sidecar_line(rng, line))
        breaks = [k + 1 for k, char in enumerate(case) if char == "\n"]
        at = rng.choice(breaks)
        whole = outcome(counted, case)
        assert outcome(in_two(at), case) == whole, (case, at)
        kinds.add(kind_of(whole))
    assert {"ok", "duplicate entry for sentence  token "} <= kinds


def test_streamed_readers_match_string_reads_at_any_chunk_boundary():
    rng = random.Random(77)
    text = write_conllu([random_conllu_sentence(rng) for _ in range(60)])
    blocks = text.split("\n\n")
    for _ in range(150):
        start = rng.randrange(len(blocks) - 3)
        lines = "\n\n".join(blocks[start:start + rng.randint(1, 3)]).splitlines()
        case = mutated(rng, lines, lambda line: line if not line or line[0] == "#"
                       else mutate_conllu_line(rng, line, 12))
        case = case.replace("\n", rng.choice(["\n", "\r\n", "\r"]))
        limit = rng.randint(1, 64)
        assert outcome(parse_conllu, ShortReads(case, limit)) \
            == outcome(parse_conllu, case), (case, limit)
        assert outcome(read_columns, ShortReads(case, limit)) \
            == outcome(read_columns, case), (case, limit)

    lemmas = ["ev", "gel", "göz", "kapı"]
    morphemes = ["Noun+A3sg+Nom", "Verb+Past+A3sg", "Adv"]
    lines = [f"{ordinal}\t{token_id}\t{rng.choice(lemmas)}\t{rng.choice(morphemes)}"
             for ordinal in range(1, 12) for token_id in range(1, 6)]
    for _ in range(300):
        case = mutated(rng, lines, lambda line: mutate_sidecar_line(rng, line))
        case = case.replace("\n", rng.choice(["\n", "\r\n", "\r", "\x85"]))
        limit = rng.randint(1, 64)
        expected = outcome(read_morph_sidecar, case)
        assert outcome(read_morph_sidecar, ShortReads(case, limit)) == expected
        assert outcome(counted, ShortReads(case, limit)) \
            == as_counted(expected), (case, limit)


@pytest.mark.parametrize("bad,message", [
    ("2\t1\tev", "line 3: expected 4 tab-separated columns, got 3"),
    ("2\t1\tev\tNoun\tAcc", "line 3: expected 4 tab-separated columns, got 5"),
    ("2\tx\tev\tNoun", "line 3: sentence ordinal and token id must be integers"),
    ("x\t1\tgöz\tNoun+Acc",
     "line 3: sentence ordinal and token id must be integers"),
    ("0\t1\tev\tNoun", "line 3: sentence ordinal and token id must be >= 1"),
    ("2\t0\tgöz\tNoun+Acc", "line 3: sentence ordinal and token id must be >= 1"),
    ("0\t1\t\tNoun", "line 3: sentence ordinal and token id must be >= 1"),
    ("2\t1\t\tNoun", "line 3: empty lemma"),
    ("2\t1\tev\tNoun++Acc", "line 3: unparseable morpheme sequence 'Noun++Acc'"),
    ("1\t2\tev\tNoun", "line 3: duplicate entry for sentence 1 token 2"),
])
def test_sidecar_error_names_its_line_wherever_the_chunks_end(bad, message):
    # The lines before ``bad`` are good.  Several cases repeat their lemma
    # and morpheme text, which the reader then has checked already: the
    # column and position checks still run on every line, and a bad text
    # fails on its first line.
    text = f"1\t1\tev\tNoun\r\n1\t2\tgöz\tNoun+Acc\r\n{bad}\r\n3\t1\tev\tAdv\n"
    for limit in range(1, len(text) + 1):
        for read in (read_morph_sidecar, count_morph_sidecar):
            with pytest.raises(SidecarError) as excinfo:
                read(ShortReads(text, limit))
            assert str(excinfo.value) == message, limit


def test_sidecar_analyses_share_equal_lemmas_and_tags():
    sidecar = read_morph_sidecar("1\t1\tev\tNoun+A3sg\n1\t2\tev\tNoun+A3sg\n"
                                 "2\t1\tev\tNoun+A3pl\n# 2\t2\tev\tNoun\n")
    first, second = sidecar[1, 1], sidecar[2, 1]
    assert first == MorphAnalysis("ev", "Noun", ("A3sg",))
    assert second == MorphAnalysis("ev", "Noun", ("A3pl",))
    # Equal lemmas and tags are one string within a read.
    assert first.lemma is second.lemma and first.pos is second.pos


def test_readers_share_repeated_values_within_a_read():
    text = ("1\tev\tev\tNOUN\t_\tCase=Nom\t2\tnmod\t_\tSpaceAfter=No\n"
            "2\tev\tev\tNOUN\t_\tCase=Nom\t0\troot\t_\tSpaceAfter=No\n\n")
    first, second = parse_conllu(text)[0].tokens
    for name in ("form", "lemma", "upos", "feats", "misc"):
        assert getattr(first, name) is getattr(second, name)
    sidecar = read_morph_sidecar("1\t1\tev\tNoun+A3sg\n1\t2\tev\tNoun+A3sg\n"
                                 "1\t3\tev\tNoun+A3pl\n")
    assert sidecar[1, 1] is sidecar[1, 2]
    assert sidecar[1, 1] is not sidecar[1, 3]
    # Nothing is shared between reads.
    assert read_morph_sidecar("1\t1\tev\tNoun+A3sg\n")[1, 1] is not sidecar[1, 1]


def test_read_types_are_slotted():
    (sentence,) = parse_conllu(BASIC)[:1]
    for obj in (sentence, sentence.tokens[0],
                read_morph_sidecar(SIDECAR)[1, 1]):
        assert not hasattr(obj, "__dict__")
