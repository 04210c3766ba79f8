"""Parsing and serialization of CoNLL-U streams and morph sidecars."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleparse import (ConlluError, SidecarError, Token, parse_conllu,
                       read_morph_sidecar, write_conllu)
from ruleparse.conllu import iter_morph_sidecar

from conftest import random_conllu_sentence, sent, tok

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


def test_sidecar_bare_root_has_no_tags():
    entries = read_morph_sidecar("1\t1\tve\tConj\n")
    assert entries[(1, 1)].tags == ()


def test_sidecar_streaming_matches_dict():
    assert dict(iter_morph_sidecar(SIDECAR)) == read_morph_sidecar(SIDECAR)


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
