"""Feature encoding and its CoNLL-U / JSON-lines exports."""

import json
import random
from dataclasses import replace
from itertools import chain

import pytest

from ruleparse import (FeatureBundle, HybridConfig, RuleAssignment, RuleCode,
                       Sentence, Token, bundle_from_token, build_matrix, encode,
                       export, export_jsonl, parse_conllu, write_conllu)
from ruleparse.conllu import _token_line, format_misc
from ruleparse.errors import InputFormatError
from ruleparse.features import (FLAG_MODES, MODE_INFL, MODE_LAST, MODE_RULE,
                                MODE_SUFVEC, RESERVED_MISC_KEYS,
                                RULE_CODE_HEADER, _bundle_misc)

from conftest import Written, ma, random_conllu_sentence, sent, tok

RULE_ONLY = HybridConfig(frozenset({MODE_RULE}))
RULE_LAST = HybridConfig(frozenset({MODE_RULE, MODE_LAST}))


@pytest.fixture
def example():
    sentence = sent(
        tok(1, "Kuru", "NOUN", "kuru"),
        tok(2, "yemiş", "NOUN", "yemiş"),
        tok(3, "aldım", "VERB", "al"),
    )
    analyses = {
        1: ma("kuru", "Noun", "A3sg", "Nom"),
        2: ma("yemiş", "Noun", "A3sg", "Nom"),
        3: ma("al", "Verb", "Past", "A1sg"),
    }
    assignments = [RuleAssignment(2, 1, RuleCode.NC)]
    return sentence, analyses, assignments


def test_hybrid_config_validation():
    with pytest.raises(ValueError, match="unknown feature modes"):
        HybridConfig(frozenset({"bogus"}))
    with pytest.raises(ValueError, match="mutually exclusive"):
        HybridConfig(frozenset({MODE_LAST, MODE_SUFVEC}))


def test_hybrid_flag_modes():
    # The table is the --hybrid flag's choices, in the order --help lists.
    assert list(FLAG_MODES) == ["rule", "infl", "last", "sufvec", "rule+last"]
    assert FLAG_MODES["rule"] == {MODE_RULE}
    assert FLAG_MODES["rule+last"] == {MODE_RULE, MODE_LAST}
    assert FLAG_MODES["sufvec"] == {MODE_SUFVEC}
    for modes in FLAG_MODES.values():
        assert HybridConfig(modes).modes == modes


def test_rule_mode_marks_unassigned_tokens_none(example):
    sentence, analyses, assignments = example
    bundles = encode(sentence, assignments, None, None, RULE_ONLY)
    assert [b.rule_code for b in bundles] == ["NONE", "NC", "NONE"]
    assert all(b.last_suffix is None for b in bundles)


def test_last_suffix_mode(example):
    sentence, analyses, _ = example
    config = HybridConfig(frozenset({MODE_LAST}))
    bundles = encode(sentence, None, analyses, None, config)
    assert [b.last_suffix for b in bundles] == ["Nom", "Nom", "A1sg"]
    assert all(b.rule_code is None for b in bundles)


def test_bare_root_has_no_last_suffix():
    sentence = sent(tok(1, "ve", "CCONJ", "ve"))
    bundles = encode(sentence, None, {1: ma("ve", "Conj")}, None,
                     HybridConfig(frozenset({MODE_LAST})))
    assert bundles[0].last_suffix is None
    text = export([sentence], [bundles])
    assert "LastSuffix" not in text


def test_inflectional_mode_filters_by_suffix_class(example):
    sentence, analyses, _ = example
    analyses = dict(analyses)
    # A participle: PastPart is derivational, the rest are inflectional.
    analyses[3] = ma("al", "Verb", "PastPart", "P3sg", "Nom")
    config = HybridConfig(frozenset({MODE_INFL}))
    bundles = encode(sentence, None, analyses, None, config)
    assert bundles[0].inflectional_suffixes == ("A3sg", "Nom")
    assert bundles[2].inflectional_suffixes == ("P3sg", "Nom")


def test_suffix_modes_require_analyses(example):
    sentence, _, _ = example
    config = HybridConfig(frozenset({MODE_LAST}))
    with pytest.raises(ValueError, match="no morphological analysis"):
        encode(sentence, None, {1: ma("kuru", "Noun")}, None, config)


def test_matrix_required_exactly_for_sufvec(example):
    sentence, analyses, _ = example
    matrix = build_matrix(analyses.values())
    with pytest.raises(ValueError, match="matrix"):
        encode(sentence, None, analyses, None,
               HybridConfig(frozenset({MODE_SUFVEC})))
    with pytest.raises(ValueError, match="matrix"):
        encode(sentence, None, analyses, matrix, RULE_ONLY)


def test_suffix_vector_mode_emits_nine_decimals(example):
    sentence, analyses, _ = example
    matrix = build_matrix(analyses.values())
    bundles = encode(sentence, None, analyses, matrix,
                     HybridConfig(frozenset({MODE_SUFVEC})))
    assert len(bundles[0].suffix_vector) == 81
    text = export([sentence], [bundles])
    line = next(l for l in text.splitlines() if l.startswith("1\t"))
    vector = line.split("SufVec=")[1]
    values = vector.split(",")
    assert len(values) == 81
    assert all(len(v.split(".")[1]) == 9 for v in values)


def test_export_injects_header_once(example):
    sentence, _, assignments = example
    bundles = encode(sentence, assignments, None, None, RULE_ONLY)
    text = export([sentence, sentence], [bundles, bundles])
    assert text.count(RULE_CODE_HEADER) == 1
    assert text.splitlines()[0] == RULE_CODE_HEADER


def test_reexport_is_idempotent(example):
    sentence, analyses, assignments = example
    bundles = encode(sentence, assignments, analyses, None, RULE_LAST)
    text = export([sentence], [bundles])
    reparsed = parse_conllu(text)
    bundles_again = [bundle_from_token(t) for t in reparsed[0]]
    assert export(reparsed, [bundles_again]) == text


def test_reserved_keys_are_replaced_not_duplicated(example):
    sentence, _, assignments = example
    tokens = [tok(t.id, t.form, t.upos, t.lemma,
                  misc=(("Rule", "NV"), ("SpaceAfter", "No")))
              for t in sentence.tokens]
    dirty = sent(*tokens)
    bundles = encode(dirty, assignments, None, None, RULE_ONLY)
    text = export([dirty], [bundles])
    line = next(l for l in text.splitlines() if l.startswith("2\t"))
    assert line.count("Rule=") == 1
    assert "Rule=NC" in line
    assert "SpaceAfter=No" in line


def test_bundles_survive_a_round_trip(example):
    sentence, analyses, assignments = example
    bundles = encode(sentence, assignments, analyses, None, RULE_LAST)
    reparsed = parse_conllu(export([sentence], [bundles]))
    assert [bundle_from_token(t) for t in reparsed[0]] == bundles


def test_empty_inflectional_value_round_trips():
    sentence = sent(tok(1, "ve", "CCONJ", "ve"))
    bundles = encode(sentence, None, {1: ma("ve", "Conj")}, None,
                     HybridConfig(frozenset({MODE_INFL})))
    assert bundles[0].inflectional_suffixes == ()
    text = export([sentence], [bundles])
    assert "InflSuffixes=" in text
    reparsed = parse_conllu(text)
    assert bundle_from_token(reparsed[0].tokens[0]).inflectional_suffixes == ()


def test_misaligned_bundles_rejected(example):
    sentence, _, assignments = example
    bundles = encode(sentence, assignments, None, None, RULE_ONLY)
    with pytest.raises(ValueError, match="align"):
        export([sentence], [bundles[:-1]])
    with pytest.raises(ValueError, match="align"):
        export([sentence, sentence], [bundles])


def test_jsonl_export(example):
    sentence, analyses, assignments = example
    bundles = encode(sentence, assignments, analyses, None, RULE_LAST)
    lines = export_jsonl([sentence], [bundles]).splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["token"] for r in records] == [1, 2, 3]
    assert records[1] == {"sentence": 1, "token": 2, "form": "yemiş",
                          "rule": "NC", "last_suffix": "Nom"}
    assert "suffix_vector" not in records[0]


def test_jsonl_of_nothing_is_empty():
    assert export_jsonl([], []) == ""


def test_reserved_key_list_matches_header_constant():
    assert RESERVED_MISC_KEYS == ("Rule", "LastSuffix", "InflSuffixes", "SufVec")
    assert RULE_CODE_HEADER == (
        "# rule-codes = CPI NC PC AC AJC AAJ AV AJN NV NONE")


# -- export against the token-rebuilding reference ---------------------------


def reference_export(sentences, bundles):
    """Rebuild every token with its new MISC items and serialize that."""
    if len(sentences) != len(bundles):
        raise InputFormatError("feature bundles do not align with sentences")
    annotated = []
    for i, (sentence, per_sent) in enumerate(zip(sentences, bundles)):
        if len(per_sent) != len(sentence.tokens):
            raise InputFormatError("feature bundles do not align with tokens")
        tokens = []
        for token, bundle in zip(sentence.tokens, per_sent):
            kept = tuple((k, v) for k, v in token.misc
                         if k not in RESERVED_MISC_KEYS)
            tokens.append(Token(
                id=token.id, form=token.form, lemma=token.lemma,
                upos=token.upos, xpos=token.xpos, feats=token.feats,
                head=token.head, deprel=token.deprel, deps=token.deps,
                misc=kept + tuple(_bundle_misc(bundle))))
        comments = sentence.comments
        if i == 0 and RULE_CODE_HEADER not in comments:
            comments = (RULE_CODE_HEADER,) + comments
        annotated.append(Sentence(tuple(tokens), comments, sentence.ranges))
    return write_conllu(annotated)


_RESERVED_ITEMS = (("Rule", "NV"), ("Rule", None), ("LastSuffix", "Gen"),
                   ("InflSuffixes", ""), ("SufVec", "0.5,0.5"))


def random_bundle(rng):
    def maybe(value):
        return value if rng.random() < 0.5 else None
    return FeatureBundle(
        rule_code=maybe(rng.choice([c.value for c in RuleCode])),
        last_suffix=maybe(rng.choice(("Gen", "Acc", "P3sg"))),
        inflectional_suffixes=maybe(tuple(rng.sample(("A3pl", "Gen", "Loc"),
                                                     rng.randint(0, 2)))),
        suffix_vector=maybe(tuple(rng.random() for _ in range(rng.randint(0, 3)))),
    )


def with_reserved_items(rng, token):
    """The token with reserved MISC items mixed into its own."""
    items = list(token.misc) + rng.sample(_RESERVED_ITEMS, rng.randint(0, 2))
    rng.shuffle(items)
    return replace(token, misc=tuple(items))


def random_export_input(rng):
    sentences = []
    for _ in range(rng.randint(0, 6)):
        sentence = random_conllu_sentence(rng)
        tokens = tuple(with_reserved_items(rng, t) for t in sentence.tokens)
        comments = sentence.comments
        if rng.random() < 0.3:
            at = rng.randint(0, len(comments))
            comments = comments[:at] + (RULE_CODE_HEADER,) + comments[at:]
        sentences.append(Sentence(tokens, comments, sentence.ranges))
    bundles = [[random_bundle(rng) for _ in s.tokens] for s in sentences]
    return sentences, bundles


def test_export_matches_token_rebuilding_reference():
    rng = random.Random(4242)
    for _ in range(300):
        sentences, bundles = random_export_input(rng)
        assert export(sentences, bundles) == reference_export(sentences, bundles)


def test_export_rejects_what_the_reference_rejects():
    rng = random.Random(4243)
    checked = 0
    while checked < 50:
        sentences, bundles = random_export_input(rng)
        if not sentences:
            continue
        at = rng.randrange(len(sentences))
        bundles[at] = bundles[at][:-1] + [random_bundle(rng)] * rng.choice((0, 2))
        for candidate in (bundles, bundles[:-1]):
            with pytest.raises(InputFormatError):
                reference_export(sentences, candidate)
            with pytest.raises(InputFormatError, match="align"):
                export(sentences, candidate)
        checked += 1


# -- JSON lines against the per-token serialization reference ----------------


def reference_export_jsonl(sentences, bundles):
    """Serialize every token's record, vector included, on its own."""
    lines = []
    for ordinal, (sentence, per_sent) in enumerate(zip(sentences, bundles), start=1):
        for token, bundle in zip(sentence.tokens, per_sent):
            record = {"sentence": ordinal, "token": token.id, "form": token.form}
            if bundle.rule_code is not None:
                record["rule"] = bundle.rule_code
            if bundle.last_suffix is not None:
                record["last_suffix"] = bundle.last_suffix
            if bundle.inflectional_suffixes is not None:
                record["infl_suffixes"] = list(bundle.inflectional_suffixes)
            if bundle.suffix_vector is not None:
                record["suffix_vector"] = [round(v, 9) for v in bundle.suffix_vector]
            lines.append(json.dumps(record, ensure_ascii=False))
    return "\n".join(lines) + ("\n" if lines else "")


# A form holds no TAB or line break (a Token rejects one), but JSON still
# escapes the other control characters.
_ODD_FORMS = ("\"quoted\"", "back\\slash", "vt\x0bhere", "ğüşiöç", "İstanbul'a",
              "😀")


def random_jsonl_input(rng):
    width = rng.randint(0, 6)
    values = (0.0, -0.0, 1.0, 1 / 3, 2 / 3, 1e-12, -1e-12, 0.1234567895)
    # Matrix rows are shared by every token of their lemma; an unseen
    # lemma gets a fresh all-zero row.
    rows = [tuple(rng.choice(values) for _ in range(width)) for _ in range(4)]
    sentences, bundles = [], []
    for _ in range(rng.randint(0, 5)):
        sentence = random_conllu_sentence(rng)
        tokens = tuple(replace(t, form=rng.choice(_ODD_FORMS))
                       if rng.random() < 0.2 else t for t in sentence.tokens)
        sentences.append(Sentence(tokens, sentence.comments, sentence.ranges))
        per_sent = []
        for _ in tokens:
            bundle = random_bundle(rng)
            vector = rng.choice([None, (0.0,) * width, rng.choice(rows),
                                 tuple(rng.choice(rows)), bundle.suffix_vector])
            per_sent.append(replace(bundle, suffix_vector=vector))
        bundles.append(per_sent)
    return sentences, bundles


def test_jsonl_export_matches_per_token_reference():
    rng = random.Random(4244)
    for _ in range(300):
        sentences, bundles = random_jsonl_input(rng)
        assert export_jsonl(sentences, bundles) \
            == reference_export_jsonl(sentences, bundles)


def test_jsonl_export_tells_zero_from_negative_zero():
    sentence = sent(tok(1, "a"), tok(2, "b"))
    bundles = [FeatureBundle(suffix_vector=(0.0, 1.0)),
               FeatureBundle(suffix_vector=(-0.0, 1.0))]
    records = export_jsonl([sentence], [bundles]).splitlines()
    assert records[0].endswith('"suffix_vector": [0.0, 1.0]}')
    assert records[1].endswith('"suffix_vector": [-0.0, 1.0]}')


# -- streamed exports --------------------------------------------------------


def test_exports_to_a_handle_write_a_sentence_at_a_time():
    rng = random.Random(4245)
    for _ in range(100):
        sentences, bundles = random_jsonl_input(rng)
        for write in (export, export_jsonl):
            out = Written()
            assert write(sentences, bundles, out) is None
            assert len(out.chunks) == len(sentences)
            assert "".join(out.chunks) == write(sentences, bundles)


@pytest.mark.parametrize("write", [export, export_jsonl])
def test_exports_check_before_the_first_chunk(example, write):
    sentence, _, assignments = example
    bundles = encode(sentence, assignments, None, None, RULE_ONLY)
    out = Written()
    with pytest.raises(InputFormatError, match="sentence 2: .* align"):
        write([sentence, sentence], [bundles, bundles[:-1]], out)
    with pytest.raises(InputFormatError, match="align"):
        write([sentence, sentence], [bundles], out)
    assert out.chunks == []


def test_every_written_line_is_the_token_line_of_its_token():
    # Tokens equal in every column but MISC, or but one other column,
    # beside ``_`` fields, range lines and comments.  The export reuses a
    # bundle's MISC text across tokens with no MISC items; each line is
    # still the one ``_token_line`` gives its token.
    word = {"form": "ev", "lemma": "ev", "upos": "NOUN", "xpos": "Noun",
            "feats": (("Case", "Nom"),), "deprel": "nmod", "deps": "2:nmod"}
    sentences = [
        sent(Token(1, head=2, misc=(("SpaceAfter", "No"),), **word),
             Token(2, "_", lemma="_", upos="_", xpos="_", head=0, deprel="_",
                   deps="_"),
             Token(3, head=2, misc=(("SpaceAfter", "No"),), **word),
             *[Token(k, head=2, **{**word, **change}) for k, change in enumerate(
                 ({"lemma": "evler"}, {"upos": "PROPN"}, {"xpos": "Noun+Sg"},
                  {"deprel": "obl"}, {"deps": "4:obj"}), start=4)],
             comments=("# sent_id = 1",)),
        sent(Token(1, head=2, misc=(("Translit", "ev"), ("Rule", "NV")), **word),
             Token(2, head=0, **{**word, "form": "evde",
                                 "feats": (("Case", "Loc"),)}),
             comments=("# sent_id = 2", "# text = ev evde"),
             ranges=((0, "1-2\tevevde\t_\t_\t_\t_\t_\t_\t_\t_"),
                     (2, "3-4\tx\t_\t_\t_\t_\t_\t_\t_\t_"))),
    ]
    tokens = [t for s in sentences for t in s.tokens]

    def token_lines(text):
        return [line for line in text.splitlines()
                if line and not line.startswith("#")
                and "-" not in line.split("\t")[0]]

    assert token_lines(write_conllu(sentences)) == [_token_line(t) for t in tokens]
    misc = [["A=1", "_", "A=1", "B", "B", "B", "B", "B"], ["A=1", "B"]]
    assert token_lines(write_conllu(sentences, misc)) == [
        _token_line(t, m) for t, m in zip(tokens, chain(*misc))]

    # Equal MISC items with bundles that differ only in the sign of a zero,
    # different MISC items with equal bundles, and equal bundles on
    # tokens with no MISC items in both sentences.
    bundles = [[FeatureBundle("NV", suffix_vector=(0.0,)), FeatureBundle("NONE"),
                FeatureBundle("NV", suffix_vector=(-0.0,)),
                *[FeatureBundle("NV")] * 5],
               [FeatureBundle("NV", suffix_vector=(0.0,)), FeatureBundle("NONE")]]
    text = export(sentences, bundles)
    want = [_token_line(t, format_misc(
        [item for item in t.misc if item[0] not in RESERVED_MISC_KEYS]
        + _bundle_misc(b))) for t, b in zip(tokens, chain(*bundles))]
    assert token_lines(text) == want
    assert want[0].endswith("\tSpaceAfter=No|Rule=NV|SufVec=0.000000000")
    assert want[2].endswith("\tSpaceAfter=No|Rule=NV|SufVec=-0.000000000")
    reparsed = parse_conllu(text)
    assert export(reparsed, [[bundle_from_token(t) for t in s.tokens]
                             for s in reparsed]) == text
