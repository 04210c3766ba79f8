"""Feature encoding and its CoNLL-U / JSON-lines exports."""

import json
import random
from dataclasses import replace

import pytest

from ruleparse import (FeatureBundle, HybridConfig, RuleAssignment, RuleCode,
                       Sentence, Token, bundle_from_token, build_matrix, encode,
                       export, export_jsonl, parse_conllu, write_conllu)
from ruleparse.errors import InputFormatError
from ruleparse.features import (MODE_INFL, MODE_LAST, MODE_RULE, MODE_SUFVEC,
                                RESERVED_MISC_KEYS, RULE_CODE_HEADER,
                                _bundle_misc)

from conftest import ma, random_conllu_sentence, sent, tok

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


def test_hybrid_config_from_flag():
    assert HybridConfig.from_flag("rule").modes == {MODE_RULE}
    assert HybridConfig.from_flag("rule+last").modes == {MODE_RULE, MODE_LAST}
    assert HybridConfig.from_flag("sufvec").modes == {MODE_SUFVEC}
    with pytest.raises(ValueError, match="unknown hybrid mode"):
        HybridConfig.from_flag("rule+sufvec")


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
