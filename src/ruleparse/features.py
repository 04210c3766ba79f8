"""Per-token feature bundles and their CoNLL-U/JSON-lines export.

Features ride in the MISC column under four reserved keys:

    Rule=CPI            rule code of the head decision (NONE if untouched)
    LastSuffix=Gen      final morpheme tag (omitted for bare roots)
    InflSuffixes=A3pl+Gen   inflectional tags, plus-joined (may be empty)
    SufVec=0.25,...     lemma suffix vector, 9-decimal fixed point

Absent fields are omitted; re-exporting a parsed export is idempotent
because reserved keys are replaced, never duplicated.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import IO, Iterator, Mapping, Sequence

from .conllu import Sentence, Token, format_misc, write_conllu
from .engine import RuleAssignment, RuleCode
from .errors import AnalysisError, InputFormatError
from .morpho import (LemmaSuffixMatrix, MorphAnalysis, SuffixInventory,
                     inflectional_suffixes, last_suffix, suffix_vector)
from .textio import join_or_write

MODE_RULE = "rule"
MODE_INFL = "inflectional_suffixes"
MODE_LAST = "last_suffix"
MODE_SUFVEC = "suffix_vector"
ALL_MODES = frozenset({MODE_RULE, MODE_INFL, MODE_LAST, MODE_SUFVEC})
_SUFFIX_MODES = frozenset({MODE_INFL, MODE_LAST, MODE_SUFVEC})

RESERVED_MISC_KEYS = ("Rule", "LastSuffix", "InflSuffixes", "SufVec")

_NONE = RuleCode.NONE.value
RULE_CODE_HEADER = "# rule-codes = " + " ".join(
    [c.value for c in RuleCode if c is not RuleCode.NONE] + [_NONE])

# The values of the ``--hybrid`` flag, and the modes each one selects.
FLAG_MODES = {
    "rule": frozenset({MODE_RULE}),
    "infl": frozenset({MODE_INFL}),
    "last": frozenset({MODE_LAST}),
    "sufvec": frozenset({MODE_SUFVEC}),
    "rule+last": frozenset({MODE_RULE, MODE_LAST}),
}


@dataclass(frozen=True)
class HybridConfig:
    """Which feature families to produce.

    At most one suffix-based mode may be selected at a time; the rule
    mode combines freely with any one of them.
    """

    modes: frozenset[str] = frozenset({MODE_RULE})

    def __post_init__(self):
        unknown = self.modes - ALL_MODES
        if unknown:
            raise ValueError(f"unknown feature modes: {sorted(unknown)}")
        if len(self.modes & _SUFFIX_MODES) > 1:
            raise ValueError("suffix-based feature modes are mutually exclusive")


@dataclass(frozen=True)
class FeatureBundle:
    """Features for one token; unselected or absent fields are None."""

    rule_code: str | None = None
    last_suffix: str | None = None
    inflectional_suffixes: tuple[str, ...] | None = None
    suffix_vector: tuple[float, ...] | None = None


# A bundle is frozen, so the tokens of one rule code (or of none, with
# the rule mode off) share one when no suffix mode is selected.
_CODE_BUNDLES = {code: FeatureBundle(rule_code=code)
                 for code in [None, *(c.value for c in RuleCode)]}


def encode(sentence: Sentence,
           assignments: Sequence[RuleAssignment] | None,
           analyses: Mapping[int, MorphAnalysis] | None,
           matrix: LemmaSuffixMatrix | None,
           config: HybridConfig,
           inventory: SuffixInventory | None = None) -> list[FeatureBundle]:
    """One feature bundle per token, fields per the selected modes.

    Suffix modes need an analysis for every token; the suffix-vector
    mode additionally needs ``matrix`` (and only then may one be given).
    """
    if (MODE_SUFVEC in config.modes) != (matrix is not None):
        raise ValueError("a lemma-suffix matrix is required exactly when "
                         "the suffix_vector mode is selected")
    code_of = {a.dependent: a.code.value for a in assignments or ()}
    rule = MODE_RULE in config.modes
    if not config.modes & _SUFFIX_MODES:
        return [_CODE_BUNDLES[code_of.get(token.id, _NONE) if rule else None]
                for token in sentence.tokens]
    bundles = []
    for token in sentence.tokens:
        analysis = analyses.get(token.id) if analyses else None
        if analysis is None:
            raise AnalysisError(
                f"token {token.id} ({token.form!r}) has no morphological "
                f"analysis but a suffix feature mode is selected")
        bundles.append(FeatureBundle(
            rule_code=code_of.get(token.id, _NONE) if rule else None,
            last_suffix=last_suffix(analysis) if MODE_LAST in config.modes else None,
            inflectional_suffixes=(
                inflectional_suffixes(analysis, inventory)
                if MODE_INFL in config.modes else None),
            suffix_vector=(
                suffix_vector(matrix, analysis.lemma)
                if MODE_SUFVEC in config.modes else None),
        ))
    return bundles


def _format_vector(vector: tuple[float, ...]) -> str:
    return ",".join(f"{v:.9f}" for v in vector)


def _bundle_misc(bundle: FeatureBundle) -> list[tuple[str, str]]:
    entries = []
    if bundle.rule_code is not None:
        entries.append(("Rule", bundle.rule_code))
    if bundle.last_suffix is not None:
        entries.append(("LastSuffix", bundle.last_suffix))
    if bundle.inflectional_suffixes is not None:
        entries.append(("InflSuffixes", "+".join(bundle.inflectional_suffixes)))
    if bundle.suffix_vector is not None:
        entries.append(("SufVec", _format_vector(bundle.suffix_vector)))
    return entries


def bundle_from_token(token: Token) -> FeatureBundle:
    """Rebuild a bundle from a token's reserved MISC keys."""
    misc = token.misc_dict()
    vector = None
    if (raw := misc.get("SufVec")) is not None:
        vector = tuple(float(v) for v in raw.split(",")) if raw else ()
    suffixes = None
    if (raw := misc.get("InflSuffixes")) is not None:
        suffixes = tuple(raw.split("+")) if raw else ()
    return FeatureBundle(
        rule_code=misc.get("Rule"),
        last_suffix=misc.get("LastSuffix"),
        inflectional_suffixes=suffixes,
        suffix_vector=vector,
    )


def _check_aligned(sentences: Sequence[Sentence],
                   bundles: Sequence[Sequence[FeatureBundle]]) -> None:
    """Raise unless there is one bundle per token of every sentence: the
    exports check this before they produce any text."""
    if len(sentences) != len(bundles):
        raise InputFormatError(
            f"feature bundles for {len(bundles)} sentences do not align "
            f"with {len(sentences)} sentences")
    for ordinal, (sentence, per_sent) in enumerate(zip(sentences, bundles), start=1):
        if len(per_sent) != len(sentence.tokens):
            raise InputFormatError(
                f"sentence {ordinal}: feature bundles ({len(per_sent)}) do "
                f"not align with tokens ({len(sentence.tokens)})")


def _misc_columns(sentence: Sentence, bundles: Sequence[FeatureBundle],
                  texts: dict[FeatureBundle, str]) -> list[str]:
    """MISC text per token: the non-reserved items, then the bundle's.

    ``texts`` holds, for one export, the text of each bundle without a
    suffix vector formatted so far, which is the whole text of a token
    with no MISC items: so it holds at most one text per distinct bundle,
    whatever the MISC values.  Other tokens are formatted one by one.
    """
    columns = []
    for token, bundle in zip(sentence.tokens, bundles):
        shared = not token.misc and bundle.suffix_vector is None
        text = texts.get(bundle) if shared else None
        if text is None:
            items = [item for item in token.misc
                     if item[0] not in RESERVED_MISC_KEYS]
            text = format_misc(items + _bundle_misc(bundle))
            if shared:
                texts[bundle] = text
        columns.append(text)
    return columns


def export(sentences: Sequence[Sentence],
           bundles: Sequence[Sequence[FeatureBundle]],
           out: IO[str] | None = None) -> str | None:
    """Annotated CoNLL-U with feature MISC keys and a rule-code header.

    The closed rule-code vocabulary is written as a comment on the first
    sentence (once; re-export does not duplicate it).  Only the MISC
    column and that comment change; every other column is written as
    parsed.  Returns the text or, given a text handle ``out``, writes it
    there a sentence at a time; the bundles are checked first.
    """
    _check_aligned(sentences, bundles)
    misc = map(_misc_columns, sentences, bundles, repeat({}))
    if sentences and RULE_CODE_HEADER not in sentences[0].comments:
        first = sentences[0]
        first = Sentence(first.tokens, (RULE_CODE_HEADER,) + first.comments,
                         first.ranges)
        sentences = chain((first,), islice(sentences, 1, None))
    return write_conllu(sentences, misc, out)


def export_jsonl(sentences: Sequence[Sentence],
                 bundles: Sequence[Sequence[FeatureBundle]],
                 out: IO[str] | None = None) -> str | None:
    """One JSON object per token: sentence/token indices plus features.

    ``suffix_vector`` is always a record's last key, so each distinct
    vector is serialized once per export and its text spliced into every
    record that carries it.  Returns the text or, given a text handle
    ``out``, writes it there a sentence at a time; the bundles are checked
    first.
    """
    _check_aligned(sentences, bundles)
    return join_or_write(_jsonl_chunks(sentences, bundles), out)


def _jsonl_chunks(sentences: Sequence[Sentence],
                  bundles: Sequence[Sequence[FeatureBundle]]) -> Iterator[str]:
    # Keyed by the vector's float64 bytes: the tuple would merge a row
    # holding 0.0 with an equal one holding -0.0, which prints differently.
    vector_texts: dict[bytes, str] = {}
    for ordinal, (sentence, per_sent) in enumerate(zip(sentences, bundles), start=1):
        lines = []
        for token, bundle in zip(sentence.tokens, per_sent):
            record: dict = {"sentence": ordinal, "token": token.id,
                            "form": token.form}
            if bundle.rule_code is not None:
                record["rule"] = bundle.rule_code
            if bundle.last_suffix is not None:
                record["last_suffix"] = bundle.last_suffix
            if bundle.inflectional_suffixes is not None:
                record["infl_suffixes"] = list(bundle.inflectional_suffixes)
            line = json.dumps(record, ensure_ascii=False)
            if (vector := bundle.suffix_vector) is not None:
                key = array("d", vector).tobytes()
                text = vector_texts.get(key)
                if text is None:
                    text = vector_texts[key] = json.dumps(
                        [round(v, 9) for v in vector])
                line = f'{line[:-1]}, "suffix_vector": {text}}}'
            lines.append(line + "\n")
        yield "".join(lines)
