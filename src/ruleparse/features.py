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
from dataclasses import dataclass
from typing import Mapping, Sequence

from .conllu import Sentence, Token, format_misc, write_conllu
from .engine import RuleAssignment, RuleCode
from .errors import InputFormatError
from .morpho import (LemmaSuffixMatrix, MorphAnalysis, SuffixInventory,
                     inflectional_suffixes, last_suffix, suffix_vector)

MODE_RULE = "rule"
MODE_INFL = "inflectional_suffixes"
MODE_LAST = "last_suffix"
MODE_SUFVEC = "suffix_vector"
ALL_MODES = frozenset({MODE_RULE, MODE_INFL, MODE_LAST, MODE_SUFVEC})
_SUFFIX_MODES = frozenset({MODE_INFL, MODE_LAST, MODE_SUFVEC})

RESERVED_MISC_KEYS = ("Rule", "LastSuffix", "InflSuffixes", "SufVec")

RULE_CODE_HEADER = "# rule-codes = " + " ".join(
    [c.value for c in RuleCode if c is not RuleCode.NONE] + [RuleCode.NONE.value])

_FLAG_MODES = {
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

    @classmethod
    def from_flag(cls, flag: str) -> "HybridConfig":
        try:
            return cls(_FLAG_MODES[flag])
        except KeyError:
            raise ValueError(
                f"unknown hybrid mode {flag!r}; choose from "
                f"{', '.join(sorted(_FLAG_MODES))}") from None


@dataclass(frozen=True)
class FeatureBundle:
    """Features for one token; unselected or absent fields are None."""

    rule_code: str | None = None
    last_suffix: str | None = None
    inflectional_suffixes: tuple[str, ...] | None = None
    suffix_vector: tuple[float, ...] | None = None


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
    want_suffix = config.modes & _SUFFIX_MODES
    code_of = {a.dependent: a.code for a in assignments or ()}
    bundles = []
    for token in sentence.tokens:
        analysis = analyses.get(token.id) if analyses else None
        if want_suffix and analysis is None:
            raise ValueError(
                f"token {token.id} ({token.form!r}) has no morphological "
                f"analysis but a suffix feature mode is selected")
        rule_code = None
        if MODE_RULE in config.modes:
            rule_code = code_of.get(token.id, RuleCode.NONE).value
        bundles.append(FeatureBundle(
            rule_code=rule_code,
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


def _misc_columns(sentence: Sentence,
                  bundles: Sequence[FeatureBundle]) -> list[str]:
    """MISC text per token: the non-reserved items, then the bundle's."""
    if len(bundles) != len(sentence.tokens):
        raise InputFormatError(
            f"feature bundles ({len(bundles)}) do not align with tokens "
            f"({len(sentence.tokens)})")
    columns = []
    for token, bundle in zip(sentence.tokens, bundles):
        items = [item for item in token.misc if item[0] not in RESERVED_MISC_KEYS]
        items += _bundle_misc(bundle)
        columns.append(format_misc(items))
    return columns


def export(sentences: Sequence[Sentence],
           bundles: Sequence[Sequence[FeatureBundle]]) -> str:
    """Annotated CoNLL-U with feature MISC keys and a rule-code header.

    The closed rule-code vocabulary is written as a comment on the first
    sentence (once; re-export does not duplicate it).  Only the MISC
    column and that comment change; every other column is written as
    parsed.
    """
    if len(sentences) != len(bundles):
        raise InputFormatError(
            f"feature bundles for {len(bundles)} sentences do not align "
            f"with {len(sentences)} sentences")
    misc = [_misc_columns(sent, per_sent)
            for sent, per_sent in zip(sentences, bundles)]
    sentences = list(sentences)
    if sentences and RULE_CODE_HEADER not in sentences[0].comments:
        first = sentences[0]
        sentences[0] = Sentence(first.tokens, (RULE_CODE_HEADER,) + first.comments,
                                first.ranges)
    return write_conllu(sentences, misc)


def export_jsonl(sentences: Sequence[Sentence],
                 bundles: Sequence[Sequence[FeatureBundle]]) -> str:
    """One JSON object per token: sentence/token indices plus features."""
    if len(sentences) != len(bundles):
        raise InputFormatError(
            f"feature bundles for {len(bundles)} sentences do not align "
            f"with {len(sentences)} sentences")
    lines = []
    for ordinal, (sentence, per_sent) in enumerate(zip(sentences, bundles), start=1):
        if len(per_sent) != len(sentence.tokens):
            raise InputFormatError(
                f"sentence {ordinal}: feature bundles do not align with tokens")
        for token, bundle in zip(sentence.tokens, per_sent):
            record: dict = {"sentence": ordinal, "token": token.id,
                            "form": token.form}
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
