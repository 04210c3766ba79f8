"""Attachment scoring, paired randomization testing, and rule ablation.

Scores count every syntactic word, punctuation included.  Labeled
attachment compares the full dependency relation string; a label is only
credited when the head is also correct.

The significance test is a paired permutation test over sentence-level
swaps: in each shuffle every sentence's annotations switch sides with
probability one half, and the absolute metric difference is compared
against the observed one.  With add-one smoothing the reported p-value
is never zero.  Model comparisons are run file-wise: five outputs per
side yield twenty-five p-values, summarized by their harmonic mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .conllu import Sentence, group_by_sentence
from .engine import Diagnostics, RuleCode, RuleConfig, SentenceView, run
from .errors import AlignmentError
from .lexicon import Lexicon
from .morpho import MorphAnalysis


@dataclass(frozen=True)
class AttachmentScores:
    """Unlabeled/labeled attachment counts over a treebank pair."""

    total: int
    correct_heads: int
    correct_labeled: int

    @property
    def uas(self) -> float:
        return self.correct_heads / self.total if self.total else 0.0

    @property
    def las(self) -> float:
        return self.correct_labeled / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "uas": self.uas,
            "las": self.las,
            "total": self.total,
            "correct_heads": self.correct_heads,
            "correct_labeled": self.correct_labeled,
        }


def _check_aligned(gold: Sequence[Sentence], system: Sequence[Sentence]) -> None:
    if len(gold) != len(system):
        raise AlignmentError(
            f"sentence counts differ: gold has {len(gold)}, system has {len(system)}")
    for ordinal, (g, s) in enumerate(zip(gold, system), start=1):
        if len(g.tokens) != len(s.tokens):
            raise AlignmentError(
                f"sentence {ordinal}: token counts differ "
                f"(gold {len(g.tokens)}, system {len(s.tokens)})")


def _sentence_counts(ordinal: int, gold: Sentence, system: Sentence) -> tuple[int, int, int]:
    total = len(gold.tokens)
    heads = labeled = 0
    for g, s in zip(gold.tokens, system.tokens):
        if g.head is None:
            raise AlignmentError(
                f"sentence {ordinal}: gold token {g.id} has no head")
        if s.head == g.head:
            heads += 1
            if s.deprel == g.deprel:
                labeled += 1
    return total, heads, labeled


def score(gold: Sequence[Sentence], system: Sequence[Sentence]) -> AttachmentScores:
    """Attachment scores of ``system`` against ``gold``.

    Requires matching sentence and per-sentence token counts; raises
    :class:`AlignmentError` naming the first mismatched sentence.
    """
    _check_aligned(gold, system)
    total = heads = labeled = 0
    for ordinal, (g, s) in enumerate(zip(gold, system), start=1):
        t, h, l = _sentence_counts(ordinal, g, s)
        total += t
        heads += h
        labeled += l
    return AttachmentScores(total, heads, labeled)


@dataclass(frozen=True)
class SigResult:
    """Pairwise p-values of a file-wise model comparison."""

    metric: str
    shuffles: int
    seed: int
    p_values: tuple[tuple[float, ...], ...]

    @property
    def harmonic_mean_p(self) -> float:
        flat = [p for row in self.p_values for p in row]
        return len(flat) / sum(1.0 / p for p in flat)

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "shuffles": self.shuffles,
            "seed": self.seed,
            "p_values": [list(row) for row in self.p_values],
            "harmonic_mean_p": self.harmonic_mean_p,
        }


def _per_sentence_correct(gold: Sequence[Sentence], system: Sequence[Sentence],
                          metric: str) -> np.ndarray:
    _check_aligned(gold, system)
    values = []
    for ordinal, (g, s) in enumerate(zip(gold, system), start=1):
        _, heads, labeled = _sentence_counts(ordinal, g, s)
        values.append(heads if metric == "uas" else labeled)
    return np.asarray(values, dtype=np.int64)


def _pair_p_value(diffs: np.ndarray, shuffles: int, rng: np.random.Generator) -> float:
    observed = abs(int(diffs.sum()))
    at_least = 0
    remaining = shuffles
    block = 4096
    while remaining:
        take = min(block, remaining)
        signs = rng.integers(0, 2, size=(take, diffs.size),
                             dtype=np.int8) * 2 - 1
        sums = np.abs(signs @ diffs)
        at_least += int((sums >= observed).sum())
        remaining -= take
    return (1 + at_least) / (1 + shuffles)


def randomization_test(gold: Sequence[Sentence],
                       outputs_a: Sequence[Sequence[Sentence]],
                       outputs_b: Sequence[Sequence[Sentence]],
                       shuffles: int = 10000,
                       metric: str = "uas",
                       seed: int = 0) -> SigResult:
    """Paired permutation test between two sets of parser outputs.

    Every output file of side A is tested against every output file of
    side B.  Deterministic for a fixed seed; shuffle streams are drawn
    from independently spawned generators, so pairs may be evaluated in
    any order (or in parallel) without changing the result.
    """
    if shuffles < 1:
        raise ValueError("shuffles must be >= 1")
    if metric not in ("uas", "las"):
        raise ValueError(f"unknown metric {metric!r}")
    if not outputs_a or not outputs_b:
        raise ValueError("both output sets must be non-empty")
    correct_a = [_per_sentence_correct(gold, out, metric) for out in outputs_a]
    correct_b = [_per_sentence_correct(gold, out, metric) for out in outputs_b]
    children = np.random.SeedSequence(seed).spawn(len(correct_a) * len(correct_b))
    rows = []
    k = 0
    for ca in correct_a:
        row = []
        for cb in correct_b:
            rng = np.random.Generator(np.random.PCG64(children[k]))
            k += 1
            row.append(_pair_p_value(ca - cb, shuffles, rng))
        rows.append(tuple(row))
    return SigResult(metric=metric, shuffles=shuffles, seed=seed,
                     p_values=tuple(rows))


@dataclass(frozen=True)
class AblationStep:
    """Coverage/precision of the engine under one cumulative rule set."""

    step: int
    rules: tuple[str, ...]
    total: int
    assigned: int
    matching: int

    @property
    def coverage(self) -> float:
        return self.assigned / self.total if self.total else 0.0

    @property
    def precision(self) -> float | None:
        return self.matching / self.assigned if self.assigned else None

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "rules": list(self.rules),
            "total": self.total,
            "assigned": self.assigned,
            "coverage": self.coverage,
            "precision": self.precision,
        }


def ablation_steps(include_av_nv: bool = True) -> list[RuleConfig]:
    """Cumulative rule schedules for the ablation harness.

    The full schedule has eight steps, starting from no rules and adding
    CPI, NC, PC, AC+AAJ, AV, AJC+AJN, and NV in that order.  Without the
    two free-word-order-sensitive rules (AV, NV) it has six steps.
    """
    increments: list[tuple[RuleCode, ...]] = [
        (),
        (RuleCode.CPI,),
        (RuleCode.NC,),
        (RuleCode.PC,),
        (RuleCode.AC, RuleCode.AAJ),
    ]
    if include_av_nv:
        increments.append((RuleCode.AV,))
    increments.append((RuleCode.AJC, RuleCode.AJN))
    if include_av_nv:
        increments.append((RuleCode.NV,))
    configs = []
    enabled: frozenset[RuleCode] = frozenset()
    for extra in increments:
        enabled = enabled | set(extra)
        configs.append(RuleConfig(enabled=enabled))
    return configs


def ablate(gold: Sequence[Sentence],
           analyses: dict[tuple[int, int], MorphAnalysis],
           lexicon: Lexicon,
           steps: Iterable[RuleConfig] | None = None,
           diagnostics: Diagnostics | None = None) -> list[AblationStep]:
    """Run the engine under each step and report coverage and precision.

    The engine runs on the gold sentences themselves; it never reads
    their heads.  Coverage is the fraction of tokens that received a
    head; precision is the fraction of assigned heads that match the gold
    head (None when nothing was assigned).  ``analyses`` is keyed by
    ``(sentence_ordinal, token_id)`` as read from a sidecar file.  Each
    sentence's :class:`SentenceView` is built once and shared by every
    step.
    """
    steps = list(steps) if steps is not None else ablation_steps()
    by_sentence = group_by_sentence(analyses)
    views = [SentenceView(sent, by_sentence.get(ordinal, {}))
             for ordinal, sent in enumerate(gold, start=1)]
    gold_heads = [{t.id: t.head for t in sent.tokens} for sent in gold]
    total = sum(len(sent.tokens) for sent in gold)
    results = []
    for step_no, config in enumerate(steps, start=1):
        assigned = matching = 0
        for sent, view, heads in zip(gold, views, gold_heads):
            assignments = run(sent, view, lexicon, config, diagnostics)
            assigned += len(assignments)
            matching += sum(1 for a in assignments if heads[a.dependent] == a.head)
        rules = tuple(sorted(code.value for code in config.enabled))
        results.append(AblationStep(step=step_no, rules=rules, total=total,
                                    assigned=assigned, matching=matching))
    return results
