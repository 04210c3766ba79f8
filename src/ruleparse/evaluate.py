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

The shuffles of one file pair come from one generator, in blocks of
4,096.  ``Generator.integers(0, 2, dtype=np.int8)`` turns each byte of
the generator's 32-bit word stream into one sign, ``byte >> 7``, low byte
first, and drops the unused bytes of a call's last word.  The kernel
draws those words itself (``integers(0, 1 << 32, dtype=np.uint32)``) in
sub-chunks of a multiple of 4 shuffles, so every chunk starts on a word
boundary and each block ends where a single ``int8`` draw would have:
the signs, and so the p-values, are the ones that draw gives.  It then
sums each shuffle through one 256-entry table per 8 sentences, in memory
that is O(sentences) plus a fixed chunk.  ``tests/test_evaluate.py``
checks it against the direct ``int8`` kernel, and ``tests/test_golden.py``
pins its p-values.

``randomization_test`` takes the outputs of each side as iterables and
reduces each output to its per-sentence correct counts as soon as it is
drawn, so a caller that parses files lazily holds one at a time.

numpy is imported by the functions that use it, so only the significance
test pays for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .conllu import Sentence, group_by_sentence
from .engine import Diagnostics, RuleCode, RuleConfig, SentenceView, run
from .errors import AlignmentError
from .lexicon import Lexicon
from .morpho import MorphAnalysis

if TYPE_CHECKING:
    import numpy as np

# Shuffles per block.  A block's signs end where one ``int8`` draw of the
# block would end, dropping the rest of its last 32-bit word, so another
# block size gives other p-values.
_BLOCK_SHUFFLES = 4096
# Signs per kernel sub-chunk, one byte each: the working memory beside
# the per-sentence tables.  Each of a sub-chunk's arrays is about this
# size; below glibc's 128 KiB mmap threshold they come from the heap
# instead of fresh pages faulted in on every sub-chunk.
_CHUNK_BYTES = 96 << 10


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
    import numpy as np

    _check_aligned(gold, system)
    values = []
    for ordinal, (g, s) in enumerate(zip(gold, system), start=1):
        _, heads, labeled = _sentence_counts(ordinal, g, s)
        values.append(heads if metric == "uas" else labeled)
    return np.asarray(values, dtype=np.int64)


def _pair_p_value(diffs: np.ndarray, shuffles: int, rng: np.random.Generator) -> float:
    """Add-one p-value of ``|sum(diffs)|`` among ``shuffles`` sign flips.

    A shuffle's sum is ``2 * s - sum(diffs)``, where ``s`` sums the diffs
    whose sign is +1.  Signs are packed 8 sentences to a byte, and ``s``
    is gathered from one table of the 256 partial sums per 8 sentences.
    """
    import numpy as np

    n = diffs.size
    if n == 0:
        return 1.0
    total = int(diffs.sum())
    groups = -(-n // 8)
    padded = np.zeros(groups * 8, dtype=np.int64)
    padded[:n] = diffs
    # Row b of ``bits`` holds b's bits high bit first, the order in which
    # ``np.packbits`` packs 8 sentences into one byte.
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    tables = (padded.reshape(groups, 8) @ bits.T).ravel()
    offsets = np.arange(0, groups * 256, 256, dtype=np.intp)
    # A multiple of 4 shuffles holds a whole number of 32-bit words.
    rows = max(4, min(_BLOCK_SHUFFLES, _CHUNK_BYTES // n) // 4 * 4)
    at_least = 0
    for block_start in range(0, shuffles, _BLOCK_SHUFFLES):
        block = min(_BLOCK_SHUFFLES, shuffles - block_start)
        for start in range(0, block, rows):
            take = min(rows, block - start)
            words = rng.integers(0, 1 << 32, size=-(-take * n // 4),
                                 dtype=np.uint32)
            # Low byte first, as the generator hands out a word's bytes.
            signs = (words.astype("<u4", copy=False).view(np.uint8)[:take * n]
                     .reshape(take, n) >> 7)
            sums = np.take(tables, np.packbits(signs, axis=1) + offsets).sum(axis=1)
            at_least += int(np.count_nonzero(np.abs(2 * sums - total) >= abs(total)))
    return (1 + at_least) / (1 + shuffles)


def _side_correct(gold: Sequence[Sentence],
                  outputs: Iterable[Sequence[Sentence]],
                  metric: str) -> list[np.ndarray]:
    # ``map`` lets go of each output once its counts are made, before it
    # draws the next one; a loop variable would hold it one draw longer.
    correct = list(map(lambda out: _per_sentence_correct(gold, out, metric),
                       outputs))
    if not correct:
        raise ValueError("both output sets must be non-empty")
    return correct


def randomization_test(gold: Sequence[Sentence],
                       outputs_a: Iterable[Sequence[Sentence]],
                       outputs_b: Iterable[Sequence[Sentence]],
                       shuffles: int = 10000,
                       metric: str = "uas",
                       seed: int = 0) -> SigResult:
    """Paired permutation test between two sets of parser outputs.

    Every output file of side A is tested against every output file of
    side B.  Deterministic for a fixed seed; shuffle streams are drawn
    from independently spawned generators, so pairs may be evaluated in
    any order (or in parallel) without changing the result.

    Each output is reduced to its per-sentence correct counts as it is
    drawn, side A first, so an iterable that parses its files on demand
    keeps only ``gold`` and one output in memory.  An empty side is
    reported when it is reached.
    """
    import numpy as np

    if shuffles < 1:
        raise ValueError("shuffles must be >= 1")
    if metric not in ("uas", "las"):
        raise ValueError(f"unknown metric {metric!r}")
    correct_a = _side_correct(gold, outputs_a, metric)
    correct_b = _side_correct(gold, outputs_b, metric)
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
