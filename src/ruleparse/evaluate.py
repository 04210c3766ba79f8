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

The shuffles of one file pair come from one PCG64 generator, in blocks
of 4,096.  ``Generator.integers(0, 2, dtype=np.int8)`` turns each byte of
the generator's 32-bit word stream into one sign, ``byte >> 7``, low byte
first, and drops the unused bytes of a call's last word.  A PCG64 hands
out each 64-bit output as two 32-bit words, its low half and then its
high half, so the kernel draws the 64-bit outputs themselves
(``bit_generator.random_raw``) and reads their bytes, low byte first.
It starts with the half-word the state holds back, if any, and leaves
the state as 32-bit draws would.  It draws sub-chunks of a multiple of 4
shuffles, so every sub-chunk starts on a word boundary and each block
ends where a single ``int8`` draw would have: the signs, and so the
p-values, are the ones that draw gives.  It sums each sub-chunk's
shuffles with one matrix-vector product of the 0/1 signs and the diffs,
in float32 when the absolute diffs sum below 2**24, so every partial sum
is an integer float32 holds exactly, and in float64 otherwise.  Its
memory is O(sentences) plus a fixed chunk.  ``tests/test_evaluate.py``
checks it against the direct ``int8`` kernel, and ``tests/test_golden.py``
pins its p-values.

Scoring reads only the HEAD and DEPREL columns of each sentence
(:func:`columns`), so ``score`` and ``randomization_test`` take either
sentences or the columns :func:`~ruleparse.conllu.read_columns` reads.
``randomization_test`` takes the outputs of each side as iterables and
reduces each output to its per-sentence correct counts as soon as it is
drawn, so a caller that reads files lazily holds one at a time.

Rule ablation takes the gold treebank already joined with its sidecar
(:func:`~ruleparse.conllu.group_by_sentence`): one analysis mapping per
sentence, as :func:`~ruleparse.engine.run` takes them.

numpy is imported by the functions that use it, so only the significance
test pays for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, eq
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .conllu import Columns, Sentence
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
# Signs per kernel sub-chunk: the random bytes a sub-chunk draws.  Below
# glibc's 128 KiB mmap threshold each draw comes from the heap instead of
# fresh pages faulted in on every sub-chunk; the float signs it becomes
# go into one buffer per file pair.  On 25 pairs of 1,001 sentences and
# 10,000 shuffles the kernel took 0.21 s of CPU at 96 KiB, 0.24 at 64,
# 0.22 at 128 and 0.54 at 512 (medians of 7, 2-CPU x86-64, OpenBLAS).
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


def columns(treebank: Iterable[Sentence | Columns]) -> list[Columns]:
    """Each sentence of ``treebank`` as its HEAD and DEPREL columns, the
    form :func:`~ruleparse.conllu.read_columns` reads; column pairs pass
    through.  What :func:`score` and :func:`randomization_test` work on."""
    return [(tuple([t.head for t in s.tokens]), tuple([t.deprel for t in s.tokens]))
            if isinstance(s, Sentence) else s for s in treebank]


def _check_aligned(gold: Sequence[Columns], system: Sequence[Columns]) -> None:
    if len(gold) != len(system):
        raise AlignmentError(
            f"sentence counts differ: gold has {len(gold)}, system has {len(system)}")
    for ordinal, ((g, _), (s, _)) in enumerate(zip(gold, system), start=1):
        if len(g) != len(s):
            raise AlignmentError(
                f"sentence {ordinal}: token counts differ "
                f"(gold {len(g)}, system {len(s)})")


def _correct_counts(gold: Sequence[Columns], system: Sequence[Columns]
                    ) -> Iterator[tuple[int, int]]:
    """Per sentence, its tokens with the gold head and those that also
    have the gold label, once the treebanks are known to align."""
    _check_aligned(gold, system)
    for ordinal, ((gold_heads, gold_deprels), (heads, deprels)) in enumerate(
            zip(gold, system), start=1):
        if None in gold_heads:
            raise AlignmentError(f"sentence {ordinal}: gold token "
                                 f"{gold_heads.index(None) + 1} has no head")
        head_hits = list(map(eq, gold_heads, heads))
        yield sum(head_hits), sum(map(and_, head_hits,
                                      map(eq, gold_deprels, deprels)))


def score(gold: Iterable[Sentence | Columns],
          system: Iterable[Sentence | Columns]) -> AttachmentScores:
    """Attachment scores of ``system`` against ``gold``, given as
    sentences or as :func:`columns`.

    Requires matching sentence and per-sentence token counts; raises
    :class:`AlignmentError` naming the first mismatched sentence.
    """
    gold, system = columns(gold), columns(system)
    heads = labeled = 0
    for h, l in _correct_counts(gold, system):
        heads += h
        labeled += l
    return AttachmentScores(sum(len(g) for g, _ in gold), heads, labeled)


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


def _per_sentence_correct(gold: Sequence[Columns],
                          system: Iterable[Sentence | Columns],
                          metric: str) -> np.ndarray:
    import numpy as np

    pick = 0 if metric == "uas" else 1
    return np.asarray([counts[pick] for counts in
                       _correct_counts(gold, columns(system))], dtype=np.int64)


def _sum_dtype(diffs: np.ndarray) -> type:
    """The float type in which every partial sum of ``diffs`` is exact:
    float32 below 2**24, float64 otherwise."""
    import numpy as np

    return np.float32 if int(np.abs(diffs).sum()) < 1 << 24 else np.float64


def _pair_p_value(diffs: np.ndarray, shuffles: int, rng: np.random.Generator) -> float:
    """Add-one p-value of ``|sum(diffs)|`` among ``shuffles`` sign flips.

    A shuffle's sum is ``2 * s - sum(diffs)``, where ``s`` sums the diffs
    whose sign is +1: the product of the shuffle's 0/1 signs and the
    diffs.  ``rng`` must be backed by PCG64, whose 32-bit words are each
    64-bit output's low half, then its high half.
    """
    import numpy as np

    n = diffs.size
    if n == 0:
        return 1.0
    total = int(diffs.sum())
    # |2s - total| >= |total| exactly when s >= max(total, 0) or
    # s <= min(total, 0); with total 0, every shuffle.
    high, low = max(total, 0), min(total, 0)
    dtype = _sum_dtype(diffs)
    weights = diffs.astype(dtype)
    # A multiple of 4 shuffles holds a whole number of 32-bit words.
    rows = max(4, min(_BLOCK_SHUFFLES, _CHUNK_BYTES // n) // 4 * 4)
    signs = np.empty((rows, n), dtype=dtype)
    bits = rng.bit_generator
    state = bits.state
    # The high half-word of the last 64-bit output drawn (as 32-bit draws
    # would keep it) and whether it is still to be used.
    last_high, buffered = state["uinteger"], state["has_uint32"]
    at_least = 0
    for block_start in range(0, shuffles, _BLOCK_SHUFFLES):
        block = min(_BLOCK_SHUFFLES, shuffles - block_start)
        for start in range(0, block, rows):
            take = min(rows, block - start)
            # The sub-chunk's 32-bit words: the buffered half-word, if
            # any, then whole 64-bit outputs; an odd count leaves the
            # last output's high half buffered.
            words = -(-take * n // 4) - buffered
            raw = bits.random_raw(-(-words // 2)).astype("<u8", copy=False)
            data = raw.view(np.uint8)
            if buffered:
                data = np.concatenate(
                    (np.array([last_high], dtype="<u4").view(np.uint8), data))
            if raw.size:
                last_high = int(raw[-1]) >> 32
            buffered = words % 2
            chunk = signs[:take]
            # Low byte first, as the generator hands out a word's bytes;
            # a byte's sign is its top bit.
            np.greater_equal(data[:take * n].reshape(take, n), 128, out=chunk)
            sums = chunk @ weights
            at_least += int(np.count_nonzero((sums >= high) | (sums <= low)))
    state = bits.state
    state["uinteger"], state["has_uint32"] = last_high, buffered
    bits.state = state
    return (1 + at_least) / (1 + shuffles)


def _side_correct(gold: Sequence[Columns],
                  outputs: Iterable[Iterable[Sentence | Columns]],
                  metric: str) -> list[np.ndarray]:
    # ``map`` lets go of each output once its counts are made, before it
    # draws the next one; a loop variable would hold it one draw longer.
    correct = list(map(lambda out: _per_sentence_correct(gold, out, metric),
                       outputs))
    if not correct:
        raise ValueError("both output sets must be non-empty")
    return correct


def randomization_test(gold: Iterable[Sentence | Columns],
                       outputs_a: Iterable[Iterable[Sentence | Columns]],
                       outputs_b: Iterable[Iterable[Sentence | Columns]],
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
    gold = columns(gold)
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
           analyses: Iterable[Mapping[int, MorphAnalysis]],
           lexicon: Lexicon,
           steps: Iterable[RuleConfig] | None = None,
           diagnostics: Diagnostics | None = None) -> list[AblationStep]:
    """Run the engine under each step and report coverage and precision.

    The engine runs on the gold sentences themselves; it never reads
    their heads.  Coverage is the fraction of tokens that received a
    head; precision is the fraction of assigned heads that match the gold
    head (None when nothing was assigned).  ``analyses`` holds one
    ``{token_id: analysis}`` mapping per gold sentence, in order, as
    :func:`~ruleparse.conllu.group_by_sentence` returns them; a count
    that differs from the sentences' raises ValueError.

    Sentences are the outer loop and steps the inner one: each sentence's
    :class:`SentenceView` is built once, run under every step and dropped
    before the next sentence, so one view is alive at a time and each
    step keeps only its two counters.
    """
    steps = list(steps) if steps is not None else ablation_steps()
    assigned = [0] * len(steps)
    matching = [0] * len(steps)
    total = 0
    for sent, sent_analyses in zip(gold, analyses, strict=True):
        view = SentenceView(sent, sent_analyses, lexicon)
        tokens = sent.tokens
        total += len(tokens)
        for k, config in enumerate(steps):
            assignments = run(sent, view, lexicon, config, diagnostics)
            assigned[k] += len(assignments)
            matching[k] += sum(1 for a in assignments
                               if tokens[a.dependent - 1].head == a.head)
    return [AblationStep(step=k + 1,
                         rules=tuple(sorted(code.value for code in config.enabled)),
                         total=total, assigned=assigned[k], matching=matching[k])
            for k, config in enumerate(steps)]
