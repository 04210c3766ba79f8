"""Attachment scoring, the paired randomization test, and rule ablation."""

import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from ruleparse import (AlignmentError, RuleCode, ablate,
                       ablation_steps, randomization_test, score, write_conllu)
import ruleparse.evaluate as evaluate
import ruleparse.lexicon as lexicon_module
from ruleparse.conllu import group_by_sentence, read_columns, read_morph_sidecar
from ruleparse.engine import Diagnostics, SentenceView
from ruleparse.engine import run as engine_run
from ruleparse.evaluate import AblationStep

from conftest import ma, random_treebank, sent, sidecar_text, tok, with_random_tree


def headed(forms, heads, deprels=None):
    deprels = deprels or ["root" if h == 0 else "dep" for h in heads]
    return sent(*[tok(i, f, head=h, deprel=d)
                  for i, (f, h, d) in enumerate(zip(forms, heads, deprels), 1)])


def naive_score(gold, system):
    """Brute-force per-token recount used as the scoring oracle."""
    total = heads = labeled = 0
    for g, s in zip(gold, system):
        for gt, st_ in zip(g.tokens, s.tokens):
            total += 1
            if st_.head == gt.head:
                heads += 1
                if st_.deprel == gt.deprel:
                    labeled += 1
    return total, heads, labeled


def test_score_matches_brute_force_on_random_pairs():
    rng = random.Random(12345)
    for _ in range(50):
        gold, bare, _ = random_treebank(rng, rng.randint(1, 8), max_len=12)
        system = [with_random_tree(rng, s) for s in bare]
        result = score(gold, system)
        total, heads, labeled = naive_score(gold, system)
        assert (result.total, result.correct_heads, result.correct_labeled) \
            == (total, heads, labeled)


def test_identical_treebanks_score_one():
    rng = random.Random(5)
    gold, _, _ = random_treebank(rng, 10)
    result = score(gold, gold)
    assert result.uas == 1.0
    assert result.las == 1.0


def test_empty_treebank_scores_zero():
    result = score([], [])
    assert result.total == 0
    assert result.uas == 0.0 and result.las == 0.0


def test_label_only_counts_when_head_is_right():
    gold = [headed(["a", "b"], [2, 0], ["dep", "root"])]
    system = [headed(["a", "b"], [0, 1], ["dep", "root"])]
    # Labels all match the gold strings, but both heads are wrong.
    result = score(gold, system)
    assert result.correct_heads == 0
    assert result.correct_labeled == 0


def test_punctuation_counts_like_any_token():
    gold = [headed(["a", ".", "b"], [3, 3, 0], ["dep", "punct", "root"])]
    system = [headed(["a", ".", "b"], [3, 1, 0], ["dep", "punct", "root"])]
    result = score(gold, system)
    assert result.total == 3
    assert result.correct_heads == 2


def test_score_alignment_errors():
    gold = [headed(["a"], [0])]
    with pytest.raises(AlignmentError, match="sentence counts differ"):
        score(gold, [])
    with pytest.raises(AlignmentError, match="token counts differ"):
        score(gold, [headed(["a", "b"], [2, 0])])
    headless = [sent(tok(1, "a"))]
    with pytest.raises(AlignmentError, match="no head"):
        score(headless, gold)


def test_sentences_and_columns_score_alike():
    rng = random.Random(2024)
    for _ in range(20):
        gold, bare, _ = random_treebank(rng, rng.randint(1, 8), max_len=12)
        systems = [[with_random_tree(rng, s) for s in bare] for _ in range(3)]
        gold_columns = read_columns(write_conllu(gold))
        assert gold_columns == evaluate.columns(gold)
        system_columns = [read_columns(write_conllu(s)) for s in systems]
        assert score(gold, systems[0]) == score(gold_columns, system_columns[0]) \
            == score(gold, system_columns[0])
        for metric in ("uas", "las"):
            seed = rng.randrange(1000)
            assert randomization_test(gold, systems[:2], systems[2:],
                                      shuffles=300, metric=metric, seed=seed) \
                == randomization_test(gold_columns, system_columns[:2],
                                      system_columns[2:], shuffles=300,
                                      metric=metric, seed=seed)


def test_to_dict_round_numbers():
    gold = [headed(["a", "b"], [2, 0])]
    d = score(gold, gold).to_dict()
    assert d == {"uas": 1.0, "las": 1.0, "total": 2,
                 "correct_heads": 2, "correct_labeled": 2}


# -- randomization test ------------------------------------------------------

GOLD3 = [headed(["a", "b", "c", "d"], [2, 3, 4, 0]) for _ in range(3)]
SYS_B = [
    headed(["a", "b", "c", "d"], [3, 4, 2, 0]),   # one head right
    headed(["a", "b", "c", "d"], [3, 3, 4, 0]),   # three heads right
    headed(["a", "b", "c", "d"], [2, 3, 4, 0]),   # all heads right
]


def exhaustive_p(diffs):
    observed = abs(sum(diffs))
    hits = sum(1 for signs in itertools.product((-1, 1), repeat=len(diffs))
               if abs(sum(s * d for s, d in zip(signs, diffs))) >= observed)
    return hits / 2 ** len(diffs)


def test_identical_outputs_give_p_one():
    result = randomization_test(GOLD3, [GOLD3], [GOLD3], shuffles=500)
    assert result.p_values == ((1.0,),)
    assert result.harmonic_mean_p == 1.0


def test_monte_carlo_matches_exhaustive_enumeration():
    # Per-sentence correct-head counts: gold side (4,4,4), system side
    # (1,3,4), so the paired differences are (3,1,0).
    exact = exhaustive_p([3, 1, 0])
    assert exact == 0.5
    result = randomization_test(GOLD3, [GOLD3], [SYS_B],
                                shuffles=100_000, seed=7)
    assert abs(result.p_values[0][0] - exact) <= 0.02


def test_metric_selects_labeled_attachment():
    relabeled = [headed([t.form for t in s.tokens],
                        [t.head for t in s.tokens],
                        ["x" if t.head != 0 else "root" for t in s.tokens])
                 for s in GOLD3]
    unlabeled = randomization_test(GOLD3, [GOLD3], [relabeled],
                                   shuffles=2000, metric="uas")
    labeled = randomization_test(GOLD3, [GOLD3], [relabeled],
                                 shuffles=2000, metric="las")
    assert unlabeled.p_values[0][0] == 1.0
    assert labeled.p_values[0][0] < 0.5


def test_all_pairs_shape_and_harmonic_mean():
    result = randomization_test(GOLD3, [GOLD3] * 5, [GOLD3] * 5, shuffles=50)
    assert len(result.p_values) == 5
    assert all(len(row) == 5 for row in result.p_values)
    flat = [p for row in result.p_values for p in row]
    assert len(flat) == 25
    assert result.harmonic_mean_p == 1.0


def test_harmonic_mean_is_at_most_arithmetic_mean():
    result = randomization_test(GOLD3, [GOLD3, SYS_B], [SYS_B, GOLD3],
                                shuffles=2000, seed=3)
    flat = [p for row in result.p_values for p in row]
    assert result.harmonic_mean_p <= sum(flat) / len(flat) + 1e-12


def test_same_seed_reproduces_p_values():
    a = randomization_test(GOLD3, [GOLD3], [SYS_B], shuffles=3000, seed=42)
    b = randomization_test(GOLD3, [GOLD3], [SYS_B], shuffles=3000, seed=42)
    assert a.p_values == b.p_values


def test_randomization_validation():
    with pytest.raises(ValueError, match="shuffles"):
        randomization_test(GOLD3, [GOLD3], [GOLD3], shuffles=0)
    with pytest.raises(ValueError, match="unknown metric"):
        randomization_test(GOLD3, [GOLD3], [GOLD3], metric="f1")
    with pytest.raises(ValueError, match="non-empty"):
        randomization_test(GOLD3, [], [GOLD3])


@pytest.mark.parametrize("kwargs, message", [
    ({"shuffles": 0}, "shuffles must be >= 1"),
    ({"metric": "f1"}, "unknown metric 'f1'"),
    # numpy's SeedSequence once rejected it, after every output was read,
    # naming neither the seed nor its value.
    ({"seed": -1}, "seed must be >= 0, not -1"),
])
def test_arguments_are_checked_before_anything_is_read(kwargs, message):
    drawn = []

    def outputs():
        drawn.append(GOLD3)
        yield GOLD3

    def gold():
        drawn.append(GOLD3)
        yield from GOLD3

    with pytest.raises(ValueError) as excinfo:
        randomization_test(gold(), outputs(), outputs(), **kwargs)
    assert str(excinfo.value) == message
    assert drawn == []


def test_sig_result_to_dict():
    d = randomization_test(GOLD3, [GOLD3], [GOLD3], shuffles=10).to_dict()
    assert d["metric"] == "uas"
    assert d["shuffles"] == 10
    assert d["p_values"] == [[1.0]]
    assert d["harmonic_mean_p"] == 1.0


def reference_pair_p_value(diffs, shuffles, rng):
    """The direct kernel: each 4,096-shuffle block's signs in one ``int8``
    draw, summed by a matrix product."""
    observed = abs(int(diffs.sum()))
    at_least = 0
    remaining = shuffles
    while remaining:
        take = min(4096, remaining)
        signs = rng.integers(0, 2, size=(take, diffs.size),
                             dtype=np.int8) * 2 - 1
        at_least += int((np.abs(signs @ diffs) >= observed).sum())
        remaining -= take
    return (1 + at_least) / (1 + shuffles)


@pytest.mark.parametrize("chunk_bytes", [1, 61, 4096, evaluate._CHUNK_BYTES])
def test_kernel_matches_direct_int8_draw(monkeypatch, chunk_bytes):
    # Small chunk budgets split every block into many sub-chunks.
    monkeypatch.setattr(evaluate, "_CHUNK_BYTES", chunk_bytes)
    original_sum_dtype = evaluate._sum_dtype
    sum_types = set()

    def recording_sum_dtype(diffs):
        dtype = original_sum_dtype(diffs)
        sum_types.add(dtype)
        return dtype

    monkeypatch.setattr(evaluate, "_sum_dtype", recording_sum_dtype)
    rng = random.Random(chunk_bytes)
    cases = [(rng.choice([rng.randint(0, 20), rng.randint(21, 1200)]),
              rng.choice([rng.randint(1, 9), rng.randint(4090, 4100),
                          rng.randint(1, 9000)]))
             for _ in range(30)]
    # Odd sentence counts over two and three whole blocks and a part:
    # the stream reads on across block ends with no half-word left over.
    cases += [(2 * rng.randint(0, 300) + 1, rng.randint(low, high))
              for low, high in ((8190, 8200), (12285, 12300)) * 3]
    for n, shuffles in cases:
        spread = rng.choice([1, 4, 50, 10**6])
        diffs = np.array([rng.randint(-spread, spread) for _ in range(n)],
                         dtype=np.int64)
        seed = rng.randrange(2**32)
        expected = reference_pair_p_value(
            diffs, shuffles, np.random.Generator(np.random.PCG64(seed)))
        assert evaluate._pair_p_value(diffs, shuffles, seed) == expected, \
            (n, shuffles, seed)
    # A spread of 10**6 over more than 16 sentences can pass 2**24, where
    # float32 sums stop being exact.
    assert sum_types == {np.float32, np.float64}


class Output(list):
    """A system output that can be watched for being freed."""


def test_outputs_are_reduced_one_at_a_time():
    alive = []

    def outputs(sides):
        for side in sides:
            out = Output(side)
            # At most the one being drawn is still held by anyone.
            assert [o for o in alive if o() is not None] == []
            alive.append(weakref.ref(out))
            yield out
            del out

    sides_a, sides_b = [GOLD3, SYS_B, GOLD3], [SYS_B, GOLD3]
    streamed = randomization_test(GOLD3, outputs(sides_a), outputs(sides_b),
                                  shuffles=300, seed=9)
    assert len(alive) == 5
    assert streamed == randomization_test(GOLD3, sides_a, sides_b,
                                          shuffles=300, seed=9)


def test_empty_side_of_iterables_is_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        randomization_test(GOLD3, iter([GOLD3]), iter([]))


def test_kernel_memory_is_bounded():
    # The direct kernel holds 100 x 200,000 signs as int64 (160 MB).
    diffs = np.random.default_rng(0).integers(-3, 4, size=200_000)
    tracemalloc.start()
    try:
        evaluate._pair_p_value(diffs, 100, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


# -- ablation ----------------------------------------------------------------


def test_ablation_schedules_are_cumulative():
    steps = ablation_steps()
    assert len(steps) == 8
    assert steps[0].enabled == frozenset()
    assert steps[1].enabled == {RuleCode.CPI}
    for prev, nxt in zip(steps, steps[1:]):
        assert prev.enabled < nxt.enabled
    assert steps[-1].enabled == {
        RuleCode.CPI, RuleCode.NC, RuleCode.PC, RuleCode.AC, RuleCode.AAJ,
        RuleCode.AV, RuleCode.AJC, RuleCode.AJN, RuleCode.NV,
    }


def test_ablation_schedule_without_free_order_rules():
    steps = ablation_steps(include_av_nv=False)
    assert len(steps) == 6
    union = frozenset().union(*(s.enabled for s in steps))
    assert RuleCode.AV not in union and RuleCode.NV not in union


def test_ablation_coverage_is_monotone(lexicon):
    rng = random.Random(31)
    gold, _, analyses = random_treebank(rng, 120)
    sidecar = read_morph_sidecar(sidecar_text(analyses))
    results = ablate(gold, group_by_sentence(sidecar, gold), lexicon)
    assert [r.step for r in results] == list(range(1, 9))
    assert results[0].assigned == 0
    assert results[0].precision is None
    coverages = [r.coverage for r in results]
    assert all(b >= a for a, b in zip(coverages, coverages[1:]))
    for r in results:
        assert r.total == sum(len(s) for s in gold)
        assert 0 <= r.matching <= r.assigned <= r.total


def test_ablation_rejects_analyses_for_another_sentence_count(lexicon,
                                                              monkeypatch):
    gold, _, analyses = random_treebank(random.Random(32), 5)
    grouped = group_by_sentence(analyses, gold)
    runs = []
    monkeypatch.setattr(evaluate, "run", lambda *args: runs.append(args) or [])
    with pytest.raises(ValueError, match="gold has 5, analyses have 4"):
        ablate(gold, grouped[:-1], lexicon)
    # The front sentence dropped: the count fails before any sentence runs.
    with pytest.raises(ValueError, match="gold has 5, analyses have 4"):
        ablate(gold, grouped[1:], lexicon)
    with pytest.raises(ValueError, match="gold has 4, analyses have 5"):
        ablate(gold[:-1], grouped, lexicon)
    assert runs == []


def test_ablation_step_to_dict(lexicon):
    gold = [headed(["Kuru", "yemiş"], [2, 0])]
    analyses = [{1: ma("kuru", "Noun", "A3sg", "Nom"),
                 2: ma("yemiş", "Noun", "A3sg", "Nom")}]
    steps = ablation_steps()[:3]  # up to and including the compound rule
    results = ablate(gold, analyses, lexicon, steps)
    last = results[-1].to_dict()
    assert last["rules"] == ["CPI", "NC"]
    assert last["assigned"] == 1
    # The compound head (yemiş -> Kuru) disagrees with this gold tree.
    assert last["precision"] == 0.0
    assert results[-1].coverage == 0.5


def test_ablation_folds_each_word_once_whatever_the_step_count(lexicon, monkeypatch):
    gold, _, analyses = random_treebank(random.Random(33), 40)
    grouped = group_by_sentence(analyses, gold)
    calls = []
    original = lexicon_module.fold

    def counting_fold(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(lexicon_module, "fold", counting_fold)
    ablate(gold, grouped, lexicon, ablation_steps()[:1])
    one_step = len(calls)
    calls.clear()
    ablate(gold, grouped, lexicon)
    assert len(calls) == one_step > 0


def reference_ablate(gold, analyses, lexicon, steps=None, diagnostics=None):
    """The steps-outer ablation: every sentence's view and gold-head map
    built up front, then each step run over all of them."""
    steps = list(steps) if steps is not None else ablation_steps()
    by_sentence = [{} for _ in gold]
    for (ordinal, token_id), analysis in analyses.items():
        by_sentence[ordinal - 1][token_id] = analysis
    views = [SentenceView(sentence, sentence_analyses, lexicon)
             for sentence, sentence_analyses in zip(gold, by_sentence)]
    gold_heads = [{t.id: t.head for t in sentence.tokens} for sentence in gold]
    total = sum(len(sentence.tokens) for sentence in gold)
    results = []
    for step_no, config in enumerate(steps, start=1):
        assigned = matching = 0
        for sentence, view, heads in zip(gold, views, gold_heads):
            assignments = engine_run(sentence, view, lexicon, config, diagnostics)
            assigned += len(assignments)
            matching += sum(1 for a in assignments if heads[a.dependent] == a.head)
        rules = tuple(sorted(code.value for code in config.enabled))
        results.append(AblationStep(step=step_no, rules=rules, total=total,
                                    assigned=assigned, matching=matching))
    return results


class TrackedView(SentenceView):
    """A view that can be weakly referenced, to count the live ones."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("schedule", ["8-step", "6-step", "no steps"])
def test_ablate_matches_the_steps_outer_reference(lexicon, monkeypatch, schedule):
    steps = {"8-step": ablation_steps(), "6-step": ablation_steps(False),
             "no steps": []}[schedule]
    views = []
    calls = []

    def tracking_run(sentence, view, *rest):
        if not any(ref() is view for ref in views):
            views.append(weakref.ref(view))
        calls.append((sentence, sum(ref() is not None for ref in views)))
        return engine_run(sentence, view, *rest)

    monkeypatch.setattr(evaluate, "SentenceView", TrackedView)
    monkeypatch.setattr(evaluate, "run", tracking_run)
    rng = random.Random(35)
    matched = 0
    for _ in range(8):
        gold, _, analyses = random_treebank(rng, rng.randint(0, 30), max_len=20)
        want_diagnostics, got_diagnostics = Diagnostics(), Diagnostics()
        want = reference_ablate(gold, analyses, lexicon, steps, want_diagnostics)
        views.clear()
        calls.clear()
        got = ablate(gold, group_by_sentence(analyses, gold), lexicon, steps,
                     got_diagnostics)
        assert got == want
        assert got_diagnostics == want_diagnostics
        # Sentences are the outer loop, and one view is alive at a time.
        index = {id(sentence): k for k, sentence in enumerate(gold)}
        assert [index[id(sentence)] for sentence, _ in calls] == [
            k for k in range(len(gold)) for _ in steps]
        assert all(alive == 1 for _, alive in calls)
        matched += sum(step.matching for step in got)
    assert (matched > 0) == bool(steps)
