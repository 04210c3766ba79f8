"""Attachment scoring, the paired randomization test, and rule ablation."""

import itertools
import random

import pytest

from ruleparse import (AlignmentError, RuleCode, ablate, ablation_steps,
                       randomization_test, score)
import ruleparse.lexicon as lexicon_module
from ruleparse.conllu import read_morph_sidecar

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


def test_sig_result_to_dict():
    d = randomization_test(GOLD3, [GOLD3], [GOLD3], shuffles=10).to_dict()
    assert d["metric"] == "uas"
    assert d["shuffles"] == 10
    assert d["p_values"] == [[1.0]]
    assert d["harmonic_mean_p"] == 1.0


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
    results = ablate(gold, sidecar, lexicon)
    assert [r.step for r in results] == list(range(1, 9))
    assert results[0].assigned == 0
    assert results[0].precision is None
    coverages = [r.coverage for r in results]
    assert all(b >= a for a, b in zip(coverages, coverages[1:]))
    for r in results:
        assert r.total == sum(len(s) for s in gold)
        assert 0 <= r.matching <= r.assigned <= r.total


def test_ablation_sidecar_missing_a_sentence(lexicon):
    gold, _, analyses = random_treebank(random.Random(32), 5)
    without_third = {key: a for key, a in analyses.items() if key[0] != 3}
    with pytest.raises(ValueError, match="has no morphological analysis"):
        ablate(gold, without_third, lexicon)


def test_ablation_step_to_dict(lexicon):
    gold = [headed(["Kuru", "yemiş"], [2, 0])]
    analyses = {(1, 1): ma("kuru", "Noun", "A3sg", "Nom"),
                (1, 2): ma("yemiş", "Noun", "A3sg", "Nom")}
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
    calls = []
    original = lexicon_module.fold

    def counting_fold(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(lexicon_module, "fold", counting_fold)
    ablate(gold, analyses, lexicon, ablation_steps()[:1])
    one_step = len(calls)
    calls.clear()
    ablate(gold, analyses, lexicon)
    assert len(calls) == one_step > 0
