"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""

import random
import time
from contextlib import contextmanager

from ruleparse import (ablate, ablation_steps, build_matrix,
                       bundle_from_token, encode, export, parse_conllu,
                       randomization_test, run, suffix_vector, write_conllu)
from ruleparse.conllu import group_by_sentence, read_morph_sidecar
from ruleparse.features import MODE_RULE, MODE_SUFVEC, HybridConfig
from ruleparse.morpho import default_inventory

import test_engine as engine_tests
import test_evaluate as evaluate_tests
import test_morpho as morpho_tests
from conftest import (ma, random_conllu_sentence, random_treebank,
                      sidecar_text)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPT] {name}: FAIL")
        raise
    print(f"\n[ACCEPT] {name}: PASS")


def test_criterion_golden_rules(lexicon):
    golden = [
        engine_tests.test_complex_predicate_attaches_light_verb,
        engine_tests.test_bare_noun_compound_heads_first,
        engine_tests.test_reduplicated_compound_heads_first,
        engine_tests.test_genitive_possessor_attaches_to_possessee,
        engine_tests.test_bare_noun_before_possessive_attaches,
        engine_tests.test_accusative_possessee_blocks_attachment,
        engine_tests.test_queued_adverb_late_binds_to_verb,
        engine_tests.test_adjective_pair_late_binds_through_noun,
    ]
    with criterion("golden rule examples, < 1s"):
        started = time.perf_counter()
        for check in golden:
            check(lexicon)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"golden examples took {elapsed:.2f}s"


def test_criterion_engine_invariants(lexicon):
    with criterion("engine invariants on 1,000 random sentences"):
        rng = random.Random(20250501)
        for _ in range(1000):
            sentence, analyses = engine_tests.random_sentence(rng)
            assert len(sentence) <= 30
            first = run(sentence, analyses, lexicon, engine_tests.EVERYTHING)
            engine_tests.check_invariants(sentence, first)
            again = run(sentence, analyses, lexicon, engine_tests.EVERYTHING)
            assert engine_tests.results(first) == engine_tests.results(again)
        # Adjacency over the shrinking remaining list: the full walkthrough
        # sentence ends with exactly two tokens unassigned.
        engine_tests.test_long_sentence_leaves_two_unassigned(lexicon)


def test_criterion_ablation_harness(lexicon):
    with criterion("ablation schedules and monotone coverage, < 30s"):
        started = time.perf_counter()
        rng = random.Random(40)
        gold, _, raw = random_treebank(rng, 1000)
        sidecar = read_morph_sidecar(sidecar_text(raw))
        results = ablate(gold, group_by_sentence(sidecar, gold), lexicon)
        assert len(results) == 8
        coverages = [r.coverage for r in results]
        assert all(b >= a for a, b in zip(coverages, coverages[1:]))
        assert len(ablation_steps(include_av_nv=False)) == 6
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"ablation run took {elapsed:.2f}s"


def test_criterion_morphology_oracles():
    with criterion("matrix equals naive oracle; rows normalized; "
                   "unknown lemma vector is zero"):
        rng = random.Random(41)
        for _ in range(20):
            analyses = morpho_tests.random_analyses(rng, rng.randint(1, 100))
            matrix = build_matrix(analyses)
            expected = morpho_tests.naive_matrix(analyses, matrix.inventory,
                                                 40000)
            assert matrix.rows == expected
            for row in matrix.rows.values():
                total = sum(row)
                assert total == 0.0 or abs(total - 1.0) <= 1e-9
        matrix = build_matrix([ma("ev", "Noun", "Gen")])
        assert suffix_vector(matrix, "hiçbiryerde") == (0.0,) * 81
        assert len(default_inventory()) == 81


def test_criterion_scorer_oracle():
    with criterion("scorer equals brute-force recount on 50 pairs"):
        evaluate_tests.test_score_matches_brute_force_on_random_pairs()
        evaluate_tests.test_identical_treebanks_score_one()


def test_criterion_significance_test():
    with criterion("randomization test: Monte Carlo vs exhaustive, "
                   "identical dirs, 5x5 pairs"):
        exact = evaluate_tests.exhaustive_p([3, 1, 0])
        result = randomization_test(evaluate_tests.GOLD3,
                                    [evaluate_tests.GOLD3],
                                    [evaluate_tests.SYS_B],
                                    shuffles=100_000, seed=11)
        assert abs(result.p_values[0][0] - exact) <= 0.02
        identical = randomization_test(evaluate_tests.GOLD3,
                                       [evaluate_tests.GOLD3] * 5,
                                       [evaluate_tests.GOLD3] * 5,
                                       shuffles=100)
        flat = [p for row in identical.p_values for p in row]
        assert len(flat) == 25
        assert identical.harmonic_mean_p == 1.0


def test_criterion_round_trip():
    with criterion("10,000-sentence serialization and feature re-read "
                   "identity, < 60s"):
        started = time.perf_counter()
        rng = random.Random(42)
        sentences = [random_conllu_sentence(rng) for _ in range(10_000)]
        text = write_conllu(sentences)
        assert parse_conllu(text) == sentences
        assert write_conllu(parse_conllu(text)) == text

        # Feature export identity with full 81-dim vectors at 9 decimals.
        inventory = default_inventory()
        tag_pool = list(inventory.tags)
        analyses = []
        per_sentence = []
        for sentence in sentences:
            sent_map = {}
            for token in sentence.tokens:
                analysis = ma(token.lemma or token.form, "Noun",
                              *rng.sample(tag_pool, rng.randint(0, 3)))
                sent_map[token.id] = analysis
                analyses.append(analysis)
            per_sentence.append(sent_map)
        matrix = build_matrix(analyses)
        config = HybridConfig(frozenset({MODE_RULE, MODE_SUFVEC}))
        bundles = [encode(sentence, None, sent_map, matrix, config)
                   for sentence, sent_map in zip(sentences, per_sentence)]
        exported = export(sentences, bundles)
        reparsed = parse_conllu(exported)
        rebundled = [[bundle_from_token(t) for t in s] for s in reparsed]
        assert export(reparsed, rebundled) == exported
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"round-trip took {elapsed:.2f}s"
