"""Rule engine behavior: per-rule semantics, golden sentences, invariants.

The golden sentences are frozen: any change to their expected assignment
sets is a behavioral regression, not a test to update.
"""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from ruleparse import (ALL_RULES, DEFAULT_RULES, Diagnostics, EngineError,
                       RuleCode, RuleConfig, ablation_steps, assigned_heads,
                       default_lexicon_dir, engine, fold, load_lexicon, run,
                       write_conllu)
from ruleparse.cli import main
from ruleparse.engine import EngineState, SentenceView
from ruleparse.morpho import ROOT_POS_TO_UPOS

from conftest import (DEEP_CHAINS, deep_chain, determiner_chain, ma,
                      random_conllu_sentence, random_sentence,
                      reference_pair_keys, sent, sidecar_text, tok)

AV_ENABLED = RuleConfig(enabled=DEFAULT_RULES | {RuleCode.AV})
EVERYTHING = RuleConfig(enabled=ALL_RULES)


def build(rows):
    """rows: (id, form, upos, analysis) -> (sentence, analyses)."""
    tokens = [tok(i, form, upos, analysis.lemma)
              for i, form, upos, analysis in rows]
    analyses = {i: analysis for i, _, _, analysis in rows}
    return sent(*tokens), analyses


def results(assignments):
    return sorted((a.dependent, a.head, a.code) for a in assignments)


def run_on(rows, lexicon, config=None, diagnostics=None):
    sentence, analyses = build(rows)
    return results(run(sentence, analyses, lexicon, config, diagnostics))


# -- golden sentences --------------------------------------------------------


def test_complex_predicate_attaches_light_verb(lexicon):
    rows = [
        (1, "Her", "DET", ma("her", "Det")),
        (2, "istediğini", "VERB", ma("iste", "Verb", "PastPart", "P3sg", "Acc")),
        (3, "yerine", "NOUN", ma("yer", "Noun", "A3sg", "P3sg", "Dat")),
        (4, "getiriyordum", "VERB", ma("getir", "Verb","Prog1", "Past", "A1sg")),
    ]
    assert run_on(rows, lexicon) == [(4, 3, RuleCode.CPI)]


def test_bare_noun_compound_heads_first(lexicon):
    rows = [
        (1, "Kuru", "NOUN", ma("kuru", "Noun", "A3sg", "Nom")),
        (2, "yemiş", "NOUN", ma("yemiş", "Noun", "A3sg", "Nom")),
    ]
    assert run_on(rows, lexicon) == [(2, 1, RuleCode.NC)]


def test_reduplicated_compound_heads_first(lexicon):
    rows = [
        (1, "Arka", "NOUN", ma("arka", "Noun", "A3sg", "Nom")),
        (2, "arkaya", "NOUN", ma("arka", "Noun", "A3sg", "Dat")),
    ]
    assert run_on(rows, lexicon) == [(2, 1, RuleCode.NC)]


def test_genitive_possessor_attaches_to_possessee(lexicon):
    rows = [
        (1, "Makinenin", "NOUN", ma("makine", "Noun", "A3sg", "Gen")),
        (2, "yağı", "NOUN", ma("yağ", "Noun", "A3sg", "P3sg", "Nom")),
        (3, "aktı", "VERB", ma("ak", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon) == [(1, 2, RuleCode.PC)]


def test_bare_noun_before_possessive_attaches(lexicon):
    rows = [
        (1, "Makine", "NOUN", ma("makine", "Noun", "A3sg", "Nom")),
        (2, "yağı", "NOUN", ma("yağ", "Noun", "A3sg", "P3sg", "Nom")),
        (3, "aktı", "VERB", ma("ak", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon) == [(1, 2, RuleCode.PC)]


def test_accusative_possessee_blocks_attachment(lexicon):
    # "Makine yağını akıttı": the accusative object is not a possessee of
    # the preceding bare noun, so nothing may be assigned.
    rows = [
        (1, "Makine", "NOUN", ma("makine", "Noun", "A3sg", "Nom")),
        (2, "yağını", "NOUN", ma("yağ", "Noun", "A3sg", "P3sg", "Acc")),
        (3, "akıttı", "VERB", ma("akıt", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon) == []


def test_queued_adverb_late_binds_to_verb(lexicon):
    # "İnanırsanız sonra çok şaşırırsınız": (sonra, çok) is queued by the
    # consecutive-adverb rule; once "çok" attaches to the verb, "sonra"
    # follows it to the same head with the consecutive-adverb code.
    rows = [
        (1, "İnanırsanız", "VERB", ma("inan", "Verb","Aor", "Cond", "A2pl")),
        (2, "sonra", "ADV", ma("sonra", "Adv")),
        (3, "çok", "ADV", ma("çok", "Adv")),
        (4, "şaşırırsınız", "VERB", ma("şaşır", "Verb","Aor", "A2pl")),
    ]
    assert run_on(rows, lexicon, AV_ENABLED) == [
        (2, 4, RuleCode.AC),
        (3, 4, RuleCode.AV),
    ]


def test_adjective_pair_late_binds_through_noun(lexicon):
    rows = [
        (1, "Asistanım", "NOUN", ma("asistan", "Noun", "A3sg", "P1sg", "Nom")),
        (2, "bulanık", "ADJ", ma("bulanık", "Adj")),
        (3, "anlamsız", "ADJ", ma("anlamsız", "Adj")),
        (4, "gözlerini", "NOUN", ma("göz", "Noun", "A3pl", "P3sg", "Acc")),
        (5, "bana", "PRON", ma("ben", "Pron", "A1sg", "Dat")),
        (6, "çevirdi", "VERB", ma("çevir", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon) == [
        (2, 4, RuleCode.AJC),
        (3, 4, RuleCode.AJN),
    ]


WALKTHROUGH = [
    (1, "Ama", "CCONJ", ma("ama", "Conj")),
    (2, "Ahmet", "PROPN", ma("ahmet", "Noun", "Prop", "A3sg", "Nom")),
    (3, "Bey", "PROPN", ma("bey", "Noun", "Prop", "A3sg", "Nom")),
    (4, "bu", "DET", ma("bu", "Det")),
    (5, "küçük", "ADJ", ma("küçük", "Adj")),
    (6, "eski", "ADJ", ma("eski", "Adj")),
    (7, "makinenin", "NOUN", ma("makine", "Noun", "A3sg", "Gen")),
    (8, "yağını", "NOUN", ma("yağ", "Noun", "A3sg", "P3sg", "Acc")),
    (9, "arka", "NOUN", ma("arka", "Noun", "A3sg", "Nom")),
    (10, "arkaya", "NOUN", ma("arka", "Noun", "A3sg", "Dat")),
    (11, "dün", "ADV", ma("dün", "Adv")),
    (12, "yine", "ADV", ma("yine", "Adv")),
    (13, "çok", "ADV", ma("çok", "Adv")),
    (14, "dikkatlice", "ADV", ma("dikkatlice", "Adv")),
    (15, "sonunda", "ADV", ma("sonunda", "Adv")),
    (16, "inceledi", "VERB", ma("incele", "Verb","Past", "A3sg")),
]

WALKTHROUGH_EXPECTED = [
    (2, 16, RuleCode.NV),
    (3, 2, RuleCode.PC),
    (4, 8, RuleCode.PC),
    (5, 8, RuleCode.AJC),
    (6, 8, RuleCode.AJN),
    (7, 8, RuleCode.PC),
    (8, 16, RuleCode.NV),
    (9, 16, RuleCode.NV),
    (10, 9, RuleCode.NC),
    (11, 14, RuleCode.AC),
    (12, 14, RuleCode.AC),
    (13, 14, RuleCode.AC),
    (14, 16, RuleCode.AC),
    (15, 16, RuleCode.AV),
]


def test_long_sentence_leaves_two_unassigned(lexicon):
    """With every rule enabled, a sixteen-token sentence exercising all
    nine rules assigns fourteen heads; the conjunction and the main verb
    stay headless."""
    sentence, analyses = build(WALKTHROUGH)
    assignments = run(sentence, analyses, lexicon, EVERYTHING)
    assert results(assignments) == WALKTHROUGH_EXPECTED
    unassigned = set(range(1, 17)) - set(assigned_heads(assignments))
    assert sorted(unassigned) == [1, 16]


# -- per-rule details --------------------------------------------------------


def test_three_word_predicate_chains_head_to_head(lexicon):
    rows = [
        (1, "göz", "NOUN", ma("göz", "Noun", "A3sg", "Nom")),
        (2, "kulak", "NOUN", ma("kulak", "Noun", "A3sg", "Nom")),
        (3, "oldu", "VERB", ma("ol", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon) == [
        (2, 1, RuleCode.CPI),
        (3, 2, RuleCode.CPI),
    ]


def test_predicate_noun_is_fenced_off_from_verb_attachment(lexicon):
    rows = [
        (1, "kabul", "NOUN", ma("kabul", "Noun", "A3sg", "Nom")),
        (2, "etti", "VERB", ma("et", "Verb","Past", "A3sg")),
        (3, "gitti", "VERB", ma("git", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon, EVERYTHING) == [(2, 1, RuleCode.CPI)]

    # An ordinary noun in the same frame does attach to the verb.
    plain = [
        (1, "ev", "NOUN", ma("ev", "Noun", "A3sg", "Nom")),
        (2, "etti", "VERB", ma("et", "Verb","Past", "A3sg")),
        (3, "gitti", "VERB", ma("git", "Verb","Past", "A3sg")),
    ]
    assert (1, 2, RuleCode.NV) in run_on(plain, lexicon, EVERYTHING)


def test_possessive_class_compound_heads_second(lexicon):
    rows = [
        (1, "diş", "NOUN", ma("diş", "Noun", "A3sg", "Nom")),
        (2, "fırçası", "NOUN", ma("fırça", "Noun", "A3sg", "P3sg", "Nom")),
    ]
    assert run_on(rows, lexicon) == [(1, 2, RuleCode.NC)]


def test_repeated_reduplication_chains(lexicon):
    rows = [
        (1, "yavaş", "NOUN", ma("yavaş", "Noun", "A3sg", "Nom")),
        (2, "yavaş", "NOUN", ma("yavaş", "Noun", "A3sg", "Nom")),
        (3, "yavaş", "NOUN", ma("yavaş", "Noun", "A3sg", "Nom")),
    ]
    assert run_on(rows, lexicon) == [
        (2, 1, RuleCode.NC),
        (3, 2, RuleCode.NC),
    ]


def test_lexicon_match_uses_lemma_and_folds_case(lexicon):
    rows = [
        (1, "KURU", "NOUN", ma("kuru", "Noun", "A3sg", "Nom")),
        (2, "Yemişleri", "NOUN", ma("yemiş", "Noun", "A3pl", "Acc")),
    ]
    assert run_on(rows, lexicon) == [(2, 1, RuleCode.NC)]


def test_determiner_attaches_to_following_nominal(lexicon):
    rows = [
        (1, "bu", "DET", ma("bu", "Det")),
        (2, "ev", "NOUN", ma("ev", "Noun", "A3sg", "Nom")),
    ]
    assert run_on(rows, lexicon) == [(1, 2, RuleCode.PC)]


def test_proper_noun_run_collapses_to_first(lexicon):
    rows = [
        (1, "Ahmet", "PROPN", ma("ahmet", "Noun", "Prop", "A3sg", "Nom")),
        (2, "Mehmet", "PROPN", ma("mehmet", "Noun", "Prop", "A3sg", "Nom")),
        (3, "Bey", "PROPN", ma("bey", "Noun", "Prop", "A3sg", "Nom")),
    ]
    assert run_on(rows, lexicon) == [
        (2, 1, RuleCode.PC),
        (3, 1, RuleCode.PC),
    ]


def test_case_features_substitute_for_analysis_tags(lexicon):
    # Genitive visible only through FEATS, not the morph analysis.
    tokens = [
        tok(1, "makinenin", "NOUN", "makine", feats=(("Case", "Gen"),)),
        tok(2, "yağı", "NOUN", "yağ", feats=(("Case", "Nom"), ("Number[psor]", "Sing"))),
    ]
    analyses = {1: ma("makine", "Noun"), 2: ma("yağ", "Noun")}
    got = results(run(sent(*tokens), analyses, lexicon))
    assert got == [(1, 2, RuleCode.PC)]


def test_degree_adverb_attaches_to_adjective(lexicon):
    rows = [
        (1, "çok", "ADV", ma("çok", "Adv")),
        (2, "küçük", "ADJ", ma("küçük", "Adj")),
    ]
    assert run_on(rows, lexicon) == [(1, 2, RuleCode.AAJ)]


def test_degree_adverb_attaches_to_next_adverb_directly(lexicon):
    rows = [
        (1, "çok", "ADV", ma("çok", "Adv")),
        (2, "dikkatlice", "ADV", ma("dikkatlice", "Adv")),
        (3, "geldi", "VERB", ma("gel", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon) == [(1, 2, RuleCode.AC)]
    assert run_on(rows, lexicon, AV_ENABLED) == [
        (1, 2, RuleCode.AC),
        (2, 3, RuleCode.AV),
    ]


def test_adverb_queue_cascades_to_shared_head(lexicon):
    rows = [
        (1, "dün", "ADV", ma("dün", "Adv")),
        (2, "yine", "ADV", ma("yine", "Adv")),
        (3, "dikkatlice", "ADV", ma("dikkatlice", "Adv")),
        (4, "geldi", "VERB", ma("gel", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon, AV_ENABLED) == [
        (1, 4, RuleCode.AC),
        (2, 4, RuleCode.AC),
        (3, 4, RuleCode.AV),
    ]


def test_queued_adverbs_stay_headless_without_verb_rule(lexicon):
    rows = [
        (1, "dün", "ADV", ma("dün", "Adv")),
        (2, "yine", "ADV", ma("yine", "Adv")),
        (3, "geldi", "VERB", ma("gel", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon) == []


def test_emphasizing_adverb_attaches_backwards(lexicon):
    rows = [
        (1, "o", "PRON", ma("o", "Pron", "A3sg", "Nom")),
        (2, "bile", "ADV", ma("bile", "Adv")),
        (3, "geldi", "VERB", ma("gel", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon, EVERYTHING) == [
        (1, 3, RuleCode.NV),
        (2, 1, RuleCode.AV),
    ]


def test_emphasizing_adverb_with_no_previous_word_stays_headless(lexicon):
    rows = [
        (1, "bile", "ADV", ma("bile", "Adv")),
        (2, "geldi", "VERB", ma("gel", "Verb","Past", "A3sg")),
    ]
    assert run_on(rows, lexicon, AV_ENABLED) == []


def test_adjective_chain_collects_on_following_noun(lexicon):
    rows = [
        (1, "küçük", "ADJ", ma("küçük", "Adj")),
        (2, "eski", "ADJ", ma("eski", "Adj")),
        (3, "bulanık", "ADJ", ma("bulanık", "Adj")),
        (4, "ev", "NOUN", ma("ev", "Noun", "A3sg", "Nom")),
    ]
    assert run_on(rows, lexicon) == [
        (1, 4, RuleCode.AJC),
        (2, 4, RuleCode.AJC),
        (3, 4, RuleCode.AJN),
    ]


def test_single_adjective_attaches_to_nominal(lexicon):
    rows = [
        (1, "eski", "ADJ", ma("eski", "Adj")),
        (2, "Ankara", "PROPN", ma("ankara", "Noun", "Prop", "A3sg", "Nom")),
    ]
    assert run_on(rows, lexicon) == [(1, 2, RuleCode.AJN)]


def test_pronoun_attaches_to_verb(lexicon):
    rows = [
        (1, "ben", "PRON", ma("ben", "Pron", "A1sg", "Nom")),
        (2, "geldim", "VERB", ma("gel", "Verb","Past", "A1sg")),
    ]
    assert run_on(rows, lexicon, EVERYTHING) == [(1, 2, RuleCode.NV)]
    assert run_on(rows, lexicon) == []  # off by default


def test_upos_falls_back_to_analysis_pos(lexicon):
    tokens = [tok(1, "ev"), tok(2, "geldi")]
    analyses = {1: ma("ev", "Noun", "A3sg", "Nom"),
                2: ma("gel", "Verb","Past", "A3sg")}
    got = results(run(sent(*tokens), analyses, lexicon, EVERYTHING))
    assert got == [(1, 2, RuleCode.NV)]


def test_cycle_risking_edge_is_skipped_and_counted(lexicon):
    # "çok" heads onto "bile" first; the emphasizer rule then wants
    # "bile" to attach backwards onto "çok", which would close a loop.
    rows = [
        (1, "çok", "ADV", ma("çok", "Adv")),
        (2, "bile", "ADV", ma("bile", "Adv")),
        (3, "geldi", "VERB", ma("gel", "Verb","Past", "A3sg")),
    ]
    diag = Diagnostics()
    assert run_on(rows, lexicon, AV_ENABLED, diag) == [(1, 2, RuleCode.AC)]
    assert diag.skipped_cycles == 1
    assert diag.fire_counts == {"AC": 1}


def test_rules_can_be_disabled(lexicon):
    rows = [
        (1, "Kuru", "NOUN", ma("kuru", "Noun", "A3sg", "Nom")),
        (2, "yemiş", "NOUN", ma("yemiş", "Noun", "A3sg", "Nom")),
    ]
    nothing = RuleConfig(enabled=frozenset({RuleCode.PC}))
    assert run_on(rows, lexicon, nothing) == []


def test_config_validation():
    with pytest.raises(ValueError):
        RuleConfig(enabled=frozenset({RuleCode.NONE}))


def test_missing_analysis_is_an_error(lexicon):
    sentence = sent(tok(1, "ev", "NOUN"))
    with pytest.raises(ValueError, match="no morphological analysis"):
        run(sentence, {}, lexicon)


def test_pass_bound_takes_one_pass_per_leftward_step(lexicon):
    # Each determiner attaches to the noun only once the one after it has
    # left the remaining list: n - 1 assigning passes, then an empty one.
    n = 1002
    sentence, analyses = determiner_chain(n)
    diagnostics = Diagnostics()
    assignments = run(sentence, analyses, lexicon, diagnostics=diagnostics)
    assert [(a.dependent, a.head) for a in assignments] == \
        [(i, n) for i in range(n - 1, 0, -1)]
    assert diagnostics.fire_counts == {"PC": n - 1}


def test_a_pass_that_assigns_without_consuming_raises(
        lexicon, monkeypatch, tmp_path, capsys):
    # A repeated rule that records an assignment but leaves every token in
    # place breaks the invariant the pass bound rests on.
    def stuck(state, x, y):
        state.assignments.append(engine.RuleAssignment(x, y, RuleCode.PC))
        return False

    monkeypatch.setattr(engine, "_REPEATED",
                        ((RuleCode.PC, stuck, engine._PC_FIRST, 0),))
    rows = [
        (1, "ev", "NOUN", ma("ev", "Noun", "A3sg", "Nom")),
        (2, "kapı", "NOUN", ma("kapı", "Noun", "A3sg", "Nom")),
        (3, "geldi", "VERB", ma("gel", "Verb", "Past", "A3sg")),
    ]
    sentence, analyses = build(rows)
    with pytest.raises(EngineError, match="more than 3 passes"):
        run(sentence, analyses, lexicon)
    treebank = tmp_path / "t.conllu"
    treebank.write_text(write_conllu([sentence]), encoding="utf-8")
    sidecar = tmp_path / "t.morph"
    sidecar.write_text(sidecar_text({(1, i): a for i, a in analyses.items()}),
                       encoding="utf-8")
    assert main(["annotate", str(treebank), str(sidecar)]) == 3
    assert "internal error: rule loop made more than 3 passes" in \
        capsys.readouterr().err


def test_empty_sentence(lexicon):
    assert run(sent(), {}, lexicon) == []


def test_diagnostics_merge():
    a = Diagnostics()
    a.fire_counts["NC"] = 2
    a.skipped_cycles = 1
    b = Diagnostics()
    b.fire_counts["NC"] = 1
    b.fire_counts["PC"] = 4
    a.merge(b)
    assert a.to_dict() == {"fire_counts": {"NC": 3, "PC": 4},
                           "skipped_cycles": 1}


# -- invariants over random sentences ---------------------------------------


def check_invariants(sentence, assignments):
    n = len(sentence)
    heads = {}
    for a in assignments:
        assert a.dependent not in heads, "token assigned twice"
        assert 1 <= a.dependent <= n and 1 <= a.head <= n
        assert a.dependent != a.head
        assert a.code in RuleCode and a.code is not RuleCode.NONE
        heads[a.dependent] = a.head
    for start in heads:
        seen = set()
        cur = start
        while cur in heads:
            assert cur not in seen, "assigned heads form a cycle"
            seen.add(cur)
            cur = heads[cur]


@pytest.mark.parametrize("kind", sorted(DEEP_CHAINS))
def test_deep_late_binding_chain_under_every_ablation_config(lexicon, kind):
    # The chain once attached by recursion, one call per link, and died
    # with RecursionError near 1,000 links.
    n = 5000
    sentence, analyses = deep_chain(n, kind)
    *_, chain_code, last_code = DEEP_CHAINS[kind]
    for config in ablation_steps():
        assignments = run(sentence, analyses, lexicon, config)
        check_invariants(sentence, assignments)
        got = [(a.dependent, a.head, a.code.value) for a in assignments]
        if {chain_code, last_code} <= {c.value for c in config.enabled}:
            # The last word attaches first, then the chain from its end.
            assert got == [(n, n + 1, last_code)] + [
                (i, n + 1, chain_code) for i in range(n - 1, 0, -1)]
        else:
            assert got == []


@pytest.mark.parametrize("config", [None, AV_ENABLED, EVERYTHING],
                         ids=["default", "with-av", "all-rules"])
def test_random_sentences_obey_invariants(lexicon, config):
    rng = random.Random(99)
    for _ in range(300):
        sentence, analyses = random_sentence(rng)
        first = run(sentence, analyses, lexicon, config)
        check_invariants(sentence, first)
        again = run(sentence, analyses, lexicon, config)
        assert results(first) == results(again)


def test_a_second_member_is_deferred_at_most_once(lexicon, monkeypatch):
    """``waiting`` holds one first member per second member, so a second
    deferral would silently drop a late binding."""
    defer = EngineState.defer
    deferred = Counter()

    def checked_defer(state, first, second, code):
        assert second not in state.waiting
        deferred[code] += 1
        defer(state, first, second, code)

    monkeypatch.setattr(EngineState, "defer", checked_defer)
    rng = random.Random(4242)
    for _ in range(300):
        sentence, analyses = random_sentence(rng)
        view = SentenceView(sentence, analyses, lexicon)
        for config in ablation_steps():
            run(sentence, view, lexicon, config)
    assert deferred[RuleCode.AC] and deferred[RuleCode.AJC]


# -- shared sentence views ---------------------------------------------------


def traced_run(sentence, analyses, lexicon, config):
    diagnostics = Diagnostics()
    assignments = run(sentence, analyses, lexicon, config, diagnostics)
    return assignments, diagnostics.to_dict()


def view_snapshot(view):
    return [getattr(view, name) for name in
            ("pos", "forms", "genitive", "accusative", "possessive", "bare",
             "bits", "once", "repeated")]


def test_shared_view_matches_fresh_runs_on_every_ablation_step(lexicon):
    rng = random.Random(2718)
    for _ in range(150):
        sentence, analyses = random_sentence(rng)
        view = SentenceView(sentence, analyses, lexicon)
        for config in ablation_steps():
            assert traced_run(sentence, view, lexicon, config) \
                == traced_run(sentence, dict(analyses), lexicon, config)


def test_running_a_view_twice_leaves_it_unchanged(lexicon):
    rng = random.Random(3141)
    for _ in range(150):
        sentence, analyses = random_sentence(rng)
        view = SentenceView(sentence, analyses, lexicon)
        before = view_snapshot(view)
        first = traced_run(sentence, view, lexicon, EVERYTHING)
        assert traced_run(sentence, view, lexicon, EVERYTHING) == first
        assert view_snapshot(view) == before


def test_view_of_another_sentence_or_lexicon_raises(lexicon):
    short = sent(tok(1, "kabul", "NOUN", "kabul"))
    longer = sent(tok(1, "kabul", "NOUN", "kabul"), tok(2, "etti", "VERB", "et"))
    analyses = {1: ma("kabul", "Noun", "A3sg", "Nom"),
                2: ma("et", "Verb", "Past", "A3sg")}
    view = SentenceView(longer, analyses, lexicon)
    assert results(run(longer, view, lexicon)) == [(2, 1, RuleCode.CPI)]
    message = "the sentence view was built for another sentence or lexicon"
    with pytest.raises(ValueError, match=message):
        run(longer, SentenceView(short, analyses, lexicon), lexicon)
    with pytest.raises(ValueError, match=message):
        run(short, view, lexicon)
    # An equal lexicon loaded again is another lexicon.
    with pytest.raises(ValueError, match=message):
        run(longer, view, load_lexicon(default_lexicon_dir()))


def test_missing_analysis_message_is_unchanged(lexicon):
    sentence = sent(tok(1, "ev", "NOUN"), tok(2, "kapı", "NOUN"))
    partial = {1: ma("ev", "Noun", "A3sg", "Nom")}
    message = "token 2 ('kapı') has no morphological analysis"
    with pytest.raises(ValueError) as direct:
        run(sentence, partial, lexicon)
    assert str(direct.value) == message
    with pytest.raises(ValueError) as building:
        SentenceView(sentence, partial, lexicon)
    assert str(building.value) == message


# Reference definitions of the per-token facts, evaluated on demand the
# way the rules once computed them on every test.

_TAG_POOL = ("A3sg", "A3pl", "P1sg", "P3sg", "P3pl", "Nom", "Acc", "Dat",
             "Loc", "Abl", "Gen", "Ins", "Equ", "Past", "Prog1")


def reference_facts(token, analysis):
    feats = dict(token.feats)
    tags = analysis.tags
    possessive = any(t in ("P1sg", "P2sg", "P3sg", "P1pl", "P2pl", "P3pl")
                     for t in tags) \
        or any(k.endswith("[psor]") for k in feats)
    case = feats.get("Case")
    overt = any(t in ("Acc", "Dat", "Loc", "Abl", "Gen", "Ins", "Equ")
                for t in tags)
    words = [token.form, analysis.lemma] + ([token.lemma] if token.lemma else [])
    return {
        "pos": token.upos if token.upos is not None
        else ROOT_POS_TO_UPOS.get(analysis.pos),
        "forms": {fold(w) for w in words},
        "genitive": "Gen" in tags or case == "Gen",
        "accusative": "Acc" in tags or case == "Acc",
        "possessive": possessive,
        "bare": not overt and case in (None, "Nom") and not possessive,
    }


def test_view_facts_match_reference_definitions(lexicon):
    rng = random.Random(1618)
    pos_tags = sorted(ROOT_POS_TO_UPOS) + ["Zz"]
    for _ in range(400):
        sentence = random_conllu_sentence(rng)
        analyses = {
            t.id: ma(rng.choice(("ev", "EV", "Işık", "İstanbul", t.form)),
                     rng.choice(pos_tags),
                     *rng.sample(_TAG_POOL, rng.randint(0, 3)))
            for t in sentence.tokens}
        view = SentenceView(sentence, analyses, lexicon)
        for token in sentence.tokens:
            got = {name: getattr(view, name)[token.id] for name in
                   ("pos", "genitive", "accusative", "possessive", "bare")}
            got["forms"] = set(view.forms[token.id])
            assert len(view.forms[token.id]) == len(got["forms"])
            assert got == reference_facts(token, analyses[token.id])


# -- first-member filters and the first-word map ------------------------------
#
# The engine before them, kept as references: a lexicon pair test joined
# the two words into one string and looked it up in a set of bigram
# strings, and the scan sent every adjacent pair of every enabled rule to
# its pair test, with no rule left out.

def reference_pair_in(keys):
    """``EngineState.pair_in`` over ``reference_pair_keys`` strings."""
    def pair_in(state, cls, first_id, second_id):
        pairs = keys[cls]
        forms = state.view.forms
        seconds = forms[second_id]
        for first in forms[first_id]:
            for second in seconds:
                if f"{first} {second}" in pairs:
                    return True
        return False
    return pair_in


def reference_scan(state, try_pair, bits, first):
    """``_scan`` without the first-member filter."""
    remaining = state.remaining
    i = 0
    while i + 1 < len(remaining):
        before = len(remaining)
        fired = try_pair(state, remaining[i], remaining[i + 1])
        if not fired or len(remaining) == before:
            i += 1


class ReferenceView(SentenceView):
    """A view that schedules every rule, whatever the sentence holds."""

    __slots__ = ()

    def __init__(self, sentence, analyses, lexicon):
        super().__init__(sentence, analyses, lexicon)
        self.once = tuple((code, test, bit) for code, test, bit, _ in engine._ONCE)
        self.repeated = tuple((code, test, bit)
                              for code, test, bit, _ in engine._REPEATED)


REFERENCE_CONFIGS = ablation_steps() + [RuleConfig(), EVERYTHING]


def reference_runs(sentence, analyses, lexicon, keys):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_scan", reference_scan)
        patch.setattr(EngineState, "pair_in", reference_pair_in(keys))
        patch.setattr(engine, "SentenceView", ReferenceView)
        return [traced_run(sentence, dict(analyses), lexicon, config)
                for config in REFERENCE_CONFIGS]


def assert_runs_match_reference(cases, lexicon, keys):
    """Equal assignment lists and diagnostics under every ablation step,
    the default rules and all rules, on one view shared by the runs."""
    for sentence, analyses in cases:
        view = SentenceView(sentence, analyses, lexicon)
        got = [traced_run(sentence, view, lexicon, config)
               for config in REFERENCE_CONFIGS]
        assert got == reference_runs(sentence, analyses, lexicon, keys), \
            [t.form for t in sentence.tokens]


def renumbered(kept):
    """A sentence and analyses from ``(token, analysis)`` pairs."""
    tokens = [tok(i, t.form, t.upos, t.lemma, feats=t.feats)
              for i, (t, _) in enumerate(kept, start=1)]
    return sent(*tokens), {i: a for i, (_, a) in enumerate(kept, start=1)}


def lexicon_words(lexicon):
    words = set(lexicon.degree_adverbs | lexicon.head_emphasizing_adverbs)
    for follows in lexicon.pairs.values():
        words.update(follows)
        for seconds in follows.values():
            words.update(seconds)
    return words


def sparse_cases(rng, lexicon, n):
    """Random sentences with every ADV, every VERB or every lexicon word
    dropped, some with UPOS left to the analysis."""
    words = lexicon_words(lexicon)
    drops = {
        "no-adv": lambda t, a: t.upos == "ADV",
        "no-verb": lambda t, a: t.upos == "VERB",
        "no-lexicon-word": lambda t, a: not words.isdisjoint(
            {fold(t.form), fold(a.lemma), fold(t.lemma or "")}),
    }
    cases = []
    for k in range(n):
        drop = list(drops.values())[k % len(drops)]
        sentence, analyses = random_sentence(rng)
        kept = [(t, analyses[t.id]) for t in sentence.tokens
                if not drop(t, analyses[t.id])]
        if rng.random() < 0.3:
            kept = [(tok(t.id, t.form, None, t.lemma), a) for t, a in kept]
        cases.append(renumbered(kept))
    return cases


def test_filtered_runs_match_reference_on_random_sentences(lexicon):
    rng = random.Random(5150)
    keys = reference_pair_keys(default_lexicon_dir())
    assert_runs_match_reference(
        [random_sentence(rng) for _ in range(300)], lexicon, keys)


def test_filtered_runs_match_reference_on_long_sentences(lexicon):
    rng = random.Random(5151)
    keys = reference_pair_keys(default_lexicon_dir())
    assert_runs_match_reference(
        [random_sentence(rng, length=rng.randint(200, 500)) for _ in range(6)],
        lexicon, keys)


def test_filtered_runs_match_reference_on_pos_sparse_sentences(lexicon):
    rng = random.Random(5152)
    keys = reference_pair_keys(default_lexicon_dir())
    cases = sparse_cases(rng, lexicon, 450)
    assert any(not s.tokens for s, _ in cases) and any(len(s) > 10 for s, _ in cases)
    assert_runs_match_reference(cases, lexicon, keys)


ODD_LEXICON = {
    "cpi.txt": "göz kulak ol\nIŞIK tut\nkabul et\nbir iki üç dört\n",
    "nc.txt": "kuru yemiş\nİSTANBUL boğazı\n",
    "pc.txt": "diş fırçası\nkuru yemişi\n",
    "redup.txt": "yavaş yavaş\nışıl ışıl\n",
    "adv_degree.txt": "çok\n",
    "adv_emph.txt": "bile\n",
}
# Forms that hold spaces or NBSP, case variants of I/İ, the words of the
# three- and four-word entries, and words of no entry.
ODD_WORDS = ("kuru yemiş", "kuru\xa0yemiş", "kuru", "KURU", "yemiş", "yemişi",
             "göz", "GÖZ", "kulak", "kulak ol", "ol", "IŞIK", "ışık", "Işık",
             "tut", "İSTANBUL", "istanbul", "Istanbul", "boğazı", "ışıl",
             "IŞIL", "bir", "iki", "iki üç", "üç", "dört", "yavaş", "çok",
             "bile", "ev", "diş", "fırçası", "kabul", "et", "I", "İ")


def test_filtered_runs_match_reference_on_odd_forms(tmp_path):
    for name, text in ODD_LEXICON.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    lexicon = load_lexicon(tmp_path)
    keys = reference_pair_keys(tmp_path)
    rng = random.Random(5153)
    upos = ("NOUN", "PROPN", "VERB", "ADJ", "ADV", "DET", "PRON", None)
    root = {"NOUN": "Noun", "PROPN": "Noun", "VERB": "Verb", "ADJ": "Adj",
            "ADV": "Adv", "DET": "Det", "PRON": "Pron", None: "Noun"}
    cases = []
    for _ in range(400):
        kept = []
        for i in range(1, rng.randint(2, 12) + 1):
            tag = rng.choice(upos)
            # empty and absent treebank lemmas, and lemmas unlike the form
            lemma = rng.choice(("", None, rng.choice(ODD_WORDS)))
            kept.append((tok(i, rng.choice(ODD_WORDS), tag, lemma),
                         ma(rng.choice(ODD_WORDS), root[tag])))
        cases.append(renumbered(kept))
    assert_runs_match_reference(cases, lexicon, keys)


def test_pair_in_matches_bigram_strings_on_odd_forms(tmp_path):
    for name, text in ODD_LEXICON.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    lexicon = load_lexicon(tmp_path)
    keys = reference_pair_keys(tmp_path)
    reference = reference_pair_in(keys)
    words = [fold(w) for w in ODD_WORDS] + ["", " ", "\xa0", "kuru "]
    state = EngineState(SentenceView(sent(), {}, lexicon), Diagnostics())
    matched = 0
    for cls in keys:
        for first in words:
            for second in words:
                state.view = SimpleNamespace(lexicon=lexicon,
                                             forms=((), (first,), (second,)))
                want = reference(state, cls, 1, 2)
                assert state.pair_in(cls, 1, 2) == want, (cls, first, second)
                matched += want
    assert matched >= 8
