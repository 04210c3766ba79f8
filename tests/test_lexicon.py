"""Turkish case folding and lexicon loading/matching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruleparse import LexiconError, default_lexicon_dir, fold, load_lexicon
from ruleparse.lexicon import _FILENAMES


def test_fold_handles_turkish_i():
    assert fold("IŞIK") == "ışık"
    assert fold("İstanbul") == "istanbul"
    assert fold("DİŞ") == "diş"
    assert fold("kapı") == "kapı"


@given(st.text(max_size=30))
def test_fold_is_idempotent(text):
    assert fold(fold(text)) == fold(text)


def test_default_lexicons_load(lexicon):
    for entries in (lexicon.complex_predicates, lexicon.noun_compounds,
                    lexicon.possessive_compounds, lexicon.reduplicated_compounds,
                    lexicon.degree_adverbs, lexicon.head_emphasizing_adverbs):
        assert len(entries) > 0
    assert "kuru yemiş" in lexicon.noun_compounds
    assert "çok" in lexicon.degree_adverbs
    assert "bile" in lexicon.head_emphasizing_adverbs


def test_loading_twice_is_stable(lexicon):
    assert load_lexicon(default_lexicon_dir()) == lexicon


def test_match_pair_folds_its_arguments(lexicon):
    assert lexicon.match_pair("cpi", "Yerine", "GETİR")
    assert lexicon.match_pair("nc", "KURU", "yemiş")
    assert not lexicon.match_pair("nc", "kuru", "kurur")


def test_match_pair_rejects_adverb_classes(lexicon):
    with pytest.raises(ValueError, match="unknown compound class"):
        lexicon.match_pair("degree", "çok", "az")


def test_long_entries_match_each_adjacent_bigram(lexicon):
    # "göz kulak ol" contributes both of its word pairs.
    assert lexicon.match_pair("cpi", "göz", "kulak")
    assert lexicon.match_pair("cpi", "kulak", "ol")
    assert not lexicon.match_pair("cpi", "göz", "ol")


def test_match_pair_reduplicated_compound(lexicon):
    assert lexicon.match_pair("redup", "arka", "arkaya")


def test_adverb_membership_ignores_empty_variants(lexicon):
    assert lexicon.is_degree_adverb("", "ÇOK")
    assert not lexicon.is_emphasizing_adverb("")


def _write_minimal(directory, overrides=None):
    contents = {
        "cpi.txt": "kabul et\n",
        "nc.txt": "kuru yemiş\n",
        "pc.txt": "diş fırçası\n",
        "redup.txt": "yavaş yavaş\n",
        "adv_degree.txt": "çok\n",
        "adv_emph.txt": "bile\n",
    }
    contents.update(overrides or {})
    for name, text in contents.items():
        if text is not None:
            (directory / name).write_text(text, encoding="utf-8")


def test_missing_file_is_an_error(tmp_path):
    _write_minimal(tmp_path, {"pc.txt": None})
    with pytest.raises(LexiconError, match="pc.txt"):
        load_lexicon(tmp_path)


def test_single_word_compound_entry_is_an_error(tmp_path):
    _write_minimal(tmp_path, {"nc.txt": "kuru yemiş\ntek\n"})
    with pytest.raises(LexiconError, match="line 2"):
        load_lexicon(tmp_path)


def test_comments_blanks_and_case_are_normalized(tmp_path):
    _write_minimal(tmp_path, {"nc.txt": "# compounds\n\n  KURU   YEMİŞ  \n"})
    lex = load_lexicon(tmp_path)
    assert lex.noun_compounds == frozenset({"kuru yemiş"})
    assert lex.match_pair("nc", "kuru", "yemiş")


def test_adverb_lists_may_hold_single_words(tmp_path):
    _write_minimal(tmp_path, {"adv_degree.txt": "çok\ndaha\n"})
    lex = load_lexicon(tmp_path)
    assert lex.degree_adverbs == frozenset({"çok", "daha"})


def test_expected_filenames():
    assert set(_FILENAMES.values()) == {
        "cpi.txt", "nc.txt", "pc.txt", "redup.txt",
        "adv_degree.txt", "adv_emph.txt",
    }
