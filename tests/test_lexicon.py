"""Turkish case folding and lexicon loading/matching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruleparse import LexiconError, default_lexicon_dir, fold, load_lexicon
from ruleparse.lexicon import _FILENAMES, COMPOUND_CLASSES

from conftest import reference_pair_keys


def test_fold_handles_turkish_i():
    assert fold("IŞIK") == "ışık"
    assert fold("İstanbul") == "istanbul"
    assert fold("DİŞ") == "diş"
    assert fold("kapı") == "kapı"


@given(st.text(max_size=30))
def test_fold_is_idempotent(text):
    assert fold(fold(text)) == fold(text)


def test_default_lexicons_load(lexicon):
    for entries in (*(lexicon.pairs[cls] for cls in COMPOUND_CLASSES),
                    lexicon.degree_adverbs, lexicon.head_emphasizing_adverbs):
        assert len(entries) > 0
    assert "yemiş" in lexicon.pairs["nc"]["kuru"]
    assert "çok" in lexicon.degree_adverbs
    assert "bile" in lexicon.head_emphasizing_adverbs


def test_loading_twice_is_stable(lexicon):
    assert load_lexicon(default_lexicon_dir()) == lexicon


def pair_in(lex, cls, first, second):
    """Whether ``first second`` is a pair of ``cls``: the folded words
    looked up in the first-word map, as the rule engine looks them up."""
    return fold(second) in lex.pairs[cls].get(fold(first), ())


def test_match_pair_folds_its_arguments(lexicon):
    assert pair_in(lexicon, "cpi", "Yerine", "GETİR")
    assert pair_in(lexicon, "nc", "KURU", "yemiş")
    assert not pair_in(lexicon, "nc", "kuru", "kurur")


def test_long_entries_match_each_adjacent_bigram(lexicon):
    # "göz kulak ol" contributes both of its word pairs.
    assert pair_in(lexicon, "cpi", "göz", "kulak")
    assert pair_in(lexicon, "cpi", "kulak", "ol")
    assert not pair_in(lexicon, "cpi", "göz", "ol")


def test_match_pair_reduplicated_compound(lexicon):
    assert pair_in(lexicon, "redup", "arka", "arkaya")


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


def test_a_file_that_is_not_utf8_is_an_error_naming_it(tmp_path):
    # The whole file is decoded before its entries are read, so the
    # decode error comes ahead of the single-word entry on line 1.
    _write_minimal(tmp_path)
    (tmp_path / "nc.txt").write_bytes(b"tek\nkuru yemi\xff\n")
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon(tmp_path)
    assert str(excinfo.value).startswith(
        f"{tmp_path / 'nc.txt'}: 'utf-8' codec can't decode byte 0xff in position 13")


def test_comments_blanks_and_case_are_normalized(tmp_path):
    _write_minimal(tmp_path, {"nc.txt": "# compounds\n\n  KURU   YEMİŞ  \n"})
    lex = load_lexicon(tmp_path)
    assert lex.pairs["nc"] == {"kuru": frozenset({"yemiş"})}
    assert pair_in(lex, "nc", "KURU", "yemiş")


def test_adverb_lists_may_hold_single_words(tmp_path):
    _write_minimal(tmp_path, {"adv_degree.txt": "çok\ndaha\n"})
    lex = load_lexicon(tmp_path)
    assert lex.degree_adverbs == frozenset({"çok", "daha"})


def test_expected_filenames():
    assert set(_FILENAMES.values()) == {
        "cpi.txt", "nc.txt", "pc.txt", "redup.txt",
        "adv_degree.txt", "adv_emph.txt",
    }


def test_pairs_map_first_words_to_folded_followers(tmp_path):
    _write_minimal(tmp_path, {"cpi.txt": "GÖZ  kulak\tOL\nkabul et\n",
                              "redup.txt": "IŞIL ışıl\nyavaş yavaş\n"})
    lex = load_lexicon(tmp_path)
    assert lex.pairs["cpi"] == {"göz": frozenset({"kulak"}),
                                "kulak": frozenset({"ol"}),
                                "kabul": frozenset({"et"})}
    assert lex.pairs["redup"] == {"ışıl": frozenset({"ışıl"}),
                                  "yavaş": frozenset({"yavaş"})}


def test_match_pair_equals_bigram_string_lookup(tmp_path):
    """The first-word map matches exactly the pairs whose space-joined
    folded words are a bigram string, also for words holding spaces or
    NBSP, empty words, I/İ variants and the words of longer entries."""
    _write_minimal(tmp_path, {
        "cpi.txt": "göz kulak ol\nIŞIK tut\nbir iki üç dört\n",
        "nc.txt": "kuru yemiş\nİSTANBUL boğazı\n",
        "pc.txt": "diş fırçası\nkuru\xa0yemişi\n",
    })
    for directory in (default_lexicon_dir(), tmp_path):
        lex = load_lexicon(directory)
        keys = reference_pair_keys(directory)
        words = {w for pairs in keys.values() for key in pairs
                 for w in key.split(" ")}
        vocabulary = sorted(words | {w.upper() for w in words} | {
            "kuru yemiş", "kuru\xa0yemiş", "göz kulak", "kulak ol", "iki üç",
            "", " ", "\xa0", "kuru ", " yemiş", "I", "İ", "ı", "i", "Işık",
            "ISTANBUL", "İstanbul", "istanbul"})
        matched = 0
        for cls in COMPOUND_CLASSES:
            for first in vocabulary:
                for second in vocabulary:
                    want = f"{fold(first)} {fold(second)}" in keys[cls]
                    assert pair_in(lex, cls, first, second) == want, \
                        (cls, first, second)
                    matched += want
        assert matched >= sum(len(pairs) for pairs in keys.values())
