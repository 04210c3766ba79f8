"""Suffix inventory, analyses, and the lemma-suffix matrix."""

import io
import random
from collections import Counter

import pytest

from ruleparse import (InputFormatError, LemmaSuffixMatrix, MorphAnalysis,
                       build_matrix, default_inventory, inflectional_suffixes,
                       last_suffix, load_inventory, read_matrix, suffix_vector,
                       write_matrix)
from ruleparse.morpho import INFLECTIONAL, ROOT_POS_TAGS, ROOT_POS_TO_UPOS

from conftest import ShortReads, Written, ma


def test_packaged_inventory_shape():
    inv = default_inventory()
    assert len(inv) == 81
    assert len(inv.inflectional) == 35
    assert len(inv.tags) == len(set(inv.tags))


def test_inventory_classes():
    inv = default_inventory()
    for tag in ("A3pl", "Gen", "Past", "Neg", "Cop", "P1sg"):
        assert tag in inv.inflectional
    for tag in ("Caus", "Pass", "PastPart", "Inf1", "Ly", "Agt", "Become"):
        assert tag in inv and tag not in inv.inflectional


def test_inventory_index_matches_order():
    inv = default_inventory()
    assert inv.tags[0] == "A1sg"
    assert all(inv.index[t] == i for i, t in enumerate(inv.tags))


def test_load_inventory_from_stream():
    text = "# comment\nFoo\tinflectional\n\nBar\tderivational\n"
    # A handle is read line by line, wherever its reads end.
    for source in [io.StringIO(text)] + [ShortReads(text, limit)
                                         for limit in range(1, len(text) + 1)]:
        inv = load_inventory(source)
        assert inv.tags == ("Foo", "Bar")
        assert inv.inflectional == {"Foo"}


@pytest.mark.parametrize("text", [
    "Foo inflectional",                      # no tab
    "Foo\tinflectional\tmore",               # extra column
    "Foo\tweird",                            # unknown class
    "Foo\tinflectional\nFoo\tderivational",  # duplicate tag
    "# c\n\nFoo\tinflectional\tmore",        # extra column on line 3
])
def test_load_inventory_rejects_malformed(text):
    with pytest.raises(InputFormatError) as expected:
        load_inventory(text)
    # A handle gives the same error, line number included, wherever its
    # reads end.
    for limit in range(1, len(text) + 1):
        with pytest.raises(InputFormatError) as excinfo:
            load_inventory(ShortReads(text, limit))
        assert str(excinfo.value) == str(expected.value)


def test_root_pos_upos_mapping():
    assert ROOT_POS_TO_UPOS["Noun"] == "NOUN"
    assert ROOT_POS_TO_UPOS["Conj"] == "CCONJ"
    assert ROOT_POS_TO_UPOS["Postp"] == "ADP"
    assert ROOT_POS_TO_UPOS["Ques"] == "PART"
    assert ROOT_POS_TO_UPOS["Dup"] == "X"
    assert ROOT_POS_TO_UPOS["Punc"] == "PUNCT"


def test_analysis_validation():
    with pytest.raises(ValueError):
        MorphAnalysis(lemma="", pos="Noun")
    with pytest.raises(ValueError):
        MorphAnalysis(lemma="ev", pos="")


def test_inflectional_suffixes_keeps_class_and_order():
    analysis = ma("insan", "Noun", "A3pl", "Gen")
    assert inflectional_suffixes(analysis) == ("A3pl", "Gen")


def test_inflectional_suffixes_drops_derivational():
    # iste+Verb+PastPart+P3sg+Acc: the participle is derivational.
    analysis = ma("iste", "Verb", "PastPart", "P3sg", "Acc")
    assert inflectional_suffixes(analysis) == ("P3sg", "Acc")


def test_inflectional_suffixes_skips_derivation_boundaries():
    # A root-POS tag inside the sequence marks a derived stem, not a suffix.
    analysis = ma("hız", "Noun", "Ly", "Adv")
    assert inflectional_suffixes(analysis) == ()


def test_inflectional_suffixes_unknown_tag():
    with pytest.raises(InputFormatError, match="unknown morpheme tag"):
        inflectional_suffixes(ma("ev", "Noun", "Bogus"))


def test_proper_noun_marker_is_passed_over_unless_listed():
    analysis = ma("ahmet", "Noun", "Prop", "A3sg", "Nom")
    assert "Prop" not in default_inventory()
    assert inflectional_suffixes(analysis) == ("A3sg", "Nom")
    # An inventory that lists the marker gives it its class.
    base = "A3sg\tinflectional\nNom\tinflectional\n"
    listed = load_inventory(base + "Prop\tinflectional\n")
    assert inflectional_suffixes(analysis, listed) == ("Prop", "A3sg", "Nom")
    derivational = load_inventory(base + "Prop\tderivational\n")
    assert inflectional_suffixes(analysis, derivational) == ("A3sg", "Nom")


def test_last_suffix():
    assert last_suffix(ma("insan", "Noun", "A3pl", "Gen")) == "Gen"
    assert last_suffix(ma("ev", "Noun", "PastPart")) == "PastPart"
    assert last_suffix(ma("ve", "Conj")) is None


# -- matrix ------------------------------------------------------------------


def naive_matrix(analyses, inventory, cap):
    """Independent hand-rolled count-and-normalize reference."""
    freq: dict = {}
    counts: dict = {}
    for a in analyses:
        freq[a.lemma] = freq.get(a.lemma, 0) + 1
        row = counts.setdefault(a.lemma, {})
        for tag in a.tags:
            if tag in inventory.index:
                row[tag] = row.get(tag, 0) + 1
    kept = sorted(freq, key=lambda lemma: (-freq[lemma], lemma))[:cap]
    rows = {}
    for lemma in kept:
        total = sum(counts[lemma].values())
        if total:
            rows[lemma] = tuple(counts[lemma].get(tag, 0) / total
                                for tag in inventory.tags)
        else:
            rows[lemma] = (0.0,) * len(inventory.tags)
    return rows


def random_analyses(rng, n, with_junk=False):
    inv = default_inventory()
    lemmas = ["ev", "gel", "göz", "kapı", "insan", "iste", "al", "ver"]
    pool = list(inv.tags)
    out = []
    for _ in range(n):
        tags = tuple(rng.sample(pool, rng.randint(0, 4)))
        if with_junk and rng.random() < 0.2:
            tags = tags + (rng.choice(["Bogus", "Zzz"]),)
        if with_junk and rng.random() < 0.2:
            tags = ("Verb",) + tags
        out.append(ma(rng.choice(lemmas), "Noun", *tags))
    return out


def test_matrix_matches_naive_oracle_exactly():
    rng = random.Random(7)
    for trial in range(40):
        # Half the inputs carry tags outside the inventory, root POS tags
        # among them; caps from one lemma to more than there are.
        analyses = random_analyses(rng, rng.randint(1, 250),
                                   with_junk=trial % 2 == 1)
        cap = rng.choice((1, rng.randint(1, 10), 40000))
        unknown = Counter()
        matrix = build_matrix(analyses, cap=cap, unknown_tags=unknown)
        assert matrix.rows == naive_matrix(analyses, matrix.inventory, cap)
        assert unknown == Counter(
            tag for a in analyses for tag in a.tags
            if tag not in matrix.inventory and tag not in ROOT_POS_TAGS)


def test_counted_updates_equal_single_updates_exactly():
    rng = random.Random(17)
    for trial in range(20):
        analyses = random_analyses(rng, rng.randint(1, 250), with_junk=True)
        unknown_single = Counter()
        cap = rng.randint(1, 10)
        single = build_matrix(analyses, cap=cap, unknown_tags=unknown_single)
        # Each distinct analysis fed as a few runs of equal (not identical)
        # copies, the runs in any order: the build counts analyses by
        # value, not by identity or position.
        parts = []
        for a, count in Counter(analyses).items():
            while count:
                part = rng.randint(1, count)
                parts.append([ma(a.lemma, a.pos, *a.tags)
                              for _ in range(part)])
                count -= part
        rng.shuffle(parts)
        grouped = [a for part in parts for a in part]
        unknown_counted = Counter()
        counted = build_matrix(grouped, cap=cap, unknown_tags=unknown_counted)
        assert counted.rows == single.rows
        assert unknown_counted == unknown_single
        assert build_matrix(grouped).rows == naive_matrix(
            analyses, counted.inventory, 40000)


def test_matrix_rows_normalized():
    rng = random.Random(11)
    matrix = build_matrix(random_analyses(rng, 200))
    for row in matrix.rows.values():
        total = sum(row)
        assert total == 0.0 or abs(total - 1.0) <= 1e-9


def test_matrix_zero_row_for_suffixless_lemma():
    matrix = build_matrix([ma("ve", "Conj")])
    assert matrix.rows["ve"] == (0.0,) * 81


def test_matrix_cap_keeps_most_frequent_with_lexicographic_ties():
    analyses = [ma("b", "Noun", "Gen"), ma("b", "Noun", "Acc"),
                ma("c", "Noun", "Dat"), ma("a", "Noun", "Nom")]
    matrix = build_matrix(analyses, cap=2)
    # b is most frequent; a beats c on the tie.
    assert set(matrix.rows) == {"a", "b"}


def test_matrix_cap_must_be_positive():
    # Checked before the corpus is read: nothing is drawn from it.
    yielded = []

    def corpus():
        for analysis in (ma("ev", "Noun"), ma("kitap", "Noun", "Acc")):
            yielded.append(analysis)
            yield analysis

    with pytest.raises(ValueError, match="cap"):
        build_matrix(corpus(), cap=0)
    assert yielded == []


def test_matrix_input_order_is_irrelevant():
    rng = random.Random(13)
    analyses = random_analyses(rng, 300)
    shuffled = analyses[:]
    rng.shuffle(shuffled)
    assert build_matrix(analyses).rows == build_matrix(shuffled).rows


def test_unknown_tags_counted_but_root_pos_ignored():
    unknown = Counter()
    build_matrix([ma("ev", "Noun", "Bogus", "Gen"),
                  ma("git", "Verb", "Verb", "Past")],
                 unknown_tags=unknown)
    assert unknown == {"Bogus": 1}


def test_matrix_write_read_is_bit_exact():
    rng = random.Random(19)
    matrix = build_matrix(random_analyses(rng, 400))
    text = write_matrix(matrix)
    reloaded = read_matrix(text)
    assert write_matrix(reloaded) == text
    assert set(reloaded.rows) == set(matrix.rows)


def reference_write_matrix(matrix):
    """The serializer before it formatted each distinct value once."""
    lines = ["lemma\t" + "\t".join(matrix.inventory.tags)]
    for lemma in sorted(matrix.rows):
        values = "\t".join(f"{v:.9f}" for v in matrix.rows[lemma])
        lines.append(f"{lemma}\t{values}")
    return "\n".join(lines) + "\n"


def test_write_matrix_equals_per_value_formatting():
    rng = random.Random(23)
    inv = default_inventory()
    width = len(inv)
    # Values that round at the 9th decimal (both ways and to a carry),
    # signed zeros, tiny and large values.
    edge = (0.0, -0.0, 1.0, 0.5, 5e-10, 4.9999999999e-10, 1.5e-9, 2.5e-9,
            0.1234567885, 0.1234567895, 0.9999999995, 0.9999999994,
            1e-300, -1e-300, 123456.0000000005, -0.25)
    rows = {"zeros": (0.0,) * width, "negative-zeros": (-0.0,) * width,
            "mixed-zeros": tuple(rng.choice((0.0, -0.0)) for _ in range(width)),
            "empty": ()}
    for n in range(300):
        kind = rng.randrange(4)
        if kind == 0:
            row = [0.0] * width
            for i in rng.sample(range(width), rng.randint(1, 5)):
                row[i] = rng.random()
        elif kind == 1:
            row = [rng.choice(edge) for _ in range(width)]
        elif kind == 2:
            row = [round(rng.random(), rng.randint(8, 11)) for _ in range(width)]
        else:
            row = [0.0] * width
            row[rng.randrange(width)] = -0.0
        rows[f"lemma{n}"] = tuple(row)
    for order in (list(rows), sorted(rows, reverse=True)):
        matrix = LemmaSuffixMatrix(inv, {lemma: rows[lemma] for lemma in order})
        assert write_matrix(matrix) == reference_write_matrix(matrix)
    # A negative zero printed first must not change how 0.0 prints later,
    # nor the other way round.
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        matrix = LemmaSuffixMatrix(inv, {"a": (first,) * width, "b": (second,) * width})
        assert write_matrix(matrix) == reference_write_matrix(matrix)


def test_read_matrix_rejects_header_mismatch():
    with pytest.raises(InputFormatError, match="header"):
        read_matrix("lemma\tGen\tAcc\nev\t1.0\t0.0\n")


def test_read_matrix_rejects_ragged_rows():
    inv = load_inventory("Gen\tinflectional\nAcc\tinflectional\n")
    with pytest.raises(InputFormatError, match="expected 3 columns"):
        read_matrix("lemma\tGen\tAcc\nev\t1.0\n", inv)


def test_read_matrix_rejects_a_lemma_listed_twice():
    # A second row once replaced the first without a word.
    inv = load_inventory("Gen\tinflectional\nAcc\tinflectional\n")
    with pytest.raises(InputFormatError) as excinfo:
        read_matrix("lemma\tGen\tAcc\nev\t1.0\t0.0\ngöz\t0\t1\n"
                    "ev\t0.0\t1.0\n", inv)
    assert str(excinfo.value) == "matrix line 4: duplicate lemma 'ev'"


def test_write_matrix_to_a_handle_writes_a_line_at_a_time():
    matrix = build_matrix(random_analyses(random.Random(31), 200))
    out = Written()
    assert write_matrix(matrix, out) is None
    assert out.chunks == write_matrix(matrix).splitlines(keepends=True)


def test_read_matrix_streamed_equals_read_from_text():
    rng = random.Random(37)
    text = write_matrix(build_matrix(random_analyses(rng, 400)))
    expected = read_matrix(text)
    for limit in (1, 7, 64, 1000, len(text)):
        assert read_matrix(ShortReads(text, limit)).rows == expected.rows
    crlf = text.replace("\n", "\r\n")
    assert read_matrix(ShortReads(crlf, 5)).rows == expected.rows


def test_read_matrix_shares_one_float_per_value_text():
    inv = load_inventory("Gen\tinflectional\nAcc\tinflectional\n")
    matrix = read_matrix("lemma\tGen\tAcc\na\t0.500000000\t0.500000000\n"
                         "b\t0.500000000\t-0.000000000\n"
                         "c\t0.000000000\t-0.000000000\n", inv)
    a, b, c = (matrix.rows[lemma] for lemma in "abc")
    assert a[0] is a[1] is b[0]
    assert b[1] is c[1]
    # Equal as numbers, but "-0.0" is kept apart and prints with its sign.
    assert c[0] is not c[1]
    assert write_matrix(matrix).splitlines()[3] == "c\t0.000000000\t-0.000000000"


@pytest.mark.parametrize("row,message", [
    ("0.5\tnan\tabc", "matrix line 3: bad value (could not convert string to "
                      "float: 'abc')"),
    ("0.5\tnan\t-1", "matrix line 3: value 'nan' is not a finite number >= 0"),
    ("0.5\t0.5\t-1", "matrix line 3: value '-1' is not a finite number >= 0"),
    ("0.5\t0.5", "matrix line 3: expected 4 columns, got 3"),
])
def test_read_matrix_error_names_its_line_wherever_the_chunks_end(row, message):
    inv = load_inventory("Gen\tinflectional\nAcc\tinflectional\nLoc\tinflectional\n")
    text = f"lemma\tGen\tAcc\tLoc\nev\t0.5\t0.5\t0.0\n\ngöz\t{row}\nel\t1\t0\t0\n"
    text = text.replace("\n\ngöz", "\ngöz")
    for source in [text] + [ShortReads(text, limit)
                            for limit in range(1, len(text) + 1)]:
        with pytest.raises(InputFormatError) as excinfo:
            read_matrix(source, inv)
        assert str(excinfo.value) == message


def test_suffix_vector_lookup_and_default():
    matrix = build_matrix([ma("ev", "Noun", "Gen")])
    vec = suffix_vector(matrix, "ev")
    assert len(vec) == 81
    assert vec[matrix.inventory.index["Gen"]] == 1.0
    assert suffix_vector(matrix, "yok") == (0.0,) * 81


def test_inventory_class_constant_round_trip():
    inv = default_inventory()
    text = "\n".join(f"{tag}\t{INFLECTIONAL if tag in inv.inflectional else 'derivational'}"
                     for tag in inv.tags)
    assert load_inventory(text).entries == inv.entries
