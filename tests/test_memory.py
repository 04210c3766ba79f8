"""Memory bounds of the streamed compare path and of the ablation,
measured with tracemalloc.

Each bound is set between what the streamed code holds and what a
whole-file read, a whole-text write or a view of every sentence at once
would hold on the same input.
"""

import random
import tracemalloc

import numpy  # noqa: F401  (imported before tracing: sigtest loads it)

from ruleparse import ablate, cli, write_conllu
from ruleparse.conllu import group_by_sentence
from ruleparse.engine import SentenceView
from ruleparse.features import FeatureBundle, export_jsonl

from conftest import random_treebank, sent, tok


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_size(build):
    """What ``build()`` returns, and how much memory it holds."""
    tracemalloc.start()
    try:
        value = build()
        return value, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_matrix_memory_is_distinct_pairs_plus_positions(tmp_path):
    # 30,000 analyses of 5 distinct (lemma, morpheme string) pairs, with
    # long lemmas: the text is several times the position set.
    n = 30_000
    pairs = [("lemma%d" % k * 30, "Noun+A3sg+" + "+".join(["Gen"] * k))
             for k in range(1, 6)]
    corpus = tmp_path / "corpus.tsv"
    with open(corpus, "w", encoding="utf-8") as handle:
        for i in range(n):
            lemma, morphemes = pairs[i % len(pairs)]
            handle.write(f"{i // 20 + 1}\t{i % 20 + 1}\t{lemma}\t{morphemes}\n")
    text_size = corpus.stat().st_size
    # The reader keeps each position as one packed int; a set of
    # (sentence, token) tuples holds about half as much again, more than
    # the bound below allows.
    _, positions = traced_size(lambda: {(i // 20 + 1) << 32 | (i % 20 + 1)
                                        for i in range(n)})
    output = tmp_path / "m.tsv"
    peak = traced_peak(lambda: cli.main(["matrix", str(corpus),
                                         "--output", str(output)]))
    assert output.read_text(encoding="utf-8").count("\n") == 6
    print(f"matrix: text {text_size}, positions {positions}, peak {peak}")
    assert text_size > 4 << 20
    assert peak < positions + (1 << 20)


def test_sigtest_memory_is_near_one_parsed_file(tmp_path):
    gold, _, _ = random_treebank(random.Random(41), 500, max_len=60)
    text = write_conllu(gold)
    gold_path = tmp_path / "gold.conllu"
    gold_path.write_text(text, encoding="utf-8")
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for k in (1, 2):
            (tmp_path / side / f"run{k}.conllu").write_text(text, encoding="utf-8")
    _, resident = traced_size(lambda: cli._read(gold_path, cli.parse_conllu))
    parse_peak = traced_peak(lambda: cli._read(gold_path, cli.parse_conllu))
    peak = traced_peak(lambda: cli.main(
        ["sigtest", str(gold_path), str(tmp_path / "a"), str(tmp_path / "b"),
         "--shuffles", "10", "--output", str(tmp_path / "sig.json")]))
    print(f"sigtest: one file {resident}, its parse {parse_peak}, peak {peak}")
    # The gold treebank, one system file as it is parsed, and the kernel's
    # fixed working memory; the four system files together hold more.
    assert 4 * resident > parse_peak + (1 << 19)
    assert peak < resident + parse_peak + (1 << 19)


def test_jsonl_export_streams_to_its_output_file(tmp_path):
    rng = random.Random(43)
    rows = [tuple(rng.choice((0.0, 0.25, 0.5)) for _ in range(81))
            for _ in range(4)]
    sentences, bundles = [], []
    for _ in range(400):
        length = rng.randint(1, 12)
        sentences.append(sent(*[tok(i, "söz") for i in range(1, length + 1)]))
        bundles.append([FeatureBundle(rule_code="NONE",
                                      suffix_vector=rng.choice(rows))
                        for _ in range(length)])
    output = tmp_path / "features.jsonl"

    def write():
        with cli._output(str(output), "features", [], {}) as out:
            export_jsonl(sentences, bundles, out)

    peak = traced_peak(write)
    size = output.stat().st_size
    print(f"jsonl: output {size}, peak {peak}")
    assert size > 1 << 20
    assert peak < size / 8


def test_ablate_holds_one_sentence_view_at_a_time(lexicon):
    # About 3,700 tokens.  Every view at once, with its first-member bits,
    # takes about 1.1 MB.  Ablate's peak above its inputs (the treebank
    # and the sidecar grouped by sentence) is one view, about 0.02 MB; a
    # loop that builds every view before the first step runs peaks near
    # 1.2 MB.
    gold, _, analyses = random_treebank(random.Random(47), 500)
    grouped = group_by_sentence(analyses, gold)

    def every_view():
        return [SentenceView(sentence, sentence_analyses, lexicon)
                for sentence, sentence_analyses in zip(gold, grouped)]

    _, views = traced_size(every_view)
    peak = traced_peak(lambda: ablate(gold, grouped, lexicon))
    print(f"ablate: every view {views}, peak {peak}")
    assert peak < views / 2
