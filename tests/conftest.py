"""Shared builders and fixtures for the test suite."""

import importlib.util
import io
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest

from ruleparse import MorphAnalysis, Sentence, Token, default_lexicon_dir, load_lexicon
from ruleparse import halves
from ruleparse.lexicon import _FILENAMES, COMPOUND_CLASSES, _read_entries

# halves.both forks only a process that runs one thread, and OpenBLAS
# starts its threads when numpy is imported unless this says otherwise.
# Set before any test module imports numpy, it keeps the test process to
# one thread, so a test that forces the split does fork.
os.environ.setdefault("OMP_NUM_THREADS", "1")

# The characters other than LF and CR at which ``str.splitlines`` breaks
# a line.  No reader ends a line at them: to a reader they are text.
OTHER_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                "\u2029")


def tok(i, form, upos=None, lemma=None, feats=(), head=None, deprel=None,
        xpos=None, deps=None, misc=()):
    return Token(id=i, form=form, lemma=lemma, upos=upos, xpos=xpos,
                 feats=tuple(feats), head=head, deprel=deprel, deps=deps,
                 misc=tuple(misc))


def sent(*tokens, comments=(), ranges=()):
    return Sentence(tuple(tokens), tuple(comments), tuple(ranges))


def ma(lemma, pos, *tags):
    return MorphAnalysis(lemma=lemma, pos=pos, tags=tuple(tags))


class _Trickle(io.RawIOBase):
    """A raw stream over ``data`` whose reads return at most ``limit``
    bytes each."""

    def __init__(self, data: bytes, limit: int):
        self._buffer = io.BytesIO(data)
        self._limit = limit

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = self._buffer.read(min(len(buffer), self._limit))
        buffer[:len(chunk)] = chunk
        return len(chunk)


class ShortReads(io.TextIOWrapper):
    """A UTF-8 text handle over ``text`` (line breaks kept as they are)
    whose text layer gets at most ``limit`` bytes per read, so that a
    streamed reader meets a read boundary wherever the test wants one:
    inside a "\r\n" or a multi-byte character too."""

    def __init__(self, text: str, limit: int):
        super().__init__(_Trickle(text.encode("utf-8"), limit),
                         encoding="utf-8", newline="")


class Written:
    """A text handle that keeps each piece written to it, in order."""

    def __init__(self):
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(default_lexicon_dir())


def force_path(monkeypatch, path: str) -> None:
    """Make ``halves.both`` fork (``"split"``) or take its one-process
    fallback (``"fallback"``), whatever the CPUs of the machine."""
    if path == "split":
        assert halves._threads() == 1, "a process that runs threads never forks"
    monkeypatch.setattr(halves, "_cpus", lambda: 2 if path == "split" else 1)


@pytest.fixture
def one_process(monkeypatch):
    """``halves.both`` runs its two halves in this process, in turn: what
    tracemalloc or a patched function sees is then the whole call."""
    force_path(monkeypatch, "fallback")


@pytest.fixture(params=["split", "fallback"])
def process_path(request, monkeypatch):
    """The test once with ``halves.both`` forking and once with its
    one-process fallback."""
    force_path(monkeypatch, request.param)
    return request.param


# --------------------------------------------------------------------------
# Random sentence generation for the engine invariant suite.
#
# The vocabulary and the draws are the benchmark's, so both draw the same
# sentences from a seed.  ``benchmarks/gen.py`` is loaded by its path: its
# directory also holds modules named ``run`` and ``workloads``.

_GEN = importlib.util.spec_from_file_location(
    "_ruleparse_bench_gen",
    Path(__file__).resolve().parent.parent / "benchmarks" / "gen.py")
gen = importlib.util.module_from_spec(_GEN)
_GEN.loader.exec_module(gen)


def random_sentence(rng: random.Random, max_len: int = 30,
                    length: int | None = None):
    """A random sentence plus its analyses, with occasional lexicon hits.
    ``length`` fixes the number of tokens instead of drawing it."""
    if not length:
        items = gen.random_sentence(rng, max_len)
    else:
        items = []
        while len(items) < length:
            if rng.random() < 0.25:
                items.extend(rng.choice(gen._SPLICES))
            else:
                items.append(rng.choice(gen._POOL))
        items = items[:length]
    numbered = list(enumerate(items, start=1))
    return (sent(*[tok(i, form, upos, lemma) for i, (form, lemma, upos, _) in numbered]),
            {i: ma(lemma, gen._POS_OF[upos], *tags)
             for i, (_, lemma, upos, tags) in numbered})


def reference_pair_keys(directory) -> dict:
    """Per compound class, the set of ``"first second"`` bigram strings the
    lexicon in ``directory`` matches: the pair sets of the lexicon before
    it became a first-word map."""
    keys = {}
    for cls in COMPOUND_CLASSES:
        entries = _read_entries(Path(directory) / _FILENAMES[cls],
                                require_compound=True)
        keys[cls] = frozenset(f"{first} {second}" for entry in entries
                              for first, second in zip(entry, entry[1:]))
    return keys


def random_tree_heads(rng: random.Random, n: int) -> list:
    """Heads of a uniformly grown random tree: token order is shuffled and
    every token after the first attaches to an earlier one."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = {order[0]: 0}
    for pos, token_id in enumerate(order[1:], start=1):
        heads[token_id] = order[rng.randrange(pos)]
    return [heads[i] for i in range(1, n + 1)]


def with_random_tree(rng: random.Random, sentence: Sentence) -> Sentence:
    """The same tokens re-headed with a random valid tree and labels."""
    tokens = [tok(token.id, token.form, token.upos, token.lemma,
                  feats=token.feats, head=head, deprel=deprel)
              for token, (head, deprel)
              in zip(sentence.tokens, gen.random_tree(rng, len(sentence)))]
    return sent(*tokens, comments=sentence.comments, ranges=sentence.ranges)


def random_treebank(rng: random.Random, n_sentences: int, max_len: int = 30):
    """Parallel (gold_sentences, bare_sentences, analyses) for eval tests."""
    gold, bare, analyses = [], [], {}
    for ordinal in range(1, n_sentences + 1):
        sentence, sent_analyses = random_sentence(rng, max_len)
        gold.append(with_random_tree(rng, sentence))
        bare.append(sentence)
        for token_id, analysis in sent_analyses.items():
            analyses[(ordinal, token_id)] = analysis
    return gold, bare, analyses


def distinct_treebank(rng: random.Random, n_sentences: int, max_len: int = 30):
    """``random_treebank`` with no token type and no sidecar entry
    repeated: every form and lemma ends in its position, so ``ev`` at
    token 2 of sentence 3 becomes ``ev3.2``.  The worst case for sharing
    anything computed per token type."""
    gold, bare, analyses = random_treebank(rng, n_sentences, max_len)

    def renamed(ordinal, sentence):
        return sent(*[replace(t, form=f"{t.form}{ordinal}.{t.id}",
                              lemma=f"{t.lemma}{ordinal}.{t.id}")
                      for t in sentence.tokens],
                    comments=sentence.comments, ranges=sentence.ranges)

    return ([renamed(k, s) for k, s in enumerate(gold, start=1)],
            [renamed(k, s) for k, s in enumerate(bare, start=1)],
            {(k, i): replace(a, lemma=f"{a.lemma}{k}.{i}")
             for (k, i), a in analyses.items()})


# A word that late-binds, the POS of its analysis, the word the chain ends
# on, and the rules that defer the pairs and attach the chain's last word.
DEEP_CHAINS = {
    "adjectives": ("eski", "ADJ", "Adj", "ev", "NOUN", "Noun", "AJC", "AJN"),
    "adverbs": ("dün", "ADV", "Adv", "geldi", "VERB", "Verb", "AC", "AV"),
}


def deep_chain(n: int, kind: str):
    """``n`` words of one kind before the word they all attach to: a chain
    of ``n - 1`` deferred pairs.  Returns the sentence, with every word
    headed by the last one, and its analyses."""
    form, upos, pos, last_form, last_upos, last_pos, _, _ = DEEP_CHAINS[kind]
    tokens = [tok(i, form, upos, form, head=n + 1, deprel="dep")
              for i in range(1, n + 1)]
    tokens.append(tok(n + 1, last_form, last_upos, last_form, head=0,
                      deprel="root"))
    analyses = {i: ma(form, pos) for i in range(1, n + 1)}
    analyses[n + 1] = ma(last_form, last_pos)
    return sent(*tokens), analyses


def determiner_chain(n: int):
    """``n - 1`` determiners and then a noun: each determiner attaches to
    the noun once the one after it has, one engine pass per step.
    Returns the sentence, headed so, and its analyses."""
    tokens = [tok(i, "bu", "DET", "bu", head=n, deprel="det") for i in range(1, n)]
    tokens.append(tok(n, "ev", "NOUN", "ev", head=0, deprel="root"))
    analyses = {i: ma("bu", "Det") for i in range(1, n)}
    analyses[n] = ma("ev", "Noun", "A3sg", "Nom")
    return sent(*tokens), analyses


def sidecar_text(analyses: dict) -> str:
    lines = []
    for (ordinal, token_id), analysis in sorted(analyses.items()):
        tags = "+".join((analysis.pos,) + analysis.tags)
        lines.append(f"{ordinal}\t{token_id}\t{analysis.lemma}\t{tags}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Fuzzed CoNLL-U sentences for serialization round-trip tests.

_SAFE = "abcdefghijklmnopqrstuvwxyzçğıöşüABCÇDEĞİIÖŞÜ0123456789.-'"
_UPOS = ("NOUN", "VERB", "ADJ", "ADV", "PROPN", "DET", "PRON", "PUNCT", None)
_FEAT_KEYS = ("Case", "Number", "Person", "Tense", "Number[psor]")
_FEAT_VALUES = ("Nom", "Acc", "Gen", "Sing", "Plur", "3", "Past")
_MISC_KEYS = ("SpaceAfter", "Translit", "Note")


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SAFE) for _ in range(rng.randint(1, 10)))


def random_conllu_sentence(rng: random.Random, max_len: int = 12) -> Sentence:
    """A structurally varied sentence: optional fields, feats, misc values
    with and without '=', comments, multiword-token ranges, and either a
    full random tree or entirely absent heads."""
    n = rng.randint(1, max_len)
    heads = random_tree_heads(rng, n) if rng.random() < 0.7 else [None] * n
    tokens = []
    for i in range(1, n + 1):
        feats = ()
        if rng.random() < 0.4:
            keys = rng.sample(_FEAT_KEYS, rng.randint(1, 3))
            feats = tuple(sorted((k, rng.choice(_FEAT_VALUES)) for k in keys))
        misc = ()
        if rng.random() < 0.3:
            misc = tuple((rng.choice(_MISC_KEYS),
                          rng.choice((None, "No", "a=b", _word(rng))))
                         for _ in range(rng.randint(1, 2)))
        head = heads[i - 1]
        tokens.append(tok(
            i, _word(rng),
            upos=rng.choice(_UPOS),
            lemma=_word(rng) if rng.random() < 0.8 else None,
            xpos=_word(rng) if rng.random() < 0.2 else None,
            feats=feats,
            head=head,
            deprel=("root" if head == 0 else rng.choice(gen.DEPRELS))
            if head is not None else None,
            deps=None,
            misc=misc,
        ))
    comments = tuple(f"# {key} = {_word(rng)}"
                     for key in rng.sample(("sent_id", "text", "source"),
                                           rng.randint(0, 2)))
    ranges = ()
    if rng.random() < 0.15:
        at = rng.randint(0, n - 1)
        raw = f"{at + 1}-{at + 2}\t{_word(rng)}\t_\t_\t_\t_\t_\t_\t_\t_"
        ranges = ((at, raw),)
    return sent(*tokens, comments=comments, ranges=ranges)
