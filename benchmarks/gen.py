"""Seeded synthetic inputs for the benchmark.

Everything here is derived from a seed with :class:`random.Random`, and
the text is written directly (no ``ruleparse`` import), so the inputs stay
the same whatever the program under test does.  The vocabulary follows
``tests/conftest.py``, including the multi-word splices that hit the
packaged lexicons, so every one of the nine rules fires on a large enough
treebank.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

DEPRELS = ("nsubj", "obj", "nmod", "amod", "advmod", "det", "punct", "conj")

_NOUNS = [
    ("makine", "makine", ("A3sg", "Nom")),
    ("makinenin", "makine", ("A3sg", "Gen")),
    ("yağı", "yağ", ("A3sg", "P3sg", "Nom")),
    ("yağını", "yağ", ("A3sg", "P3sg", "Acc")),
    ("ev", "ev", ("A3sg", "Nom")),
    ("evin", "ev", ("A3sg", "Gen")),
    ("eve", "ev", ("A3sg", "Dat")),
    ("göz", "göz", ("A3sg", "Nom")),
    ("kuru", "kuru", ("A3sg", "Nom")),
    ("yemiş", "yemiş", ("A3sg", "Nom")),
    ("arka", "arka", ("A3sg", "Nom")),
    ("arkaya", "arka", ("A3sg", "Dat")),
    ("diş", "diş", ("A3sg", "Nom")),
    ("fırçası", "fırça", ("A3sg", "P3sg", "Nom")),
    ("kapı", "kapı", ("A3sg", "Nom")),
    ("söz", "söz", ("A3sg", "Nom")),
]
_VERBS = [
    ("geldi", "gel", ("Past", "A3sg")),
    ("etti", "et", ("Past", "A3sg")),
    ("verdi", "ver", ("Past", "A3sg")),
    ("getiriyordum", "getir", ("Prog1", "Past", "A1sg")),
    ("inceledi", "incele", ("Past", "A3sg")),
    ("oldu", "ol", ("Past", "A3sg")),
]
_ADJS = [
    ("küçük", "küçük", ()),
    ("eski", "eski", ()),
    ("kırmızı", "kırmızı", ()),
    ("anlamsız", "anlamsız", ()),
    ("bulanık", "bulanık", ()),
]
_ADVS = [
    ("çok", "çok", ()),
    ("daha", "daha", ()),
    ("dün", "dün", ()),
    ("yine", "yine", ()),
    ("bile", "bile", ()),
    ("sonra", "sonra", ()),
    ("dikkatlice", "dikkatlice", ()),
]
_OTHERS = [
    ("Ahmet", "Ahmet", "PROPN", ("Prop", "A3sg", "Nom")),
    ("Ayşe", "Ayşe", "PROPN", ("Prop", "A3sg", "Nom")),
    ("İstanbul", "İstanbul", "PROPN", ("Prop", "A3sg", "Nom")),
    ("bu", "bu", "DET", ()),
    ("her", "her", "DET", ()),
    ("ben", "ben", "PRON", ("A1sg", "Nom")),
    ("bunu", "bu", "PRON", ("A3sg", "Acc")),
    ("ama", "ama", "CCONJ", ()),
    ("ve", "ve", "CCONJ", ()),
    (".", ".", "PUNCT", ()),
    (",", ",", "PUNCT", ()),
]

_POOL = (
    [(f, l, "NOUN", t) for f, l, t in _NOUNS]
    + [(f, l, "VERB", t) for f, l, t in _VERBS]
    + [(f, l, "ADJ", t) for f, l, t in _ADJS]
    + [(f, l, "ADV", t) for f, l, t in _ADVS]
    + _OTHERS
)

_POS_OF = {"NOUN": "Noun", "VERB": "Verb", "ADJ": "Adj", "ADV": "Adv",
           "PROPN": "Noun", "DET": "Det", "PRON": "Pron", "CCONJ": "Conj",
           "PUNCT": "Punc"}

# Multi-word stretches that hit lexicon entries, spliced in at random.
_SPLICES = [
    [("yerine", "yer", "NOUN", ("A3sg", "P3sg", "Dat")),
     ("getiriyordum", "getir", "VERB", ("Prog1", "Past", "A1sg"))],
    [("kabul", "kabul", "NOUN", ("A3sg", "Nom")),
     ("etti", "et", "VERB", ("Past", "A3sg"))],
    [("göz", "göz", "NOUN", ("A3sg", "Nom")),
     ("kulak", "kulak", "NOUN", ("A3sg", "Nom")),
     ("oldu", "ol", "VERB", ("Past", "A3sg"))],
    [("kuru", "kuru", "NOUN", ("A3sg", "Nom")),
     ("yemiş", "yemiş", "NOUN", ("A3sg", "Nom"))],
    [("arka", "arka", "NOUN", ("A3sg", "Nom")),
     ("arkaya", "arka", "NOUN", ("A3sg", "Dat"))],
    [("diş", "diş", "NOUN", ("A3sg", "Nom")),
     ("fırçası", "fırça", "NOUN", ("A3sg", "P3sg", "Nom"))],
    [("çok", "çok", "ADV", ()),
     ("küçük", "küçük", "ADJ", ())],
]

# Suffix tags for the analyzed corpus, all in the packaged inventory,
# grouped by the root POS they follow.  Tags outside the inventory are
# added separately so the matrix build has unknown tags to count.
_CORPUS_TAGS = {
    "Noun": ("A3sg", "A3pl", "P1sg", "P3sg", "P3pl", "Pnon", "Nom", "Acc",
             "Dat", "Loc", "Abl", "Gen", "Ins", "Dim", "Ness", "With",
             "Without", "Rel", "Agt"),
    "Verb": ("Past", "Narr", "Fut", "Aor", "Prog1", "Cond", "Imp", "Neg",
             "Able", "Pass", "Caus", "A1sg", "A3sg", "A3pl", "Cop", "Inf2",
             "PastPart", "When", "While"),
    "Adj": ("Ly", "Ness", "Become", "A3sg", "Nom"),
    "Adv": ("Ly", "Rel"),
}
_UNKNOWN_TAGS = ("Zq", "Xtag", "Unk1", "Unk2")
_UNKNOWN_RATE = 0.01
_SYLLABLES = ("ka", "le", "mi", "ro", "su", "ta", "ne", "ğı", "çe", "şu",
              "bö", "dü", "ya", "ze", "pı", "gö")


def random_sentence(rng: random.Random, max_len: int = 30) -> list[tuple]:
    """``(form, lemma, upos, tags)`` items with occasional lexicon hits.

    Same draw sequence as the test suite's ``random_sentence``.
    """
    items: list[tuple] = []
    while len(items) < rng.randint(1, max_len):
        if rng.random() < 0.25:
            items.extend(rng.choice(_SPLICES))
        else:
            items.append(rng.choice(_POOL))
    return items[:max_len]


def random_tree(rng: random.Random, n: int) -> list[tuple[int, str]]:
    """``(head, deprel)`` per token of a uniformly grown random tree."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = {order[0]: 0}
    for pos, token_id in enumerate(order[1:], start=1):
        heads[token_id] = order[rng.randrange(pos)]
    return [(heads[i], "root" if heads[i] == 0 else rng.choice(DEPRELS))
            for i in range(1, n + 1)]


def treebank(rng: random.Random, n_tokens: int) -> list[tuple[list, list]]:
    """Gold sentences as ``(items, tree)`` pairs, drawn until they hold at
    least ``n_tokens`` tokens.

    A token target rather than a sentence count keeps the input size the
    same for every seed.  The draws match the test suite's
    ``random_treebank``, so seed 1 with 147,716 tokens gives its
    20,000-sentence treebank.
    """
    result = []
    tokens = 0
    while tokens < n_tokens:
        items = random_sentence(rng)
        result.append((items, random_tree(rng, len(items))))
        tokens += len(items)
    return result


def system_output(rng: random.Random, gold: list, error_rate: float) -> list:
    """A parser output: each sentence keeps the gold tree, or with
    probability ``error_rate`` gets a fresh random tree."""
    return [(items, random_tree(rng, len(items)) if rng.random() < error_rate
             else tree)
            for items, tree in gold]


def conllu_text(sentences: list) -> str:
    chunks = []
    for ordinal, (items, tree) in enumerate(sentences, start=1):
        lines = [f"# sent_id = s{ordinal}"]
        for i, ((form, lemma, upos, _), (head, deprel)) in enumerate(
                zip(items, tree), start=1):
            lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_")
        chunks.append("\n".join(lines) + "\n\n")
    return "".join(chunks)


def sidecar_text(sentences: list) -> str:
    lines = []
    for ordinal, (items, _) in enumerate(sentences, start=1):
        for i, (_, lemma, upos, tags) in enumerate(items, start=1):
            lines.append(f"{ordinal}\t{i}\t{lemma}\t" + "+".join((_POS_OF[upos],) + tags))
    return "\n".join(lines) + "\n"


def _lemma(rank: int) -> str:
    """A distinct made-up lemma per rank (base-16 digits as syllables)."""
    syllables = []
    while True:
        rank, digit = divmod(rank, len(_SYLLABLES))
        syllables.append(_SYLLABLES[digit])
        if not rank:
            return "".join(syllables) + "r"


CORPUS_SENTENCE_LENGTH = 20


def corpus_text(rng: random.Random, n_analyses: int,
                n_lemmas: int) -> tuple[str, int]:
    """An analyzed corpus in sidecar format with Zipf-distributed lemmas,
    and the number of distinct lemmas in it.

    The treebank vocabulary takes the most frequent ranks, so the
    suffix-vector features find rows for it.  About 1% of analyses carry
    a tag outside the suffix inventory.
    """
    lemmas = list(dict.fromkeys(
        (lemma, _POS_OF[upos]) for _, lemma, upos, _ in _POOL
        if upos in ("NOUN", "VERB", "ADJ", "ADV")))
    pos_cycle = ("Noun", "Noun", "Verb", "Adj", "Noun", "Adv")
    for rank in range(len(lemmas), n_lemmas):
        lemmas.append((_lemma(rank), pos_cycle[rank % len(pos_cycle)]))
    cum = []
    total = 0.0
    for rank in range(1, n_lemmas + 1):
        total += rank ** -1.1
        cum.append(total)
    picks = rng.choices(lemmas, cum_weights=cum, k=n_analyses)
    lines = []
    for i, (lemma, pos) in enumerate(picks):
        pool = _CORPUS_TAGS[pos]
        tags = [pos] + rng.sample(pool, rng.randint(0, min(4, len(pool))))
        if rng.random() < _UNKNOWN_RATE:
            tags.append(rng.choice(_UNKNOWN_TAGS))
        ordinal, token_id = divmod(i, CORPUS_SENTENCE_LENGTH)
        lines.append(f"{ordinal + 1}\t{token_id + 1}\t{lemma}\t" + "+".join(tags))
    return "\n".join(lines) + "\n", len(set(picks))


def write_input(path: Path, text: str, sentences: int, tokens: int) -> dict:
    """Write one input file and describe it for the run record."""
    data = text.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return {"sentences": sentences, "tokens": tokens, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def token_count(sentences: list) -> int:
    return sum(len(items) for items, _ in sentences)
