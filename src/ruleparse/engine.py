"""Rule-based unlabeled dependency pre-annotation for Turkish.

Nine rules assign heads to tokens before a statistical parser ever sees
the sentence.  A sentence is processed over a *remaining* list that
initially holds every token; whenever a token receives a head (or is
deferred by a consecutive-adverb/adjective rule) it leaves the list, so
rule adjacency is adjacency in the shrinking remaining list, not surface
adjacency.  The list is kept as links between neighbouring token ids, so
a token leaves it in O(1) and a scan walks it by following the links.

The schedule is one ordered table (``_ONCE``, then ``_REPEATED``):

1. AC scans adverb pairs: a degree adverb attaches to the adverb after
   it; any other adverb pair is deferred for late binding.
2. AJC defers every adjacent adjective pair for late binding.
3. CPI (complex predicates/idioms) and NC (lexicon compounds) each run
   once.
4. PC, AAJ, AV, AJN, NV repeat in that order until a full pass assigns
   nothing.  Each pass before that one assigns a token, so an n-token
   sentence takes at most n passes; more is a broken invariant
   (``EngineError``).

Each rule is a module-level pair test; a run sends the enabled ones, in
schedule order, through the same left-to-right scan.  Disabling a rule
skips it without reordering the others; AV and NV are disabled by
default because they overgenerate on free word order.

The scan filters on first members.  Each rule carries a bit that a
token has when it passes everything the rule's pair test checks on a
pair's first member alone: the POS for AC, AJC, AV, AJN, NV and PC
(NOUN, PROPN or DET), a degree adverb for AAJ, and a form that starts a
lexicon pair for CPI (a ``cpi`` pair) and NC (an ``nc``, ``redup`` or
``pc`` pair).  The scan steps past a token without the bit without
calling the pair test, which would return False on it with no side
effect.  A rule that no token of the sentence can open, or whose test
needs a second-member POS the sentence lacks, is not scanned at all.

Late binding is one map, ``waiting``, from a deferred pair's second
member to its first member and code.  Deferring takes the first member
out of the remaining list; as soon as the second member receives a head
from any rule, the first member attaches to the same head with code AC
(adverbs) or AJC (adjectives).  A second member is deferred at most
once: AC and AJC each run once, the scan only moves forward, and an
adverb pair never shares a member with an adjective pair.

Every assignment is checked against the partial head graph and skipped
(counted in diagnostics) if it would create a cycle.  Rule codes are
recorded on the dependent token.

The facts the rules test never change during a run: a token's POS, its
folded and de-duplicated word forms (surface form, analysis lemma,
treebank lemma), its genitive, accusative, possessive and bare flags,
and its first-member bits.  A :class:`SentenceView` holds them for
one sentence and one lexicon, indexed by token id, so lexicon tests are
plain lookups in the lexicon's already-folded first-word map: one
``dict.get`` and one ``isdisjoint`` per form of a pair's first token.
They depend only on the token's type (its FORM, LEMMA, UPOS, FEATS and
analysis) and the lexicon, so a view can take each type's row of facts
from a memo and compute a row only for a type the memo lacks.  The memo
lives for one call of ``annotate`` or ``features``, and the views of that
call share its rows.  A view built without one computes a row per token:
``ablate`` builds each view once for all its steps, and on text whose
types seldom repeat, rows kept across its sentences cost more time and
memory than they save.  ``run`` uses a view passed as ``analyses`` when
it was built for the same sentence and lexicon, and builds one from a
plain mapping, so a caller that runs the same sentence under several
rule sets (the ablation harness) builds each view once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields
from enum import Enum

# ``fold`` is looked up on the module at call time, never bound by a
# from-import, so a replacement installed on the module (as the
# benchmark's call counter does) sees every call.
from . import lexicon as _lexicon
from .conllu import Sentence
from .errors import AnalysisError, EngineError
from .lexicon import Lexicon
from .morpho import MorphAnalysis, ROOT_POS_TO_UPOS


class RuleCode(str, Enum):
    CPI = "CPI"   # complex predicate / idiom
    NC = "NC"     # lexicon noun compound (bare, possessive, reduplicated)
    PC = "PC"     # possessive/genitive construction, proper-noun run, determiner
    AC = "AC"     # consecutive adverbs (direct or late-bound)
    AJC = "AJC"   # consecutive adjectives (late-bound)
    AAJ = "AAJ"   # degree adverb before adjective
    AV = "AV"     # adverb before verb
    AJN = "AJN"   # adjective before noun
    NV = "NV"     # noun or pronoun before verb
    NONE = "NONE"

    def __str__(self) -> str:
        return self.value


DEFAULT_RULES = frozenset({
    RuleCode.CPI, RuleCode.NC, RuleCode.PC, RuleCode.AC,
    RuleCode.AAJ, RuleCode.AJC, RuleCode.AJN,
})
ALL_RULES = DEFAULT_RULES | {RuleCode.AV, RuleCode.NV}

_NOMINAL = frozenset({"NOUN", "PROPN"})
_NV_DEPENDENTS = frozenset({"NOUN", "PROPN", "PRON"})
_POSSESSIVE_TAGS = frozenset({"P1sg", "P2sg", "P3sg", "P1pl", "P2pl", "P3pl"})
_OVERT_CASE_TAGS = frozenset({"Acc", "Dat", "Loc", "Abl", "Gen", "Ins", "Equ"})

# The codes as module constants: reading an Enum member off its class
# costs about 0.12 µs, a module global a few ns.
(_CPI, _NC, _PC, _AC, _AJC, _AAJ, _AV, _AJN, _NV) = (
    RuleCode.CPI, RuleCode.NC, RuleCode.PC, RuleCode.AC, RuleCode.AJC,
    RuleCode.AAJ, RuleCode.AV, RuleCode.AJN, RuleCode.NV)
# Fire counts are keyed by the codes' plain string values.
_VALUE = {code: code.value for code in RuleCode}


@dataclass(frozen=True)
class RuleConfig:
    """Which rules run.  How often the repeated rules run is bounded by
    the sentence, not by the config (see :func:`run`)."""

    enabled: frozenset[RuleCode] = DEFAULT_RULES

    def __post_init__(self):
        if RuleCode.NONE in self.enabled:
            raise ValueError("NONE is not a rule")

    @property
    def names(self) -> tuple[str, ...]:
        """The enabled rules' codes, sorted: how reports name the set."""
        return tuple(sorted(code.value for code in self.enabled))


@dataclass(frozen=True, slots=True)
class RuleAssignment:
    """One head decision: ``dependent`` attaches to ``head`` via ``code``."""

    dependent: int
    head: int
    code: RuleCode

    def __post_init__(self):
        if self.dependent == self.head:
            raise ValueError("a token cannot head itself")


# The engine checks ``dependent != head`` itself, so it builds its
# assignments through the slot setters, which skip ``__post_init__``
# (a frozen dataclass's own ``__init__`` costs about 1 µs).
_new = object.__new__
_set_dependent, _set_head, _set_code = (
    RuleAssignment.__dict__[f.name].__set__ for f in fields(RuleAssignment))


@dataclass
class Diagnostics:
    """Per-rule fire counts plus the number of cycle-avoiding skips."""

    fire_counts: Counter = field(default_factory=Counter)
    skipped_cycles: int = 0

    def merge(self, other: "Diagnostics") -> None:
        self.fire_counts.update(other.fire_counts)
        self.skipped_cycles += other.skipped_cycles

    def to_dict(self) -> dict:
        return {
            "fire_counts": {code: self.fire_counts[code]
                            for code in sorted(self.fire_counts)},
            "skipped_cycles": self.skipped_cycles,
        }


class SentenceView:
    """The static per-token facts of one sentence under one lexicon, built
    in one pass over its tokens.

    A token's facts are its type's row.  ``_memo``, when given, is a dict
    that the caller makes for one call and one lexicon and passes to every
    view it builds: a row is taken from it when it holds one and computed
    into it otherwise, so the views share their rows.  Without it a view
    computes the row of each token.

    The per-token tuples are indexed by token id (slot 0 is unused):

    ``pos``         UPOS, falling back to the analysis root POS
    ``forms``       folded, de-duplicated surface form, analysis lemma
                    and treebank lemma
    ``genitive``, ``accusative``, ``possessive``, ``bare``
                    case and possessive marking from the analysis tags
                    or the CoNLL-U features
    ``bits``        the rules' first-member bits for ``lexicon``

    ``once`` and ``repeated`` hold the rules of ``_ONCE`` and
    ``_REPEATED`` that can fire on the sentence, each as its code, pair
    test and first-member bit (see the module docstring).  Nothing in a
    view or a row changes after construction, so one view may be shared
    by any number of runs of its sentence and lexicon.
    """

    __slots__ = ("sentence", "lexicon", "pos", "forms", "genitive",
                 "accusative", "possessive", "bare", "bits", "once", "repeated")

    def __init__(self, sentence: Sentence, analyses: Mapping[int, MorphAnalysis],
                 lexicon: Lexicon, *, _memo: dict | None = None):
        fold = _lexicon.fold
        pairs = lexicon.pairs
        cpi, nc, redup, pc = pairs["cpi"], pairs["nc"], pairs["redup"], pairs["pc"]
        degree = lexicon.degree_adverbs
        rows = []
        seen = 0
        for token in sentence.tokens:
            analysis = analyses.get(token.id)
            if analysis is None:
                raise AnalysisError(
                    f"token {token.id} ({token.form!r}) has no morphological analysis")
            form, lemma, token_lemma = token.form, analysis.lemma, token.lemma
            tags = analysis.tags
            # The analysis by value: an id would be reused once its object
            # is freed, while the memo outlives the sentence.
            key = None if _memo is None else (
                form, token_lemma, token.upos, token.feats, lemma, analysis.pos, tags)
            row = None if key is None else _memo.get(key)
            if row is None:
                case = None
                psor_feature = False
                for feat, value in token.feats:
                    if feat == "Case":
                        case = value
                    elif feat.endswith("[psor]"):
                        psor_feature = True
                possessive = psor_feature or not _POSSESSIVE_TAGS.isdisjoint(tags)
                # Each distinct raw word is folded once; the folded words
                # keep the order of their first occurrence.
                forms = (fold(form),)
                if lemma != form:
                    folded = fold(lemma)
                    if folded != forms[0]:
                        forms = (forms[0], folded)
                if token_lemma and token_lemma != form and token_lemma != lemma:
                    folded = fold(token_lemma)
                    if folded not in forms:
                        forms += (folded,)
                upos = token.upos
                pos = upos if upos is not None else ROOT_POS_TO_UPOS.get(analysis.pos)
                bit = _POS_BITS.get(pos, 0)
                for word in forms:
                    if word in cpi:
                        bit |= _CPI_START
                    if word in nc or word in redup or word in pc:
                        bit |= _NC_START
                if bit & _ADV_FIRST and not degree.isdisjoint(forms):
                    bit |= _DEGREE_FIRST
                row = (
                    pos,
                    forms,
                    "Gen" in tags or case == "Gen",
                    "Acc" in tags or case == "Acc",
                    possessive,
                    not possessive and case in (None, "Nom")
                    and _OVERT_CASE_TAGS.isdisjoint(tags),
                    bit,
                )
                if key is not None:
                    _memo[key] = row
            seen |= row[-1]
            rows.append(row)
        self.sentence = sentence
        self.lexicon = lexicon
        (self.pos, self.forms, self.genitive, self.accusative, self.possessive,
         self.bare, self.bits) = zip((None, (), False, False, False, False, 0), *rows)
        self.once, self.repeated = (
            tuple([(code, test, first) for code, test, first, second in schedule
                   if seen & first and seen & second == second])
            for schedule in (_ONCE, _REPEATED))


class EngineState:
    """Mutable per-sentence working state of a rule run over a view."""

    __slots__ = ("view", "after", "before", "heads", "assignments", "waiting",
                 "cp_marked", "diagnostics")

    def __init__(self, view: SentenceView, diagnostics: Diagnostics):
        self.view = view
        # token ids are 1..n (a Sentence checks it), the view tuples' indices.
        # The remaining list is a ring through 0: after[t] and before[t] are
        # remaining token t's neighbours, after[0] the first (0 when none).
        n = len(view.pos) - 1
        self.after, self.before = [*range(1, n + 1), 0], [n, *range(n)]
        self.heads: dict[int, int] = {}
        self.assignments: list[RuleAssignment] = []
        # second member of a deferred pair -> (first member, its code)
        self.waiting: dict[int, tuple[int, RuleCode]] = {}
        self.cp_marked: set[int] = set()
        self.diagnostics = diagnostics

    def pair_in(self, cls: str, first_id: int, second_id: int) -> bool:
        """Lexicon pair match over every surface/lemma combination: one
        first-word lookup per form of the first token."""
        follows = self.view.lexicon.pairs[cls]
        forms = self.view.forms
        seconds = forms[second_id]
        for first in forms[first_id]:
            followers = follows.get(first)
            if followers is not None and not followers.isdisjoint(seconds):
                return True
        return False

    def _drop(self, token: int) -> None:
        """Take remaining ``token`` out of the remaining list."""
        prev, nxt = self.before[token], self.after[token]
        self.after[prev] = nxt
        self.before[nxt] = prev

    # -- assignment ----------------------------------------------------

    def _would_cycle(self, dependent: int, head: int) -> bool:
        cur = head
        while cur is not None:
            if cur == dependent:
                return True
            cur = self.heads.get(cur)
        return False

    def assign(self, dependent: int, head: int, code: RuleCode) -> bool:
        """Record ``dependent -> head`` unless it would break an invariant.

        Returns False (and counts a diagnostic) when the edge would close
        a cycle.  On success the dependent, a remaining token, leaves the
        remaining list, and a first member waiting on it (already out of
        the list) attaches to the same head, then one waiting on that
        member, and so on down the chain; the chain stops at the first
        member that cannot attach.
        """
        if not self._attach(dependent, head, code):
            return False
        self._drop(dependent)
        waiting = self.waiting.pop(dependent, None)
        while waiting is not None:
            first, first_code = waiting
            if not self._attach(first, head, first_code):
                break
            waiting = self.waiting.pop(first, None)
        return True

    def _attach(self, dependent: int, head: int, code: RuleCode) -> bool:
        """Record one edge; the checks and bookkeeping of :meth:`assign`."""
        if dependent == head or dependent in self.heads:
            return False
        if self._would_cycle(dependent, head):
            self.diagnostics.skipped_cycles += 1
            return False
        self.heads[dependent] = head
        assignment = _new(RuleAssignment)
        _set_dependent(assignment, dependent)
        _set_head(assignment, head)
        _set_code(assignment, code)
        self.assignments.append(assignment)
        self.diagnostics.fire_counts[_VALUE[code]] += 1
        return True

    def defer(self, first: int, second: int, code: RuleCode) -> None:
        """Take ``first`` out of the remaining list until ``second`` has a
        head; it then attaches to that head with ``code``."""
        self.waiting[second] = (first, code)
        self._drop(first)


def _scan(state: EngineState, try_pair: Callable[[EngineState, int, int], bool],
          bits: tuple[int, ...], first: int) -> None:
    """One left-to-right pass over adjacent remaining pairs.

    ``try_pair`` reports whether it consumed the pair ``x, y``, taking
    ``x`` or ``y`` out of the list; no pair test takes out a token before
    ``x``, so the scan stays after ``prev`` to examine the freshly
    adjacent pair (a pair reported consumed but left in place raises
    :class:`EngineError`).  A pair whose first member lacks the rule's
    bit (``bits[x] & first`` is 0) is stepped past without calling
    ``try_pair``, which would return False on it.
    """
    after = state.after
    prev = 0
    while (x := after[prev]) and (y := after[x]):
        if bits[x] & first and try_pair(state, x, y):
            if after[prev] == x and after[x] == y:
                raise EngineError(f"{try_pair.__name__} reported the pair "
                                  f"({x}, {y}) consumed but left it in place")
            continue
        prev = x


def _chain_forward(state: EngineState, cls: str, code: RuleCode,
                   anchor: int, dependent: int) -> None:
    """Greedy continuation for lexicon entries longer than two words.

    After ``dependent`` attaches to ``anchor``, the word now after
    ``anchor`` in the remaining list may continue the same entry as a
    pair with ``dependent`` (e.g. a three-word idiom chains head-to-head).
    """
    cursor = dependent
    while ((nxt := state.after[anchor]) and state.pair_in(cls, cursor, nxt)
           and state.assign(nxt, cursor, code)):
        cursor = nxt


# -- the rules' pair tests --------------------------------------------------

def _ac(state: EngineState, x: int, y: int) -> bool:
    """Consecutive adverbs: a degree adverb attaches to the adverb after
    it; any other adverb waits for that adverb's head."""
    view = state.view
    if view.pos[x] != "ADV" or view.pos[y] != "ADV":
        return False
    if not view.lexicon.degree_adverbs.isdisjoint(view.forms[x]):
        return state.assign(x, y, _AC)
    state.defer(x, y, _AC)
    return True


def _ajc(state: EngineState, x: int, y: int) -> bool:
    """Consecutive adjectives: the first waits for the second's head."""
    pos = state.view.pos
    if pos[x] != "ADJ" or pos[y] != "ADJ":
        return False
    state.defer(x, y, _AJC)
    return True


def _cpi(state: EngineState, x: int, y: int) -> bool:
    """Complex predicates and idioms: the second word attaches to the
    first.  The first word, when it is a noun, is marked CP so the
    noun-verb rule never reattaches it later."""
    if not state.pair_in("cpi", x, y):
        return False
    if not state.assign(y, x, _CPI):
        return False
    if state.view.pos[x] == "NOUN":
        state.cp_marked.add(x)
    _chain_forward(state, "cpi", _CPI, x, y)
    return True


def _nc(state: EngineState, x: int, y: int) -> bool:
    """Lexicon compounds: bare and reduplicated compounds are headed by
    their first member, possessive-marked compounds by their second."""
    for cls in ("nc", "redup"):
        if state.pair_in(cls, x, y):
            if state.assign(y, x, _NC):
                _chain_forward(state, cls, _NC, x, y)
                return True
            return False
    if state.pair_in("pc", x, y):
        return state.assign(x, y, _NC)
    return False


def _pc(state: EngineState, x: int, y: int) -> bool:
    """Possessive constructions, proper-noun runs, and determiners.

    For adjacent nominals the first attaches to the second when it is
    genitive-marked, or when it is bare and the second carries a
    possessive suffix without being accusative.  Runs of proper nouns
    collapse onto the first proper noun, and a determiner attaches to the
    nominal after it.
    """
    view = state.view
    pos_x, pos_y = view.pos[x], view.pos[y]
    if pos_x in _NOMINAL and pos_y in _NOMINAL:
        if view.genitive[x]:
            return state.assign(x, y, _PC)
        if view.bare[x] and view.possessive[y] and not view.accusative[y]:
            return state.assign(x, y, _PC)
    if pos_x == "PROPN" and pos_y == "PROPN":
        return state.assign(y, x, _PC)
    if pos_x == "DET" and pos_y in _NOMINAL:
        return state.assign(x, y, _PC)
    return False


def _aaj(state: EngineState, x: int, y: int) -> bool:
    """A degree adverb attaches to the adjective directly after it."""
    view = state.view
    if (view.pos[x] == "ADV" and view.pos[y] == "ADJ"
            and not view.lexicon.degree_adverbs.isdisjoint(view.forms[x])):
        return state.assign(x, y, _AAJ)
    return False


def _av(state: EngineState, x: int, y: int) -> bool:
    """An adverb attaches to the verb after it, unless it is one of the
    adverbs that emphasize the preceding word, which attach backwards."""
    view = state.view
    if view.pos[x] != "ADV" or view.pos[y] != "VERB":
        return False
    if not view.lexicon.head_emphasizing_adverbs.isdisjoint(view.forms[x]):
        if x == 1:
            return False
        return state.assign(x, x - 1, _AV)
    return state.assign(x, y, _AV)


def _ajn(state: EngineState, x: int, y: int) -> bool:
    """An adjective attaches to the nominal directly after it."""
    pos = state.view.pos
    if pos[x] == "ADJ" and pos[y] in _NOMINAL:
        return state.assign(x, y, _AJN)
    return False


def _nv(state: EngineState, x: int, y: int) -> bool:
    """An unassigned noun or pronoun attaches to the verb after it,
    unless it was marked as part of a complex predicate."""
    pos = state.view.pos
    if pos[x] in _NV_DEPENDENTS and x not in state.cp_marked and pos[y] == "VERB":
        return state.assign(x, y, _NV)
    return False


# -- the schedule -----------------------------------------------------------

# First-member bits: a token has a rule's bit when it passes everything
# the rule's pair test checks on the first member alone.
_ADV_FIRST, _ADJ_FIRST, _PC_FIRST, _NV_FIRST = 1, 2, 4, 8
_DEGREE_FIRST = 16  # a degree adverb (AAJ)
_CPI_START = 32     # some form starts a ``cpi`` pair
_NC_START = 64      # some form starts an ``nc``, ``redup`` or ``pc`` pair
# Second-member bits: a POS some pair test requires of the second member.
_ADV_SECOND, _ADJ_SECOND, _VERB_SECOND, _NOMINAL_SECOND = 128, 256, 512, 1024

_POS_BITS = {
    "ADV": _ADV_FIRST | _ADV_SECOND,
    "ADJ": _ADJ_FIRST | _ADJ_SECOND,
    "NOUN": _PC_FIRST | _NV_FIRST | _NOMINAL_SECOND,
    "PROPN": _PC_FIRST | _NV_FIRST | _NOMINAL_SECOND,
    "DET": _PC_FIRST,
    "PRON": _NV_FIRST,
    "VERB": _VERB_SECOND,
}

# The rule schedule: each rule in ``_ONCE`` runs once, in order; then the
# rules in ``_REPEATED`` run in order, pass after pass, until a full pass
# assigns nothing.  Per rule: its code, its pair test, its first-member
# bit and the second-member bit its test requires (0: none).
_ONCE = (
    (_AC, _ac, _ADV_FIRST, _ADV_SECOND),
    (_AJC, _ajc, _ADJ_FIRST, _ADJ_SECOND),
    (_CPI, _cpi, _CPI_START, 0),
    (_NC, _nc, _NC_START, 0),
)
_REPEATED = (
    (_PC, _pc, _PC_FIRST, _NOMINAL_SECOND),
    (_AAJ, _aaj, _DEGREE_FIRST, _ADJ_SECOND),
    (_AV, _av, _ADV_FIRST, _VERB_SECOND),
    (_AJN, _ajn, _ADJ_FIRST, _NOMINAL_SECOND),
    (_NV, _nv, _NV_FIRST, _VERB_SECOND),
)

_DEFAULT_CONFIG = RuleConfig()


def run(sentence: Sentence,
        analyses: Mapping[int, MorphAnalysis],
        lexicon: Lexicon,
        config: RuleConfig | None = None,
        diagnostics: Diagnostics | None = None) -> list[RuleAssignment]:
    """Apply the enabled rules to one sentence.

    ``analyses`` must map every token id to its morphological analysis,
    or be the :class:`SentenceView` of this sentence and ``lexicon``,
    which is then used as is; a view of another sentence or lexicon
    raises ValueError.  Returns the assignments in the order they were
    made; pass a :class:`Diagnostics` to accumulate fire counts across
    sentences.
    """
    config = config or _DEFAULT_CONFIG
    view = analyses if isinstance(analyses, SentenceView) \
        else SentenceView(sentence, analyses, lexicon)
    if view.sentence is not sentence or view.lexicon is not lexicon:
        raise ValueError("the sentence view was built for another sentence "
                         "or lexicon")
    state = EngineState(view,
                        diagnostics if diagnostics is not None else Diagnostics())
    enabled = config.enabled
    bits = view.bits
    for code, try_pair, first in view.once:
        if code in enabled:
            _scan(state, try_pair, bits, first)

    # A pass that assigns nothing ends the loop, and no run assigns more
    # than n - 1 of a sentence's n tokens (the heads form no cycle), so a
    # run makes at most n passes.
    n = len(sentence.tokens)
    passes = 0
    while state.after[0]:
        passes += 1
        if passes > n:
            raise EngineError(
                f"rule loop made more than {n} passes over a {n}-token sentence")
        before = len(state.assignments)
        for code, try_pair, first in view.repeated:
            if code in enabled:
                _scan(state, try_pair, bits, first)
        if len(state.assignments) == before:
            break
    return state.assignments


def assigned_heads(assignments: list[RuleAssignment]) -> dict[int, int]:
    """Dependent-to-head map over a run's assignments."""
    return {a.dependent: a.head for a in assignments}
