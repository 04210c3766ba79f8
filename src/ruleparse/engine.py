"""Rule-based unlabeled dependency pre-annotation for Turkish.

Nine rules assign heads to tokens before a statistical parser ever sees
the sentence.  A sentence is processed over a *remaining* list that
initially holds every token; whenever a token receives a head (or is
deferred by a consecutive-adverb/adjective rule) it is removed, so rule
adjacency is adjacency in the shrinking remaining list, not surface
adjacency.

Scheduling is fixed:

1. AC scans adverb pairs: a degree adverb attaches to the adverb after
   it; any other adverb pair is queued for late binding.
2. AJC queues every adjacent adjective pair for late binding.
3. CPI (complex predicates/idioms) and NC (lexicon compounds) each run
   once.
4. PC, AAJ, AV, AJN, NV repeat in that order until a full pass assigns
   nothing.

Queued pairs resolve as soon as the second member receives a head from
any rule: the first member then attaches to the same head with code AC
(adverbs) or AJC (adjectives).  Disabling a rule skips it without
reordering the others; AV and NV are disabled by default because they
overgenerate on free word order.

Every assignment is checked against the partial head graph and skipped
(counted in diagnostics) if it would create a cycle.  Rule codes are
recorded on the dependent token.

The facts the rules test never change during a run: a token's POS, its
folded and de-duplicated word forms (surface form, analysis lemma,
treebank lemma), and its genitive, accusative, possessive and bare
flags.  A :class:`SentenceView` computes them once per sentence, indexed
by token id, so lexicon tests are plain set lookups on the lexicon's
already-folded sets.  The view is also the sentence's analysis mapping:
``run`` reuses a view passed as ``analyses`` and builds one otherwise,
so a caller that runs the same sentence under several rule sets (the
ablation harness) builds each view once.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

# ``fold`` is looked up on the module at call time, never bound by a
# from-import, so a replacement installed on the module (as the
# benchmark's call counter does) sees every call.
from . import lexicon as _lexicon
from .conllu import Sentence
from .errors import EngineError
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

_NOMINAL = {"NOUN", "PROPN"}
_NV_DEPENDENTS = {"NOUN", "PROPN", "PRON"}
_POSSESSIVE_TAGS = frozenset({"P1sg", "P2sg", "P3sg", "P1pl", "P2pl", "P3pl"})
_OVERT_CASE_TAGS = frozenset({"Acc", "Dat", "Loc", "Abl", "Gen", "Ins", "Equ"})


@dataclass(frozen=True)
class RuleConfig:
    """Which rules run, and a defensive bound on engine iterations."""

    enabled: frozenset[RuleCode] = DEFAULT_RULES
    max_iterations: int = 1000

    def __post_init__(self):
        if RuleCode.NONE in self.enabled:
            raise ValueError("NONE is not a rule")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class RuleAssignment:
    """One head decision: ``dependent`` attaches to ``head`` via ``code``."""

    dependent: int
    head: int
    code: RuleCode

    def __post_init__(self):
        if self.dependent == self.head:
            raise ValueError("a token cannot head itself")


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


class SentenceView(Mapping):
    """The static per-token facts of one sentence, built once.

    A read-only ``Mapping[int, MorphAnalysis]`` over the analyses it was
    built from, so it can stand in for them in :func:`run`, which then
    reuses it instead of building a new one.  The per-token tuples are
    indexed by token id (slot 0 is unused):

    ``pos``         UPOS, falling back to the analysis root POS
    ``forms``       folded, de-duplicated surface form, analysis lemma
                    and treebank lemma
    ``genitive``, ``accusative``, ``possessive``, ``bare``
                    case and possessive marking from the analysis tags
                    or the CoNLL-U features

    Nothing in a view changes after construction, so one view may be
    shared by any number of runs.
    """

    __slots__ = ("sentence", "analyses", "pos", "forms", "genitive",
                 "accusative", "possessive", "bare")

    def __init__(self, sentence: Sentence, analyses: Mapping[int, MorphAnalysis]):
        pos: list[str | None] = [None]
        forms: list[tuple[str, ...]] = [()]
        genitive, accusative, possessive, bare = [False], [False], [False], [False]
        fold = _lexicon.fold
        for token in sentence.tokens:
            analysis = analyses.get(token.id)
            if analysis is None:
                raise ValueError(
                    f"token {token.id} ({token.form!r}) has no morphological analysis")
            tags = analysis.tags
            case = None
            psor_feature = False
            for key, value in token.feats:
                if key == "Case":
                    case = value
                psor_feature = psor_feature or key.endswith("[psor]")
            has_possessive = psor_feature or not _POSSESSIVE_TAGS.isdisjoint(tags)
            raw = [token.form, analysis.lemma]
            if token.lemma:
                raw.append(token.lemma)
            pos.append(token.upos if token.upos is not None
                       else ROOT_POS_TO_UPOS.get(analysis.pos))
            forms.append(tuple(dict.fromkeys(fold(word) for word in dict.fromkeys(raw))))
            genitive.append("Gen" in tags or case == "Gen")
            accusative.append("Acc" in tags or case == "Acc")
            possessive.append(has_possessive)
            bare.append(not has_possessive and case in (None, "Nom")
                        and _OVERT_CASE_TAGS.isdisjoint(tags))
        self.sentence = sentence
        self.analyses = analyses
        self.pos = tuple(pos)
        self.forms = tuple(forms)
        self.genitive = tuple(genitive)
        self.accusative = tuple(accusative)
        self.possessive = tuple(possessive)
        self.bare = tuple(bare)

    def __getitem__(self, token_id: int) -> MorphAnalysis:
        return self.analyses[token_id]

    def __iter__(self):
        return iter(self.analyses)

    def __len__(self) -> int:
        return len(self.analyses)


class _DeferredPair:
    __slots__ = ("first", "second", "resolved")

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second
        self.resolved = False


class EngineState:
    """Mutable per-sentence working state of a rule run over a view."""

    def __init__(self, view: SentenceView, lexicon: Lexicon,
                 diagnostics: Diagnostics):
        self.view = view
        self.lexicon = lexicon
        self.remaining: list[int] = [t.id for t in view.sentence.tokens]
        self.heads: dict[int, int] = {}
        self.assignments: list[RuleAssignment] = []
        self.consecutive_adverbs: list[_DeferredPair] = []
        self.consecutive_adjectives: list[_DeferredPair] = []
        self.cp_marked: set[int] = set()
        self.diagnostics = diagnostics

    def pair_in(self, cls: str, first_id: int, second_id: int) -> bool:
        """Lexicon pair match over every surface/lemma combination."""
        pairs = self.lexicon.pairs[cls]
        forms = self.view.forms
        seconds = forms[second_id]
        for first in forms[first_id]:
            for second in seconds:
                if f"{first} {second}" in pairs:
                    return True
        return False

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
        a cycle.  On success the dependent leaves the remaining list and
        any deferred pair waiting on it is resolved recursively.
        """
        if dependent == head or dependent in self.heads:
            return False
        if self._would_cycle(dependent, head):
            self.diagnostics.skipped_cycles += 1
            return False
        self.heads[dependent] = head
        self.assignments.append(RuleAssignment(dependent, head, code))
        self.diagnostics.fire_counts[code.value] += 1
        if dependent in self.remaining:
            self.remaining.remove(dependent)
        self._resolve_deferred(dependent, head)
        return True

    def _resolve_deferred(self, resolved_id: int, head: int) -> None:
        for pairs, code in ((self.consecutive_adverbs, RuleCode.AC),
                            (self.consecutive_adjectives, RuleCode.AJC)):
            for pair in pairs:
                if pair.resolved or pair.second != resolved_id:
                    continue
                pair.resolved = True
                if pair.first != head and pair.first not in self.heads:
                    self.assign(pair.first, head, code)

    def defer(self, pairs: list[_DeferredPair], first: int, second: int) -> None:
        pairs.append(_DeferredPair(first, second))
        self.remaining.remove(first)

    def is_deferred_first(self, token_id: int) -> bool:
        return any(not p.resolved and p.first == token_id
                   for p in self.consecutive_adjectives)


def _scan(state: EngineState, try_pair) -> None:
    """One left-to-right pass over adjacent remaining pairs.

    ``try_pair(first, second) -> bool`` reports whether it consumed the
    pair; a consumed pair always shrinks the remaining list, so the scan
    stays at the same index to examine the freshly adjacent pair next.
    """
    remaining = state.remaining  # shrinks in place, never rebound
    i = 0
    while i + 1 < len(remaining):
        before = len(remaining)
        fired = try_pair(remaining[i], remaining[i + 1])
        if not fired or len(remaining) == before:
            i += 1


def _rule_ac(state: EngineState) -> None:
    """Consecutive adverbs: attach degree adverbs, queue the rest."""
    pos, forms = state.view.pos, state.view.forms
    degree = state.lexicon.degree_adverbs

    def try_pair(x: int, y: int) -> bool:
        if pos[x] != "ADV" or pos[y] != "ADV":
            return False
        if not degree.isdisjoint(forms[x]):
            return state.assign(x, y, RuleCode.AC)
        state.defer(state.consecutive_adverbs, x, y)
        return True

    _scan(state, try_pair)


def _rule_ajc(state: EngineState) -> None:
    """Consecutive adjectives: queue every adjacent pair for late binding."""
    pos = state.view.pos

    def try_pair(x: int, y: int) -> bool:
        if pos[x] != "ADJ" or pos[y] != "ADJ":
            return False
        state.defer(state.consecutive_adjectives, x, y)
        return True

    _scan(state, try_pair)


def _chain_forward(state: EngineState, cls: str, code: RuleCode,
                   anchor: int, dependent: int) -> None:
    """Greedy continuation for lexicon entries longer than two words.

    After ``dependent`` attaches to ``anchor``, the word now adjacent to
    ``anchor`` may continue the same entry as a pair with ``dependent``
    (e.g. a three-word idiom chains head-to-head).
    """
    cursor = dependent
    while True:
        idx = state.remaining.index(anchor)
        if idx + 1 >= len(state.remaining):
            return
        nxt = state.remaining[idx + 1]
        if not state.pair_in(cls, cursor, nxt):
            return
        if not state.assign(nxt, cursor, code):
            return
        cursor = nxt


def _rule_cpi(state: EngineState) -> None:
    """Complex predicates and idioms: second word attaches to the first.

    The first word, when it is a noun, is marked CP so the noun-verb
    rule never reattaches it later.
    """
    pos = state.view.pos

    def try_pair(x: int, y: int) -> bool:
        if not state.pair_in("cpi", x, y):
            return False
        if not state.assign(y, x, RuleCode.CPI):
            return False
        if pos[x] == "NOUN":
            state.cp_marked.add(x)
        _chain_forward(state, "cpi", RuleCode.CPI, x, y)
        return True

    _scan(state, try_pair)


def _rule_nc(state: EngineState) -> None:
    """Lexicon compounds: bare and reduplicated compounds are headed by
    their first member, possessive-marked compounds by their second."""
    def try_pair(x: int, y: int) -> bool:
        for cls in ("nc", "redup"):
            if state.pair_in(cls, x, y):
                if state.assign(y, x, RuleCode.NC):
                    _chain_forward(state, cls, RuleCode.NC, x, y)
                    return True
                return False
        if state.pair_in("pc", x, y):
            return state.assign(x, y, RuleCode.NC)
        return False

    _scan(state, try_pair)


def _rule_pc(state: EngineState) -> None:
    """Possessive constructions, proper-noun runs, and determiners.

    For adjacent nominals the first attaches to the second when it is
    genitive-marked, or when it is bare and the second carries a
    possessive suffix without being accusative.  Runs of proper nouns
    collapse onto the first proper noun, and a determiner attaches to
    the nominal after it.
    """
    view = state.view
    pos, genitive, bare = view.pos, view.genitive, view.bare
    possessive, accusative = view.possessive, view.accusative

    def try_pair(x: int, y: int) -> bool:
        pos_x, pos_y = pos[x], pos[y]
        if pos_x in _NOMINAL and pos_y in _NOMINAL:
            if genitive[x]:
                return state.assign(x, y, RuleCode.PC)
            if bare[x] and possessive[y] and not accusative[y]:
                return state.assign(x, y, RuleCode.PC)
        if pos_x == "PROPN" and pos_y == "PROPN":
            return state.assign(y, x, RuleCode.PC)
        if pos_x == "DET" and pos_y in _NOMINAL:
            return state.assign(x, y, RuleCode.PC)
        return False

    _scan(state, try_pair)


def _rule_aaj(state: EngineState) -> None:
    """A degree adverb attaches to the adjective directly after it."""
    pos, forms = state.view.pos, state.view.forms
    degree = state.lexicon.degree_adverbs

    def try_pair(x: int, y: int) -> bool:
        if pos[x] == "ADV" and pos[y] == "ADJ" and not degree.isdisjoint(forms[x]):
            return state.assign(x, y, RuleCode.AAJ)
        return False

    _scan(state, try_pair)


def _rule_av(state: EngineState) -> None:
    """An adverb attaches to the verb after it, unless it is one of the
    adverbs that emphasize the preceding word, which attach backwards."""
    pos, forms = state.view.pos, state.view.forms
    emphasizing = state.lexicon.head_emphasizing_adverbs

    def try_pair(x: int, y: int) -> bool:
        if pos[x] != "ADV" or pos[y] != "VERB":
            return False
        if not emphasizing.isdisjoint(forms[x]):
            if x == 1:
                return False
            return state.assign(x, x - 1, RuleCode.AV)
        return state.assign(x, y, RuleCode.AV)

    _scan(state, try_pair)


def _rule_ajn(state: EngineState) -> None:
    """An adjective attaches to the nominal directly after it."""
    pos = state.view.pos

    def try_pair(x: int, y: int) -> bool:
        if pos[x] == "ADJ" and pos[y] in _NOMINAL \
                and not state.is_deferred_first(x):
            return state.assign(x, y, RuleCode.AJN)
        return False

    _scan(state, try_pair)


def _rule_nv(state: EngineState) -> None:
    """An unassigned noun or pronoun attaches to the verb after it,
    unless it was marked as part of a complex predicate."""
    pos = state.view.pos

    def try_pair(x: int, y: int) -> bool:
        if pos[x] in _NV_DEPENDENTS and x not in state.cp_marked \
                and pos[y] == "VERB":
            return state.assign(x, y, RuleCode.NV)
        return False

    _scan(state, try_pair)


_LOOP_RULES = (
    (RuleCode.PC, _rule_pc),
    (RuleCode.AAJ, _rule_aaj),
    (RuleCode.AV, _rule_av),
    (RuleCode.AJN, _rule_ajn),
    (RuleCode.NV, _rule_nv),
)


def run(sentence: Sentence,
        analyses: Mapping[int, MorphAnalysis],
        lexicon: Lexicon,
        config: RuleConfig | None = None,
        diagnostics: Diagnostics | None = None) -> list[RuleAssignment]:
    """Apply the enabled rules to one sentence.

    ``analyses`` must map every token id to its morphological analysis;
    it may be a :class:`SentenceView` of this sentence, which is then
    used as is instead of being rebuilt.  Returns the assignments in the
    order they were made; pass a :class:`Diagnostics` to accumulate fire
    counts across sentences.
    """
    config = config or RuleConfig()
    if isinstance(analyses, SentenceView) and analyses.sentence is sentence:
        view = analyses
    else:
        view = SentenceView(sentence, analyses)
    state = EngineState(view, lexicon,
                        diagnostics if diagnostics is not None else Diagnostics())

    if RuleCode.AC in config.enabled:
        _rule_ac(state)
    if RuleCode.AJC in config.enabled:
        _rule_ajc(state)
    if RuleCode.CPI in config.enabled:
        _rule_cpi(state)
    if RuleCode.NC in config.enabled:
        _rule_nc(state)

    iterations = 0
    while state.remaining:
        iterations += 1
        if iterations > config.max_iterations:
            raise EngineError(
                f"rule loop exceeded {config.max_iterations} iterations")
        before = len(state.assignments)
        for code, rule in _LOOP_RULES:
            if code in config.enabled:
                rule(state)
        if len(state.assignments) == before:
            break
    return list(state.assignments)


def assigned_heads(assignments: list[RuleAssignment]) -> dict[int, int]:
    """Dependent-to-head map over a run's assignments."""
    return {a.dependent: a.head for a in assignments}
