"""The benchmark workloads: their inputs, CLI calls and output checks.

A part is a fixed sequence of ``ruleparse`` calls over inputs that
:mod:`gen` derives from the seed; there are four (``PARTS``).  A
workload is one part or several, each in a directory of its own under
the work directory (``WORKLOADS``).  Each call carries a check that reads
the call's outputs and returns the problems it found; a call with a
non-zero exit or any problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

# Sizes at scale 1, as treebank token targets.  Each is chosen so one
# pass over the part's calls takes a few seconds on a 2-CPU machine,
# so a run repeats it several times and reports medians.  The annotate
# treebank is a quarter of the 147,716-token (20,000-sentence) treebank
# the first hand-measured baseline used, so scale 4 reproduces it.
ANNOTATE_TOKENS = 36_929
ABLATE_TOKENS = 18_500
COMPARE_TOKENS = 7_400
COMPARE_RUNS_PER_SIDE = 5
COMPARE_SHUFFLES = 10000
CORPUS_ANALYSES = 100_000
CORPUS_LEMMA_RANKS = 8000
MATRIX_CAP = 5000
FEATURES_TOKENS = 14_800

ALL_RULE_CODES = ("AAJ", "AC", "AJC", "AJN", "AV", "CPI", "NC", "NV", "PC")


@dataclass
class Call:
    """One ``ruleparse`` invocation and the check of what it wrote.

    The call runs in, and its check reads, ``work / part``.
    """

    argv: list[str]
    check: Callable[[Path], list[str]]
    outputs: list[str]
    part: str = ""


@dataclass
class Plan:
    """A workload's generated inputs and its sequence of calls."""

    calls: list[Call]
    inputs: dict[str, dict]
    token_base: int
    token_base_note: str
    # Per-layer counts read from the program's own outputs.
    read_counts: Callable[[Path], dict[str, int]]


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _treebank_inputs(rng: random.Random, n_tokens: int, work: Path,
                     inputs: dict) -> list:
    sentences = gen.treebank(rng, n_tokens)
    n, tokens = len(sentences), gen.token_count(sentences)
    inputs["gold.conllu"] = gen.write_input(
        work / "gold.conllu", gen.conllu_text(sentences), n, tokens)
    inputs["morph.tsv"] = gen.write_input(
        work / "morph.tsv", gen.sidecar_text(sentences), n, tokens)
    return sentences


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- annotate ---------------------------------------------------------------

def _check_annotate(gold: list) -> Callable[[Path], list[str]]:
    expected = [(str(head), deprel) for _, tree in gold for head, deprel in tree]

    def check(work: Path) -> list[str]:
        problems = []
        rows = [line.split("\t") for line
                in (work / "annotated.conllu").read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]
        if len(rows) != len(expected):
            return [f"annotate wrote {len(rows)} token lines, input has {len(expected)}"]
        fired = 0
        for n, (cols, (head, deprel)) in enumerate(zip(rows, expected), start=1):
            if (cols[6], cols[7]) != (head, deprel):
                problems.append(f"token line {n}: HEAD/DEPREL changed")
            rules = [item for item in cols[9].split("|") if item.startswith("Rule=")]
            if len(rules) != 1:
                problems.append(f"token line {n}: {len(rules)} Rule= items")
            elif rules[0] != "Rule=NONE":
                fired += 1
            if len(problems) > 5:
                break
        report = _load_json(work / "diagnostics.json")
        if report["tokens"] != len(expected) or report["sentences"] != len(gold):
            problems.append("diagnostics sentence/token counts differ from the input")
        if not report["assigned"] == fired == sum(report["fire_counts"].values()):
            problems.append("diagnostics assigned count disagrees with the Rule= items")
        return problems

    return check


def plan_annotate(seed: int, scale: float, work: Path) -> Plan:
    rng = random.Random(seed)
    inputs: dict = {}
    gold = _treebank_inputs(rng, _scaled(ANNOTATE_TOKENS, scale), work, inputs)
    call = Call(["annotate", "gold.conllu", "morph.tsv",
                 "--output", "annotated.conllu",
                 "--diagnostics", "diagnostics.json"],
                _check_annotate(gold),
                ["annotated.conllu", "annotated.conllu.manifest.json"])
    tokens = gen.token_count(gold)
    return Plan([call], inputs, tokens, "treebank tokens",
                read_counts=_annotate_counts)


def _annotate_counts(work: Path) -> dict[str, int]:
    report = _load_json(work / "diagnostics.json")
    counts = {f"engine.fires.{code}": fired
              for code, fired in report["fire_counts"].items()}
    counts.update({"engine.assigned": report["assigned"],
                   "engine.skipped_cycles": report["skipped_cycles"],
                   "features.output_bytes": (work / "annotated.conllu").stat().st_size})
    return counts


# -- ablate -----------------------------------------------------------------

def _check_ablate(tokens: int) -> Callable[[Path], list[str]]:
    def check(work: Path) -> list[str]:
        steps = _load_json(work / "ablation.json")["steps"]
        problems = []
        if len(steps) != 8:
            problems.append(f"ablate has {len(steps)} steps, expected 8")
        if any(s["total"] != tokens for s in steps):
            problems.append("ablate step totals differ from the input token count")
        coverage = [s["coverage"] for s in steps]
        if coverage != sorted(coverage):
            problems.append("ablate coverage decreases between steps")
        if steps and (steps[0]["assigned"] != 0
                      or tuple(steps[-1]["rules"]) != ALL_RULE_CODES):
            problems.append("ablate schedule does not run from no rules to all nine")
        return problems

    return check


def plan_ablate(seed: int, scale: float, work: Path) -> Plan:
    rng = random.Random(seed)
    inputs: dict = {}
    gold = _treebank_inputs(rng, _scaled(ABLATE_TOKENS, scale), work, inputs)
    tokens = gen.token_count(gold)
    call = Call(["ablate", "gold.conllu", "morph.tsv", "--output", "ablation.json"],
                _check_ablate(tokens),
                ["ablation.json", "ablation.json.manifest.json"])
    return Plan([call], inputs, tokens, "treebank tokens",
                read_counts=lambda work: {"engine.assigned": sum(
                    s["assigned"] for s in _load_json(work / "ablation.json")["steps"])})


# -- compare ----------------------------------------------------------------

def _check_score(gold: list, system: list) -> Callable[[Path], list[str]]:
    heads = sum(g == s for (_, gt), (_, st) in zip(gold, system)
                for (g, _), (s, _) in zip(gt, st))
    labeled = sum(g == s for (_, gt), (_, st) in zip(gold, system)
                  for g, s in zip(gt, st))
    tokens = gen.token_count(gold)

    def check(work: Path) -> list[str]:
        result = _load_json(work / "score.json")
        got = (result["total"], result["correct_heads"], result["correct_labeled"])
        if got != (tokens, heads, labeled):
            return [f"score counts {got} differ from {(tokens, heads, labeled)}"]
        return []

    return check


def _check_sigtest(runs: int, shuffles: int) -> Callable[[Path], list[str]]:
    def check(work: Path) -> list[str]:
        result = _load_json(work / "sigtest.json")
        rows = result["p_values"]
        problems = []
        if len(rows) != runs or any(len(row) != runs for row in rows):
            problems.append(f"sigtest p-value table is not {runs}x{runs}")
        if not all(0.0 < p <= 1.0 for row in rows for p in row):
            problems.append("sigtest p-value outside (0, 1]")
        if result["shuffles"] != shuffles:
            problems.append("sigtest ran a different shuffle count")
        return problems

    return check


def plan_compare(seed: int, scale: float, work: Path) -> Plan:
    rng = random.Random(seed)
    inputs: dict = {}
    gold = gen.treebank(rng, _scaled(COMPARE_TOKENS, scale))
    n, tokens = len(gold), gen.token_count(gold)
    inputs["gold.conllu"] = gen.write_input(
        work / "gold.conllu", gen.conllu_text(gold), n, tokens)
    # Side B is slightly worse than side A, so some pairs differ.
    first_a = None
    for side, error_rate in (("a", 0.30), ("b", 0.34)):
        for k in range(1, COMPARE_RUNS_PER_SIDE + 1):
            system = gen.system_output(rng, gold, error_rate)
            first_a = first_a or system
            name = f"sys_{side}/run{k}.conllu"
            inputs[name] = gen.write_input(work / name, gen.conllu_text(system),
                                           n, tokens)
    calls = [
        Call(["score", "gold.conllu", "sys_a/run1.conllu", "--output", "score.json"],
             _check_score(gold, first_a),
             ["score.json", "score.json.manifest.json"]),
        Call(["sigtest", "gold.conllu", "sys_a", "sys_b",
              "--shuffles", str(COMPARE_SHUFFLES), "--output", "sigtest.json"],
             _check_sigtest(COMPARE_RUNS_PER_SIDE, COMPARE_SHUFFLES),
             ["sigtest.json", "sigtest.json.manifest.json"]),
    ]
    files_read = 2 + 1 + 2 * COMPARE_RUNS_PER_SIDE
    return Plan(calls, inputs, files_read * tokens,
                f"tokens of the {files_read} treebank files read "
                f"({files_read} x {tokens})",
                lambda work: _compare_counts(work, n))


def _compare_counts(work: Path, sentences: int) -> dict[str, int]:
    pairs = sum(len(row) for row in _load_json(work / "sigtest.json")["p_values"])
    # One int8 draw plus its int64 promotion per shuffle, sentence and
    # pair: computed from the sizes, not measured.
    return {"evaluate.sigtest_pairs": pairs,
            "evaluate.sign_bytes": COMPARE_SHUFFLES * sentences * pairs * 9}


# -- suffix-features --------------------------------------------------------

def _check_matrix(distinct_lemmas: int) -> Callable[[Path], list[str]]:
    expected_rows = min(MATRIX_CAP, distinct_lemmas)

    def check(work: Path) -> list[str]:
        lines = (work / "lemma_suffix.matrix").read_text(encoding="utf-8").splitlines()
        width = len(lines[0].split("\t"))
        problems = []
        if lines[0].split("\t")[0] != "lemma":
            problems.append("matrix header does not start with 'lemma'")
        if len(lines) - 1 != expected_rows:
            problems.append(f"matrix has {len(lines) - 1} rows, expected {expected_rows}")
        lemmas = []
        for n, line in enumerate(lines[1:], start=2):
            cols = line.split("\t")
            lemmas.append(cols[0])
            values = [float(v) for v in cols[1:]]
            total = sum(values)
            if len(cols) != width or not (abs(total - 1.0) < 1e-6 or not any(values)):
                problems.append(f"matrix line {n}: row sums to {total}")
                break
        if lemmas != sorted(set(lemmas)):
            problems.append("matrix lemmas are not unique and sorted")
        return problems

    return check


def _check_features(gold: list) -> Callable[[Path], list[str]]:
    positions = [(ordinal, i) for ordinal, (items, _) in enumerate(gold, start=1)
                 for i in range(1, len(items) + 1)]

    def check(work: Path) -> list[str]:
        with open(work / "lemma_suffix.matrix", encoding="utf-8") as handle:
            width = len(handle.readline().split("\t")) - 1
        lines = (work / "features.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != len(positions):
            return [f"features wrote {len(lines)} lines for {len(positions)} tokens"]
        for line, position in zip(lines, positions):
            record = json.loads(line)
            if (record["sentence"], record["token"]) != position \
                    or len(record["suffix_vector"]) != width:
                return [f"features line for token {position} is wrong"]
        return []

    return check


def plan_suffix_features(seed: int, scale: float, work: Path) -> Plan:
    rng = random.Random(seed)
    inputs: dict = {}
    n_analyses = _scaled(CORPUS_ANALYSES, scale)
    corpus, distinct = gen.corpus_text(rng, n_analyses, CORPUS_LEMMA_RANKS)
    inputs["corpus.tsv"] = gen.write_input(
        work / "corpus.tsv", corpus,
        -(-n_analyses // gen.CORPUS_SENTENCE_LENGTH), n_analyses)
    gold = _treebank_inputs(rng, _scaled(FEATURES_TOKENS, scale), work, inputs)
    tokens = gen.token_count(gold)
    calls = [
        Call(["matrix", "corpus.tsv", "--cap", str(MATRIX_CAP),
              "--output", "lemma_suffix.matrix"],
             _check_matrix(distinct),
             ["lemma_suffix.matrix", "lemma_suffix.matrix.manifest.json"]),
        Call(["features", "gold.conllu", "morph.tsv", "--hybrid", "sufvec",
              "--matrix", "lemma_suffix.matrix", "--format", "jsonl",
              "--output", "features.jsonl"],
             _check_features(gold),
             ["features.jsonl", "features.jsonl.manifest.json"]),
    ]
    return Plan(calls, inputs, n_analyses + tokens,
                f"corpus analyses plus treebank tokens ({n_analyses} + {tokens})",
                read_counts=_suffix_features_counts)


def _suffix_features_counts(work: Path) -> dict[str, int]:
    with open(work / "lemma_suffix.matrix", encoding="utf-8") as handle:
        lemmas = sum(1 for _ in handle) - 1
    return {"morpho.lemmas": lemmas,
            "features.output_bytes": (work / "features.jsonl").stat().st_size}


PARTS = {
    "annotate": plan_annotate,
    "ablate": plan_ablate,
    "compare": plan_compare,
    "suffix-features": plan_suffix_features,
}

# Each part alone is a workload.  BENCHMARK.json lists the two pairs: two
# workloads with long runs spread less on a shared machine than four with
# short ones, and between them they still reach every layer.
WORKLOADS = {
    **{name: (name,) for name in PARTS},
    "annotate-ablate": ("annotate", "ablate"),
    "compare-suffix-features": ("compare", "suffix-features"),
}


@dataclass
class Workload:
    """The parts of a workload, and their calls in the order they run."""

    parts: dict[str, Plan]
    calls: list[Call]
    inputs: dict[str, dict]
    token_base: int
    token_base_note: str


def plan(workload: str, seed: int, scale: float, work: Path) -> Workload:
    """The parts of ``workload`` in order, each under ``work / part``.

    Every part draws its inputs from ``seed`` alone, so a part's inputs
    and outputs are the same in every workload that holds it.
    """
    parts = {}
    for part in WORKLOADS[workload]:
        (work / part).mkdir()
        parts[part] = sub = PARTS[part](seed, scale, work / part)
        for call in sub.calls:
            call.part = part
    return Workload(
        parts,
        [call for sub in parts.values() for call in sub.calls],
        {f"{part}/{name}": record for part, sub in parts.items()
         for name, record in sub.inputs.items()},
        sum(sub.token_base for sub in parts.values()),
        "; ".join(f"{part}: {sub.token_base} {sub.token_base_note}"
                  for part, sub in parts.items()))


def output_digests(call: Call, work: Path, root: Path) -> dict[str, str]:
    """sha256 of each output of ``call``.  Manifests are hashed without
    their ``created`` time stamp and with the checkout path replaced, so
    the digests hold in any checkout."""
    digests = {}
    for name in call.outputs:
        data = (work / name).read_bytes()
        if name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("created", None)
            data = json.dumps(manifest, indent=2, sort_keys=True).replace(
                str(root), "<root>").encode("utf-8")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
