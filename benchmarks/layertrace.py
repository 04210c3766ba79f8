"""Run ``ruleparse.cli.main(argv)`` in this process with per-layer wrappers.

    PYTHONPATH=src python3 benchmarks/layertrace.py OUT.json [--count] -- <ruleparse arguments>

Without ``--count`` every module-level function the CLI and ``evaluate``
call into is replaced by a wrapper that records a span (layer, start,
end, parent span); the spans stay in memory and are written to OUT.json
once, after ``main`` returns.  With ``--count`` no time is recorded;
instead the hot lexicon functions and the engine entry points are
wrapped with counters.  The two modes are kept apart because a counter
on ``fold`` (called about ten times per token) would distort the times.

The program itself is not modified: wrappers replace names in the
imported modules only.  A name that no longer exists is skipped and
listed under ``missing`` in OUT.json.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

from ruleparse import cli, engine, evaluate, features, lexicon

# (module, attribute, layer).  Each entry is a call the CLI (or the
# ablation loop in evaluate) makes into a layer.
TIMED = [
    (cli, "parse_conllu", "conllu.parse"),
    (cli, "read_morph_sidecar", "conllu.sidecar_read"),
    (cli, "_group_analyses", "conllu.group"),
    (features, "write_conllu", "conllu.write"),
    (cli, "load_lexicon", "lexicon.load"),
    (cli, "run", "engine.run"),
    (evaluate, "run", "engine.run"),
    (cli, "encode", "features.encode"),
    (cli, "export", "features.export"),
    (cli, "export_jsonl", "features.export_jsonl"),
    (cli, "build_matrix", "morpho.matrix_build"),
    (cli, "write_matrix", "morpho.matrix_write"),
    (cli, "read_matrix", "morpho.matrix_read"),
    (cli, "score", "evaluate.score"),
    (cli, "randomization_test", "evaluate.sigtest"),
    (cli, "ablate", "evaluate.ablate"),
]
ROOT_LAYER = "cli"


def _install(module, attribute: str, make_wrapper, missing: list) -> None:
    original = getattr(module, attribute, None)
    if original is None:
        missing.append(f"{module.__name__}.{attribute}")
        return
    setattr(module, attribute, wraps(original)(make_wrapper(original)))


def traced_main(argv: list[str]) -> dict:
    spans: list[list] = []
    stack = [-1]
    clock = time.perf_counter

    def span(layer: str, fn):
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [layer, clock(), 0.0, stack[-1]]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
        return wrapper

    missing: list[str] = []
    for module, attribute, layer in TIMED:
        _install(module, attribute, lambda fn, layer=layer: span(layer, fn), missing)
    exit_code = span(ROOT_LAYER, cli.main)(argv)
    return {"exit": exit_code, "missing": missing, "spans": spans}


def counted_main(argv: list[str]) -> dict:
    counts: Counter = Counter()
    totals = engine.Diagnostics()

    def count(name: str, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_engine(fn):
        # Each call gets a fresh Diagnostics whose counts are then added
        # to the caller's, so the caller sees exactly what it would have.
        def wrapper(sentence, analyses, lex, config=None, diagnostics=None):
            own = engine.Diagnostics()
            assignments = fn(sentence, analyses, lex, config, own)
            if diagnostics is not None:
                diagnostics.merge(own)
            totals.merge(own)
            counts["engine.runs"] += 1
            counts["engine.tokens"] += len(sentence.tokens)
            counts["engine.assigned"] += len(assignments)
            return assignments
        return wrapper

    def count_tokens(fn):
        def wrapper(*args, **kwargs):
            sentences = fn(*args, **kwargs)
            counts["conllu.tokens"] += sum(len(s.tokens) for s in sentences)
            return sentences
        return wrapper

    missing: list[str] = []
    _install(lexicon, "fold", lambda fn: count("lexicon.fold_calls", fn), missing)
    _install(lexicon.Lexicon, "match_pair",
             lambda fn: count("lexicon.match_pair_calls", fn), missing)
    _install(cli, "run", count_engine, missing)
    _install(evaluate, "run", count_engine, missing)
    _install(cli, "parse_conllu", count_tokens, missing)
    exit_code = cli.main(argv)
    counts["engine.skipped_cycles"] = totals.skipped_cycles
    for code, fired in totals.fire_counts.items():
        counts[f"engine.fires.{code}"] = fired
    return {"exit": exit_code, "missing": missing, "counts": dict(counts)}


def main() -> int:
    out, *rest = sys.argv[1:]
    counting = rest[:1] == ["--count"]
    argv = rest[rest.index("--") + 1:]
    result = (counted_main if counting else traced_main)(argv)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main())
