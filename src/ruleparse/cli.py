"""Command line interface.

Subcommands: annotate, features, matrix, score, sigtest, ablate.
Configuration precedence is flags > RULEPARSE_* environment variables >
built-in defaults.  Exit codes: 0 success, 2 malformed or mismatched
input, 3 broken internal invariant.

Whenever a command writes to an output file, a ``<output>.manifest.json``
is written beside it recording the command, configuration, tool version,
and a SHA-256 hash of every input file.

Every input file is read line by line through :func:`_read` (``matrix``
streams its corpus through :func:`_open_text`).  Outputs go to temporary
files beside their paths, moved into place once every file of the
command is written, so a command that fails changes no file.
"""

from __future__ import annotations

import argparse
import codecs
import hashlib
import json
import os
import secrets
import sys
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Iterator

from . import __version__
from .conllu import (iter_morph_sidecar, parse_conllu, read_columns,
                     read_morph_sidecar)
# Bound under this name because the benchmark's layer trace wraps
# ``cli._group_analyses`` to time the grouping step.
from .conllu import group_by_sentence as _group_analyses
from .engine import ALL_RULES, Diagnostics, RuleConfig, run
from .errors import AlignmentError, EngineError, InputFormatError
from .evaluate import ablate, ablation_steps, randomization_test, score
from .features import (HybridConfig, MODE_RULE, MODE_SUFVEC, encode, export,
                       export_jsonl)
from .lexicon import default_lexicon_dir, load_lexicon
from .morpho import build_matrix, load_inventory, read_matrix, write_matrix

DEFAULT_RULE_FLAG = "cpi,nc,pc,ac,aaj,ajc,ajn"
ENV_PREFIX = "RULEPARSE_"
_RULE_OF_NAME = {code.value: code for code in ALL_RULES}


def _env(name: str, fallback: str) -> str:
    return os.environ.get(ENV_PREFIX + name, fallback)


def _add_choice(parser: argparse.ArgumentParser, flag: str,
                choices: tuple[str, ...], name: str, fallback: str,
                help: str | None = None) -> None:
    """``flag``, one of ``choices``, defaulting to ``RULEPARSE_<name>``.

    argparse converts a string default with ``type`` but never checks it
    against ``choices``, so ``type`` checks every value, the environment
    default included, with argparse's own message."""
    def check(value: str) -> str:
        if value not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {value!r} "
                f"(choose from {', '.join(map(repr, choices))})")
        return value
    parser.add_argument(flag, choices=choices, type=check,
                        default=_env(name, fallback), help=help)


def _parse_rules(flag: str) -> RuleConfig:
    enabled = set()
    for name in filter(None, (part.strip() for part in flag.split(","))):
        code = _RULE_OF_NAME.get(name.upper())
        if code is None:
            raise InputFormatError(f"unknown rule {name!r}")
        enabled.add(code)
    return RuleConfig(enabled=frozenset(enabled))


def _open_text(path: str | Path) -> IO[str]:
    """``path`` opened as UTF-8 text, once all of it is known to decode.

    The readers take a file line by line, so a decode error would
    otherwise surface mid-parse, after the errors of the lines before it,
    with a position counted from the chunk it fell in.  A file that does
    not decode fails here, with the error a whole-file read gives.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    with open(path, "rb") as raw:
        try:
            while chunk := raw.read(1 << 16):
                decoder.decode(chunk)
            decoder.decode(b"", final=True)
        except UnicodeDecodeError:
            Path(path).read_text(encoding="utf-8")
            raise
    return open(path, encoding="utf-8")


def _read(path: str | Path, reader: Callable, *args):
    """``reader(handle, *args)`` on the file at ``path``, opened by
    :func:`_open_text`.  Callers name the reader as a module global, so a
    wrapper installed on this module sees the call."""
    with _open_text(path) as handle:
        return reader(handle, *args)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _staged(path: str, temps: dict[str, str]) -> IO[str]:
    """A text handle on a new file ``<path>.<random>.tmp``, in the
    directory of ``path`` and with the mode a new ``path`` would get,
    recorded in ``temps`` under ``path``."""
    while True:
        temp = f"{path}.{secrets.token_hex(4)}.tmp"
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        temps[path] = temp
        return open(fd, "w", encoding="utf-8")


@contextmanager
def _output(output: str | None, command: str, inputs: list[str],
            config: dict, report: tuple[str, str] | None = None
            ) -> Iterator[IO[str]]:
    """The text handle a command writes its output to: stdout, or a
    temporary file beside the output.  ``report`` is a ``(path, text)``
    to write too.  Every file, the manifest included, is moved into place
    only once the ``with`` body has written the output; on an error none
    is.  A path named twice or naming a directory fails before any file
    is created."""
    targets = [report[0]] if report is not None else []
    if output is not None:
        targets += [output, output + ".manifest.json"]
    named = set()
    for path in targets:
        if os.path.abspath(path) in named:
            raise InputFormatError(f"output path {path} is named twice")
        if os.path.isdir(path):
            raise InputFormatError(f"output path {path} is a directory")
        named.add(os.path.abspath(path))
    temps: dict[str, str] = {}
    try:
        if report is not None:
            with _staged(report[0], temps) as handle:
                handle.write(report[1])
        if output is None:
            yield sys.stdout
        else:
            with _staged(output, temps) as handle:
                yield handle
            manifest = {"command": command, "version": __version__,
                        "created": datetime.now(timezone.utc).isoformat(),
                        "inputs": {path: _sha256(path) for path in inputs},
                        "config": config, "output": output}
            with _staged(output + ".manifest.json", temps) as handle:
                handle.write(_json_text(manifest))
        for path, temp in temps.items():
            os.replace(temp, path)
    except BaseException:
        for temp in temps.values():
            with suppress(FileNotFoundError):
                os.remove(temp)
        raise


def _add_common(parser: argparse.ArgumentParser, *, rules=False,
                lexicons=False) -> None:
    if rules:
        parser.add_argument("--rules", default=_env("RULES", DEFAULT_RULE_FLAG),
                            help="comma-separated rule codes "
                                 f"(default: {DEFAULT_RULE_FLAG})")
    if lexicons:
        parser.add_argument("--lexicons", default=_env("LEXICONS", None)
                            or str(default_lexicon_dir()),
                            help="directory with the six lexicon files")
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
    _add_common(p, rules=True, lexicons=True)
    _add_choice(p, "--format", ("conllu", "jsonl"), "FORMAT", "conllu",
                "output format")
    _add_choice(p, "--hybrid", ("rule", "infl", "last", "sufvec", "rule+last"),
                "HYBRID", "rule", "feature configuration")
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
    _add_choice(p, "--metric", ("uas", "las"), "METRIC", "uas")
    # A string default is converted by ``type`` only when ``sigtest``
    # runs, so a bad value exits 2 there and nowhere else.
    p.add_argument("--seed", type=int, default=_env("SEED", "0"),
                   help="random seed")
    _add_common(p)

    p = sub.add_parser("ablate", help="cumulative rule ablation over a gold treebank")
    p.add_argument("gold")
    p.add_argument("sidecar")
    _add_common(p, lexicons=True)
    p.add_argument("--no-av-nv", action="store_true",
                   help="use the six-step schedule without AV and NV")
    return parser


def _read_joined(treebank: str, sidecar: str) -> tuple[list, list[dict]]:
    """The sentences of ``treebank`` and one ``{token_id: analysis}``
    dict per sentence from ``sidecar``, every alignment error raised."""
    sentences = _read(treebank, parse_conllu)
    return sentences, _group_analyses(_read(sidecar, read_morph_sidecar),
                                      sentences)


def _encode_treebank(args, hybrid: HybridConfig, matrix=None, inventory=None):
    """Treebank and sidecar through the engine (in the rule mode only)
    and the encoder: the body of ``annotate`` and ``features``.  Returns
    the sentences, their feature bundles, the rule config and the
    engine's diagnostics."""
    sentences, grouped = _read_joined(args.treebank, args.sidecar)
    config = _parse_rules(args.rules)
    lexicon = load_lexicon(args.lexicons) if MODE_RULE in hybrid.modes else None
    diagnostics = Diagnostics()
    bundles = []
    for sentence, analyses in zip(sentences, grouped):
        assignments = None if lexicon is None else run(
            sentence, analyses, lexicon, config, diagnostics)
        bundles.append(encode(sentence, assignments, analyses, matrix,
                              hybrid, inventory))
    return sentences, bundles, config, diagnostics


def cmd_annotate(args) -> int:
    sentences, bundles, config, diagnostics = _encode_treebank(
        args, HybridConfig(frozenset({MODE_RULE})))
    report = dict(diagnostics.to_dict(),
                  sentences=len(sentences),
                  tokens=sum(len(s.tokens) for s in sentences),
                  assigned=sum(diagnostics.fire_counts.values()))
    diag_text = _json_text(report)
    if not args.diagnostics:
        sys.stderr.write(diag_text)
    # "jobs" is kept at 1 so the manifest stays byte-identical with the
    # one the benchmark's expected digests were recorded from.
    with _output(args.output, "annotate", [args.treebank, args.sidecar],
                 {"rules": sorted(c.value for c in config.enabled),
                  "lexicons": str(args.lexicons), "jobs": 1},
                 (args.diagnostics, diag_text) if args.diagnostics else None
                 ) as out:
        export(sentences, bundles, out)
    return 0


def cmd_features(args) -> int:
    hybrid = HybridConfig.from_flag(args.hybrid)
    inventory = _read(args.inventory, load_inventory) if args.inventory else None
    matrix = None
    if MODE_SUFVEC in hybrid.modes:
        if not args.matrix:
            raise InputFormatError("--matrix is required for the sufvec mode")
        matrix = _read(args.matrix, read_matrix, inventory)
    elif args.matrix:
        raise InputFormatError("--matrix is only valid with the sufvec mode")
    sentences, bundles, config, _ = _encode_treebank(args, hybrid, matrix,
                                                     inventory)
    inputs = [args.treebank, args.sidecar]
    inputs += [path for path in (args.matrix, args.inventory) if path]
    write = export_jsonl if args.format == "jsonl" else export
    with _output(args.output, "features", inputs,
                 {"hybrid": args.hybrid, "format": args.format,
                  "rules": sorted(c.value for c in config.enabled)}) as out:
        write(sentences, bundles, out)
    return 0


def cmd_matrix(args) -> int:
    inventory = _read(args.inventory, load_inventory) if args.inventory else None
    # Read as the build consumes it: the build counts each distinct
    # analysis, and the reader keeps only the positions for the
    # duplicate check, not a map from each position to its analysis.
    with _open_text(args.corpus) as handle:
        analyses = (analysis for _, analysis in iter_morph_sidecar(handle))
        matrix = build_matrix(analyses, cap=args.cap, inventory=inventory)
    inputs = [args.corpus] + ([args.inventory] if args.inventory else [])
    with _output(args.output, "matrix", inputs,
                 {"cap": args.cap, "lemmas": len(matrix)}) as out:
        write_matrix(matrix, out)
    return 0


def cmd_score(args) -> int:
    result = score(_read(args.gold, read_columns),
                   _read(args.system, read_columns))
    with _output(args.output, "score", [args.gold, args.system], {}) as out:
        out.write(_json_text(result.to_dict()))
    return 0


def _conllu_files(path: str) -> list[Path]:
    files = sorted(Path(path).glob("*.conllu"))
    if not files:
        raise InputFormatError(f"no .conllu files in {path}")
    return files


def cmd_sigtest(args) -> int:
    gold = _read(args.gold, read_columns)
    files_a = _conllu_files(args.dir_a)
    files_b = _conllu_files(args.dir_b)
    # Each file is read when the test reaches it and dropped once it is
    # reduced to its per-sentence counts: side A, then side B, in order.
    result = randomization_test(gold,
                                (_read(f, read_columns) for f in files_a),
                                (_read(f, read_columns) for f in files_b),
                                shuffles=args.shuffles,
                                metric=args.metric,
                                seed=args.seed)
    report = dict(result.to_dict(),
                  files_a=[f.name for f in files_a],
                  files_b=[f.name for f in files_b])
    inputs = [args.gold] + [str(Path(args.dir_a) / f.name) for f in files_a] \
        + [str(Path(args.dir_b) / f.name) for f in files_b]
    with _output(args.output, "sigtest", inputs,
                 {"shuffles": args.shuffles, "metric": args.metric,
                  "seed": args.seed}) as out:
        out.write(_json_text(report))
    return 0


def cmd_ablate(args) -> int:
    gold, grouped = _read_joined(args.gold, args.sidecar)
    lexicon = load_lexicon(args.lexicons)
    steps = ablation_steps(include_av_nv=not args.no_av_nv)
    results = ablate(gold, grouped, lexicon, steps)
    with _output(args.output, "ablate", [args.gold, args.sidecar],
                 {"schedule": "6-step" if args.no_av_nv else "8-step"}) as out:
        out.write(_json_text({"steps": [r.to_dict() for r in results]}))
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
