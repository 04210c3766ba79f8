"""The exit-code contract, checked by mutating valid inputs.

Every subcommand runs in process through ``cli.main`` on a small valid
input set (a random treebank, or one long chain of late-bound or
leftward-attaching words, with a copy of the packaged suffix inventory
and lexicon directory), with one of its input files mutated: a dropped
or extra column, a column set to a bad id, head or value (a suffix class
among them), bytes that are not UTF-8, an empty, comment-only or
truncated file, a line dropped or repeated (a duplicate inventory tag),
or sidecar lines that name no token.  A mutated lexicon is one file of
the copied directory.  Or a flag is set out of its range: ``--cap`` or
``--shuffles`` below 1, or an unknown rule.  The command must exit 0
or 2, never 3 or with an uncaught exception; unmutated inputs must exit
0, a sidecar line that names no token must exit 2 wherever a treebank
is read beside it, and so must a flag out of range.

The tests after it put faults of two stages into one call and check
that the earlier stage's error is the one reported, and that no file is
left behind.
"""

import io
import random
import shutil
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleparse import (EngineError, build_matrix, default_lexicon_dir,
                       write_conllu, write_matrix)
from ruleparse.cli import main
from ruleparse.morpho import default_inventory

from conftest import (deep_chain, determiner_chain, random_treebank,
                      sidecar_text, with_random_tree)

COMMANDS = ("annotate", "features", "matrix", "score", "sigtest", "ablate")
MUTATIONS = ("none", "drop_column", "extra_column", "set_column", "non_utf8",
             "empty", "comment_only", "truncate", "drop_line", "repeat_line",
             "extra_sidecar_lines", "bad_flag")
# The input a mutation goes to, when the command reads it; any input the
# command reads otherwise.
TARGETS = ("any", "inventory", "lexicon")
BASES = ("random", "adjectives", "adverbs", "determiners")
# Values a mutated column takes: bad ids and heads, numbers a matrix row
# may not hold, and values that are fine.
JUNK = ("0", "-1", "x", "", "_", "1.5", "1-2", "2.1", "99999", "nan", "NaN",
        "inf", "-Infinity", "1e400", "-0.25", "1", "3", "Noun", "Noun++A3sg",
        " ", " 1", "infl", "deriv", "Infl", "kuru yemiş")
HYBRIDS = ("rule", "infl", "last", "sufvec", "rule+last")


def base_inputs(base: str, size: int, rng: random.Random):
    """Gold sentences and their sidecar map for one kind of input."""
    if base == "random":
        gold, _, analyses = random_treebank(rng, size % 6 + 1, max_len=12)
        return gold, analyses
    if base == "determiners":
        sentence, analyses = determiner_chain(size)
    else:
        sentence, analyses = deep_chain(size, base)
    return [sentence], {(1, i): a for i, a in analyses.items()}


def write_inputs(directory: Path, base: str, size: int, rng: random.Random):
    """The input files, by name: treebank, sidecar, matrix, one system
    output in each of two directories, the suffix inventory and one file
    of the lexicon directory, picked at random."""
    gold, analyses = base_inputs(base, size, rng)
    lexicons = shutil.copytree(default_lexicon_dir(), directory / "lexicons")
    files = {
        "gold": directory / "gold.conllu",
        "sidecar": directory / "morph.tsv",
        "matrix": directory / "matrix.tsv",
        "system_a": directory / "a" / "run.conllu",
        "system_b": directory / "b" / "run.conllu",
        "inventory": directory / "inventory.tsv",
        "lexicon": rng.choice(sorted(lexicons.iterdir())),
    }
    files["inventory"].write_text(
        "".join(f"{tag}\t{cls}\n" for tag, cls in default_inventory().entries),
        encoding="utf-8")
    files["gold"].write_text(write_conllu(gold), encoding="utf-8")
    files["sidecar"].write_text(sidecar_text(analyses), encoding="utf-8")
    files["matrix"].write_text(write_matrix(build_matrix(analyses.values())),
                               encoding="utf-8")
    for side in ("system_a", "system_b"):
        files[side].parent.mkdir()
        system = [with_random_tree(rng, sentence) for sentence in gold]
        files[side].write_text(write_conllu(system), encoding="utf-8")
    return files, len(gold), max(len(s.tokens) for s in gold)


def command_line(command: str, files: dict, out: Path, rng: random.Random,
                 bad_flag: bool, with_inventory: bool):
    """The arguments of one run of ``command``, and the input files it
    reads.  With ``bad_flag`` a flag that takes a number or a rule list
    gets a value out of its range; ``with_inventory`` passes the copied
    inventory to the commands that take one."""
    gold, sidecar = str(files["gold"]), str(files["sidecar"])
    lexicons = ["--lexicons", str(files["lexicon"].parent)]
    inventory = ["--inventory", str(files["inventory"])] * with_inventory
    if command == "annotate":
        rules = [r for r in ("cpi", "nc", "pc", "ac", "aaj", "ajc", "ajn", "av", "nv")
                 if rng.random() < 0.7] + ["xyz"] * bad_flag
        return (["annotate", gold, sidecar, "--rules", ",".join(rules),
                 "--diagnostics", str(out) + ".diag"] + lexicons,
                ["gold", "sidecar", "lexicon"])
    if command == "features":
        hybrid = rng.choice(HYBRIDS)
        argv = ["features", gold, sidecar, "--hybrid", hybrid,
                "--format", rng.choice(("conllu", "jsonl"))] + inventory
        reads = ["gold", "sidecar"] + ["inventory"] * bool(inventory)
        if hybrid.startswith("rule"):
            argv += lexicons
            reads.append("lexicon")
        if hybrid == "sufvec":
            return argv + ["--matrix", str(files["matrix"])], reads + ["matrix"]
        return argv, reads
    if command == "matrix":
        cap = rng.choice((0, -1, -40000)) if bad_flag else rng.randint(1, 50)
        return (["matrix", sidecar, "--cap", str(cap)] + inventory,
                ["sidecar"] + ["inventory"] * bool(inventory))
    if command == "score":
        return ["score", gold, str(files["system_a"])], ["gold", "system_a"]
    if command == "sigtest":
        shuffles = rng.choice((0, -1, -10000)) if bad_flag else 20
        return (["sigtest", gold, str(files["system_a"].parent),
                 str(files["system_b"].parent), "--shuffles", str(shuffles)],
                ["gold", "system_a", "system_b"])
    argv = ["ablate", gold, sidecar] + lexicons
    return argv + ["--no-av-nv"] * (rng.random() < 0.5), \
        ["gold", "sidecar", "lexicon"]


def mutate(data: bytes, mutation: str, rng: random.Random, sentences: int,
           longest: int) -> bytes:
    """``data`` with one mutation applied where it can be."""
    if mutation in ("none", "bad_flag"):
        return data
    if mutation == "empty":
        return b""
    if mutation == "non_utf8":
        at = rng.randint(0, len(data))
        return data[:at] + rng.choice((b"\xff", b"\xc3", b"\xed\xa0\x80")) + data[at:]
    if mutation == "truncate":
        return data[:rng.randint(0, len(data))]
    lines = data.decode("utf-8").split("\n")
    if mutation == "comment_only":
        return "\n".join("# " + line for line in lines).encode("utf-8")
    if mutation == "extra_sidecar_lines":
        extra = [f"{sentences + rng.randint(1, 5)}\t1\tev\tNoun+A3sg+Nom",
                 f"{rng.randint(1, sentences)}\t{longest + rng.randint(1, 5)}"
                 "\tev\tNoun"]
        return "\n".join(lines[:-1] + rng.sample(extra, rng.randint(1, 2))
                         + lines[-1:]).encode("utf-8")
    entries = [i for i, line in enumerate(lines)
               if line and not line.startswith("#")]
    if not entries:
        return data
    at = rng.choice(entries)
    cols = lines[at].split("\t")
    if mutation == "drop_column":
        del cols[rng.randrange(len(cols))]
    elif mutation == "extra_column":
        cols.insert(rng.randint(0, len(cols)), rng.choice(JUNK))
    elif mutation == "set_column":
        cols[rng.randrange(len(cols))] = rng.choice(JUNK)
    elif mutation == "drop_line":
        cols = None
    elif mutation == "repeat_line":
        lines.insert(rng.choice(entries), lines[at])
    if cols is None:
        del lines[at]
    else:
        lines[at] = "\t".join(cols)
    return "\n".join(lines).encode("utf-8")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(base=st.sampled_from(BASES), size=st.integers(2, 300),
       command=st.sampled_from(COMMANDS), mutation=st.sampled_from(MUTATIONS),
       target=st.sampled_from(TARGETS), seed=st.integers(0, 2**32 - 1))
# A 1,002-token sentence that takes 1,002 engine passes.
@example(base="determiners", size=1002, command="annotate", mutation="none",
         target="any", seed=0)
@example(base="determiners", size=1002, command="ablate", mutation="none",
         target="any", seed=0)
@example(base="random", size=1, command="annotate",
         mutation="extra_sidecar_lines", target="any", seed=0)
@example(base="random", size=1, command="features",
         mutation="extra_sidecar_lines", target="any", seed=0)
@example(base="random", size=1, command="ablate",
         mutation="extra_sidecar_lines", target="any", seed=0)
# An empty inventory once fell back to the packaged one.
@example(base="random", size=1, command="matrix", mutation="empty",
         target="inventory", seed=0)
def test_every_input_exits_0_or_2(base, size, command, mutation, target, seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        files, sentences, longest = write_inputs(directory, base, size, rng)
        out = directory / "out"
        argv, inputs = command_line(
            command, files, out, rng, bad_flag=mutation == "bad_flag",
            with_inventory=target == "inventory" or rng.random() < 0.5)
        if mutation == "extra_sidecar_lines":
            target = "sidecar"
        elif target not in inputs:
            target = rng.choice(inputs)
        path = files[target]
        path.write_bytes(mutate(path.read_bytes(), mutation, rng, sentences,
                                longest))
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(argv + ["--output", str(out)])
    if mutation == "none":
        assert code == 0, err.getvalue()
    elif mutation == "extra_sidecar_lines" and command in ("annotate", "features",
                                                            "ablate"):
        assert code == 2
        assert "names no token of the treebank" in err.getvalue()
    elif mutation == "bad_flag" and command in ("annotate", "matrix", "sigtest"):
        assert code == 2, err.getvalue()
    elif mutation in ("empty", "comment_only") and target == "inventory":
        assert code == 2
        assert err.getvalue() == (f"error: {path}: invalid suffix inventory: "
                                  "no entries\n")
    else:
        assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


# The first error of a call is that of its earliest stage, in the README's
# order: the arguments and output targets, then each input file in turn
# (UTF-8, then format), then the treebank-sidecar alignment, then the
# engine.  Every test below puts faults of two stages into one call.
TREEBANK = ("1\tKuru\tkuru\tNOUN\t_\t_\t2\tnmod\t_\t_\n"
            "2\tyemiş\tyemiş\tNOUN\t_\t_\t0\troot\t_\t_\n\n")
SIDECAR = "1\t1\tkuru\tNoun+A3sg+Nom\n1\t2\tyemiş\tNoun+A3sg+Nom\n"
BAD = {
    "non_utf8": b"1\t\xff\n",
    "bad_treebank": b"1\tKuru\tkuru\n\n",
    # The first line names no token; the last one is malformed.
    "misaligned_then_malformed": (SIDECAR + "2\t1\tev\tNoun\n1\t3\n").encode(),
    "misaligned": (SIDECAR + "2\t1\tev\tNoun\n").encode(),
}


def run_in(directory: Path, argv: list, files: dict) -> tuple[int, str]:
    """``main(argv)`` run in ``directory`` over the given input files,
    with its exit code and stderr; the directory must hold only those
    files afterwards: no output, manifest, report or ``*.tmp``."""
    for name, data in files.items():
        (directory / name).write_bytes(data)
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    assert sorted(p.name for p in directory.iterdir()) == sorted(files)
    return code, err.getvalue()


@pytest.mark.parametrize("argv, env, error", [
    (["annotate", "t", "s", "--rules", "cpi,bogus", "--diagnostics", "d"], {},
     "unknown rule 'bogus'"),
    (["annotate", "t", "s"], {"RULEPARSE_RULES": "bogus"}, "unknown rule 'bogus'"),
    (["features", "t", "s", "--rules", "bogus"], {}, "unknown rule 'bogus'"),
    (["features", "t", "s", "--hybrid", "sufvec", "--inventory", "i"], {},
     "--matrix is required for the sufvec mode"),
    (["features", "t", "s", "--inventory", "i"], {"RULEPARSE_HYBRID": "sufvec"},
     "--matrix is required for the sufvec mode"),
    (["features", "t", "s", "--hybrid", "last", "--matrix", "m",
      "--inventory", "i"], {}, "--matrix is only valid with the sufvec mode"),
    (["matrix", "s", "--cap", "0", "--inventory", "i"], {},
     "cap must be a positive integer"),
    (["sigtest", "t", "a", "b", "--shuffles", "0"], {}, "shuffles must be >= 1"),
    (["sigtest", "t", "a", "b", "--seed", "-1"], {}, "seed must be >= 0, not -1"),
    (["sigtest", "t", "a", "b"], {"RULEPARSE_SEED": "-1"},
     "seed must be >= 0, not -1"),
], ids=["rules", "rules_env", "features_rules", "sufvec_without_matrix",
        "sufvec_env_without_matrix", "matrix_without_sufvec", "cap",
        "shuffles", "seed", "seed_env"])
def test_a_bad_argument_wins_over_every_missing_input(tmp_path, monkeypatch,
                                                      argv, env, error):
    # No input exists, a given --inventory included: the message names
    # the argument, not a file.
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, err = run_in(tmp_path, argv + ["--output", "o"], {})
    assert (code, err) == (2, f"error: {error}\n")


LONG = "a" * 250


@pytest.mark.parametrize("argv, files, error", [
    (["annotate", "t", "s", "--output", "nodir/o"], {},
     "output path nodir/o: no such directory"),
    (["annotate", "t", "s", "--output", "o", "--diagnostics", "nodir/d"], {},
     "output path nodir/d: no such directory"),
    (["matrix", "s", "--output", "f/o"], {"f": b""},
     "output path f/o: no such directory"),
    (["ablate", "t", "s", "--output", LONG], {},
     f"output path {LONG}: temporary name too long"),
    # The output's temporary name fits; its manifest's does not.
    (["score", "t", "u", "--output", LONG[:240]], {},
     f"output path {LONG[:240]}.manifest.json: temporary name too long"),
], ids=["output_directory", "report_directory", "file_as_directory",
        "output_name", "manifest_name"])
def test_an_unwritable_target_wins_over_every_missing_input(
        tmp_path, monkeypatch, argv, files, error):
    # A name may be 255 bytes long on the usual file systems, and the
    # temporary name ``<name>.<8 hex>.tmp`` adds 13.
    monkeypatch.chdir(tmp_path)
    code, err = run_in(tmp_path, argv, files)
    assert (code, err) == (2, f"error: {error}\n")


@pytest.mark.parametrize("argv, files, error", [
    # A bad flag, and a treebank that is not UTF-8.
    (["annotate", "t", "s", "--rules", "bogus", "--output", "o"],
     {"t": BAD["non_utf8"], "s": SIDECAR.encode()}, "unknown rule 'bogus'"),
    # A path named twice, and a treebank that is not UTF-8.
    (["annotate", "t", "s", "--output", "o", "--diagnostics", "o"],
     {"t": BAD["non_utf8"], "s": SIDECAR.encode()},
     "output path o is named twice"),
    # A treebank format error, and a sidecar that is not UTF-8: file by file.
    (["annotate", "t", "s", "--output", "o"],
     {"t": BAD["bad_treebank"], "s": BAD["non_utf8"]},
     "t: sentence 1, line 1: expected 10 tab-separated columns, got 3"),
    # A treebank format error, and a sidecar line that names no token.
    (["features", "t", "s", "--hybrid", "last", "--output", "o"],
     {"t": BAD["bad_treebank"], "s": BAD["misaligned"]},
     "t: sentence 1, line 1: expected 10 tab-separated columns, got 3"),
    # A sidecar line that names no token, and a later malformed one: the
    # whole file is read before the join.
    (["ablate", "t", "s", "--output", "o"],
     {"t": TREEBANK.encode(), "s": BAD["misaligned_then_malformed"]},
     "s: line 4: expected 4 tab-separated columns, got 2"),
], ids=["flag_before_utf8", "target_before_utf8", "treebank_before_sidecar",
        "format_before_alignment", "whole_sidecar_before_alignment"])
def test_the_earlier_stage_reports_its_error(tmp_path, monkeypatch, argv,
                                             files, error):
    monkeypatch.chdir(tmp_path)
    code, err = run_in(tmp_path, argv, files)
    assert (code, err) == (2, f"error: {error}\n")


@pytest.mark.parametrize("command", ["annotate", "features", "ablate"])
def test_alignment_wins_over_the_engine(tmp_path, monkeypatch, command):
    import ruleparse.cli
    import ruleparse.evaluate

    def broken(*args, **kwargs):
        raise EngineError("the engine ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ruleparse.cli, "run", broken)
    monkeypatch.setattr(ruleparse.evaluate, "run", broken)
    code, err = run_in(tmp_path, [command, "t", "s", "--output", "o"],
                       {"t": TREEBANK.encode(), "s": BAD["misaligned"]})
    assert (code, err) == (2, "error: sidecar entry for sentence 2 token 1 "
                              "names no token of the treebank\n")
