"""The process entry, ``cli.run_main``: ``python -m ruleparse`` runs
:func:`cli.main` with the cyclic garbage collector off and leaves with
``os._exit`` once stdout and stderr are flushed.

The children here run with ``PYTHONUNBUFFERED`` unset, so that stdout
is block-buffered as it is for a user and the final flush has bytes to
write.  The guard on the collector runs every subcommand in this
process, as the entry does, at two input sizes: the garbage that a call
leaves must not grow with its input.
"""

import gc
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ruleparse
from ruleparse.cli import main

from conftest import gen


def gold_treebank(rng: random.Random, n: int) -> list:
    """``n`` gold sentences as ``gen`` draws them."""
    return [(items, gen.random_tree(rng, len(items)))
            for items in (gen.random_sentence(rng) for _ in range(n))]


def write_inputs(directory: Path, n: int) -> Path:
    """In ``directory``: a gold treebank of ``n`` sentences and its
    sidecar, two system outputs per side, a corpus of 20 analyses a
    sentence and the matrix built from it."""
    rng = random.Random(n)
    gold = gold_treebank(rng, n)
    directory.mkdir()
    (directory / "gold.conllu").write_text(gen.conllu_text(gold), encoding="utf-8")
    (directory / "gold.morph").write_text(gen.sidecar_text(gold), encoding="utf-8")
    for side in ("a", "b"):
        (directory / side).mkdir()
        for k in (1, 2):
            (directory / side / f"run{k}.conllu").write_text(
                gen.conllu_text(gen.system_output(rng, gold, 0.3)), encoding="utf-8")
    corpus, _ = gen.corpus_text(rng, 20 * n, 500)
    (directory / "corpus.tsv").write_text(corpus, encoding="utf-8")
    assert main(["matrix", str(directory / "corpus.tsv"),
                 "--output", str(directory / "matrix.tsv")]) == 0
    return directory


def argv_of(command: str, directory: Path) -> list[str]:
    """A call of ``command`` on the inputs of :func:`write_inputs`,
    without its ``--output``."""
    d = str(directory)
    return {
        "annotate": ["annotate", f"{d}/gold.conllu", f"{d}/gold.morph",
                     "--diagnostics", f"{d}/report.json"],
        "features": ["features", f"{d}/gold.conllu", f"{d}/gold.morph",
                     "--format", "jsonl", "--hybrid", "sufvec",
                     "--matrix", f"{d}/matrix.tsv"],
        "matrix": ["matrix", f"{d}/corpus.tsv", "--cap", "100"],
        "score": ["score", f"{d}/gold.conllu", f"{d}/a/run1.conllu"],
        "sigtest": ["sigtest", f"{d}/gold.conllu", f"{d}/a", f"{d}/b",
                    "--shuffles", "200"],
        "ablate": ["ablate", f"{d}/gold.conllu", f"{d}/gold.morph"],
    }[command]


COMMANDS = ("annotate", "features", "matrix", "score", "sigtest", "ablate")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The inputs of :func:`write_inputs` at 40 and at 160 sentences."""
    root = tmp_path_factory.mktemp("entry")
    return {n: write_inputs(root / str(n), n) for n in (40, 160)}


def run_entry(*argv, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m ruleparse *argv`` in a child that imports the same
    package as this process, with ``PYTHONUNBUFFERED`` unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(ruleparse.__file__).resolve().parent.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ruleparse", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120)


def garbage_after(argv: list[str]) -> int:
    """The objects that ``gc.collect`` frees after ``main(argv)`` ran
    with the collector off, as under the process entry."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_call_leaves_no_garbage_that_grows_with_its_input(
        inputs, tmp_path, one_process, command):
    def garbage(n: int) -> int:
        return garbage_after(argv_of(command, inputs[n])
                             + ["--output", str(tmp_path / "out")])

    garbage(40)  # what a first call loads or caches is not the call's garbage
    small, large = garbage(40), garbage(160)
    assert abs(large - small) <= 20 and large < 1000, (small, large)


@pytest.mark.parametrize("command", ["annotate", "features", "score"])
def test_stdout_gets_the_bytes_of_the_output_file(inputs, tmp_path, command):
    argv = argv_of(command, inputs[160])
    assert main(argv + ["--output", str(tmp_path / "out")]) == 0
    expected = (tmp_path / "out").read_bytes()
    done = run_entry(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_a_final_flush_that_fails_exits_2_with_the_error(inputs):
    with open("/dev/full", "wb") as full:
        done = run_entry(*argv_of("score", inputs[40]), stdout=full)
    assert (done.returncode, done.stderr) == (
        2, b"error: [Errno 28] No space left on device\n")


def test_a_closed_pipe_exits_2_with_the_error(inputs):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_entry(*argv_of("score", inputs[40]), stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


def test_a_failed_call_keeps_its_one_error_when_its_output_cannot_flush(inputs):
    # annotate fails writing to the closed pipe, and what it wrote is still
    # buffered when the entry flushes.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_entry(*argv_of("annotate", inputs[160]), stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")
