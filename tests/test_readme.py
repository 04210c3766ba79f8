"""The README's Python examples and shell quick start run as written."""

import re
import shlex
from pathlib import Path

import pytest

from ruleparse.cli import main

from test_cli import SIDECAR, TREEBANK

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_example_runs(index, tmp_path, monkeypatch, capsys):
    (tmp_path / "gold.conllu").write_text(TREEBANK, encoding="utf-8")
    (tmp_path / "morph.tsv").write_text(SIDECAR, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), {})
    out = capsys.readouterr().out
    # Sentence 1 opens with the listed compound "Kuru yemiş"; sentence 2
    # is a genitive possessive construction.
    assert "1 2 -> 1 NC" in out
    assert "2 1 -> 2 PC" in out


QUICK_START = re.search(r"^## Quick start\n.*?^```sh\n(.*?)^```",
                        README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL).group(1)


def shell_commands(block):
    """The ``ruleparse ...`` command lines of a shell block, each with its
    continuation lines joined."""
    lines = re.sub(r"\\\n", " ", block).splitlines()
    return [shlex.split(line) for line in lines if line.startswith("ruleparse ")]


def test_shell_quick_start_runs(tmp_path, monkeypatch, capsys):
    commands = shell_commands(QUICK_START)
    assert [argv[1] for argv in commands] == [
        "annotate", "matrix", "features", "score", "sigtest", "ablate"]
    for name, text in (("gold.conllu", TREEBANK), ("morph.tsv", SIDECAR),
                       ("big_corpus.tsv", SIDECAR), ("system.conllu", TREEBANK),
                       ("runs/model_a/run1.conllu", TREEBANK),
                       ("runs/model_b/run1.conllu", TREEBANK)):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "feats.jsonl").exists()
