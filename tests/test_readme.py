"""The README's Python examples run as written."""

import re
from pathlib import Path

import pytest

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
