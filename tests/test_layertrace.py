"""The benchmark's layer trace finds every name it times.

``benchmarks/layertrace.py`` times a layer by replacing a module
attribute by name and skips a name it cannot find, so a renamed or
dropped function would silently leave its layer out of the trace.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from test_cli import SIDECAR, TREEBANK, run_child

LAYERTRACE = Path(__file__).resolve().parent.parent / "benchmarks" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_timed_name_exists():
    timed = load_layertrace().TIMED
    missing = [f"{module.__name__}.{attribute}" for module, attribute, _ in timed
               if not callable(getattr(module, attribute, None))]
    assert missing == []
    names = {(module.__name__, attribute) for module, attribute, _ in timed}
    assert {("ruleparse.cli", "parse_conllu"), ("ruleparse.cli", "read_morph_sidecar"),
            ("ruleparse.cli", "_group_analyses"),
            ("ruleparse.cli", "build_matrix")} <= names


@pytest.mark.parametrize("command", ["annotate", "features", "ablate"])
def test_span_mode_traces_the_reads_of_each_command(tmp_path, command):
    # In a child process: the trace replaces module attributes and does
    # not put them back.
    treebank = tmp_path / "dev.conllu"
    treebank.write_text(TREEBANK, encoding="utf-8")
    sidecar = tmp_path / "dev.morph"
    sidecar.write_text(SIDECAR, encoding="utf-8")
    out = tmp_path / "trace.json"
    proc = run_child(str(LAYERTRACE), str(out), "--", command, str(treebank),
                     str(sidecar), "--output", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert trace["exit"] == 0
    assert trace["missing"] == []
    layers = {layer for layer, *_ in trace["spans"]}
    assert {"conllu.parse", "conllu.sidecar_read"} <= layers
    if command != "ablate":
        assert "conllu.group" in layers
