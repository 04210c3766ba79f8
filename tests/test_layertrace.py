"""The benchmark's layer trace finds every name it times.

``benchmarks/layertrace.py`` times a layer by replacing a module
attribute by name and skips a name it cannot find, so a renamed or
dropped function would silently leave its layer out of the trace.
"""

import importlib.util
from pathlib import Path

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
