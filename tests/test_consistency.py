"""Facts that two subcommands compute each in their own way agree.

Every property runs through ``cli.main`` (the hash-seed one through
``python -m ruleparse``) on random treebanks, so a change that makes one
command drift from another fails here even when each command's own
tests still pass.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from ruleparse import parse_conllu, read_matrix, write_conllu, write_matrix
from ruleparse.cli import main
from ruleparse.features import bundle_from_token

from conftest import (distinct_treebank, gen, random_treebank, sidecar_text,
                      with_random_tree)
from test_cli import run_child

ALL_RULES = "cpi,nc,pc,ac,aaj,ajc,ajn,av,nv"

TREEBANKS = {
    "random": lambda: random_treebank(random.Random(5), 300),
    "distinct": lambda: distinct_treebank(random.Random(6), 150),
}


@pytest.fixture(scope="module", params=sorted(TREEBANKS))
def treebank(request, tmp_path_factory):
    """A gold treebank and its sidecar on disk, and the gold sentences."""
    gold, _, analyses = TREEBANKS[request.param]()
    root = tmp_path_factory.mktemp(request.param)
    (root / "gold.conllu").write_text(write_conllu(gold), encoding="utf-8")
    (root / "morph.tsv").write_text(sidecar_text(analyses), encoding="utf-8")
    return root, gold


def call(*argv) -> None:
    assert main([str(a) for a in argv]) == 0, argv


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def annotate_report(root: Path, name: str, *flags) -> dict:
    """``annotate``'s run report, its output written to ``root/name``."""
    call("annotate", root / "gold.conllu", root / "morph.tsv", *flags,
         "--output", root / name, "--diagnostics", root / f"{name}.json")
    return read_json(root / f"{name}.json")


def last_ablation_step(root: Path, *flags) -> dict:
    out = root / "ablate.json"
    call("ablate", root / "gold.conllu", root / "morph.tsv", *flags, "--output", out)
    return read_json(out)["steps"][-1]


def test_annotate_and_features_write_the_same_bytes(treebank):
    root, _ = treebank
    annotate_report(root, "annotated.conllu")
    call("features", root / "gold.conllu", root / "morph.tsv",
         "--output", root / "features.conllu")
    assert (root / "annotated.conllu").read_bytes() \
        == (root / "features.conllu").read_bytes()


def test_annotated_output_scores_perfectly_against_its_gold(treebank):
    root, _ = treebank
    annotate_report(root, "annotated.conllu")
    call("score", root / "gold.conllu", root / "annotated.conllu",
         "--output", root / "score.json")
    result = read_json(root / "score.json")
    assert result["uas"] == result["las"] == 1.0


def test_last_full_ablation_step_assigns_what_annotate_with_every_rule_does(treebank):
    root, _ = treebank
    step = last_ablation_step(root)
    report = annotate_report(root, "all.conllu", "--rules", ALL_RULES)
    assert sorted(r.lower() for r in step["rules"]) == sorted(ALL_RULES.split(","))
    assert step["assigned"] == report["assigned"] > 0


def test_last_six_step_ablation_step_assigns_what_default_annotate_does(treebank):
    root, _ = treebank
    step = last_ablation_step(root, "--no-av-nv")
    report = annotate_report(root, "default.conllu")
    assert step["assigned"] == report["assigned"] > 0


def test_sigtest_of_a_directory_against_its_copy_gives_p_1_on_the_diagonal(treebank):
    root, gold = treebank
    rng = random.Random(7)
    side_a = root / "runs_a"
    side_a.mkdir(exist_ok=True)
    for k in range(3):
        system = [with_random_tree(rng, s) if rng.random() < 0.3 else s for s in gold]
        (side_a / f"run{k}.conllu").write_text(write_conllu(system), encoding="utf-8")
    shutil.copytree(side_a, root / "runs_b", dirs_exist_ok=True)
    call("sigtest", root / "gold.conllu", side_a, root / "runs_b",
         "--shuffles", 200, "--output", root / "sigtest.json")
    p_values = read_json(root / "sigtest.json")["p_values"]
    assert [row[k] for k, row in enumerate(p_values)] == [1.0] * 3


def test_jsonl_and_conllu_features_carry_the_same_bundles(treebank):
    root, _ = treebank
    for fmt in ("conllu", "jsonl"):
        call("features", root / "gold.conllu", root / "morph.tsv",
             "--hybrid", "rule+last", "--format", fmt,
             "--output", root / f"rule_last.{fmt}")
    sentences = parse_conllu((root / "rule_last.conllu").read_text(encoding="utf-8"))
    from_conllu = [(k, t.id, b.rule_code, b.last_suffix)
                   for k, s in enumerate(sentences, start=1)
                   for t, b in ((t, bundle_from_token(t)) for t in s.tokens)]
    records = [json.loads(line) for line in
               (root / "rule_last.jsonl").read_text(encoding="utf-8").splitlines()]
    from_jsonl = [(r["sentence"], r["token"], r.get("rule"), r.get("last_suffix"))
                  for r in records]
    assert from_jsonl == from_conllu
    assert any(rule not in (None, "NONE") for _, _, rule, _ in from_jsonl)
    assert any(suffix is not None for *_, suffix in from_jsonl)


@pytest.mark.parametrize("seed", range(4))
def test_matrix_output_reads_back_and_writes_the_same_text(tmp_path, seed):
    # Zipf corpora as the benchmark draws them, with tags outside the
    # inventory; a cap below the distinct lemmas.
    corpus, distinct = gen.corpus_text(random.Random(seed), 3000, 60)
    (tmp_path / "corpus.tsv").write_text(corpus, encoding="utf-8")
    call("matrix", tmp_path / "corpus.tsv", "--cap", 10, "--output", tmp_path / "m.tsv")
    text = (tmp_path / "m.tsv").read_text(encoding="utf-8")
    assert distinct > 10 == text.count("\n") - 1
    assert write_matrix(read_matrix(text)) == text


# The commands of the hash-seed check, each run from its own directory so
# that the manifests name the same relative paths whatever the hash seed.
HASH_SEED_COMMANDS = (
    ("annotate", "../gold.conllu", "../morph.tsv", "--rules", ALL_RULES,
     "--output", "annotated.conllu", "--diagnostics", "report.json"),
    ("ablate", "../gold.conllu", "../morph.tsv", "--output", "ablate.json"),
    ("matrix", "../morph.tsv", "--cap", "10", "--output", "matrix.tsv"),
)


def outputs_under_hash_seed(root: Path, seed: int) -> dict:
    """Each file the commands write, run as children under
    ``PYTHONHASHSEED=seed``; a manifest without its ``created`` field."""
    cwd = root / f"hashseed{seed}"
    cwd.mkdir()
    for argv in HASH_SEED_COMMANDS:
        proc = run_child("-m", "ruleparse", *argv, cwd=cwd, PYTHONHASHSEED=str(seed))
        assert proc.returncode == 0, (argv, proc.stderr)
    outputs = {}
    for path in sorted(cwd.iterdir()):
        if path.name.endswith(".manifest.json"):
            manifest = read_json(path)
            del manifest["created"]
            outputs[path.name] = manifest
        else:
            outputs[path.name] = path.read_bytes()
    return outputs


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    gold, _, analyses = random_treebank(random.Random(11), 60)
    (tmp_path / "gold.conllu").write_text(write_conllu(gold), encoding="utf-8")
    (tmp_path / "morph.tsv").write_text(sidecar_text(analyses), encoding="utf-8")
    first = outputs_under_hash_seed(tmp_path, 1)
    assert len(first) == 7  # three outputs, their manifests and the report
    assert outputs_under_hash_seed(tmp_path, 2) == first
