"""End-to-end command line behavior, exit codes, and run manifests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruleparse
from ruleparse import EngineError, parse_conllu, read_matrix
from ruleparse.cli import main

TREEBANK = """\
# sent_id = 1
1\tKuru\tkuru\tNOUN\t_\t_\t2\tnmod\t_\t_
2\tyemiş\tyemiş\tNOUN\t_\t_\t3\tobj\t_\t_
3\taldım\tal\tVERB\t_\t_\t0\troot\t_\t_

# sent_id = 2
1\tMakinenin\tmakine\tNOUN\t_\t_\t2\tnmod\t_\t_
2\tyağı\tyağ\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\taktı\tak\tVERB\t_\t_\t0\troot\t_\t_

# sent_id = 3
1\tBu\tbu\tDET\t_\t_\t2\tdet\t_\t_
2\tev\tev\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tgüzeldi\tgüzel\tVERB\t_\t_\t0\troot\t_\t_

"""

SIDECAR = """\
1\t1\tkuru\tNoun+A3sg+Nom
1\t2\tyemiş\tNoun+A3sg+Nom
1\t3\tal\tVerb+Past+A1sg
2\t1\tmakine\tNoun+A3sg+Gen
2\t2\tyağ\tNoun+A3sg+P3sg+Nom
2\t3\tak\tVerb+Past+A3sg
3\t1\tbu\tDet
3\t2\tev\tNoun+A3sg+Nom
3\t3\tgüzel\tVerb+Past+A3sg
"""


@pytest.fixture
def corpus(tmp_path):
    treebank = tmp_path / "dev.conllu"
    treebank.write_text(TREEBANK, encoding="utf-8")
    sidecar = tmp_path / "dev.morph"
    sidecar.write_text(SIDECAR, encoding="utf-8")
    return treebank, sidecar


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_module_entry_point():
    # The child imports the same package as this process, installed or not.
    source_root = str(Path(ruleparse.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ruleparse", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_annotate_emits_rule_codes(corpus, capsys):
    treebank, sidecar = corpus
    assert main(["annotate", str(treebank), str(sidecar)]) == 0
    out, err = capsys.readouterr()
    sentences = parse_conllu(out)
    assert sentences[0].comments[0].startswith("# rule-codes =")
    first = {t.id: t.misc_dict()["Rule"] for t in sentences[0]}
    assert first == {1: "NONE", 2: "NC", 3: "NONE"}
    second = {t.id: t.misc_dict()["Rule"] for t in sentences[1]}
    assert second == {1: "PC", 2: "NONE", 3: "NONE"}
    report = json.loads(err)
    assert report["sentences"] == 3
    assert report["fire_counts"]["NC"] == 1


def test_annotate_diagnostics_file(corpus, tmp_path, capsys):
    treebank, sidecar = corpus
    diag = tmp_path / "diag.json"
    assert main(["annotate", str(treebank), str(sidecar),
                 "--diagnostics", str(diag)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(diag.read_text())
    assert report["tokens"] == 9
    assert report["assigned"] == report["fire_counts"]["NC"] \
        + report["fire_counts"]["PC"]


def test_rules_flag_restricts_rule_set(corpus, capsys):
    treebank, sidecar = corpus
    assert main(["annotate", str(treebank), str(sidecar), "--rules", "cpi"]) == 0
    out, _ = capsys.readouterr()
    codes = {t.misc_dict()["Rule"] for s in parse_conllu(out) for t in s}
    assert codes == {"NONE"}


def test_env_sets_rules_and_flag_wins(corpus, capsys, monkeypatch):
    treebank, sidecar = corpus
    monkeypatch.setenv("RULEPARSE_RULES", "cpi")
    assert main(["annotate", str(treebank), str(sidecar)]) == 0
    out, _ = capsys.readouterr()
    codes = {t.misc_dict()["Rule"] for s in parse_conllu(out) for t in s}
    assert codes == {"NONE"}

    assert main(["annotate", str(treebank), str(sidecar),
                 "--rules", "nc,pc"]) == 0
    out, _ = capsys.readouterr()
    codes = {t.misc_dict()["Rule"] for s in parse_conllu(out) for t in s}
    assert codes == {"NONE", "NC", "PC"}


def test_features_rule_plus_last(corpus, capsys):
    treebank, sidecar = corpus
    assert main(["features", str(treebank), str(sidecar),
                 "--hybrid", "rule+last"]) == 0
    out, _ = capsys.readouterr()
    token = parse_conllu(out)[0].tokens[2]
    assert token.misc_dict() == {"Rule": "NONE", "LastSuffix": "A1sg"}


def test_features_jsonl_and_env_format(corpus, capsys, monkeypatch):
    treebank, sidecar = corpus
    monkeypatch.setenv("RULEPARSE_FORMAT", "jsonl")
    assert main(["features", str(treebank), str(sidecar),
                 "--hybrid", "last"]) == 0
    out, _ = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 9
    assert records[0] == {"sentence": 1, "token": 1, "form": "Kuru",
                          "last_suffix": "Nom"}
    assert all("rule" not in r for r in records)


def test_features_sufvec_requires_matrix(corpus, capsys):
    treebank, sidecar = corpus
    assert main(["features", str(treebank), str(sidecar),
                 "--hybrid", "sufvec"]) == 2
    assert "matrix" in capsys.readouterr().err


def test_matrix_build_manifest_and_sufvec_use(corpus, tmp_path, capsys):
    treebank, sidecar = corpus
    matrix_path = tmp_path / "matrix.tsv"
    assert main(["matrix", str(sidecar), "--output", str(matrix_path)]) == 0
    matrix = read_matrix(matrix_path.read_text())
    assert "makine" in matrix and "yağ" in matrix

    manifest = json.loads((tmp_path / "matrix.tsv.manifest.json").read_text())
    assert manifest["command"] == "matrix"
    assert manifest["version"] == "0.1.0"
    digest = hashlib.sha256(sidecar.read_bytes()).hexdigest()
    assert manifest["inputs"][str(sidecar)] == digest
    assert manifest["config"]["cap"] == 40000

    assert main(["features", str(treebank), str(sidecar),
                 "--hybrid", "sufvec", "--matrix", str(matrix_path)]) == 0
    out, _ = capsys.readouterr()
    vec = parse_conllu(out)[0].tokens[0].misc_dict()["SufVec"]
    assert len(vec.split(",")) == 81


def test_no_manifest_written_for_stdout(corpus, tmp_path, capsys):
    treebank, sidecar = corpus
    assert main(["annotate", str(treebank), str(sidecar)]) == 0
    capsys.readouterr()
    assert not list(tmp_path.glob("*.manifest.json"))


def test_score_reports_attachment(corpus, capsys):
    treebank, _ = corpus
    assert main(["score", str(treebank), str(treebank)]) == 0
    out, _ = capsys.readouterr()
    report = json.loads(out)
    assert report["uas"] == 1.0 and report["las"] == 1.0
    assert report["total"] == 9


def test_sigtest_over_directories(corpus, tmp_path, capsys):
    treebank, _ = corpus
    for side in ("a", "b"):
        d = tmp_path / side
        d.mkdir()
        for name in ("run1.conllu", "run2.conllu"):
            (d / name).write_text(TREEBANK, encoding="utf-8")
    assert main(["sigtest", str(treebank), str(tmp_path / "a"),
                 str(tmp_path / "b"), "--shuffles", "200"]) == 0
    out, _ = capsys.readouterr()
    report = json.loads(out)
    assert report["files_a"] == ["run1.conllu", "run2.conllu"]
    assert report["p_values"] == [[1.0, 1.0], [1.0, 1.0]]
    assert report["harmonic_mean_p"] == 1.0


def test_sigtest_empty_directory_exits_2(corpus, tmp_path, capsys):
    treebank, _ = corpus
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    code = main(["sigtest", str(treebank), str(tmp_path / "a"),
                 str(tmp_path / "b")])
    assert code == 2
    assert "no .conllu files" in capsys.readouterr().err


def test_ablate_emits_cumulative_steps(corpus, capsys):
    treebank, sidecar = corpus
    assert main(["ablate", str(treebank), str(sidecar)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["steps"]) == 8
    coverages = [s["coverage"] for s in report["steps"]]
    assert all(b >= a for a, b in zip(coverages, coverages[1:]))

    assert main(["ablate", str(treebank), str(sidecar), "--no-av-nv"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["steps"]) == 6


def test_ablate_sidecar_missing_a_sentence_exits_2(corpus, tmp_path, capsys):
    treebank, _ = corpus
    sidecar = tmp_path / "partial.morph"
    sidecar.write_text("".join(line + "\n" for line in SIDECAR.splitlines()
                               if not line.startswith("2\t")), encoding="utf-8")
    assert main(["ablate", str(treebank), str(sidecar)]) == 2
    assert "has no morphological analysis" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["annotate", "features", "ablate"])
def test_no_jobs_flag(corpus, capsys, command):
    treebank, sidecar = corpus
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(treebank), str(sidecar), "--jobs", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_bad_seed_env_fails_only_sigtest(corpus, tmp_path, capsys, monkeypatch):
    treebank, _ = corpus
    monkeypatch.setenv("RULEPARSE_SEED", "x")
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert main(["score", str(treebank), str(treebank)]) == 0
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "run.conllu").write_text(TREEBANK, encoding="utf-8")
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["sigtest", str(treebank), str(tmp_path / "a"), str(tmp_path / "b")])
    assert excinfo.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err


def test_missing_input_exits_2(capsys):
    assert main(["score", "/nonexistent/gold.conllu",
                 "/nonexistent/sys.conllu"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_treebank_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tword\tmissing columns\n\n", encoding="utf-8")
    sidecar = tmp_path / "bad.morph"
    sidecar.write_text("1\t1\tword\tNoun\n", encoding="utf-8")
    assert main(["annotate", str(bad), str(sidecar)]) == 2
    assert "expected 10" in capsys.readouterr().err


def test_unknown_rule_exits_2(corpus, capsys):
    treebank, sidecar = corpus
    assert main(["annotate", str(treebank), str(sidecar),
                 "--rules", "cpi,zzz"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_engine_failure_exits_3(corpus, capsys, monkeypatch):
    treebank, sidecar = corpus

    def explode(*args, **kwargs):
        raise EngineError("rule loop exceeded 1000 iterations")

    monkeypatch.setattr("ruleparse.cli.run", explode)
    assert main(["annotate", str(treebank), str(sidecar)]) == 3
    assert "internal error" in capsys.readouterr().err
