"""End-to-end command line behavior, exit codes, and run manifests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruleparse
from ruleparse import (EngineError, ablation_steps, parse_conllu, read_matrix,
                       write_conllu, write_matrix)
from ruleparse.cli import main

from conftest import DEEP_CHAINS, deep_chain, sidecar_text

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


def run_child(*args):
    """``python *args`` in a child that imports the same package as this
    process, installed or not."""
    source_root = str(Path(ruleparse.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = run_child("-m", "ruleparse", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_cli_import_does_not_load_numpy():
    proc = run_child("-c", "import sys, ruleparse.cli; "
                           "print('numpy' in sys.modules)")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_version_run_does_not_load_numpy():
    # ``-X importtime`` lists every module the run imports on stderr.
    proc = run_child("-X", "importtime", "-m", "ruleparse", "--version")
    assert proc.returncode == 0
    imported = [line.rsplit("|", 1)[-1].strip() for line in
                proc.stderr.splitlines() if line.startswith("import time:")]
    assert "ruleparse.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


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


def test_features_infl_passes_over_proper_noun_marker(tmp_path, capsys):
    # The packaged inventory does not list ``Prop``; strict infl once
    # exited 2 with "unknown morpheme tag: 'Prop'" on any proper noun.
    treebank = tmp_path / "propn.conllu"
    treebank.write_text(
        "1\tAhmet\tAhmet\tPROPN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tgeldi\tgel\tVERB\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
    sidecar = tmp_path / "propn.morph"
    sidecar.write_text("1\t1\tAhmet\tNoun+Prop+A3sg+Nom\n"
                       "1\t2\tgel\tVerb+Past+A3sg\n", encoding="utf-8")
    assert main(["features", str(treebank), str(sidecar),
                 "--hybrid", "infl"]) == 0
    tokens = parse_conllu(capsys.readouterr().out)[0].tokens
    assert tokens[0].misc_dict() == {"InflSuffixes": "A3sg+Nom"}


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


@pytest.mark.parametrize("command", ["matrix", "features"])
def test_manifest_records_the_inventory(corpus, tmp_path, command):
    treebank, sidecar = corpus
    packaged = (Path(ruleparse.__file__).parent / "data"
                / "suffix_inventory.txt").read_text(encoding="utf-8")
    argv = (["matrix", str(sidecar)] if command == "matrix" else
            ["features", str(treebank), str(sidecar), "--hybrid", "infl"])
    for name, text in [("a.tsv", packaged), ("b.tsv", "# a copy\n" + packaged)]:
        inventory = tmp_path / name
        inventory.write_text(text, encoding="utf-8")
        output = tmp_path / (name + ".out")
        assert main(argv + ["--inventory", str(inventory),
                            "--output", str(output)]) == 0
        manifest = json.loads((tmp_path / (name + ".out.manifest.json")).read_text())
        files = ([sidecar] if command == "matrix" else [treebank, sidecar]) \
            + [inventory]
        assert manifest["inputs"] == {str(f): hashlib.sha256(f.read_bytes()).hexdigest()
                                      for f in files}


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity", "1e400",
                                   "-0.25"])
def test_features_rejects_matrix_value_that_is_not_finite_and_non_negative(
        corpus, tmp_path, capsys, value):
    treebank, sidecar = corpus
    matrix_path = tmp_path / "matrix.tsv"
    assert main(["matrix", str(sidecar), "--output", str(matrix_path)]) == 0
    lines = matrix_path.read_text(encoding="utf-8").splitlines()
    cols = lines[1].split("\t")
    cols[2] = value
    lines[1] = "\t".join(cols)
    matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["features", str(treebank), str(sidecar), "--hybrid", "sufvec",
                 "--matrix", str(matrix_path), "--format", "jsonl"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: matrix line 2: value {value!r} is not a finite "
                   "number >= 0\n")


def test_matrix_duplicate_position_exits_2(corpus, tmp_path, capsys):
    _, sidecar = corpus
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "dup.morph"
    bad.write_text("\n".join(lines + ["2\t2\tyağ\tNoun+A3sg+Acc"]) + "\n",
                   encoding="utf-8")
    assert main(["matrix", str(bad), "--output", str(tmp_path / "m.tsv")]) == 2
    assert capsys.readouterr().err == (
        "error: line 10: duplicate entry for sentence 2 token 2\n")
    assert not (tmp_path / "m.tsv").exists()


def test_matrix_rejects_a_token_id_of_2_to_the_32(corpus, tmp_path, capsys):
    _, sidecar = corpus
    bad = tmp_path / "big.morph"
    bad.write_text(sidecar.read_text(encoding="utf-8")
                   + f"3\t{2**32 - 1}\tev\tNoun+A3sg+Nom\n"
                   + f"3\t{2**32}\tev\tNoun+A3sg+Nom\n", encoding="utf-8")
    assert main(["matrix", str(bad), "--output", str(tmp_path / "m.tsv")]) == 2
    assert capsys.readouterr().err == (
        "error: line 11: token id 4294967296 is not below 2**32\n")
    assert not (tmp_path / "m.tsv").exists()


@pytest.mark.parametrize("kind", sorted(DEEP_CHAINS))
def test_deep_late_binding_chain_exits_0(tmp_path, capsys, kind):
    n = 5000
    sentence, analyses = deep_chain(n, kind)
    treebank = tmp_path / "chain.conllu"
    treebank.write_text(write_conllu([sentence]), encoding="utf-8")
    sidecar = tmp_path / "chain.morph"
    sidecar.write_text(sidecar_text({(1, i): a for i, a in analyses.items()}),
                       encoding="utf-8")
    for config in ablation_steps():
        rules = ",".join(sorted(code.value.lower() for code in config.enabled))
        assert main(["annotate", str(treebank), str(sidecar), "--rules", rules,
                     "--output", str(tmp_path / "out.conllu")]) == 0
        report = json.loads(capsys.readouterr().err)
    # The last config has every rule: the whole chain attaches.
    assert report["assigned"] == n
    assert main(["ablate", str(treebank), str(sidecar)]) == 0
    steps = json.loads(capsys.readouterr().out)["steps"]
    assert steps[-1]["assigned"] == n


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


MISSING = "error: sentence 3: token 2 ('ev') has no morphological analysis"


@pytest.mark.parametrize("argv,message", [
    (["annotate"], MISSING),
    (["ablate"], MISSING),
    (["features", "--hybrid", "rule"], MISSING),
    (["features", "--hybrid", "last"], MISSING),
], ids=["annotate", "ablate", "features-rule", "features-last"])
def test_missing_analysis_names_its_sentence(corpus, tmp_path, capsys, argv,
                                             message):
    treebank, _ = corpus
    sidecar = tmp_path / "partial.morph"
    sidecar.write_text("".join(line + "\n" for line in SIDECAR.splitlines()
                               if not line.startswith("3\t2\t")), encoding="utf-8")
    assert main(argv[:1] + [str(treebank), str(sidecar)] + argv[1:]) == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("command,failing", [
    ("annotate", "ruleparse.cli.run"),
    ("features", "ruleparse.cli.run"),
    ("features", "ruleparse.cli.encode"),
    ("ablate", "ruleparse.evaluate.run"),
], ids=["annotate", "features-run", "features-encode", "ablate"])
def test_missing_analysis_wins_over_an_earlier_failure(corpus, tmp_path, capsys,
                                                       monkeypatch, command,
                                                       failing):
    # The sidecar is joined with the treebank before the engine or the
    # encoder runs, so their failure on sentence 1 is never reached.
    treebank, _ = corpus
    sidecar = tmp_path / "partial.morph"
    sidecar.write_text("".join(line + "\n" for line in SIDECAR.splitlines()
                               if not line.startswith("3\t2\t")), encoding="utf-8")

    def explode(*args, **kwargs):
        raise EngineError("rule loop made more than 3 passes")

    monkeypatch.setattr(failing, explode)
    assert main([command, str(treebank), str(sidecar)]) == 2
    assert capsys.readouterr().err == MISSING + "\n"


@pytest.mark.parametrize("text", ["", "# tag\tclass\n", "\n  \n"],
                         ids=["empty", "comment", "blank"])
@pytest.mark.parametrize("command", ["matrix", "features"])
def test_inventory_with_no_entries_exits_2(corpus, tmp_path, capsys, command,
                                           text):
    # An empty inventory once fell back to the packaged one.
    treebank, sidecar = corpus
    inventory = tmp_path / "inventory.tsv"
    inventory.write_text(text, encoding="utf-8")
    output = tmp_path / "out"
    argv = (["matrix", str(sidecar)] if command == "matrix" else
            ["features", str(treebank), str(sidecar), "--hybrid", "infl"])
    assert main(argv + ["--inventory", str(inventory),
                        "--output", str(output)]) == 2
    assert capsys.readouterr().err == "error: invalid suffix inventory: no entries\n"
    assert not output.exists()


@pytest.mark.parametrize("extra,ordinal,token_id", [
    ("1\t9\tev\tNoun+A3sg+Nom", 1, 9),
    ("7\t1\tev\tNoun+A3sg+Nom", 7, 1),
])
@pytest.mark.parametrize("command", ["annotate", "features", "ablate"])
def test_sidecar_line_naming_no_token_exits_2(corpus, tmp_path, capsys, command,
                                              extra, ordinal, token_id):
    treebank, _ = corpus
    sidecar = tmp_path / "extra.morph"
    sidecar.write_text(SIDECAR + extra + "\n", encoding="utf-8")
    output = tmp_path / "out"
    assert main([command, str(treebank), str(sidecar),
                 "--output", str(output)]) == 2
    assert capsys.readouterr().err == (
        f"error: sidecar entry for sentence {ordinal} token {token_id} "
        "names no token of the treebank\n")
    assert not output.exists()


@pytest.mark.parametrize("command", ["annotate", "features", "ablate"])
def test_misaligned_sidecar_wins_over_a_missing_lexicon_dir(corpus, tmp_path,
                                                            capsys, command):
    treebank, _ = corpus
    sidecar = tmp_path / "extra.morph"
    sidecar.write_text(SIDECAR + "7\t1\tev\tNoun+A3sg+Nom\n", encoding="utf-8")
    assert main([command, str(treebank), str(sidecar),
                 "--lexicons", str(tmp_path / "no-such-dir")]) == 2
    assert capsys.readouterr().err == (
        "error: sidecar entry for sentence 7 token 1 names no token of the "
        "treebank\n")


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


@pytest.mark.parametrize("name,value", [
    ("FORMAT", "xml"), ("HYBRID", "zz"), ("METRIC", "xyz"),
])
def test_a_bad_environment_default_fails_as_the_flag_does(tmp_path, capsys,
                                                          monkeypatch, name,
                                                          value):
    # None of the inputs exists: the value is checked before any is read.
    missing = str(tmp_path / "missing")
    command = "sigtest" if name == "METRIC" else "features"
    argv = [command, missing, missing] + ([missing] if command == "sigtest" else [])
    argv += ["--output", str(tmp_path / "out")]
    flag = "--" + name.lower()
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [flag, value])
    assert excinfo.value.code == 2
    from_flag = capsys.readouterr().err
    assert f"error: argument {flag}: invalid choice: {value!r} (choose from " \
        in from_flag
    monkeypatch.setenv("RULEPARSE_" + name, value)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err == from_flag
    # A flag still wins over the environment.
    good = {"FORMAT": "jsonl", "HYBRID": "last", "METRIC": "las"}[name]
    assert main(argv + [flag, good]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2]")
    assert list(tmp_path.iterdir()) == []


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
    # NONE is a rule code (of untouched tokens) but not a rule.
    for flag, name in [("cpi,zzz", "zzz"), ("cpi, None ,nc", "None")]:
        assert main(["annotate", str(treebank), str(sidecar), "--rules", flag]) == 2
        assert capsys.readouterr().err == f"error: unknown rule {name!r}\n"


def test_rule_names_are_read_in_any_case_and_spacing(corpus, capsys):
    treebank, sidecar = corpus
    outputs = []
    for flag in ("CPI,nc", " nc , cpi ,,", "Cpi,NC"):
        assert main(["annotate", str(treebank), str(sidecar), "--rules", flag]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert "# rule-codes" in outputs[0] and "Rule=NC" in outputs[0]


def test_engine_failure_exits_3(corpus, capsys, monkeypatch):
    treebank, sidecar = corpus

    def explode(*args, **kwargs):
        raise EngineError("rule loop made more than 3 passes")

    monkeypatch.setattr("ruleparse.cli.run", explode)
    assert main(["annotate", str(treebank), str(sidecar)]) == 3
    assert "internal error" in capsys.readouterr().err


# -- streamed reads and writes -----------------------------------------------


@pytest.mark.parametrize("existing", [None, "earlier output\n"])
def test_features_missing_analysis_exits_2_and_writes_nothing(
        corpus, tmp_path, capsys, existing):
    treebank, _ = corpus
    sidecar = tmp_path / "partial.morph"
    sidecar.write_text("".join(line + "\n" for line in SIDECAR.splitlines()
                               if not line.startswith("3\t")), encoding="utf-8")
    output = tmp_path / "features.jsonl"
    if existing is not None:
        output.write_text(existing, encoding="utf-8")
    assert main(["features", str(treebank), str(sidecar), "--hybrid", "last",
                 "--format", "jsonl", "--output", str(output)]) == 2
    assert "has no morphological analysis" in capsys.readouterr().err
    if existing is None:
        assert not output.exists()
    else:
        assert output.read_text(encoding="utf-8") == existing
    assert not (tmp_path / "features.jsonl.manifest.json").exists()


@pytest.mark.parametrize("existing", [None, "earlier output\n"])
def test_annotate_unwritable_diagnostics_exits_2_and_writes_nothing(
        corpus, tmp_path, capsys, existing):
    treebank, sidecar = corpus
    output = tmp_path / "out.conllu"
    if existing is not None:
        output.write_text(existing, encoding="utf-8")
    assert main(["annotate", str(treebank), str(sidecar), "--output", str(output),
                 "--diagnostics", str(tmp_path / "nodir" / "d.json")]) == 2
    assert "d.json" in capsys.readouterr().err
    if existing is None:
        assert not output.exists()
    else:
        assert output.read_text(encoding="utf-8") == existing
    assert not (tmp_path / "out.conllu.manifest.json").exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("existing", [None, "earlier report\n"])
def test_annotate_unwritable_output_leaves_the_report_as_it_was(
        corpus, tmp_path, capsys, existing):
    treebank, sidecar = corpus
    report = tmp_path / "d.json"
    if existing is not None:
        report.write_text(existing, encoding="utf-8")
    assert main(["annotate", str(treebank), str(sidecar),
                 "--output", str(tmp_path / "nodir" / "o.conllu"),
                 "--diagnostics", str(report)]) == 2
    assert "o.conllu" in capsys.readouterr().err
    if existing is None:
        assert not report.exists()
    else:
        assert report.read_text(encoding="utf-8") == existing
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["dev.conllu", "dev.morph"] + (["d.json"] if existing else []))


@pytest.mark.parametrize("report", ["o", "./o", "o.manifest.json"])
def test_a_path_named_twice_exits_2_and_writes_nothing(corpus, tmp_path, capsys,
                                                       monkeypatch, report):
    # The second temporary file once replaced the first one's entry, which
    # was then neither moved into place nor removed.
    treebank, sidecar = corpus
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o").write_text("earlier output\n", encoding="utf-8")
    assert main(["annotate", str(treebank), str(sidecar), "--output", "o",
                 "--diagnostics", report]) == 2
    twice = "o.manifest.json" if report.endswith(".json") else "o"
    assert capsys.readouterr().err == f"error: output path {twice} is named twice\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.conllu", "dev.morph",
                                                         "o"]
    assert (tmp_path / "o").read_text(encoding="utf-8") == "earlier output\n"


@pytest.mark.parametrize("directory", ["o", "o.manifest.json", "d.json"])
def test_a_target_that_is_a_directory_exits_2_and_writes_nothing(
        corpus, tmp_path, capsys, monkeypatch, directory):
    treebank, sidecar = corpus
    monkeypatch.chdir(tmp_path)
    files = {"o": "earlier output\n", "d.json": "earlier report\n"}
    files.pop(directory, None)
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / directory).mkdir()
    assert main(["annotate", str(treebank), str(sidecar), "--output", "o",
                 "--diagnostics", "d.json"]) == 2
    assert capsys.readouterr().err == \
        f"error: output path {directory} is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["dev.conllu", "dev.morph", directory, *files])
    for name, text in files.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text
    assert not list((tmp_path / directory).iterdir())


def test_annotate_writes_report_and_output_with_the_usual_mode(corpus, tmp_path):
    treebank, sidecar = corpus
    output, report = tmp_path / "o.conllu", tmp_path / "d.json"
    assert main(["annotate", str(treebank), str(sidecar), "--output", str(output),
                 "--diagnostics", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["tokens"] == 9
    assert "Rule=" in output.read_text(encoding="utf-8")
    umask = os.umask(0)
    os.umask(umask)
    for path in (output, report, tmp_path / "o.conllu.manifest.json"):
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert not list(tmp_path.glob("*.tmp"))


def test_bare_output_names_are_staged_beside_them_not_in_the_temp_dir(
        corpus, tmp_path, monkeypatch):
    # Staged in the temp dir, a bare name could not be moved into place
    # when that dir is another filesystem; here it does not even exist.
    import tempfile
    treebank, sidecar = corpus
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "no-such-dir"))
    assert main(["annotate", str(treebank), str(sidecar), "--output", "o.conllu",
                 "--diagnostics", "d.json"]) == 0
    assert "Rule=" in (tmp_path / "o.conllu").read_text(encoding="utf-8")
    assert json.loads((tmp_path / "d.json").read_text(encoding="utf-8"))
    assert (tmp_path / "o.conllu.manifest.json").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_outputs_are_written_as_the_text_forms_give_them(corpus, tmp_path, capsys):
    treebank, sidecar = corpus
    for argv, name in ((["annotate", str(treebank), str(sidecar)], "a.conllu"),
                       (["features", str(treebank), str(sidecar), "--hybrid",
                         "rule+last", "--format", "jsonl"], "f.jsonl"),
                       (["matrix", str(sidecar)], "m.tsv")):
        assert main(argv) == 0
        to_stdout = capsys.readouterr().out
        assert main(argv + ["--output", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert (tmp_path / name).read_text(encoding="utf-8") == to_stdout
    with open(tmp_path / "m.tsv", encoding="utf-8") as handle:
        assert write_matrix(read_matrix(handle)) == to_stdout


BAD_COLUMNS = "1\tKuru\tkuru\tNOUN\t_\t_\t2\tnmod\t_\n"
BAD_HEAD = "1\tKuru\tkuru\tNOUN\t_\t_\tx\tnmod\t_\t_\n"
TWO_SENTENCES = TREEBANK.split("\n\n", 2)[0] + "\n\n" + \
    TREEBANK.split("\n\n", 2)[1] + "\n\n"


@pytest.mark.parametrize("files_a,files_b,error", [
    # Side A is read before side B ...
    ({"run1.conllu": TREEBANK, "run2.conllu": BAD_COLUMNS},
     {"run1.conllu": BAD_HEAD},
     "error: sentence 1, line 1: expected 10 tab-separated columns, got 9\n"),
    # ... each file in listing order ...
    ({"run1.conllu": BAD_HEAD, "run2.conllu": BAD_COLUMNS},
     {"run1.conllu": TREEBANK},
     "error: sentence 1, line 1: bad head 'x'\n"),
    # ... and each is checked against the gold one as soon as it is read.
    ({"run1.conllu": TWO_SENTENCES}, {"run1.conllu": BAD_HEAD},
     "error: sentence counts differ: gold has 3, system has 2\n"),
    ({"run1.conllu": TREEBANK}, {"run1.conllu": TWO_SENTENCES,
                                 "run2.conllu": BAD_HEAD},
     "error: sentence counts differ: gold has 3, system has 2\n"),
    # Both directories are listed before any system file is read.
    ({"run1.conllu": BAD_HEAD}, {},
     "error: no .conllu files in {b}\n"),
])
def test_sigtest_reports_the_first_bad_file(corpus, tmp_path, capsys,
                                            files_a, files_b, error):
    treebank, _ = corpus
    for side, files in (("a", files_a), ("b", files_b)):
        (tmp_path / side).mkdir()
        for name, text in files.items():
            (tmp_path / side / name).write_text(text, encoding="utf-8")
    output = tmp_path / "sig.json"
    assert main(["sigtest", str(treebank), str(tmp_path / "a"),
                 str(tmp_path / "b"), "--shuffles", "20",
                 "--output", str(output)]) == 2
    assert capsys.readouterr().err == error.format(b=tmp_path / "b")
    assert not output.exists()


def test_undecodable_input_fails_as_a_whole_file_read_does(corpus, tmp_path, capsys):
    treebank, sidecar = corpus
    # A malformed first line, and a byte that is not UTF-8 far beyond the
    # first chunk a streamed read takes.
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"x\n" + "1\t1\tçiçek\tNoun\n".encode("utf-8") * 20000
                    + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as excinfo:
        bad.read_text(encoding="utf-8")
    expected = f"error: {excinfo.value}\n"
    assert "position 340002" in expected
    matrix = tmp_path / "m.tsv"
    assert main(["matrix", str(sidecar), "--output", str(matrix)]) == 0
    for argv in (["matrix", str(bad)],
                 ["features", str(treebank), str(bad)],
                 ["features", str(treebank), str(sidecar), "--hybrid", "sufvec",
                  "--matrix", str(bad)],
                 ["score", str(treebank), str(bad)]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == expected
