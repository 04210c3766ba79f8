"""Pinned output digests of the CLI and the engine on a fixed random treebank.

The rule decisions and the exported bytes are the product: a change to
any digest here is a change in behavior, never an optimization.
"""

import hashlib
import json
import random
from importlib import resources

import pytest

from ruleparse import (ALL_RULES, RuleConfig, ablation_steps,
                       default_lexicon_dir, load_lexicon, run, write_conllu)
from ruleparse.cli import main

from conftest import random_treebank, sidecar_text

ALL_RULES_FLAG = "cpi,nc,pc,ac,aaj,ajc,ajn,av,nv"

EXPECTED = {
    "annotate":
        "26d556bd363737803c3b85b6c567537dba96ce4b3f722842a97f296435f9210d",
    "annotate_diagnostics":
        "8968bdd7e8fda34d8a516c44a5659e17321cdd830b0c1f5e0b2f237bda77e86f",
    "annotate_all_rules":
        "ea0428120dc642156647c941066543c8995019b409bf446426953c85f48e5124",
    "annotate_all_rules_diagnostics":
        "e8fe3959d3d991527fe9920a12ac1a92277afce7204a2365e6af8be2f39a58bb",
    "ablate":
        "a80dba8459c65a2d55051ea9024528c964b1c293d1422fa33f7c6e1605f013f1",
    "engine_assignments_per_config":
        "b70b8429b56eee6d2a75ebb845034473fb8ab73236886e37337a09e5463c2a2d",
    "annotate_manifest":
        "ee67847eff648e548ba55035abc8fc2c487eea0711bcb413c6df2febbf88c67d",
    "annotate_all_rules_manifest":
        "09807b9ff906ca5fba389048b84fcb1913f955257b1fa9bc3313be2fe4606f7d",
    "features_rule_last":
        "58443dd0438463dda8eb9af4235a284e333d681543b37955fc07518913ab3664",
    "features_rule_last_manifest":
        "66c1795f0d1c9a0f27978fdc7bf6171ce751fd1d0ddcb97f006ee47c9266c54f",
    "features_infl_jsonl":
        "64c437fa045b0075da173ec37870f80aec32e56bd1540a293a39472d628c3eb5",
    "features_infl_jsonl_manifest":
        "45832b8f43b137f1fad10430b25efe49cc584fc51c9caf678f4c389b3fca1d19",
}


def engine_assignments_digest(gold, analyses) -> str:
    """sha256 over every sentence's ordered ``(dependent, head, code)``
    list, under each ablation step and under all nine rules."""
    lexicon = load_lexicon(default_lexicon_dir())
    configs = ablation_steps() + [RuleConfig(enabled=ALL_RULES)]
    digest = hashlib.sha256()
    for config in configs:
        digest.update(("config " + ",".join(sorted(config.enabled)) + "\n").encode())
        for ordinal, sentence in enumerate(gold, start=1):
            sent_analyses = {token.id: analyses[(ordinal, token.id)]
                             for token in sentence.tokens}
            for a in run(sentence, sent_analyses, lexicon, config):
                digest.update(f"{a.dependent}\t{a.head}\t{a.code}\n".encode())
            digest.update(b"\n")
    return digest.hexdigest()


def manifest_digest(path) -> str:
    """sha256 of a manifest's ``command``, ``config`` and ``version``,
    with the packaged lexicon directory written as ``<lexicons>`` so the
    digest holds in any checkout."""
    manifest = json.loads(path.read_text(encoding="utf-8"))
    pinned = {key: manifest[key] for key in ("command", "config", "version")}
    text = json.dumps(pinned, sort_keys=True).replace(
        json.dumps(str(default_lexicon_dir()))[1:-1], "<lexicons>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    gold, _, analyses = random_treebank(random.Random(7), 300)
    treebank = work / "gold.conllu"
    treebank.write_text(write_conllu(gold), encoding="utf-8")
    sidecar = work / "gold.morph"
    sidecar.write_text(sidecar_text(analyses), encoding="utf-8")
    # The strict infl mode rejects tags outside the inventory, and the
    # proper nouns carry ``Prop``.
    inventory = work / "inventory.tsv"
    inventory.write_text(
        resources.files("ruleparse").joinpath("data/suffix_inventory.txt")
        .read_text(encoding="utf-8") + "Prop\tderivational\n", encoding="utf-8")
    calls = {
        "annotate": ["annotate", str(treebank), str(sidecar)],
        "annotate_all_rules": ["annotate", str(treebank), str(sidecar),
                               "--rules", ALL_RULES_FLAG],
        "ablate": ["ablate", str(treebank), str(sidecar)],
        "features_rule_last": ["features", str(treebank), str(sidecar),
                               "--hybrid", "rule+last"],
        "features_infl_jsonl": ["features", str(treebank), str(sidecar),
                                "--hybrid", "infl", "--format", "jsonl",
                                "--inventory", str(inventory)],
    }
    digests = {"engine_assignments_per_config":
               engine_assignments_digest(gold, analyses)}
    for name, argv in calls.items():
        out = work / f"{name}.out"
        extra = ["--output", str(out)]
        if argv[0] == "annotate":
            extra += ["--diagnostics", str(work / f"{name}_diagnostics.json")]
        assert main(argv + extra) == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
        if argv[0] in ("annotate", "features"):
            digests[f"{name}_manifest"] = manifest_digest(
                out.with_name(out.name + ".manifest.json"))
        if argv[0] == "annotate":
            diagnostics = (work / f"{name}_diagnostics.json").read_bytes()
            digests[f"{name}_diagnostics"] = hashlib.sha256(diagnostics).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_digest_is_pinned(outputs, name):
    assert outputs[name] == EXPECTED[name]
