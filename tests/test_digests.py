"""Frozen output digests for clean, build-thinker --masks, build-talker and stats.

Criterion 9 only compares runs with each other, so a change that alters the
bytes the same way on every run would still pass it. These pins do not move
unless the output format changes on purpose.
"""
import hashlib
import re

import pytest

from seqforge.cli import run

import synthetic
from conftest import write_corpus

FLAG_KINDS = (None, "clean", "logic_contradiction_correctable", "logic_contradiction_severe")

# Manifests minus their leading "command" field (it records the command line).
EXPECTED = {
    "cleaned.jsonl":
        "26c618724a64c6da4d15ea653dfdb6498dbfcbbcf9a1b0fdf3a85ded14625b2f",
    "cleaned.jsonl.outcomes.jsonl":
        "445c095542ed7883a5726d90793ab4744e516a4bc0003ff23a3a31d0c0396d8e",
    "cleaned.jsonl.deferred.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "cleaned.jsonl.manifest.json":
        "0476be305ca8c0943582b4975253be2149d5b5c1dfe2282ec074d3f0c69e86c6",
    "thinker.jsonl:header":
        "97ca7b57f9fca2ac8695c97a7afc2c1bc13acd3e5e48f2f35deafc40f9a58749",
    "thinker.jsonl:body":
        "3671e8570c85a92eef5ae047db8066e1ff6fb0477ce6c6482bbb3bf7ef1912e1",
    "thinker.jsonl.manifest.json":
        "bcf9d8f1eefba31f9713ff00fe4f7efdbe896306ad0e1a2c75011c8acb843733",
    "talker.jsonl:header":
        "d2015dfe1d35191c1992dde4394c1a61a922cd72ff03872f030c71d2819509e2",
    "talker.jsonl:body":
        "68bce4ab748b3fb49e5c0a441fbb33a41139deeb3f306afc6c24c7bbd906cdcd",
    "talker.jsonl.manifest.json":
        "5d56a005af264ecab6dcf96648e61a87e906ef37c8a112dc0b620b4a5ed58205",
    "stats.json":
        "f3c7f3f7f248b88786d359afa710f9cbd7894aad2bc465fe061c95173e859b07",
    "stats.json.manifest.json":
        "27b806cf6f60bd395ad0e6a24a970c64c65ae6c3689714b8073d63e083afac3b",
}

_COMMAND = re.compile(rb'^\{"command":"(?:[^"\\]|\\.)*",')


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_command(manifest: bytes) -> bytes:
    stripped, n = _COMMAND.subn(b"{", manifest)
    assert n == 1, manifest[:80]
    return stripped


def _write_corpus() -> None:
    dialogues = synthetic.synth_corpus(16, 21, n_turns=4, segments_per_assistant=3,
                                       speaker_pool=2)
    for k, d in enumerate(dialogues):
        kind = FLAG_KINDS[k % len(FLAG_KINDS)]
        d.quality_flags = synthetic.synth_dialogue(
            21, k, n_turns=4, segments_per_assistant=3, speaker_pool=2,
            flag_kind=kind).quality_flags
    # A voice pair found nowhere else: build-talker skips this dialogue.
    for t in dialogues[-1].turns:
        t.speaker_id = f"solo_{t.role}"
    write_corpus(dialogues, "corpus.jsonl")


def _digests(jobs: str) -> dict[str, str]:
    _write_corpus()
    assert run(["clean", "--corpus", "corpus.jsonl", "--client", "mock", "--seed", "5",
                "--out", "cleaned.jsonl", "--jobs", jobs]) == 0
    assert run(["build-thinker", "--corpus", "cleaned.jsonl", "--seed", "5",
                "--masks", "cleaned.jsonl.outcomes.jsonl",
                "--out", "thinker.jsonl", "--jobs", jobs]) == 0
    assert run(["build-talker", "--corpus", "corpus.jsonl", "--seed", "5",
                "--mode", "dialogue", "--ratio", "5:15",
                "--out", "talker.jsonl", "--jobs", jobs]) == 0
    assert run(["stats", "--corpus", "corpus.jsonl", "--out", "stats.json"]) == 0
    digests = {}
    for name in EXPECTED:
        path, _, part = name.partition(":")
        with open(path, "rb") as fh:
            data = fh.read()
        if part:
            header, body = data.split(b"\n", 1)
            data = _without_command(header) if part == "header" else body
        elif path.endswith(".manifest.json"):
            data = _without_command(data)
        digests[name] = _sha(data)
    return digests


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_outputs_match_frozen_digests(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.chdir(tmp_path)
    assert _digests(jobs) == EXPECTED
    out = capsys.readouterr().out
    assert "(1 skipped)" in out and "(0 deferred)" in out
