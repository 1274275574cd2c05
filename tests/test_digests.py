"""Frozen output digests for clean, build-thinker --masks, build-talker and stats.

Criterion 9 only compares runs with each other, so a change that alters the
bytes the same way on every run would still pass it. These pins do not move
unless the output format changes on purpose.
"""
import ast
import hashlib
import re
from pathlib import Path

import pytest

import seqforge
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
        "3b5a98ffe3cdd3c625f9ae53c4efaeca7e59c2e2794bae4f1e8769e9903be704",
    "thinker.jsonl:header":
        "f743762b37fc1c359814e4e6cf923bcd4620b9eccab37ecfab87faca8281fcf0",
    "thinker.jsonl:body":
        "3671e8570c85a92eef5ae047db8066e1ff6fb0477ce6c6482bbb3bf7ef1912e1",
    "thinker.jsonl.manifest.json":
        "0608ac2f8016de762cd7ced70a5e8724a43d4f07de737f91a228d05c0b95daec",
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
    assert run(["clean", "--corpus", "corpus.jsonl", "--client", "mock",
                "--out", "cleaned.jsonl", "--jobs", jobs]) == 0
    assert run(["build-thinker", "--corpus", "cleaned.jsonl", "--seed", "5",
                "--masks", "cleaned.jsonl.outcomes.jsonl",
                "--out", "thinker.jsonl", "--jobs", jobs]) == 0
    assert run(["build-talker", "--corpus", "corpus.jsonl", "--seed", "5",
                "--mode", "dialogue", "--ratio", "5:15",
                "--out", "talker.jsonl", "--jobs", jobs]) == 0
    assert run(["stats", "--corpus", "corpus.jsonl", "--out", "stats.json"]) == 0
    return _file_digests(EXPECTED)


def _file_digests(names) -> dict[str, str]:
    """sha256 of each named file, "path:header" or "path:body" of a sequence
    file, manifests without their command."""
    digests = {}
    for name in names:
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


# build-talker bodies per mode and ratio. Each corpus holds non-BMP and CJK
# text, an empty text and a voice found nowhere else (a skipped dialogue); the
# dialogue corpus also has text-only user turns.
TALKER_EXPECTED = {
    ("dialogue", "1:1"):
        "052767b516143a8bd7b4b065d983b3077b83f6444fdf6e10f1cb1829b6c0a7de",
    ("dialogue", "7:2"):
        "046b6faa141dfc62d8ff4d24fa4e325697a80a15bfebb28f18920dbc5f6b07ac",
    ("long_text", "3:4"):
        "fc030d4faeb7bde8247732ac27c83aa517b1e1f500194f0fbb0b11df0dcd5b77",
    ("standard_sentence", "2:5"):
        "f319aaf95971ce5ebdd7beddaf8642b833afcf33978f06b86391d5f162c8c330",
}


def _talker_corpus(mode: str) -> None:
    if mode == "dialogue":
        dialogues = synthetic.synth_corpus(12, 33, n_turns=4, speaker_pool=2)
        dialogues[0].turns[1].text = "🎵 早上好 𝄞 \"q\" \\ ok"
        dialogues[1].turns[3].text = ""
        for k in (2, 5):
            user = dialogues[k].turns[0]
            user.text, user.audio, user.alignment = "用户 🙂 text only", None, []
    else:
        n_turns = 3 if mode == "long_text" else 1
        dialogues = synthetic.synth_corpus(10, 34, n_turns=n_turns)
        for k, d in enumerate(dialogues):
            for t in d.turns:
                t.speaker_id = f"voice{k % 3}"
        dialogues[0].turns[-1].text = "🎵 早上好 𝄞 \"q\" \\ ok"
        dialogues[1].turns[0].text = ""
    for t in dialogues[-1].turns:
        t.speaker_id = f"solo_{t.role}"
    write_corpus(dialogues, "corpus.jsonl")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("mode, ratio", list(TALKER_EXPECTED))
def test_talker_bodies_match_frozen_digests(tmp_path, monkeypatch, capsys, mode, ratio, jobs):
    monkeypatch.chdir(tmp_path)
    _talker_corpus(mode)
    assert run(["build-talker", "--corpus", "corpus.jsonl", "--seed", "9", "--mode", mode,
                "--ratio", ratio, "--out", "talker.jsonl", "--jobs", jobs]) == 0
    assert "(1 skipped)" in capsys.readouterr().out
    body = (tmp_path / "talker.jsonl").read_bytes().split(b"\n", 1)[1]
    assert _sha(body) == TALKER_EXPECTED[mode, ratio]


# clean and build-thinker --masks on a corpus with captions and non-ASCII turn
# text, including correctable and missing_context flags, so the outcomes carry
# provenance digests of CJK and emoji requests.
CAPTION_EXPECTED = {
    "cleaned.jsonl":
        "afbaab3cd81f89724fb1b1a6499433033d8216121c81ce16d53fdf5c02e30ba6",
    "cleaned.jsonl.outcomes.jsonl":
        "6e36695d9239c98054d4cbede35df24062f1e0f63877e47f999abe18e8418dfb",
    "cleaned.jsonl.manifest.json":
        "067834a981a7ec68045a7664d436c3b1ff7fcd293b26fcbe4abd5eae480fb2a5",
    "thinker.jsonl:header":
        "445cd206e4c529624abccff9c80373c89bf0bae37a9182f77eb4c0874742dfd6",
    "thinker.jsonl:body":
        "f8a8386749f7322bfadc6aecf4b294f20e211502c97971174c5ce77fc5ea7657",
    "thinker.jsonl.manifest.json":
        "b7c483c64d5fade98896c005019ef3f0babb204ba5a751be8f1cd88f1841f011",
}

_CAPTION_KINDS = (None, "logic_contradiction_correctable", "missing_context",
                  "logic_contradiction_severe")


def _caption_corpus() -> None:
    dialogues = []
    for k in range(12):
        kind = _CAPTION_KINDS[k % len(_CAPTION_KINDS)]
        d = synthetic.synth_dialogue(41, k, n_turns=4, segments_per_assistant=3,
                                     speaker_pool=2, with_captions=True, flag_kind=kind,
                                     truncate_first_turn=kind == "missing_context")
        for t in d.turns:  # same length, so alignment spans and flag spans still fit
            t.text = "早🎵" + t.text[2:] if k % 2 else t.text[:-2] + "😀好"
        dialogues.append(d)
    write_corpus(dialogues, "corpus.jsonl")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_caption_outputs_match_frozen_digests(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.chdir(tmp_path)
    _caption_corpus()
    assert run(["clean", "--corpus", "corpus.jsonl", "--client", "mock",
                "--out", "cleaned.jsonl", "--jobs", jobs]) == 0
    assert run(["build-thinker", "--corpus", "cleaned.jsonl", "--seed", "3",
                "--masks", "cleaned.jsonl.outcomes.jsonl",
                "--out", "thinker.jsonl", "--jobs", jobs]) == 0
    assert "(0 deferred)" in capsys.readouterr().out
    outcomes = (tmp_path / "cleaned.jsonl.outcomes.jsonl").read_text(encoding="utf-8")
    assert '"request":' in outcomes and '"op":"backfill"' in outcomes
    assert _file_digests(CAPTION_EXPECTED) == CAPTION_EXPECTED


def test_only_manifest_sets_the_json_encoding():
    """Canonical JSON is defined once, in seqforge.manifest: no other module
    passes separators= or sort_keys= to json.dumps, json.dump or JSONEncoder."""
    offenders = []
    for path in sorted(Path(seqforge.__file__).parent.glob("*.py")):
        if path.name == "manifest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("dumps", "dump", "JSONEncoder") and any(
                        k.arg in ("separators", "sort_keys") for k in node.keywords):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
