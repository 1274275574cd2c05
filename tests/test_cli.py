"""CLI wiring: exit codes, manifests, determinism, integration paths."""
import argparse
import ast
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from seqforge import cli, driver
from seqforge import corpus as corpus_mod
from seqforge.cli import run
from seqforge.manifest import file_digest
from seqforge.reporting import NotUtf8Error, read_lines

import conftest
import synthetic
from conftest import make_dialogue


def write_corpus(tmp_path, dialogues, name="corpus.jsonl"):
    path = tmp_path / name
    conftest.write_corpus(dialogues, path)
    return path


def test_unknown_subcommand_exits_2(capsys):
    assert run(["nonsense"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert run(["validate"]) == 2


def test_validate_clean_corpus_exit_0(tmp_path, capsys):
    path = write_corpus(tmp_path, synthetic.synth_corpus(3, 1))
    assert run(["validate", "--corpus", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dialogues"] == 3 and not doc["violations"]


def test_validate_bad_corpus_exit_1(tmp_path, capsys):
    d = make_dialogue("d")
    d.turns[0].role = "assistant"  # breaks alternation
    path = write_corpus(tmp_path, [d])
    assert run(["validate", "--corpus", str(path)]) == 1


def test_validate_reject_lines_exit_1(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "x"}\n', encoding="utf-8")
    assert run(["validate", "--corpus", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["rejects"][0]["line"] == 1


@pytest.mark.parametrize("blank", ["\f", "\u3000", " \u00a0 "], ids=["ff", "u3000", "nbsp"])
def test_a_line_of_non_json_whitespace_is_a_reject(tmp_path, capsys, blank):
    """Only JSON's whitespace makes a line blank; before, str.strip() dropped
    a line of any Unicode whitespace without a reject."""
    lines = list(map(corpus_mod.serialize_dialogue, synthetic.synth_corpus(2, 3)))
    path = tmp_path / "corpus.jsonl"
    path.write_text(f"{lines[0]}\n{blank}\n \t\r\n{lines[1]}\n", encoding="utf-8")
    assert run(["validate", "--corpus", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["dialogues"] == 2
    assert report["rejects"] == [{"line": 2, "reason": "invalid JSON: Expecting value"}]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("head, tail, reason", [
    ("\x1c", "", "invalid JSON: Expecting value"),
    ("", "\x85", "invalid JSON: Extra data"),
    ("\u2028", "\u3000", "invalid JSON: Expecting value"),
], ids=["leading-x1c", "trailing-x85", "u2028-u3000"])
def test_non_json_whitespace_around_a_line_is_a_reject(tmp_path, capsys, monkeypatch, head,
                                                       tail, reason, jobs):
    """json.loads refuses these lines; before, str.strip() cut the characters
    off and the line was kept."""
    monkeypatch.setenv("FORGE_JOBS", jobs)
    lines = list(map(corpus_mod.serialize_dialogue, synthetic.synth_corpus(3, 3)))
    lines[1] = head + lines[1] + tail
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["validate", "--corpus", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["rejects"] == [{"line": 2, "reason": reason}]
    out = tmp_path / "o.jsonl"
    assert run(["build-thinker", "--seed", "1", "--corpus", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"reject line 2: {reason}\n"
    assert not list(tmp_path.glob("o.jsonl*"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_corpus_line_ends_at_lf_only(tmp_path, capsys, monkeypatch, jobs):
    """A lone CR between two members is JSON whitespace inside its line, as in
    JSON Lines; before, a line also ended at a lone CR, which cut a valid
    line in two and moved every later line number."""
    monkeypatch.setenv("FORGE_JOBS", jobs)
    lines = list(map(corpus_mod.serialize_dialogue, synthetic.synth_corpus(2, 3)))
    with_cr = [lines[0].replace(',"', ',\r"', 1), lines[1]]
    assert with_cr[0] != lines[0]
    bodies = []
    for name, text in (("lf", lines), ("cr", with_cr)):
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes("\n".join(text).encode("utf-8") + b"\n")
        assert run(["validate", "--corpus", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["dialogues"] == 2
        out = tmp_path / f"{name}.out.jsonl"
        assert run(["build-thinker", "--seed", "1", "--corpus", str(path),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        bodies.append(out.read_text(encoding="utf-8").split("\n", 1)[1])
    assert bodies[0] == bodies[1]
    broken = tmp_path / "broken.jsonl"
    broken.write_bytes("\n".join([with_cr[0], lines[1], "{not json"]).encode("utf-8") + b"\n")
    assert run(["validate", "--corpus", str(broken)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["dialogues"] == 2
    reason = "invalid JSON: Expecting property name enclosed in double quotes"
    assert report["rejects"] == [{"line": 3, "reason": reason}]
    out = tmp_path / "o.jsonl"
    assert run(["build-thinker", "--seed", "1", "--corpus", str(broken), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"reject line 3: {reason}\n"


def test_build_thinker_writes_manifest_and_sequences(tmp_path, capsys):
    path = write_corpus(tmp_path, synthetic.synth_corpus(4, 2))
    out = tmp_path / "thinker.jsonl"
    assert run(["build-thinker", "--corpus", str(path), "--seed", "7",
                "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["master_seed"] == 7
    assert header["counts"]["sequences"] == 4
    assert len(lines) == 5
    assert (tmp_path / "thinker.jsonl.manifest.json").exists()


def test_build_thinker_deterministic_across_runs_and_jobs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path, synthetic.synth_corpus(30, 5, n_turns=4))
    outputs = []
    for name, jobs in (("a.jsonl", "1"), ("b.jsonl", "1"), ("c.jsonl", "2")):
        assert run(["build-thinker", "--corpus", "corpus.jsonl", "--seed", "9",
                    "--out", name, "--jobs", jobs]) == 0
        outputs.append((tmp_path / name).read_bytes().replace(name.encode(), b"OUT"))
    assert outputs[0] == outputs[1] == outputs[2]


def test_build_talker_runs_and_skips_singletons(tmp_path, capsys):
    dialogues = synthetic.synth_corpus(6, 3)
    for d in dialogues:
        for t in d.turns:
            t.speaker_id = "u" if t.role == "user" else "a"
    path = write_corpus(tmp_path, dialogues)
    out = tmp_path / "talker.jsonl"
    assert run(["build-talker", "--corpus", str(path), "--seed", "3",
                "--mode", "dialogue", "--ratio", "5:15", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["counts"]["sequences"] == 6
    assert header["config"]["ratio"] == "5:15"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_build_talker_dialogue_without_turns_exits_1(tmp_path, capsys, jobs):
    dialogues = synthetic.synth_corpus(4, 3)
    for d in dialogues:
        for t in d.turns:
            t.speaker_id = "u" if t.role == "user" else "a"
    dialogues.insert(2, corpus_mod.Dialogue(id="empty", turns=[]))
    path = write_corpus(tmp_path, dialogues)
    out = tmp_path / "talker.jsonl"
    assert run(["build-talker", "--corpus", str(path), "--seed", "3", "--mode", "dialogue",
                "--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == "assemble error: dialogue 'empty' has no turns\n"
    assert not list(tmp_path.glob("talker.jsonl*"))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("mode, n_turns, turn, message", [
    ("dialogue", 2, 1, "assistant turn 1 has no audio"),
    ("long_text", 3, 2, "long_text turn 2 has no audio"),
    ("standard_sentence", 1, 0, "standard_sentence utterance has no audio"),
])
def test_build_talker_turn_without_audio_exits_1(tmp_path, capsys, mode, n_turns, turn,
                                                 message, jobs):
    dialogues = synthetic.synth_corpus(4, 3, n_turns=n_turns)
    for d in dialogues:
        for t in d.turns:
            t.speaker_id = "a" if mode == "dialogue" and t.role == "assistant" else "u"
    dialogues[2].turns[turn].audio = None
    dialogues[2].turns[turn].alignment = []
    path = write_corpus(tmp_path, dialogues)
    out = tmp_path / "talker.jsonl"
    assert run(["build-talker", "--corpus", str(path), "--seed", "3", "--mode", mode,
                "--out", str(out), "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"assemble error: {message}\n"
    assert not list(tmp_path.glob("talker.jsonl*"))


def test_clean_mock_writes_outcomes_and_deferred(tmp_path):
    dialogues = [
        synthetic.synth_dialogue(1, 0, flag_kind="clean"),
        synthetic.synth_dialogue(1, 1, flag_kind="logic_contradiction_severe"),
        synthetic.synth_dialogue(1, 2, flag_kind="logic_contradiction_correctable"),
    ]
    path = write_corpus(tmp_path, dialogues)
    out = tmp_path / "cleaned.jsonl"
    assert run(["clean", "--corpus", str(path), "--client", "mock",
                "--out", str(out)]) == 0
    cleaned = [corpus_mod.parse_line(*task) for task in corpus_mod.iter_lines(out)]
    assert [d.id for d in cleaned] == [d.id for d in dialogues]
    outcomes = [json.loads(line) for line in
                (tmp_path / "cleaned.jsonl.outcomes.jsonl").read_text().splitlines()]
    assert [o["branch"] for o in outcomes] == [
        "passthrough", "information_preservation", "logic_correction"]
    assert (tmp_path / "cleaned.jsonl.deferred.jsonl").read_text() == ""


def test_masks_flow_from_clean_into_build_thinker(tmp_path):
    dialogues = [synthetic.synth_dialogue(1, 1, flag_kind="logic_contradiction_severe",
                                          segments_per_assistant=3)]
    path = write_corpus(tmp_path, dialogues)
    cleaned = tmp_path / "cleaned.jsonl"
    assert run(["clean", "--corpus", str(path), "--out", str(cleaned)]) == 0
    built = tmp_path / "thinker.jsonl"
    assert run(["build-thinker", "--corpus", str(cleaned), "--seed", "1",
                "--p-user", "0.0", "--p-assistant", "0.0",
                "--masks", str(cleaned) + ".outcomes.jsonl",
                "--out", str(built)]) == 0
    record = json.loads(built.read_text().splitlines()[1])
    masked = [e for e in record["elements"] if not e["loss_target"]
              and e["role"] == "assistant"]
    assert masked, "masked segment should lose its loss target"


def test_manifest_records_the_masks_file_digest(tmp_path):
    """Two masks files at one path give build-thinker manifests with different
    input_digests; before, they held the corpus's digest alone."""
    path = write_corpus(tmp_path, synthetic.synth_corpus(2, 1))
    masks = tmp_path / "masks.jsonl"
    out = tmp_path / "thinker.jsonl"
    digests = []
    for spans in ([], [[0, [0, 1]]]):
        masks.write_text(json.dumps({"dialogue_id": "d0", "masked_spans": spans}) + "\n",
                         encoding="utf-8")
        assert run(["build-thinker", "--corpus", str(path), "--seed", "1",
                    "--masks", str(masks), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "thinker.jsonl.manifest.json").read_text())
        assert list(manifest["input_digests"]) == [str(path), str(masks)]
        assert manifest["input_digests"][str(masks)] == hashlib.sha256(
            masks.read_bytes()).hexdigest()
        digests.append(manifest["input_digests"])
    assert digests[0][str(path)] == digests[1][str(path)]
    assert digests[0] != digests[1]


@pytest.mark.parametrize("newline, inside", [("\r\n", ""), ("\n", "\r")],
                         ids=["crlf", "lone-cr"])
def test_a_masks_line_ends_at_lf_only(tmp_path, newline, inside):
    """A CRLF --masks file loads the masks of its LF form, and a lone CR is
    JSON whitespace inside its line; before, a lone CR ended a line too."""
    outcomes = ['{"dialogue_id": "d0",%s"masked_spans": [[0, [0, 1]]]}' % inside,
                '{"dialogue_id": "d1",%s"masked_spans": [[1, [2, 5]], [3, [0, 4]]]}' % inside]
    lf = tmp_path / "lf.jsonl"
    lf.write_bytes("\n".join(outcomes).replace("\r", "").encode("utf-8") + b"\n")
    other = tmp_path / "other.jsonl"
    other.write_bytes(newline.join(outcomes).encode("utf-8") + newline.encode("utf-8"))
    expected = cli._load_masks(lf)
    assert list(expected) == ["d0", "d1"]
    assert cli._load_masks(other) == expected


def test_plan_show_and_directive(tmp_path, capsys):
    assert run(["plan", "show"]) == 0
    capsys.readouterr()
    assert run(["plan", "directive", "--stage", "s1", "--step", "300",
                "--total", "1000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trainable"] == ["audio_adapter"]
    assert doc["lr"] == 4e-5


def test_stats_feeds_plan_budget_without_transformation(tmp_path, capsys):
    dialogues = synthetic.synth_corpus(2, 4, n_turns=1)
    # 10 s of audio per dialogue: 125 tokens at 12.5 Hz
    for d in dialogues:
        d.turns[0].audio.token_ids = list(range(125))
        d.turns[0].audio.duration_s = 10.0
        d.turns[0].alignment = [corpus_mod.AlignmentSpan(
            (0, len(d.turns[0].text)), (0, 125), 0)]
    path = write_corpus(tmp_path, dialogues)
    stats_out = tmp_path / "stats.json"
    assert run(["stats", "--corpus", str(path), "--out", str(stats_out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_hours"] == pytest.approx(20 / 3600)
    assert doc["total_tokens_at_12p5hz"] == 250
    assert run(["plan", "budget", "--stats", str(stats_out)]) == 1  # desk-scale corpus fails budgets
    rows = json.loads(capsys.readouterr().out)
    assert any(r["status"] == "fail" for r in rows)
    assert any(r["status"] == "missing" for r in rows)


def test_plan_budget_reports_a_token_budget_given_in_samples(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    stats.write_text('{"speech": {"amount": 5, "unit": "samples"}}', encoding="utf-8")
    assert run(["plan", "budget", "--stats", str(stats)]) == 0
    row = {"declared_tokens": 14400000000.0, "derived_tokens": None, "relative_error": None}
    missing = [("s2_alignment_cpt", "text", 144000000000.0),
               ("s2_alignment_cpt", "audio", 144000000000.0),
               ("s3_instruction_ft", "instruction_text", 12800000000.0),
               ("talker_training", "talker_speech", 121950000000.0)]
    expected = [{"stage_id": "s1_general_audio", "data_class": "speech", **row,
                 "status": "unit_mismatch"}]
    expected += [{"stage_id": stage, "data_class": cls, **row, "declared_tokens": tokens,
                  "status": "missing"} for stage, cls, tokens in missing]
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_loss_check_cli(capsys):
    assert run(["loss-check", "--cases", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_eval_cer_and_only_yes(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("hello world\ngood day\n", encoding="utf-8")
    hyp.write_text("hello word\ngood day\n", encoding="utf-8")
    assert run(["eval", "wer", "--ref", str(ref), "--hyp", str(hyp)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["errors"] == 1 and doc["reference_length"] == 4
    responses = tmp_path / "resp.txt"
    responses.write_text("yes\nYes.\nno\nyes!\n", encoding="utf-8")
    assert run(["eval", "only-yes", "--responses", str(responses)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"] == 3 and doc["accuracy"] == pytest.approx(0.75)


EVAL_REF = "Hello, world!\nthe cat sat\n\n今天天气很好。\n?!\n"
EVAL_HYP = "hello word\nthe cat sat on\nextra\n今天天汽好\n\n"


@pytest.mark.parametrize("argv,expected", [
    (["eval", "cer"], {"metric": "cer", "utterances": 5, "errors": 11,
                       "reference_length": 28, "rate": 0.39285714285714285}),
    (["eval", "wer"], {"metric": "wer", "utterances": 5, "errors": 4,
                       "reference_length": 6, "rate": 0.6666666666666666}),
    (["eval", "wer", "--lang", "zh"], {"metric": "wer", "utterances": 5, "errors": 10,
                                       "reference_length": 25, "rate": 0.4}),
    (["eval", "cer", "--raw"], {"metric": "cer", "utterances": 5, "errors": 17,
                                "reference_length": 33, "rate": 0.5151515151515151}),
])
def test_eval_error_rate_stdout_is_pinned(tmp_path, capsys, argv, expected):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text(EVAL_REF, encoding="utf-8")
    hyp.write_text(EVAL_HYP, encoding="utf-8")
    assert run(argv + ["--ref", str(ref), "--hyp", str(hyp)]) == 0
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


def test_an_eval_line_holding_a_lone_cr_is_one_line(tmp_path, capsys):
    """Before, a lone CR ended a line too: ref had 3 lines but hyp 2."""
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_bytes(b"a\rb\nc\n")
    hyp.write_bytes(b"ab\nc\n")
    assert run(["eval", "cer", "--raw", "--ref", str(ref), "--hyp", str(hyp)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["utterances"] == 2 and doc["errors"] == 1 and doc["reference_length"] == 4


@pytest.mark.parametrize("metric", ["cer", "wer"])
def test_crlf_eval_files_score_as_lf_files(tmp_path, capsys, metric):
    """The CR of a CRLF line ending is not part of the line's text."""
    reports = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        ref = tmp_path / f"{name}.ref.txt"
        hyp = tmp_path / f"{name}.hyp.txt"
        ref.write_bytes(EVAL_REF.replace("\n", newline).encode("utf-8"))
        hyp.write_bytes(EVAL_HYP.replace("\n", newline).encode("utf-8"))
        assert run(["eval", metric, "--raw", "--ref", str(ref), "--hyp", str(hyp)]) == 0
        reports.append(capsys.readouterr())
    assert reports[0] == reports[1]
    assert json.loads(reports[0].out)["utterances"] == 5


@pytest.mark.parametrize("lang", corpus_mod.LANGUAGES)
def test_eval_wer_accepts_every_corpus_language(tmp_path, capsys, lang):
    text = tmp_path / "text.txt"
    text.write_text(EVAL_REF, encoding="utf-8")
    assert run(["eval", "wer", "--lang", lang, "--ref", str(text), "--hyp", str(text)]) == 0
    assert json.loads(capsys.readouterr().out)["errors"] == 0


def test_eval_cer_takes_no_lang(tmp_path, capsys):
    text = tmp_path / "text.txt"
    text.write_text(EVAL_REF, encoding="utf-8")
    assert run(["eval", "cer", "--lang", "en", "--ref", str(text), "--hyp", str(text)]) == 2
    assert "unrecognized arguments: --lang en" in capsys.readouterr().err


def test_templates_expand_cli(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({
        "caption": {"languages": ["en"],
                    "slots": [{"alternatives": ["describe", "caption"]},
                              {"alternatives": ["the audio"]}]}}),
        encoding="utf-8")
    assert run(["templates", "expand", "--task", "caption", "--limit", "2",
                "--registry", str(registry)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["text"] == "describe the audio"


def test_templates_expand_unknown_task_is_a_data_failure(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"asr": {"languages": ["en"],
                                            "slots": [{"alternatives": ["transcribe"]}]}}),
                        encoding="utf-8")
    assert run(["templates", "expand", "--task", "nope", "--registry", str(registry)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "forge: error: unknown task 'nope'; registry has ['asr']\n"


def test_manifest_config_hash_tracks_config_changes(tmp_path):
    path = write_corpus(tmp_path, synthetic.synth_corpus(2, 6))
    hashes = {}
    for name, p_user in (("x.jsonl", "0.5"), ("y.jsonl", "0.5"), ("z.jsonl", "0.9")):
        out = tmp_path / name
        assert run(["build-thinker", "--corpus", str(path), "--seed", "1",
                    "--p-user", p_user, "--out", str(out)]) == 0
        man = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        hashes[name] = man["config_hash"]
    assert hashes["x.jsonl"] == hashes["y.jsonl"]
    assert hashes["x.jsonl"] != hashes["z.jsonl"]


def test_missing_seed_without_config_exits_2(tmp_path, capsys):
    path = write_corpus(tmp_path, synthetic.synth_corpus(1, 6))
    code = run(["build-thinker", "--corpus", str(path),
                "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "forge build-thinker: error: the following arguments are required: --seed")


def test_compile_error_exits_1(tmp_path, capsys):
    d = make_dialogue("d", with_audio=False)
    path = write_corpus(tmp_path, [d])
    out = tmp_path / "t.jsonl"
    code = run(["build-thinker", "--corpus", str(path), "--seed", "1",
                "--p-user", "1.0", "--out", str(out)])
    assert code == 1
    assert "no audio" in capsys.readouterr().err


def test_clean_backfill_feeds_build_thinker_speech(tmp_path):
    dialogues = [synthetic.synth_dialogue(2, k, n_turns=4, truncate_first_turn=True,
                                          flag_kind="missing_context") for k in range(4)]
    path = write_corpus(tmp_path, dialogues)
    cleaned = tmp_path / "cleaned.jsonl"
    assert run(["clean", "--corpus", str(path), "--out", str(cleaned)]) == 0
    assert run(["build-thinker", "--corpus", str(cleaned), "--seed", "1",
                "--p-user", "1.0", "--masks", str(cleaned) + ".outcomes.jsonl",
                "--out", str(tmp_path / "thinker.jsonl")]) == 0


def test_clean_retries_below_one_exits_2(tmp_path, capsys):
    path = write_corpus(tmp_path, synthetic.synth_corpus(1, 6))
    assert run(["clean", "--corpus", str(path), "--retries", "0",
                "--out", str(tmp_path / "c.jsonl")]) == 2
    assert "forge: error: --retries must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("missing, directory", [
    ("--corpus", False), ("--masks", False), ("--config", False),
    ("--corpus", True), ("--masks", True), ("--config", True), ("--hyp", True),
], ids=["--corpus", "--masks", "--config",
        "--corpus-directory", "--masks-directory", "--config-directory", "--hyp-directory"])
def test_missing_input_file_exits_2(tmp_path, capsys, missing, directory):
    """An absent file, or a directory given as an input file, is a usage error."""
    path = write_corpus(tmp_path, synthetic.synth_corpus(1, 6))
    unreadable = tmp_path / "absent.jsonl"
    if directory:
        unreadable.mkdir()
    if missing == "--hyp":
        argv = ["eval", "cer", "--ref", str(path), "--hyp", str(unreadable)]
    elif missing == "--config":
        argv = ["clean", "--client", "http", "--config", str(unreadable), "--corpus", str(path),
                "--out", str(tmp_path / "t.jsonl")]
    else:
        inputs = {"--corpus": path, "--masks": path}
        inputs[missing] = unreadable
        argv = ["build-thinker", "--seed", "1", "--out", str(tmp_path / "t.jsonl")]
        for flag, value in inputs.items():
            argv += [flag, str(value)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("forge: error: ") and err.count("\n") == 1
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["validate"], ["stats", "--out", "o.jsonl"], ["clean", "--out", "o.jsonl"],
    ["build-thinker", "--seed", "1", "--out", "o.jsonl"],
    ["build-talker", "--seed", "1", "--out", "o.jsonl", "--jobs", "2"],
], ids=lambda argv: argv[0])
def test_corpus_commands_exit_2_on_a_missing_corpus(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--corpus", "absent.jsonl"]) == 2
    assert capsys.readouterr() == (
        "", "forge: error: [Errno 2] No such file or directory: 'absent.jsonl'\n")
    assert list(tmp_path.iterdir()) == []


@pytest.fixture
def pipe_path():
    """A function that writes bytes (under 64 KiB, so the write does not block)
    into a new pipe and returns the path /dev/fd/N of its read end."""
    fds = []

    def make(data: bytes) -> str:
        r, w = os.pipe()
        fds.append(r)
        os.write(w, data)
        os.close(w)
        return f"/dev/fd/{r}"
    yield make
    for fd in fds:
        os.close(fd)


@pytest.mark.parametrize("argv", [
    ["clean", "--out", "o.jsonl"], ["stats", "--out", "o.jsonl"],
    ["build-thinker", "--seed", "1", "--out", "o.jsonl"],
    ["build-talker", "--seed", "1", "--out", "o.jsonl"],
    ["build-thinker", "--seed", "1", "--out", "o.jsonl", "--masks", "PIPE"],
], ids=["clean", "stats-out", "build-thinker", "build-talker", "build-thinker-masks"])
def test_a_digested_input_that_is_not_a_regular_file_exits_2(tmp_path, capsys, monkeypatch,
                                                             pipe_path, argv):
    """A digested input is read twice; before, a pipe's second read got
    nothing, so the command wrote an empty output, or the sha256 of nothing
    as the masks file's digest, and exited 0."""
    monkeypatch.chdir(tmp_path)
    data = write_corpus(tmp_path, synthetic.synth_corpus(3, 6)).read_bytes()
    assert len(data) < 1 << 16
    if "PIPE" in argv:
        fifo = pipe_path(b'{"dialogue_id": "d0", "masked_spans": []}\n')
        argv = [fifo if arg == "PIPE" else arg for arg in argv] + ["--corpus", "corpus.jsonl"]
    else:
        fifo = pipe_path(data)
        argv = argv + ["--corpus", fifo]
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", f"forge: error: {fifo} is not a regular file: it is digested, then read again\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_a_corpus_read_once_may_be_a_pipe(tmp_path, capsys, pipe_path, command):
    path = write_corpus(tmp_path, synthetic.synth_corpus(3, 6))
    assert run([command, "--corpus", str(path)]) == 0
    expected = capsys.readouterr()
    assert run([command, "--corpus", pipe_path(path.read_bytes())]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("command", ["validate", "eval", "build-thinker"])
def test_non_utf8_input_exits_1_naming_the_file(tmp_path, capsys, command):
    path = write_corpus(tmp_path, synthetic.synth_corpus(40, 6))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[29] = lines[29].replace(b'"', b'"\xff', 1)  # past the first read buffer
    path.write_bytes(b"".join(lines))
    out = tmp_path / "o.jsonl"
    if command == "eval":
        ref = tmp_path / "ref.txt"
        ref.write_text("x\n" * len(lines), encoding="utf-8")
        argv = ["eval", "cer", "--ref", str(ref), "--hyp", str(path)]
    elif command == "validate":
        argv = ["validate", "--corpus", str(path)]
    else:
        argv = ["build-thinker", "--seed", "1", "--corpus", str(path), "--out", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"forge: error: {path}: line 30 is not valid UTF-8\n"
    assert captured.out == ""
    assert not list(tmp_path.glob("o.jsonl*"))


@pytest.mark.parametrize("command,record", [
    (["clean", "--jobs", "1"], "_clean_record"),
    (["build-thinker", "--seed", "1", "--jobs", "1"], "_thinker_record"),
    (["build-talker", "--seed", "1", "--jobs", "1"], "_parsed_record"),
    (["stats"], "_parsed_record"),
])
def test_a_corpus_that_is_not_utf8_fails_before_any_record_runs(tmp_path, capsys, monkeypatch,
                                                                 command, record):
    """Under --client http every record computed before the bad byte would be
    real requests to the services."""
    path = write_corpus(tmp_path, synthetic.synth_corpus(200, 6))
    lines = path.read_bytes().splitlines(keepends=True)
    lines[150] = lines[150].replace(b'"', b'"\xff', 1)
    path.write_bytes(b"".join(lines))
    calls = []
    inner = getattr(cli, record)
    monkeypatch.setattr(cli, record, lambda *a: calls.append(1) or inner(*a))
    out = tmp_path / "o.jsonl"
    assert run(command + ["--corpus", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"forge: error: {path}: line 151 is not valid UTF-8\n")
    assert calls == []
    assert not list(tmp_path.glob("o.jsonl*"))


@pytest.mark.parametrize("before", [1, 2])
def test_file_digest_of_a_character_across_a_block_boundary_is_its_sha256(tmp_path, before):
    """A 3-byte character with `before` of its bytes in the file's first MiB
    is still UTF-8: file_digest decodes whole lines, however the file is read."""
    data = b"a" * ((1 << 20) - before) + "中\n".encode("utf-8")
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    assert file_digest(path) == hashlib.sha256(data).hexdigest()


NOT_UTF8 = [
    (b"a\nb\nc" + "中".encode("utf-8")[:2], 3),  # cut off mid-character at EOF
    (b"a\nb\nc\n\xffd\ne\n", 4),
    (b'{"a":1}\r{"b":2}\n\xff\n', 2),  # a line ends at LF only
]


@pytest.mark.parametrize("data, line", NOT_UTF8)
def test_file_digest_names_the_first_line_that_is_not_utf8(tmp_path, data, line):
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    with pytest.raises(NotUtf8Error) as exc:
        file_digest(path)
    assert str(exc.value) == f"{path}: line {line} is not valid UTF-8"


@pytest.mark.parametrize("data, line", NOT_UTF8)
def test_read_lines_names_the_first_line_that_is_not_utf8(tmp_path, data, line):
    """Every line before the one that is not UTF-8 is read."""
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    read = []
    with pytest.raises(NotUtf8Error) as exc:
        read.extend(read_lines(path))
    assert str(exc.value) == f"{path}: line {line} is not valid UTF-8"
    assert len(read) == line - 1 and data.startswith("".join(read).encode("utf-8"))


def test_eval_only_yes_on_an_empty_file_exits_1(tmp_path, capsys):
    responses = tmp_path / "resp.txt"
    responses.write_text("", encoding="utf-8")
    assert run(["eval", "only-yes", "--responses", str(responses)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"forge: error: {responses} has no responses\n"
    assert captured.out == ""


def test_eval_line_count_mismatch_exits_1(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    hyp = tmp_path / "hyp.txt"
    ref.write_text("a\n", encoding="utf-8")
    hyp.write_text("a\nb\n", encoding="utf-8")
    assert run(["eval", "cer", "--ref", str(ref), "--hyp", str(hyp)]) == 1
    assert capsys.readouterr().err == "forge: error: ref has 1 lines but hyp has 2\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("reject, compile_error", [(True, False), (False, True), (True, True)])
def test_failed_build_leaves_existing_output_untouched(tmp_path, capsys, reject,
                                                       compile_error, jobs):
    dialogues = synthetic.synth_corpus(6, 3)
    if compile_error:
        dialogues[4] = make_dialogue("d", with_audio=False)
    path = write_corpus(tmp_path, dialogues)
    if reject:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": "x"}\n')
    out = tmp_path / "t.jsonl"
    out.write_text("previous run\n", encoding="utf-8")
    assert run(["build-thinker", "--corpus", str(path), "--seed", "1", "--p-user", "1.0",
                "--out", str(out), "--jobs", jobs]) == 1
    assert out.read_text(encoding="utf-8") == "previous run\n"
    assert not list(tmp_path.glob("*.tmp"))
    # Rejects are reported alone, as before any record compiles.
    err = capsys.readouterr().err
    assert ("reject line 7:" in err) == reject
    assert ("compile error:" in err) == (compile_error and not reject)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv", [
    ["clean", "--client", "mock"],
    ["build-thinker", "--seed", "1"],
    ["build-talker", "--seed", "1", "--mode", "dialogue"],
])
def test_build_commands_reject_duplicate_dialogue_ids(tmp_path, capsys, argv, jobs):
    dialogues = synthetic.synth_corpus(6, 3)
    dialogues[3].id = dialogues[1].id
    dialogues[5].id = dialogues[1].id
    path = write_corpus(tmp_path, dialogues)
    out = tmp_path / "o.jsonl"
    assert run(argv + ["--corpus", str(path), "--out", str(out), "--jobs", jobs]) == 1
    did = dialogues[1].id
    assert capsys.readouterr().err == (
        f"reject line 4: duplicate dialogue id {did!r} (first on line 2)\n"
        f"reject line 6: duplicate dialogue id {did!r} (first on line 2)\n")
    assert not list(tmp_path.glob("o.jsonl*"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_commands_report_the_same_rejects(tmp_path, capsys, monkeypatch, jobs):
    """Line 4 repeats line 2's id and line 7 lacks its language: every corpus
    command reports both, with one text each, whatever else fails."""
    monkeypatch.setenv("FORGE_JOBS", jobs)
    dialogues = synthetic.synth_corpus(6, 3)
    dialogues[3].id = dialogues[1].id
    doc = corpus_mod.dialogue_to_dict(synthetic.synth_dialogue(3, 6))
    del doc["language"]
    path = tmp_path / "corpus.jsonl"
    conftest.write_corpus(dialogues, path, extra_lines=[json.dumps(doc)])
    rejects = [(4, f"duplicate dialogue id {dialogues[1].id!r} (first on line 2)"),
               (7, "dialogue: missing field 'language'")]

    assert run(["validate", "--corpus", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["dialogues"] == 5 and report["violations"] == []
    assert [(r["line"], r["reason"]) for r in report["rejects"]] == rejects

    assert run(["stats", "--corpus", str(path)]) == 1
    captured = capsys.readouterr()
    stats = json.loads(captured.out)
    assert (stats["dialogues"], stats["rejects"]) == (5, len(rejects))
    assert captured.err == "".join(f"reject line {line}: {reason}\n" for line, reason in rejects)

    out = tmp_path / "o.jsonl"
    for argv in (["clean", "--client", "mock"], ["build-thinker", "--seed", "1"],
                 ["build-talker", "--seed", "1"]):
        assert run(argv + ["--corpus", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "".join(
            f"reject line {line}: {reason}\n" for line, reason in rejects)
        assert not list(tmp_path.glob("o.jsonl*"))


_NOT_FINITE = "dialogue.turns[0].audio: frame_rate_hz/duration_s must be finite numbers"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("field, literal, reason", [
    (None, "[" * 200_000, "invalid JSON: nested too deeply"),
    ("frame_rate_hz", "NaN", _NOT_FINITE),
    ("duration_s", "Infinity", _NOT_FINITE),
    ("frame_rate_hz", "-Infinity", _NOT_FINITE),
    ("duration_s", "1e400", _NOT_FINITE),
    ("frame_rate_hz", "1" + "0" * 400, _NOT_FINITE),
    ("id", '"\\ud800x"', "invalid JSON: unpaired surrogate escape"),
], ids=["nested", "rate-nan", "duration-inf", "rate-minus-inf", "duration-1e400",
        "rate-10**400", "id-lone-surrogate"])
def test_corpus_commands_reject_lines_json_cannot_hold(tmp_path, capsys, monkeypatch, field,
                                                       literal, reason, jobs):
    """Deep nesting, numbers that are not finite floats and strings no UTF-8
    output can hold are rejects of line 2 in every corpus command, never a
    traceback."""
    monkeypatch.setenv("FORGE_JOBS", jobs)
    lines = list(map(corpus_mod.serialize_dialogue, synthetic.synth_corpus(3, 3)))
    if field is None:
        lines[1] = literal
    else:  # the first turn's value
        lines[1] = re.sub(f'"{field}":[^,}}]+', lambda _: f'"{field}":{literal}', lines[1],
                          count=1)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert run(["validate", "--corpus", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["rejects"] == [{"line": 2, "reason": reason}]
    out = tmp_path / "o.jsonl"
    for argv in (["stats"], ["clean", "--client", "mock", "--out", str(out)],
                 ["build-thinker", "--seed", "1", "--out", str(out)],
                 ["build-talker", "--seed", "1", "--out", str(out)]):
        assert run(argv + ["--corpus", str(path)]) == 1
        assert capsys.readouterr().err == f"reject line 2: {reason}\n"
        assert not list(tmp_path.glob("o.jsonl*"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_nesting_near_the_recursion_limit_is_one_reject_at_any_jobs(tmp_path, jobs):
    """Valid dialogues with an unknown field nested 960-996 deep are rejects at
    --jobs 1 and 2 alike: whether such a line decoded once depended on the
    caller's stack depth. A fresh `forge` process, so the stack is a real one."""
    lines = list(map(corpus_mod.serialize_dialogue, synthetic.synth_corpus(11, 3)))
    for k, depth in enumerate(range(960, 997, 4), 1):
        lines[k] = '{"extra":' + "[" * depth + "]" * depth + "," + lines[k][1:]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "o.jsonl"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "seqforge", "build-thinker", "--corpus", str(path),
                           "--seed", "1", "--out", str(out), "--jobs", jobs],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "".join(
        f"reject line {k}: invalid JSON: nested too deeply\n" for k in range(2, 12)))
    assert not list(tmp_path.glob("o.jsonl*"))


def _with_duration(tmp_path, duration: str):
    """A two-dialogue corpus whose first turn lasts duration seconds."""
    lines = list(map(corpus_mod.serialize_dialogue, synthetic.synth_corpus(2, 3)))
    lines[0] = re.sub('"duration_s":[^,}]+', f'"duration_s":{duration}', lines[0], count=1)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_validate_reports_a_duration_too_long_to_count(tmp_path, capsys):
    path = _with_duration(tmp_path, "1e308")
    assert run(["validate", "--corpus", str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["violations"] == [
        {"path": "synth-000000.turns[0].audio",
         "message": "duration 1e+308 s at 12.5 Hz is too many tokens to count"}]
    assert captured.err == ""


def test_stats_of_durations_too_long_to_count_is_one_error(tmp_path, capsys):
    path = _with_duration(tmp_path, "1e308")
    out = tmp_path / "stats.json"
    assert run(["stats", "--corpus", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "forge: error: audio total: 2.777777777777778e+304 hours "
                                       "at 12.5 Hz is too many tokens to count\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_plan_budget_of_hours_too_many_to_count_is_a_usage_error(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    stats.write_text('{"speech": {"amount": 1e308, "unit": "hours"}}', encoding="utf-8")
    assert run(["plan", "budget", "--stats", str(stats)]) == 2
    assert capsys.readouterr() == ("", f"forge: error: --stats {stats}: speech: 1e+308 hours "
                                       f"at 12.5 Hz is too many tokens to count\n")


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


@pytest.mark.parametrize("command, where, jobs", [
    ("build-talker", "record", "1"),
    ("build-talker", "publish", "1"),
    ("build-talker", "publish", "2"),
    ("build-talker", "pool", "2"),
    ("clean", "publish", "2"),
    ("build-thinker", "pool", "2"),
])
def test_an_interrupt_is_one_line_and_leaves_every_output_as_it_was(
        tmp_path, capsys, monkeypatch, command, where, jobs):
    """KeyboardInterrupt from a record, from publish or in the parent while
    the workers map: exit 130 with one line, no .tmp file and no chunk file."""
    import multiprocessing.pool

    path = write_corpus(tmp_path, synthetic.synth_corpus(12, 3, speaker_pool=2))  # no skips
    out = tmp_path / "o.jsonl"
    argv = [command, "--corpus", str(path), "--out", str(out), "--jobs", jobs]
    argv += ["--client", "mock"] if command == "clean" else ["--seed", "1"]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    if where == "record":
        real, calls = cli._talker_record, []

        def record(state, task):  # the fourth record is interrupted
            calls.append(task)
            return _interrupt() if len(calls) == 4 else real(state, task)
        monkeypatch.setattr(cli, "_talker_record", record)
    elif where == "publish":
        monkeypatch.setattr(driver, "_append", _interrupt)
    else:
        real_map = multiprocessing.pool.Pool.map

        def map_(self, *args, **kwargs):  # arrives once the workers wrote their chunks
            real_map(self, *args, **kwargs)
            raise KeyboardInterrupt
        monkeypatch.setattr(multiprocessing.pool.Pool, "map", map_)
    try:
        code = run(argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped run()")
    assert code == 130
    assert capsys.readouterr().err == "forge: error: interrupted\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_pool_starts_no_more_workers_than_chunks(tmp_path, monkeypatch):
    """Three records make three chunks at --jobs 8; before, the pool forked 8 workers."""
    import multiprocessing

    path = write_corpus(tmp_path, synthetic.synth_corpus(3, 6))
    out = tmp_path / "o.jsonl"
    argv = ["build-thinker", "--seed", "1", "--corpus", str(path), "--out", str(out), "--jobs"]
    assert run(argv + ["1"]) == 0
    expected = out.read_bytes()
    real, started = multiprocessing.Pool, []

    def pool(processes=None, *args, **kwargs):
        started.append(processes)
        return real(processes, *args, **kwargs)
    monkeypatch.setattr(multiprocessing, "Pool", pool)
    assert run(argv + ["8"]) == 0
    assert started == [3]
    assert out.read_bytes() == expected


def test_stats_leaves_a_repeated_line_out_of_its_totals(tmp_path, capsys):
    dialogues = synthetic.synth_corpus(4, 2)
    kept = write_corpus(tmp_path, dialogues[:3], name="kept.jsonl")
    dialogues[3].id = dialogues[1].id
    repeated = write_corpus(tmp_path, dialogues, name="repeated.jsonl")
    assert run(["stats", "--corpus", str(kept)]) == 0
    expected = json.loads(capsys.readouterr().out)
    assert run(["stats", "--corpus", str(repeated)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {**expected, "rejects": 1}
    assert captured.err == (f"reject line 4: duplicate dialogue id {dialogues[1].id!r} "
                            f"(first on line 2)\n")


def _mixed_corpus(path) -> None:
    """Seven lines: a dialogue, a line that is not JSON, a schema reject, a
    dialogue with an empty id (the second kept dialogue), a repeat of line 1's
    id, a dialogue with an alignment gap and one more dialogue."""
    kinds = ("clean", "logic_contradiction_correctable", "logic_contradiction_severe", None)
    sources = ("podcast", "real_life", "real_life", "audiobook")
    dialogues = [synthetic.synth_dialogue(7, k, n_turns=3, speaker_pool=2, flag_kind=kind,
                                          language=("en", "zh")[k % 2], source=source)
                 for k, (kind, source) in enumerate(zip(kinds, sources))]
    dialogues[1].id = ""
    dialogues[2].turns[1].alignment[0].text_range = (1, dialogues[2].turns[1].alignment[0]
                                                     .text_range[1])
    dialogues[3].turns[2].audio = None
    dialogues[3].turns[2].alignment = []
    lines = list(map(corpus_mod.serialize_dialogue, dialogues))
    lines[1:1] = ["{not json", '{"id": "x"}']
    lines.insert(4, lines[0])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_MIXED_REJECTS = ("reject line 2: invalid JSON: Expecting property name enclosed in double quotes\n"
                  "reject line 3: dialogue: missing field 'language'\n"
                  "reject line 5: duplicate dialogue id 'synth-000000' (first on line 1)\n")
_MIXED_VALIDATE = """\
{
  "dialogues": 4,
  "rejects": [
    {
      "line": 2,
      "reason": "invalid JSON: Expecting property name enclosed in double quotes"
    },
    {
      "line": 3,
      "reason": "dialogue: missing field 'language'"
    },
    {
      "line": 5,
      "reason": "duplicate dialogue id 'synth-000000' (first on line 1)"
    }
  ],
  "violations": [
    {
      "path": "1.id",
      "message": "empty id"
    },
    {
      "path": "synth-000002.turns[1].alignment[0].text_range",
      "message": "gap after previous span ending at 0"
    }
  ]
}
"""
_MIXED_STATS = """\
{
  "dialogues": 4,
  "rejects": 3,
  "per_source_hours": {
    "audiobook": 0.002444444444444445,
    "podcast": 0.004533333333333334,
    "real_life": 0.009555555555555555
  },
  "per_language": {
    "en": 2,
    "zh": 2
  },
  "flag_histogram": {
    "clean": 1,
    "logic_contradiction_correctable": 1,
    "logic_contradiction_severe": 1
  },
  "total_hours": 0.016533333333333334,
  "total_tokens_at_12p5hz": 744,
  "budget_stats": {
    "speech": {
      "amount": 0.016533333333333334,
      "unit": "hours"
    },
    "audio": {
      "amount": 0.016533333333333334,
      "unit": "hours"
    }
  }
}
"""


def test_corpus_commands_on_a_mixed_corpus_are_pinned(tmp_path, capsys):
    """validate's and stats' whole output and build-talker's rejects on one
    corpus with every kind of dropped line and a violation."""
    path = tmp_path / "corpus.jsonl"
    _mixed_corpus(path)
    assert run(["validate", "--corpus", str(path)]) == 1
    assert capsys.readouterr() == (_MIXED_VALIDATE, "")
    assert run(["stats", "--corpus", str(path), "--out", str(tmp_path / "stats.json")]) == 1
    assert capsys.readouterr() == (_MIXED_STATS, _MIXED_REJECTS)
    for jobs in ("1", "2"):
        assert run(["build-talker", "--corpus", str(path), "--seed", "1",
                    "--out", str(tmp_path / "o.jsonl"), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == _MIXED_REJECTS
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_stats_with_rejects_publishes_no_out(tmp_path, capsys):
    dialogues = synthetic.synth_corpus(4, 2)
    dialogues[3].id = dialogues[1].id
    path = write_corpus(tmp_path, dialogues)
    out = tmp_path / "stats.json"
    assert run(["stats", "--corpus", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("reject line 4: duplicate dialogue id")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_abbreviated_flags_are_usage_errors(tmp_path, capsys):
    path = write_corpus(tmp_path, synthetic.synth_corpus(2, 1))
    out = tmp_path / "o.jsonl"
    assert run(["build-thinker", "--seed", "1", "--corpus", str(path), "--out", str(out),
                "--job", "2"]) == 2
    assert "unrecognized arguments: --job 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def _all_parsers():
    """forge's parser and every subparser under it."""
    parsers = [cli.build_parser()]
    while parsers:
        parser = parsers.pop()
        yield parser
        parsers += [sub for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)
                    for sub in action.choices.values()]


def test_no_parser_takes_flag_prefixes():
    parsers = list(_all_parsers())
    for parser in parsers:
        assert parser.allow_abbrev is False, parser.prog
    assert len(parsers) == 17  # forge, its 9 commands and their 7 subcommands


def test_cli_surface_is_pinned():
    """Every option of every command, and the keys of clean's --config: a
    setting added or removed shows up here as a diff."""
    surface = {parser.prog: sorted(option for action in parser._actions
                                   for option in action.option_strings
                                   if option not in ("-h", "--help"))
               for parser in _all_parsers()}
    assert surface == {
        "forge": ["--version"],
        "forge validate": ["--corpus"],
        "forge build-thinker": ["--corpus", "--jobs", "--masks", "--out", "--p-assistant",
                                "--p-user", "--seed"],
        "forge build-talker": ["--corpus", "--jobs", "--mode", "--out", "--ratio", "--seed"],
        "forge clean": ["--client", "--config", "--corpus", "--jobs", "--out", "--retries"],
        "forge plan": [],
        "forge plan show": [],
        "forge plan directive": ["--stage", "--step", "--total"],
        "forge plan budget": ["--stats"],
        "forge loss-check": ["--cases", "--epsilon", "--seed", "--tolerance"],
        "forge eval": [],
        "forge eval cer": ["--hyp", "--raw", "--ref"],
        "forge eval wer": ["--hyp", "--lang", "--raw", "--ref"],
        "forge eval only-yes": ["--responses"],
        "forge stats": ["--corpus", "--out"],
        "forge templates": [],
        "forge templates expand": ["--limit", "--registry", "--task"],
    }
    assert cli._HTTP_CONFIG_KEYS == ("corrector_url", "synth_url", "timeout_s")


@pytest.mark.parametrize("command", ["build-thinker", "build-talker"])
def test_build_commands_take_no_config(tmp_path, capsys, command):
    """Build options come only from flags."""
    path = write_corpus(tmp_path, synthetic.synth_corpus(2, 1))
    config = tmp_path / "c.json"
    config.write_text('{"seed": 1}', encoding="utf-8")
    assert run([command, "--corpus", str(path), "--seed", "1", "--config", str(config),
                "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"forge: error: unrecognized arguments: --config {config}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "corpus.jsonl"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("spans, kind, messages", [
    ([], "logic_contradiction_severe",
     ["quality_flags[0]: severe contradiction flags must carry at least one span"]),
    ([(99, (0, 1))], "logic_contradiction_correctable",
     ["quality_flags[0].spans[0]: turn index 99 out of range"]),
    ([(-1, (0, 1))], "logic_contradiction_correctable",
     ["quality_flags[0].spans[0]: turn index -1 out of range"]),
    ([(1, (0, 1)), (99, (0, 1)), (0, (5, 2))], "logic_contradiction_correctable",
     ["quality_flags[0].spans[1]: turn index 99 out of range",
      "quality_flags[0].spans[2]: text range [5,2) invalid for turn of length "]),
])
def test_clean_rejects_flags_its_branches_cannot_apply(tmp_path, capsys, spans, kind,
                                                       messages, jobs):
    dialogues = synthetic.synth_corpus(3, 1)
    dialogues[1].quality_flags = [corpus_mod.QualityFlag(kind, spans)]
    path = write_corpus(tmp_path, dialogues)
    out = tmp_path / "o.jsonl"
    assert run(["clean", "--client", "mock", "--corpus", str(path), "--out", str(out),
                "--jobs", jobs]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(messages)
    for line, message in zip(err, messages):
        assert line.startswith(f"reject line 2: {message}")
    assert not list(tmp_path.glob("o.jsonl*"))


def test_clean_cut_short_between_moves_leaves_no_sidecar(tmp_path, monkeypatch, capsys):
    path = write_corpus(tmp_path, synthetic.synth_corpus(3, 1))
    out = tmp_path / "cleaned.jsonl"
    argv = ["clean", "--client", "mock", "--corpus", str(path), "--out", str(out)]
    assert run(argv) == 0
    sidecar = tmp_path / "cleaned.jsonl.manifest.json"
    assert sidecar.exists()
    capsys.readouterr()
    moved = []
    real_replace = os.replace

    def replace(src, dst):
        moved.append(dst)
        if len(moved) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert run(argv) == 2
    assert moved == [str(out), f"{out}.outcomes.jsonl"]
    assert capsys.readouterr().err == "forge: error: [Errno 28] No space left on device\n"
    assert not sidecar.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_clean_takes_no_seed(tmp_path, capsys):
    """No cleaning branch draws a random number: the mock clients derive their
    output from content hashes."""
    path = write_corpus(tmp_path, synthetic.synth_corpus(2, 1))
    assert run(["clean", "--client", "mock", "--corpus", str(path), "--seed", "5",
                "--out", str(tmp_path / "o.jsonl")]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "forge: error: unrecognized arguments: --seed 5")
    assert list(tmp_path.iterdir()) == [path]


# The two keys a clean --client http --config needs; nothing listens on port 1.
_HTTP_URLS = '"corrector_url": "http://127.0.0.1:1", "synth_url": "http://127.0.0.1:1"'
_AMOUNT_SHAPE = ("side.json: speech: expected {\"amount\": number >= 0, \"unit\": one of "
                 "['tokens', 'hours', 'samples']}\n")


@pytest.mark.parametrize("argv, config, message", [
    (["build-thinker", "--seed", "1", "--p-user", "1.5"], None, "--p-user/--p-assistant"),
    (["build-talker", "--seed", "1", "--ratio", "5"], None, "--ratio must be N:M"),
    (["clean"], "{not json", "is not valid JSON"),
    (["clean"], '{"synth_url": "http://127.0.0.1:1"}',
     "--client http needs corrector_url in --config"),
    (["clean", "--client", "http"], None,
     "forge: error: --client http needs corrector_url and synth_url in --config\n"),
    (["plan", "directive", "--stage", "bogus", "--step", "1"], None, "stage 'bogus'"),
    (["plan", "directive", "--stage", "s1", "--step", "0"], None, "step must be in"),
    (["clean"], "[]", "must hold a JSON object"),
    (["clean"], '{%s, "timeout_s": true}' % _HTTP_URLS,
     "--config field 'timeout_s' must be a finite number > 0, got True\n"),
    (["clean"], '{%s, "timeout_s": 1%s}' % (_HTTP_URLS, "0" * 400),
     "--config field 'timeout_s' must be a finite number > 0, got 1%s\n" % ("0" * 400)),
    (["build-thinker", "--seed", "1", "--jobs", "-5"], None,
     "--jobs must be a positive integer, got -5"),
    (["FORGE_JOBS=abc", "build-talker", "--seed", "1"], None,
     "FORGE_JOBS must be a positive integer, got 'abc'"),
    (["FORGE_JOBS=0", "clean"], None, "FORGE_JOBS must be a positive integer, got '0'"),
    (["build-thinker", "--seed", "1", "--masks", "BAD"], None,
     "bad.json is not valid JSON: Expecting property name enclosed in double quotes: "
     "line 2 column 2"),
    (["plan", "budget", "--stats", "BAD"], None,
     "bad.json is not valid JSON: Extra data: line 2 column 1"),
    (["templates", "expand", "--task", "t", "--registry", "BAD"], None,
     "bad.json is not valid JSON: Extra data: line 2 column 1"),
    (["clean"], b'{"synth_url": "\xff"}', "c.json is not valid UTF-8 (byte 15)"),
    (["build-thinker", "--seed", "1", "--masks", '@{"dialogue_id": "x"}\n[]'], None,
     "side.json: line 2: expected a cleaning outcome object"),
    (["build-thinker", "--seed", "1", "--masks", '@{"dialogue_id": 1, "masked_spans": [[0]]}'],
     None, "side.json: line 1: expected a string dialogue_id and masked_spans"),
    (["build-thinker", "--seed", "1", "--masks", '@{"dialogue_id": "x"}\n\f\n'], None,
     "side.json is not valid JSON: Expecting value: line 2 column 1"),
    (["plan", "budget", "--stats", "@[]"], None,
     "side.json: expected a JSON object of budget stats"),
    (["plan", "budget", "--stats", '@{"budget_stats": {"speech": {"amount": 1}}}'], None,
     "side.json: speech: expected {\"amount\": number >= 0, \"unit\": one of"),
    (["templates", "expand", "--task", "t", "--registry", '@{"t": {}}'], None,
     "side.json: task 't': expected {\"languages\": [string], \"slots\""),
    (["templates", "expand", "--task", "t", "--registry",
      '@{"t": {"slots": [{"alternatives": ["a"], "optional": "no"}]}}'], None,
     "side.json: task 't': expected {\"languages\": [string], \"slots\""),
    (["templates", "expand", "--task", "t", "--registry", '@{"t": {"slots": []}}'], None,
     "side.json: task 't': task needs at least one slot"),
    (["build-talker", "--seed", "1", "--mode", "bogus"], None, "unknown mode 'bogus'"),
    (["loss-check", "--cases", "0"], None, "--cases must be >= 1, got 0"),
    (["loss-check", "--epsilon", "0"], None, "--epsilon must be finite and > 0, got 0.0"),
    (["loss-check", "--epsilon", "inf"], None, "--epsilon must be finite and > 0, got inf"),
    (["loss-check", "--tolerance", "0"], None, "--tolerance must be finite and > 0, got 0.0"),
    (["eval", "wer", "--lang", "ZH", "--ref", "r.txt", "--hyp", "h.txt"], None,
     "--lang must be one of zh, en, ja, ko, other; got 'ZH'"),
    (["eval", "wer", "--lang", "zh-CN", "--ref", "r.txt", "--hyp", "h.txt"], None,
     "--lang must be one of zh, en, ja, ko, other; got 'zh-CN'"),
    (["clean"], '{"corrector_url": 1, "synth_url": 2}',
     "forge: error: --config field 'corrector_url' must be a string, got 1\n"),
    (["clean"], '{%s, "timeout_s": NaN}' % _HTTP_URLS,
     "forge: error: --config field 'timeout_s' must be a finite number > 0, got nan\n"),
    (["clean"], '{%s, "timeout_s": 0}' % _HTTP_URLS,
     "forge: error: --config field 'timeout_s' must be a finite number > 0, got 0\n"),
    (["clean"], '{%s, "timeout_s": -1}' % _HTTP_URLS,
     "forge: error: --config field 'timeout_s' must be a finite number > 0, got -1\n"),
    (["clean"], '{%s, "timeout_s": 1e10}' % _HTTP_URLS,
     "forge: error: --config field 'timeout_s' must be at most 9223372036.0 seconds, "
     "got 10000000000.0\n"),
    (["clean"], '{%s, "sed": 3}' % _HTTP_URLS,
     "forge: error: --config key 'sed' is not one of corrector_url, synth_url, timeout_s\n"),
    (["clean"], '{%s, "seed": 3}' % _HTTP_URLS,
     "forge: error: --config key 'seed' is not one of corrector_url, synth_url, timeout_s\n"),
    (["clean"], '{%s, "retries": 2}' % _HTTP_URLS,
     "forge: error: --config key 'retries' is not one of corrector_url, synth_url, "
     "timeout_s; pass --retries instead\n"),
    (["clean", "--client", "mock"], '{%s}' % _HTTP_URLS,
     "forge: error: --config holds the HTTP services' settings; it needs --client http\n"),
    (["templates", "expand", "--task", "t", "--registry", "@[]"], None,
     "side.json: expected a JSON object of tasks\n"),
    (["plan", "budget", "--stats", "@" + "[" * 200_000], None,
     "side.json is not valid JSON: nested too deeply\n"),
    (["build-thinker", "--seed", "1", "--masks", "@" + "[" * 200_000], None,
     "side.json is not valid JSON: nested too deeply\n"),
    (["templates", "expand", "--task", "t", "--registry", "@" + "[" * 200_000], None,
     "side.json is not valid JSON: nested too deeply\n"),
    (["clean"], "[" * 200_000, "c.json is not valid JSON: nested too deeply\n"),
    (["plan", "budget", "--stats", '@{"speech": {"amount": Infinity, "unit": "hours"}}'], None,
     _AMOUNT_SHAPE),
    (["plan", "budget", "--stats", '@{"speech": {"amount": 1e400, "unit": "hours"}}'], None,
     _AMOUNT_SHAPE),
    (["plan", "budget", "--stats", '@{"speech": {"amount": 1%s, "unit": "tokens"}}' % ("0" * 400)],
     None, _AMOUNT_SHAPE),
    (["clean"], '{"corrector_url": "", "synth_url": "http://127.0.0.1:1"}',
     "forge: error: --config field 'corrector_url' must be an http:// or https:// URL in "
     "ASCII, got ''\n"),
    (["clean"], '{"corrector_url": "http://127.0.0.1:1", "synth_url": "notaurl"}',
     "forge: error: --config field 'synth_url' must be an http:// or https:// URL in "
     "ASCII, got 'notaurl'\n"),
    (["clean"], '{"corrector_url": "http://例.invalid", "synth_url": "http://127.0.0.1:1"}',
     "forge: error: --config field 'corrector_url' must be an http:// or https:// URL in "
     "ASCII, got 'http://例.invalid'\n"),
    (["clean"], '{"corrector_url": "ftp://127.0.0.1:1/", "synth_url": "http://127.0.0.1:1"}',
     "forge: error: --config field 'corrector_url' must be an http:// or https:// URL in "
     "ASCII, got 'ftp://127.0.0.1:1/'\n"),
    (["clean"], '{"corrector_url": "http://[::1", "synth_url": "http://127.0.0.1:1"}',
     "forge: error: --config field 'corrector_url' must be an http:// or https:// URL in "
     "ASCII, got 'http://[::1'\n"),
    (["templates", "expand", "--task", "t", "--limit", "0", "--registry",
      '@{"t": {"slots": [{"alternatives": ["a"]}]}}'], None,
     "forge: error: --limit must be >= 1, got 0\n"),
    (["templates", "expand", "--task", "t", "--limit", "-2", "--registry",
      '@{"t": {"slots": [{"alternatives": ["a"]}]}}'], None,
     "forge: error: --limit must be >= 1, got -2\n"),
    (["loss-check", "--seed", "-1"], None, "forge: error: --seed must be >= 0, got -1\n"),
    (["build-thinker", "--seed", "-1"], None,
     "forge: error: --seed must be in [0, 2**64), got -1\n"),
    (["build-thinker", "--seed", "18446744073709551616"], None,
     "forge: error: --seed must be in [0, 2**64), got 18446744073709551616\n"),
    (["build-talker", "--seed", "-1"], None,
     "forge: error: --seed must be in [0, 2**64), got -1\n"),
    (["build-talker", "--seed", "36893488147419103231"], None,
     "forge: error: --seed must be in [0, 2**64), got 36893488147419103231\n"),
], ids=["p-user", "ratio", "config-json", "http-url", "http-no-config", "stage", "step",
        "config-array", "config-float-bool", "config-float-overflow", "jobs-negative",
        "env-jobs-text", "env-jobs-zero", "masks-json", "stats-json", "registry-json",
        "config-utf8", "masks-line-array", "masks-spans-shape", "masks-form-feed-line",
        "stats-array", "stats-entry-shape", "registry-no-slots", "registry-optional-string",
        "registry-empty-slots", "mode-unknown", "loss-cases-zero", "loss-epsilon-zero",
        "loss-epsilon-inf", "loss-tolerance-zero", "wer-lang-upper", "wer-lang-region",
        "config-url-int", "config-timeout-nan", "config-timeout-zero",
        "config-timeout-negative", "config-timeout-1e10", "config-key-typo", "config-key-seed",
        "config-key-retries", "config-client-mock", "registry-array", "stats-nested",
        "masks-nested", "registry-nested", "config-nested", "stats-amount-inf", "stats-amount-1e400",
        "stats-amount-10**400", "config-url-empty", "config-url-no-scheme",
        "config-url-not-ascii", "config-url-ftp", "config-url-ipv6", "limit-zero",
        "limit-negative", "loss-seed-negative", "thinker-seed-negative", "thinker-seed-2**64",
        "talker-seed-negative", "talker-seed-2**65-1"])
def test_bad_argument_values_exit_2_without_traceback(tmp_path, capsys, monkeypatch, argv,
                                                      config, message):
    while "=" in argv[0]:  # leading NAME=value words set the environment, as in a shell
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    if argv[0] not in ("plan", "templates", "loss-check", "eval"):
        path = write_corpus(tmp_path, synthetic.synth_corpus(2, 6))
        argv = argv + ["--corpus", str(path), "--out", str(tmp_path / "o.jsonl")]
    # BAD names a side-input file whose second line is not JSON; @TEXT names
    # a side-input file holding TEXT.
    (tmp_path / "bad.json").write_text('{"dialogue_id": "x"}\n{not json', encoding="utf-8")
    argv = [str(tmp_path / "bad.json") if arg == "BAD" else arg for arg in argv]
    for k, arg in enumerate(argv):
        if arg.startswith("@"):
            (tmp_path / "side.json").write_text(arg[1:], encoding="utf-8")
            argv[k] = str(tmp_path / "side.json")
    if config is not None:  # only clean --client http reads a --config
        raw = config if isinstance(config, bytes) else config.encode("utf-8")
        (tmp_path / "c.json").write_bytes(raw)
        argv = argv + ["--config", str(tmp_path / "c.json")]
        if "--client" not in argv:
            argv += ["--client", "http"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("forge: error: ") and message in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "o.jsonl").exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_corpus_commands_map_through_the_driver():
    """One path per corpus command: cli parses a corpus line only inside a
    _*_record function, reads a corpus only as the tasks of a driver map,
    and no module of seqforge defines parse_corpus."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    offenders = []

    def is_call(node, owner, names):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == owner
                and node.func.attr in names)

    mapped = {id(arg) for node in ast.walk(tree)
              if is_call(node, "driver", ("map_records", "compile_records"))
              for arg in node.args}
    records = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and fn.name.startswith("_") and fn.name.endswith("_record")
               for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if is_call(node, "corpus", ("parse_line",)) and id(node) not in records:
            offenders.append(f"parse_line on line {node.lineno}")
        if is_call(node, "corpus", ("iter_lines",)) and id(node) not in mapped:
            offenders.append(f"iter_lines on line {node.lineno}")
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(
            path.read_text(encoding="utf-8"))) if isinstance(node, ast.FunctionDef)
            and node.name == "parse_corpus"]
    assert offenders == []


def test_importing_the_cli_does_not_load_numpy(tmp_path):
    # A fresh interpreter: this one has these loaded by other test modules.
    # Each command imports what only it needs.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def modules(argv=None) -> set[str]:
        """The modules a fresh interpreter holds after importing the cli and,
        given argv, running that command to exit 0."""
        code = ("import contextlib, io, sys, seqforge.cli\n"
                "if sys.argv[1:]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert seqforge.cli.run(sys.argv[1:]) == 0\n"
                "print(' '.join(sorted(sys.modules)))")
        return set(subprocess.run([sys.executable, "-c", code, *(argv or [])], env=env,
                                  check=True, capture_output=True, text=True).stdout.split())

    loaded = modules()
    assert "seqforge.cli" in loaded
    assert loaded.isdisjoint({"numpy", "urllib.request", "multiprocessing", "seqforge.cleaning",
                              "seqforge.thinker", "seqforge.talker", "seqforge.metrics",
                              "seqforge.schedule", "seqforge.templates"})
    # --version, the start-up every command pays, loads no other seqforge module.
    assert modules(["--version"]).isdisjoint({"seqforge.reporting", "dataclasses", "inspect"})

    # Commands that read no corpus load none of the corpus data model.
    text = tmp_path / "text.txt"
    text.write_text("Hello, world!\n", encoding="utf-8")
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"t": {"languages": ["en"],
                                          "slots": [{"alternatives": ["describe"]}]}}),
                        encoding="utf-8")
    data_model = {"seqforge.corpus", "seqforge.captions", "seqforge.manifest",
                  "seqforge.seeding"}
    for argv in (["--version"],
                 ["eval", "cer", "--ref", str(text), "--hyp", str(text)],
                 ["eval", "wer", "--lang", "en", "--ref", str(text), "--hyp", str(text)],
                 ["plan", "show"],
                 ["loss-check", "--cases", "1"],
                 ["templates", "expand", "--task", "t", "--registry", str(registry)]):
        assert modules(argv).isdisjoint(data_model), argv
    corpus = write_corpus(tmp_path, synthetic.synth_corpus(2, 1))
    assert "seqforge.corpus" in modules(["validate", "--corpus", str(corpus)])
