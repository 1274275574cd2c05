"""Corpus model: parsing, serialization, arithmetic, validation."""
import collections
import copy
import dataclasses
import gc
import hashlib
import json
import random

import pytest

from seqforge import corpus, driver
from seqforge.captions import CaptionRecord
from seqforge.corpus import (AlignmentSpan, AudioTokenSpan, Dialogue,
                             QualityFlag, Turn, downsample_frames,
                             tokens_for_hours, validate_dialogue)

import synthetic
from conftest import make_dialogue, make_turn


# --------------------------------------------------------------------------
# frame arithmetic
# --------------------------------------------------------------------------

def pad_and_pool(n_frames: int) -> int:
    """Independent oracle: pad to even length, then pool adjacent pairs."""
    frames = list(range(n_frames))
    if len(frames) % 2 == 1:
        frames.append(None)
    return len([frames[i:i + 2] for i in range(0, len(frames), 2)])


def test_downsample_trivial():
    assert downsample_frames(0) == 0
    assert downsample_frames(100) == 50


def test_downsample_odd_matches_pad_pool_enumeration():
    assert downsample_frames(101) == pad_and_pool(101) == 51
    for n in range(0, 500):
        assert downsample_frames(n) == pad_and_pool(n)


def test_downsample_rejects_negative():
    with pytest.raises(ValueError):
        downsample_frames(-1)


def test_tokens_for_hours_stage_budgets():
    assert tokens_for_hours(320_000, 12.5) == 14_400_000_000
    assert tokens_for_hours(3_204_000, 12.5) == 144_180_000_000
    assert tokens_for_hours(0, 12.5) == 0


def test_tokens_for_hours_linearity():
    rng = random.Random(3)
    for _ in range(200):
        a = rng.uniform(0, 5000)
        b = rng.uniform(0, 5000)
        lhs = tokens_for_hours(a + b, 12.5)
        rhs = tokens_for_hours(a, 12.5) + tokens_for_hours(b, 12.5)
        assert abs(lhs - rhs) <= 1


def test_tokens_for_hours_rejects_bad_args():
    with pytest.raises(ValueError):
        tokens_for_hours(-1, 12.5)
    with pytest.raises(ValueError):
        tokens_for_hours(1, 0)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

def _parse_record(state, task):
    """A corpus line's Reject, or (id, no output lines, line number, dialogue)."""
    dialogue = corpus.parse_line(*task)
    if isinstance(dialogue, corpus.Reject):
        return dialogue
    return dialogue.id, (), task[0], dialogue


def map_corpus(path, jobs: int = 1):
    """(line numbers, dialogues, rejects) of a corpus file, mapped by the
    driver as every corpus command maps it."""
    rows, rejects, failure = driver.map_records(_parse_record, None, corpus.iter_lines(path),
                                                jobs, driver.Chunks())
    assert failure is None
    return [n for _, n, _ in rows], [d for _, _, d in rows], rejects


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert map_corpus(path) == map_corpus(path, jobs=2) == ([], [], [])


def test_parse_single_valid_dialogue(corpus_file):
    path = corpus_file([make_dialogue("d1")])
    _, dialogues, rejects = map_corpus(path)
    assert len(dialogues) == 1
    assert rejects == []
    assert dialogues[0].id == "d1"
    assert [t.role for t in dialogues[0].turns] == ["user", "assistant"]


def test_parse_rejects_line_missing_turns(corpus_file):
    bad = json.dumps({"id": "broken", "language": "en", "source": "synthetic"})
    path = corpus_file([make_dialogue("ok")], extra_lines=[bad])
    _, dialogues, rejects = map_corpus(path)
    assert len(dialogues) == 1
    assert len(rejects) == 1
    assert rejects[0].line_number == 2
    assert "turns" in rejects[0].reason


def test_parse_records_the_line_of_each_dialogue(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [corpus.serialize_dialogue(make_dialogue("a")), "", "{not json",
             corpus.serialize_dialogue(make_dialogue("b"))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    line_numbers, dialogues, _ = map_corpus(path)
    assert [d.id for d in dialogues] == ["a", "b"]
    assert line_numbers == [1, 4]


def test_parse_corpus_rejects_a_repeated_id(tmp_path):
    """Repeated ids and the other rejects come back in line order, and only
    the first line of each id is kept, at --jobs 1 and 2 alike."""
    path = tmp_path / "corpus.jsonl"
    lines = [corpus.serialize_dialogue(make_dialogue(did)) for did in ("a", "b", "a")]
    lines[1:1] = ["{not json"]
    lines += [corpus.serialize_dialogue(make_dialogue("a")), "", lines[2], '{"id": "c"}']
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    line_numbers, dialogues, rejects = map_corpus(path)
    assert [d.id for d in dialogues] == ["a", "b"]
    assert line_numbers == [1, 3]
    assert rejects == [
        corpus.Reject(2, "invalid JSON: Expecting property name enclosed in double quotes"),
        corpus.Reject(4, "duplicate dialogue id 'a' (first on line 1)"),
        corpus.Reject(5, "duplicate dialogue id 'a' (first on line 1)"),
        corpus.Reject(7, "duplicate dialogue id 'b' (first on line 3)"),
        corpus.Reject(8, "dialogue: missing field 'language'")]
    assert corpus.validate_corpus(dialogues).ok
    assert map_corpus(path, jobs=2) == (line_numbers, dialogues, rejects)


def test_map_records_returns_the_first_failure_and_every_reject():
    """A record may return a list of rejects or a failure; the rejects of
    every chunk come back in line order and the failure is the first one."""
    def record(state, task):
        line_no, kind = task
        if kind == "fail":
            return driver.Failed(f"failed {line_no}")
        if kind == "two":
            return [corpus.Reject(line_no, "x"), corpus.Reject(line_no, "y")]
        return corpus.Reject(line_no, kind) if kind else (str(line_no), (), line_no)

    tasks = [(1, None), (2, "fail"), (3, "two"), (5, None), (6, "fail"), (7, "z")]
    expected = ([("1", 1), ("5", 5)], [corpus.Reject(3, "x"), corpus.Reject(3, "y"),
                                       corpus.Reject(7, "z")], "failed 2")
    assert driver.map_records(record, None, iter(tasks), 1, driver.Chunks()) == expected
    assert driver.map_records(record, None, iter(tasks), 2, driver.Chunks()) == expected


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("content", [b"", b"{not json}\n", b'{"id": "\xff"}\n'])
def test_parse_corpus_restores_the_gc_state(tmp_path, enabled, content):
    """map_records runs its in-process chunk with the cyclic collector off
    and restores the caller's state, also when the corpus turns out not to be
    UTF-8 after two good lines."""
    path = tmp_path / "corpus.jsonl"
    good = "".join(corpus.serialize_dialogue(make_dialogue(f"d{k}")) + "\n" for k in range(2))
    path.write_bytes(good.encode("utf-8") + content)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if b"\xff" in content:
            with pytest.raises(corpus.NotUtf8Error, match="line 3 is not valid UTF-8"):
                map_corpus(path)
        else:
            map_corpus(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("past_cap, ok", [(0, True), (1, False)])
def test_parse_line_caps_the_nesting_depth(past_cap, ok):
    line = corpus.serialize_dialogue(make_dialogue("d"))
    # an unknown field that takes the line to MAX_DEPTH + past_cap
    depth = corpus.MAX_DEPTH + past_cap
    deep = '{"extra":' + "[" * (depth - 1) + "]" * (depth - 1) + "," + line[1:]
    expected = corpus.parse_line(3, line) if ok else corpus.Reject(
        3, "invalid JSON: nested too deeply")
    assert corpus.parse_line(3, deep) == expected


def test_parse_line_counts_no_bracket_inside_a_string():
    d = make_dialogue("d")
    d.turns[0].text = '[{\\"' * corpus.MAX_DEPTH
    assert corpus.parse_line(1, corpus.serialize_dialogue(d)) == d


@pytest.mark.parametrize("escape, decoded", [
    (r"\ud800x", None), (r"x\uDFFF", None), (r"\udc00\ud800", None), (r"\ud83dA", None),
    (r"\\\ud800", None), (r"\ud83d\ude00", "😀"), (r"\uD83D\uDE00\u00e9", "😀é"),
    (r"\\ud800", "\\ud800"), (r"\\\\ud800", "\\\\ud800"),
])
@pytest.mark.parametrize("where", ["id", "text", "key"])
def test_parse_line_rejects_an_unpaired_surrogate_escape(escape, decoded, where):
    """A lone surrogate decodes to a str no UTF-8 output can hold; a pair is a
    character, and after an escaped backslash "ud800" is plain text."""
    line = corpus.serialize_dialogue(make_dialogue("d"))
    if where == "id":
        line = line.replace('"id":"d"', f'"id":"{escape}"')
    elif where == "text":
        line = line.replace('"text":"', f'"text":"{escape}', 1)
    else:
        line = f'{{"{escape}":0,{line[1:]}'
    assert line.count(escape) == 1
    parsed = corpus.parse_line(5, line)
    if decoded is None:
        assert parsed == corpus.Reject(5, "invalid JSON: unpaired surrogate escape")
    elif where == "id":
        assert parsed.id == decoded
    elif where == "text":
        assert parsed.turns[0].text.startswith(decoded)
    else:
        assert parsed.id == "d"


@pytest.mark.parametrize("sep", [",", ", "])
def test_parse_line_rejects_an_id_too_long_to_convert(sep):
    """json.loads refuses an int of more than sys.get_int_max_str_digits()
    digits; compact or not, the line is a reject, never a traceback."""
    line = corpus.serialize_dialogue(make_dialogue("d"))
    line = line.replace('"token_ids":[', '"token_ids":[' + "9" * 5000 + sep, 1)
    reason = corpus.parse_line(4, line).reason
    assert reason.startswith("invalid JSON: Exceeds the limit (4300 digits)"), reason


def test_audio_token_span_keeps_ids_as_text():
    span = AudioTokenSpan([0, 10 ** 30, 7], 12.5, 0.24)
    assert (span.ids_text, span.n_tokens) == ("0,1000000000000000000000000000000,7", 3)
    assert span == AudioTokenSpan(None, 12.5, 0.24, ids_text=span.ids_text)
    assert (AudioTokenSpan([], 12.5, 0.0).ids_text, AudioTokenSpan([], 12.5, 0.0).n_tokens) \
        == ("", 0)
    # token_ids is decoded on each read: editing that list leaves the span as it
    # was, and assigning a list re-renders ids_text
    ids = span.token_ids
    ids[1] = -1
    assert (span.ids_text, span.n_tokens) == ("0,1000000000000000000000000000000,7", 3)
    span.token_ids = ids
    assert (span.ids_text, span.n_tokens) == ("0,-1,7", 3)
    span.token_ids = [5]
    assert (span.ids_text, span.n_tokens) == ("5", 1)
    assert copy.deepcopy(span) == span


def test_parse_rejects_invalid_json_and_bad_enum(corpus_file):
    bad_enum = json.dumps({"id": "x", "language": "klingon", "source": "synthetic", "turns": []})
    path = corpus_file([], extra_lines=["{not json", bad_enum])
    _, dialogues, rejects = map_corpus(path)
    assert dialogues == []
    assert [r.line_number for r in rejects] == [1, 2]
    assert "language" in rejects[1].reason


def test_parse_corpus_freezes_the_parsed_corpus(corpus_file):
    """The in-process map freezes what it built: a pool forked after it does
    not copy the held dialogues on write when its workers collect."""
    path = corpus_file([make_dialogue(f"d{k}") for k in range(30)])
    before = gc.get_freeze_count()
    _, dialogues, _ = map_corpus(path)
    assert len(dialogues) == 30
    assert gc.get_freeze_count() - before >= 30


@pytest.mark.parametrize("field, value, reason", [
    ("token_ids", [1, True], "dialogue.turns[0].audio.token_ids: expected integers"),
    ("token_ids", [1, 2.0], "dialogue.turns[0].audio.token_ids: expected integers"),
    ("text_range", [0, True], "dialogue.turns[0].alignment[0].text_range: expected [int, int]"),
], ids=["token-bool", "token-float", "range-bool"])
def test_parse_rejects_non_int_token_ids_and_ranges(field, value, reason):
    doc = corpus.dialogue_to_dict(make_dialogue("d"))
    turn = doc["turns"][0]
    (turn["audio"] if field == "token_ids" else turn["alignment"][0])[field] = value
    assert corpus.parse_line(1, json.dumps(doc)) == corpus.Reject(1, reason)


# Token ids that are not ints, on lines with and without a true/false literal:
# parse_line picks the token-id check by that literal.
@pytest.mark.parametrize("ids, text", [
    ([False], "hello there"),
    ([1, True], "that is true"),
    ([1.0], "hello there"),
    ([2.5, -2.5], "hello there"),
    ([10 ** 400, 1.0], "hello there"),
    ([3, "7"], "hello there"),
    ([None], "hello there"),
    ([[1]], "hello there"),
    ([0, {"id": 1}], "hello there"),
], ids=["false", "bool-text-true", "one-float", "floats-sum-to-int", "float-past-huge-int",
        "str", "null", "list", "object"])
def test_parse_rejects_every_non_int_token_id(ids, text):
    reason = "dialogue.turns[0].audio.token_ids: expected integers"
    doc = corpus.dialogue_to_dict(make_dialogue("d", text=text))
    doc["turns"][0]["audio"]["token_ids"] = ids
    assert corpus.parse_line(1, json.dumps(doc)) == corpus.Reject(1, reason)
    with pytest.raises(corpus.SchemaError) as exc:  # no raw line: the full check
        corpus.parse_dialogue(doc)
    assert str(exc.value) == reason


def test_parse_keeps_int_token_ids_of_any_size():
    ids = [0, -1, 10 ** 30, 4095]
    doc = corpus.dialogue_to_dict(make_dialogue("d"))
    doc["turns"][0]["audio"]["token_ids"] = ids
    assert corpus.parse_line(1, json.dumps(doc)).turns[0].audio.token_ids == ids


@pytest.mark.parametrize("group, field, value, reason", [
    ("paralinguistics", "vocalizations", "laugh", "expected array of strings"),
    ("environment", "sound_events", ["rain", 3], "expected array of strings"),
    ("prosody", "emotion", ["Happy"], "expected string or null, got list"),
    ("prosody", None, "calm", "expected object"),
], ids=["multi-string", "multi-mixed", "single-array", "group-string"])
def test_parse_rejects_mistyped_caption_fields(group, field, value, reason):
    d = make_dialogue("d")
    d.turns[0].caption = CaptionRecord()
    doc = corpus.dialogue_to_dict(d)
    caption = doc["turns"][0]["caption"]
    if field is None:
        caption[group] = value
    else:
        caption[group][field] = value
    where = group if field is None else f"{group}.{field}"
    assert corpus.parse_line(1, json.dumps(doc)) == corpus.Reject(
        1, f"dialogue.turns[0].caption.{where}: {reason}")


def _base_dialogue() -> Dialogue:
    """Three turns with audio and two alignment spans each; two flags with two spans each."""
    d = make_dialogue("d", n_turns=3, n_segments=2)
    d.quality_flags = [QualityFlag("logic_contradiction_correctable", [(1, (0, 2)), (2, (1, 3))]),
                       QualityFlag("logic_contradiction_severe", [(0, (0, 1)), (1, (2, 4))])]
    return d


def _base_doc() -> dict:
    return corpus.dialogue_to_dict(_base_dialogue())


_DELETE = object()

_LANGS = "['zh', 'en', 'ja', 'ko', 'other']"
_FLAGS = ("['logic_contradiction_correctable', 'logic_contradiction_severe', "
          "'missing_context', 'clean']")
_T0, _F0 = "dialogue.turns[0]", "dialogue.quality_flags[0]"
_T1, _T2, _F1 = "dialogue.turns[1]", "dialogue.turns[2]", "dialogue.quality_flags[1]"

# (keys to the mutated value, new value or _DELETE, exact reject reason):
# one row per branch of the path-reporting checks, at every level.
REJECTS = [
    # dialogue
    ((), [], "dialogue: expected object"),
    (("id",), _DELETE, "dialogue: missing field 'id'"),
    (("id",), 7, "dialogue.id: expected string, got int"),
    (("language",), _DELETE, "dialogue: missing field 'language'"),
    (("language",), None, "dialogue.language: expected string, got NoneType"),
    (("language",), "klingon", f"dialogue.language: 'klingon' not one of {_LANGS}"),
    (("source",), _DELETE, "dialogue: missing field 'source'"),
    (("source",), "radio", "dialogue.source: 'radio' not one of ['real_life', 'synthetic', "
                           "'podcast', 'audiobook', 'short_utterance']"),
    (("quality_flags",), {}, "dialogue.quality_flags: expected array, got dict"),
    (("quality_flags",), None, "dialogue.quality_flags: expected array, got NoneType"),
    (("turns",), _DELETE, "dialogue: missing field 'turns'"),
    (("turns",), "t", "dialogue.turns: expected array, got str"),
    # flag
    (("quality_flags", 0), "clean", f"{_F0}: expected object"),
    (("quality_flags", 0, "kind"), _DELETE, f"{_F0}: missing field 'kind'"),
    (("quality_flags", 0, "kind"), 3, f"{_F0}.kind: expected string, got int"),
    (("quality_flags", 0, "kind"), "bogus", f"{_F0}.kind: 'bogus' not one of {_FLAGS}"),
    (("quality_flags", 0, "spans"), None, f"{_F0}.spans: expected array, got NoneType"),
    # flag span
    (("quality_flags", 0, "spans", 0), 1, f"{_F0}.spans[0]: expected array, got int"),
    (("quality_flags", 0, "spans", 0), [1], f"{_F0}.spans[0]: expected [turn_index, [start, end]]"),
    (("quality_flags", 0, "spans", 0, 0), "1", f"{_F0}.spans[0]: turn index must be an integer"),
    (("quality_flags", 0, "spans", 0, 0), True, f"{_F0}.spans[0]: turn index must be an integer"),
    (("quality_flags", 0, "spans", 0, 1), "0:2", f"{_F0}.spans[0][1]: expected array, got str"),
    (("quality_flags", 0, "spans", 0, 1), [0, 2.0], f"{_F0}.spans[0][1]: expected [int, int]"),
    (("quality_flags", 0, "spans", 0, 1), [0], f"{_F0}.spans[0][1]: expected [int, int]"),
    # turn
    (("turns", 0), None, f"{_T0}: expected object"),
    (("turns", 1, "role"), _DELETE, "dialogue.turns[1]: missing field 'role'"),
    (("turns", 0, "role"), 0, f"{_T0}.role: expected string, got int"),
    (("turns", 0, "role"), "system", f"{_T0}.role: 'system' not one of ['user', 'assistant']"),
    (("turns", 0, "speaker_id"), _DELETE, f"{_T0}: missing field 'speaker_id'"),
    (("turns", 0, "speaker_id"), 5, f"{_T0}.speaker_id: expected string, got int"),
    (("turns", 0, "text"), _DELETE, f"{_T0}: missing field 'text'"),
    (("turns", 0, "text"), ["hi"], f"{_T0}.text: expected string, got list"),
    (("turns", 0, "alignment"), {}, f"{_T0}.alignment: expected array, got dict"),
    (("turns", 0, "caption"), "calm", f"{_T0}.caption: expected object"),
    (("turns", 1, "caption"), {"prosody": []}, "dialogue.turns[1].caption.prosody: expected object"),
    # audio
    (("turns", 0, "audio"), [1, 2], f"{_T0}.audio: expected object"),
    (("turns", 0, "audio", "token_ids"), _DELETE, f"{_T0}.audio: missing field 'token_ids'"),
    (("turns", 0, "audio", "token_ids"), "12", f"{_T0}.audio.token_ids: expected array, got str"),
    (("turns", 0, "audio", "token_ids"), [1, "2"], f"{_T0}.audio.token_ids: expected integers"),
    (("turns", 0, "audio", "frame_rate_hz"), _DELETE, f"{_T0}.audio: missing field 'frame_rate_hz'"),
    (("turns", 0, "audio", "duration_s"), _DELETE, f"{_T0}.audio: missing field 'duration_s'"),
    (("turns", 0, "audio", "frame_rate_hz"), "12.5",
     f"{_T0}.audio: frame_rate_hz/duration_s must be numbers"),
    (("turns", 0, "audio", "duration_s"), None,
     f"{_T0}.audio: frame_rate_hz/duration_s must be numbers"),
    # alignment
    (("turns", 0, "alignment", 0), [0, 1], f"{_T0}.alignment[0]: expected object"),
    (("turns", 0, "alignment", 0, "index"), _DELETE, f"{_T0}.alignment[0]: missing field 'index'"),
    (("turns", 0, "alignment", 0, "index"), 0.0, f"{_T0}.alignment[0].index: expected integer"),
    (("turns", 0, "alignment", 0, "index"), False, f"{_T0}.alignment[0].index: expected integer"),
    (("turns", 0, "alignment", 0, "text_range"), _DELETE,
     f"{_T0}.alignment[0]: missing field 'text_range'"),
    (("turns", 0, "alignment", 0, "text_range"), "0-5",
     f"{_T0}.alignment[0].text_range: expected array, got str"),
    (("turns", 0, "alignment", 0, "text_range"), [0, 5, 6],
     f"{_T0}.alignment[0].text_range: expected [int, int]"),
    (("turns", 0, "alignment", 0, "audio_range"), _DELETE,
     f"{_T0}.alignment[0]: missing field 'audio_range'"),
    (("turns", 0, "alignment", 0, "audio_range"), [0, None],
     f"{_T0}.alignment[0].audio_range: expected [int, int]"),
    # items past the first: a second flag, span and alignment span, a third turn
    (("quality_flags", 1), None, f"{_F1}: expected object"),
    (("quality_flags", 1, "kind"), "severe", f"{_F1}.kind: 'severe' not one of {_FLAGS}"),
    (("quality_flags", 1, "spans"), "x", f"{_F1}.spans: expected array, got str"),
    (("quality_flags", 0, "spans", 1, 1), [2, "3"], f"{_F0}.spans[1][1]: expected [int, int]"),
    (("quality_flags", 1, "spans", 1), [], f"{_F1}.spans[1]: expected [turn_index, [start, end]]"),
    (("quality_flags", 1, "spans", 1, 0), 1.0, f"{_F1}.spans[1]: turn index must be an integer"),
    (("turns", 0, "alignment", 1), "x", f"{_T0}.alignment[1]: expected object"),
    (("turns", 1, "alignment", 1, "index"), "1", f"{_T1}.alignment[1].index: expected integer"),
    (("turns", 2, "alignment", 1, "text_range"), _DELETE,
     f"{_T2}.alignment[1]: missing field 'text_range'"),
    (("turns", 2, "alignment", 1, "audio_range"), [11, 22.0],
     f"{_T2}.alignment[1].audio_range: expected [int, int]"),
    (("turns", 2), [], f"{_T2}: expected object"),
    (("turns", 2, "speaker_id"), None, f"{_T2}.speaker_id: expected string, got NoneType"),
    (("turns", 2, "caption"), 1, f"{_T2}.caption: expected object"),
    (("turns", 2, "audio"), True, f"{_T2}.audio: expected object"),
    (("turns", 2, "audio", "token_ids"), _DELETE, f"{_T2}.audio: missing field 'token_ids'"),
    (("turns", 2, "audio", "token_ids"), [0, None], f"{_T2}.audio.token_ids: expected integers"),
    (("turns", 2, "audio", "frame_rate_hz"), [12.5],
     f"{_T2}.audio: frame_rate_hz/duration_s must be numbers"),
    (("turns", 2, "audio", "duration_s"), _DELETE, f"{_T2}.audio: missing field 'duration_s'"),
    (("turns", 2, "audio", "duration_s"), float("nan"),
     f"{_T2}.audio: frame_rate_hz/duration_s must be finite numbers"),
    (("turns", 2, "audio", "duration_s"), float("inf"),
     f"{_T2}.audio: frame_rate_hz/duration_s must be finite numbers"),
    (("turns", 2, "audio", "frame_rate_hz"), float("-inf"),
     f"{_T2}.audio: frame_rate_hz/duration_s must be finite numbers"),
]


def _mutant(keys, value, doc=None) -> dict:
    """doc (by default the base document) with the value at keys replaced or deleted."""
    doc = _base_doc() if doc is None else doc
    if not keys:
        return value
    target = doc
    for key in keys[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return doc


@pytest.mark.parametrize("keys, value, reason", REJECTS,
                         ids=[f"{'.'.join(map(str, k)) or 'doc'}={'del' if v is _DELETE else v!r}"
                              for k, v, _ in REJECTS])
def test_parse_reject_reason_is_exact(keys, value, reason):
    doc = _mutant(keys, value)
    assert corpus.parse_line(3, json.dumps(doc)) == corpus.Reject(3, reason)


def test_parse_reports_the_first_error_in_document_order():
    doc = _mutant(("turns", 1, "caption"), {"prosody": []})
    doc["turns"][0]["text"] = 5                   # an earlier turn fails first
    assert corpus.parse_line(1, json.dumps(doc)).reason == f"{_T0}.text: expected string, got int"
    doc["quality_flags"][0]["kind"] = "bogus"     # flags are checked before turns
    assert corpus.parse_line(1, json.dumps(doc)).reason.startswith(f"{_F0}.kind:")
    doc["id"] = None                              # and the dialogue fields before flags
    assert corpus.parse_line(1, json.dumps(doc)).reason == "dialogue.id: expected string, got NoneType"


@pytest.mark.parametrize("keys, value", [(("turns", 0, "text"), 5),
                                         (("turns", 1, "caption"), {"prosody": []})])
def test_parse_reject_reason_uses_the_given_path(keys, value):
    with pytest.raises(corpus.SchemaError) as err:
        corpus.parse_dialogue(_mutant(keys, value), path="line7")
    assert str(err.value).startswith("line7.turns[")


class _Str(str):
    pass


def _accepted_variants():
    """(document, expected dialogue) pairs outside the canonical serialized form."""
    base = _base_dialogue()
    out = []

    def variant(edit, expect):
        doc = _base_doc()
        edit(doc)
        d = copy.deepcopy(base)
        expect(d)
        out.append((doc, d))

    def set_audio(key, value):
        return lambda doc: doc["turns"][0]["audio"].__setitem__(key, value)

    for key, value in (("frame_rate_hz", True), ("frame_rate_hz", 25), ("duration_s", 0),
                       ("duration_s", False)):
        variant(set_audio(key, value),
                lambda d, key=key, value=value: setattr(d.turns[0].audio, key, float(value)))
    variant(set_audio("token_ids", []), lambda d: setattr(d.turns[0].audio, "token_ids", []))

    def extra_keys(doc):
        doc["extra"] = {"nested": [1]}
        doc["quality_flags"][0]["note"] = None
        doc["turns"][0]["lang"] = "en"
        doc["turns"][0]["audio"]["codec"] = "x"
        doc["turns"][0]["alignment"][0]["conf"] = 0.9
    variant(extra_keys, lambda d: None)

    def omit_optional(doc):
        del doc["quality_flags"]
        del doc["turns"][0]["alignment"]
        del doc["turns"][1]["audio"]
        doc["turns"][0]["caption"] = None
    variant(omit_optional, lambda d: (setattr(d, "quality_flags", []),
                                      setattr(d.turns[0], "alignment", []),
                                      setattr(d.turns[1], "audio", None)))

    def null_audio_and_no_spans(doc):
        doc["turns"][0]["audio"] = None
        del doc["quality_flags"][0]["spans"]
    variant(null_audio_and_no_spans, lambda d: (setattr(d.turns[0], "audio", None),
                                                setattr(d.quality_flags[0], "spans", [])))

    def captions(doc):
        doc["turns"][0]["caption"] = {"prosody": {"emotion": "Happy"}, "pathology": ["Hoarse"]}
        doc["turns"][1]["caption"] = {}
    variant(captions, lambda d: (
        setattr(d.turns[0], "caption", CaptionRecord(emotion="Happy", vocal_pathology=("Hoarse",))),
        setattr(d.turns[1], "caption", CaptionRecord())))

    def str_subclasses(doc):
        doc["id"] = _Str("d")
        doc["language"] = _Str("en")
        doc["turns"][0]["text"] = _Str(doc["turns"][0]["text"])
        doc["quality_flags"][0]["kind"] = _Str(doc["quality_flags"][0]["kind"])
    variant(str_subclasses, lambda d: None)

    def dict_subclasses(doc):
        doc["turns"][1] = collections.OrderedDict(doc["turns"][1])
        doc["turns"][0]["audio"] = collections.OrderedDict(doc["turns"][0]["audio"])
    variant(dict_subclasses, lambda d: None)
    return out


def test_parse_accepts_the_documented_variants():
    for doc, expected in _accepted_variants():
        assert corpus.parse_dialogue(doc) == expected, doc
        assert corpus.parse_dialogue(collections.OrderedDict(doc)) == expected


@pytest.mark.parametrize("kwargs", [
    {}, {"with_captions": True, "flag_kind": "logic_contradiction_severe"},
    {"n_turns": 4, "segments_per_assistant": 1, "flag_kind": "missing_context",
     "truncate_first_turn": True},
    {"n_turns": 3, "with_audio": False, "flag_kind": "clean", "language": "zh",
     "source": "podcast"},
    {"n_turns": 1, "flag_kind": "logic_contradiction_correctable", "language": "other"},
])
def test_parse_of_a_serialized_corpus_builds_equal_objects(kwargs):
    for d in synthetic.synth_corpus(40, 23, **kwargs):
        doc = json.loads(corpus.serialize_dialogue(d))
        parsed = corpus.parse_dialogue(doc)
        assert parsed == d
        assert type(parsed.turns[0].alignment) is list
        if parsed.turns[0].audio is not None:
            assert type(parsed.turns[0].audio.frame_rate_hz) is float


# --------------------------------------------------------------------------
# seeded mutation table: outcomes frozen as committed literals
# --------------------------------------------------------------------------

_MUTANT_SHAPES = (
    {"n_turns": 3, "with_captions": True, "flag_kind": "logic_contradiction_severe"},
    {"n_turns": 4, "segments_per_assistant": 2, "flag_kind": "missing_context",
     "truncate_first_turn": True},
    {"n_turns": 2, "with_audio": False, "flag_kind": "clean", "language": "zh"},
    {"n_turns": 2, "flag_kind": "logic_contradiction_correctable"},
)
_SWAPS = (None, True, 7, 2.5, "x", [], {})


def _mutant_source(n: int) -> dict:
    """The synthetic document that mutant n starts from."""
    k = n % len(_MUTANT_SHAPES)
    return corpus.dialogue_to_dict(synthetic.synth_dialogue(41, k, **_MUTANT_SHAPES[k]))


def _draw_mutation(rng: random.Random, doc) -> tuple[tuple, object]:
    """A random path into doc, and _DELETE or a value of another JSON type to put there.

    Only the first three items of a list are sites, so token ids do not crowd out the rest.
    """
    sites = []

    def walk(node, keys):
        if type(node) is dict:
            items = node.items()
        else:
            items = enumerate(node[:3]) if type(node) is list else ()
        for key, child in items:
            sites.append((keys + (key,), child))
            walk(child, keys + (key,))
    walk(doc, ())
    keys, node = rng.choice(sites)
    if rng.random() < 0.3:
        return keys, _DELETE
    return keys, rng.choice([v for v in _SWAPS if type(v) is not type(node)])


def _parse_outcome(doc) -> str:
    """The reject reason, or a digest of the canonical line of the parsed dialogue."""
    item = corpus.parse_line(1, json.dumps(doc))
    if isinstance(item, corpus.Reject):
        return item.reason
    line = corpus.serialize_dialogue(item).encode("utf-8")
    return "sha256:" + hashlib.sha256(line).hexdigest()[:16]


_MUTANT_SEED = 10
# (keys, value, outcome) of the draws from random.Random(_MUTANT_SEED), in order.
MUTANTS = [
    (('quality_flags', 0, 'spans', 0, 0), [],
     'dialogue.quality_flags[0].spans[0]: turn index must be an integer'),
    (('language',), _DELETE, "dialogue: missing field 'language'"),
    (('turns', 1, 'speaker_id'), {}, 'dialogue.turns[1].speaker_id: expected string, got dict'),
    (('turns', 0, 'audio', 'token_ids', 1), _DELETE, 'sha256:00b8a45cad55ea0f'),
    (('turns', 2, 'caption', 'prosody', 'tone'), 7,
     'dialogue.turns[2].caption.prosody.tone: expected string or null, got int'),
    (('turns', 1, 'audio', 'token_ids'), _DELETE,
     "dialogue.turns[1].audio: missing field 'token_ids'"),
    (('quality_flags', 0), 2.5, 'dialogue.quality_flags[0]: expected object'),
    (('turns', 1, 'alignment', 1), _DELETE, 'sha256:44db60342d2b7ee0'),
    (('turns', 1, 'alignment', 0, 'index'), {},
     'dialogue.turns[1].alignment[0].index: expected integer'),
    (('turns', 0, 'alignment', 1, 'audio_range', 0), True,
     'dialogue.turns[0].alignment[1].audio_range: expected [int, int]'),
    (('turns', 1, 'role'), True, 'dialogue.turns[1].role: expected string, got bool'),
    (('turns', 1, 'alignment', 1, 'text_range', 1), None,
     'dialogue.turns[1].alignment[1].text_range: expected [int, int]'),
    (('language',), _DELETE, "dialogue: missing field 'language'"),
    (('turns', 0, 'alignment'), 7, 'dialogue.turns[0].alignment: expected array, got int'),
    (('turns', 1, 'alignment'), True, 'dialogue.turns[1].alignment: expected array, got bool'),
    (('turns', 1, 'audio', 'token_ids', 1), 'x',
     'dialogue.turns[1].audio.token_ids: expected integers'),
    (('turns', 2, 'alignment', 0), [], 'dialogue.turns[2].alignment[0]: expected object'),
    (('turns', 2, 'alignment', 0, 'text_range'), 'x',
     'dialogue.turns[2].alignment[0].text_range: expected array, got str'),
    (('quality_flags', 0, 'kind'), 2.5,
     'dialogue.quality_flags[0].kind: expected string, got float'),
    (('turns', 0, 'alignment', 0, 'audio_range', 0), _DELETE,
     'dialogue.turns[0].alignment[0].audio_range: expected [int, int]'),
    (('turns', 2, 'caption', 'paralinguistics'), 'x',
     'dialogue.turns[2].caption.paralinguistics: expected object'),
    (('turns', 2, 'alignment', 1, 'text_range', 1), _DELETE,
     'dialogue.turns[2].alignment[1].text_range: expected [int, int]'),
    (('source',), _DELETE, "dialogue: missing field 'source'"),
    (('turns', 1, 'alignment', 0, 'text_range', 0), True,
     'dialogue.turns[1].alignment[0].text_range: expected [int, int]'),
    (('turns', 0, 'alignment', 0, 'text_range', 1), None,
     'dialogue.turns[0].alignment[0].text_range: expected [int, int]'),
    (('turns', 1, 'alignment', 0, 'text_range', 1), _DELETE,
     'dialogue.turns[1].alignment[0].text_range: expected [int, int]'),
    (('quality_flags', 0, 'spans'), 2.5,
     'dialogue.quality_flags[0].spans: expected array, got float'),
    (('turns', 1, 'alignment', 1), [], 'dialogue.turns[1].alignment[1]: expected object'),
    (('turns', 1, 'alignment', 1, 'text_range', 0), _DELETE,
     'dialogue.turns[1].alignment[1].text_range: expected [int, int]'),
    (('turns', 2, 'audio', 'token_ids'), _DELETE,
     "dialogue.turns[2].audio: missing field 'token_ids'"),
    (('quality_flags',), _DELETE, 'sha256:ced662ecbfb699ec'),
    (('turns', 1, 'audio', 'token_ids'), _DELETE,
     "dialogue.turns[1].audio: missing field 'token_ids'"),
    (('turns', 0, 'caption', 'pathology'), 2.5,
     'dialogue.turns[0].caption.pathology: expected array of strings'),
    (('turns', 1, 'text'), True, 'dialogue.turns[1].text: expected string, got bool'),
    (('id',), None, 'dialogue.id: expected string, got NoneType'),
    (('turns', 1, 'audio', 'frame_rate_hz'), True, 'sha256:28fcbdb3799a4cc3'),
    (('turns', 0, 'audio', 'token_ids', 1), _DELETE, 'sha256:1bee7caab4174ed8'),
    (('turns', 1, 'audio', 'duration_s'), 'x',
     'dialogue.turns[1].audio: frame_rate_hz/duration_s must be numbers'),
    (('turns', 1, 'speaker_id'), True, 'dialogue.turns[1].speaker_id: expected string, got bool'),
    (('turns', 1, 'alignment', 2, 'audio_range', 1), 2.5,
     'dialogue.turns[1].alignment[2].audio_range: expected [int, int]'),
    (('turns', 2, 'caption', 'environment', 'sound_events'), 2.5,
     'dialogue.turns[2].caption.environment.sound_events: expected array of strings'),
    (('quality_flags', 0, 'spans', 0, 0), _DELETE,
     'dialogue.quality_flags[0].spans[0]: expected [turn_index, [start, end]]'),
    (('turns', 1, 'role'), True, 'dialogue.turns[1].role: expected string, got bool'),
    (('turns', 1, 'alignment', 1), 7, 'dialogue.turns[1].alignment[1]: expected object'),
    (('turns', 2), True, 'dialogue.turns[2]: expected object'),
    (('turns', 2, 'audio', 'duration_s'), 'x',
     'dialogue.turns[2].audio: frame_rate_hz/duration_s must be numbers'),
    (('language',), 2.5, 'dialogue.language: expected string, got float'),
    (('turns', 1, 'alignment', 2, 'index'), _DELETE,
     "dialogue.turns[1].alignment[2]: missing field 'index'"),
    (('turns', 1, 'caption', 'prosody', 'emotion'), _DELETE, 'sha256:c184fc9409ec3d9f'),
    (('turns', 0), 2.5, 'dialogue.turns[0]: expected object'),
    (('quality_flags', 0), 2.5, 'dialogue.quality_flags[0]: expected object'),
    (('turns', 1, 'alignment', 2, 'text_range', 1), 2.5,
     'dialogue.turns[1].alignment[2].text_range: expected [int, int]'),
    (('turns', 1, 'alignment', 0, 'audio_range', 1), {},
     'dialogue.turns[1].alignment[0].audio_range: expected [int, int]'),
    (('turns', 1, 'alignment', 0, 'audio_range', 0), {},
     'dialogue.turns[1].alignment[0].audio_range: expected [int, int]'),
    (('turns', 1, 'text'), True, 'dialogue.turns[1].text: expected string, got bool'),
    (('turns', 0, 'alignment', 0, 'audio_range', 0), None,
     'dialogue.turns[0].alignment[0].audio_range: expected [int, int]'),
    (('turns', 1, 'speaker_id'), [], 'dialogue.turns[1].speaker_id: expected string, got list'),
    (('turns', 2, 'alignment', 0), 2.5, 'dialogue.turns[2].alignment[0]: expected object'),
    (('id',), 7, 'dialogue.id: expected string, got int'),
    (('turns', 1, 'alignment', 1, 'text_range', 0), True,
     'dialogue.turns[1].alignment[1].text_range: expected [int, int]'),
    (('turns', 1, 'alignment', 1, 'audio_range', 1), None,
     'dialogue.turns[1].alignment[1].audio_range: expected [int, int]'),
    (('turns', 2, 'alignment', 0, 'text_range', 1), None,
     'dialogue.turns[2].alignment[0].text_range: expected [int, int]'),
    (('turns', 0, 'role'), _DELETE, "dialogue.turns[0]: missing field 'role'"),
    (('turns', 1, 'alignment', 2), _DELETE, 'sha256:15a1fd3305829deb'),
    (('turns', 2, 'text'), True, 'dialogue.turns[2].text: expected string, got bool'),
    (('turns', 1, 'text'), _DELETE, "dialogue.turns[1]: missing field 'text'"),
    (('quality_flags', 0, 'spans'), None,
     'dialogue.quality_flags[0].spans: expected array, got NoneType'),
    (('turns', 1, 'audio', 'token_ids', 0), 'x',
     'dialogue.turns[1].audio.token_ids: expected integers'),
    (('turns', 2, 'caption', 'environment', 'sound_events'), 2.5,
     'dialogue.turns[2].caption.environment.sound_events: expected array of strings'),
    (('turns', 2, 'alignment', 1, 'audio_range'), True,
     'dialogue.turns[2].alignment[1].audio_range: expected array, got bool'),
    (('turns', 0), None, 'dialogue.turns[0]: expected object'),
    (('id',), _DELETE, "dialogue: missing field 'id'"),
    (('turns', 2, 'audio', 'token_ids'), {},
     'dialogue.turns[2].audio.token_ids: expected array, got dict'),
    (('turns', 0, 'alignment', 0), _DELETE, 'sha256:9f4f2332e8a26aab'),
    (('turns', 1), None, 'dialogue.turns[1]: expected object'),
    (('turns', 1, 'alignment'), _DELETE, 'sha256:93e39b8fd67c7afc'),
    (('turns', 2, 'alignment', 0, 'audio_range', 0), True,
     'dialogue.turns[2].alignment[0].audio_range: expected [int, int]'),
    (('turns', 2, 'alignment', 0, 'index'), 'x',
     'dialogue.turns[2].alignment[0].index: expected integer'),
    (('turns', 0, 'role'), [], 'dialogue.turns[0].role: expected string, got list'),
    (('turns', 1), [], 'dialogue.turns[1]: expected object'),
    (('turns', 1, 'caption', 'speaker_profile', 'accent'), 2.5,
     'dialogue.turns[1].caption.speaker_profile.accent: expected string or null, got float'),
    (('turns', 2), 2.5, 'dialogue.turns[2]: expected object'),
    (('turns', 1, 'speaker_id'), _DELETE, "dialogue.turns[1]: missing field 'speaker_id'"),
    (('turns', 1, 'alignment', 0, 'text_range'), 2.5,
     'dialogue.turns[1].alignment[0].text_range: expected array, got float'),
    (('turns', 0, 'caption', 'paralinguistics', 'affective_burst'), 2.5,
     'dialogue.turns[0].caption.paralinguistics.affective_burst: expected array of strings'),
    (('turns', 2, 'alignment'), _DELETE, 'sha256:603006ddf5646ded'),
    (('turns', 0, 'role'), _DELETE, "dialogue.turns[0]: missing field 'role'"),
    (('turns', 1, 'audio', 'token_ids', 2), None,
     'dialogue.turns[1].audio.token_ids: expected integers'),
    (('turns', 2, 'speaker_id'), 7, 'dialogue.turns[2].speaker_id: expected string, got int'),
    (('turns', 2, 'alignment', 0, 'audio_range'), _DELETE,
     "dialogue.turns[2].alignment[0]: missing field 'audio_range'"),
    (('quality_flags', 0, 'kind'), [],
     'dialogue.quality_flags[0].kind: expected string, got list'),
    (('quality_flags', 0, 'spans'), _DELETE, 'sha256:7f370c68673134f2'),
    (('turns', 0, 'audio', 'token_ids'), True,
     'dialogue.turns[0].audio.token_ids: expected array, got bool'),
    (('turns', 2, 'alignment'), 2.5, 'dialogue.turns[2].alignment: expected array, got float'),
    (('id',), 7, 'dialogue.id: expected string, got int'),
    (('turns', 0, 'alignment'), 'x', 'dialogue.turns[0].alignment: expected array, got str'),
    (('turns', 1, 'alignment', 2, 'index'), {},
     'dialogue.turns[1].alignment[2].index: expected integer'),
    (('turns', 2, 'alignment', 1, 'index'), None,
     'dialogue.turns[2].alignment[1].index: expected integer'),
    (('turns', 0, 'text'), 2.5, 'dialogue.turns[0].text: expected string, got float'),
    (('turns', 1, 'audio', 'token_ids', 2), True,
     'dialogue.turns[1].audio.token_ids: expected integers'),
    (('turns', 0, 'caption', 'prosody', 'speech_rate'), _DELETE, 'sha256:668b11bb50e5b96e'),
    (('turns', 1, 'text'), None, 'dialogue.turns[1].text: expected string, got NoneType'),
    (('turns', 1, 'alignment'), 7, 'dialogue.turns[1].alignment: expected array, got int'),
    (('quality_flags', 0, 'spans', 0, 1, 1), [],
     'dialogue.quality_flags[0].spans[0][1]: expected [int, int]'),
    (('turns', 1, 'caption', 'prosody', 'emotion'), _DELETE, 'sha256:c184fc9409ec3d9f'),
    (('turns', 1, 'alignment', 0, 'text_range', 1), [],
     'dialogue.turns[1].alignment[0].text_range: expected [int, int]'),
    (('turns', 1, 'role'), [], 'dialogue.turns[1].role: expected string, got list'),
    (('turns', 0, 'audio', 'frame_rate_hz'), 'x',
     'dialogue.turns[0].audio: frame_rate_hz/duration_s must be numbers'),
    (('turns', 1, 'caption', 'speaker_profile', 'accent'), [],
     'dialogue.turns[1].caption.speaker_profile.accent: expected string or null, got list'),
    (('turns', 1, 'alignment', 0, 'audio_range', 0), None,
     'dialogue.turns[1].alignment[0].audio_range: expected [int, int]'),
    (('turns', 1), None, 'dialogue.turns[1]: expected object'),
    (('turns', 0, 'audio', 'duration_s'), True, 'sha256:d4b5c2d441cbf793'),
    (('turns', 2, 'audio', 'duration_s'), 7, 'sha256:861bfefe7a00cdd1'),
    (('turns', 2, 'audio', 'duration_s'), None,
     'dialogue.turns[2].audio: frame_rate_hz/duration_s must be numbers'),
    (('language',), _DELETE, "dialogue: missing field 'language'"),
    (('turns', 0, 'alignment', 0, 'text_range', 1), _DELETE,
     'dialogue.turns[0].alignment[0].text_range: expected [int, int]'),
    (('turns', 0, 'caption', 'environment'), _DELETE, 'sha256:889b1b90b35a7c37'),
    (('turns', 2, 'alignment'), True, 'dialogue.turns[2].alignment: expected array, got bool'),
    (('turns', 0, 'role'), None, 'dialogue.turns[0].role: expected string, got NoneType'),
    (('turns', 1, 'alignment', 0, 'audio_range', 0), 'x',
     'dialogue.turns[1].alignment[0].audio_range: expected [int, int]'),
]


def test_mutation_table_is_the_seeded_draw():
    rng = random.Random(_MUTANT_SEED)
    assert [_draw_mutation(rng, _mutant_source(n)) for n in range(len(MUTANTS))] == [
        (keys, value) for keys, value, _ in MUTANTS]


@pytest.mark.parametrize("n", range(len(MUTANTS)),
                         ids=[f"{n}:{'.'.join(map(str, m[0]))}" for n, m in enumerate(MUTANTS)])
def test_parse_of_a_mutant_is_frozen(n):
    keys, value, outcome = MUTANTS[n]
    assert _parse_outcome(_mutant(keys, value, _mutant_source(n))) == outcome


def test_parse_unreadable_file_raises(tmp_path):
    with pytest.raises(OSError):
        map_corpus(tmp_path / "missing.jsonl")


def test_parse_serialize_parse_identity(corpus_file):
    dialogues = synthetic.synth_corpus(20, 11, with_captions=True,
                                       flag_kind="logic_contradiction_severe")
    path = corpus_file(dialogues)
    _, first, _ = map_corpus(path)
    lines1 = [corpus.serialize_dialogue(d) for d in first]
    reparsed = [corpus.parse_dialogue(json.loads(line)) for line in lines1]
    lines2 = [corpus.serialize_dialogue(d) for d in reparsed]
    assert lines1 == lines2
    assert [d.id for d in reparsed] == [d.id for d in dialogues]


def test_serialized_key_order_is_canonical():
    line = corpus.serialize_dialogue(make_dialogue("d9"))
    doc = json.loads(line)
    assert list(doc) == ["id", "language", "source", "quality_flags", "turns"]
    assert list(doc["turns"][0]) == ["role", "speaker_id", "text", "audio", "alignment"]
    assert list(doc["turns"][0]["audio"]) == ["token_ids", "frame_rate_hz", "duration_s"]


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_validate_clean_dialogue_is_empty():
    assert validate_dialogue(make_dialogue()).ok


def test_validate_overlapping_alignment_spans():
    turn = make_turn("assistant", text="a" * 8)
    turn.alignment = [AlignmentSpan((0, 5), (0, 5), 0), AlignmentSpan((3, 8), (5, 10), 1)]
    d = Dialogue(id="d", turns=[make_turn("user"), turn])
    report = validate_dialogue(d)
    assert not report.ok
    assert any("turns[1].alignment[1]" in v.path and "overlap" in v.message
               for v in report.violations)


def test_validate_assistant_first_order():
    d = Dialogue(id="d", turns=[make_turn("assistant"), make_turn("user")])
    report = validate_dialogue(d)
    assert any("role alternation" in v.message for v in report.violations)


def test_validate_token_duration_bound():
    turn = make_turn("user")
    turn.audio.duration_s = turn.audio.duration_s + 10.0
    d = Dialogue(id="d", turns=[turn])
    report = validate_dialogue(d)
    assert any("rounding bound" in v.message for v in report.violations)


def test_validate_reports_a_duration_too_long_to_count():
    d = make_dialogue("d")
    d.turns[0].audio.duration_s = 1e308
    assert [str(v) for v in validate_dialogue(d).violations] == [
        "turns[0].audio: duration 1e+308 s at 12.5 Hz is too many tokens to count"]


def test_validate_flag_rules():
    d = make_dialogue("d")
    d.quality_flags = [QualityFlag(kind="logic_contradiction_severe", spans=[])]
    assert any("at least one span" in v.message
               for v in validate_dialogue(d).violations)
    d.quality_flags = [QualityFlag(kind="clean", spans=[(0, (0, 2))])]
    assert any("must not carry spans" in v.message
               for v in validate_dialogue(d).violations)


def test_validate_checks_captions_against_the_taxonomy():
    d = make_dialogue("d")
    d.turns[1].caption = CaptionRecord(emotion="Happy", vocalizations=("laugh", "Sighing"))
    report = validate_dialogue(d)
    assert [str(v) for v in report.violations] == [
        "turns[1].caption.vocalizations[1]: tag 'laugh' not in Vocalizations vocabulary"]


# Texts the seeded mutants below never draw, each on a fixed two-turn dialogue
# whose assistant turn has spans [0,5)/[0,11) and [5,11)/[11,22).
FIXED_MUTANTS = [
    (lambda d: setattr(d.turns[0].audio, "frame_rate_hz", 0.0), [
        "turns[0].audio.frame_rate_hz: frame rate must be > 0",
        "turns[0].audio: token count 22 vs duration-derived 0 exceeds the +/-1 rounding bound"]),
    (lambda d: setattr(d.turns[0].audio, "duration_s", -1.0),
     ["turns[0].audio.duration_s: duration must be >= 0"]),
    (lambda d: setattr(d.turns[1].alignment[1], "text_range", (11, 11)), [
        "turns[1].alignment[1].text_range: text range must be non-empty",
        "turns[1].alignment[1].text_range: gap after previous span ending at 5"]),
    (lambda d: setattr(d.turns[1].alignment[1], "audio_range", (22, 11)),
     ["turns[1].alignment[1].audio_range: malformed range [22,11)"]),
    (lambda d: setattr(d.turns[1], "audio", None), [
        "turns[1].alignment[0].audio_range: non-empty audio range on a turn without audio",
        "turns[1].alignment[1].audio_range: non-empty audio range on a turn without audio"]),
    (lambda d: setattr(d.turns[1].alignment[1], "audio_range", (5, 22)),
     ["turns[1].alignment[1].audio_range: audio ranges must be monotonically increasing"]),
    (lambda d: setattr(d, "id", ""), ["id: empty id"]),
]


@pytest.mark.parametrize("mutate, expected", FIXED_MUTANTS,
                         ids=["frame-rate", "duration", "empty-text-range", "malformed-audio",
                              "audio-range-without-audio", "audio-not-monotonic", "empty-id"])
def test_fixed_mutant_violation_texts(mutate, expected):
    d = make_dialogue("d", n_turns=2, n_segments=2)
    assert validate_dialogue(d).ok
    mutate(d)
    assert [str(v) for v in validate_dialogue(d).violations] == expected


# --------------------------------------------------------------------------
# seeded semantic mutants: violation lists frozen as committed literals
# --------------------------------------------------------------------------

_SEMANTIC_SHAPES = (
    {"n_turns": 3, "with_captions": True, "flag_kind": "logic_contradiction_severe"},
    {"n_turns": 4, "segments_per_assistant": 2, "flag_kind": "logic_contradiction_correctable"},
    {"n_turns": 2, "with_captions": True, "flag_kind": "clean", "language": "zh"},
)


def _semantic_source(n: int) -> Dialogue:
    """The valid synthetic dialogue that semantic mutant n starts from."""
    return synthetic.synth_dialogue(43, n, **_SEMANTIC_SHAPES[n % len(_SEMANTIC_SHAPES)])


def _shift_text_range(span: AlignmentSpan, ds: int, de: int) -> None:
    span.text_range = (span.text_range[0] + ds, span.text_range[1] + de)


def _swap_roles(d: Dialogue, i: int) -> None:
    d.turns[i].role, d.turns[i + 1].role = d.turns[i + 1].role, d.turns[i].role


def _bad_caption(d: Dialogue, i: int) -> None:
    caption = d.turns[i].caption or CaptionRecord()
    d.turns[i].caption = dataclasses.replace(caption, emotion="Bored")


def _flag_span(span):
    def add(d: Dialogue, i: int) -> None:
        d.quality_flags.append(QualityFlag("logic_contradiction_correctable", [span(d, i)]))
    return add


# kind -> (mutation of turn i, whether turn i of a dialogue can take it)
_SEMANTIC_KINDS = {
    "swap_roles": (_swap_roles, lambda d, i: i + 1 < len(d.turns)),
    "overlap": (lambda d, i: _shift_text_range(d.turns[i].alignment[1], -1, 0),
                lambda d, i: len(d.turns[i].alignment) > 1),
    "gap": (lambda d, i: _shift_text_range(d.turns[i].alignment[1], 1, 0),
            lambda d, i: len(d.turns[i].alignment) > 1),
    "text_beyond": (lambda d, i: _shift_text_range(d.turns[i].alignment[-1], 0, 3),
                    lambda d, i: True),
    "audio_beyond": (lambda d, i: setattr(d.turns[i].alignment[-1], "audio_range",
                                          (d.turns[i].alignment[-1].audio_range[0],
                                           d.turns[i].audio.n_tokens + 2)),
                     lambda d, i: True),
    "negative_token": (lambda d, i: setattr(d.turns[i].audio, "token_ids",
                                            [-1, *d.turns[i].audio.token_ids[1:]]),
                       lambda d, i: True),
    "duration": (lambda d, i: setattr(d.turns[i].audio, "duration_s",
                                      d.turns[i].audio.duration_s + 1.0),
                 lambda d, i: True),
    "flag_turn": (_flag_span(lambda d, i: (len(d.turns) + i, (0, 1))), lambda d, i: True),
    "flag_range": (_flag_span(lambda d, i: (i, (3, 1))), lambda d, i: True),
    "caption_tag": (_bad_caption, lambda d, i: True),
}


def _draw_semantic(rng: random.Random, d: Dialogue) -> tuple:
    """One or two (kind, turn index) mutations that d can take."""
    draws = []
    for _ in range(rng.choice((1, 1, 2))):
        kind = rng.choice(sorted(_SEMANTIC_KINDS))
        fits = _SEMANTIC_KINDS[kind][1]
        draws.append((kind, rng.choice([i for i in range(len(d.turns)) if fits(d, i)])))
    return tuple(draws)


def _semantic_violations(n: int, draws) -> list[str]:
    d = _semantic_source(n)
    for kind, i in draws:
        _SEMANTIC_KINDS[kind][0](d, i)
    return [str(v) for v in validate_dialogue(d).violations]


_SEMANTIC_SEED = 1
# (mutations, violations) of the draws from random.Random(_SEMANTIC_SEED), in order.
SEMANTIC_MUTANTS = [
    ((('text_beyond', 0),), [
        'turns[0].alignment[0].text_range: range [0,26) outside text of length 23',
        'turns[0].alignment: spans cover [0,26) but text has length 23',
    ]),
    ((('caption_tag', 3),), [
        "turns[3].caption.emotion: tag 'Bored' not in Emotion vocabulary",
    ]),
    ((('overlap', 1),), [
        'turns[1].alignment[1].text_range: overlaps previous span ending at 13',
    ]),
    ((('caption_tag', 1),), [
        "turns[1].caption.emotion: tag 'Bored' not in Emotion vocabulary",
    ]),
    ((('negative_token', 3),), [
        'turns[3].audio.token_ids: token ids must be >= 0',
    ]),
    ((('audio_beyond', 1), ('flag_turn', 0)), [
        'turns[1].alignment[2].audio_range: range end 88 beyond 86 tokens',
        'quality_flags[1].spans[0]: turn index 2 out of range',
    ]),
    ((('caption_tag', 1), ('audio_beyond', 0)), [
        'turns[0].alignment[0].audio_range: range end 84 beyond 82 tokens',
        "turns[1].caption.emotion: tag 'Bored' not in Emotion vocabulary",
    ]),
    ((('swap_roles', 0),), [
        "turns[0].role: role alternation violated: expected 'user', got 'assistant'",
        "turns[1].role: role alternation violated: expected 'assistant', got 'user'",
    ]),
    ((('flag_range', 1),), [
        'quality_flags[1].spans[0]: text range [3,1) invalid for turn of length 32',
    ]),
    ((('audio_beyond', 2), ('flag_range', 1)), [
        'turns[2].alignment[0].audio_range: range end 86 beyond 84 tokens',
        'quality_flags[1].spans[0]: text range [3,1) invalid for turn of length 47',
    ]),
    ((('swap_roles', 0),), [
        "turns[0].role: role alternation violated: expected 'user', got 'assistant'",
        "turns[1].role: role alternation violated: expected 'assistant', got 'user'",
    ]),
    ((('flag_range', 0),), [
        'quality_flags[1].spans[0]: text range [3,1) invalid for turn of length 37',
    ]),
    ((('flag_turn', 0),), [
        'quality_flags[1].spans[0]: turn index 3 out of range',
    ]),
    ((('swap_roles', 2),), [
        "turns[2].role: role alternation violated: expected 'user', got 'assistant'",
        "turns[3].role: role alternation violated: expected 'assistant', got 'user'",
    ]),
    ((('duration', 1),), [
        'turns[1].audio: token count 50 vs duration-derived 63 exceeds the +/-1 rounding bound',
    ]),
    ((('gap', 1),), [
        'turns[1].alignment[1].text_range: gap after previous span ending at 11',
    ]),
    ((('flag_range', 2), ('flag_turn', 3)), [
        'quality_flags[1].spans[0]: text range [3,1) invalid for turn of length 36',
        'quality_flags[2].spans[0]: turn index 7 out of range',
    ]),
    ((('negative_token', 0), ('overlap', 1)), [
        'turns[0].audio.token_ids: token ids must be >= 0',
        'turns[1].alignment[1].text_range: overlaps previous span ending at 16',
    ]),
    ((('negative_token', 1), ('duration', 1)), [
        'turns[1].audio.token_ids: token ids must be >= 0',
        'turns[1].audio: token count 60 vs duration-derived 73 exceeds the +/-1 rounding bound',
    ]),
    ((('gap', 1), ('overlap', 1)), [
    ]),
    ((('swap_roles', 0),), [
        "turns[0].role: role alternation violated: expected 'user', got 'assistant'",
        "turns[1].role: role alternation violated: expected 'assistant', got 'user'",
    ]),
    ((('overlap', 1),), [
        'turns[1].alignment[1].text_range: overlaps previous span ending at 7',
    ]),
    ((('audio_beyond', 2),), [
        'turns[2].alignment[0].audio_range: range end 58 beyond 56 tokens',
    ]),
    ((('text_beyond', 1), ('duration', 0)), [
        'turns[0].audio: token count 66 vs duration-derived 79 exceeds the +/-1 rounding bound',
        'turns[1].alignment[2].text_range: range [20,34) outside text of length 31',
        'turns[1].alignment: spans cover [0,34) but text has length 31',
    ]),
    ((('flag_range', 0), ('flag_range', 2)), [
        'quality_flags[1].spans[0]: text range [3,1) invalid for turn of length 38',
        'quality_flags[2].spans[0]: text range [3,1) invalid for turn of length 42',
    ]),
    ((('flag_range', 3), ('swap_roles', 1)), [
        "turns[1].role: role alternation violated: expected 'assistant', got 'user'",
        "turns[2].role: role alternation violated: expected 'user', got 'assistant'",
        'quality_flags[1].spans[0]: text range [3,1) invalid for turn of length 30',
    ]),
    ((('gap', 1), ('flag_turn', 0)), [
        'turns[1].alignment[1].text_range: gap after previous span ending at 15',
        'quality_flags[1].spans[0]: turn index 2 out of range',
    ]),
    ((('swap_roles', 0),), [
        "turns[0].role: role alternation violated: expected 'user', got 'assistant'",
        "turns[1].role: role alternation violated: expected 'assistant', got 'user'",
    ]),
    ((('swap_roles', 0), ('negative_token', 0)), [
        "turns[0].role: role alternation violated: expected 'user', got 'assistant'",
        'turns[0].audio.token_ids: token ids must be >= 0',
        "turns[1].role: role alternation violated: expected 'assistant', got 'user'",
    ]),
    ((('gap', 1),), [
        'turns[1].alignment[1].text_range: gap after previous span ending at 15',
    ]),
    ((('negative_token', 1), ('gap', 1)), [
        'turns[1].audio.token_ids: token ids must be >= 0',
        'turns[1].alignment[1].text_range: gap after previous span ending at 14',
    ]),
    ((('audio_beyond', 2),), [
        'turns[2].alignment[0].audio_range: range end 44 beyond 42 tokens',
    ]),
    ((('text_beyond', 0),), [
        'turns[0].alignment[0].text_range: range [0,45) outside text of length 42',
        'turns[0].alignment: spans cover [0,45) but text has length 42',
    ]),
    ((('duration', 2),), [
        'turns[2].audio: token count 60 vs duration-derived 73 exceeds the +/-1 rounding bound',
    ]),
    ((('duration', 0), ('swap_roles', 1)), [
        'turns[0].audio: token count 72 vs duration-derived 85 exceeds the +/-1 rounding bound',
        "turns[1].role: role alternation violated: expected 'assistant', got 'user'",
        "turns[2].role: role alternation violated: expected 'user', got 'assistant'",
    ]),
    ((('caption_tag', 0),), [
        "turns[0].caption.emotion: tag 'Bored' not in Emotion vocabulary",
    ]),
]


def test_semantic_mutant_table_is_the_seeded_draw():
    rng = random.Random(_SEMANTIC_SEED)
    assert [_draw_semantic(rng, _semantic_source(n)) for n in range(len(SEMANTIC_MUTANTS))] == [
        draws for draws, _ in SEMANTIC_MUTANTS]
    assert {kind for draws, _ in SEMANTIC_MUTANTS for kind, _ in draws} == set(_SEMANTIC_KINDS)


def test_semantic_sources_are_valid():
    for n in range(len(SEMANTIC_MUTANTS)):
        assert validate_dialogue(_semantic_source(n)).ok


@pytest.mark.parametrize("n", range(len(SEMANTIC_MUTANTS)), ids=[
    f"{n}:{'+'.join(kind for kind, _ in m[0])}" for n, m in enumerate(SEMANTIC_MUTANTS)])
def test_validate_of_a_semantic_mutant_is_frozen(n):
    draws, violations = SEMANTIC_MUTANTS[n]
    assert _semantic_violations(n, draws) == violations


# --------------------------------------------------------------------------
# brute-force invariant enumerator cross-check
# --------------------------------------------------------------------------

def _invariants_hold(d: Dialogue) -> bool:
    """Independent re-statement of every type invariant."""
    if not d.id or not d.turns:
        return False
    for i, t in enumerate(d.turns):
        if t.role != ("user" if i % 2 == 0 else "assistant"):
            return False
        if t.audio is not None:
            if any(tok < 0 for tok in t.audio.token_ids):
                return False
            if t.audio.frame_rate_hz <= 0 or t.audio.duration_s < 0:
                return False
            import math
            expected = math.floor(t.audio.duration_s * t.audio.frame_rate_hz + 0.5)
            if abs(len(t.audio.token_ids) - expected) > 1:
                return False
        if t.alignment:
            pos = 0
            prev_audio_end = 0
            n_tok = t.audio.n_tokens if t.audio else 0
            for k, s in enumerate(t.alignment):
                ts, te = s.text_range
                if s.index != k or ts != pos or te <= ts or te > len(t.text):
                    return False
                pos = te
                aus, aue = s.audio_range
                if aus > aue or aus < prev_audio_end or aus < 0:
                    return False
                if t.audio is not None and aue > n_tok:
                    return False
                if t.audio is None and aue != aus:
                    return False
                prev_audio_end = aue
            if pos != len(t.text):
                return False
    for f in d.quality_flags:
        if f.kind == "logic_contradiction_severe" and not f.spans:
            return False
        if f.kind == "clean" and f.spans:
            return False
        for ti, (s, e) in f.spans:
            if ti < 0 or ti >= len(d.turns):
                return False
            if s < 0 or s >= e or e > len(d.turns[ti].text):
                return False
    return True


def _mutate(d: Dialogue, rng: random.Random) -> Dialogue:
    kind = rng.randrange(8)
    if kind == 0 and len(d.turns) > 1:
        d.turns[1].role = "user"
    elif kind == 1:
        d.turns = []
    elif kind == 2 and d.turns[0].audio:
        d.turns[0].audio.token_ids = [-5, *d.turns[0].audio.token_ids[1:]]
    elif kind == 3 and d.turns[0].audio:
        d.turns[0].audio.duration_s += 3.0
    elif kind == 4 and d.turns[-1].alignment:
        span = d.turns[-1].alignment[0]
        span.text_range = (span.text_range[0], span.text_range[1] + 2)
    elif kind == 5:
        d.quality_flags.append(QualityFlag(kind="logic_contradiction_severe", spans=[]))
    elif kind == 6:
        d.quality_flags.append(QualityFlag(kind="missing_context", spans=[(99, (0, 1))]))
    elif kind == 7 and len(d.turns[-1].alignment) > 1:
        d.turns[-1].alignment[1].index = 7
    return d


def test_validate_matches_brute_force_enumerator():
    rng = random.Random(17)
    agreements = 0
    for n in range(300):
        d = synthetic.synth_dialogue(5, n, n_turns=rng.choice([1, 2, 3, 4]),
                                     segments_per_assistant=rng.choice([1, 2, 3]))
        if rng.random() < 0.6:
            d = _mutate(d, rng)
        assert validate_dialogue(d).ok == _invariants_hold(d), corpus.serialize_dialogue(d)
        agreements += 1
    assert agreements == 300
