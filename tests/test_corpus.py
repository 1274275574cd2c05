"""Corpus model: parsing, serialization, arithmetic, validation."""
import collections
import copy
import gc
import hashlib
import json
import random

import pytest

from seqforge import corpus
from seqforge.captions import CaptionRecord
from seqforge.corpus import (AlignmentSpan, AudioTokenSpan, Dialogue,
                             QualityFlag, Turn, downsample_frames,
                             parse_corpus, tokens_for_hours, validate_dialogue)
from seqforge import synthetic

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

def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    result = parse_corpus(path)
    assert result.dialogues == [] and result.rejects == []


def test_parse_single_valid_dialogue(corpus_file):
    path = corpus_file([make_dialogue("d1")])
    result = parse_corpus(path)
    assert len(result.dialogues) == 1
    assert result.rejects == []
    assert result.dialogues[0].id == "d1"
    assert [t.role for t in result.dialogues[0].turns] == ["user", "assistant"]


def test_parse_rejects_line_missing_turns(corpus_file):
    bad = json.dumps({"id": "broken", "language": "en", "source": "synthetic"})
    path = corpus_file([make_dialogue("ok")], extra_lines=[bad])
    result = parse_corpus(path)
    assert len(result.dialogues) == 1
    assert len(result.rejects) == 1
    assert result.rejects[0].line_number == 2
    assert "turns" in result.rejects[0].reason


def test_parse_records_the_line_of_each_dialogue(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [corpus.serialize_dialogue(make_dialogue("a")), "", "{not json",
             corpus.serialize_dialogue(make_dialogue("b"))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = parse_corpus(path)
    assert [d.id for d in result.dialogues] == ["a", "b"]
    assert result.line_numbers == [1, 4]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("content", [b"", b"{not json}\n", b'{"id": "\xff"}\n'])
def test_parse_corpus_restores_the_gc_state(tmp_path, enabled, content):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(content)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if b"\xff" in content:
            with pytest.raises(corpus.NotUtf8Error):
                parse_corpus(path)
        else:
            parse_corpus(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_parse_rejects_invalid_json_and_bad_enum(corpus_file):
    bad_enum = json.dumps({"id": "x", "language": "klingon", "source": "synthetic", "turns": []})
    path = corpus_file([], extra_lines=["{not json", bad_enum])
    result = parse_corpus(path)
    assert result.dialogues == []
    assert [r.line_number for r in result.rejects] == [1, 2]
    assert "language" in result.rejects[1].reason


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
        parse_corpus(tmp_path / "missing.jsonl")


def test_parse_serialize_parse_identity(corpus_file):
    dialogues = synthetic.synth_corpus(20, 11, with_captions=True,
                                       flag_kind="logic_contradiction_severe")
    path = corpus_file(dialogues)
    first = parse_corpus(path)
    lines1 = [corpus.serialize_dialogue(d) for d in first.dialogues]
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


def test_validate_corpus_duplicate_ids():
    report = corpus.validate_corpus([make_dialogue("same"), make_dialogue("same")])
    assert any("duplicate id" in v.message for v in report.violations)


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
        d.turns[0].audio.token_ids[0] = -5
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
