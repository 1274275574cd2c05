"""Every output line that clean and build-thinker write is pinned to
canonical_json of its dict form.

The form is the one the lines have always had: a corpus line is
canonical_json(corpus.dialogue_to_dict(d)), an outcome line
canonical_json(cleaning.outcome_to_dict(outcome)), and a thinker line the
canonical JSON of {dialogue_id, elements, manifest} with each speech element's
tokens as an array. The thinker form is rebuilt here from the interleave
rules (one seeded draw per user turn and per non-final assistant segment), so
it does not depend on how thinker.py renders. Each test asserts byte equality
over seeded synthetic corpora, captions, CJK and emoji, strings that need
escapes, turns without audio or alignment, int frame rates, masks, and
deferred and rejected outcomes with error provenance. A scan of the
package's source keeps the string encoder those renderers share inside
seqforge.manifest.
"""
import ast
import json
from pathlib import Path

import pytest

import seqforge
from seqforge import cleaning, corpus, thinker
from seqforge.captions import CaptionRecord, other
from seqforge.cli import _clean_record, _thinker_record
from seqforge.corpus import AlignmentSpan, AudioTokenSpan, Dialogue, QualityFlag, Turn
from seqforge.manifest import canonical_json, json_digest, json_number
from seqforge.seeding import DetRng, derive_seed

import synthetic
from conftest import FlakyClient, make_turn

FLAG_KINDS = (None, "clean", "logic_contradiction_correctable",
              "logic_contradiction_severe", "missing_context")
# Each character that canonical_json escapes, and some it writes as they are.
HOSTILE = 'q"b\\s/\x00\x01\x08\t\n\x0c\r\x1f\x7f\u2028\u2029 中文 😀 é'


def _ids(span: AudioTokenSpan) -> list[int]:
    # the ids as the serializers write them: decoded from ids_text, as token_ids is
    return json.loads(f"[{span.ids_text}]")


def _dict_line(d: Dialogue) -> str:
    doc = corpus.dialogue_to_dict(d, [])
    for turn, t in zip(doc["turns"], d.turns):
        if t.audio is not None:
            turn["audio"]["token_ids"] = _ids(t.audio)
    return canonical_json(doc)


def _thinker_form(d: Dialogue, policy, seed: int, masked_spans=None) -> dict:
    rng = DetRng(derive_seed(seed, d.id, "thinker"))
    masks: dict[int, list] = {}
    for turn_index, (s, e) in masked_spans or ():
        masks.setdefault(turn_index, []).append((s, e))
    elements = []
    for i, turn in enumerate(d.turns):
        if turn.role == "user":
            if rng.uniform() < policy.p_user_speech:
                elements.append({"modality": "speech", "role": "user",
                                 "tokens": _ids(turn.audio), "loss_target": False,
                                 "origin": [d.id, i, 0]})
            else:
                elements.append({"modality": "text", "role": "user", "text": turn.text,
                                 "loss_target": False, "origin": [d.id, i, 0]})
            continue
        spans = turn.alignment or [AlignmentSpan((0, len(turn.text)), (0, 0), 0)]
        for k, span in enumerate(spans):
            if k < len(spans) - 1 and rng.uniform() < policy.p_assistant_segment_speech:
                aus, aue = span.audio_range
                elements.append({"modality": "speech", "role": "assistant",
                                 "tokens": _ids(turn.audio)[aus:aue], "loss_target": False,
                                 "origin": [d.id, i, span.index]})
            else:
                ts, te = span.text_range
                masked = any(ts < me and ms < te for ms, me in masks.get(i, ()))
                elements.append({"modality": "text", "role": "assistant",
                                 "text": turn.text[ts:te], "loss_target": not masked,
                                 "origin": [d.id, i, span.index]})
    manifest = {"master_seed": seed, "policy": policy.to_json_dict(),
                "config_hash": json_digest(policy.to_json_dict())}
    return {"dialogue_id": d.id, "elements": elements, "manifest": manifest}


def _audio(n: int, rate=12.5, duration=None) -> AudioTokenSpan:
    return AudioTokenSpan(token_ids=list(range(n)), frame_rate_hz=rate,
                          duration_s=n / rate if duration is None else duration)


def _hand_made() -> list[Dialogue]:
    """Dialogues whose ids, speaker ids, texts and numbers take the unusual forms."""
    text = f"{HOSTILE} end"
    hostile = make_turn("assistant", text=text, speaker=HOSTILE, n_segments=3)
    caption = CaptionRecord(gender_age="adult_female", accent=other('x"y\\z '),
                            vocalizations=("laughter",), sound_events=("rain", "traffic"))
    return [
        Dialogue(f"id-{HOSTILE}", [make_turn("user", text=HOSTILE, speaker=HOSTILE), hostile],
                 quality_flags=[QualityFlag("logic_contradiction_severe", [(1, (0, 3))])]),
        Dialogue("cjk-emoji", [
            make_turn("user", text="你好，世界 🌏", speaker="说话人"),
            make_turn("assistant", text="こんにちは 👋🏽 안녕하세요", speaker="話者",
                      n_segments=2),
        ], language="zh", source="podcast"),
        # a turn without audio and a turn without alignment
        Dialogue("bare", [
            Turn("user", "u", "no audio here"),
            Turn("assistant", "a", "audio, no spans", audio=_audio(4)),
            Turn("user", "u", "empty ids", audio=AudioTokenSpan([], 12.5, 0.0)),
        ], quality_flags=[QualityFlag("clean")]),
        # int, float-repr edge and large-id numbers
        Dialogue("numbers", [
            Turn("user", "u", "int rate", audio=_audio(2, rate=25, duration=0)),
            Turn("assistant", "a", "odd floats",
                 audio=AudioTokenSpan([0, 10 ** 30, 7], 1e-05, 1e16 + 2.0),
                 alignment=[AlignmentSpan((0, 3), (0, 1), 0), AlignmentSpan((3, 10), (1, 3), 1)]),
            Turn("user", "u", "negative zero", audio=AudioTokenSpan([5], 0.1 + 0.2, -0.0)),
        ]),
        Dialogue("captioned", [
            Turn("user", "u", "caption", audio=_audio(3), caption=caption),
            Turn("assistant", "a", "unset caption", audio=_audio(3), caption=CaptionRecord()),
        ], quality_flags=[QualityFlag("logic_contradiction_correctable", [(1, (0, 2))]),
                          QualityFlag("missing_context")]),
    ]


def _corpora() -> list[Dialogue]:
    out = []
    for seed in (1, 2, 3):
        out += [synthetic.synth_dialogue(seed, k, n_turns=2 + k % 4,
                                         segments_per_assistant=1 + k % 4,
                                         with_captions=k % 3 == 0,
                                         flag_kind=FLAG_KINDS[k % len(FLAG_KINDS)],
                                         truncate_first_turn=k % 7 == 4,
                                         language=("en", "zh")[k % 2])
                for k in range(40)]
    return out + _hand_made()


DIALOGUES = _corpora()


@pytest.mark.parametrize("d", DIALOGUES, ids=lambda d: d.id)
def test_serialize_dialogue_is_canonical_json_of_the_dict(d):
    line = corpus.serialize_dialogue(d)
    assert line == _dict_line(d)
    assert corpus.parse_line(1, line) == d


POLICIES = (thinker.InterleavePolicy(), thinker.InterleavePolicy(0.0, 1.0),
            thinker.InterleavePolicy(1.0, 0.0), thinker.InterleavePolicy(0.3, 0.7))


def _compiles(d: Dialogue, policy) -> bool:
    """Whether no speech draw can fall on a turn without audio."""
    for t in d.turns:
        if t.audio is None and (policy.p_user_speech if t.role == "user" else
                                len(t.alignment) > 1 and policy.p_assistant_segment_speech):
            return False
    return True


@pytest.mark.parametrize("policy", POLICIES, ids=str)
@pytest.mark.parametrize("seed", (0, 7, 2 ** 40))
def test_thinker_line_is_canonical_json_of_the_dict(policy, seed):
    checked = 0
    for k, d in enumerate(DIALOGUES):
        if not _compiles(d, policy):
            continue
        masks = [(i, (0, 1 + k % 5)) for i, t in enumerate(d.turns)
                 if t.role == "assistant" and k % 2]
        form = _thinker_form(d, policy, seed, masks)
        seq = thinker.interleave_dialogue(d, policy, seed, masked_spans=masks)
        assert thinker.serialize_sequence(seq) == canonical_json(form)
        assert seq.manifest == form["manifest"]
        assert [{"modality": e.modality, "role": e.role,
                 **({"text": e.text} if e.modality == "text" else {"tokens": e.tokens}),
                 "loss_target": e.loss_target, "origin": list(e.origin)}
                for e in seq.elements] == form["elements"]
        assert all(type(e.origin) is tuple for e in seq.elements)
        # the build-thinker record: its line and counts
        did, (line,), n_elements, n_targets = _thinker_record(
            (policy, seed, {d.id: masks}), (1, _dict_line(d)))
        assert (did, line) == (d.id, canonical_json(form))
        assert n_elements == len(form["elements"])
        assert n_targets == sum(e["loss_target"] for e in form["elements"])
        checked += 1
    assert checked >= 100


def test_the_manifest_text_is_cached_per_seed_type():
    d = DIALOGUES[0]
    policy = thinker.InterleavePolicy(0.0, 0.0)
    for seed in (1, True, 1):  # equal keys, different JSON
        seq = thinker.interleave_dialogue(d, policy, seed)
        assert thinker.serialize_sequence(seq) == canonical_json(_thinker_form(d, policy, seed))


@pytest.mark.parametrize("x", [0.1 + 0.2, 1e16, 1e-05, -0.0, 12.5, float("nan"), float("inf"),
                               float("-inf"), 25, 0, -3, 10 ** 30, True, False, None])
def test_json_number_writes_what_canonical_json_writes(x):
    assert json_number(x) == canonical_json(x)


class _Failing:
    """A client whose every call fails with a message that needs escapes."""

    def correct(self, *request):
        raise cleaning.ClientError(f"down: {HOSTILE}")

    backfill = synthesize = correct


class _BreaksAlternation(cleaning.MockCorrector):
    def backfill(self, dialogue):
        return [Turn("user", HOSTILE, "one"), Turn("user", "b", "two")]


# Each makes fresh clients: a FlakyClient counts its failures down.
CLIENTS = {
    "mock": lambda: (cleaning.MockCorrector(), cleaning.MockSynth()),
    "suffix": lambda: (cleaning.MockCorrector(f" {HOSTILE}"), cleaning.MockSynth()),
    "failing": lambda: (_Failing(), _Failing()),
    "flaky": lambda: (FlakyClient(cleaning.MockCorrector(), 2),
                      FlakyClient(cleaning.MockSynth(), 1)),
    "rejecting": lambda: (_BreaksAlternation(), cleaning.MockSynth()),
}


@pytest.mark.parametrize("name", CLIENTS)
def test_clean_lines_are_canonical_json_of_the_dict(name):
    statuses = set()
    for d in DIALOGUES:
        if corpus.validate_flags(d).violations:
            continue
        row = _clean_record((*CLIENTS[name](), 2), (1, _dict_line(d)))
        outcome = cleaning.clean_dialogue(corpus.parse_line(1, _dict_line(d)),
                                          *CLIENTS[name](), retries=2)
        outcome_line = canonical_json(cleaning.outcome_to_dict(outcome))
        deferred = outcome.status == "deferred"
        assert row == (d.id, (_dict_line(outcome.dialogue), outcome_line,
                              outcome_line if deferred else None), deferred)
        statuses.add(outcome.status)
    assert statuses >= {"failing": {"deferred"}, "rejecting": {"rejected"}}.get(name, {"applied"})


def test_error_provenance_reaches_the_outcome_line():
    d = next(d for d in DIALOGUES if d.quality_flags
             and d.quality_flags[0].kind == "logic_contradiction_correctable")
    _, (_, line, deferred_line), deferred = _clean_record(
        (_Failing(), _Failing(), 3), (1, _dict_line(d)))
    doc = json.loads(line)
    assert deferred and deferred_line == line
    assert [p["error"] for p in doc["provenance"]] == [f"down: {HOSTILE}"] * 3
    assert doc["detail"] == f"down: {HOSTILE}"


def _string_encoder_uses(tree: ast.AST) -> list[int]:
    """Lines that import json.encoder or name encode_basestring(_ascii)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            names.append(node.module or "")
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        else:
            continue
        if any(name.startswith("json.encoder") or name.rpartition(".")[2] in
               ("encoder", "encode_basestring", "encode_basestring_ascii") for name in names):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_manifest_holds_the_string_encoder():
    """Every hand renderer writes strings with manifest.json_string, the encoder
    canonical_json itself uses: no other module imports json.encoder or names
    encode_basestring."""
    offenders = []
    for path in sorted(Path(seqforge.__file__).parent.glob("*.py")):
        if path.name != "manifest.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [f"{path.name}:{n}" for n in _string_encoder_uses(tree)]
    assert offenders == []
    manifest = Path(seqforge.__file__).with_name("manifest.py").read_text(encoding="utf-8")
    assert _string_encoder_uses(ast.parse(manifest))  # the check sees the one use


@pytest.mark.parametrize("source", [
    "import json.encoder", "from json import encoder",
    "from json.encoder import py_encode_basestring",
    "from json.encoder import encode_basestring as enc", "json.encoder.encode_basestring(s)",
    "from seqforge.manifest import encode_basestring",
])
def test_the_string_encoder_check_sees_each_form(source):
    assert _string_encoder_uses(ast.parse(source)) == [1]
