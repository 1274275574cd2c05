"""Talker sequences: reference selection, layout grammar, stream interleave."""
import json
import random
from collections import Counter

import pytest

from seqforge.seeding import DetRng, derive_seed
from seqforge.talker import (SPECIAL_TOKENS, AssembleError, NoReferenceError,
                             ReferenceSegment, StreamRatio, TalkerParseError,
                             assemble, build_reference_index, parse_sequence,
                             select_reference, serialize_sequence)

import synthetic
from conftest import (make_dialogue, make_turn, reference_line, reference_manifest,
                      reference_runs, stream_interleave, text_ids_for)
from seqforge.corpus import AudioTokenSpan, Dialogue, Turn


def corpus_with_shared_speakers(n=6, seed=7, **kw):
    dialogues = synthetic.synth_corpus(n, seed, **kw)
    for d in dialogues:
        for t in d.turns:
            t.speaker_id = "spk_u" if t.role == "user" else "spk_a"
    return dialogues


# --------------------------------------------------------------------------
# reference selection
# --------------------------------------------------------------------------

def test_two_segment_speaker_forced_choice():
    dialogues = corpus_with_shared_speakers(2)
    index = build_reference_index(dialogues)
    for seed in range(50):
        ref = select_reference("spk_a", index, dialogues[0].id, seed)
        assert ref.dialogue_id == dialogues[1].id


def test_singleton_speaker_raises_no_reference():
    dialogues = corpus_with_shared_speakers(1)
    index = build_reference_index(dialogues)
    with pytest.raises(NoReferenceError):
        select_reference("spk_a", index, dialogues[0].id, 3)


def test_selection_is_deterministic_per_seed():
    dialogues = corpus_with_shared_speakers(5)
    index = build_reference_index(dialogues)
    picks = [select_reference("spk_a", index, dialogues[0].id, 9).dialogue_id
             for _ in range(10)]
    assert len(set(picks)) == 1


def test_selection_montecarlo_near_uniform():
    # Speaker appears in 5 samples; the current one is excluded -> 4 candidates.
    dialogues = corpus_with_shared_speakers(5)
    index = build_reference_index(dialogues)
    current = dialogues[0].id
    counts = Counter(select_reference("spk_a", index, current, seed).dialogue_id
                     for seed in range(10_000))
    assert current not in counts
    assert len(counts) == 4
    for did, c in counts.items():
        assert abs(c / 10_000 - 0.25) < 0.02, (did, c)


def _list_reference_pick(speaker_id, index, current_sample_id, seed):
    """The pick by its definition: a seeded draw over the speaker's segments
    that do not belong to the current sample, in index order."""
    candidates = [seg for seg in index.get(speaker_id, ())
                  if seg.dialogue_id != current_sample_id]
    if not candidates:
        raise NoReferenceError(speaker_id)
    rng = DetRng(derive_seed(seed, speaker_id, current_sample_id, "reference"))
    return candidates[rng.below(len(candidates))]


def test_select_reference_matches_the_list_definition():
    rng = random.Random(11)
    dialogues = synthetic.synth_corpus(40, 13, n_turns=5)
    for d in dialogues:
        for t in d.turns:
            # spk_many speaks in every dialogue; the rest share a small pool.
            t.speaker_id = "spk_many" if t.role == "assistant" else f"spk{rng.randrange(4)}"
    # The same id on lines that are not adjacent: one sample spread over the index.
    for k in (3, 17, 18, 31):
        dialogues[k].id = "dup"
    dialogues[22].id = "dup2"
    dialogues[9].id = "dup2"
    # A voice heard only in the current sample has no independent segment.
    dialogues[25].turns[0].speaker_id = "spk_solo"
    dialogues[25].turns[2].speaker_id = "spk_solo"
    index = build_reference_index(dialogues)
    speakers = sorted(index) + ["spk_missing"]
    ids = sorted({d.id for d in dialogues}) + ["not-in-corpus"]
    raised = 0
    for seed in range(25):
        for did in ids:
            for speaker in speakers:
                try:
                    want = _list_reference_pick(speaker, index, did, seed)
                except NoReferenceError:
                    with pytest.raises(NoReferenceError):
                        select_reference(speaker, index, did, seed)
                    raised += 1
                    continue
                assert select_reference(speaker, index, did, seed) is want, \
                    (seed, did, speaker)
    # spk_missing raises for every sample, spk_solo only for its own.
    assert raised == 25 * (len(ids) + 1)
    with pytest.raises(NoReferenceError):
        select_reference("spk_solo", index, dialogues[25].id, 4)


# --------------------------------------------------------------------------
# stream interleave
# --------------------------------------------------------------------------

def test_interleave_single_block():
    text = list(range(1, 6))
    speech = list(range(101, 116))
    merged = stream_interleave(text, speech, StreamRatio(5, 15))
    assert merged == [("text", t) for t in text] + [("speech", s) for s in speech]


def test_interleave_two_rounds_enumerated():
    text = list(range(1, 11))
    speech = list(range(101, 131))
    merged = stream_interleave(text, speech, StreamRatio(5, 15))
    expected = ([("text", t) for t in text[:5]] + [("speech", s) for s in speech[:15]]
                + [("text", t) for t in text[5:]] + [("speech", s) for s in speech[15:]])
    assert merged == expected


def test_interleave_empty_text_is_speech_verbatim():
    speech = [9, 8, 7]
    assert stream_interleave([], speech, StreamRatio(2, 3)) == [("speech", s) for s in speech]


def test_interleave_preserves_order_and_multiset():
    import random
    rng = random.Random(4)
    for _ in range(300):
        text = [rng.randrange(100) for _ in range(rng.randrange(0, 30))]
        speech = [rng.randrange(100, 200) for _ in range(rng.randrange(0, 30))]
        ratio = StreamRatio(rng.randrange(1, 6), rng.randrange(1, 6))
        merged = stream_interleave(text, speech, ratio)
        assert [i for s, i in merged if s == "text"] == text
        assert [i for s, i in merged if s == "speech"] == speech
        assert len(merged) == len(text) + len(speech)


def test_ratio_validation_and_parse():
    with pytest.raises(ValueError):
        StreamRatio(0, 3)
    assert StreamRatio.parse("5:15") == StreamRatio(5, 15)
    assert str(StreamRatio(1, 3)) == "1:3"


# --------------------------------------------------------------------------
# assembly + parse round trip
# --------------------------------------------------------------------------

def _reference_for(dialogues, target, speaker="spk_a"):
    index = build_reference_index(dialogues)
    return select_reference(speaker, index, target.id, 1)


def test_standard_sentence_layout_with_empty_text():
    dialogues = corpus_with_shared_speakers(3, n_turns=2)
    single = Dialogue(id="single", turns=[make_turn("user", text="", speaker="spk_a")])
    single.turns[0].alignment = []
    ref = _reference_for(dialogues, single)
    seq = assemble(single, "standard_sentence", StreamRatio(5, 15), 3, ref)
    specials = SPECIAL_TOKENS
    ids = [t for _, t in seq.tokens]
    n_ref = len(ref.span.token_ids)
    assert ids[0] == specials["REF_START"]
    assert ids[1:1 + n_ref] == ref.span.token_ids
    assert ids[1 + n_ref] == specials["REF_END"]
    assert ids[2 + n_ref] == specials["ROLE_ASSISTANT"]
    assert ids[3 + n_ref:-1] == single.turns[0].audio.token_ids
    assert ids[-1] == specials["EOS"]
    parsed = parse_sequence(seq.tokens)
    assert len(parsed.blocks) == 1
    assert parsed.blocks[0].text_ids == []
    assert parsed.blocks[0].speech_ids == single.turns[0].audio.token_ids


def test_dialogue_mode_role_token_alternation():
    dialogues = corpus_with_shared_speakers(3, n_turns=4)
    ref = _reference_for(dialogues, dialogues[0])
    seq = assemble(dialogues[0], "dialogue", StreamRatio(5, 15), 3, ref)
    role_ids = {SPECIAL_TOKENS["ROLE_USER"]: "user", SPECIAL_TOKENS["ROLE_ASSISTANT"]: "assistant"}
    roles = [role_ids[t] for s, t in seq.tokens if s == "special" and t in role_ids]
    assert roles == ["user", "assistant", "user", "assistant"]


def test_empty_dialogue_is_an_error():
    dialogues = corpus_with_shared_speakers(2)
    ref = _reference_for(dialogues, dialogues[0])
    with pytest.raises(AssembleError):
        assemble(Dialogue(id="e", turns=[]), "dialogue", StreamRatio(5, 15), 1, ref)


def test_mode_preconditions():
    dialogues = corpus_with_shared_speakers(3, n_turns=2)
    ref = _reference_for(dialogues, dialogues[0])
    with pytest.raises(AssembleError, match="single speaker"):
        assemble(dialogues[0], "long_text", StreamRatio(5, 15), 1, ref)
    with pytest.raises(AssembleError, match="one utterance"):
        assemble(dialogues[0], "standard_sentence", StreamRatio(5, 15), 1, ref)
    mono = Dialogue(id="m", turns=[make_turn("user", speaker="solo")])
    with pytest.raises(AssembleError, match="two speakers"):
        assemble(mono, "dialogue", StreamRatio(5, 15), 1, ref)


def test_self_reference_is_rejected():
    dialogues = corpus_with_shared_speakers(2, n_turns=2)
    index = build_reference_index(dialogues)
    ref = select_reference("spk_a", index, dialogues[1].id, 1)  # -> from dialogues[0]
    with pytest.raises(AssembleError, match="independent"):
        assemble(dialogues[0], "dialogue", StreamRatio(5, 15), 1, ref)


def test_speech_loss_mask_covers_exactly_assistant_speech():
    dialogues = corpus_with_shared_speakers(3, n_turns=4)
    ref = _reference_for(dialogues, dialogues[0])
    seq = assemble(dialogues[0], "dialogue", StreamRatio(2, 6), 9, ref)
    ln = len(ref.span.token_ids)
    current_role = None
    for k, ((stream, _), masked) in enumerate(zip(seq.tokens, seq.speech_loss_mask)):
        if stream == "special":
            tid = seq.tokens[k][1]
            if tid == SPECIAL_TOKENS["ROLE_USER"]:
                current_role = "user"
            elif tid == SPECIAL_TOKENS["ROLE_ASSISTANT"]:
                current_role = "assistant"
        expected = (stream == "speech" and current_role == "assistant")
        assert masked == expected, (k, stream, current_role)
    # reference speech precedes any role token -> unmasked by the rule above
    assert not any(seq.speech_loss_mask[:ln + 2])


def _structural_blocks(d, mode):
    """Expected parse structure built directly from the dialogue."""
    blocks = []
    if mode == "long_text":
        text_ids = []
        speech_ids = []
        for t in d.turns:
            text_ids += text_ids_for(t.text)
            speech_ids += list(t.audio.token_ids)
        return [("assistant", text_ids, speech_ids)]
    if mode == "standard_sentence":
        t = d.turns[0]
        return [("assistant", text_ids_for(t.text), list(t.audio.token_ids))]
    for t in d.turns:
        if t.role == "assistant":
            blocks.append(("assistant", text_ids_for(t.text), list(t.audio.token_ids)))
        elif t.audio is not None:
            blocks.append(("user", [], list(t.audio.token_ids)))
        else:
            blocks.append(("user", text_ids_for(t.text), []))
    return blocks


@pytest.mark.parametrize("mode,kwargs", [
    ("dialogue", {"n_turns": 4, "segments_per_assistant": 2}),
    ("long_text", {"n_turns": 3}),
    ("standard_sentence", {"n_turns": 1}),
])
def test_parse_assemble_round_trip_randomized(mode, kwargs):
    dialogues = corpus_with_shared_speakers(1000, seed=42, **kwargs)
    if mode == "long_text":
        for d in dialogues:
            for t in d.turns:
                t.speaker_id = "spk_a"
                t.role = "user" if d.turns.index(t) % 2 == 0 else "assistant"
    index = build_reference_index(dialogues)
    speaker = "spk_u" if mode == "standard_sentence" else "spk_a"
    checked = 0
    for d in dialogues:
        ref = select_reference(speaker, index, d.id, 5)
        seq = assemble(d, mode, StreamRatio(5, 15), 5, ref)
        parsed = parse_sequence(seq.tokens)
        assert parsed.ref == ref.span.token_ids
        got = [(b.role, b.text_ids, b.speech_ids) for b in parsed.blocks]
        assert got == _structural_blocks(d, mode), d.id
        assert seq.manifest["ref_origin"][0] != d.id
        checked += 1
    assert checked == 1000


_TEXTS = ("", "ok", "hello there", "naïve café", "早上好，明天一起", "emoji 🎵 \\ \"q\"",
          "tab\tnew\nline")


def _random_dialogue(rng, mode, k):
    """A dialogue for mode with random texts, audio and user-turn layouts."""
    def turn(role, speaker, audio=True):
        text = rng.choice(_TEXTS)
        ids = [rng.randrange(5000) for _ in range(rng.randrange(0, 40))] if audio else None
        return Turn(role=role, speaker_id=speaker, text=text,
                    audio=AudioTokenSpan(ids, 12.5, len(ids) / 12.5) if audio else None)
    did = f"对话-{k}-ü"
    if mode == "standard_sentence":
        return Dialogue(id=did, turns=[turn("user", "说话人")])
    if mode == "long_text":
        return Dialogue(id=did, turns=[turn(("user", "assistant")[i % 2], "说话人")
                                       for i in range(rng.randrange(1, 5))])
    turns = []
    for i in range(rng.randrange(2, 7)):
        if i % 2:
            turns.append(turn("assistant", "spk_a"))
        else:  # user turns: with audio, or text only
            turns.append(turn("user", "spk_ü", audio=rng.random() < 0.5))
    return Dialogue(id=did, turns=turns)


@pytest.mark.parametrize("mode", ["dialogue", "long_text", "standard_sentence"])
@pytest.mark.parametrize("ratio", ["1:1", "5:15", "3:2"])
def test_serialize_sequence_equals_json_dumps_of_the_token_form(mode, ratio):
    rng = random.Random(f"{mode}/{ratio}")
    for k in range(60):
        d = _random_dialogue(rng, mode, k)
        ref_ids = [rng.randrange(5000) for _ in range(rng.randrange(0, 30))]
        ref = ReferenceSegment("参考-ß", rng.randrange(4), "spk_a",
                               AudioTokenSpan(ref_ids, 12.5, len(ref_ids) / 12.5))
        ratio_, seed = StreamRatio.parse(ratio), rng.randrange(100)
        seq = assemble(d, mode, ratio_, seed, ref)
        runs = reference_runs(d, mode, ratio_, ref)
        tokens = [(stream, tid) for stream, ids, _ in runs for tid in ids]
        mask = [loss for _, ids, loss in runs for _ in ids]
        want = json.dumps({"mode": mode, "tokens": tokens,
                           "speech_loss_mask": [1 if b else 0 for b in mask],
                           "manifest": reference_manifest(d, mode, ratio_, seed, ref)},
                          ensure_ascii=False, separators=(",", ":"))
        assert serialize_sequence(seq) == want, (mode, ratio, k)
        assert seq.tokens == tokens and seq.speech_loss_mask == mask, (mode, ratio, k)


_EDGE_IDS = (0, 10 ** 30, -1)


def _ids(rng, n):
    return [rng.choice(_EDGE_IDS) if rng.random() < 0.2 else rng.randrange(5000)
            for _ in range(n)]


def _turn_of(rng, role, speaker, n_text, n_speech):
    text = "".join(rng.choice("ab早🎵\"") for _ in range(n_text))
    audio = None if n_speech is None else AudioTokenSpan(_ids(rng, n_speech), 12.5, 1.0)
    return Turn(role=role, speaker_id=speaker, text=text, audio=audio)


def test_assemble_renders_the_reference_runs_byte_for_byte():
    rng = random.Random(17)
    ref = ReferenceSegment("r", 0, "spk_a", AudioTokenSpan([0, 10 ** 30, -1, 7], 12.5, 0.3))
    ratios = [StreamRatio(n, m) for n in range(1, 9) for m in (1, 2, 3, 7, 15, 20)]
    checked = 0
    for ratio in ratios:
        n, m = ratio.n_text, ratio.m_speech
        # Assistant content of every shape: empty streams, exact multiples, one
        # token past a chunk, text shorter and longer than speech.
        lengths = sorted({0, 1, n - 1, n, n + 1, 3 * n, 3 * n + 1, m - 1, m, m + 1,
                          2 * m + 1, 5 * m})
        for n_text in lengths:
            for n_speech in lengths:
                turns = [_turn_of(rng, "user", "spk_u", rng.randrange(4),
                                  rng.choice((None, rng.randrange(4)))),
                         _turn_of(rng, "assistant", "spk_a", n_text, n_speech)]
                d = Dialogue(id=f"d{checked}", turns=turns)
                for mode, sample in (("dialogue", d),
                                     ("standard_sentence", Dialogue(d.id, turns[1:]))):
                    seq = assemble(sample, mode, ratio, 5, ref)
                    assert serialize_sequence(seq) == reference_line(
                        sample, mode, ratio, 5, ref), (mode, ratio, n_text, n_speech)
                    checked += 1
        for k in range(4):
            turns = [_turn_of(rng, "user" if i % 2 == 0 else "assistant", "spk_s",
                              rng.randrange(3 * n + 2), rng.randrange(3 * m + 2))
                     for i in range(rng.randrange(1, 5))]
            d = Dialogue(id=f"lt{k}", turns=turns)
            seq = assemble(d, "long_text", ratio, k, ref)
            assert serialize_sequence(seq) == reference_line(d, "long_text", ratio, k, ref)
            checked += 1
    assert checked == 10116


def test_parse_error_when_ref_end_missing():
    dialogues = corpus_with_shared_speakers(2, n_turns=2)
    ref = _reference_for(dialogues, dialogues[0])
    seq = assemble(dialogues[0], "dialogue", StreamRatio(5, 15), 1, ref)
    mutated = [t for t in seq.tokens if t != ("special", SPECIAL_TOKENS["REF_END"])]
    first_role = next(i for i, (s, t) in enumerate(mutated)
                      if s == "special" and t == SPECIAL_TOKENS["ROLE_USER"])
    with pytest.raises(TalkerParseError) as exc:
        parse_sequence(mutated)
    assert exc.value.index == first_role


def test_parse_error_on_shiftless_stream_switch():
    specials = SPECIAL_TOKENS
    tokens = [("special", specials["REF_START"]), ("speech", 4),
              ("special", specials["REF_END"]), ("special", specials["ROLE_ASSISTANT"]),
              ("text", 65), ("speech", 5), ("special", specials["EOS"])]
    with pytest.raises(TalkerParseError, match="without a shift"):
        parse_sequence(tokens)


_RS, _RE, _RU, _RA, _TS, _SS, _EOS = (("special", SPECIAL_TOKENS[name]) for name in (
    "REF_START", "REF_END", "ROLE_USER", "ROLE_ASSISTANT", "TEXT_SHIFT", "SPEECH_SHIFT", "EOS"))

# (malformed tokens, message, index): one row per TalkerParseError branch.
PARSE_ERRORS = [
    ([], "sequence must begin with REF_START", 0),
    ([("speech", 1), _RS], "sequence must begin with REF_START", 0),
    ([_RS, ("speech", 1), _RU], "unexpected ROLE_USER inside reference", 2),
    ([_RS, ("special", -99)], "unexpected -99 inside reference", 1),
    ([_RS, ("text", 1), _RE], "reference section admits speech tokens only", 1),
    ([_RS, ("speech", 1)], "REF_END not found", 1),
    ([_RS, _RE, ("text", 1)], "expected a role token to open a block", 2),
    ([_RS, _RE, _RA, ("text", 1), _EOS, _EOS], "expected a role token to open a block", 5),
    ([_RS, _RE, _RA, ("text", 1), _SS, _EOS], "dangling stream shift before EOS", 5),
    ([_RS, _RE, _RA, ("text", 1), _RS], "unexpected REF_START inside block", 4),
    ([_RS, _RE, _RU, _SS, ("speech", 1)], "stream shift before any payload", 3),
    ([_RS, _RE, _RA, ("text", 1), _TS, ("text", 2)], "shift token does not switch streams", 4),
    ([_RS, _RE, _RA, ("text", 1), _SS, ("text", 2)], "payload stream contradicts shift token", 5),
    ([_RS, _RE, _RA, ("text", 1), ("speech", 2)], "stream switch without a shift token", 4),
    ([_RS, _RE, _RA, ("audio", 1)], "unknown stream 'audio'", 3),
    ([_RS, _RE, _RA, ("text", 1)], "block not terminated by EOS", 3),
    ([_RS, _RE], "sequence has no blocks", 1),
]


@pytest.mark.parametrize("tokens, message, index", PARSE_ERRORS)
def test_parse_error_message_and_index(tokens, message, index):
    with pytest.raises(TalkerParseError) as exc:
        parse_sequence(tokens)
    assert str(exc.value) == f"{message} (token index {index})"
    assert exc.value.index == index


def test_parse_minimal_sequence():
    specials = SPECIAL_TOKENS
    tokens = [("special", specials["REF_START"]), ("speech", 1),
              ("special", specials["REF_END"]), ("special", specials["ROLE_ASSISTANT"]),
              ("speech", 2), ("special", specials["EOS"])]
    parsed = parse_sequence(tokens)
    assert len(parsed.blocks) == 1
    assert parsed.blocks[0].speech_ids == [2]


def test_reference_leakage_freedom_over_corpus():
    dialogues = corpus_with_shared_speakers(200, seed=8, n_turns=2)
    index = build_reference_index(dialogues)
    for d in dialogues:
        ref = select_reference("spk_a", index, d.id, 77)
        assert ref.dialogue_id != d.id

