"""Modality interleaving: per-span segments, loss labels, determinism, statistics."""
import json

import pytest

from seqforge import thinker
from seqforge.corpus import AlignmentSpan, validate_dialogue
from seqforge.thinker import (CompileError, InterleavePolicy, interleave_dialogue,
                              serialize_sequence)

import synthetic
from conftest import extract_loss_targets, make_dialogue, make_turn


def test_speech_segments_carry_exactly_their_span_tokens():
    # Every non-final assistant span is drawn speech at p_assistant=1.
    for n in range(40):
        d = synthetic.synth_dialogue(21, n, n_turns=4, segments_per_assistant=3)
        seq = interleave_dialogue(d, InterleavePolicy(0.0, 1.0), 3)
        expected = [((d.id, i, span.index), turn.audio.token_ids[slice(*span.audio_range)])
                    for i, turn in enumerate(d.turns) if turn.role == "assistant"
                    for span in turn.alignment[:-1]]
        assert [(e.origin, e.tokens) for e in seq.elements if e.modality == "speech"] == expected


def test_all_text_assistant_turn_is_its_spans_in_order():
    for n in range(80):
        d = synthetic.synth_dialogue(21, n, n_turns=4, segments_per_assistant=3)
        seq = interleave_dialogue(d, InterleavePolicy(0.0, 0.0), 3)
        for i, turn in enumerate(d.turns):
            if turn.role == "assistant":
                parts = [e for e in seq.elements if e.origin[1] == i]
                assert [e.origin[2] for e in parts] == [s.index for s in turn.alignment]
                assert [e.text for e in parts] == [turn.text[slice(*s.text_range)]
                                                   for s in turn.alignment]
                assert "".join(e.text for e in parts) == turn.text


@pytest.mark.parametrize("n_spans", [0, 1])
def test_assistant_turn_without_a_split_is_one_whole_text_element(n_spans):
    # Even at p=1: the only segment of a turn is its final one, so it is text.
    d = make_dialogue("d", n_turns=2, n_segments=1)
    d.turns[1].alignment = d.turns[1].alignment[:n_spans]
    seq = interleave_dialogue(d, InterleavePolicy(1.0, 1.0), 7)
    assert [(e.modality, e.role, e.text, e.tokens, e.loss_target, e.origin)
            for e in seq.elements] == [
        ("speech", "user", None, d.turns[0].audio.token_ids, False, ("d", 0, 0)),
        ("text", "assistant", d.turns[1].text, None, True, ("d", 1, 0))]


def test_speech_draw_on_a_span_of_a_turn_without_audio_is_an_error():
    d = make_dialogue("d", n_turns=2, with_audio=False)
    d.turns[1].alignment = [AlignmentSpan((0, 5), (0, 0), 0), AlignmentSpan((5, 11), (0, 0), 1)]
    assert validate_dialogue(d).ok
    with pytest.raises(CompileError) as exc:
        interleave_dialogue(d, InterleavePolicy(0.0, 1.0), 7)
    assert str(exc.value) == ("dialogue 'd' turn 1 segment 0: speech modality drawn "
                              "but the segment has no audio tokens")


def test_forced_final_text_at_p_one():
    d = make_dialogue("d", n_turns=2, n_segments=3)
    seq = interleave_dialogue(d, InterleavePolicy(1.0, 1.0), 7)
    assistant = [e for e in seq.elements if e.role == "assistant"]
    assert [e.modality for e in assistant] == ["speech", "speech", "text"]


def test_p_zero_renders_everything_text():
    d = make_dialogue("d", n_turns=4, n_segments=2)
    seq = interleave_dialogue(d, InterleavePolicy(0.0, 0.0), 7)
    assert all(e.modality == "text" for e in seq.elements)


def test_all_text_compile_reconstructs_dialogue_text():
    for n in range(50):
        d = synthetic.synth_dialogue(5, n, n_turns=4, segments_per_assistant=3)
        seq = interleave_dialogue(d, InterleavePolicy(0.0, 0.0), 3)
        by_turn: dict[int, str] = {}
        for e in seq.elements:
            by_turn[e.origin[1]] = by_turn.get(e.origin[1], "") + e.text
        for i, turn in enumerate(d.turns):
            assert by_turn[i] == turn.text


def test_missing_audio_under_speech_draw_is_an_error():
    d = make_dialogue("d", n_turns=2, with_audio=False)
    with pytest.raises(CompileError, match="no audio"):
        interleave_dialogue(d, InterleavePolicy(1.0, 0.0), 7)


def test_text_only_corpus_compiles_at_p_zero():
    d = make_dialogue("d", n_turns=2, with_audio=False)
    seq = interleave_dialogue(d, InterleavePolicy(0.0, 0.0), 7)
    assert all(e.modality == "text" for e in seq.elements)


def test_loss_targets_are_assistant_text_only():
    d = make_dialogue("d", n_turns=4, n_segments=3)
    seq = interleave_dialogue(d, InterleavePolicy(0.5, 0.5), 11)
    for e in seq.elements:
        expected = e.role == "assistant" and e.modality == "text"
        assert e.loss_target == expected
    targets = extract_loss_targets(seq)
    assert [o for o, _ in targets] == [e.origin for e in seq.elements if e.loss_target]


def test_loss_targets_at_p_one_are_exactly_final_segments():
    d = make_dialogue("d", n_turns=4, n_segments=3)
    seq = interleave_dialogue(d, InterleavePolicy(1.0, 1.0), 11)
    targets = extract_loss_targets(seq)
    assert [origin for origin, _ in targets] == [("d", 1, 2), ("d", 3, 2)]


def test_all_text_dialogue_targets_every_assistant_segment_no_user():
    d = make_dialogue("d", n_turns=4, n_segments=2)
    targets = extract_loss_targets(interleave_dialogue(d, InterleavePolicy(0.0, 0.0), 1))
    assert [o for o, _ in targets] == [("d", 1, 0), ("d", 1, 1), ("d", 3, 0), ("d", 3, 1)]


def test_masked_segment_dropped_from_loss_targets():
    d = make_dialogue("d", n_turns=2, n_segments=3)
    spans = [s.text_range for s in d.turns[1].alignment]
    masked = [(1, spans[1])]
    seq = interleave_dialogue(d, InterleavePolicy(0.0, 0.0), 5, masked_spans=masked)
    origins = [o for o, _ in extract_loss_targets(seq)]
    assert ("d", 1, 1) not in origins
    assert ("d", 1, 0) in origins and ("d", 1, 2) in origins
    # masked element still exists in the sequence, just unlabelled
    masked_elements = [e for e in seq.elements if e.origin == ("d", 1, 1)]
    assert masked_elements and not masked_elements[0].loss_target


def test_user_elements_never_loss_targets():
    for n in range(40):
        d = synthetic.synth_dialogue(9, n, n_turns=3)
        seq = interleave_dialogue(d, InterleavePolicy(0.7, 0.6), 2)
        assert not any(e.loss_target for e in seq.elements if e.role == "user")


def test_compile_is_deterministic_and_shard_independent():
    corpus = synthetic.synth_corpus(50, 31, n_turns=4, segments_per_assistant=3)
    policy = InterleavePolicy(0.5, 0.5)
    lines_forward = [serialize_sequence(interleave_dialogue(d, policy, 77)) for d in corpus]
    lines_reversed = [serialize_sequence(interleave_dialogue(d, policy, 77))
                      for d in reversed(corpus)][::-1]
    assert lines_forward == lines_reversed
    assert lines_forward == [serialize_sequence(interleave_dialogue(d, policy, 77))
                             for d in corpus]


def test_different_seed_changes_draws():
    corpus = synthetic.synth_corpus(50, 31)
    policy = InterleavePolicy(0.5, 0.5)
    a = [serialize_sequence(interleave_dialogue(d, policy, 1)) for d in corpus]
    b = [serialize_sequence(interleave_dialogue(d, policy, 2)) for d in corpus]
    assert a != b


def test_modality_ratio_three_sigma_band():
    n = 4000
    p = 0.3
    corpus = synthetic.synth_corpus(n, 13, n_turns=1)
    policy = InterleavePolicy(p_user_speech=p)
    speech = sum(
        interleave_dialogue(d, policy, 555).elements[0].modality == "speech"
        for d in corpus)
    band = 3.0 * (p * (1 - p) / n) ** 0.5
    assert abs(speech / n - p) < band


def test_manifest_carries_seed_policy_and_config_hash():
    d = make_dialogue("d")
    seq = interleave_dialogue(d, InterleavePolicy(0.25, 0.75), 42)
    assert seq.manifest["master_seed"] == 42
    assert seq.manifest["policy"]["p_user_speech"] == 0.25
    assert len(seq.manifest["config_hash"]) == 64
    doc = json.loads(serialize_sequence(seq))
    assert doc["dialogue_id"] == "d"
    assert doc["manifest"]["config_hash"] == seq.manifest["config_hash"]


def test_policy_validates_probabilities():
    with pytest.raises(ValueError):
        InterleavePolicy(p_user_speech=1.5)
