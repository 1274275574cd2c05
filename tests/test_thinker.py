"""Modality interleaving: segmentation, loss labels, determinism, statistics."""
import json

import pytest

from seqforge import thinker
from seqforge.thinker import (CompileError, InterleavePolicy,
                              extract_loss_targets, interleave_dialogue,
                              segment_assistant, serialize_sequence)

import synthetic
from conftest import make_dialogue, make_turn


def test_segment_count_and_order():
    turn = make_turn("assistant", text="abcdefghij", n_segments=3)
    segments = segment_assistant(turn)
    assert [s.index for s in segments] == [0, 1, 2]
    assert "".join(s.text for s in segments) == turn.text


def test_segment_single_span_is_whole_turn():
    turn = make_turn("assistant", text="short reply", n_segments=1)
    [seg] = segment_assistant(turn)
    assert seg.text == turn.text
    assert seg.tokens == turn.audio.token_ids


def test_segment_text_concatenation_property():
    for n in range(80):
        d = synthetic.synth_dialogue(21, n, n_turns=4, segments_per_assistant=3)
        for turn in d.turns:
            if turn.role == "assistant":
                parts = segment_assistant(turn)
                assert "".join(s.text for s in parts) == turn.text


def test_segment_requires_assistant_turn_with_alignment():
    with pytest.raises(CompileError):
        segment_assistant(make_turn("user"))
    bare = make_turn("assistant", with_audio=False)
    bare.alignment = []
    with pytest.raises(CompileError, match="alignment"):
        segment_assistant(bare)


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
