"""Template expansion, seeded sampling and the only-yes probe set."""
from collections import Counter

import pytest

from seqforge.templates import (ONLY_YES_INSTRUCTION, PromptVariant, Slot,
                                TaskSpec, build_only_yes_set,
                                expand_templates, load_task_registry,
                                sample_prompt)

from conftest import variant_matches


def grammar(*slots) -> TaskSpec:
    return TaskSpec("task", ("en",), [Slot(list(alts), optional=opt)
                                      for alts, opt in slots])


def test_full_product_expansion():
    spec = grammar((("a", "b"), False), (("x", "y", "z"), False))
    variants = expand_templates(spec)
    assert len(variants) == 6
    assert [v.text for v in variants] == ["a x", "a y", "a z", "b x", "b y", "b z"]
    assert [v.variant_index for v in variants] == list(range(6))


def test_optional_slot_enumeration():
    spec = grammar((("a", "b"), True), (("x",), False))
    assert [v.text for v in expand_templates(spec)] == ["x", "a x", "b x"]


def test_limit_truncates_deterministic_order():
    spec = grammar((("a", "b"), False), (("x", "y", "z"), False))
    assert [v.text for v in expand_templates(spec, limit=2)] == ["a x", "a y"]


def test_expansion_is_duplicate_free_and_stable():
    spec = grammar((("a", "a b"), False), (("b x", "x"), False))
    texts = [v.text for v in expand_templates(spec)]
    assert len(texts) == len(set(texts))
    assert texts == [v.text for v in expand_templates(spec)]


def test_generated_variants_match_the_grammar():
    spec = grammar((("please", "kindly"), True), (("transcribe", "write down"), False),
                   (("the audio", "this clip"), False))
    for v in expand_templates(spec):
        assert variant_matches(spec, v.text), v.text
    assert not variant_matches(spec, "nonsense input")


def test_sample_prompt_is_deterministic():
    spec = grammar((("a", "b"), False), (("x", "y", "z"), False))
    assert sample_prompt(spec, 99) == sample_prompt(spec, 99)


def test_single_variant_grammar_always_sampled():
    spec = grammar((("only",), False))
    for seed in range(20):
        assert sample_prompt(spec, seed).text == "only"


def test_sample_prompt_uniformity():
    spec = grammar((("a", "b"), False), (("x", "y", "z"), False))
    draws = 60_000
    counts = Counter(sample_prompt(spec, seed).variant_index for seed in range(draws))
    for k in range(6):
        assert abs(counts[k] / draws - 1 / 6) < 0.01


def test_only_yes_pairs_every_id_with_fixed_prompt():
    ids = [f"audio-{i}" for i in range(100)]
    pairs = build_only_yes_set(ids)
    assert len(pairs) == 100
    assert [a for a, _ in pairs] == ids
    assert {p for _, p in pairs} == {ONLY_YES_INSTRUCTION}


def test_only_yes_single_id():
    assert build_only_yes_set(["one"]) == [("one", ONLY_YES_INSTRUCTION)]


def test_only_yes_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="dup-id"):
        build_only_yes_set(["a", "dup-id", "dup-id"])
    with pytest.raises(ValueError):
        build_only_yes_set([])


def test_registry_round_trip(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(
        '{"asr": {"languages": ["en", "zh"], '
        '"slots": [{"alternatives": ["transcribe", "write out"]}, '
        '{"alternatives": ["the audio"], "optional": false}]}}',
        encoding="utf-8")
    registry = load_task_registry(path)
    assert set(registry) == {"asr"}
    variants = expand_templates(registry["asr"])
    assert [v.text for v in variants] == ["transcribe the audio", "write out the audio"]
    assert variants[0].language == "en"
