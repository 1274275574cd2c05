"""Caption taxonomy: validation, seeded rendering, inverse parsing."""
import random
from collections import Counter

import pytest

from seqforge import captions
from seqforge.captions import (ATTRIBUTES, CaptionRecord, CaptionParseError,
                               InvalidCaptionError, default_taxonomy, load_taxonomy,
                               extract_tags, other, render_caption,
                               validate_caption)

TAX = default_taxonomy()


def test_default_taxonomy_is_loaded_once():
    assert default_taxonomy() is default_taxonomy()
    assert default_taxonomy() == load_taxonomy()


def test_bundled_taxonomy_has_all_ten_attributes():
    assert len(TAX.categories) == 10
    assert set(TAX.categories) == {a for a, _, _ in ATTRIBUTES}
    assert TAX.vocabulary("Emotion") == (
        "Neutral", "Happy", "Sad", "Angry", "Fearful", "Surprised", "Disgusted")


def test_every_bundled_tag_validates():
    # One record per attribute probing each tag in its vocabulary.
    for attr, field_name, multi in ATTRIBUTES:
        for tag in TAX.vocabulary(attr):
            record = CaptionRecord(**{field_name: (tag,) if multi else tag})
            assert validate_caption(record, TAX).ok, (attr, tag)


def test_minimal_record_validates():
    record = CaptionRecord(emotion="Neutral", acoustic_scene="Quiet indoor")
    assert validate_caption(record, TAX).ok


def test_unknown_emotion_is_flagged():
    record = CaptionRecord(emotion="Melancholy")
    report = validate_caption(record, TAX)
    assert len(report.violations) == 1
    assert report.violations[0].path == "emotion"
    assert "Melancholy" in report.violations[0].message


def test_emotion_rejects_other_escape():
    report = validate_caption(CaptionRecord(emotion=other("Wistful")), TAX)
    assert any("seven-class" in v.message for v in report.violations)


def test_vocalization_pair_from_vocabulary():
    record = CaptionRecord(vocalizations=("Sighing", "Coughing"))
    assert validate_caption(record, TAX).ok


def test_other_escape_accepted_elsewhere():
    record = CaptionRecord(vocalizations=(other("Humming quietly"),))
    assert validate_caption(record, TAX).ok


def test_other_escape_guards():
    assert not validate_caption(CaptionRecord(tone=other("")), TAX).ok
    assert not validate_caption(CaptionRecord(tone=other("Calm")), TAX).ok
    assert not validate_caption(CaptionRecord(tone=other("one, two")), TAX).ok


def test_render_is_deterministic_and_seed_varies_phrasing():
    record = CaptionRecord(gender_age="Young male", emotion="Happy",
                           speech_rate="Fast", affective_burst=("Laughing",),
                           acoustic_scene="Cafe")
    r1a = render_caption(record, 1)
    r1b = render_caption(record, 1)
    r2 = render_caption(record, 2)
    assert r1a == r1b
    assert r1a != r2
    assert Counter(extract_tags(r1a)) == Counter(extract_tags(r2)) == Counter(record.tags())


def test_render_mentions_only_populated_attributes():
    record = CaptionRecord(emotion="Sad")
    rendered = render_caption(record, 0)
    assert Counter(extract_tags(rendered)) == Counter([("Emotion", "Sad")])


def test_fully_populated_record_covers_all_attributes():
    record = CaptionRecord(
        gender_age="Child", accent="Cantonese", emotion="Surprised", tone="Questioning",
        speech_rate="Slow", vocalizations=("Yawning",), affective_burst=("Sobbing",),
        vocal_pathology=("Hoarse",), acoustic_scene="Library", sound_events=("Knocking",))
    rendered = render_caption(record, 5)
    tags = extract_tags(rendered)
    assert {attr for attr, _ in tags} == {a for a, _, _ in ATTRIBUTES}
    # every tag surface appears verbatim in the rendered text
    for _, tag in record.tags():
        assert tag in rendered


def test_render_refuses_invalid_record():
    with pytest.raises(InvalidCaptionError) as exc:
        render_caption(CaptionRecord(emotion="Melancholy"), 0)
    assert not exc.value.report.ok


def test_extract_rejects_empty_and_unknown():
    with pytest.raises(CaptionParseError):
        extract_tags("")
    with pytest.raises(CaptionParseError) as exc:
        extract_tags("The emotion is Happy. Gibberish sentence here.")
    assert "Gibberish" in str(exc.value)


def _random_record(rng: random.Random) -> CaptionRecord:
    kwargs = {}
    for attr, field_name, multi in ATTRIBUTES:
        if rng.random() < 0.4:
            continue
        vocab = TAX.vocabulary(attr)
        if multi:
            pool = list(vocab) + [other(f"custom {field_name} {rng.randrange(30)}")]
            kwargs[field_name] = tuple(rng.sample(pool, k=rng.randrange(1, 4)))
        elif attr == "Emotion":
            kwargs[field_name] = rng.choice(vocab)
        else:
            if rng.random() < 0.15:
                kwargs[field_name] = other(f"custom {field_name} {rng.randrange(30)}")
            else:
                kwargs[field_name] = rng.choice(vocab)
    return CaptionRecord(**kwargs)


def test_round_trip_over_random_records_and_seeds():
    rng = random.Random(123)
    checked = 0
    for _ in range(1000):
        record = _random_record(rng)
        if not record.tags():
            continue
        seed = rng.getrandbits(64)
        rendered = render_caption(record, seed)
        assert Counter(extract_tags(rendered)) == Counter(record.tags()), rendered
        checked += 1
    assert checked > 900
