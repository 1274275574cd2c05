"""Caption taxonomy: validation, seeded rendering, inverse parsing."""
import hashlib
import random
from collections import Counter

import pytest

from seqforge import captions
from seqforge.captions import (ATTRIBUTES, CaptionRecord, CaptionParseError,
                               InvalidCaptionError, extract_tags, other, render_caption,
                               validate_caption, vocabulary)


def test_default_taxonomy_is_loaded_once():
    # The bundled file is read on first use only: later calls return the same tuples.
    assert all(vocabulary(a) is vocabulary(a) for a, _, _ in ATTRIBUTES)
    assert captions._vocabularies() is captions._vocabularies()


def test_bundled_taxonomy_has_all_ten_attributes():
    assert set(captions._vocabularies()) == {a for a, _, _ in ATTRIBUTES}
    assert len(ATTRIBUTES) == 10
    for attr, _, _ in ATTRIBUTES:
        vocab = vocabulary(attr)
        assert vocab, attr
        assert len(set(vocab)) == len(vocab), attr
    assert vocabulary("Emotion") == (
        "Neutral", "Happy", "Sad", "Angry", "Fearful", "Surprised", "Disgusted")


def test_every_bundled_tag_validates():
    # One record per attribute probing each tag in its vocabulary.
    for attr, field_name, multi in ATTRIBUTES:
        for tag in vocabulary(attr):
            record = CaptionRecord(**{field_name: (tag,) if multi else tag})
            assert validate_caption(record).ok, (attr, tag)


def test_minimal_record_validates():
    record = CaptionRecord(emotion="Neutral", acoustic_scene="Quiet indoor")
    assert validate_caption(record).ok


def test_unknown_emotion_is_flagged():
    record = CaptionRecord(emotion="Melancholy")
    report = validate_caption(record)
    assert len(report.violations) == 1
    assert report.violations[0].path == "emotion"
    assert "Melancholy" in report.violations[0].message


def test_emotion_rejects_other_escape():
    report = validate_caption(CaptionRecord(emotion=other("Wistful")))
    assert any("seven-class" in v.message for v in report.violations)


def test_vocalization_pair_from_vocabulary():
    record = CaptionRecord(vocalizations=("Sighing", "Coughing"))
    assert validate_caption(record).ok


def test_other_escape_accepted_elsewhere():
    record = CaptionRecord(vocalizations=(other("Humming quietly"),))
    assert validate_caption(record).ok


def test_other_escape_guards():
    assert not validate_caption(CaptionRecord(tone=other(""))).ok
    assert not validate_caption(CaptionRecord(tone=other("Calm"))).ok
    assert not validate_caption(CaptionRecord(tone=other("one, two"))).ok


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
        vocab = vocabulary(attr)
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


_PINNED_RECORD = CaptionRecord(
    gender_age="Child", accent=other("Scouse"), emotion="Surprised", speech_rate="Slow",
    vocalizations=("Yawning", other("Humming quietly")), affective_burst=("Sobbing",),
    acoustic_scene="Library", sound_events=("Knocking", "Footsteps", other("A kettle")))


@pytest.mark.parametrize("seed, text", [
    (0,
     "The speaker profile is Child. Their pronunciation carries a Scouse accent. "
     "Emotionally, this comes across as Surprised. The speech rate is Slow. Non-speech "
     "sounds from the speaker include Yawning and Humming quietly. There are bursts of "
     "Sobbing. Recorded in a Library environment. Sound events present: Footsteps, "
     "Knocking and A kettle."),
    (1,
     "A Child is talking. You can hear a Scouse accent. The emotion is Surprised. The "
     "speech rate is Slow. Non-speech sounds from the speaker include Yawning and "
     "Humming quietly. There are bursts of Sobbing. Background ambience suggests "
     "Library. Sound events present: Footsteps, Knocking and A kettle."),
    (2**64 - 1,
     "A Child is talking. You can hear a Scouse accent. The emotion is Surprised. "
     "Pacing of the speech is Slow. Along the way one can hear Yawning and Humming "
     "quietly from the speaker. Emotional outbursts such as Sobbing occur. Background "
     "ambience suggests Library. Environmental sounds include Footsteps, Knocking and "
     "A kettle."),
])
def test_render_matches_frozen_text(seed, text):
    assert render_caption(_PINNED_RECORD, seed) == text


def test_renders_tags_and_reports_match_frozen_digest():
    """Rendered text, tags() and validate_caption's report for 2,000 seeded
    (record, seed) pairs, valid and invalid, against one sha256 pin."""
    rng = random.Random(2027)
    digest = hashlib.sha256()
    for k in range(2000):
        record = _random_record(rng)
        if k % 10 == 0:
            record.tone = rng.choice(("Melancholy", other(""), other("Calm"), other("a. b")))
        seed = rng.getrandbits(64)
        report = validate_caption(record)
        digest.update(repr((record.tags(), [(v.path, v.message) for v in report.violations],
                            render_caption(record, seed) if report.ok else None)).encode())
    assert digest.hexdigest() == (
        "de7add41fc333d6bf0c93be6706eb6646d0c1f97bf4f47ec4d0c3a7aeeb4053c")
