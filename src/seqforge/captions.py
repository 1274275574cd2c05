"""Multi-dimensional acoustic caption records.

A caption tags one utterance along ten attributes (speaker profile, prosody,
paralinguistic events, vocal pathology, acoustic environment). Records are
validated against a closed tag taxonomy and rendered into natural-language
descriptor sentences used as supervision text. Rendering is seeded and
invertible: ``extract_tags(render_caption(c, seed))`` recovers the record's
tag multiset for any seed.
"""
import functools
import json
import re
from dataclasses import dataclass
from importlib import resources

from seqforge.reporting import SchemaError, ValidationReport
from seqforge.seeding import DetRng, derive_seed

_OTHER_RE = re.compile(r"^other\((.*)\)$", re.DOTALL)

# Separators used when rendering tag lists; an other(...) payload containing
# them could not be re-parsed, so validation rejects it.
_FORBIDDEN_IN_OTHER = (".", ", ", " and ")


def other(text: str) -> str:
    """Escape hatch for a tag outside the closed vocabulary."""
    return f"other({text})"


def other_payload(tag: str) -> str | None:
    m = _OTHER_RE.match(tag)
    return m.group(1) if m else None


@functools.cache  # read on first use, once per process
def _vocabularies() -> dict[str, tuple[str, ...]]:
    raw = resources.files("seqforge.data").joinpath("taxonomy.json").read_text("utf-8")
    return {k: tuple(v) for k, v in json.loads(raw).items() if k != "$version"}


def vocabulary(attribute: str) -> tuple[str, ...]:
    """The ordered tag vocabulary of one attribute in the bundled taxonomy."""
    return _vocabularies()[attribute]


# The JSON layout of a record, one row per attribute in layout order:
# (attribute name, JSON group or None at the top level, JSON key,
# CaptionRecord field, multi-valued).
_LAYOUT: tuple[tuple[str, str | None, str, str, bool], ...] = (
    ("Gender & Age", "speaker_profile", "gender_age", "gender_age", False),
    ("Accent", "speaker_profile", "accent", "accent", False),
    ("Emotion", "prosody", "emotion", "emotion", False),
    ("Tone", "prosody", "tone", "tone", False),
    ("Speech Rate", "prosody", "speech_rate", "speech_rate", False),
    ("Vocalizations", "paralinguistics", "vocalizations", "vocalizations", True),
    ("Affective Burst", "paralinguistics", "affective_burst", "affective_burst", True),
    ("Vocal Pathology", None, "pathology", "vocal_pathology", True),
    ("Acoustic Scene", "environment", "acoustic_scene", "acoustic_scene", False),
    ("Sound Events", "environment", "sound_events", "sound_events", True),
)
# (attribute name, CaptionRecord field, multi-valued)
ATTRIBUTES: tuple[tuple[str, str, bool], ...] = tuple(
    (attr, name, multi) for attr, _, _, name, multi in _LAYOUT)


@dataclass
class CaptionRecord:
    """One utterance's annotation. Unset single tags are None, sets may be empty."""

    gender_age: str | None = None
    accent: str | None = None
    emotion: str | None = None
    tone: str | None = None
    speech_rate: str | None = None
    vocalizations: tuple[str, ...] = ()
    affective_burst: tuple[str, ...] = ()
    vocal_pathology: tuple[str, ...] = ()
    acoustic_scene: str | None = None
    sound_events: tuple[str, ...] = ()

    def __post_init__(self):
        # Multi-tag attributes are set-valued; keep a sorted canonical order.
        for _, name, multi in ATTRIBUTES:
            if multi:
                setattr(self, name, tuple(sorted(set(getattr(self, name)))))

    def tags(self) -> list[tuple[str, str]]:
        """(attribute, tag) multiset over populated attributes."""
        return [(attr, tag) for attr, _, _, tags in _populated(self) for tag in tags]

    def to_json_dict(self) -> dict:
        doc: dict = {}
        for _, group, key, name, multi in _LAYOUT:
            value = getattr(self, name)
            (doc if group is None else doc.setdefault(group, {}))[key] = (
                list(value) if multi else value)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict, path: str = "caption") -> "CaptionRecord":
        """Structural parse of the ``to_json_dict`` layout. Raises SchemaError.

        An absent group or field is unset. A group is an object or null, a
        single tag a string or null, a multi-tag field an array of strings.
        """
        fields = {}
        for _, group, key, name, multi in _LAYOUT:
            g, where = (doc, path) if group is None else (doc.get(group), f"{path}.{group}")
            if g is None:
                g = {}
            elif type(g) is not dict:
                raise SchemaError(f"{where}: expected object")
            value = g.get(key, [] if multi else None)
            if multi:
                if type(value) is not list or not set(map(type, value)) <= {str}:
                    raise SchemaError(f"{where}.{key}: expected array of strings")
                value = tuple(value)
            elif value is not None and type(value) is not str:
                raise SchemaError(f"{where}.{key}: expected string or null, "
                                  f"got {type(value).__name__}")
            fields[name] = value
        return cls(**fields)


def _populated(record: CaptionRecord):
    """(attribute, field, multi, tags) of each populated attribute, in
    ATTRIBUTES order; a single-tag attribute's tags hold its one tag."""
    for attr, field_name, multi in ATTRIBUTES:
        value = getattr(record, field_name)
        tags = value if multi else () if value is None else (value,)
        if tags:
            yield attr, field_name, multi, tags


# Surface templates per attribute. Every template carries a globally unique
# literal prefix before the placeholder so extraction is unambiguous, and the
# placeholder is never first.
_TEMPLATES: dict[str, tuple[str, ...]] = {
    "Gender & Age": (
        "The speaker profile is {}.",
        "Judging by the voice, the speaker is a {}.",
        "A {} is talking.",
    ),
    "Accent": (
        "The accent is {}.",
        "Their pronunciation carries a {} accent.",
        "You can hear a {} accent.",
    ),
    "Emotion": (
        "The emotion is {}.",
        "The speaker's emotional state reads as {}.",
        "Emotionally, this comes across as {}.",
    ),
    "Tone": (
        "The tone is {}.",
        "Their manner of speaking sounds {}.",
        "Delivery-wise, the tone registers as {}.",
    ),
    "Speech Rate": (
        "The speech rate is {}.",
        "Pacing of the speech is {}.",
        "Words arrive at a {} rate.",
    ),
    "Vocalizations": (
        "Vocalizations present: {}.",
        "Non-speech sounds from the speaker include {}.",
        "Along the way one can hear {} from the speaker.",
    ),
    "Affective Burst": (
        "Affective bursts present: {}.",
        "Emotional outbursts such as {} occur.",
        "There are bursts of {}.",
    ),
    "Vocal Pathology": (
        "Vocal pathology noted: {}.",
        "The voice itself sounds {}.",
        "Voice quality shows {}.",
    ),
    "Acoustic Scene": (
        "The acoustic scene is {}.",
        "Recorded in a {} environment.",
        "Background ambience suggests {}.",
    ),
    "Sound Events": (
        "Sound events present: {}.",
        "In the background one hears {}.",
        "Environmental sounds include {}.",
    ),
}


@functools.cache  # on first use, not at import: commands that never parse a caption skip it
def _compile_patterns() -> list[tuple[str, re.Pattern]]:
    pats = []
    for attr, templates in _TEMPLATES.items():
        for t in templates:
            head, tail = t.split("{}")
            pats.append((attr, re.compile(re.escape(head) + "(.+?)" + re.escape(tail) + "$")))
    return pats


class InvalidCaptionError(ValueError):
    def __init__(self, report: ValidationReport):
        super().__init__("; ".join(str(v) for v in report.violations))
        self.report = report


class CaptionParseError(ValueError):
    pass


def _check_tag(report, attr, tag, vocab, path):
    payload = other_payload(tag)
    if payload is None:
        if tag not in vocab:
            report.add(path, f"tag {tag!r} not in {attr} vocabulary")
        return
    if attr == "Emotion":
        report.add(path, "Emotion is a closed seven-class set; other(...) not allowed")
        return
    if not payload:
        report.add(path, "empty other(...) payload")
    elif payload in vocab:
        report.add(path, f"redundant other(...) around vocabulary tag {payload!r}")
    elif any(sep in payload for sep in _FORBIDDEN_IN_OTHER):
        report.add(path, f"other(...) payload {payload!r} contains a reserved separator")


def validate_caption(record: CaptionRecord) -> ValidationReport:
    """Report every tag outside its attribute vocabulary (other(...) exempt)."""
    report = ValidationReport()
    for attr, field_name, multi, tags in _populated(record):
        vocab = vocabulary(attr)
        for k, tag in enumerate(tags):
            _check_tag(report, attr, tag, vocab, f"{field_name}[{k}]" if multi else field_name)
    return report


def _surface(tag: str) -> str:
    payload = other_payload(tag)
    return payload if payload is not None else tag


def _join_tags(tags: tuple[str, ...]) -> str:
    parts = [_surface(t) for t in tags]
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def render_caption(record: CaptionRecord, seed: int) -> str:
    """Render a record into descriptor sentences, one per populated attribute.

    Deterministic for a fixed (record, seed); different seeds vary phrasing
    but never the extractable tag content. Invalid records are refused.
    """
    report = validate_caption(record)
    if not report.ok:
        raise InvalidCaptionError(report)
    rng = DetRng(derive_seed(seed, "caption-render"))
    return " ".join(rng.choice(_TEMPLATES[attr]).format(_join_tags(tags))
                    for attr, _, _, tags in _populated(record))


def extract_tags(rendered: str) -> list[tuple[str, str]]:
    """Inverse of render_caption: recover the (attribute, tag) multiset."""
    if not rendered.strip():
        raise CaptionParseError("empty caption text")
    # Tags never contain a period, so ". " splits exactly at sentence bounds.
    parts = rendered.split(". ")
    sentences = [p if p.endswith(".") else p + "." for p in parts]
    out: list[tuple[str, str]] = []
    for sentence in sentences:
        matched = False
        for attr, pattern in _compile_patterns():
            m = pattern.match(sentence)
            if not m:
                continue
            raw = m.group(1)
            vocab = vocabulary(attr)
            multi = next(mu for a, _, mu in ATTRIBUTES if a == attr)
            pieces = _split_tag_list(raw) if multi else [raw]
            for piece in pieces:
                out.append((attr, piece if piece in vocab else other(piece)))
            matched = True
            break
        if not matched:
            raise CaptionParseError(f"unrecognized caption fragment: {sentence!r}")
    return out


def _split_tag_list(raw: str) -> list[str]:
    if " and " in raw:
        head, last = raw.rsplit(" and ", 1)
        return head.split(", ") + [last]
    return [raw]
