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


@dataclass(frozen=True)
class Taxonomy:
    """Attribute -> ordered tag vocabulary."""

    categories: dict[str, tuple[str, ...]]
    version: str

    def __post_init__(self):
        missing = [a for a, _, _ in ATTRIBUTES if a not in self.categories]
        if missing:
            raise ValueError(f"taxonomy missing attributes: {missing}")
        for attr, vocab in self.categories.items():
            if not vocab:
                raise ValueError(f"empty vocabulary for {attr!r}")
            if len(set(vocab)) != len(vocab):
                raise ValueError(f"duplicate tags in {attr!r}")

    def vocabulary(self, attribute: str) -> tuple[str, ...]:
        return self.categories[attribute]


def load_taxonomy(path=None) -> Taxonomy:
    """Load a taxonomy JSON document (bundled default when path is None)."""
    if path is None:
        raw = resources.files("seqforge.data").joinpath("taxonomy.json").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    doc = json.loads(raw)
    version = doc.pop("$version", "unversioned")
    return Taxonomy(categories={k: tuple(v) for k, v in doc.items()}, version=version)


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
        for name in ("vocalizations", "affective_burst", "vocal_pathology", "sound_events"):
            setattr(self, name, tuple(sorted(set(getattr(self, name)))))

    def tags(self) -> list[tuple[str, str]]:
        """(attribute, tag) multiset over populated attributes."""
        out = []
        for attr, field_name, multi in ATTRIBUTES:
            value = getattr(self, field_name)
            if multi:
                out.extend((attr, t) for t in value)
            elif value is not None:
                out.append((attr, value))
        return out

    def to_json_dict(self) -> dict:
        return {
            "speaker_profile": {"gender_age": self.gender_age, "accent": self.accent},
            "prosody": {"emotion": self.emotion, "tone": self.tone, "speech_rate": self.speech_rate},
            "paralinguistics": {
                "vocalizations": list(self.vocalizations),
                "affective_burst": list(self.affective_burst),
            },
            "pathology": list(self.vocal_pathology),
            "environment": {
                "acoustic_scene": self.acoustic_scene,
                "sound_events": list(self.sound_events),
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict, path: str = "caption") -> "CaptionRecord":
        """Structural parse of the ``to_json_dict`` layout. Raises SchemaError.

        An absent group or field is unset. A group is an object or null, a
        single tag a string or null, a multi-tag field an array of strings.
        """
        def group(key: str | None) -> tuple[dict, str]:
            if key is None:
                return doc, path
            value = doc.get(key)
            if value is not None and type(value) is not dict:
                raise SchemaError(f"{path}.{key}: expected object")
            return value or {}, f"{path}.{key}"

        def one(group_key: str, key: str) -> str | None:
            g, where = group(group_key)
            value = g.get(key)
            if value is not None and type(value) is not str:
                raise SchemaError(f"{where}.{key}: expected string or null, "
                                  f"got {type(value).__name__}")
            return value

        def many(group_key: str | None, key: str) -> tuple[str, ...]:
            g, where = group(group_key)
            value = g.get(key, [])
            if type(value) is not list or not set(map(type, value)) <= {str}:
                raise SchemaError(f"{where}.{key}: expected array of strings")
            return tuple(value)

        return cls(
            gender_age=one("speaker_profile", "gender_age"),
            accent=one("speaker_profile", "accent"),
            emotion=one("prosody", "emotion"),
            tone=one("prosody", "tone"),
            speech_rate=one("prosody", "speech_rate"),
            vocalizations=many("paralinguistics", "vocalizations"),
            affective_burst=many("paralinguistics", "affective_burst"),
            vocal_pathology=many(None, "pathology"),
            acoustic_scene=one("environment", "acoustic_scene"),
            sound_events=many("environment", "sound_events"),
        )


# (attribute name, CaptionRecord field, multi-valued)
ATTRIBUTES: tuple[tuple[str, str, bool], ...] = (
    ("Gender & Age", "gender_age", False),
    ("Accent", "accent", False),
    ("Emotion", "emotion", False),
    ("Tone", "tone", False),
    ("Speech Rate", "speech_rate", False),
    ("Vocalizations", "vocalizations", True),
    ("Affective Burst", "affective_burst", True),
    ("Vocal Pathology", "vocal_pathology", True),
    ("Acoustic Scene", "acoustic_scene", False),
    ("Sound Events", "sound_events", True),
)

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

def _compile_patterns() -> list[tuple[str, re.Pattern]]:
    pats = []
    for attr, templates in _TEMPLATES.items():
        for t in templates:
            head, tail = t.split("{}")
            pats.append((attr, re.compile(re.escape(head) + "(.+?)" + re.escape(tail) + "$")))
    return pats


_PATTERNS = _compile_patterns()


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


def validate_caption(record: CaptionRecord, taxonomy: Taxonomy) -> ValidationReport:
    """Report every tag outside its attribute vocabulary (other(...) exempt)."""
    report = ValidationReport()
    for attr, field_name, multi in ATTRIBUTES:
        vocab = taxonomy.vocabulary(attr)
        value = getattr(record, field_name)
        if multi:
            for k, tag in enumerate(value):
                _check_tag(report, attr, tag, vocab, f"{field_name}[{k}]")
        elif value is not None:
            _check_tag(report, attr, value, vocab, field_name)
    return report


def _surface(tag: str) -> str:
    payload = other_payload(tag)
    return payload if payload is not None else tag


def _join_tags(tags: tuple[str, ...]) -> str:
    parts = [_surface(t) for t in tags]
    if len(parts) == 1:
        return parts[0]
    return ", ".join(parts[:-1]) + " and " + parts[-1]


def render_caption(record: CaptionRecord, seed: int, taxonomy: Taxonomy | None = None) -> str:
    """Render a record into descriptor sentences, one per populated attribute.

    Deterministic for a fixed (record, seed); different seeds vary phrasing
    but never the extractable tag content. Invalid records are refused.
    """
    taxonomy = taxonomy or default_taxonomy()
    report = validate_caption(record, taxonomy)
    if not report.ok:
        raise InvalidCaptionError(report)
    rng = DetRng(derive_seed(seed, "caption-render"))
    sentences = []
    for attr, field_name, multi in ATTRIBUTES:
        value = getattr(record, field_name)
        if multi:
            if not value:
                continue
            text = _join_tags(value)
        else:
            if value is None:
                continue
            text = _surface(value)
        template = rng.choice(_TEMPLATES[attr])
        sentences.append(template.format(text))
    return " ".join(sentences)


def extract_tags(rendered: str, taxonomy: Taxonomy | None = None) -> list[tuple[str, str]]:
    """Inverse of render_caption: recover the (attribute, tag) multiset."""
    taxonomy = taxonomy or default_taxonomy()
    if not rendered.strip():
        raise CaptionParseError("empty caption text")
    # Tags never contain a period, so ". " splits exactly at sentence bounds.
    parts = rendered.split(". ")
    sentences = [p if p.endswith(".") else p + "." for p in parts]
    out: list[tuple[str, str]] = []
    for sentence in sentences:
        matched = False
        for attr, pattern in _PATTERNS:
            m = pattern.match(sentence)
            if not m:
                continue
            raw = m.group(1)
            vocab = taxonomy.vocabulary(attr)
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


@functools.cache
def default_taxonomy() -> Taxonomy:
    """The bundled taxonomy, loaded once per process."""
    return load_taxonomy()
