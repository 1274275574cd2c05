"""Canonical data model for annotated dialogue corpora.

Corpora are UTF-8 line-delimited JSON, one dialogue per line. Parsing is
strictly structural (field presence, types, enum membership); semantic
invariants (role alternation, alignment partitions, token/duration bounds)
are checked separately by ``validate_dialogue`` and never raise.

``parse_dialogue`` walks each document once. Every field gets an exact
type test first (``type(x) is str``, an enum lookup in a frozenset). Only a
value that fails it goes to the path-reporting helpers (``_require``,
``_expect_*``), which either accept it (a str or dict subclass, a bool
``frame_rate_hz``/``duration_s``) or raise the ``SchemaError`` that names
the first offending field. Item parsers name fields relative to their item,
and ``_parse_items`` prefixes the item's path only when one fails, so a
valid document builds no path strings. The turn and audio parsers also read
the responses of the HTTP cleaning clients.

Serialization is canonical: fixed key order, compact separators, sorted
multi-tag sets. ``parse -> serialize -> parse`` is the identity on valid
corpora and serialization is byte-stable.
"""
import gc
import json
import math
import re
from dataclasses import dataclass, field

from seqforge.captions import CaptionRecord, default_taxonomy, validate_caption
from seqforge.reporting import SchemaError, ValidationReport

LANGUAGES = ("zh", "en", "ja", "ko", "other")
SOURCES = ("real_life", "synthetic", "podcast", "audiobook", "short_utterance")
ROLES = ("user", "assistant")
FLAG_KINDS = (
    "logic_contradiction_correctable",
    "logic_contradiction_severe",
    "missing_context",
    "clean",
)

ADAPTER_FRAME_RATE_HZ = 12.5
ENCODER_FRAME_RATE_HZ = 25.0


@dataclass
class AudioTokenSpan:
    """Discrete speech tokens for one utterance (ids are opaque, >= 0)."""

    token_ids: list[int]
    frame_rate_hz: float
    duration_s: float

    @property
    def n_tokens(self) -> int:
        return len(self.token_ids)


@dataclass
class AlignmentSpan:
    """Sub-sentence alignment: [start, end) character and token offsets."""

    text_range: tuple[int, int]
    audio_range: tuple[int, int]
    index: int


@dataclass
class QualityFlag:
    """Cleaning-pipeline routing flag.

    Spans locate problematic text as (turn_index, [start, end)) pairs;
    severe contradictions must carry at least one.
    """

    kind: str
    spans: list[tuple[int, tuple[int, int]]] = field(default_factory=list)


@dataclass
class Turn:
    role: str
    speaker_id: str
    text: str
    audio: AudioTokenSpan | None = None
    alignment: list[AlignmentSpan] = field(default_factory=list)
    caption: CaptionRecord | None = None


@dataclass
class Dialogue:
    id: str
    turns: list[Turn]
    language: str = "en"
    source: str = "real_life"
    quality_flags: list[QualityFlag] = field(default_factory=list)


@dataclass(frozen=True)
class Reject:
    line_number: int
    reason: str


@dataclass
class ParseResult:
    dialogues: list[Dialogue]
    rejects: list[Reject]
    line_numbers: list[int] = field(default_factory=list)  # the line of each dialogue


# --------------------------------------------------------------------------
# frame / token arithmetic
# --------------------------------------------------------------------------

def downsample_frames(n_frames: int) -> int:
    """Frame count after 2x temporal pooling (25 Hz -> 12.5 Hz).

    Odd counts are padded by one frame before pooling, so no content is
    dropped: the result is ceil(n_frames / 2).
    """
    if n_frames < 0:
        raise ValueError(f"frame count must be >= 0, got {n_frames}")
    return (n_frames + 1) // 2


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def tokens_for_hours(hours: float, rate_hz: float = ADAPTER_FRAME_RATE_HZ) -> int:
    """Token count for a duration in hours at a token rate in Hz."""
    if hours < 0:
        raise ValueError(f"hours must be >= 0, got {hours}")
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be > 0, got {rate_hz}")
    return _round_half_away(hours * 3600.0 * rate_hz)


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------

_LANGUAGE_SET = frozenset(LANGUAGES)
_SOURCE_SET = frozenset(SOURCES)
_ROLE_SET = frozenset(ROLES)
_FLAG_KIND_SET = frozenset(FLAG_KINDS)


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}: missing field {key!r}")
    return doc[key]


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected object")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected string, got {type(value).__name__}")
    return value


def _expect_enum(value, allowed, path: str) -> str:
    value = _expect_str(value, path)
    if value not in allowed:
        raise SchemaError(f"{path}: {value!r} not one of {list(allowed)}")
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected array, got {type(value).__name__}")
    return value


def _expect_pair(value, path: str) -> tuple[int, int]:
    value = _expect_list(value, path)
    if len(value) != 2 or type(value[0]) is not int or type(value[1]) is not int:
        raise SchemaError(f"{path}: expected [int, int]")
    return value[0], value[1]


def _parse_items(parse, items: list, path: str, key: str) -> list:
    """[parse(item) for item in items]; a SchemaError gets the item's path as prefix.

    Item parsers name a bad field relative to the item (".role: ..."), so no
    path string is built unless a check fails.
    """
    out = []
    try:
        for item in items:
            out.append(parse(item))
    except SchemaError as exc:
        raise SchemaError(f"{path}.{key}[{len(out)}]{exc}") from None
    return out


def _parse_audio(doc, path: str) -> AudioTokenSpan:
    if type(doc) is not dict:
        _expect_object(doc, path)
    ids = doc.get("token_ids")
    if type(ids) is not list:
        ids = _expect_list(_require(doc, "token_ids", path), f"{path}.token_ids")
    if not set(map(type, ids)) <= {int}:  # exact: a bool is not a token id
        raise SchemaError(f"{path}.token_ids: expected integers")
    rate = doc.get("frame_rate_hz")
    dur = doc.get("duration_s")
    if not ((type(rate) is float or type(rate) is int)
            and (type(dur) is float or type(dur) is int)):
        rate = _require(doc, "frame_rate_hz", path)
        dur = _require(doc, "duration_s", path)
        if not isinstance(rate, (int, float)) or not isinstance(dur, (int, float)):
            raise SchemaError(f"{path}: frame_rate_hz/duration_s must be numbers")
    return AudioTokenSpan(list(ids), float(rate), float(dur))


def _parse_flag_span(item) -> tuple[int, tuple[int, int]]:
    if len(_expect_list(item, "")) != 2:
        raise SchemaError(": expected [turn_index, [start, end]]")
    if type(item[0]) is not int:
        raise SchemaError(": turn index must be an integer")
    return item[0], _expect_pair(item[1], "[1]")


def _parse_flag(doc) -> QualityFlag:
    if type(doc) is not dict:
        _expect_object(doc, "")
    kind = doc.get("kind")
    if type(kind) is not str or kind not in _FLAG_KIND_SET:
        kind = _expect_enum(_require(doc, "kind", ""), FLAG_KINDS, ".kind")
    spans = doc.get("spans", [])
    if type(spans) is not list:
        spans = _expect_list(spans, ".spans")
    return QualityFlag(kind, _parse_items(_parse_flag_span, spans, "", "spans"))


def _parse_turn(doc) -> Turn:
    """One turn of a corpus line or of a backfill response.

    A SchemaError names the offending field relative to the turn (".text: ...").
    """
    if type(doc) is not dict:
        _expect_object(doc, "")
    role = doc.get("role")
    if type(role) is not str or role not in _ROLE_SET:
        role = _expect_enum(_require(doc, "role", ""), ROLES, ".role")
    speaker = doc.get("speaker_id")
    if type(speaker) is not str:
        speaker = _expect_str(_require(doc, "speaker_id", ""), ".speaker_id")
    text = doc.get("text")
    if type(text) is not str:
        text = _expect_str(_require(doc, "text", ""), ".text")
    audio = doc.get("audio")
    if audio is not None:
        audio = _parse_audio(audio, ".audio")
    items = doc.get("alignment", [])
    if type(items) is not list:
        items = _expect_list(items, ".alignment")
    alignment = []
    try:  # _parse_items inlined: alignment spans are the most numerous items
        for item in items:
            if type(item) is not dict:
                _expect_object(item, "")
            index = item.get("index")
            if type(index) is not int:
                _require(item, "index", "")
                raise SchemaError(".index: expected integer")
            text_range = item.get("text_range")
            audio_range = item.get("audio_range")
            if (type(text_range) is not list or len(text_range) != 2
                    or type(audio_range) is not list or len(audio_range) != 2):
                text_range = _expect_pair(_require(item, "text_range", ""), ".text_range")
                audio_range = _expect_pair(_require(item, "audio_range", ""), ".audio_range")
            ts, te = text_range
            aus, aue = audio_range
            if (type(ts) is not int or type(te) is not int
                    or type(aus) is not int or type(aue) is not int):
                _expect_pair(text_range, ".text_range")
                _expect_pair(audio_range, ".audio_range")
            alignment.append(AlignmentSpan((ts, te), (aus, aue), index))
    except SchemaError as exc:
        raise SchemaError(f".alignment[{len(alignment)}]{exc}") from None
    caption = doc.get("caption")
    if caption is not None:
        caption = CaptionRecord.from_json_dict(_expect_object(caption, ".caption"), ".caption")
    return Turn(role, speaker, text, audio, alignment, caption)


def parse_dialogue(doc: dict, path: str = "dialogue") -> Dialogue:
    """Structural parse of one dialogue object. Raises SchemaError.

    The error names the first offending field, in document order with the
    dialogue's fields before its flags and its flags before its turns.
    """
    if type(doc) is not dict:
        _expect_object(doc, path)
    did = doc.get("id")
    if type(did) is not str:
        did = _expect_str(_require(doc, "id", path), f"{path}.id")
    language = doc.get("language")
    if type(language) is not str or language not in _LANGUAGE_SET:
        language = _expect_enum(_require(doc, "language", path), LANGUAGES, f"{path}.language")
    source = doc.get("source")
    if type(source) is not str or source not in _SOURCE_SET:
        source = _expect_enum(_require(doc, "source", path), SOURCES, f"{path}.source")
    flags = doc.get("quality_flags", [])
    if type(flags) is not list:
        flags = _expect_list(flags, f"{path}.quality_flags")
    flags = _parse_items(_parse_flag, flags, path, "quality_flags")
    turns = doc.get("turns")
    if type(turns) is not list:
        turns = _expect_list(_require(doc, "turns", path), f"{path}.turns")
    turns = _parse_items(_parse_turn, turns, path, "turns")
    return Dialogue(did, turns, language, source, flags)


class NotUtf8Error(ValueError):
    """An input file holds bytes that are not UTF-8."""

    def __init__(self, path, line_no: int):
        super().__init__(f"{path}: line {line_no} is not valid UTF-8")


# Under errors="surrogateescape" each byte that is not UTF-8 decodes to one of these.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_lines(path):
    """Yield the lines of a UTF-8 text file; unreadable files raise.

    Bytes that are not UTF-8 raise NotUtf8Error naming the first such line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        # Decoding fails a whole buffer at a time: re-read to find the line.
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            line_no = next(n for n, line in enumerate(fh, 1) if _ESCAPED_BYTE.search(line))
        raise NotUtf8Error(path, line_no) from None


def iter_lines(path):
    """Yield (line number, stripped text) of each non-blank line; unreadable files raise."""
    for line_no, line in enumerate(read_lines(path), 1):
        if stripped := line.strip():
            yield line_no, stripped


def parse_line(line_no: int, line: str) -> Dialogue | Reject:
    """Parse one corpus line; a malformed line comes back as its Reject."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        return Reject(line_no, f"invalid JSON: {exc.msg}")
    try:
        return parse_dialogue(doc, path="dialogue")
    except SchemaError as exc:
        return Reject(line_no, str(exc))


def parse_corpus(path) -> ParseResult:
    """Parse a line-delimited corpus file.

    Malformed lines go to the rejects report with line number and reason;
    they are never silently dropped. Unreadable files raise.
    """
    result = ParseResult(dialogues=[], rejects=[])
    # Parsed dialogues hold no reference cycles, so the cyclic collector would
    # only re-traverse the growing list (about a quarter of the call).
    enabled = gc.isenabled()
    gc.disable()
    try:
        for line_no, line in iter_lines(path):
            item = parse_line(line_no, line)
            if isinstance(item, Reject):
                result.rejects.append(item)
            else:
                result.dialogues.append(item)
                result.line_numbers.append(line_no)
    finally:
        if enabled:
            gc.enable()
    return result


# --------------------------------------------------------------------------
# serialization (canonical key order, compact)
# --------------------------------------------------------------------------

def _audio_dict(a: AudioTokenSpan) -> dict:
    return {"token_ids": a.token_ids, "frame_rate_hz": a.frame_rate_hz, "duration_s": a.duration_s}


def _turn_dict(t: Turn) -> dict:
    doc = {"role": t.role, "speaker_id": t.speaker_id, "text": t.text}
    if t.audio is not None:
        doc["audio"] = _audio_dict(t.audio)
    doc["alignment"] = [
        {"text_range": list(s.text_range), "audio_range": list(s.audio_range), "index": s.index}
        for s in t.alignment
    ]
    if t.caption is not None:
        doc["caption"] = t.caption.to_json_dict()
    return doc


def dialogue_to_dict(d: Dialogue) -> dict:
    return {
        "id": d.id,
        "language": d.language,
        "source": d.source,
        "quality_flags": [
            {"kind": f.kind, "spans": [[ti, list(rng)] for ti, rng in f.spans]}
            for f in d.quality_flags
        ],
        "turns": [_turn_dict(t) for t in d.turns],
    }


def serialize_dialogue(d: Dialogue) -> str:
    return json.dumps(dialogue_to_dict(d), ensure_ascii=False, separators=(",", ":"))


def write_corpus(dialogues, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in dialogues:
            fh.write(serialize_dialogue(d))
            fh.write("\n")


# --------------------------------------------------------------------------
# validation (never raises)
# --------------------------------------------------------------------------

def _validate_audio(report, audio: AudioTokenSpan, path: str) -> None:
    if any(t < 0 for t in audio.token_ids):
        report.add(f"{path}.token_ids", "token ids must be >= 0")
    if audio.frame_rate_hz <= 0:
        report.add(f"{path}.frame_rate_hz", "frame rate must be > 0")
    if audio.duration_s < 0:
        report.add(f"{path}.duration_s", "duration must be >= 0")
    else:
        expected = _round_half_away(audio.duration_s * audio.frame_rate_hz)
        if abs(audio.n_tokens - expected) > 1:
            report.add(
                path,
                f"token count {audio.n_tokens} vs duration-derived {expected} "
                f"exceeds the +/-1 rounding bound",
            )


def _validate_alignment(report, turn: Turn, path: str) -> None:
    spans = turn.alignment
    if not spans:
        return
    text_len = len(turn.text)
    n_tokens = turn.audio.n_tokens if turn.audio is not None else None
    prev_text_end = 0
    prev_audio_end = None
    for k, span in enumerate(spans):
        p = f"{path}.alignment[{k}]"
        ts, te = span.text_range
        if span.index != k:
            report.add(p, f"index {span.index} does not match position {k}")
        if ts >= te:
            report.add(f"{p}.text_range", "text range must be non-empty")
        if ts < 0 or te > text_len:
            report.add(f"{p}.text_range", f"range [{ts},{te}) outside text of length {text_len}")
        if ts < prev_text_end:
            report.add(f"{p}.text_range", f"overlaps previous span ending at {prev_text_end}")
        elif ts > prev_text_end:
            report.add(f"{p}.text_range", f"gap after previous span ending at {prev_text_end}")
        prev_text_end = max(prev_text_end, te)
        aus, aue = span.audio_range
        if aus > aue or aus < 0:
            report.add(f"{p}.audio_range", f"malformed range [{aus},{aue})")
        if n_tokens is None:
            if aue != aus:
                report.add(f"{p}.audio_range", "non-empty audio range on a turn without audio")
        else:
            if aue > n_tokens:
                report.add(f"{p}.audio_range", f"range end {aue} beyond {n_tokens} tokens")
            if prev_audio_end is not None and aus < prev_audio_end:
                report.add(f"{p}.audio_range", "audio ranges must be monotonically increasing")
            prev_audio_end = aue
    if spans and prev_text_end != text_len and all(s.text_range[0] < s.text_range[1] for s in spans):
        report.add(f"{path}.alignment", f"spans cover [0,{prev_text_end}) but text has length {text_len}")


def validate_dialogue(d: Dialogue) -> ValidationReport:
    """Check every type invariant; empty report iff the dialogue is valid."""
    report = ValidationReport()
    if not d.id:
        report.add("id", "empty id")
    if not d.turns:
        report.add("turns", "dialogue must have at least one turn")
    for i, turn in enumerate(d.turns):
        path = f"turns[{i}]"
        expected_role = ROLES[i % 2]
        if turn.role != expected_role:
            report.add(f"{path}.role",
                       f"role alternation violated: expected {expected_role!r}, got {turn.role!r}")
        if turn.audio is not None:
            _validate_audio(report, turn.audio, f"{path}.audio")
        _validate_alignment(report, turn, path)
        if turn.caption is not None:
            for v in validate_caption(turn.caption, default_taxonomy()).violations:
                report.add(f"{path}.caption.{v.path}", v.message)
    for k, flag in enumerate(d.quality_flags):
        path = f"quality_flags[{k}]"
        if flag.kind == "logic_contradiction_severe" and not flag.spans:
            report.add(path, "severe contradiction flags must carry at least one span")
        if flag.kind == "clean" and flag.spans:
            report.add(path, "clean flags must not carry spans")
        for j, (turn_index, (s, e)) in enumerate(flag.spans):
            p = f"{path}.spans[{j}]"
            if turn_index < 0 or turn_index >= len(d.turns):
                report.add(p, f"turn index {turn_index} out of range")
                continue
            text_len = len(d.turns[turn_index].text)
            if s < 0 or e > text_len or s >= e:
                report.add(p, f"text range [{s},{e}) invalid for turn of length {text_len}")
    return report


def validate_corpus(dialogues) -> ValidationReport:
    """Per-dialogue invariants plus corpus-level id uniqueness."""
    report = ValidationReport()
    seen: dict[str, int] = {}
    for n, d in enumerate(dialogues):
        sub = validate_dialogue(d)
        for v in sub.violations:
            report.add(f"{d.id or n}.{v.path}", v.message)
        if d.id in seen:
            report.add(f"{d.id}.id", f"duplicate id (first seen at record {seen[d.id]})")
        else:
            seen[d.id] = n
    return report
