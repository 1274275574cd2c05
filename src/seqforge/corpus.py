"""Canonical data model for annotated dialogue corpora.

Corpora are UTF-8 line-delimited JSON, one dialogue per line. Parsing is
strictly structural (field presence, types, enum membership); semantic
invariants (role alternation, alignment partitions, token/duration bounds)
are checked separately by ``validate_dialogue`` and never raise.

Token ids are most of a corpus's bytes, and they stay JSON text from parse to
output. ``parse_line`` cuts each compact id array out of the line (see
``_decode_compact``), ``AudioTokenSpan`` keeps it as ``ids_text``, its one
form of the ids, and every serializer writes it in place, so no id becomes
an int on the way. A line the cut does not cover takes the full path,
``reporting.decode`` and an exact type test of each id, which alone reports
rejects.

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
multi-tag sets. ``serialize_dialogue`` writes the line straight from the
fields with fixed-key templates, each string through ``json_string``; it
equals canonical_json of ``dialogue_to_dict`` (which the HTTP payloads and
provenance digests use) for the types the model declares: str, int, and a
float or int number. ``parse -> serialize -> parse`` is the identity on
valid corpora and serialization is byte-stable.

``validate_dialogue`` builds a violation's path only when it reports one.
"""
import json
import math
import operator
import sys
from dataclasses import dataclass, field

from seqforge import LANGUAGES
from seqforge.captions import CaptionRecord, validate_caption
from seqforge.manifest import IDS_MARK, canonical_json, json_number, json_string
# read_lines, NotUtf8Error and MAX_DEPTH live in reporting, so that eval reads text
# without loading this data model; corpus re-exports them, as it does SchemaError.
from seqforge.reporting import (JSON_WHITESPACE, MAX_DEPTH, DecodeError, NotUtf8Error,
                                SchemaError, ValidationReport, Violation, decode, read_lines,
                                refusal)

SOURCES = ("real_life", "synthetic", "podcast", "audiobook", "short_utterance")
ROLES = ("user", "assistant")
FLAG_KINDS = (
    "logic_contradiction_correctable",
    "logic_contradiction_severe",
    "missing_context",
    "clean",
)

ADAPTER_FRAME_RATE_HZ = 12.5


@dataclass(slots=True, init=False)
class AudioTokenSpan:
    """Discrete speech tokens for one utterance (ids are opaque, >= 0).

    The ids are held only as their compact JSON text, ids_text ("12,0,4095",
    empty for none); AudioTokenSpan(token_ids=[...], ...) renders a list.
    token_ids decodes the text on every read, so editing the list it returns
    leaves the span as it was; assigning a list to token_ids renders it.
    """

    ids_text: str
    frame_rate_hz: float
    duration_s: float

    def __init__(self, token_ids: list[int] | None, frame_rate_hz: float, duration_s: float,
                 *, ids_text: str = ""):
        self.ids_text = ids_text if token_ids is None else canonical_json(list(token_ids))[1:-1]
        self.frame_rate_hz = frame_rate_hz
        self.duration_s = duration_s

    @property
    def token_ids(self) -> list[int]:
        return json.loads(f"[{self.ids_text}]")

    @token_ids.setter
    def token_ids(self, ids: list[int]) -> None:
        self.ids_text = canonical_json(list(ids))[1:-1]

    @property
    def n_tokens(self) -> int:
        return self.ids_text.count(",") + 1 if self.ids_text else 0


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


# --------------------------------------------------------------------------
# frame / token arithmetic
# --------------------------------------------------------------------------

def downsample_frames(n_frames: int) -> int:
    """Frame count after 2x temporal pooling (25 Hz -> ADAPTER_FRAME_RATE_HZ).

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
    tokens = hours * 3600.0 * rate_hz
    if not math.isfinite(tokens):
        raise ValueError(f"{hours} hours at {rate_hz} Hz is too many tokens to count")
    return _round_half_away(tokens)


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


def _parse_items(parse, items: list, path: str, key: str, *args) -> list:
    """[parse(item, *args) for item in items]; a SchemaError gets the item's path as prefix.

    Item parsers name a bad field relative to the item (".role: ..."), so no
    path string is built unless a check fails.
    """
    out = []
    try:
        for item in items:
            out.append(parse(item, *args))
    except SchemaError as exc:
        raise SchemaError(f"{path}.{key}[{len(out)}]{exc}") from None
    return out


def _parse_audio(doc, path: str) -> AudioTokenSpan:
    """An audio object: its token_ids are an array of ints, or the text _decode_compact cut."""
    if type(doc) is not dict:
        _expect_object(doc, path)
    ids = doc.get("token_ids")
    if type(ids) is _CutIds:
        ids_text, ids = ids, None
    else:
        if type(ids) is not list:
            ids = _expect_list(_require(doc, "token_ids", path), f"{path}.token_ids")
        if not set(map(type, ids)) <= {int}:  # exact: a bool is not a token id
            raise SchemaError(f"{path}.token_ids: expected integers")
        ids_text = ""
    rate = doc.get("frame_rate_hz")
    dur = doc.get("duration_s")
    if not ((type(rate) is float or type(rate) is int)
            and (type(dur) is float or type(dur) is int)):
        rate = _require(doc, "frame_rate_hz", path)
        dur = _require(doc, "duration_s", path)
        if not isinstance(rate, (int, float)) or not isinstance(dur, (int, float)):
            raise SchemaError(f"{path}: frame_rate_hz/duration_s must be numbers")
    try:  # JSON admits NaN, Infinity and integers past the float range
        rate, dur = float(rate), float(dur)
        finite = math.isfinite(rate) and math.isfinite(dur)
    except OverflowError:
        finite = False
    if not finite:
        raise SchemaError(f"{path}: frame_rate_hz/duration_s must be finite numbers")
    return AudioTokenSpan(ids, rate, dur, ids_text=ids_text)


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


def iter_lines(path):
    """Yield (line number, stripped text) of each non-blank line; unreadable files raise.

    Only JSON's whitespace is stripped: a line of other whitespace (a form
    feed, U+3000) is not blank, and with such a character at either end a
    line is not JSON, so both reach the parser and become rejects.
    """
    for line_no, line in enumerate(read_lines(path), 1):
        if stripped := line.strip(JSON_WHITESPACE):
            yield line_no, stripped


class _CutIds(str):
    """The text of a token-id array that _decode_compact cut from a line."""

    __slots__ = ()


_ID_CHARS = str.maketrans("", "", "0123456789,")
# The texts _decode_compact cut from the line it is decoding, last first; set
# just before each decode, and _hand_back drains it during that decode.
_cut: list[_CutIds] = []


def _hand_back(literal: str) -> _CutIds:
    if literal != "NaN":  # Infinity or -Infinity: the full path decides
        raise ValueError(literal)
    return _cut.pop()


_COMPACT_DECODER = json.JSONDecoder(parse_constant=_hand_back)


def _compact(ids: str) -> bool:
    """Whether ids is a non-empty run of JSON integers >= 0 joined by commas, no spaces."""
    if not ids or ids.translate(_ID_CHARS) or ids[0] == "," or ids[-1] == "," or ",," in ids:
        return False
    if ids[0] == "0" and ids[1:2] not in ("", ","):
        return False
    at = ids.find(",0")
    while at >= 0:  # a leading zero is not JSON
        if ids[at + 2:at + 3] not in ("", ","):
            return False
        at = ids.find(",0", at + 2)
    # An id longer than this is a decode error, so the full path words it.
    limit = sys.get_int_max_str_digits()
    return not (limit and len(ids) > limit and max(map(len, ids.split(","))) > limit)


def _decode_compact(line: str) -> dict | None:
    """line decoded with each compact "token_ids":[...] value left as its text.

    Each array whose key follows a "{" or "," and whose text is compact is
    replaced by the literal NaN, and the decoder's parse_constant hands the
    cut texts back in order. A line that holds NaN itself is not cut, so every
    NaN the decoder meets is a placeholder; a NaN cannot stand inside a
    string, and a key follows "{" or "," only outside one. Returns None where
    the cut does not apply or the rest does not decode (Infinity included):
    the full path then decodes the line and reports what is wrong.
    """
    if "NaN" in line:
        return None
    pieces = line.split('"token_ids":[')
    cut = []
    for k in range(1, len(pieces)):
        piece = pieces[k]
        end = piece.find("]")
        if end < 0 or not pieces[k - 1].endswith(("{", ",")) or not _compact(piece[:end]):
            return None
        cut.append(_CutIds(piece[:end]))
        pieces[k] = "NaN" + piece[end + 1:]
    cut.reverse()
    _cut[:] = cut
    try:
        return _COMPACT_DECODER.decode('"token_ids":'.join(pieces))
    except ValueError:
        return None


def _parse_full(line_no: int, line: str) -> Dialogue | Reject:
    """parse_line by reporting.decode and the exact walk: the path that reports rejects."""
    try:
        doc = decode(line)
    except DecodeError as exc:
        return Reject(line_no, f"invalid JSON: {exc.msg}")
    try:
        return parse_dialogue(doc)
    except SchemaError as exc:
        return Reject(line_no, str(exc))


def parse_line(line_no: int, line: str) -> Dialogue | Reject:
    """Parse one corpus line; a malformed line comes back as its Reject."""
    doc = _decode_compact(line) if refusal(line) is None else None
    if doc is not None:
        try:
            return parse_dialogue(doc)
        except SchemaError:
            pass  # the full path words the reject
    return _parse_full(line_no, line)


# --------------------------------------------------------------------------
# serialization (canonical key order, compact)
# --------------------------------------------------------------------------

def _audio_dict(a: AudioTokenSpan, ids: list[str] | None = None) -> dict:
    """The audio as a JSON object. Given ids, the token ids are IDS_MARK and
    their text is appended to ids, for json_digest; else they are a list."""
    if ids is None:
        token_ids = a.token_ids
    else:
        ids.append(a.ids_text)
        token_ids = IDS_MARK
    return {"token_ids": token_ids, "frame_rate_hz": a.frame_rate_hz, "duration_s": a.duration_s}


def _turn_dict(t: Turn, ids: list[str] | None = None) -> dict:
    doc = {"role": t.role, "speaker_id": t.speaker_id, "text": t.text}
    if t.audio is not None:
        doc["audio"] = _audio_dict(t.audio, ids)
    doc["alignment"] = [
        {"text_range": list(s.text_range), "audio_range": list(s.audio_range), "index": s.index}
        for s in t.alignment
    ]
    if t.caption is not None:
        doc["caption"] = t.caption.to_json_dict()
    return doc


def dialogue_to_dict(d: Dialogue, ids: list[str] | None = None) -> dict:
    """The dialogue as a JSON object; ids as for _audio_dict."""
    return {
        "id": d.id,
        "language": d.language,
        "source": d.source,
        "quality_flags": [
            {"kind": f.kind, "spans": [[ti, list(rng)] for ti, rng in f.spans]}
            for f in d.quality_flags
        ],
        "turns": [_turn_dict(t, ids) for t in d.turns],
    }


def spans_text(spans) -> str:
    """(turn index, (start, end)) pairs as the text inside their JSON array."""
    return ",".join([f"[{ti},[{s},{e}]]" for ti, (s, e) in spans])


_SPAN_FIELDS = operator.attrgetter("text_range", "audio_range", "index")


def _turn_text(t: Turn) -> str:
    """canonical_json(_turn_dict(t)), its token ids as an array."""
    head = (f'{{"role":{json_string(t.role)},"speaker_id":{json_string(t.speaker_id)},'
            f'"text":{json_string(t.text)}')
    a = t.audio
    if a is not None:
        head += (f',"audio":{{"token_ids":[{a.ids_text}],'
                 f'"frame_rate_hz":{json_number(a.frame_rate_hz)},'
                 f'"duration_s":{json_number(a.duration_s)}}}')
    alignment = ",".join([f'{{"text_range":[{ts},{te}],"audio_range":[{aus},{aue}],'
                          f'"index":{k}}}'
                          for (ts, te), (aus, aue), k in map(_SPAN_FIELDS, t.alignment)])
    if t.caption is None:
        return f'{head},"alignment":[{alignment}]}}'
    caption = canonical_json(t.caption.to_json_dict())
    return f'{head},"alignment":[{alignment}],"caption":{caption}}}'


def serialize_dialogue(d: Dialogue) -> str:
    """The dialogue as one corpus line: canonical_json(dialogue_to_dict(d))
    with the token ids as arrays, written straight from the fields."""
    flags = ",".join([f'{{"kind":{json_string(f.kind)},"spans":[{spans_text(f.spans)}]}}'
                      for f in d.quality_flags])
    return (f'{{"id":{json_string(d.id)},"language":{json_string(d.language)},'
            f'"source":{json_string(d.source)},"quality_flags":[{flags}],'
            f'"turns":[{",".join(map(_turn_text, d.turns))}]}}')


# --------------------------------------------------------------------------
# validation (never raises)
# --------------------------------------------------------------------------

def _validate_audio(report, audio: AudioTokenSpan, i: int) -> None:
    if "-" in audio.ids_text:
        report.add(f"turns[{i}].audio.token_ids", "token ids must be >= 0")
    if audio.frame_rate_hz <= 0:
        report.add(f"turns[{i}].audio.frame_rate_hz", "frame rate must be > 0")
    product = audio.duration_s * audio.frame_rate_hz
    if audio.duration_s < 0:
        report.add(f"turns[{i}].audio.duration_s", "duration must be >= 0")
    elif not math.isfinite(product):
        report.add(f"turns[{i}].audio", f"duration {audio.duration_s} s at "
                                        f"{audio.frame_rate_hz} Hz is too many tokens to count")
    else:
        expected = _round_half_away(product)
        if abs(audio.n_tokens - expected) > 1:
            report.add(
                f"turns[{i}].audio",
                f"token count {audio.n_tokens} vs duration-derived {expected} "
                f"exceeds the +/-1 rounding bound",
            )


def _validate_alignment(report, turn: Turn, i: int) -> None:
    spans = turn.alignment
    if not spans:
        return
    text_len = len(turn.text)
    n_tokens = turn.audio.n_tokens if turn.audio is not None else None
    prev_text_end = 0
    prev_audio_end = None
    for k, span in enumerate(spans):
        ts, te = span.text_range
        if span.index != k:
            report.add(f"turns[{i}].alignment[{k}]",
                       f"index {span.index} does not match position {k}")
        if ts >= te:
            report.add(f"turns[{i}].alignment[{k}].text_range", "text range must be non-empty")
        if ts < 0 or te > text_len:
            report.add(f"turns[{i}].alignment[{k}].text_range",
                       f"range [{ts},{te}) outside text of length {text_len}")
        if ts < prev_text_end:
            report.add(f"turns[{i}].alignment[{k}].text_range",
                       f"overlaps previous span ending at {prev_text_end}")
        elif ts > prev_text_end:
            report.add(f"turns[{i}].alignment[{k}].text_range",
                       f"gap after previous span ending at {prev_text_end}")
        prev_text_end = max(prev_text_end, te)
        aus, aue = span.audio_range
        if aus > aue or aus < 0:
            report.add(f"turns[{i}].alignment[{k}].audio_range", f"malformed range [{aus},{aue})")
        if n_tokens is None:
            if aue != aus:
                report.add(f"turns[{i}].alignment[{k}].audio_range",
                           "non-empty audio range on a turn without audio")
        else:
            if aue > n_tokens:
                report.add(f"turns[{i}].alignment[{k}].audio_range",
                           f"range end {aue} beyond {n_tokens} tokens")
            if prev_audio_end is not None and aus < prev_audio_end:
                report.add(f"turns[{i}].alignment[{k}].audio_range",
                           "audio ranges must be monotonically increasing")
            prev_audio_end = aue
    if prev_text_end != text_len and all(s.text_range[0] < s.text_range[1] for s in spans):
        report.add(f"turns[{i}].alignment",
                   f"spans cover [0,{prev_text_end}) but text has length {text_len}")


def role_violation(i: int, role: str) -> Violation | None:
    """The violation of turn i having role, if any: turns alternate, user first."""
    expected = ROLES[i % 2]
    if role != expected:
        return Violation(f"turns[{i}].role",
                         f"role alternation violated: expected {expected!r}, got {role!r}")


def validate_dialogue(d: Dialogue) -> ValidationReport:
    """Check every type invariant; empty report iff the dialogue is valid."""
    report = ValidationReport()
    if not d.id:
        report.add("id", "empty id")
    if not d.turns:
        report.add("turns", "dialogue must have at least one turn")
    for i, turn in enumerate(d.turns):
        if (v := role_violation(i, turn.role)) is not None:
            report.violations.append(v)
        if turn.audio is not None:
            _validate_audio(report, turn.audio, i)
        _validate_alignment(report, turn, i)
        if turn.caption is not None:
            for v in validate_caption(turn.caption).violations:
                report.add(f"turns[{i}].caption.{v.path}", v.message)
    report.violations += validate_flags(d).violations
    return report


def validate_flags(d: Dialogue) -> ValidationReport:
    """The quality-flag invariants of validate_dialogue.

    The cleaning branches index turns and text by flag spans, so ``clean``
    rejects a dialogue that breaks these.
    """
    report = ValidationReport()
    for k, flag in enumerate(d.quality_flags):
        if flag.kind == "logic_contradiction_severe" and not flag.spans:
            report.add(f"quality_flags[{k}]",
                       "severe contradiction flags must carry at least one span")
        if flag.kind == "clean" and flag.spans:
            report.add(f"quality_flags[{k}]", "clean flags must not carry spans")
        for j, (turn_index, (s, e)) in enumerate(flag.spans):
            if turn_index < 0 or turn_index >= len(d.turns):
                report.add(f"quality_flags[{k}].spans[{j}]",
                           f"turn index {turn_index} out of range")
                continue
            text_len = len(d.turns[turn_index].text)
            if s < 0 or e > text_len or s >= e:
                report.add(f"quality_flags[{k}].spans[{j}]",
                           f"text range [{s},{e}) invalid for turn of length {text_len}")
    return report


def validate_corpus(dialogues) -> ValidationReport:
    """Per-dialogue invariants by dialogue id, or by position where the id is empty."""
    report = ValidationReport()
    for n, d in enumerate(dialogues):
        for v in validate_dialogue(d).violations:
            report.add(f"{d.id or n}.{v.path}", v.message)
    return report
