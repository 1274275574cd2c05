"""Speech-generator training sequences.

Every sequence starts with reference audio wrapped in REF_START/REF_END,
followed by role-token blocks. Three organization modes cover distinct
context regimes: dialogue (dyadic, explicit speaker roles), long_text
(single-speaker monologue, one continuous block) and standard_sentence
(single utterance, no context).

Reference audio is always an independent segment of the same speaker, never
a segment of the training sample itself. Assistant content is emitted as a
repeating n-text/m-speech interleave so synthesis can start from partial
text; a run-level shift token marks every stream switch.

assemble renders a sequence straight to its JSON text: the tokens as
[stream, id] arrays and the speech loss mask as 0/1, each comma-separated.
serialize_sequence only frames them, byte-identical to the canonical JSON
of the per-token form, and the per-token (stream, id) list and mask are
parsed back from the text on demand.

Special-token ids are negative so they can never collide with the opaque
non-negative speech/text id spaces. Text ids are Unicode scalar values of
the turn text (tokenizer-free symbolic stand-in).
"""
import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

from seqforge.corpus import AudioTokenSpan, Dialogue
from seqforge.manifest import canonical_json
from seqforge.seeding import DetRng, derive_seed

STREAM_SPECIAL = "special"
STREAM_TEXT = "text"
STREAM_SPEECH = "speech"

MODES = ("dialogue", "long_text", "standard_sentence")


def load_special_tokens() -> dict[str, int]:
    raw = resources.files("seqforge.data").joinpath("special_tokens.json").read_text("utf-8")
    doc = json.loads(raw)
    tokens = {str(k): int(v) for k, v in doc["tokens"].items()}
    ids = list(tokens.values())
    if len(set(ids)) != len(ids):
        raise ValueError("special token ids must be pairwise distinct")
    if any(v >= 0 for v in ids):
        raise ValueError("special token ids must be negative (payload ids are >= 0)")
    return tokens


SPECIAL_TOKENS = load_special_tokens()
SPECIAL_NAMES = {v: k for k, v in SPECIAL_TOKENS.items()}


class AssembleError(ValueError):
    pass


class NoReferenceError(LookupError):
    pass


class TalkerParseError(ValueError):
    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (token index {index})")
        self.index = index


@dataclass(frozen=True)
class StreamRatio:
    n_text: int
    m_speech: int

    def __post_init__(self):
        if self.n_text < 1 or self.m_speech < 1:
            raise ValueError(f"ratio parts must be >= 1, got {self.n_text}:{self.m_speech}")

    @classmethod
    def parse(cls, text: str) -> "StreamRatio":
        n, _, m = text.partition(":")
        return cls(int(n), int(m))

    def __str__(self) -> str:
        return f"{self.n_text}:{self.m_speech}"


@dataclass(frozen=True)
class ReferenceSegment:
    dialogue_id: str
    turn_index: int
    speaker_id: str
    span: AudioTokenSpan


@dataclass
class TalkerSequence:
    mode: str
    token_text: str  # the tokens as comma-separated JSON [stream, id] arrays
    mask_text: str  # the speech loss mask as comma-separated 0/1
    manifest: dict = field(default_factory=dict)

    @cached_property
    def tokens(self) -> list[tuple[str, int]]:
        return [tuple(token) for token in json.loads(f"[{self.token_text}]")]

    @cached_property
    def speech_loss_mask(self) -> list[bool]:
        return [flag == "1" for flag in self.mask_text[::2]]


@dataclass
class Block:
    role: str
    text_ids: list[int]
    speech_ids: list[int]


@dataclass
class ParsedTalker:
    ref: list[int]
    blocks: list[Block]


# --------------------------------------------------------------------------
# reference selection
# --------------------------------------------------------------------------

class ReferenceIndex(dict):
    """speaker_id -> all audio segments in the corpus, in stable order.

    own[(speaker_id, dialogue_id)] lists, ascending, the positions of that
    dialogue's segments in the speaker's list.
    """

    def __init__(self):
        super().__init__()
        self.own: dict[tuple[str, str], list[int]] = {}


def build_reference_index(dialogues) -> ReferenceIndex:
    index = ReferenceIndex()
    for d in dialogues:
        for i, turn in enumerate(d.turns):
            if turn.audio is not None:
                segments = index.setdefault(turn.speaker_id, [])
                index.own.setdefault((turn.speaker_id, d.id), []).append(len(segments))
                segments.append(ReferenceSegment(d.id, i, turn.speaker_id, turn.audio))
    return index


def reference_speaker(dialogue: Dialogue, mode: str) -> str:
    """The voice the reference must match: in dialogue mode the first
    assistant turn's speaker, else (and in the other modes) the first turn's."""
    if not dialogue.turns:
        raise AssembleError(f"dialogue {dialogue.id!r} has no turns")
    if mode == "dialogue":
        for turn in dialogue.turns:
            if turn.role == "assistant":
                return turn.speaker_id
    return dialogue.turns[0].speaker_id


def select_reference(
    speaker_id: str,
    index: ReferenceIndex,
    current_sample_id: str,
    seed: int,
) -> ReferenceSegment:
    """Seeded pick of an independent same-speaker segment.

    Segments belonging to the current sample are excluded entirely; a speaker
    with no independent segment raises NoReferenceError (callers skip and log
    the sample rather than self-referencing). The draw k indexes the
    speaker's other segments in index order; it is mapped to a position in
    the full list by stepping past the sample's own positions.
    """
    segments = index.get(speaker_id, ())
    own = index.own.get((speaker_id, current_sample_id), ())
    if len(segments) == len(own):
        raise NoReferenceError(
            f"speaker {speaker_id!r} has no independent segment outside "
            f"sample {current_sample_id!r}"
        )
    rng = DetRng(derive_seed(seed, speaker_id, current_sample_id, "reference"))
    k = rng.below(len(segments) - len(own))
    for position in own:
        if position > k:
            break
        k += 1
    return segments[k]


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

class _TokenText(dict):
    """key -> the JSON text of its token in one stream, with the trailing
    comma; token_id maps a key to its id. Filled on first use, so it holds
    only keys the process has rendered."""

    def __init__(self, stream: str, token_id):
        super().__init__()
        self.template = '["%s",%%d],' % stream
        self.token_id = token_id

    def __missing__(self, key):
        token = self[key] = self.template % self.token_id(key)
        return token


_TEXT_TOKENS = _TokenText(STREAM_TEXT, ord)  # keyed by character
_SPECIAL = _TokenText(STREAM_SPECIAL, SPECIAL_TOKENS.__getitem__)  # keyed by name
_TEXT_SHIFT = _SPECIAL["TEXT_SHIFT"]
_SPEECH_SHIFT = _SPECIAL["SPEECH_SHIFT"]


def _speech_run(ids: list[str]) -> str:
    """The token text of one or more speech ids, given as their JSON texts;
    each token has its trailing comma."""
    return '["speech",' + '],["speech",'.join(ids) + "],"


def _speech_tokens(ids_text: str) -> str:
    """The token text of a span's ids_text, rendered whole."""
    return '["speech",' + ids_text.replace(",", '],["speech",') + "]," if ids_text else ""


def _interleave(text: str, speech: str, ratio: StreamRatio) -> tuple[str, str]:
    """Token text and speech-loss mask text of one assistant block's content.

    speech is the block's ids_text. The streams merge as repeating
    n-text/m-speech runs, no run empty and a shift token before every run but
    the first. With a = ceil(len(text)/n) and b = ceil(len(speech ids)/m), the
    first min(a, b) - 1 pairs are full chunks, the last pair takes the rest of
    the stream that runs out first, and if a > b one text run follows. Only
    speech tokens carry loss.
    """
    n, m = ratio.n_text, ratio.m_speech
    t = list(map(_TEXT_TOKENS.__getitem__, text))
    s = speech.split(",") if speech else []
    if not t or not s:
        return "".join(t) + _speech_tokens(speech), "0," * len(t) + "1," * len(s)
    pairs = min(-(-len(t) // n), -(-len(s) // m))
    text_runs = ["".join(t[i:i + n]) for i in range(0, pairs * n, n)]
    speech_runs = [_speech_run(s[i:i + m]) for i in range(0, (pairs - 1) * m, m)]
    speech_runs.append(_speech_run(s[(pairs - 1) * m:]))
    tokens = _TEXT_SHIFT.join(map(_SPEECH_SHIFT.join, zip(text_runs, speech_runs)))
    mask = (("0," * (n + 1) + "1," * m + "0,") * (pairs - 1)
            + "0," * (min(n, len(t) - (pairs - 1) * n) + 1) + "1," * (len(s) - (pairs - 1) * m))
    if len(t) > pairs * n:
        tokens += _TEXT_SHIFT + "".join(t[pairs * n:])
        mask += "0," * (len(t) - pairs * n + 1)
    return tokens, mask


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

def assemble(
    dialogue: Dialogue,
    mode: str,
    ratio: StreamRatio,
    seed: int,
    reference: ReferenceSegment,
) -> TalkerSequence:
    """Build one talker sequence in the given organization mode.

    dialogue mode needs dyadic role structure (>= 2 speakers); long_text a
    single speaker; standard_sentence exactly one utterance. Assistant-side
    (target-voice) turns must carry audio.
    """
    if mode not in MODES:
        raise AssembleError(f"unknown mode {mode!r}")
    if not dialogue.turns:
        raise AssembleError(f"dialogue {dialogue.id!r} has no turns")
    speakers = {t.speaker_id for t in dialogue.turns}
    if mode == "dialogue" and len(speakers) < 2:
        raise AssembleError("dialogue mode needs at least two speakers")
    if mode == "long_text" and len(speakers) != 1:
        raise AssembleError("long_text mode needs a single speaker")
    if mode == "standard_sentence" and len(dialogue.turns) != 1:
        raise AssembleError("standard_sentence mode takes exactly one utterance")
    if reference.dialogue_id == dialogue.id:
        raise AssembleError("reference audio must come from an independent sample")

    role_assistant, role_user = _SPECIAL["ROLE_ASSISTANT"], _SPECIAL["ROLE_USER"]
    eos = _SPECIAL["EOS"]
    ref = reference.span
    tokens = [_SPECIAL["REF_START"], _speech_tokens(ref.ids_text), _SPECIAL["REF_END"]]
    mask = ["0," * (ref.n_tokens + 2)]
    if mode == "dialogue":
        for i, turn in enumerate(dialogue.turns):
            if turn.role == "assistant":
                if turn.audio is None:
                    raise AssembleError(f"assistant turn {i} has no audio")
                content, content_mask = _interleave(turn.text, turn.audio.ids_text, ratio)
                tokens += (role_assistant, content, eos)
                mask += ("0,", content_mask, "0,")
            elif turn.audio is not None:
                tokens += (role_user, _speech_tokens(turn.audio.ids_text), eos)
                mask.append("0," * (turn.audio.n_tokens + 2))
            else:
                tokens += (role_user, "".join(map(_TEXT_TOKENS.__getitem__, turn.text)), eos)
                mask.append("0," * (len(turn.text) + 2))
    else:
        # One assistant block over every turn; standard_sentence has exactly one.
        texts: list[str] = []
        speech: list[str] = []
        for i, turn in enumerate(dialogue.turns):
            if turn.audio is None:
                raise AssembleError(f"long_text turn {i} has no audio" if mode == "long_text"
                                    else "standard_sentence utterance has no audio")
            texts.append(turn.text)
            if turn.audio.ids_text:
                speech.append(turn.audio.ids_text)
        content, content_mask = _interleave("".join(texts), ",".join(speech), ratio)
        tokens += (role_assistant, content, eos)
        mask += ("0,", content_mask, "0,")

    manifest = {
        "dialogue_id": dialogue.id,
        "mode": mode,
        "ratio": str(ratio),
        "seed": seed,
        "ref_origin": [reference.dialogue_id, reference.turn_index],
    }
    return TalkerSequence(mode, "".join(tokens)[:-1], "".join(mask)[:-1], manifest)


# --------------------------------------------------------------------------
# parsing (grammar round-trip oracle)
# --------------------------------------------------------------------------

def parse_sequence(tokens: list[tuple[str, int]]) -> ParsedTalker:
    """Inverse of assemble's layout; raises TalkerParseError with the index."""
    specials = SPECIAL_TOKENS
    names = SPECIAL_NAMES
    if not tokens or tokens[0] != (STREAM_SPECIAL, specials["REF_START"]):
        raise TalkerParseError("sequence must begin with REF_START", 0)

    ref: list[int] = []
    i = 1
    while i < len(tokens):
        stream, tid = tokens[i]
        if stream == STREAM_SPECIAL:
            if tid == specials["REF_END"]:
                break
            raise TalkerParseError(f"unexpected {names.get(tid, tid)} inside reference", i)
        if stream != STREAM_SPEECH:
            raise TalkerParseError("reference section admits speech tokens only", i)
        ref.append(tid)
        i += 1
    else:
        raise TalkerParseError("REF_END not found", len(tokens) - 1)
    i += 1  # consume REF_END

    blocks: list[Block] = []
    while i < len(tokens):
        stream, tid = tokens[i]
        if stream != STREAM_SPECIAL or tid not in (specials["ROLE_USER"], specials["ROLE_ASSISTANT"]):
            raise TalkerParseError("expected a role token to open a block", i)
        role = "user" if tid == specials["ROLE_USER"] else "assistant"
        i += 1
        block = Block(role=role, text_ids=[], speech_ids=[])
        current: str | None = None
        pending_shift: str | None = None
        while i < len(tokens):
            stream, tid = tokens[i]
            if stream == STREAM_SPECIAL:
                if tid == specials["EOS"]:
                    if pending_shift is not None:
                        raise TalkerParseError("dangling stream shift before EOS", i)
                    i += 1
                    break
                if tid == specials["TEXT_SHIFT"]:
                    pending_shift = STREAM_TEXT
                elif tid == specials["SPEECH_SHIFT"]:
                    pending_shift = STREAM_SPEECH
                else:
                    raise TalkerParseError(f"unexpected {names.get(tid, tid)} inside block", i)
                if current is None:
                    raise TalkerParseError("stream shift before any payload", i)
                if pending_shift == current:
                    raise TalkerParseError("shift token does not switch streams", i)
                i += 1
                continue
            if pending_shift is not None:
                if stream != pending_shift:
                    raise TalkerParseError("payload stream contradicts shift token", i)
                pending_shift = None
            elif current is not None and stream != current:
                raise TalkerParseError("stream switch without a shift token", i)
            if stream == STREAM_TEXT:
                block.text_ids.append(tid)
            elif stream == STREAM_SPEECH:
                block.speech_ids.append(tid)
            else:
                raise TalkerParseError(f"unknown stream {stream!r}", i)
            current = stream
            i += 1
        else:
            raise TalkerParseError("block not terminated by EOS", len(tokens) - 1)
        blocks.append(block)
    if not blocks:
        raise TalkerParseError("sequence has no blocks", len(tokens) - 1)
    return ParsedTalker(ref=ref, blocks=blocks)


def serialize_sequence(seq: TalkerSequence) -> str:
    """One JSON line {mode, tokens, speech_loss_mask, manifest} around the rendered text.

    Byte-identical to canonical_json of the per-token form: tokens as
    [stream, id] arrays, the mask as 0/1.
    """
    return (f'{{"mode":{canonical_json(seq.mode)},"tokens":[{seq.token_text}],'
            f'"speech_loss_mask":[{seq.mask_text}],'
            f'"manifest":{canonical_json(seq.manifest)}}}')
