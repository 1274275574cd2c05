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

A sequence is held as runs, each (stream, ids, loss): one stream and one
loss flag over a slice of ids. The per-token (stream, id) list and the
speech loss mask are derived from the runs, and serialize_sequence writes
the runs straight to text, byte-identical to json.dumps of the per-token
form.

Special-token ids are negative so they can never collide with the opaque
non-negative speech/text id spaces. Text ids are Unicode scalar values of
the turn text (tokenizer-free symbolic stand-in).
"""
import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

from seqforge.corpus import AudioTokenSpan, Dialogue
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
    runs: list[tuple[str, list[int], bool]]  # (stream, ids, loss on every id)
    manifest: dict = field(default_factory=dict)

    @cached_property
    def tokens(self) -> list[tuple[str, int]]:
        return [(stream, tid) for stream, ids, _ in self.runs for tid in ids]

    @cached_property
    def speech_loss_mask(self) -> list[bool]:
        return [loss for _, ids, loss in self.runs for _ in ids]


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
# stream interleaving
# --------------------------------------------------------------------------

def _interleave_runs(text_ids: list[int], speech_ids: list[int], ratio: StreamRatio):
    """Yield (stream, ids) runs merging two id streams as repeating
    n-text/m-speech runs; no run is empty.

    When one stream is exhausted the remainder of the other is emitted
    contiguously. Both streams keep their internal order; nothing is lost.
    """
    ti, si = 0, 0
    nt, ns = len(text_ids), len(speech_ids)
    while ti < nt or si < ns:
        take = min(ratio.n_text, nt - ti) if si < ns else nt - ti
        if take:
            yield STREAM_TEXT, text_ids[ti:ti + take]
            ti += take
        take = min(ratio.m_speech, ns - si) if ti < nt else ns - si
        if take:
            yield STREAM_SPEECH, speech_ids[si:si + take]
            si += take


def text_ids_for(text: str) -> list[int]:
    return [ord(c) for c in text]


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

def _blocks(dialogue: Dialogue, mode: str, ratio: StreamRatio) -> list[tuple[int, list, bool]]:
    """The mode's blocks, each (role token, content runs, loss on speech)."""
    role_assistant = SPECIAL_TOKENS["ROLE_ASSISTANT"]
    if mode != "dialogue":
        # One assistant block over every turn; standard_sentence has exactly one.
        text_ids: list[int] = []
        speech_ids: list[int] = []
        for i, turn in enumerate(dialogue.turns):
            if turn.audio is None:
                raise AssembleError(f"long_text turn {i} has no audio" if mode == "long_text"
                                    else "standard_sentence utterance has no audio")
            text_ids.extend(text_ids_for(turn.text))
            speech_ids.extend(turn.audio.token_ids)
        return [(role_assistant, _interleave_runs(text_ids, speech_ids, ratio), True)]
    blocks = []
    for i, turn in enumerate(dialogue.turns):
        if turn.role == "assistant":
            if turn.audio is None:
                raise AssembleError(f"assistant turn {i} has no audio")
            blocks.append((role_assistant, _interleave_runs(
                text_ids_for(turn.text), turn.audio.token_ids, ratio), True))
        elif turn.audio is not None:
            blocks.append((SPECIAL_TOKENS["ROLE_USER"],
                           [(STREAM_SPEECH, turn.audio.token_ids)], False))
        else:
            blocks.append((SPECIAL_TOKENS["ROLE_USER"],
                           [(STREAM_TEXT, text_ids_for(turn.text))], False))
    return blocks


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

    specials = SPECIAL_TOKENS
    shift_to = {STREAM_TEXT: (STREAM_SPECIAL, [specials["TEXT_SHIFT"]], False),
                STREAM_SPEECH: (STREAM_SPECIAL, [specials["SPEECH_SHIFT"]], False)}
    eos = (STREAM_SPECIAL, [specials["EOS"]], False)
    runs: list[tuple[str, list[int], bool]] = [
        (STREAM_SPECIAL, [specials["REF_START"]], False),
        (STREAM_SPEECH, reference.span.token_ids, False),
        (STREAM_SPECIAL, [specials["REF_END"]], False)]
    for role, content, loss_on_speech in _blocks(dialogue, mode, ratio):
        runs.append((STREAM_SPECIAL, [role], False))
        prev_stream = None
        for stream, ids in content:
            if stream != prev_stream and prev_stream is not None:
                runs.append(shift_to[stream])
            runs.append((stream, ids, loss_on_speech and stream == STREAM_SPEECH))
            prev_stream = stream
        runs.append(eos)

    manifest = {
        "dialogue_id": dialogue.id,
        "mode": mode,
        "ratio": str(ratio),
        "seed": seed,
        "ref_origin": [reference.dialogue_id, reference.turn_index],
    }
    return TalkerSequence(mode=mode, runs=runs, manifest=manifest)


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


def _dumps(value) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


# One token as JSON with its trailing comma, by stream, for %-formatting a whole run.
_TOKEN_FORMAT = {stream: f'["{stream}",%d],' for stream in (STREAM_SPECIAL, STREAM_TEXT,
                                                             STREAM_SPEECH)}


def serialize_sequence(seq: TalkerSequence) -> str:
    """One JSON line {mode, tokens, speech_loss_mask, manifest}, written run by run.

    Byte-identical to json.dumps(..., ensure_ascii=False, separators=(",", ":"))
    of the per-token form: tokens as [stream, id] arrays, the mask as 0/1.
    """
    tokens = "".join(_TOKEN_FORMAT[stream] * len(ids) % tuple(ids) for stream, ids, _ in seq.runs)
    mask = "".join(("1," if loss else "0,") * len(ids) for _, ids, loss in seq.runs)
    return (f'{{"mode":{_dumps(seq.mode)},"tokens":[{tokens[:-1]}],'
            f'"speech_loss_mask":[{mask[:-1]}],"manifest":{_dumps(seq.manifest)}}}')
