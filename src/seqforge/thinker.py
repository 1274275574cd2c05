"""Compilation of dialogues into modality-interleaved training sequences.

User turns are rendered whole as text or speech by a seeded coin; assistant
turns are rendered per sub-sentence segment, except the final segment of
every assistant turn which is always text. Assistant text segments are the
loss targets, minus any segments masked by the cleaning pipeline.

Determinism contract: the per-dialogue random stream is derived from
(master_seed, dialogue_id) only, and draws are consumed in a fixed order
(one per user turn, one per non-final assistant segment, in sequence order).
Outputs are therefore invariant under sharding and worker count.
"""
import functools
import json
from dataclasses import dataclass, field

from seqforge.corpus import Dialogue, Turn
from seqforge.manifest import config_hash
from seqforge.seeding import DetRng, derive_seed

TEXT = "text"
SPEECH = "speech"


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class InterleavePolicy:
    p_user_speech: float = 0.5
    p_assistant_segment_speech: float = 0.5

    def __post_init__(self):
        for name in ("p_user_speech", "p_assistant_segment_speech"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    def to_json_dict(self) -> dict:
        # Final segments are always text; the key keeps config hashes stable.
        return {
            "p_user_speech": self.p_user_speech,
            "p_assistant_segment_speech": self.p_assistant_segment_speech,
            "final_segment_text": True,
        }


@dataclass(slots=True)
class Element:
    modality: str
    role: str
    text: str | None
    tokens: list[int] | None
    loss_target: bool
    origin: tuple[str, int, int]  # (dialogue_id, turn_index, segment_index)


@dataclass
class TrainingSequence:
    dialogue_id: str
    elements: list[Element]
    manifest: dict = field(default_factory=dict)


@dataclass(slots=True)
class Segment:
    index: int
    text: str
    text_range: tuple[int, int]
    tokens: list[int] | None


@functools.cache  # the policy is frozen: one hash per policy, not per dialogue
def policy_config_hash(policy: InterleavePolicy) -> str:
    return config_hash(policy.to_json_dict())


def segment_assistant(turn: Turn) -> list[Segment]:
    """Split an assistant turn into its aligned sub-sentence segments."""
    if turn.role != "assistant":
        raise CompileError(f"segment_assistant expects an assistant turn, got {turn.role!r}")
    if not turn.alignment:
        raise CompileError(
            "assistant turn has no alignment spans; run the upstream alignment "
            "tool before interleaving"
        )
    segments = []
    for span in turn.alignment:
        ts, te = span.text_range
        tokens = None
        if turn.audio is not None:
            aus, aue = span.audio_range
            tokens = turn.audio.token_ids[aus:aue]
        segments.append(Segment(index=span.index, text=turn.text[ts:te],
                                text_range=(ts, te), tokens=tokens))
    return segments


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def interleave_dialogue(
    dialogue: Dialogue,
    policy: InterleavePolicy,
    master_seed: int,
    masked_spans: list[tuple[int, tuple[int, int]]] | None = None,
) -> TrainingSequence:
    """Compile one dialogue into a modality-interleaved sequence.

    A speech draw on a turn without audio is a hard error, never a silent
    fallback to text (fallbacks would skew modality statistics).
    masked_spans are (turn_index, text_range) pairs from the cleaning
    pipeline; overlapping assistant segments lose their loss-target status.
    """
    rng = DetRng(derive_seed(master_seed, dialogue.id, "thinker"))
    masks_by_turn: dict[int, list[tuple[int, int]]] = {}
    if masked_spans:
        for turn_index, span_range in masked_spans:
            masks_by_turn.setdefault(turn_index, []).append(tuple(span_range))

    elements: list[Element] = []
    for i, turn in enumerate(dialogue.turns):
        if turn.role == "user":
            speech = rng.uniform() < policy.p_user_speech
            if speech:
                if turn.audio is None:
                    raise CompileError(
                        f"dialogue {dialogue.id!r} turn {i}: speech modality drawn "
                        f"but the turn has no audio"
                    )
                elements.append(Element(SPEECH, "user", None, turn.audio.token_ids,
                                        False, (dialogue.id, i, 0)))
            else:
                elements.append(Element(TEXT, "user", turn.text, None,
                                        False, (dialogue.id, i, 0)))
            continue

        # Assistant: per-segment modality, final segment pinned to text.
        if turn.alignment:
            segments = segment_assistant(turn)
        else:
            segments = [Segment(0, turn.text, (0, len(turn.text)),
                                turn.audio.token_ids if turn.audio else None)]
        turn_masks = masks_by_turn.get(i, ())
        last = len(segments) - 1
        for k, seg in enumerate(segments):
            if k < last and rng.uniform() < policy.p_assistant_segment_speech:
                if seg.tokens is None:
                    raise CompileError(
                        f"dialogue {dialogue.id!r} turn {i} segment {k}: speech "
                        f"modality drawn but the segment has no audio tokens"
                    )
                elements.append(Element(SPEECH, "assistant", None, seg.tokens,
                                        False, (dialogue.id, i, seg.index)))
            else:
                masked = any(_overlaps(seg.text_range, m) for m in turn_masks)
                elements.append(Element(TEXT, "assistant", seg.text, None,
                                        not masked, (dialogue.id, i, seg.index)))

    manifest = {
        "master_seed": master_seed,
        "policy": policy.to_json_dict(),
        "config_hash": policy_config_hash(policy),
    }
    return TrainingSequence(dialogue_id=dialogue.id, elements=elements, manifest=manifest)


def extract_loss_targets(seq: TrainingSequence) -> list[tuple[tuple[str, int, int], str]]:
    """Exactly the loss-target elements, in sequence order."""
    return [(e.origin, e.text) for e in seq.elements if e.loss_target]


def sequence_to_dict(seq: TrainingSequence) -> dict:
    elements = []
    for e in seq.elements:
        doc = {"modality": e.modality, "role": e.role}
        if e.modality == TEXT:
            doc["text"] = e.text
        else:
            doc["tokens"] = e.tokens
        doc["loss_target"] = e.loss_target
        doc["origin"] = list(e.origin)
        elements.append(doc)
    return {"dialogue_id": seq.dialogue_id, "elements": elements, "manifest": seq.manifest}


def serialize_sequence(seq: TrainingSequence) -> str:
    return json.dumps(sequence_to_dict(seq), ensure_ascii=False, separators=(",", ":"))
