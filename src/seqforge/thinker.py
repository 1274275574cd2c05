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

from seqforge.corpus import AlignmentSpan, Dialogue
from seqforge.manifest import IDS_MARK, canonical_json, json_digest, splice_ids
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
    ids_text: str | None  # a speech element's token ids as JSON text, as in AudioTokenSpan
    loss_target: bool
    origin: tuple[str, int, int]  # (dialogue_id, turn_index, segment_index)

    @property
    def tokens(self) -> list[int] | None:
        return None if self.ids_text is None else json.loads(f"[{self.ids_text}]")


@dataclass
class TrainingSequence:
    dialogue_id: str
    elements: list[Element]
    manifest: dict = field(default_factory=dict)


@functools.cache  # the policy is frozen: one hash per policy, not per dialogue
def policy_config_hash(policy: InterleavePolicy) -> str:
    return json_digest(policy.to_json_dict())


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
                elements.append(Element(SPEECH, "user", None, turn.audio.ids_text,
                                        False, (dialogue.id, i, 0)))
            else:
                elements.append(Element(TEXT, "user", turn.text, None,
                                        False, (dialogue.id, i, 0)))
            continue

        # Assistant: one segment per alignment span, final segment pinned to
        # text. A turn without spans is one whole-turn segment, so it is text.
        spans = turn.alignment or (AlignmentSpan((0, len(turn.text)), (0, 0), 0),)
        turn_masks = masks_by_turn.get(i, ())
        last = len(spans) - 1
        ids = None  # the turn's id texts, split on the first speech segment
        for k, span in enumerate(spans):
            if k < last and rng.uniform() < policy.p_assistant_segment_speech:
                if turn.audio is None:
                    raise CompileError(
                        f"dialogue {dialogue.id!r} turn {i} segment {k}: speech "
                        f"modality drawn but the segment has no audio tokens"
                    )
                if ids is None:
                    ids = turn.audio.ids_text.split(",")
                aus, aue = span.audio_range
                elements.append(Element(SPEECH, "assistant", None, ",".join(ids[aus:aue]),
                                        False, (dialogue.id, i, span.index)))
            else:
                ts, te = span.text_range
                masked = any(_overlaps(span.text_range, m) for m in turn_masks)
                elements.append(Element(TEXT, "assistant", turn.text[ts:te], None,
                                        not masked, (dialogue.id, i, span.index)))

    manifest = {
        "master_seed": master_seed,
        "policy": policy.to_json_dict(),
        "config_hash": policy_config_hash(policy),
    }
    return TrainingSequence(dialogue_id=dialogue.id, elements=elements, manifest=manifest)


def extract_loss_targets(seq: TrainingSequence) -> list[tuple[tuple[str, int, int], str]]:
    """Exactly the loss-target elements, in sequence order."""
    return [(e.origin, e.text) for e in seq.elements if e.loss_target]


def serialize_sequence(seq: TrainingSequence) -> str:
    """The sequence as one canonical JSON line; speech tokens are spliced in as text."""
    ids: list[str] = []
    elements = []
    for e in seq.elements:
        doc = {"modality": e.modality, "role": e.role}
        if e.modality == TEXT:
            doc["text"] = e.text
        else:
            ids.append(e.ids_text)
            doc["tokens"] = IDS_MARK
        doc["loss_target"] = e.loss_target
        doc["origin"] = list(e.origin)
        elements.append(doc)
    sequence = {"dialogue_id": seq.dialogue_id, "elements": elements, "manifest": seq.manifest}
    return splice_ids(canonical_json(sequence), "tokens", ids)
