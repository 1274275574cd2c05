"""Compilation of dialogues into modality-interleaved training sequences.

User turns are rendered whole as text or speech by a seeded coin; assistant
turns are rendered per sub-sentence segment, except the final segment of
every assistant turn which is always text. Assistant text segments are the
loss targets, minus any segments masked by the cleaning pipeline.

Determinism contract: the per-dialogue random stream is derived from
(master_seed, dialogue_id) only, and draws are consumed in a fixed order
(one per user turn, one per non-final assistant segment, in sequence order).
Outputs are therefore invariant under sharding and worker count.

interleave_dialogue writes each element straight to its canonical JSON text
as it draws it, and counts elements and loss targets in the same pass; the
manifest's text is encoded once per (seed, policy). serialize_sequence only
frames the texts, byte-identical to canonical_json of the dict form with each
speech element's tokens as an array, and the Element list is parsed back
from the text on demand.
"""
import functools
import json
from dataclasses import dataclass
from functools import cached_property

from seqforge.corpus import AlignmentSpan, Dialogue
from seqforge.manifest import canonical_json, json_digest, json_string
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
    elements_text: str  # the elements as comma-separated canonical JSON objects
    manifest_text: str  # the manifest as canonical JSON
    n_elements: int
    n_loss_targets: int

    @cached_property
    def elements(self) -> list[Element]:
        return [Element(doc["modality"], doc["role"], doc.get("text"),
                        canonical_json(doc["tokens"])[1:-1] if "tokens" in doc else None,
                        doc["loss_target"], tuple(doc["origin"]))
                for doc in json.loads(f"[{self.elements_text}]")]

    @cached_property
    def manifest(self) -> dict:
        return json.loads(self.manifest_text)


# typed: a master seed of True is not 1. One run compiles with one seed and policy.
@functools.lru_cache(maxsize=16, typed=True)
def _manifest_text(master_seed: int, policy: InterleavePolicy) -> str:
    return canonical_json({
        "master_seed": master_seed,
        "policy": policy.to_json_dict(),
        "config_hash": json_digest(policy.to_json_dict()),
    })


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
    Each element is written as its JSON text when it is drawn, and counted.
    """
    rng = DetRng(derive_seed(master_seed, dialogue.id, "thinker"))
    masks_by_turn: dict[int, list[tuple[int, int]]] = {}
    if masked_spans:
        for turn_index, span_range in masked_spans:
            masks_by_turn.setdefault(turn_index, []).append(tuple(span_range))

    did = json_string(dialogue.id)
    elements: list[str] = []
    n_targets = 0
    for i, turn in enumerate(dialogue.turns):
        if turn.role == "user":
            speech = rng.uniform() < policy.p_user_speech
            if speech:
                if turn.audio is None:
                    raise CompileError(
                        f"dialogue {dialogue.id!r} turn {i}: speech modality drawn "
                        f"but the turn has no audio"
                    )
                elements.append(f'{{"modality":"speech","role":"user","tokens":'
                                f'[{turn.audio.ids_text}],"loss_target":false,'
                                f'"origin":[{did},{i},0]}}')
            else:
                elements.append(f'{{"modality":"text","role":"user","text":'
                                f'{json_string(turn.text)},"loss_target":false,'
                                f'"origin":[{did},{i},0]}}')
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
                elements.append(f'{{"modality":"speech","role":"assistant","tokens":'
                                f'[{",".join(ids[aus:aue])}],"loss_target":false,'
                                f'"origin":[{did},{i},{span.index}]}}')
            else:
                ts, te = span.text_range
                if turn_masks and any(ts < me and ms < te for ms, me in turn_masks):
                    target = "false"
                else:
                    target = "true"
                    n_targets += 1
                elements.append(f'{{"modality":"text","role":"assistant","text":'
                                f'{json_string(turn.text[ts:te])},"loss_target":{target},'
                                f'"origin":[{did},{i},{span.index}]}}')

    return TrainingSequence(dialogue.id, ",".join(elements),
                            _manifest_text(master_seed, policy), len(elements), n_targets)


def serialize_sequence(seq: TrainingSequence) -> str:
    """The sequence as one canonical JSON line around its rendered elements."""
    return (f'{{"dialogue_id":{json_string(seq.dialogue_id)},"elements":[{seq.elements_text}],'
            f'"manifest":{seq.manifest_text}}}')
