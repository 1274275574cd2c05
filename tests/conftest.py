import json

import pytest

from seqforge.cleaning import ClientError
from seqforge.corpus import (AlignmentSpan, AudioTokenSpan, Dialogue, Turn,
                             serialize_dialogue)
from seqforge.talker import SPECIAL_TOKENS, StreamRatio
from seqforge.templates import TaskSpec
from seqforge.thinker import TrainingSequence


def write_corpus(dialogues, path, extra_lines=()) -> None:
    """Write dialogues as canonical corpus lines, then each raw extra line."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in dialogues:
            fh.write(serialize_dialogue(d))
            fh.write("\n")
        for raw in extra_lines:
            fh.write(raw)
            fh.write("\n")


# --------------------------------------------------------------------------
# talker reference: sequences as runs, which talker.assemble's rendered text
# must match byte for byte
# --------------------------------------------------------------------------

def interleave_runs(text_ids: list[int], speech_ids: list[int], ratio: StreamRatio):
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
            yield "text", text_ids[ti:ti + take]
            ti += take
        take = min(ratio.m_speech, ns - si) if ti < nt else ns - si
        if take:
            yield "speech", speech_ids[si:si + take]
            si += take


def stream_interleave(text_ids: list[int], speech_ids: list[int],
                      ratio: StreamRatio) -> list[tuple[str, int]]:
    """interleave_runs flattened to (stream, id) tokens."""
    return [(stream, tid) for stream, ids in interleave_runs(text_ids, speech_ids, ratio)
            for tid in ids]


def text_ids_for(text: str) -> list[int]:
    return [ord(c) for c in text]


def _reference_blocks(dialogue: Dialogue, mode: str, ratio: StreamRatio):
    """The mode's blocks, each (role token, content runs, loss on speech)."""
    role_assistant = SPECIAL_TOKENS["ROLE_ASSISTANT"]
    if mode != "dialogue":
        text_ids = [c for turn in dialogue.turns for c in text_ids_for(turn.text)]
        speech_ids = [s for turn in dialogue.turns for s in turn.audio.token_ids]
        return [(role_assistant, interleave_runs(text_ids, speech_ids, ratio), True)]
    blocks = []
    for turn in dialogue.turns:
        if turn.role == "assistant":
            blocks.append((role_assistant, interleave_runs(
                text_ids_for(turn.text), turn.audio.token_ids, ratio), True))
        elif turn.audio is not None:
            blocks.append((SPECIAL_TOKENS["ROLE_USER"], [("speech", turn.audio.token_ids)], False))
        else:
            blocks.append((SPECIAL_TOKENS["ROLE_USER"], [("text", text_ids_for(turn.text))], False))
    return blocks


def reference_runs(dialogue: Dialogue, mode: str, ratio: StreamRatio,
                   reference) -> list[tuple[str, list[int], bool]]:
    """A valid input's talker sequence as runs, each (stream, ids, loss on every id)."""
    specials = SPECIAL_TOKENS
    shift_to = {"text": ("special", [specials["TEXT_SHIFT"]], False),
                "speech": ("special", [specials["SPEECH_SHIFT"]], False)}
    runs = [("special", [specials["REF_START"]], False),
            ("speech", reference.span.token_ids, False),
            ("special", [specials["REF_END"]], False)]
    for role, content, loss_on_speech in _reference_blocks(dialogue, mode, ratio):
        runs.append(("special", [role], False))
        prev_stream = None
        for stream, ids in content:
            if stream != prev_stream and prev_stream is not None:
                runs.append(shift_to[stream])
            runs.append((stream, ids, loss_on_speech and stream == "speech"))
            prev_stream = stream
        runs.append(("special", [specials["EOS"]], False))
    return runs


def reference_manifest(dialogue: Dialogue, mode: str, ratio: StreamRatio, seed: int,
                       reference) -> dict:
    return {"dialogue_id": dialogue.id, "mode": mode, "ratio": str(ratio), "seed": seed,
            "ref_origin": [reference.dialogue_id, reference.turn_index]}


def reference_line(dialogue: Dialogue, mode: str, ratio: StreamRatio, seed: int,
                   reference) -> str:
    """The talker output line, written run by run with one %-format per run."""
    runs = reference_runs(dialogue, mode, ratio, reference)
    token_format = {stream: f'["{stream}",%d],' for stream in ("special", "text", "speech")}
    tokens = "".join(token_format[stream] * len(ids) % tuple(ids) for stream, ids, _ in runs)
    mask = "".join(("1," if loss else "0,") * len(ids) for _, ids, loss in runs)
    manifest = reference_manifest(dialogue, mode, ratio, seed, reference)
    return (f'{{"mode":{json.dumps(mode)},"tokens":[{tokens[:-1]}],'
            f'"speech_loss_mask":[{mask[:-1]}],'
            f'"manifest":{json.dumps(manifest, ensure_ascii=False, separators=(",", ":"))}}}')


# --------------------------------------------------------------------------
# oracles: the loss targets of a thinker sequence, and whether a prompt derives
# from a slot grammar
# --------------------------------------------------------------------------

def extract_loss_targets(seq: TrainingSequence) -> list[tuple[tuple[str, int, int], str]]:
    """Exactly the loss-target elements, in sequence order."""
    return [(e.origin, e.text) for e in seq.elements if e.loss_target]


def variant_matches(spec: TaskSpec, text: str) -> bool:
    """Whether a text is derivable from the slot grammar (re-parse check)."""

    def rec(remaining: str, slot_idx: int) -> bool:
        if slot_idx == len(spec.slot_grammar):
            return remaining == ""
        slot = spec.slot_grammar[slot_idx]
        options = slot.choices()
        for opt in options:
            if opt is None:
                if rec(remaining, slot_idx + 1):
                    return True
                continue
            for cand in (opt + " ", opt):
                if remaining.startswith(cand) and rec(remaining[len(cand):], slot_idx + 1):
                    return True
        return False

    return rec(text, 0)


def make_audio(n_tokens: int, rate: float = 12.5) -> AudioTokenSpan:
    return AudioTokenSpan(token_ids=list(range(n_tokens)), frame_rate_hz=rate,
                          duration_s=n_tokens / rate)


def make_turn(role: str, text: str = "hello there", speaker: str = "spk0",
              with_audio: bool = True, n_segments: int = 1) -> Turn:
    audio = make_audio(2 * len(text)) if with_audio else None
    spans = []
    if with_audio:
        n_tok = audio.n_tokens
        for k in range(n_segments):
            ts, te = len(text) * k // n_segments, len(text) * (k + 1) // n_segments
            aus, aue = n_tok * k // n_segments, n_tok * (k + 1) // n_segments
            spans.append(AlignmentSpan((ts, te), (aus, aue), k))
    return Turn(role=role, speaker_id=speaker, text=text, audio=audio, alignment=spans)


def make_dialogue(did: str = "d0", n_turns: int = 2, **turn_kwargs) -> Dialogue:
    turns = []
    for i in range(n_turns):
        role = "user" if i % 2 == 0 else "assistant"
        speaker = "spk_u" if role == "user" else "spk_a"
        turns.append(make_turn(role, speaker=speaker, **turn_kwargs))
    return Dialogue(id=did, turns=turns)


@pytest.fixture
def corpus_file(tmp_path):
    """Write dialogues to a corpus file and return its path."""

    def write(dialogues, name="corpus.jsonl", extra_lines=()):
        path = tmp_path / name
        write_corpus(dialogues, path, extra_lines)
        return path

    return write


@pytest.fixture
def jl(tmp_path):
    """Write arbitrary JSON objects as a jsonl file."""

    def write(docs, name="data.jsonl"):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as fh:
            for doc in docs:
                fh.write(json.dumps(doc, ensure_ascii=False))
                fh.write("\n")
        return path

    return write


class FlakyClient:
    """Fails the first n calls of an inner cleaning client."""

    def __init__(self, inner, fail_calls: int):
        self.inner = inner
        self.remaining_failures = fail_calls

    def _maybe_fail(self):
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise ClientError("injected fault")

    def correct(self, text, context):
        self._maybe_fail()
        return self.inner.correct(text, context)

    def backfill(self, dialogue):
        self._maybe_fail()
        return self.inner.backfill(dialogue)

    def synthesize(self, text, speaker_id):
        self._maybe_fail()
        return self.inner.synthesize(text, speaker_id)
