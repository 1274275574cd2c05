import json

import pytest

from seqforge.cleaning import ClientError
from seqforge.corpus import (AlignmentSpan, AudioTokenSpan, Dialogue, Turn,
                             serialize_dialogue)
from seqforge.talker import StreamRatio, _interleave_runs


def write_corpus(dialogues, path, extra_lines=()) -> None:
    """Write dialogues as canonical corpus lines, then each raw extra line."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in dialogues:
            fh.write(serialize_dialogue(d))
            fh.write("\n")
        for raw in extra_lines:
            fh.write(raw)
            fh.write("\n")


def stream_interleave(text_ids: list[int], speech_ids: list[int],
                      ratio: StreamRatio) -> list[tuple[str, int]]:
    """talker._interleave_runs flattened to (stream, id) tokens: the reference view."""
    return [(stream, tid) for stream, ids in _interleave_runs(text_ids, speech_ids, ratio)
            for tid in ids]


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
