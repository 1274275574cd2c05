"""Seeded synthetic dialogue generator.

Produces schema-valid dialogues with aligned audio for tests, benchmarks and
the acceptance suite. Everything derives from (master_seed, dialogue index),
so corpora are reproducible and shard-independent.
"""
from seqforge.captions import CaptionRecord, vocabulary
from seqforge.corpus import AlignmentSpan, AudioTokenSpan, Dialogue, QualityFlag, Turn
from seqforge.seeding import DetRng, derive_seed

_WORDS = (
    "sure", "about", "that", "plan", "today", "really", "maybe", "later",
    "sounds", "good", "okay", "weather", "coffee", "meeting", "friend",
    "movie", "dinner", "早上", "好的", "没问题", "明天", "一起",
)

FRAME_RATE_HZ = 12.5
TOKENS_PER_CHAR = 2
SPEECH_VOCAB = 4096


def _sentence(rng: DetRng, n_words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(n_words))


def _audio_for(rng: DetRng, n_tokens: int) -> AudioTokenSpan:
    ids = [rng.below(SPEECH_VOCAB) for _ in range(n_tokens)]
    return AudioTokenSpan(token_ids=ids, frame_rate_hz=FRAME_RATE_HZ,
                          duration_s=n_tokens / FRAME_RATE_HZ)


def _align(text: str, n_tokens: int, n_segments: int) -> list[AlignmentSpan]:
    """Contiguous text partition with proportional audio token ranges."""
    n_segments = max(1, min(n_segments, len(text)))
    spans = []
    for k in range(n_segments):
        ts = len(text) * k // n_segments
        te = len(text) * (k + 1) // n_segments
        aus = n_tokens * k // n_segments
        aue = n_tokens * (k + 1) // n_segments
        spans.append(AlignmentSpan(text_range=(ts, te), audio_range=(aus, aue), index=k))
    return spans


def _caption(rng: DetRng) -> CaptionRecord:
    return CaptionRecord(
        gender_age=rng.choice(vocabulary("Gender & Age")),
        emotion=rng.choice(vocabulary("Emotion")),
        speech_rate=rng.choice(vocabulary("Speech Rate")),
        acoustic_scene=rng.choice(vocabulary("Acoustic Scene")),
    )


def synth_dialogue(
    master_seed: int,
    index: int,
    n_turns: int = 2,
    segments_per_assistant: int = 3,
    speaker_pool: int = 8,
    with_audio: bool = True,
    with_captions: bool = False,
    flag_kind: str | None = None,
    truncate_first_turn: bool = False,
    language: str = "en",
    source: str = "synthetic",
) -> Dialogue:
    """One deterministic dialogue; valid under the corpus model."""
    dialogue_id = f"synth-{index:06d}"
    rng = DetRng(derive_seed(master_seed, dialogue_id, "gen"))
    user_speaker = f"spk{rng.below(speaker_pool)}"
    assistant_speaker = f"spk{speaker_pool + rng.below(speaker_pool)}"

    turns = []
    for i in range(n_turns):
        role = "user" if i % 2 == 0 else "assistant"
        text = _sentence(rng, 4 + rng.below(5))
        audio = None
        alignment: list[AlignmentSpan] = []
        if with_audio:
            n_tokens = max(1, TOKENS_PER_CHAR * len(text))
            audio = _audio_for(rng, n_tokens)
            n_seg = segments_per_assistant if role == "assistant" else 1
            alignment = _align(text, n_tokens, n_seg)
        turns.append(Turn(
            role=role,
            speaker_id=user_speaker if role == "user" else assistant_speaker,
            text=text,
            audio=audio,
            alignment=alignment,
            caption=_caption(rng) if with_captions else None,
        ))

    if truncate_first_turn and len(turns) > 1:
        # Simulates a recording cut off mid-conversation (assistant-initial).
        turns = turns[1:]

    flags = []
    if flag_kind == "clean":
        flags.append(QualityFlag(kind="clean"))
    elif flag_kind is not None:
        # Point the flag at the first assistant turn's first half.
        target = next((i for i, t in enumerate(turns) if t.role == "assistant"), 0)
        text_len = len(turns[target].text)
        flags.append(QualityFlag(kind=flag_kind,
                                 spans=[(target, (0, max(1, text_len // 2)))]))

    return Dialogue(id=dialogue_id, turns=turns, language=language,
                    source=source, quality_flags=flags)


def synth_corpus(n: int, master_seed: int, **kwargs) -> list[Dialogue]:
    return [synth_dialogue(master_seed, i, **kwargs) for i in range(n)]
